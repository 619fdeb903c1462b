//! Percentile, rate and open-loop schedule arithmetic.
//!
//! Everything here is pure so the unit tests pin the numbers the
//! benchmark reports.

/// Nearest-rank percentile of an ascending-sorted slice, `q` in [0, 1].
/// `None` for an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.saturating_sub(1).min(sorted.len() - 1)])
}

/// Median of an unsorted sample (mean of the two middle values for an
/// even count). `None` for an empty sample.
pub fn median(sample: &[f64]) -> Option<f64> {
    let mut v = sample.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some(0.5 * (v[n / 2 - 1] + v[n / 2])),
    }
}

/// Sorts a sample in place and returns it (percentile input).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Completion rate over `[t0, t1)`: the completions after the first
/// divided by the time from the first to the last, so the figure is not
/// quantized to whole completions per span. `None` with fewer than two
/// completions in the span.
pub fn span_rate(done_s: &[f64], t0: f64, t1: f64) -> Option<f64> {
    let inside = done_s.iter().filter(|&&t| t >= t0 && t < t1);
    let (first, last, n) = inside.fold((f64::INFINITY, f64::NEG_INFINITY, 0usize), |acc, &t| {
        (acc.0.min(t), acc.1.max(t), acc.2 + 1)
    });
    (n >= 2 && last > first).then(|| (n - 1) as f64 / (last - first))
}

/// Which part of the open-loop schedule a CPI was due in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Offered below capacity: latency and correctness are measured.
    Nominal,
    /// Offered above capacity: sustained rate is measured, refusals are
    /// designed shedding.
    Overload,
}

/// A two-phase open-loop arrival schedule: `nominal_rate` CPI/s for
/// `nominal_s` seconds, then `overload_rate` CPI/s for `overload_s`
/// seconds. Arrivals are evenly spaced within each phase.
#[derive(Clone, Copy, Debug)]
pub struct Schedule {
    /// Nominal-phase offered rate (CPI/s).
    pub nominal_rate: f64,
    /// Nominal-phase length (s).
    pub nominal_s: f64,
    /// Overload-phase offered rate (CPI/s).
    pub overload_rate: f64,
    /// Overload-phase length (s).
    pub overload_s: f64,
}

impl Schedule {
    /// Arrivals due in the nominal phase.
    pub fn nominal_count(&self) -> usize {
        (self.nominal_rate * self.nominal_s).floor() as usize
    }

    /// Arrivals due in the overload phase.
    pub fn overload_count(&self) -> usize {
        (self.overload_rate * self.overload_s).floor() as usize
    }

    /// All arrivals in the schedule.
    pub fn total(&self) -> usize {
        self.nominal_count() + self.overload_count()
    }

    /// Due time of arrival `i` (seconds after the schedule start) and
    /// its phase.
    pub fn due(&self, i: usize) -> (f64, Phase) {
        let n = self.nominal_count();
        if i < n {
            (i as f64 / self.nominal_rate, Phase::Nominal)
        } else {
            let j = (i - n) as f64;
            (self.nominal_s + j / self.overload_rate, Phase::Overload)
        }
    }

    /// Schedule length (s).
    pub fn length(&self) -> f64 {
        self.nominal_s + self.overload_s
    }

    /// Nominal-phase arrivals due before this many seconds are warm-up:
    /// checked for correctness but left out of the latency sample.
    pub fn warmup_s(&self) -> f64 {
        (0.15 * self.nominal_s).min(1.0)
    }

    /// Overload-phase seconds left for queues to fill before the
    /// sustained rate is measured.
    pub fn settle_s(&self) -> f64 {
        (0.25 * self.overload_s).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v = sorted((1..=100).map(f64::from).collect());
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.9), Some(90.0));
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 0.5), None);
        // Ten samples: p90 is the ninth, not an interpolation.
        let v = sorted((1..=10).rev().map(f64::from).collect());
        assert_eq!(percentile(&v, 0.9), Some(9.0));
        assert_eq!(percentile(&v, 0.91), Some(10.0));
    }

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn span_rate_counts_intervals_inside_the_span() {
        // 10/s for 3 s, a 1 s stall, then 10/s again.
        let mut done = Vec::new();
        for w in [0.0, 1.0, 2.0, 4.0] {
            for i in 0..10 {
                done.push(w + 0.05 + 0.1 * i as f64);
            }
        }
        let close = |r: Option<f64>, want: f64| (r.unwrap() - want).abs() < 1e-9;
        assert!(close(span_rate(&done, 0.0, 3.0), 10.0));
        // Samples outside the span are ignored.
        assert!(close(span_rate(&done, 1.0, 2.0), 10.0));
        // A stall inside the span lowers the rate: 39 intervals, 4.9 s.
        assert!(close(span_rate(&done, 0.0, 5.0), 39.0 / 4.9));
        assert_eq!(span_rate(&done, 3.0, 4.0), None);
        assert_eq!(span_rate(&[1.0], 0.0, 2.0), None);
    }

    #[test]
    fn schedule_phases_and_due_times() {
        let s = Schedule {
            nominal_rate: 8.0,
            nominal_s: 2.5,
            overload_rate: 30.0,
            overload_s: 1.0,
        };
        assert_eq!(s.nominal_count(), 20);
        assert_eq!(s.overload_count(), 30);
        assert_eq!(s.total(), 50);
        assert_eq!(s.due(0), (0.0, Phase::Nominal));
        assert_eq!(s.due(4), (0.5, Phase::Nominal));
        assert_eq!(s.due(19).1, Phase::Nominal);
        // The first overload arrival lands exactly at the boundary.
        assert_eq!(s.due(20), (2.5, Phase::Overload));
        let (t, p) = s.due(35);
        assert_eq!(p, Phase::Overload);
        assert!((t - 3.0).abs() < 1e-12);
        assert!((s.length() - 3.5).abs() < 1e-12);
        assert!((s.warmup_s() - 0.375).abs() < 1e-12);
        assert!((s.settle_s() - 0.25).abs() < 1e-12);
        let long = Schedule {
            nominal_s: 20.0,
            overload_s: 10.0,
            ..s
        };
        assert_eq!((long.warmup_s(), long.settle_s()), (1.0, 1.0));
        // Due times never decrease across the phase boundary.
        let dues: Vec<f64> = (0..s.total()).map(|i| s.due(i).0).collect();
        assert!(dues.windows(2).all(|w| w[0] <= w[1]));
    }
}
