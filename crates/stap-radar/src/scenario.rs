//! Scenario assembly and CPI streaming.

use crate::clutter::{add_clutter, add_jammer, add_noise, ClutterConfig, Jammer};
use crate::steering::{doppler_steering, ArrayGeometry};
use crate::waveform::chirp;
use stap_cube::CCube;
use stap_util::Rng;

/// A point target injected into the scene.
#[derive(Clone, Copy, Debug)]
pub struct Target {
    /// Range cell index at CPI 0 (0..K).
    pub range_cell: usize,
    /// Normalized Doppler frequency, cycles per pulse, in `[-0.5, 0.5)`.
    pub doppler: f64,
    /// Azimuth in degrees.
    pub az_deg: f64,
    /// Per-sample signal-to-noise ratio, dB.
    pub snr_db: f64,
    /// Range migration in cells per CPI (positive = receding); the
    /// target sits at `range_cell + round(cpi * range_rate)`, so long
    /// dwells exercise the tracker-side story (detections walking
    /// through range while the Doppler bin stays put).
    pub range_rate: f64,
}

impl Target {
    /// A stationary-range target (no migration).
    pub fn fixed(range_cell: usize, doppler: f64, az_deg: f64, snr_db: f64) -> Self {
        Target {
            range_cell,
            doppler,
            az_deg,
            snr_db,
            range_rate: 0.0,
        }
    }

    /// The range cell this target occupies at CPI `i` (clamped to the
    /// valid range; `None` once it walks off the far edge).
    pub fn range_at(&self, cpi: usize, k_range: usize) -> Option<usize> {
        let r = self.range_cell as f64 + cpi as f64 * self.range_rate;
        if r < 0.0 || r >= k_range as f64 {
            None
        } else {
            Some(r.round() as usize)
        }
    }
}

/// A complete synthetic radar scene: geometry, environment, targets and
/// the transmit-beam revisit schedule.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Receive array geometry.
    pub geom: ArrayGeometry,
    /// Range cells per CPI (paper: K = 512).
    pub range_cells: usize,
    /// Pulses per CPI (paper: N = 128).
    pub pulses: usize,
    /// Clutter field, if present.
    pub clutter: Option<ClutterConfig>,
    /// Barrage jammers.
    pub jammers: Vec<Jammer>,
    /// Targets (present in every CPI whose transmit beam covers their
    /// azimuth to within `beam_half_width_deg`).
    pub targets: Vec<Target>,
    /// Transmit-beam centers, degrees; revisited round-robin (paper: five
    /// beams 20 degrees apart).
    pub transmit_beams: Vec<f64>,
    /// Transmit beam half-width, degrees (paper: 25-degree beams).
    pub beam_half_width_deg: f64,
    /// Transmit pulse length in range samples: target echoes are
    /// chirp-modulated over this many cells (1 = point scatterer with no
    /// waveform). Must match the pulse-compression replica length for
    /// full integration gain.
    pub replica_len: usize,
    /// Front-end quantization in bits per I/Q component (the RTMCARM
    /// interface boards produced "16 bit baseband real and imaginary
    /// numbers"). `None` = ideal float samples. Quantization is applied
    /// after all signal components, scaled to the CPI's own peak.
    pub quantization_bits: Option<u32>,
    /// Base RNG seed; CPI `i` uses `seed + i` so any CPI can be
    /// regenerated independently.
    pub seed: u64,
}

impl Scenario {
    /// The paper's full-size geometry: `K = 512`, `N = 128`, 16 channels,
    /// five transmit beams at -40..40 degrees, 40 dB clutter, one
    /// detectable target per beam-zero revisit.
    pub fn rtmcarm(seed: u64) -> Self {
        Scenario {
            geom: ArrayGeometry::rtmcarm(),
            range_cells: 512,
            pulses: 128,
            clutter: Some(ClutterConfig::default()),
            jammers: Vec::new(),
            targets: vec![Target::fixed(200, 0.25, 2.0, 0.0)],
            transmit_beams: vec![-40.0, -20.0, 0.0, 20.0, 40.0],
            beam_half_width_deg: 12.5,
            replica_len: 32,
            quantization_bits: Some(16),
            seed,
        }
    }

    /// A reduced geometry for fast tests: `K = 64`, `N = 32`, 8 channels,
    /// single broadside transmit beam.
    pub fn reduced(seed: u64) -> Self {
        Scenario {
            geom: ArrayGeometry::small(8),
            range_cells: 64,
            pulses: 32,
            clutter: Some(ClutterConfig {
                patches: 18,
                ..Default::default()
            }),
            jammers: Vec::new(),
            targets: vec![Target::fixed(30, 0.25, 2.0, 5.0)],
            transmit_beams: vec![0.0],
            beam_half_width_deg: 12.5,
            replica_len: 8,
            quantization_bits: None,
            seed,
        }
    }

    /// The transmit-beam center used by CPI `i` (round-robin revisit).
    pub fn beam_of_cpi(&self, i: usize) -> f64 {
        self.transmit_beams[i % self.transmit_beams.len()]
    }

    /// Targets illuminated by CPI `i`'s transmit beam.
    pub fn targets_in_beam(&self, i: usize) -> Vec<Target> {
        let center = self.beam_of_cpi(i);
        self.targets
            .iter()
            .copied()
            .filter(|t| (t.az_deg - center).abs() <= self.beam_half_width_deg)
            .collect()
    }

    /// Generates CPI `i` as a `(K, J, N)` cube (pulses unit-stride, the
    /// corner-turned layout the special interface boards produced).
    pub fn generate_cpi(&self, i: usize) -> CCube {
        let mut cube = CCube::zeros(self.cube_shape());
        self.synthesize(i, &mut cube);
        cube
    }

    fn cube_shape(&self) -> [usize; 3] {
        [self.range_cells, self.geom.channels, self.pulses]
    }

    /// Adds CPI `i`'s returns to the zeroed `cube`.
    fn synthesize(&self, i: usize, cube: &mut CCube) {
        let mut rng = Rng::seed_from_u64(self.seed.wrapping_add(i as u64));
        let beam = self.beam_of_cpi(i);
        if let Some(cfg) = &self.clutter {
            add_clutter(cube, &self.geom, cfg, beam, &mut rng);
        }
        for j in &self.jammers {
            add_jammer(cube, &self.geom, j, &mut rng);
        }
        for t in self.targets_in_beam(i) {
            if let Some(cell) = t.range_at(i, self.range_cells) {
                let mut at_cell = t;
                at_cell.range_cell = cell;
                inject_target(cube, &self.geom, &at_cell, self.replica_len);
            }
        }
        add_noise(cube, &mut rng);
        if let Some(bits) = self.quantization_bits {
            quantize(cube, bits);
        }
    }

    /// An iterator over `(cpi_index, beam_center_deg, cube)`.
    pub fn stream(&self, count: usize) -> CpiStream<'_> {
        CpiStream {
            scenario: self,
            next: 0,
            count,
        }
    }

    /// CPIs `0..count` in order, synthesized on up to
    /// `available_parallelism` scoped threads, one contiguous chunk of
    /// indices each. Every CPI is seeded by its own index, so the cubes
    /// are bit-identical to collecting [`Scenario::stream`]. The cubes
    /// are allocated on the calling thread, where collecting the stream
    /// puts them: a short-lived worker's allocations land in its own
    /// allocator arena, which later workers need not reuse, so repeated
    /// calls would keep growing the heap.
    pub fn cubes(&self, count: usize) -> Vec<CCube> {
        let mut out: Vec<CCube> = (0..count)
            .map(|_| CCube::zeros(self.cube_shape()))
            .collect();
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let chunk = count.div_ceil(threads).max(1);
        std::thread::scope(|s| {
            for (c, part) in out.chunks_mut(chunk).enumerate() {
                s.spawn(move || {
                    for (k, cube) in part.iter_mut().enumerate() {
                        self.synthesize(c * chunk + k, cube);
                    }
                });
            }
        });
        out
    }
}

/// Streaming CPI source (see [`Scenario::stream`]).
pub struct CpiStream<'a> {
    scenario: &'a Scenario,
    next: usize,
    count: usize,
}

impl Iterator for CpiStream<'_> {
    type Item = (usize, f64, CCube);

    fn next(&mut self) -> Option<Self::Item> {
        if self.next >= self.count {
            return None;
        }
        let i = self.next;
        self.next += 1;
        Some((
            i,
            self.scenario.beam_of_cpi(i),
            self.scenario.generate_cpi(i),
        ))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.count - self.next;
        (rem, Some(rem))
    }
}

/// Quantizes every I/Q component to `bits` (two's complement, full
/// scale at the cube's own peak magnitude) — the ADC/demodulator chain
/// of the RTMCARM front end.
pub fn quantize(cube: &mut CCube, bits: u32) {
    assert!((2..=24).contains(&bits), "bits must be in 2..=24");
    let peak = cube
        .as_slice()
        .iter()
        .map(|x| x.re.abs().max(x.im.abs()))
        .fold(0.0f64, f64::max);
    if peak == 0.0 {
        return;
    }
    let levels = (1u64 << (bits - 1)) as f64 - 1.0; // signed full scale
    let q = peak / levels;
    for x in cube.as_mut_slice() {
        *x = stap_math::Cx::new((x.re / q).round() * q, (x.im / q).round() * q);
    }
}

/// Adds a target's space-time response: the transmit chirp delayed to
/// the target's range cell, modulated by the spatial and Doppler
/// steering. `snr_db` is the per-sample SNR at the echo's strongest cell
/// before pulse-compression gain.
fn inject_target(cube: &mut CCube, geom: &ArrayGeometry, t: &Target, replica_len: usize) {
    let [k_cells, _, n_pulses] = cube.shape();
    assert!(t.range_cell < k_cells, "target range cell out of bounds");
    let amp = 10f64.powf(t.snr_db / 20.0);
    let s = geom.steering(t.az_deg);
    let d = doppler_steering(t.doppler, n_pulses);
    let un_norm = (n_pulses as f64).sqrt() * (geom.channels as f64).sqrt();
    let wave = chirp(replica_len.max(1));
    // Normalize so the strongest waveform cell carries `amp`.
    let wave_scale = (replica_len.max(1)) as f64;
    for (i, wv) in wave.iter().enumerate() {
        let cell = t.range_cell + i;
        if cell >= k_cells {
            break;
        }
        let cell_amp = *wv * (amp * un_norm * wave_scale.sqrt());
        for (j, sj) in s.iter().enumerate() {
            let lane = cube.lane_mut(cell, j);
            for (n, dn) in d.iter().enumerate() {
                lane[n] += *sj * *dn * cell_amp;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_yields_requested_count_with_beam_rotation() {
        let sc = Scenario {
            transmit_beams: vec![-20.0, 0.0, 20.0],
            ..Scenario::reduced(1)
        };
        let items: Vec<(usize, f64)> = sc.stream(7).map(|(i, b, _)| (i, b)).collect();
        assert_eq!(items.len(), 7);
        assert_eq!(items[0].1, -20.0);
        assert_eq!(items[1].1, 0.0);
        assert_eq!(items[2].1, 20.0);
        assert_eq!(items[3].1, -20.0);
        assert_eq!(items[6].1, -20.0);
    }

    #[test]
    fn parallel_cubes_are_bit_identical_to_the_stream() {
        let sc = Scenario {
            transmit_beams: vec![-20.0, 20.0],
            ..Scenario::reduced(42)
        };
        let bits = |c: &CCube| -> Vec<(u64, u64)> {
            c.as_slice()
                .iter()
                .map(|x| (x.re.to_bits(), x.im.to_bits()))
                .collect()
        };
        // Uneven chunks, and counts below the thread count.
        for count in [0, 1, 7, 200] {
            let got = sc.cubes(count);
            assert_eq!(got.len(), count);
            for ((i, _, want), c) in sc.stream(count).zip(&got) {
                assert_eq!(c.shape(), want.shape(), "CPI {i} of {count}");
                assert!(bits(c) == bits(&want), "CPI {i} of {count} differs");
            }
        }
    }

    #[test]
    fn cpis_are_reproducible_and_distinct() {
        let sc = Scenario::reduced(7);
        let a = sc.generate_cpi(3);
        let b = sc.generate_cpi(3);
        let c = sc.generate_cpi(4);
        assert_eq!(a.max_abs_diff(&b), 0.0);
        assert!(a.max_abs_diff(&c) > 0.0);
    }

    #[test]
    fn target_appears_at_injected_cell() {
        let mut sc = Scenario::reduced(9);
        sc.clutter = None;
        sc.replica_len = 1; // point target for this locality check
        sc.targets[0].snr_db = 30.0;
        let cube = sc.generate_cpi(0);
        let t = sc.targets[0];
        // Power at target cell dwarfs a quiet cell.
        let p_target: f64 = (0..sc.geom.channels)
            .map(|j| {
                cube.lane(t.range_cell, j)
                    .iter()
                    .map(|x| x.norm_sqr())
                    .sum::<f64>()
            })
            .sum();
        let p_quiet: f64 = (0..sc.geom.channels)
            .map(|j| cube.lane(0, j).iter().map(|x| x.norm_sqr()).sum::<f64>())
            .sum();
        assert!(p_target > 50.0 * p_quiet, "{p_target} vs {p_quiet}");
    }

    #[test]
    fn targets_only_in_covering_beam() {
        let sc = Scenario {
            transmit_beams: vec![-40.0, 0.0, 40.0],
            ..Scenario::reduced(3)
        };
        // Default reduced target at az 2.0 deg: only the broadside beam.
        assert!(sc.targets_in_beam(0).is_empty());
        assert_eq!(sc.targets_in_beam(1).len(), 1);
        assert!(sc.targets_in_beam(2).is_empty());
    }

    #[test]
    fn moving_target_walks_through_range() {
        let mut sc = Scenario::reduced(12);
        sc.clutter = None;
        sc.replica_len = 1;
        sc.targets = vec![Target {
            range_rate: 2.5,
            snr_db: 30.0,
            ..Target::fixed(10, 0.25, 2.0, 30.0)
        }];
        for cpi_idx in [0usize, 4, 8] {
            let cube = sc.generate_cpi(cpi_idx);
            let want = (10.0 + 2.5 * cpi_idx as f64).round() as usize;
            // Strongest range cell (by channel-0 energy) must track.
            let (best, _) = (0..sc.range_cells)
                .map(|k| (k, cube.lane(k, 0).iter().map(|x| x.norm_sqr()).sum::<f64>()))
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .unwrap();
            assert_eq!(best, want, "cpi {cpi_idx}");
        }
    }

    #[test]
    fn target_vanishes_beyond_the_far_gate() {
        let t = Target {
            range_rate: 10.0,
            ..Target::fixed(60, 0.1, 0.0, 10.0)
        };
        assert_eq!(t.range_at(0, 64), Some(60));
        assert_eq!(t.range_at(1, 64), None);
        // And receding off the near edge:
        let back = Target {
            range_rate: -40.0,
            ..Target::fixed(30, 0.1, 0.0, 10.0)
        };
        assert_eq!(back.range_at(1, 64), None);
    }

    #[test]
    fn quantization_noise_floor_tracks_bit_depth() {
        let mut sc = Scenario::reduced(21);
        sc.clutter = None;
        sc.targets.clear();
        let ideal = sc.generate_cpi(0);
        let err_power = |bits: u32| -> f64 {
            let mut q = ideal.clone();
            quantize(&mut q, bits);
            q.as_slice()
                .iter()
                .zip(ideal.as_slice())
                .map(|(a, b)| (*a - *b).norm_sqr())
                .sum::<f64>()
                / ideal.len() as f64
        };
        let e8 = err_power(8);
        let e12 = err_power(12);
        let e16 = err_power(16);
        // Each 4 bits cuts quantization noise by ~24 dB (factor 256).
        assert!(e8 / e12 > 100.0, "8->12 bits: {e8} / {e12}");
        assert!(e12 / e16 > 100.0, "12->16 bits: {e12} / {e16}");
        assert!(e16 > 0.0);
    }

    #[test]
    fn sixteen_bit_front_end_does_not_disturb_detection_scale() {
        // At 16 bits the quantization floor sits far below receiver
        // noise: signal power changes by well under a percent.
        let mut sc = Scenario::reduced(22);
        sc.quantization_bits = Some(16);
        let q = sc.generate_cpi(0);
        sc.quantization_bits = None;
        let ideal = sc.generate_cpi(0);
        let pq: f64 = q.as_slice().iter().map(|x| x.norm_sqr()).sum();
        let pi: f64 = ideal.as_slice().iter().map(|x| x.norm_sqr()).sum();
        assert!((pq / pi - 1.0).abs() < 1e-3, "{}", pq / pi);
    }

    #[test]
    fn cube_shape_matches_scenario() {
        let sc = Scenario::reduced(5);
        let c = sc.generate_cpi(0);
        assert_eq!(c.shape(), [64, 8, 32]);
    }
}
