//! Open-loop serving workloads (`paper-radar`, `service-mix`).
//!
//! One generator thread (the caller's) offers CPIs to a [`StapServer`]
//! on a fixed two-phase schedule and one collector thread drains the
//! server's completion tap. Each CPI is timed from its due time, so a
//! stall that delays later submissions shows up in their latency.

use crate::stats::{median, percentile, sorted, span_rate, Phase, Schedule};
use stap::core::{Detection, SequentialStap, StapParams};
use stap::cube::CCube;
use stap::pipeline::wire::detections_digest;
use stap::pipeline::{CpiDone, NodeAssignment, ResidentStap};
use stap::radar::Scenario;
use stap::serve::{ServeSummary, ServerConfig, StapServer};
use std::collections::HashMap;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Server set-ups per run at least; `setup_s` is their median.
pub const MIN_SETUPS: usize = 3;
/// Set-ups repeat until they have taken this long in total (or
/// [`MAX_SETUPS`] ran), so a cheap set-up is sampled more often.
pub const SETUP_BUDGET_S: f64 = 1.0;
/// Set-ups per run at most.
pub const MAX_SETUPS: usize = 15;

/// A serving workload: geometry, per-stream inputs and the offered load.
pub struct ServeSpec {
    /// Algorithm parameters (the CPI geometry).
    pub params: StapParams,
    /// One scenario per stream; stream `s` replays CPIs synthesized
    /// from `scenarios[s]`. All share one array and beam fan, so one
    /// steering set serves every stream.
    pub scenarios: Vec<Scenario>,
    /// Distinct CPIs per stream, replayed cyclically. A multiple of the
    /// scenario's transmit-beam count, so a replayed cube always lands
    /// on the azimuth it was synthesized for.
    pub replay: usize,
    /// Offered load.
    pub schedule: Schedule,
    /// Maximum CPIs coalesced into one slot.
    pub max_group: usize,
    /// Per-stream admission bound.
    pub queue_depth: usize,
    /// Open-loop validity bound: a run whose nominal-phase generator
    /// lag p99 exceeds this many milliseconds is invalid.
    pub max_lag_p99_ms: f64,
}

impl ServeSpec {
    fn streams(&self) -> usize {
        self.scenarios.len()
    }

    fn server_config(&self) -> ServerConfig {
        ServerConfig {
            max_group: self.max_group,
            queue_depth: self.queue_depth,
            streams_hint: self.streams(),
            ..ServerConfig::default()
        }
    }
}

/// Per-stream replay sets, synthesized before any timing starts.
pub struct Inputs {
    /// `cubes[s][i]`: CPI `i` of stream `s`.
    pub cubes: Vec<Vec<CCube>>,
    /// Median synthesis time per CPI (ms).
    pub gen_ms: f64,
}

/// Synthesizes every stream's replay set.
pub fn make_inputs(spec: &ServeSpec) -> Inputs {
    let mut times = Vec::new();
    let cubes = spec
        .scenarios
        .iter()
        .map(|sc| {
            (0..spec.replay)
                .map(|i| {
                    let t = Instant::now();
                    let c = sc.generate_cpi(i);
                    times.push(t.elapsed().as_secs_f64() * 1e3);
                    c
                })
                .collect()
        })
        .collect();
    Inputs {
        cubes,
        gen_ms: median(&times).expect("replay sets are non-empty"),
    }
}

/// One offered arrival.
#[derive(Clone, Copy, Debug)]
pub struct Arrival {
    /// Stream it was offered on.
    pub stream: u16,
    /// Due time, seconds after the schedule start.
    pub due_s: f64,
    /// Schedule phase.
    pub phase: Phase,
    /// How late the generator reached it (s).
    pub lag_s: f64,
    /// Assigned per-stream sequence number, or the refusal reason.
    pub outcome: Result<u32, &'static str>,
}

/// Everything one serving session observed.
pub struct Session {
    /// Set-up time of the session's server (s).
    pub setup_s: f64,
    /// Offered arrivals, in schedule order.
    pub arrivals: Vec<Arrival>,
    /// Completions from the tap with their arrival time, seconds after
    /// the schedule start (the set-up CPI, done before the schedule
    /// started, at minus infinity).
    pub done: Vec<(f64, CpiDone)>,
    /// The server's own summary.
    pub summary: ServeSummary,
    /// Per-call `take_cube_from` times (µs); empty unless traced.
    pub take_us: Vec<f64>,
    /// Per-call `submit` times (µs); empty unless traced.
    pub submit_us: Vec<f64>,
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Starts a server and pushes stream 0's first CPI through it. Returns
/// the server, its tap, that first completion and the set-up time.
fn start(
    spec: &ServeSpec,
    inputs: &Inputs,
) -> Result<(StapServer, mpsc::Receiver<CpiDone>, CpiDone, f64), String> {
    let (tx, rx) = mpsc::channel();
    let t0 = Instant::now();
    let resident = ResidentStap::for_scenario(
        spec.params.clone(),
        NodeAssignment::tiny(),
        &spec.scenarios[0],
    );
    let server = StapServer::start_with_tap(resident, spec.server_config(), Some(tx));
    for s in 0..spec.streams() {
        server.register(s as u16);
    }
    let cube = server.take_cube_from(&inputs.cubes[0][0]);
    server
        .submit(0, cube)
        .map_err(|r| format!("set-up CPI refused: {}", r.kind()))?;
    let first = rx
        .recv_timeout(Duration::from_secs(60))
        .map_err(|e| format!("set-up CPI never completed: {e}"))?;
    Ok((server, rx, first, t0.elapsed().as_secs_f64()))
}

/// Runs one serving session: a server start, then the open-loop
/// schedule. `traced` times the generator's calls into the server.
pub fn run_session(spec: &ServeSpec, inputs: &Inputs, traced: bool) -> Result<Session, String> {
    let (server, rx, first, setup_s) = start(spec, inputs)?;
    let collector = std::thread::spawn(move || {
        let mut done = Vec::new();
        while let Ok(d) = rx.recv() {
            done.push((Instant::now(), d));
        }
        done
    });

    let streams = spec.streams();
    let sched = spec.schedule;
    // Stream 0's set-up CPI already took sequence number 0.
    let mut admitted = vec![0usize; streams];
    admitted[0] = 1;
    let mut arrivals = Vec::with_capacity(sched.total());
    let (mut take_us, mut submit_us) = if traced {
        (
            Vec::with_capacity(sched.total()),
            Vec::with_capacity(sched.total()),
        )
    } else {
        (Vec::new(), Vec::new())
    };
    let t0 = Instant::now() + Duration::from_millis(5);
    for i in 0..sched.total() {
        let (due_s, phase) = sched.due(i);
        let due = t0 + Duration::from_secs_f64(due_s);
        sleep_until(due);
        let stream = i % streams;
        let lag_s = Instant::now().saturating_duration_since(due).as_secs_f64();
        // A refused arrival does not consume its cube: the next arrival
        // on the stream offers it again, so the admitted sequence is
        // always the replay order the reference follows.
        let src = &inputs.cubes[stream][admitted[stream] % spec.replay];
        let r = if traced {
            let a = Instant::now();
            let cube = server.take_cube_from(src);
            let b = Instant::now();
            let r = server.submit(stream as u16, cube);
            take_us.push((b - a).as_secs_f64() * 1e6);
            submit_us.push(b.elapsed().as_secs_f64() * 1e6);
            r
        } else {
            server.submit(stream as u16, server.take_cube_from(src))
        };
        if r.is_ok() {
            admitted[stream] += 1;
        }
        arrivals.push(Arrival {
            stream: stream as u16,
            due_s,
            phase,
            lag_s,
            outcome: r.map_err(|e| e.kind()),
        });
    }
    let summary = server
        .shutdown()
        .map_err(|e| format!("serve session: {e}"))?;
    let tapped = collector
        .join()
        .map_err(|_| "completion collector panicked".to_string())?;
    let at = |t: Instant| {
        if t >= t0 {
            (t - t0).as_secs_f64()
        } else {
            -(t0 - t).as_secs_f64()
        }
    };
    let mut done = Vec::with_capacity(tapped.len() + 1);
    done.push((f64::NEG_INFINITY, first));
    done.extend(tapped.into_iter().map(|(t, d)| (at(t), d)));
    Ok(Session {
        setup_s,
        arrivals,
        done,
        summary,
        take_us,
        submit_us,
    })
}

/// Tops up the set-up times `done` (the sessions' own) with further
/// server starts: at least [`MIN_SETUPS`] in all, more while they fit
/// in [`SETUP_BUDGET_S`]. They run after the sessions so that their peak
/// memory is measured before any extra start touches pages.
pub fn setup_times(spec: &ServeSpec, inputs: &Inputs, done: Vec<f64>) -> Result<Vec<f64>, String> {
    let mut times = done;
    while times.len() < MAX_SETUPS
        && (times.len() < MIN_SETUPS || times.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        let (server, _rx, _first, s) = start(spec, inputs)?;
        times.push(s);
        server
            .shutdown()
            .map_err(|e| format!("set-up server: {e}"))?;
    }
    Ok(times)
}

/// Nominal-phase admitted CPIs per stream in `session` (the set-up CPI
/// included): the prefix length the reference must cover.
pub fn nominal_admitted(session: &Session, streams: usize) -> Vec<usize> {
    let mut n = vec![0usize; streams];
    n[0] = 1;
    for a in &session.arrivals {
        if let (Phase::Nominal, Ok(_)) = (a.phase, a.outcome) {
            n[a.stream as usize] += 1;
        }
    }
    n
}

/// Reference detections: `[stream][scpi]`.
pub type Reference = Vec<Vec<Vec<Detection>>>;

/// Sequential-reference detections for the first `counts[s]` CPIs of
/// each stream, in replay order.
pub fn reference(spec: &ServeSpec, inputs: &Inputs, counts: &[usize]) -> Reference {
    spec.scenarios
        .iter()
        .zip(counts)
        .enumerate()
        .map(|(s, (sc, &n))| {
            let mut seq = SequentialStap::for_scenario(spec.params.clone(), sc);
            let beams = sc.transmit_beams.len();
            (0..n)
                .map(|i| {
                    seq.process_cpi(i % beams, &inputs.cubes[s][i % spec.replay])
                        .detections
                })
                .collect()
        })
        .collect()
}

/// What one session measured, before it is mapped to metric names.
#[derive(Debug, Default)]
pub struct Measured {
    /// Sustained overload-phase completion rate (CPI/s).
    pub cpi_per_s: f64,
    /// Sorted nominal-phase due-to-tap latencies after warm-up (ms).
    pub latency_ms: Vec<f64>,
    /// Sorted engine (`CpiDone.latency`) latencies of the same CPIs (ms).
    pub engine_ms: Vec<f64>,
    /// Nominal-phase generator lag p99 (ms).
    pub lag_p99_ms: f64,
    /// Nominal arrivals offered (the set-up CPI included).
    pub nominal_offered: u64,
    /// Nominal arrivals refused, lost, degraded or wrong.
    pub nominal_failed: u64,
    /// Overload arrivals offered.
    pub overload_offered: u64,
    /// Overload arrivals shed by admission (`queue_full`).
    pub overload_shed: u64,
    /// Overload arrivals refused for any other reason, or completed
    /// degraded or with non-finite detections.
    pub overload_failed: u64,
    /// Streams whose nominal-phase digest differs from the reference.
    pub digest_mismatches: usize,
}

fn finite(d: &CpiDone) -> bool {
    d.detections
        .iter()
        .all(|x| x.power.is_finite() && x.threshold.is_finite())
}

/// Checks `session` against `want` and derives the measured figures.
/// Fails when the overload phase is too short to hold two completions.
pub fn measure(spec: &ServeSpec, session: &Session, want: &Reference) -> Result<Measured, String> {
    let streams = spec.streams();
    let sched = spec.schedule;
    let mut m = Measured {
        nominal_offered: 1,
        ..Measured::default()
    };
    // (stream, scpi) -> (due, phase)
    let mut due: HashMap<(u16, u32), (f64, Phase)> = HashMap::new();
    due.insert((0, 0), (-1.0, Phase::Nominal));
    let mut lags = Vec::new();
    for a in &session.arrivals {
        match a.phase {
            Phase::Nominal => {
                m.nominal_offered += 1;
                lags.push(a.lag_s * 1e3);
            }
            Phase::Overload => m.overload_offered += 1,
        }
        match (a.outcome, a.phase) {
            (Ok(scpi), _) => {
                due.insert((a.stream, scpi), (a.due_s, a.phase));
            }
            (Err(_), Phase::Nominal) => m.nominal_failed += 1,
            (Err("queue_full"), Phase::Overload) => m.overload_shed += 1,
            (Err(_), Phase::Overload) => m.overload_failed += 1,
        }
    }
    m.lag_p99_ms = percentile(&sorted(lags), 0.99).unwrap_or(0.0);

    let nominal = nominal_admitted(session, streams);
    let mut got: Vec<Vec<Option<&[Detection]>>> = nominal.iter().map(|&n| vec![None; n]).collect();
    let mut lat = Vec::new();
    let mut eng = Vec::new();
    let all_done: Vec<f64> = session.done.iter().map(|(t, _)| *t).collect();
    for (t, d) in &session.done {
        let Some(&(due_s, phase)) = due.get(&(d.stream, d.scpi)) else {
            m.nominal_failed += 1; // a completion nobody submitted
            continue;
        };
        match phase {
            Phase::Nominal => {
                let ok = !d.degraded && finite(d);
                let slot = &mut got[d.stream as usize][d.scpi as usize];
                if ok && slot.is_none() {
                    *slot = Some(&d.detections);
                } else {
                    m.nominal_failed += 1;
                }
                if due_s >= sched.warmup_s() {
                    lat.push((t - due_s) * 1e3);
                    eng.push(d.latency * 1e3);
                }
            }
            Phase::Overload => {
                if d.degraded || !finite(d) {
                    m.overload_failed += 1;
                }
            }
        }
    }
    m.latency_ms = sorted(lat);
    m.engine_ms = sorted(eng);

    // Per-CPI comparison (counts failures) and per-stream digests (the
    // pass/fail verdict).
    for (s, stream) in got.iter().enumerate() {
        let mut seen = Vec::with_capacity(stream.len());
        for (i, g) in stream.iter().enumerate() {
            match g {
                Some(d) if *d == want[s][i].as_slice() => seen.push(d.to_vec()),
                Some(d) => {
                    m.nominal_failed += 1;
                    seen.push(d.to_vec());
                }
                None => {
                    m.nominal_failed += 1; // admitted, never completed
                    seen.push(Vec::new());
                }
            }
        }
        if detections_digest(&seen) != detections_digest(&want[s][..stream.len()]) {
            m.digest_mismatches += 1;
        }
    }

    let ov0 = sched.nominal_s + sched.settle_s();
    // Every completion in the window counts: once queues are full the
    // completion rate is the capacity, whichever phase a CPI was due in.
    m.cpi_per_s = span_rate(&all_done, ov0, sched.length())
        .ok_or("overload phase too short to measure a completion rate")?;
    Ok(m)
}
