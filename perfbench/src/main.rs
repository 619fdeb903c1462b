//! End-to-end and per-layer benchmark of the pipelined STAP system.
//!
//! ```text
//! perfbench --workload <paper-radar|service-mix|cluster-shm> --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints progress on stderr and, as the last line of stdout, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. `--trace 0`
//! reports the end-to-end metrics from untraced runs; `--trace 1`
//! reports the per-layer metrics. See `README.md` next to this crate.
//!
//! Exit codes: 0 result printed and correct; 1 result printed but the
//! detections differ from the sequential reference; 2 usage or run
//! error; 3 invalid open-loop run (the generator fell behind its
//! schedule), no result printed.

mod cluster;
mod layers;
mod serve;
mod stats;

use serve::{
    make_inputs, measure, nominal_admitted, reference, run_session, setup_times, ServeSpec,
};
use stap::core::StapParams;
use stap::cube::PoolStats;
use stap::pipeline::{NodeAssignment, ParallelStap};
use stap::radar::Scenario;
use stap_bench::streams::{service_params, service_scenario};
use stap_util::Json;
use stats::{percentile, Schedule};
use std::collections::HashMap;
use std::process::ExitCode;

/// Offered rates (CPI/s). Fixed numbers, never derived from measured
/// capacity; `BENCHMARK.json` records them in each workload's `why`.
pub const PAPER_NOMINAL: f64 = 4.0;
/// `paper-radar` overload-phase rate.
pub const PAPER_OVERLOAD: f64 = 30.0;
/// `service-mix` nominal-phase rate, all eight streams together.
pub const SERVICE_NOMINAL: f64 = 700.0;
/// `service-mix` overload-phase rate.
pub const SERVICE_OVERLOAD: f64 = 4000.0;
/// Length of the `service-mix` serve-layer probe in the traced
/// `cluster-shm` run (s).
pub const PROBE_SECONDS: f64 = 4.0;
/// Share of `--seconds` spent in the nominal phase.
pub const NOMINAL_SHARE: f64 = 0.65;
/// Independent serving sessions per untraced serve run, each with its
/// own server and `1/SESSIONS` of `--seconds`. A fresh world's threads
/// land on the cores anew each time, which moves latency by up to a
/// third from one world to the next; pooling three worlds steadies the
/// run's figures.
pub const SESSIONS: usize = 3;
/// Streams interleaved by `service-mix`.
pub const SERVICE_STREAMS: usize = 8;

/// Named metrics with units, in report order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Records one metric.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    fn to_json(&self) -> Json {
        Json::obj(self.0.iter().map(|(n, v, u)| {
            (
                n.clone(),
                Json::obj([("value", Json::Num(*v)), ("unit", Json::Str(u.to_string()))]),
            )
        }))
    }
}

/// A finished run.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

/// Why a run printed no result.
enum Failure {
    /// Usage, set-up or program error (exit 2).
    Error(String),
    /// The open-loop generator fell behind its schedule (exit 3).
    Invalid(String),
}

impl From<String> for Failure {
    fn from(e: String) -> Self {
        Failure::Error(e)
    }
}

fn schedule(nominal: f64, overload: f64, seconds: f64) -> Schedule {
    Schedule {
        nominal_rate: nominal,
        nominal_s: seconds * NOMINAL_SHARE,
        overload_rate: overload,
        overload_s: seconds * (1.0 - NOMINAL_SHARE),
    }
}

/// `paper-radar`: one stream of paper-geometry CPIs (five azimuths).
fn paper_radar(seed: u64, seconds: f64) -> ServeSpec {
    ServeSpec {
        params: StapParams::paper(),
        scenarios: vec![Scenario::rtmcarm(seed)],
        replay: 5,
        schedule: schedule(PAPER_NOMINAL, PAPER_OVERLOAD, seconds),
        max_group: 1,
        // A nominal arrival is refused only once eight CPIs are in
        // flight, two seconds of arrivals at the nominal rate: a stall
        // of the engine alone that long is far outside the ~75 ms a
        // CPI takes, so the nominal phase sees no refusals.
        queue_depth: 8,
        // Half an arrival gap at the nominal rate.
        max_lag_p99_ms: 125.0,
    }
}

/// `service-mix`: eight interleaved streams of service-geometry CPIs.
fn service_mix(seed: u64, seconds: f64) -> ServeSpec {
    ServeSpec {
        params: service_params(),
        scenarios: (0..SERVICE_STREAMS as u64)
            .map(|s| service_scenario(seed.wrapping_add(1000 * s)))
            .collect(),
        replay: 16,
        schedule: schedule(SERVICE_NOMINAL, SERVICE_OVERLOAD, seconds),
        max_group: 8,
        queue_depth: 16,
        max_lag_p99_ms: 25.0,
    }
}

/// The cluster's scenario: reduced geometry, two azimuths.
fn cluster_scenario(seed: u64) -> Scenario {
    let mut sc = Scenario::reduced(seed);
    sc.transmit_beams = vec![-20.0, 20.0];
    sc
}

/// Peak resident set of this process (MiB), from `VmHWM`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "VmHWM missing from /proc/self/status".to_string())
}

fn check_valid(spec: &ServeSpec, m: &serve::Measured) -> Result<(), Failure> {
    eprintln!(
        "generator lag p99 {:.3} ms (bound {} ms)",
        m.lag_p99_ms, spec.max_lag_p99_ms
    );
    if m.lag_p99_ms > spec.max_lag_p99_ms {
        return Err(Failure::Invalid(format!(
            "generator lag p99 {:.2} ms exceeds the {} ms open-loop bound",
            m.lag_p99_ms, spec.max_lag_p99_ms
        )));
    }
    Ok(())
}

fn p(sorted: &[f64], q: f64) -> Result<f64, String> {
    percentile(sorted, q).ok_or_else(|| "no nominal-phase latency samples".to_string())
}

/// Correctness and `(attempted, failed)` over checked sessions.
/// Failures count the nominal phase; overload refusals are shedding,
/// but a degraded or non-finite overload completion is a failure too.
fn verdict(ms: &[serve::Measured]) -> (bool, u64, u64) {
    let correct = ms
        .iter()
        .all(|m| m.digest_mismatches == 0 && m.overload_failed == 0);
    let attempted = ms.iter().map(|m| m.nominal_offered + m.overload_offered);
    let failed = ms.iter().map(|m| m.nominal_failed + m.overload_failed);
    (correct, attempted.sum(), failed.sum())
}

/// Checks sessions of `spec` against one sequential reference that
/// covers every session's nominal prefix, and stream 0's first
/// `min_ref0` CPIs at least (so a batch run over those cubes can be
/// checked against it too).
fn check_sessions(
    spec: &ServeSpec,
    inputs: &serve::Inputs,
    sessions: &[serve::Session],
    min_ref0: usize,
) -> Result<(Vec<serve::Measured>, serve::Reference), Failure> {
    let streams = spec.scenarios.len();
    let mut counts = vec![0; streams];
    counts[0] = min_ref0;
    for s in sessions {
        for (c, n) in counts.iter_mut().zip(nominal_admitted(s, streams)) {
            *c = (*c).max(n);
        }
    }
    let want = reference(spec, inputs, &counts);
    let ms = sessions
        .iter()
        .map(|s| measure(spec, s, &want))
        .collect::<Result<Vec<_>, _>>()?;
    for m in &ms {
        check_valid(spec, m)?;
    }
    Ok((ms, want))
}

/// Runs [`SESSIONS`] sessions of `spec` (each with its own server) and
/// pools their figures.
fn serve_e2e(spec: &ServeSpec) -> Result<Outcome, Failure> {
    let inputs = make_inputs(spec);
    eprintln!("inputs ready; serving {SESSIONS} sessions");
    // Peak memory is one world's: read it before the next world starts
    // (later worlds only add allocator fragmentation to the high-water
    // mark).
    let first = run_session(spec, &inputs, false)?;
    let rss = peak_rss_mb()?;
    let mut sessions = vec![first];
    for _ in 1..SESSIONS {
        sessions.push(run_session(spec, &inputs, false)?);
    }
    let setups = setup_times(spec, &inputs, sessions.iter().map(|s| s.setup_s).collect())?;
    eprintln!("sessions done; checking against the sequential reference");
    let (ms, _) = check_sessions(spec, &inputs, &sessions, 0)?;
    for m in &ms {
        eprintln!(
            "session: {} of {} nominal arrivals failed; {} of {} overload arrivals shed",
            m.nominal_failed, m.nominal_offered, m.overload_shed, m.overload_offered
        );
    }
    let sum =|f: fn(&serve::Measured) -> u64| ms.iter().map(f).sum::<u64>();
    let latency = stats::sorted(ms.iter().flat_map(|m| m.latency_ms.clone()).collect());
    let rate = ms.iter().map(|m| m.cpi_per_s).sum::<f64>() / ms.len() as f64;
    let mut metrics = Metrics::default();
    metrics.put("cpi_per_s", rate, "1/s");
    metrics.put("latency_p50_ms", p(&latency, 0.50)?, "ms");
    metrics.put(
        "ok_frac",
        1.0 - sum(|m| m.nominal_failed) as f64 / sum(|m| m.nominal_offered) as f64,
        "frac",
    );
    metrics.put(
        "setup_s",
        stats::median(&setups).expect("sessions ran"),
        "s",
    );
    metrics.put("peak_rss_mb", rss, "MiB");
    let (correct, attempted, failed) = verdict(&ms);
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics,
    })
}

/// `cube.pool_*` from a run's buffer-pool counters.
fn pool_layer(cx: PoolStats, real: PoolStats, metrics: &mut Metrics) {
    metrics.put("cube.pool_hits", (cx.hits + real.hits) as f64, "count");
    metrics.put(
        "cube.pool_misses",
        (cx.misses + real.misses) as f64,
        "count",
    );
}

/// An untraced then a traced session of one serve spec, both checked
/// against the sequential reference.
struct SessionPair {
    traced_session: serve::Session,
    /// Measured figures of the untraced and the traced session.
    measured: Vec<serve::Measured>,
    want: serve::Reference,
}

impl SessionPair {
    /// Runs both sessions. Stream 0's reference covers at least
    /// `min_ref0` CPIs, so a batch run over its cubes can be checked
    /// against the same reference.
    fn run(spec: &ServeSpec, inputs: &serve::Inputs, min_ref0: usize) -> Result<Self, Failure> {
        let sessions = [
            run_session(spec, inputs, false)?,
            run_session(spec, inputs, true)?,
        ];
        let (measured, want) = check_sessions(spec, inputs, &sessions, min_ref0)?;
        let [_, traced_session] = sessions;
        Ok(SessionPair {
            traced_session,
            measured,
            want,
        })
    }

    fn plain(&self) -> &serve::Measured {
        &self.measured[0]
    }

    fn traced(&self) -> &serve::Measured {
        &self.measured[1]
    }

    /// The serve-layer and harness per-layer metrics.
    fn layer_metrics(&self, metrics: &mut Metrics) -> Result<(), String> {
        let (s, m) = (&self.traced_session, self.traced());
        let med = |v: &[f64]| stats::median(v).ok_or("no timed calls".to_string());
        metrics.put("serve.submit_us", med(&s.submit_us)?, "us");
        metrics.put("serve.take_cube_us", med(&s.take_us)?, "us");
        metrics.put(
            "serve.cpis_per_slot",
            s.summary.cpis as f64 / s.summary.slots.max(1) as f64,
            "count",
        );
        metrics.put(
            "serve.shed_frac",
            m.overload_shed as f64 / m.overload_offered.max(1) as f64,
            "frac",
        );
        metrics.put("serve.engine_ms", p(&m.engine_ms, 0.5)?, "ms");
        metrics.put("harness.gen_lag_p99_ms", m.lag_p99_ms, "ms");
        metrics.put("harness.samples", m.latency_ms.len() as f64, "count");
        for (name, q) in [
            ("harness.latency_p90_ms", 0.90),
            ("harness.latency_p99_ms", 0.99),
        ] {
            metrics.put(name, p(&self.plain().latency_ms, q)?, "ms");
        }
        Ok(())
    }
}

fn serve_traced(
    spec: &ServeSpec,
    pipe_cpis: usize,
    core_rounds: usize,
) -> Result<Outcome, Failure> {
    let inputs = make_inputs(spec);
    eprintln!("inputs ready; untraced then traced session");
    let pair = SessionPair::run(spec, &inputs, pipe_cpis)?;

    eprintln!("traced batch pipeline over {pipe_cpis} CPIs");
    let runner = ParallelStap::for_scenario(
        spec.params.clone(),
        NodeAssignment::tiny(),
        &spec.scenarios[0],
    )
    .with_tracing();
    let stream0 = &inputs.cubes[0];
    let cubes = (0..pipe_cpis)
        .map(|i| stream0[i % spec.replay].clone())
        .collect();
    let pipe = runner.try_run(cubes).map_err(|e| e.to_string())?;
    let pipe_ok = pipe.detections.as_slice() == &pair.want[0][..pipe_cpis];

    eprintln!("per-layer probes");
    let mut metrics = Metrics::default();
    let beams = spec.scenarios[0].transmit_beams.len();
    layers::math(&spec.params, &stream0[0], &mut metrics);
    let stag = layers::core(
        &spec.params,
        &runner.steering,
        stream0,
        |i| i % beams,
        core_rounds,
        &mut metrics,
    );
    layers::cube(&spec.params, &stag, &mut metrics);
    layers::mp(layers::largest_frame(&pipe), &mut metrics)?;
    layers::pipeline(&pipe, pair.plain().cpi_per_s, &mut metrics);
    pair.layer_metrics(&mut metrics)?;
    let r = &pair.traced_session.summary.resident;
    pool_layer(r.pool_cx, r.pool_real, &mut metrics);
    metrics.put("radar.gen_ms", inputs.gen_ms, "ms");
    metrics.put(
        "harness.trace_overhead",
        pair.plain().cpi_per_s / pair.traced().cpi_per_s,
        "ratio",
    );

    let (correct, attempted, failed) = verdict(&pair.measured);
    Ok(Outcome {
        correct: pipe_ok && correct,
        attempted: attempted + pipe_cpis as u64,
        failed: failed + if pipe_ok { 0 } else { pipe_cpis as u64 },
        metrics,
    })
}

fn cluster_e2e(seed: u64, seconds: f64) -> Result<Outcome, Failure> {
    let cfg = cluster::config(seed, cluster::CPIS, false)?;
    let want = cluster::reference(&cfg);
    eprintln!("reference ready; launching the shm cluster");
    let ls = cluster::launches(&cfg, &want, seconds)?;
    let rss = peak_rss_mb()?;
    let wrong: usize = ls.iter().map(|l| l.wrong).sum();
    let attempted = (ls.len() * cfg.cpis) as u64;
    let mut metrics = Metrics::default();
    metrics.put(
        "cpi_per_s",
        cluster::median_of(&ls, cluster::Launch::cpi_per_s),
        "1/s",
    );
    // A multi-process run returns only the driver rank's mean in-pipeline
    // latency; with the closed loop's fixed window every CPI waits about
    // as long, so the mean stands in for the median.
    metrics.put(
        "latency_p50_ms",
        cluster::median_of(&ls, |l| l.out.timings.measured_latency * 1e3),
        "ms",
    );
    metrics.put("ok_frac", 1.0 - wrong as f64 / attempted as f64, "frac");
    metrics.put(
        "setup_s",
        cluster::median_of(&ls, |l| l.setup_s(cfg.cpis)),
        "s",
    );
    metrics.put("peak_rss_mb", rss, "MiB");
    Ok(Outcome {
        correct: ls.iter().all(|l| l.digest_ok),
        attempted,
        failed: wrong as u64,
        metrics,
    })
}

fn cluster_traced(seed: u64) -> Result<Outcome, Failure> {
    let cfg = cluster::config(seed, cluster::CPIS, false)?;
    let want = cluster::reference(&cfg);
    eprintln!("reference ready; untraced then traced launches");
    let plain = cluster::launches(&cfg, &want, 0.0)?;
    let traced = cluster::launch(&cluster::config(seed, cluster::CPIS, true)?, &want)?;
    let rate = cluster::median_of(&plain, cluster::Launch::cpi_per_s);

    eprintln!("serve-layer probe: service-mix for {PROBE_SECONDS} s");
    let spec = service_mix(seed, PROBE_SECONDS);
    let pair = SessionPair::run(&spec, &make_inputs(&spec), 0)?;

    eprintln!("per-layer probes");
    let mut metrics = Metrics::default();
    let sc = cluster_scenario(seed);
    let params = StapParams::reduced();
    let (cubes, gen_ms) = layers::radar(&sc, 8);
    layers::math(&params, &cubes[0], &mut metrics);
    let steering = ParallelStap::for_scenario(params.clone(), NodeAssignment::tiny(), &sc).steering;
    let stag = layers::core(
        &params,
        &steering,
        &cubes,
        |i| i % sc.transmit_beams.len(),
        4,
        &mut metrics,
    );
    layers::cube(&params, &stag, &mut metrics);
    layers::mp(layers::largest_frame(&traced.out), &mut metrics)?;
    layers::pipeline(&traced.out, rate, &mut metrics);
    pair.layer_metrics(&mut metrics)?;
    // The cluster's own pools: the counters of the parent process, which hosts the driver rank.
    let t = &plain[0].out.timings;
    pool_layer(t.pool_cx, t.pool_real, &mut metrics);
    metrics.put("radar.gen_ms", gen_ms, "ms");
    metrics.put("harness.trace_overhead", rate / traced.cpi_per_s(), "ratio");

    let wrong: usize = plain.iter().chain([&traced]).map(|l| l.wrong).sum();
    let (correct, attempted, failed) = verdict(&pair.measured);
    Ok(Outcome {
        correct: correct && plain.iter().chain([&traced]).all(|l| l.digest_ok),
        attempted: attempted + ((plain.len() + 1) * cfg.cpis) as u64,
        failed: failed + wrong as u64,
        metrics,
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_flags(args: &[String], bools: &[&str]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let name = args[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {}", args[i]))?;
        if bools.contains(&name) {
            flags.insert(name.to_string(), String::new());
            i += 1;
        } else {
            let v = args.get(i + 1).ok_or(format!("--{name} needs a value"))?;
            flags.insert(name.to_string(), v.clone());
            i += 2;
        }
    }
    Ok(flags)
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let f = parse_flags(args, &[])?;
    let get = |k: &str| f.get(k).ok_or(format!("--{k} is required"));
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(1.0..=600.0).contains(&seconds) {
        return Err("--seconds must be within 1..=600".into());
    }
    Ok(Args {
        workload: get("workload")?.clone(),
        seed: get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace must be 0 or 1, got {t}")),
        },
    })
}

fn run(a: &Args) -> Result<Outcome, Failure> {
    let (seed, secs) = (a.seed, a.seconds);
    match (a.workload.as_str(), a.trace) {
        ("paper-radar", false) => serve_e2e(&paper_radar(seed, secs / SESSIONS as f64)),
        ("paper-radar", true) => serve_traced(&paper_radar(seed, secs), 10, 2),
        ("service-mix", false) => serve_e2e(&service_mix(seed, secs / SESSIONS as f64)),
        ("service-mix", true) => serve_traced(&service_mix(seed, secs), 32, 4),
        ("cluster-shm", false) => cluster_e2e(seed, secs),
        ("cluster-shm", true) => cluster_traced(seed),
        (w, _) => Err(Failure::Error(format!(
            "unknown workload {w} (paper-radar, service-mix, cluster-shm)"
        ))),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Child rank of a cluster launch: this binary is the re-exec target.
    if args.first().map(String::as_str) == Some("_rank") {
        let r = parse_flags(&args[1..], &["two-beam", "trace"])
            .and_then(|f| stap_bench::cluster::child_main(&f));
        return match r {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("rank: {e}");
                ExitCode::from(2)
            }
        };
    }
    let a = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\nusage: perfbench --workload W --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    match run(&a) {
        Ok(o) => {
            let j = Json::obj([
                ("correct", Json::Bool(o.correct)),
                ("attempted", Json::Num(o.attempted as f64)),
                ("failed", Json::Num(o.failed as f64)),
                ("metrics", o.metrics.to_json()),
            ]);
            println!("{}", j.to_string_compact());
            if o.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("error: detections differ from the sequential reference");
                ExitCode::from(1)
            }
        }
        Err(Failure::Error(e)) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
        Err(Failure::Invalid(e)) => {
            eprintln!("invalid run: {e}");
            ExitCode::from(3)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The offered rates are recorded in `BENCHMARK.json`; the numbers
    /// there must be the ones this binary offers.
    #[test]
    fn benchmark_json_records_the_offered_load() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let j = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let Some(Json::Arr(ws)) = j.get("workloads") else {
            panic!("workloads missing");
        };
        let why = |name: &str| -> String {
            ws.iter()
                .find(|w| w.get("name") == Some(&Json::Str(name.into())))
                .and_then(|w| match w.get("why") {
                    Some(Json::Str(s)) => Some(s.clone()),
                    _ => None,
                })
                .unwrap_or_else(|| panic!("workload {name} missing"))
        };
        let rate = |r: f64| format!(" {r} CPI/s");
        let paper = why("paper-radar");
        assert!(paper.contains(&rate(PAPER_NOMINAL)), "{paper}");
        assert!(paper.contains(&rate(PAPER_OVERLOAD)), "{paper}");
        let cluster = why("cluster-shm");
        assert!(
            cluster.contains(&format!("{} reduced CPIs", cluster::CPIS)),
            "{cluster}"
        );
        // The traced run's serve probe is the service mix.
        assert!(cluster.contains(&rate(SERVICE_NOMINAL)), "{cluster}");
        assert!(cluster.contains(&rate(SERVICE_OVERLOAD)), "{cluster}");
        assert!(
            cluster.contains(&format!("{SERVICE_STREAMS}-stream")),
            "{cluster}"
        );
    }

    #[test]
    fn schedule_splits_seconds_between_phases() {
        let s = schedule(PAPER_NOMINAL, PAPER_OVERLOAD, 20.0);
        assert!((s.length() - 20.0).abs() < 1e-12);
        assert_eq!(s.nominal_count(), 52);
        assert_eq!(s.overload_count(), 210);
    }
}
