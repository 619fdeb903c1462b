//! The `cluster-shm` workload: the batch pipeline as one OS process per
//! rank over the shared-memory ring, launched through
//! [`stap_bench::cluster::run_cluster`].

use crate::stats::median;
use stap::core::{Detection, SequentialStap};
use stap::mp::TransportKind;
use stap::pipeline::wire::detections_digest;
use stap::pipeline::PipelineOutput;
use stap_bench::cluster::{build_runner, run_cluster, ClusterConfig};
use std::time::Instant;

/// CPIs per launch: enough for a steady rate from the driver rank's
/// stamps, few enough that every child rank's own synthesis of the
/// stream stays short.
pub const CPIS: usize = 200;

/// Launches per run at least, whatever `--seconds` says, so the
/// reported medians always have three values.
pub const MIN_LAUNCHES: usize = 3;

/// The canonical shm cluster for `seed`, re-executing this binary as
/// each child rank.
pub fn config(seed: u64, cpis: usize, tracing: bool) -> Result<ClusterConfig, String> {
    let mut cfg = ClusterConfig::canonical(TransportKind::Shm);
    cfg.cpis = cpis;
    cfg.seed = seed;
    cfg.tracing = tracing;
    cfg.exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    Ok(cfg)
}

/// Sequential-reference detections for `cfg`'s CPI stream.
pub fn reference(cfg: &ClusterConfig) -> Vec<Vec<Detection>> {
    let (runner, cubes) = build_runner(cfg);
    let beams = runner.steering.len();
    let mut seq = SequentialStap::new(runner.params.clone(), runner.steering.clone());
    cubes
        .iter()
        .enumerate()
        .map(|(i, c)| seq.process_cpi(i % beams, c).detections)
        .collect()
}

/// One launch of the cluster.
pub struct Launch {
    /// Wall time of `run_cluster` (s).
    pub wall_s: f64,
    /// The run's output (timings, detections, trace when traced).
    pub out: PipelineOutput,
    /// CPIs whose detections differ from the reference.
    pub wrong: usize,
    /// Whether the whole-run digest matches the reference's.
    pub digest_ok: bool,
}

impl Launch {
    /// Steady rate from the driver rank's stamps (CPI/s), launch excluded.
    pub fn cpi_per_s(&self) -> f64 {
        self.out.timings.measured_throughput
    }

    /// Launch, attach, rendezvous and child synthesis: the wall time
    /// not explained by the steady rate (s).
    pub fn setup_s(&self, cpis: usize) -> f64 {
        self.wall_s - cpis as f64 / self.cpi_per_s()
    }
}

/// Launches the cluster once and checks it against `want`.
pub fn launch(cfg: &ClusterConfig, want: &[Vec<Detection>]) -> Result<Launch, String> {
    let t = Instant::now();
    let out = run_cluster(cfg)?;
    let wall_s = t.elapsed().as_secs_f64();
    let wrong = out
        .detections
        .iter()
        .zip(want)
        .filter(|(g, w)| g != w)
        .count()
        + want.len().abs_diff(out.detections.len());
    let digest_ok = detections_digest(&out.detections) == detections_digest(want);
    Ok(Launch {
        wall_s,
        out,
        wrong,
        digest_ok,
    })
}

/// Launches until `seconds` have passed and at least [`MIN_LAUNCHES`]
/// ran. A failed launch is an error: its CPIs were all lost.
pub fn launches(
    cfg: &ClusterConfig,
    want: &[Vec<Detection>],
    seconds: f64,
) -> Result<Vec<Launch>, String> {
    let t = Instant::now();
    let mut out = Vec::new();
    while out.len() < MIN_LAUNCHES || t.elapsed().as_secs_f64() < seconds {
        out.push(launch(cfg, want)?);
    }
    Ok(out)
}

/// Median of `f` over the launches.
pub fn median_of(ls: &[Launch], f: impl Fn(&Launch) -> f64) -> f64 {
    median(&ls.iter().map(f).collect::<Vec<_>>()).expect("at least one launch")
}
