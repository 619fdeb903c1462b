//! Multi-process cluster launcher for the pipelined STAP runtime.
//!
//! The in-process pipeline (`ParallelStap::try_run`) runs every rank as
//! a thread over the channel fabric. This module runs the *same* ranks
//! as separate OS processes over a wire transport (shared memory or
//! TCP): the parent process owns the driver rank on a thread, spawns
//! one child process per task rank (a hidden `stapctl _rank` re-exec),
//! and supervises them — a child that dies poisons the driver's comm so
//! the run fails fast instead of hanging, mirroring the serve-layer
//! supervisor's fail-detect-relaunch discipline (see
//! `stap_serve::supervisor`; [`run_supervised`] is the cluster analogue
//! of its `max_recoveries` loop).
//!
//! The entire pipeline code path is shared with the in-process runner:
//! children call [`stap::pipeline::ParallelStap::run_task_rank`] and the
//! parent's driver thread [`stap::pipeline::ParallelStap::run_driver_rank`]
//! — the exact per-rank bodies `try_run` uses — over a wire-backed
//! `Comm` with the bit-exact [`stap::pipeline::wire::msg_codec`]. That
//! is what makes transport parity a *testable* property instead of a
//! hope: same kernels, same matching, same fault rules, only the byte
//! transport differs.
//!
//! Only the driver holds input, as in the paper, where only the Doppler
//! filter task receives radar data: the parent synthesizes the CPI
//! stream once, in parallel ([`stap::radar::Scenario::cubes`]), and
//! every child gets its data from upstream messages. Everything a child
//! needs to rebuild its identical runner (the same [`ClusterConfig`])
//! travels on argv; child results (task reports and
//! span traces) come back as one sentinel-prefixed JSON line on stdout,
//! and detections flow to the parent's driver rank over the wire like
//! any other edge.

use stap::cube::CCube;
use stap::mp::{
    spawn_coordinator, Comm, ShmLink, ShmRegion, TcpLink, TraceSink, TransportKind, WireLink,
};
use stap::pipeline::assignment::Partitions;
use stap::pipeline::fault::nan_corruptor;
use stap::pipeline::msg::Msg;
use stap::pipeline::tasks::PipelinePools;
use stap::pipeline::wire::{
    msg_codec, rank_result_from_json, rank_result_to_json, rank_trace_from_json, rank_trace_to_json,
};
use stap::pipeline::{NodeAssignment, ParallelStap, PipelineOutput, RuntimePolicy};
use stap::radar::Scenario;
use stap_util::Json;
use std::collections::HashMap;
use std::io::BufRead;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Sentinel prefixing the one JSON result line each child rank prints;
/// everything else on the child's stdout is ignored.
pub const RESULT_SENTINEL: &str = "@stapctl-rank-result ";

/// Deterministic fault campaign riding on a cluster run: the canonical
/// `stapctl faults` plan (one dropped Doppler->easyBF message, one
/// 2-second easy-weight stall), reconstructed identically in every
/// rank process from these two indices.
#[derive(Clone, Copy, Debug)]
pub struct FaultSpec {
    /// CPI whose Doppler->easyBF message is dropped.
    pub drop_cpi: usize,
    /// CPI at which the easy-weight rank stalls for 2 s.
    pub stall_cpi: usize,
}

/// Everything needed to rebuild the identical pipeline in the parent
/// and in every child rank process. All fields are exactly
/// reconstructable from argv strings, so parent and children agree
/// bit-for-bit on steering, policy and fault plans.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Wire transport (`InProc` short-circuits to the thread runner).
    pub transport: TransportKind,
    /// Node counts per task.
    pub nodes: [usize; 7],
    /// CPIs to stream.
    pub cpis: usize,
    /// Scenario seed.
    pub seed: u64,
    /// Use the canonical two-azimuth trace scenario
    /// (`transmit_beams = [-20, 20]`) instead of the scenario default.
    pub two_beam: bool,
    /// Record span traces (children ship theirs back as JSON).
    pub tracing: bool,
    /// Optional fault campaign (implies the fault-tolerant policy).
    pub faults: Option<FaultSpec>,
    /// The `stapctl` binary to re-exec for child ranks. Defaults to
    /// the current executable.
    pub exe: PathBuf,
    /// Extra environment for child rank processes only (test hooks like
    /// `STAP_TEST_ABORT_ONCE` ride here instead of mutating the parent
    /// process environment, which would race parallel tests).
    pub child_env: Vec<(String, String)>,
}

impl ClusterConfig {
    /// The canonical reduced config on `transport` (tiny assignment,
    /// two-azimuth revisit — the same configuration `stapctl trace`
    /// runs and the parity gate compares across transports).
    pub fn canonical(transport: TransportKind) -> ClusterConfig {
        ClusterConfig {
            transport,
            nodes: NodeAssignment::tiny().0,
            cpis: 6,
            seed: 42,
            two_beam: true,
            tracing: false,
            faults: None,
            exe: std::env::current_exe().unwrap_or_else(|_| PathBuf::from("stapctl")),
            child_env: Vec::new(),
        }
    }
}

fn scenario(cfg: &ClusterConfig) -> Scenario {
    let mut scenario = Scenario::reduced(cfg.seed);
    if cfg.two_beam {
        scenario.transmit_beams = vec![-20.0, 20.0];
    }
    scenario
}

/// The pipeline for `cfg` — steering, tracing, policy and fault plan,
/// but no input. The single source of truth the parent and every child
/// rank process execute, so any two processes with the same argv hold
/// bit-identical configurations.
fn runner(cfg: &ClusterConfig) -> ParallelStap {
    use stap::core::StapParams;
    use stap::mp::FaultPlan;
    use stap::pipeline::assignment::{DOPPLER, EASY_BF, EASY_WT};
    use stap::pipeline::msg::{tag, Edge};

    let assign = NodeAssignment(cfg.nodes);
    let mut runner = ParallelStap::for_scenario(StapParams::reduced(), assign, &scenario(cfg));
    if cfg.tracing {
        runner = runner.with_tracing();
    }
    if let Some(f) = cfg.faults {
        let easy_wt_rank = assign.rank_range(EASY_WT).start;
        let doppler0 = assign.rank_range(DOPPLER).start;
        let easy_bf_rank = assign.rank_range(EASY_BF).start;
        let plan = FaultPlan::seeded(cfg.seed)
            .stall_rank(easy_wt_rank, f.stall_cpi as u64, Duration::from_secs(2))
            .drop_message(
                doppler0,
                easy_bf_rank,
                tag(Edge::DopplerToEasyBf, f.drop_cpi),
            );
        runner = runner
            .with_policy(RuntimePolicy {
                fault_tolerant: true,
                edge_timeout: Duration::from_millis(200),
                weight_grace: Duration::from_millis(50),
                max_retries: 1,
                screen_nonfinite: true,
                ..RuntimePolicy::default()
            })
            .with_faults(plan);
    }
    runner
}

/// The pipeline for `cfg` plus the driver's input: the scenario's
/// first `cfg.cpis` CPIs, synthesized across the host's cores.
pub fn build_runner(cfg: &ClusterConfig) -> (ParallelStap, Vec<CCube>) {
    (runner(cfg), scenario(cfg).cubes(cfg.cpis))
}

fn child_args(cfg: &ClusterConfig, rank: usize, endpoint: &str) -> Vec<String> {
    let mut a = vec![
        "_rank".to_string(),
        "--transport".into(),
        cfg.transport.name().to_string(),
        "--rank".into(),
        rank.to_string(),
        "--endpoint".into(),
        endpoint.to_string(),
        "--nodes".into(),
        cfg.nodes.map(|n| n.to_string()).join(","),
        "--cpis".into(),
        cfg.cpis.to_string(),
        "--seed".into(),
        cfg.seed.to_string(),
    ];
    if cfg.two_beam {
        a.push("--two-beam".into());
    }
    if cfg.tracing {
        a.push("--trace".into());
    }
    if let Some(f) = cfg.faults {
        a.push("--fault-drop".into());
        a.push(f.drop_cpi.to_string());
        a.push("--fault-stall".into());
        a.push(f.stall_cpi.to_string());
    }
    a
}

/// Entry point for the hidden `stapctl _rank` subcommand: parses the
/// flags [`child_args`] built, runs exactly one rank over the wire, and
/// prints the sentinel-prefixed JSON result line.
pub fn child_main(flags: &HashMap<String, String>) -> Result<(), String> {
    let get = |k: &str| -> Result<&String, String> { flags.get(k).ok_or(format!("--{k} missing")) };
    let transport: TransportKind = get("transport")?.parse()?;
    let rank: usize = get("rank")?.parse().map_err(|e| format!("--rank: {e}"))?;
    let endpoint = get("endpoint")?.clone();
    let nodes: Vec<usize> = get("nodes")?
        .split(',')
        .map(|p| p.parse().map_err(|e| format!("--nodes: {e}")))
        .collect::<Result<_, String>>()?;
    let nodes: [usize; 7] = nodes
        .try_into()
        .map_err(|_| "--nodes needs 7 counts".to_string())?;
    let cfg = ClusterConfig {
        transport,
        nodes,
        cpis: get("cpis")?.parse().map_err(|e| format!("--cpis: {e}"))?,
        seed: get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        two_beam: flags.contains_key("two-beam"),
        tracing: flags.contains_key("trace"),
        faults: match (flags.get("fault-drop"), flags.get("fault-stall")) {
            (Some(d), Some(s)) => Some(FaultSpec {
                drop_cpi: d.parse().map_err(|e| format!("--fault-drop: {e}"))?,
                stall_cpi: s.parse().map_err(|e| format!("--fault-stall: {e}"))?,
            }),
            (None, None) => None,
            _ => return Err("--fault-drop and --fault-stall come together".into()),
        },
        exe: PathBuf::new(),
        child_env: Vec::new(),
    };

    // Test hook: `STAP_TEST_ABORT_ONCE=<rank>:<marker-path>` makes that
    // rank die on its first launch (writing the marker as the been-here
    // flag), so the supervised relaunch path is testable end to end.
    // The variable arrives via `ClusterConfig::child_env`, never the
    // parent's environment.
    if let Ok(spec) = std::env::var("STAP_TEST_ABORT_ONCE") {
        if let Some((r, marker)) = spec.split_once(':') {
            if r.parse() == Ok(rank) && !std::path::Path::new(marker).exists() {
                let _ = std::fs::write(marker, b"aborted");
                std::process::exit(101);
            }
        }
    }

    let runner = runner(&cfg);
    let size = runner.assign.world_size();
    let link: Box<dyn WireLink> = match cfg.transport {
        TransportKind::Shm => Box::new(
            ShmLink::attach(std::path::Path::new(&endpoint), rank)
                .map_err(|e| format!("shm attach {endpoint}: {e}"))?,
        ),
        TransportKind::Tcp => Box::new(
            TcpLink::rendezvous(&endpoint, rank, size)
                .map_err(|e| format!("tcp rendezvous {endpoint}: {e}"))?,
        ),
        TransportKind::InProc => return Err("_rank needs a wire transport".into()),
    };
    let mut comm: Comm<Msg> = Comm::over_wire(link, msg_codec());
    if let Some(plan) = runner.faults.clone() {
        comm.install_fault_plan(plan, Some(nan_corruptor()));
    }
    let sink = TraceSink::new();
    let epoch = runner.tracing.then(Instant::now);
    if let Some(e) = epoch {
        comm.install_tracing(e, &sink, stap::pipeline::msg::wire_bytes);
    }
    let parts = Partitions::new(&runner.params, &runner.assign);
    let pools = PipelinePools::default();
    let result = runner.run_task_rank(&mut comm, cfg.cpis, &parts, &pools, epoch);
    // Dropping the comm waves goodbye to every peer and flushes the
    // tracer into the sink — the trace must be harvested after.
    drop(comm);
    let mut j = Json::obj([
        ("rank", Json::Num(rank as f64)),
        ("result", rank_result_to_json(&result)),
    ]);
    if runner.tracing {
        j.push(
            "traces",
            Json::arr(sink.take().iter().map(rank_trace_to_json)),
        );
    }
    println!("{RESULT_SENTINEL}{}", j.to_string_compact());
    Ok(())
}

/// Runs the configured pipeline as a process cluster and returns the
/// assembled output — or, for [`TransportKind::InProc`], delegates to
/// the thread runner so callers can sweep all three transports through
/// one entry point.
pub fn run_cluster(cfg: &ClusterConfig) -> Result<PipelineOutput, String> {
    let (runner, cpis) = build_runner(cfg);
    if cfg.transport == TransportKind::InProc {
        return runner.try_run(cpis).map_err(|e| e.to_string());
    }
    runner.validate_input(&cpis).map_err(|e| e.to_string())?;
    let size = runner.assign.world_size();
    let driver_rank = size - 1;

    // Transport bootstrap. The shm region file and the rendezvous
    // coordinator live exactly as long as this run.
    let (endpoint, _region) = match cfg.transport {
        TransportKind::Shm => {
            let region = ShmRegion::create(size).map_err(|e| format!("shm region: {e}"))?;
            (region.path().display().to_string(), Some(region))
        }
        TransportKind::Tcp => {
            // The coordinator thread exits once every rank has its port
            // table; on a failed bootstrap it leaks blocked in accept,
            // which is fine for a process that is about to exit anyway.
            let (addr, _serve) =
                spawn_coordinator(size).map_err(|e| format!("rendezvous listener: {e}"))?;
            (addr, None)
        }
        TransportKind::InProc => unreachable!(),
    };

    // Children first (they block in attach/rendezvous until everyone,
    // including the parent's driver link below, arrives).
    let mut children: Vec<Option<Child>> = Vec::with_capacity(driver_rank);
    let mut readers = Vec::with_capacity(driver_rank);
    for rank in 0..driver_rank {
        let mut child = Command::new(&cfg.exe)
            .args(child_args(cfg, rank, &endpoint))
            .envs(cfg.child_env.iter().map(|(k, v)| (k, v)))
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn rank {rank} ({}): {e}", cfg.exe.display()))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        readers.push(std::thread::spawn(move || {
            std::io::BufReader::new(stdout)
                .lines()
                .map_while(Result::ok)
                .collect::<Vec<String>>()
        }));
        children.push(Some(child));
    }

    let kill_all = |children: &mut Vec<Option<Child>>| {
        for c in children.iter_mut().flatten() {
            let _ = c.kill();
        }
        for c in children.iter_mut() {
            if let Some(mut c) = c.take() {
                let _ = c.wait();
            }
        }
    };

    // The parent's own rank: the driver, over the same wire.
    let link: Box<dyn WireLink> = match cfg.transport {
        TransportKind::Shm => match ShmLink::attach(std::path::Path::new(&endpoint), driver_rank) {
            Ok(l) => Box::new(l),
            Err(e) => {
                kill_all(&mut children);
                return Err(format!("driver shm attach: {e}"));
            }
        },
        TransportKind::Tcp => match TcpLink::rendezvous(&endpoint, driver_rank, size) {
            Ok(l) => Box::new(l),
            Err(e) => {
                kill_all(&mut children);
                return Err(format!("driver rendezvous: {e}"));
            }
        },
        TransportKind::InProc => unreachable!(),
    };
    let mut comm: Comm<Msg> = Comm::over_wire(link, msg_codec());
    if let Some(plan) = runner.faults.clone() {
        comm.install_fault_plan(plan, Some(nan_corruptor()));
    }
    let sink = TraceSink::new();
    let epoch = runner.tracing.then(Instant::now);
    if let Some(e) = epoch {
        comm.install_tracing(e, &sink, stap::pipeline::msg::wire_bytes);
    }
    let poison = comm.poison_handle();
    let parts = Partitions::new(&runner.params, &runner.assign);
    let pools = PipelinePools::default();

    let num_cpis = cpis.len();
    // The driver borrows the runner, so it runs on a scoped thread; the
    // scope's own thread is the supervisor.
    let (driver_result, failure) = std::thread::scope(|s| {
        let driver = s.spawn(|| {
            let mut comm = comm;
            let r = runner.run_driver_rank(&mut comm, &cpis, &parts, &pools, epoch);
            drop(comm);
            r
        });

        // Supervision loop: reap children, fail fast on a dead rank,
        // and bound the whole run with a slack-scaled watchdog (a hung
        // wire must not hang CI).
        let deadline = Instant::now() + Duration::from_secs(stap_util::slacked_secs(120));
        let mut failure: Option<String> = None;
        loop {
            let mut all_done = true;
            for (rank, slot) in children.iter_mut().enumerate() {
                let Some(child) = slot.as_mut() else { continue };
                match child.try_wait() {
                    Ok(Some(status)) if status.success() => {
                        *slot = None;
                    }
                    Ok(Some(status)) => {
                        failure = Some(format!("rank {rank} process exited with {status}"));
                        break;
                    }
                    Ok(None) => all_done = false,
                    Err(e) => {
                        failure = Some(format!("waiting on rank {rank}: {e}"));
                        break;
                    }
                }
            }
            if failure.is_some() {
                break;
            }
            if all_done && driver.is_finished() {
                break;
            }
            if Instant::now() > deadline {
                failure = Some("cluster watchdog expired".to_string());
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        if failure.is_some() {
            // Poison the driver so its blocked receives fail fast, then
            // take the rest of the world down with the failed rank.
            poison.store(true, std::sync::atomic::Ordering::SeqCst);
            kill_all(&mut children);
        }
        (driver.join(), failure)
    });
    let child_lines: Vec<Vec<String>> = readers
        .into_iter()
        .map(|r| r.join().unwrap_or_default())
        .collect();
    if let Some(why) = failure {
        return Err(why);
    }
    let driver_result = match driver_result {
        Ok(r) => r,
        Err(p) => {
            let msg = p
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "driver panicked".to_string());
            return Err(format!("driver rank failed: {msg}"));
        }
    };

    // Harvest child results and traces from the sentinel lines.
    let mut results = Vec::with_capacity(size);
    let mut traces = Vec::new();
    for (rank, lines) in child_lines.iter().enumerate() {
        let line = lines
            .iter()
            .find_map(|l| l.strip_prefix(RESULT_SENTINEL))
            .ok_or(format!("rank {rank} exited without a result line"))?;
        let j = Json::parse(line).map_err(|e| format!("rank {rank} result: {e}"))?;
        results.push(
            rank_result_from_json(j.get("result").ok_or("missing result")?)
                .map_err(|e| format!("rank {rank} result: {e}"))?,
        );
        if let Some(Json::Arr(ts)) = j.get("traces") {
            for t in ts {
                traces
                    .push(rank_trace_from_json(t).map_err(|e| format!("rank {rank} trace: {e}"))?);
            }
        }
    }
    results.push(driver_result);
    traces.extend(sink.take());
    traces.sort_by_key(|t| t.rank);
    Ok(runner.assemble(num_cpis, results, traces, &pools))
}

/// [`run_cluster`] under relaunch supervision: a run that fails (a
/// killed rank process, a poisoned driver, a watchdog trip) is
/// relaunched from scratch up to `max_relaunches` times — the cluster
/// analogue of the serve supervisor's `max_recoveries` world-relaunch
/// loop. Returns the output and how many relaunches it took.
pub fn run_supervised(
    cfg: &ClusterConfig,
    max_relaunches: usize,
) -> Result<(PipelineOutput, usize), String> {
    let mut relaunches = 0;
    loop {
        match run_cluster(cfg) {
            Ok(out) => return Ok((out, relaunches)),
            Err(e) if relaunches < max_relaunches => {
                eprintln!("cluster run failed ({e}); relaunching ({relaunches} so far)");
                relaunches += 1;
            }
            Err(e) => return Err(format!("{e} (after {relaunches} relaunch(es))")),
        }
    }
}
