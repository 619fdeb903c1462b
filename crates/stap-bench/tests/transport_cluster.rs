//! Cross-transport integration tests for the multi-process cluster
//! launcher: the same canonical configuration must produce bit-identical
//! detections, the same trace event multiset, and the same fault
//! classification whether the ranks are threads over channels (inproc)
//! or separate OS processes over shared memory / loopback TCP — and a
//! killed rank process must be recovered by the relaunch supervisor.
//!
//! Child ranks re-exec the real `stapctl` binary (Cargo builds it for
//! integration tests and exposes the path via `CARGO_BIN_EXE_stapctl`),
//! so these tests exercise exactly the code path `stapctl cluster` and
//! the CI transport matrix run.

use stap::mp::{TraceKind, TransportKind, CTRL_RESERVED_BASE};
use stap::pipeline::wire::detections_digest;
use stap::pipeline::PipelineOutput;
use stap_bench::cluster::{build_runner, run_cluster, run_supervised, ClusterConfig, FaultSpec};
use std::path::PathBuf;
use std::time::Instant;

fn canonical(transport: TransportKind) -> ClusterConfig {
    let mut cfg = ClusterConfig::canonical(transport);
    cfg.exe = PathBuf::from(env!("CARGO_BIN_EXE_stapctl"));
    cfg
}

/// Pinned digests: the canonical 6-CPI run `stapctl trace` prints and
/// the 8-CPI run `stapctl bench --transport` records.
#[test]
fn detections_bit_identical_across_transports() {
    for (cpis, want) in [(6, 0xa0e0_2c7f_d4df_8c9c_u64), (8, 0xdb3a_1a68_bc26_7452)] {
        let with_cpis = |transport| ClusterConfig {
            cpis,
            ..canonical(transport)
        };
        let base = run_cluster(&with_cpis(TransportKind::InProc)).expect("inproc run");
        assert_eq!(detections_digest(&base.detections), want, "{cpis} CPIs");
        for transport in [TransportKind::Shm, TransportKind::Tcp] {
            let out = run_cluster(&with_cpis(transport))
                .unwrap_or_else(|e| panic!("{}: {e}", transport.name()));
            assert_eq!(
                out.detections,
                base.detections,
                "{} detections differ from inproc",
                transport.name()
            );
            assert_eq!(detections_digest(&out.detections), want);
        }
    }
}

/// The application-level trace events — sends and receives of tagged
/// pipeline messages, with their on-wire byte sizes — as a sorted
/// multiset. Wall-clock spans and wait events differ run to run, and
/// control traffic (barriers, goodbyes) differs by fabric, but *which*
/// messages flow, between whom, and how many bytes each carries is a
/// deterministic property of the configuration alone.
fn data_event_multiset(out: &PipelineOutput) -> Vec<(usize, u8, usize, u64, u64)> {
    let trace = out.trace.as_ref().expect("tracing enabled");
    let mut events: Vec<(usize, u8, usize, u64, u64)> = trace
        .comm
        .iter()
        .flat_map(|rt| {
            rt.events.iter().filter_map(move |e| {
                let kind = match e.kind {
                    TraceKind::Send => 0u8,
                    TraceKind::Recv => 1,
                    _ => return None,
                };
                (e.tag < CTRL_RESERVED_BASE).then_some((rt.rank, kind, e.peer, e.tag, e.bytes))
            })
        })
        .collect();
    events.sort_unstable();
    events
}

#[test]
fn trace_event_multiset_deterministic_across_transports() {
    let mut cfg = canonical(TransportKind::InProc);
    cfg.tracing = true;
    let base = data_event_multiset(&run_cluster(&cfg).expect("inproc run"));
    assert!(!base.is_empty(), "traced run recorded no data events");
    for transport in [TransportKind::Shm, TransportKind::Tcp] {
        let mut cfg = canonical(transport);
        cfg.tracing = true;
        let events = data_event_multiset(&run_cluster(&cfg).expect(transport.name()));
        assert_eq!(
            events,
            base,
            "{} trace event multiset differs from inproc",
            transport.name()
        );
    }
}

#[test]
fn fault_classification_parity_across_transports() {
    let campaign = |transport| {
        let mut cfg = canonical(transport);
        cfg.two_beam = false;
        cfg.cpis = 10;
        cfg.seed = 7;
        cfg.faults = Some(FaultSpec {
            drop_cpi: 2,
            stall_cpi: 6,
        });
        cfg
    };
    let base = run_cluster(&campaign(TransportKind::InProc)).expect("inproc campaign");
    assert_eq!(base.timings.health.degraded_cpis, 3);
    assert_eq!(base.timings.health.dropped_cpis, 1);
    for transport in [TransportKind::Shm, TransportKind::Tcp] {
        let out = run_cluster(&campaign(transport)).expect(transport.name());
        assert_eq!(
            out.timings.outcomes,
            base.timings.outcomes,
            "{} per-CPI fault classification differs from inproc",
            transport.name()
        );
        assert_eq!(out.timings.health.degraded_cpis, 3);
        assert_eq!(out.timings.health.dropped_cpis, 1);
    }
}

/// A launch's fixed cost — spawn, attach, the driver's input synthesis:
/// the wall time the steady rate does not explain. Task ranks hold no
/// input, so a 200-CPI launch no longer pays for every child
/// synthesizing the whole stream (~3 s on a 2-core host).
#[test]
fn shm_launch_cost_stays_small() {
    let mut cfg = canonical(TransportKind::Shm);
    cfg.cpis = 200;
    let t = Instant::now();
    let out = run_cluster(&cfg).expect("shm run");
    let wall = t.elapsed().as_secs_f64();
    let setup = wall - cfg.cpis as f64 / out.timings.measured_throughput;
    // The budget is for an optimized build. An unoptimized one
    // synthesizes the input about six times slower, so there the bound
    // also allows the driver's own synthesis, timed here.
    let synth = if cfg!(debug_assertions) {
        let t = Instant::now();
        drop(build_runner(&cfg));
        t.elapsed().as_secs_f64()
    } else {
        0.0
    };
    let bound = 1.5 * stap_util::ci_slack() + synth;
    assert!(
        setup < bound,
        "launch cost {setup:.2} s (wall {wall:.2} s) exceeds {bound:.2} s"
    );

    let mut inproc = canonical(TransportKind::InProc);
    inproc.cpis = cfg.cpis;
    let base = run_cluster(&inproc).expect("inproc run");
    assert_eq!(
        detections_digest(&out.detections),
        detections_digest(&base.detections)
    );
}

#[test]
fn killed_rank_process_is_relaunched_and_completes() {
    let marker = std::env::temp_dir().join(format!("stap_abort_once_{}", std::process::id()));
    let _ = std::fs::remove_file(&marker);

    // Rank 3 dies on the first launch (before it even attaches to the
    // ring region); the supervisor must detect the dead process, poison
    // the parent's driver comm so it cannot hang, tear the world down
    // and relaunch — and the relaunched run must still produce the
    // bit-exact canonical detections.
    let mut cfg = canonical(TransportKind::Shm);
    cfg.child_env = vec![(
        "STAP_TEST_ABORT_ONCE".to_string(),
        format!("3:{}", marker.display()),
    )];
    let result = run_supervised(&cfg, 2);
    let _ = std::fs::remove_file(&marker);
    let (out, relaunches) = result.expect("supervised run");
    assert_eq!(relaunches, 1, "exactly one relaunch after the rank kill");

    let inproc = run_cluster(&canonical(TransportKind::InProc)).expect("inproc run");
    assert_eq!(
        detections_digest(&out.detections),
        detections_digest(&inproc.detections),
        "post-recovery detections must match the clean run bit-for-bit"
    );
}
