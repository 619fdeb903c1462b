//! Multi-stream ingestion: end-to-end properties of the serve front end.
//!
//! The headline property: N concurrent streams interleaved through the
//! server — admission, cross-stream slot batching, the resident
//! pipeline — produce, per stream, detections *bit-identical* to
//! running that stream alone through the batch pipeline. Cross-stream
//! batching is a pure throughput optimization; it must never change a
//! single detection.

use stap::cube::CCube;
use stap::mp::FaultPlan;
use stap::pipeline::assignment::HARD_WT;
use stap::pipeline::wire::detections_digest;
use stap::pipeline::{CpiDone, CpiJob, NodeAssignment, ParallelStap, ResidentStap};
use stap::radar::Scenario;
use stap::serve::{LoadgenConfig, Reject, ServerConfig, StapServer};
use stap_core::params::StapParams;
use stap_core::Detection;
use std::sync::mpsc;
use std::time::{Duration, Instant};

fn reduced_server(streams_hint: usize, cfg: ServerConfig) -> (StapServer, Scenario) {
    let params = StapParams::reduced();
    let scenario = Scenario::reduced(1);
    let res = ResidentStap::for_scenario(params, NodeAssignment::tiny(), &scenario);
    let cfg = ServerConfig {
        streams_hint,
        ..cfg
    };
    (StapServer::start(res, cfg), scenario)
}

#[test]
fn interleaved_streams_are_bit_identical_to_serial_runs() {
    let params = StapParams::reduced();
    let seeds = [3u64, 17u64, 29u64, 31u64];
    let per_stream = 4usize;
    let scenarios: Vec<Scenario> = seeds.iter().map(|&s| Scenario::reduced(s)).collect();
    let streams: Vec<Vec<stap::cube::CCube>> = scenarios
        .iter()
        .map(|sc| sc.stream(per_stream).map(|(_, _, c)| c).collect())
        .collect();

    // Serial per-stream baselines through the batch pipeline.
    let mut want: Vec<Vec<Vec<Detection>>> = Vec::new();
    for (sc, cubes) in scenarios.iter().zip(&streams) {
        let par = ParallelStap::for_scenario(params.clone(), NodeAssignment::tiny(), sc);
        want.push(par.run(cubes.clone()).detections);
    }

    // The same CPIs, interleaved through the server.
    let res = ResidentStap::for_scenario(params, NodeAssignment::tiny(), &scenarios[0]);
    let (tap_tx, tap_rx) = std::sync::mpsc::channel();
    let server = StapServer::start_with_tap(
        res,
        ServerConfig {
            max_group: seeds.len(),
            streams_hint: seeds.len(),
            ..ServerConfig::default()
        },
        Some(tap_tx),
    );
    for s in 0..seeds.len() {
        server.register(s as u16);
    }
    // Round-robin submission: CPI i of every stream before CPI i+1 of
    // any, so slots genuinely mix streams.
    for i in 0..per_stream {
        for (s, cubes) in streams.iter().enumerate() {
            let c = &cubes[i];
            let cube = server.take_cube(|a, b, k| c[(a, b, k)]);
            let scpi = server.submit(s as u16, cube).expect("admission");
            assert_eq!(scpi as usize, i, "per-stream sequencing");
        }
    }
    let summary = server.shutdown().expect("serve session");
    assert_eq!(summary.cpis as usize, seeds.len() * per_stream);
    assert!(
        summary.slots < summary.cpis,
        "cross-stream batching must coalesce: {} slots for {} CPIs",
        summary.slots,
        summary.cpis
    );
    assert_eq!(summary.rejected, 0);

    let mut got: Vec<Vec<Vec<Detection>>> = vec![vec![Vec::new(); per_stream]; seeds.len()];
    while let Ok(d) = tap_rx.recv() {
        assert!(d.latency >= 0.0);
        got[d.stream as usize][d.scpi as usize] = d.detections;
    }
    for (s, (g, w)) in got.iter().zip(&want).enumerate() {
        for (i, (gd, wd)) in g.iter().zip(w).enumerate() {
            assert_eq!(gd.len(), wd.len(), "stream {s} CPI {i}: detection count");
            for (a, b) in gd.iter().zip(wd) {
                assert_eq!((a.bin, a.beam, a.range), (b.bin, b.beam, b.range));
                assert_eq!(
                    a.power.to_bits(),
                    b.power.to_bits(),
                    "stream {s} CPI {i}: power must be bit-identical"
                );
            }
        }
    }

    // Per-stream accounting matches what actually completed.
    for st in &summary.streams {
        assert_eq!(st.cpis as usize, per_stream);
        assert!(st.latency.p99_ms >= st.latency.p50_ms);
        assert!(st.latency.max_ms >= st.latency.p99_ms);
    }
}

#[test]
fn queue_full_rejects_beyond_high_water_mark() {
    let (server, scenario) = reduced_server(
        1,
        ServerConfig {
            queue_depth: 2,
            window: 1,
            max_group: 1,
            ..ServerConfig::default()
        },
    );
    server.register(0);
    let (_, _, c) = scenario.stream(1).next().unwrap();
    // Unregistered stream and bad shape bounce with their own reasons.
    let cube = server.take_cube(|i, j, k| c[(i, j, k)]);
    assert_eq!(server.submit(9, cube), Err(Reject::UnknownStream(9)));
    let shape = server.shape();
    let bad = stap::cube::CCube::zeros([1, shape[1], shape[2]]);
    assert!(matches!(
        server.submit(0, bad),
        Err(Reject::BadShape { .. })
    ));
    // Flood one stream: with depth 2, some submission in the first few
    // must bounce QueueFull (the pipeline can't drain instantly).
    let mut saw_full = false;
    for _ in 0..32 {
        let cube = server.take_cube(|i, j, k| c[(i, j, k)]);
        match server.submit(0, cube) {
            Ok(_) => {}
            Err(Reject::QueueFull {
                stream: 0,
                depth: 2,
            }) => {
                saw_full = true;
                break;
            }
            Err(e) => panic!("unexpected rejection: {e}"),
        }
    }
    assert!(saw_full, "depth-2 stream never hit its high-water mark");
    let summary = server.shutdown().expect("serve session");
    assert!(summary.rejected >= 3);
}

#[test]
fn disconnect_mid_stream_purges_undispatched_cpis() {
    // Tiny window + group so queued CPIs sit in admission while the
    // pipeline is busy, then vanish when the stream disconnects.
    let (server, scenario) = reduced_server(
        2,
        ServerConfig {
            queue_depth: 16,
            window: 1,
            max_group: 1,
            ..ServerConfig::default()
        },
    );
    server.register(0);
    server.register(1);
    let cubes: Vec<_> = scenario.stream(6).map(|(_, _, c)| c).collect();
    for c in &cubes {
        let cube = server.take_cube(|i, j, k| c[(i, j, k)]);
        server.submit(0, cube).expect("stream 0 admission");
        let cube = server.take_cube(|i, j, k| c[(i, j, k)]);
        server.submit(1, cube).expect("stream 1 admission");
    }
    let purged = server.disconnect(0);
    // Disconnected stream is gone from admission immediately.
    let cube = server.take_cube(|i, j, k| cubes[0][(i, j, k)]);
    assert_eq!(server.submit(0, cube), Err(Reject::UnknownStream(0)));
    let summary = server.shutdown().expect("serve session");
    assert_eq!(summary.purged as usize, purged);
    // Stream 1 is untouched; stream 0 completed exactly the CPIs that
    // were already past admission when it disconnected.
    let s1 = summary.streams.iter().find(|s| s.stream == 1).unwrap();
    assert_eq!(s1.cpis as usize, cubes.len());
    let s0_done = summary
        .streams
        .iter()
        .find(|s| s.stream == 0)
        .map_or(0, |s| s.cpis as usize);
    assert_eq!(s0_done + purged, cubes.len());
    assert!(purged > 0, "nothing was pending at disconnect");
}

#[test]
fn loadgen_smoke_reports_backpressure_and_slo() {
    let report = stap::serve::run_loadgen(
        || {
            let params = StapParams::reduced();
            let scenario = Scenario::reduced(5);
            let res = ResidentStap::for_scenario(params, NodeAssignment::tiny(), &scenario);
            StapServer::start(
                res,
                ServerConfig {
                    queue_depth: 2,
                    window: 2,
                    max_group: 2,
                    streams_hint: 2,
                    ..ServerConfig::default()
                },
            )
        },
        LoadgenConfig {
            streams: 2,
            cpis_per_stream: 5,
            seed: 5,
            ..LoadgenConfig::default()
        },
    )
    .expect("loadgen");
    let s = &report.summary;
    assert_eq!(s.cpis, 10);
    assert_eq!(s.streams.len(), 2);
    assert!(s.cpis_per_sec > 0.0);
    assert!(s.aggregate.p99_ms >= s.aggregate.p50_ms);
    assert!(!s.resident.health.any(), "loadgen run must be fault-free");
    // Happy path: backpressure is absorbed by wait_ready, so no
    // submission is ever rejected and no CPI abandoned.
    assert!(
        report.rejects.is_empty(),
        "clean run must report zero rejects, got {:?}",
        report.rejects
    );
    assert_eq!(report.rejected_total, 0);
    assert_eq!(report.abandoned_cpis, 0);
    assert_eq!(s.quarantines, 0);
    for h in &s.stream_health {
        assert_eq!(h.rejects.total(), 0, "stream {} saw rejects", h.stream);
    }
}

/// The canonical two-azimuth scenario (`stapctl trace`, the transport
/// parity gate) and `n` of its CPIs.
fn two_azimuth(n: usize) -> (Scenario, Vec<CCube>) {
    let mut scenario = Scenario::reduced(42);
    scenario.transmit_beams = vec![-20.0, 20.0];
    let cpis = scenario.stream(n).map(|(_, _, c)| c).collect();
    (scenario, cpis)
}

/// Serves one stream's `cpis` through `res`, `group` CPIs per slot, all
/// submitted before the session starts. Returns the completions by CPI.
fn serve_one_stream(res: &ResidentStap, cpis: &[CCube], group: usize) -> Vec<CpiDone> {
    res.reserve(1, cpis.len());
    let (jobs_tx, jobs_rx) = mpsc::sync_channel(cpis.len());
    let pool = &res.pools().cx;
    for (slot, chunk) in cpis.chunks(group).enumerate() {
        let jobs = chunk.iter().enumerate().map(|(i, c)| CpiJob {
            stream: 0,
            scpi: (slot * group + i) as u32,
            cube: pool.take_cube_from(c),
            submitted: Instant::now(),
        });
        jobs_tx.send(jobs.collect()).expect("jobs channel");
    }
    drop(jobs_tx);
    let (done_tx, done_rx) = mpsc::channel();
    let summary = res.serve(jobs_rx, done_tx).expect("serve session");
    assert_eq!(summary.cpis as usize, cpis.len());
    let mut done: Vec<CpiDone> = done_rx.iter().collect();
    done.sort_by_key(|d| d.scpi);
    done
}

/// Serving is bit-exact with batch across batching: the same CPIs give
/// the batch pipeline's detections digest with one CPI per slot and
/// with three same-stream CPIs per slot (closer than the two-azimuth
/// revisit, so weights computed in a slot feed later members of it).
#[test]
fn served_detections_digest_matches_batch_for_any_grouping() {
    let (scenario, cpis) = two_azimuth(6);
    let params = StapParams::reduced();
    let batch = ParallelStap::for_scenario(params.clone(), NodeAssignment::tiny(), &scenario)
        .run(cpis.clone())
        .detections;
    let want = detections_digest(&batch);
    for group in [1, 3] {
        let res = ResidentStap::for_scenario(params.clone(), NodeAssignment::tiny(), &scenario)
            .with_max_group(group);
        let served: Vec<Vec<Detection>> = serve_one_stream(&res, &cpis, group)
            .into_iter()
            .map(|d| d.detections)
            .collect();
        assert_eq!(
            detections_digest(&served),
            want,
            "max_group {group}: served detections differ from batch"
        );
    }
}

/// The weight tasks sit off the serving latency path (paper Fig. 4): a
/// served CPI waits only for weights computed `beams` CPIs earlier,
/// never for its own. A 2 s stall of a hard-weight rank at slot `k`
/// leaves CPI `k` fast; CPI `k + beams`, whose weights that slot
/// computes, absorbs the stall.
#[test]
fn weight_stall_stays_off_the_serving_latency_path() {
    let (scenario, cpis) = two_azimuth(8);
    let beams = scenario.transmit_beams.len();
    let k = 4usize;
    let assign = NodeAssignment::tiny();
    let stall = FaultPlan::seeded(1).stall_rank(
        assign.rank_range(HARD_WT).start,
        k as u64,
        Duration::from_secs(2),
    );
    let res = ResidentStap::for_scenario(StapParams::reduced(), assign, &scenario)
        .with_max_group(1)
        .with_faults(stall);
    let done = serve_one_stream(&res, &cpis, 1);
    let bound = stap_util::ci_slack();
    assert!(
        done[k].latency < bound,
        "CPI {k} waited on the stalled weight task: {:.3} s (bound {bound} s)",
        done[k].latency
    );
    assert!(
        done[k + beams].latency >= 1.5,
        "CPI {} should absorb the 2 s stall, took {:.3} s",
        k + beams,
        done[k + beams].latency
    );
}
