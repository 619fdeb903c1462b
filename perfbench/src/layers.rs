//! Per-layer probes for the traced run.
//!
//! Each probe times calls into one crate's public functions on the
//! workload's own inputs and geometry, or reads the timings and trace a
//! traced batch run already returns. Nothing here instruments the
//! program itself.

use crate::stats::median;
use crate::Metrics;
use stap::core::beamform::{easy_beamform, hard_beamform, interleave_bins};
use stap::core::cfar::cfar;
use stap::core::doppler::DopplerProcessor;
use stap::core::pulse::PulseCompressor;
use stap::core::weights::{EasyWeightComputer, HardWeightComputer};
use stap::core::StapParams;
use stap::cube::{CCube, SharedBufferPool};
use stap::math::fft::{Fft, FftScratch};
use stap::math::qr::{qr_r, qr_update_with, QrScratch};
use stap::math::{flops, CMat, Cx};
use stap::mp::{Comm, ShmLink, ShmRegion, TraceKind, WireCodec, World};
use stap::pipeline::msg::EDGE_NAMES;
use stap::pipeline::{
    latency_eq2, real_latency_eq3, throughput_eq1, NodeAssignment, PipelineOutput, TraceStats,
};
use std::hint::black_box;
use std::time::Instant;

/// Metric-name task labels, paper task order.
pub const TASKS: [&str; 7] = [
    "doppler", "easy_wt", "hard_wt", "easy_bf", "hard_bf", "pc", "cfar",
];

/// Median seconds per call of `f`: calls are batched so one sample
/// lasts at least ~1 ms, and the median of 15 samples is reported.
pub fn time_call<R>(mut f: impl FnMut() -> R) -> f64 {
    let t = Instant::now();
    black_box(f());
    let once = t.elapsed().as_secs_f64().max(1e-9);
    let batch = ((1e-3 / once).ceil() as usize).clamp(1, 1 << 20);
    let samples: Vec<f64> = (0..15)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            t.elapsed().as_secs_f64() / batch as f64
        })
        .collect();
    median(&samples).expect("15 samples")
}

/// `stap-math`: the Doppler FFT, the easy-beamform GEMM and the
/// hard-weight QR update at the workload's shapes.
pub fn math(p: &StapParams, cube: &CCube, m: &mut Metrics) {
    let n = p.n_pulses;
    let lanes = (cube.len() / n).min(64);
    let src = &cube.as_slice()[..lanes * n];
    let plan = Fft::new(n);
    let mut work = src.to_vec();
    let mut ws = FftScratch::new();
    let mut fft = || {
        work.copy_from_slice(src);
        plan.forward_lanes(&mut work, &mut ws);
        work[0].re
    };
    let fft_s = time_call(&mut fft) / lanes as f64;
    let (_, fft_flops) = flops::count(&mut fft);

    let at = |i: usize| {
        let s = cube.as_slice();
        s[(i * 7919) % s.len()]
    };
    let (j, k, mb) = (p.j_channels, p.k_range, p.m_beams);
    let w = CMat::from_fn(j, mb, |a, b| at(a * mb + b));
    let slab = CMat::from_fn(j, k, |a, b| at(a * k + b + 1));
    let mut y = CMat::zeros(mb, k);
    let mut gemm = || {
        w.hermitian_matmul_into(&slab, &mut y);
        y[(0, 0)].re
    };
    let gemm_s = time_call(&mut gemm);
    let (_, gemm_flops) = flops::count(&mut gemm);

    let jj = 2 * j;
    let r0 = qr_r(&CMat::from_fn(2 * jj, jj, |a, b| at(a * jj + b + 2)));
    let rows = CMat::from_fn(p.hard_samples, jj, |a, b| at(a * jj + b + 3));
    let mut out = CMat::zeros(jj, jj);
    let mut qws = QrScratch::new();
    let mut qr = || {
        qr_update_with(&r0, p.forgetting_factor, &rows, &mut out, &mut qws);
        out[(0, 0)].re
    };
    let qr_s = time_call(&mut qr);
    let (_, qr_flops) = flops::count(&mut qr);

    m.put("math.fft_ns", fft_s * 1e9, "ns");
    m.put("math.gemm_ns", gemm_s * 1e9, "ns");
    m.put("math.qr_update_ns", qr_s * 1e9, "ns");
    let flop = (fft_flops as f64 / lanes as f64) + gemm_flops as f64 + qr_flops as f64;
    m.put(
        "math.gflops",
        flop / ((fft_s + gemm_s + qr_s) * 1e9),
        "GFLOP/s",
    );
}

/// `stap-core`: one CPI of each of the seven tasks through the
/// sequential processors, on this thread, over the workload's cubes
/// (`beam_of[i]` is cube `i`'s transmit-beam index). Reports the median
/// per task plus the eq. (2) path and the per-node bottleneck under
/// [`NodeAssignment::tiny`]. Returns the last staggered cube.
pub fn core(
    p: &StapParams,
    steering: &[CMat],
    cubes: &[CCube],
    beam_of: impl Fn(usize) -> usize,
    rounds: usize,
    m: &mut Metrics,
) -> CCube {
    let doppler = DopplerProcessor::new(p);
    let pulse = PulseCompressor::new(p);
    let mut easy = EasyWeightComputer::new(p);
    let mut hard = HardWeightComputer::new(p);
    let mut pending: Vec<_> = steering
        .iter()
        .map(|s| (easy.quiescent(s), hard.quiescent(s)))
        .collect();
    let mut t = vec![Vec::new(); 7];
    let mut lap = |task: usize, since: &mut Instant| {
        let now = Instant::now();
        t[task].push((now - *since).as_secs_f64() * 1e3);
        *since = now;
    };
    let mut stag = CCube::zeros([1, 1, 1]);
    for i in 0..rounds.max(1) * cubes.len() {
        let c = i % cubes.len();
        let beam = beam_of(c);
        let mut s = Instant::now();
        stag = doppler.process(&cubes[c]);
        lap(0, &mut s);
        let (we, wh) = &pending[beam];
        let e = easy_beamform(p, &stag, we);
        lap(3, &mut s);
        let h = hard_beamform(p, &stag, wh);
        lap(4, &mut s);
        let bf = interleave_bins(p, &e, &h);
        s = Instant::now();
        let power = pulse.process(&bf);
        lap(5, &mut s);
        black_box(cfar(p, &power));
        lap(6, &mut s);
        let we = easy.process(beam, &stag, &steering[beam]);
        lap(1, &mut s);
        let wh = hard.process(beam, &stag, &steering[beam]);
        lap(2, &mut s);
        pending[beam] = (we, wh);
    }
    let med: Vec<f64> = t.iter().map(|v| median(v).expect("timed")).collect();
    for (name, v) in TASKS.iter().zip(&med) {
        m.put(&format!("core.{name}_ms"), *v, "ms");
    }
    m.put(
        "core.path_ms",
        med[0] + med[3].max(med[4]) + med[5] + med[6],
        "ms",
    );
    let nodes = NodeAssignment::tiny().0;
    let bottleneck = med
        .iter()
        .zip(nodes)
        .map(|(v, n)| v / n as f64)
        .fold(0.0, f64::max);
    m.put("core.bottleneck_ms", bottleneck, "ms");
    stag
}

/// `stap-cube`: the Doppler -> beamform reorganization of one staggered
/// CPI into pool buffers, the gather the Doppler task performs: easy
/// bins as `(bin, k, channel)` over the first window, hard bins over
/// both windows.
pub fn cube(p: &StapParams, stag: &CCube, m: &mut Metrics) {
    let (k, j) = (p.k_range, p.j_channels);
    let easy = p.easy_bins();
    let hard = p.hard_bins();
    let pool: SharedBufferPool<Cx> = SharedBufferPool::new();
    let s = time_call(|| {
        let e = pool.take_cube([easy.len(), k, j], |b, kc, ch| stag[(kc, ch, easy[b])]);
        let h = pool.take_cube([hard.len(), k, 2 * j], |b, kc, ch| stag[(kc, ch, hard[b])]);
        let v = e.as_slice()[0].re + h.as_slice()[0].re;
        pool.recycle(e);
        pool.recycle(h);
        v
    });
    let elements = easy.len() * k * j + hard.len() * k * 2 * j;
    m.put("cube.redist_ms", s * 1e3, "ms");
    m.put(
        "cube.redist_bytes",
        (elements * std::mem::size_of::<Cx>()) as f64,
        "B",
    );
}

const DATA: u64 = 1;
const ACK: u64 = 2;

/// Ping-pong over two connected comms: `send` frames of `bytes` from
/// rank 0, one-byte acks back. Returns median seconds per round trip.
fn ping_pong(mut comm: Comm<Vec<u8>>, bytes: usize, rounds: usize) -> Option<f64> {
    let frame = vec![0x5au8; bytes];
    let peer = 1 - comm.rank();
    if comm.rank() == 1 {
        for _ in 0..rounds * 8 {
            let f = comm.recv(peer, DATA).expect("ping");
            black_box(&f);
            comm.send(peer, ACK, vec![1]);
        }
        return None;
    }
    let mut samples = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let t = Instant::now();
        for _ in 0..8 {
            comm.send(peer, DATA, frame.clone());
            black_box(comm.recv(peer, ACK).expect("pong"));
        }
        samples.push(t.elapsed().as_secs_f64() / 8.0);
    }
    median(&samples)
}

fn inproc(bytes: usize, rounds: usize) -> f64 {
    World::<Vec<u8>>::new(2)
        .run_collect(|c| ping_pong(c, bytes, rounds))
        .into_iter()
        .flatten()
        .next()
        .expect("rank 0 timed")
}

fn bytes_codec() -> WireCodec<Vec<u8>> {
    WireCodec {
        encode: |m, out| out.extend_from_slice(m),
        decode: |b| b.to_vec(),
    }
}

fn shm(bytes: usize, rounds: usize) -> Result<f64, String> {
    let region = ShmRegion::create(2).map_err(|e| format!("shm region: {e}"))?;
    let path = region.path().to_path_buf();
    let times = std::thread::scope(|s| {
        let ranks: Vec<_> = (0..2)
            .map(|r| {
                let path = &path;
                s.spawn(move || -> Result<Option<f64>, String> {
                    let link = ShmLink::attach(path, r).map_err(|e| format!("shm attach: {e}"))?;
                    Ok(ping_pong(
                        Comm::over_wire(Box::new(link), bytes_codec()),
                        bytes,
                        rounds,
                    ))
                })
            })
            .collect();
        ranks
            .into_iter()
            .map(|h| h.join().map_err(|_| "shm rank panicked".to_string())?)
            .collect::<Result<Vec<_>, String>>()
    })?;
    times
        .into_iter()
        .flatten()
        .next()
        .ok_or_else(|| "shm rank 0 reported no time".to_string())
}

/// `stap-mp`: small-frame round trips and large-frame bandwidth over
/// the in-process fabric and the shared-memory ring. `frame_bytes` is
/// the workload's largest edge frame.
pub fn mp(frame_bytes: usize, m: &mut Metrics) -> Result<(), String> {
    const SMALL: usize = 64;
    m.put("mp.inproc_rtt_us", inproc(SMALL, 200) * 1e6, "us");
    m.put("mp.shm_rtt_us", shm(SMALL, 200)? * 1e6, "us");
    let gbit = |s: f64| frame_bytes as f64 * 8.0 / s / 1e9;
    // Round trips are ~8x the frame's copy time; 30 samples of 8 keep
    // the largest paper frame under a second per fabric.
    m.put("mp.inproc_gbps", gbit(inproc(frame_bytes, 30)), "Gbit/s");
    m.put("mp.shm_gbps", gbit(shm(frame_bytes, 30)?), "Gbit/s");
    Ok(())
}

/// Largest single message in a traced run, in host bytes (the trace
/// counts model bytes: 8 per complex sample, the host moves 16).
pub fn largest_frame(out: &PipelineOutput) -> usize {
    let trace = out.trace.as_ref().expect("traced run");
    let model = trace
        .comm
        .iter()
        .flat_map(|r| &r.events)
        .filter(|e| e.kind == TraceKind::Send)
        .map(|e| e.bytes)
        .max()
        .unwrap_or(0);
    (2 * model).max(64) as usize
}

/// `stap-mp` edges and `stap-pipeline` tasks from a traced batch run,
/// plus the paper's equations (1)-(3) on its per-task times and their
/// closure against the measured untraced rate.
pub fn pipeline(out: &PipelineOutput, measured_cpi_per_s: f64, m: &mut Metrics) {
    let trace = out.trace.as_ref().expect("traced run");
    let stats = TraceStats::from_trace(trace);
    let cpis = trace.num_cpis.max(1) as f64;
    for (name, e) in EDGE_NAMES.iter().zip(&stats.edges) {
        let name = name.replace("->", "-to-");
        m.put(
            &format!("edge.{name}.bytes_per_cpi"),
            e.bytes_per_cpi as f64,
            "B",
        );
        m.put(&format!("edge.{name}.recv_ms"), e.recv_s / cpis * 1e3, "ms");
    }
    let tasks = &out.timings.tasks;
    for (name, t) in TASKS.iter().zip(tasks) {
        m.put(&format!("task.{name}.recv_ms"), t.recv * 1e3, "ms");
        m.put(&format!("task.{name}.comp_ms"), t.comp * 1e3, "ms");
        m.put(&format!("task.{name}.send_ms"), t.send * 1e3, "ms");
        m.put(&format!("task.{name}.idle_ms"), t.recv_idle * 1e3, "ms");
    }
    let eq1 = throughput_eq1(tasks);
    m.put("pipeline.eq1_cpi_per_s", eq1, "1/s");
    m.put("pipeline.eq2_ms", latency_eq2(tasks) * 1e3, "ms");
    m.put("pipeline.eq3_ms", real_latency_eq3(tasks) * 1e3, "ms");
    m.put("pipeline.closure", eq1 / measured_cpi_per_s, "ratio");
}

/// `stap-radar`: synthesizes CPIs `0..count` of `scenario` and returns
/// them with the median synthesis time per CPI (ms).
pub fn radar(scenario: &stap::radar::Scenario, count: usize) -> (Vec<CCube>, f64) {
    let mut times = Vec::with_capacity(count);
    let cubes = (0..count)
        .map(|i| {
            let t = Instant::now();
            let c = scenario.generate_cpi(i);
            times.push(t.elapsed().as_secs_f64() * 1e3);
            c
        })
        .collect();
    (cubes, median(&times).expect("count > 0"))
}
