//! Resident multi-stream pipeline: the long-running ingestion back end.
//!
//! The batch runner ([`crate::runner::ParallelStap`]) spawns a world,
//! streams a fixed CPI list through it and tears everything down. A
//! radar front end serving many concurrent *streams* cannot afford that:
//! per-arrival world spawns dominate, and each stream's CPIs arrive
//! interleaved with every other stream's. This module keeps the seven
//! task nodes resident and drives them with **slot groups**: the driver
//! coalesces up to `max_group` CPIs — from *different* streams — into
//! one slot, every cube on every edge carries the group concatenated
//! along axis 0, and the kernels run once per slot over all member CPIs.
//!
//! The task nodes run the same stage loops as a batch run
//! ([`crate::tasks`]). A session differs only in its slot source (the
//! jobs channel), its completion sink (`CpiDone`s) and its end: when the
//! jobs channel disconnects, the driver drains every in-flight slot and
//! cascades a `Shutdown` down the data edges, and each stateful stage
//! exports its cross-slot state. Weights stay off the latency path as in
//! batch: a served CPI waits only for the weights computed `beams` CPIs
//! earlier in its stream, never for its own.
//!
//! The contract the admission layer (`stap-serve`) upholds: each
//! stream's CPIs are submitted in `scpi` order starting at 0, with no
//! gaps. Sessions use blocking receives (a dead rank poisons the world
//! and the supervisor restarts it) and are steady-state allocation-free
//! for every cube that travels an edge (all drawn from the shared
//! [`PipelinePools`], pre-warmed by [`ResidentStap::reserve`]).

use crate::assignment::{NodeAssignment, Partitions};
use crate::fault::RuntimePolicy;
use crate::metrics::PipelineHealth;
use crate::msg::Msg;
use crate::runner::{scenario_steering, PipelineError};
use crate::stages::{block_lens, run_task, TaskState};
use crate::tasks::{drive, Feed, PipelinePools, Sink, TaskCtx, TaskExit};
use stap_core::params::StapParams;
use stap_core::Detection;
use stap_cube::{CCube, PoolStats};
use stap_math::CMat;
use stap_mp::World;
use stap_radar::Scenario;
use std::collections::{HashMap, VecDeque};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Mutex;
use std::time::Instant;

/// One CPI submitted to the resident pipeline.
pub struct CpiJob {
    /// Ingestion stream id.
    pub stream: u16,
    /// Per-stream CPI index (must be contiguous from 0 per stream).
    pub scpi: u32,
    /// The raw data cube, `[k_range, j_channels, n_pulses]`. Draw it
    /// from [`ResidentStap::pools`] (`cx.take_cube`) to keep the steady
    /// state allocation-free — the driver recycles it after packing.
    pub cube: CCube,
    /// Submission instant (the latency clock starts here).
    pub submitted: Instant,
}

/// One CPI's completed result, delivered on the `done` channel.
pub struct CpiDone {
    /// Ingestion stream id.
    pub stream: u16,
    /// Per-stream CPI index.
    pub scpi: u32,
    /// Detections, sorted by (bin, beam, range).
    pub detections: Vec<Detection>,
    /// Submit-to-complete latency in seconds.
    pub latency: f64,
    /// True when screening flagged non-finite samples in this CPI's
    /// power lanes (upstream corruption reached the detector) — the
    /// detections are whatever CFAR salvaged from the finite cells. The
    /// serve layer folds this into per-stream health.
    pub degraded: bool,
}

/// What a resident session reports after shutdown.
#[derive(Clone, Debug, Default)]
pub struct ResidentSummary {
    /// CPIs fully processed.
    pub cpis: u64,
    /// Slots (coalesced groups) processed.
    pub slots: u64,
    /// Merged health counters (mailbox depth telemetry; the fault
    /// counters stay zero — sessions use blocking receives).
    pub health: PipelineHealth,
    /// Complex pool traffic. `misses` beyond warmup means
    /// [`ResidentStap::reserve`] under-provisioned.
    pub pool_cx: PoolStats,
    /// Real pool traffic.
    pub pool_real: PoolStats,
    /// Wall-clock seconds from `serve` entry to return.
    pub elapsed: f64,
    /// Per-task busy seconds, summed over that task's nodes: time spent
    /// assembling, computing and packing slots, excluding blocked
    /// receives. The elastic scheduler ranks bottlenecks by
    /// `busy[t] / nodes[t]`.
    pub busy: [f64; 7],
}

/// Cross-slot task state exported when a resident session drains, keyed
/// by **global** bin indices (as the stages hold it), so a follow-on
/// session may re-partition the same state under a *different* node
/// assignment and continue bit-identically.
///
/// * easy keys are `(stream, beam, easy-bin index in 0..n_easy)`;
/// * hard keys carry the hard-bin index in `0..n_hard` (and the range
///   segment for the QR recursion);
/// * FIFO/history order is preserved front-to-back; the beamform FIFOs
///   include every weight set still in flight when the session drained.
#[derive(Clone, Debug, Default)]
pub struct ResidentState {
    /// Easy-weight training history rings (task 1), front = oldest.
    pub easy_history: HashMap<(u16, usize, usize), VecDeque<CMat>>,
    /// Hard-weight QR recursion state (task 2), per segment.
    pub hard_r: HashMap<(u16, usize, usize, usize), CMat>,
    /// Easy-beamform pending weight FIFOs (task 3), front = next.
    pub easy_fifo: HashMap<(u16, usize, usize), VecDeque<CMat>>,
    /// Hard-beamform pending weight FIFOs (task 4), per-segment sets.
    pub hard_fifo: HashMap<(u16, usize, usize), VecDeque<Vec<CMat>>>,
}

impl ResidentState {
    /// True when no task carried any cross-slot state (a fresh world).
    pub fn is_empty(&self) -> bool {
        self.easy_history.is_empty()
            && self.hard_r.is_empty()
            && self.easy_fifo.is_empty()
            && self.hard_fifo.is_empty()
    }
}

/// The resident multi-stream STAP pipeline.
pub struct ResidentStap {
    /// Algorithm parameters.
    pub params: StapParams,
    /// Node assignment.
    pub assign: NodeAssignment,
    /// Steering matrices per transmit-beam position.
    pub steering: Vec<CMat>,
    /// Slots the driver keeps in flight.
    pub window: usize,
    /// Maximum CPIs coalesced into one slot.
    pub max_group: usize,
    /// Soft mailbox high-water mark installed in every rank's comm
    /// (0 = disabled); crossings are counted in the summary health.
    pub mailbox_high_water: usize,
    /// Deterministic fault schedule installed into the world on the
    /// next [`Self::serve_with_state`] launch (`None` = clean world,
    /// the production path). The supervisor re-arms this per launch so
    /// a fired panic is not re-injected into the recovery world.
    pub faults: Option<stap_mp::FaultPlan>,
    /// Screen CFAR power lanes for non-finite samples and flag the
    /// owning sub-CPI as degraded (costs one pass over each power
    /// block; off by default).
    pub screen: bool,
    pools: PipelinePools,
}

impl ResidentStap {
    /// Builds a resident runner from explicit steering matrices.
    pub fn new(params: StapParams, assign: NodeAssignment, steering: Vec<CMat>) -> Self {
        params.validate().expect("invalid parameters");
        assert!(!steering.is_empty(), "need at least one steering matrix");
        ResidentStap {
            params,
            assign,
            steering,
            window: 4,
            max_group: 4,
            mailbox_high_water: 0,
            faults: None,
            screen: false,
            pools: PipelinePools::default(),
        }
    }

    /// Steering fans matching [`stap_core::SequentialStap::for_scenario`].
    pub fn for_scenario(params: StapParams, assign: NodeAssignment, scenario: &Scenario) -> Self {
        let steering = scenario_steering(&params, scenario);
        ResidentStap::new(params, assign, steering)
    }

    /// Sets the slot window (in-flight slots).
    pub fn with_window(mut self, window: usize) -> Self {
        self.window = window.max(1);
        self
    }

    /// Sets the per-slot coalescing bound.
    pub fn with_max_group(mut self, max_group: usize) -> Self {
        self.max_group = max_group.max(1);
        self
    }

    /// Installs a soft mailbox high-water mark on every rank.
    pub fn with_mailbox_high_water(mut self, high_water: usize) -> Self {
        self.mailbox_high_water = high_water;
        self
    }

    /// Installs a deterministic fault schedule for the next launch (the
    /// chaos harness and the supervisor's per-launch plans use this).
    pub fn with_faults(mut self, plan: stap_mp::FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Enables non-finite screening at the CFAR boundary with per-sub
    /// degraded attribution.
    pub fn with_screen(mut self, screen: bool) -> Self {
        self.screen = screen;
        self
    }

    /// Replaces the buffer pools with an existing (shared) set. The
    /// elastic scheduler threads one pool family through successive
    /// epochs so a rebalance does not re-warm every size class from
    /// cold.
    pub fn with_pools(mut self, pools: PipelinePools) -> Self {
        self.pools = pools;
        self
    }

    /// The shared buffer pools. The ingestion side draws raw CPI cubes
    /// from `pools().cx` so submission is allocation-free too.
    pub fn pools(&self) -> &PipelinePools {
        &self.pools
    }

    /// Demand-driven pool sizing: pre-warms every size class the
    /// resident hot path will draw from, for `streams` concurrent
    /// streams with `queue_depth` admitted-and-waiting CPIs each, so
    /// even the first slot is miss-free. Takes the exact block sizes
    /// from the lists the stages send and multiplies by the in-flight
    /// slot count. The batcher
    /// coalesces *partial* groups while streams ramp up or drain, and a
    /// `g < max_group` slot draws from smaller size classes than the
    /// steady-state full group — every group size up to the bound gets
    /// a transient allowance so ramp slots stay miss-free too.
    pub fn reserve(&self, streams: usize, queue_depth: usize) {
        let p = &self.params;
        let parts = Partitions::new(p, &self.assign);
        let b = self.max_group.min(streams.max(1)).max(1);
        let w = self.window + 2; // in-flight slots + assembly margin
        let mut cx: HashMap<usize, usize> = HashMap::new();
        let mut real: HashMap<usize, usize> = HashMap::new();
        fn add(m: &mut HashMap<usize, usize>, len: usize, count: usize) {
            if len > 0 {
                *m.entry(len.next_power_of_two()).or_default() += count;
            }
        }
        // Raw CPI cubes: one held per producer, up to `queue_depth`
        // admitted per stream, plus in-flight groups.
        let raw = p.k_range * p.j_channels * p.n_pulses;
        add(&mut cx, raw, streams * (queue_depth + 1) + b * w);
        let (cx_blocks, real_blocks) = block_lens(p, &parts, &self.assign);
        for g in 1..=b {
            // Full groups are the steady state and need the whole
            // in-flight window; partial sizes are transient and only
            // need an assembly allowance (power-of-two classes merge
            // many of them with the full-group classes anyway).
            let n = if g == b { w } else { 2 };
            for len in &cx_blocks {
                add(&mut cx, g * len, n);
            }
            for len in &real_blocks {
                add(&mut real, g * len, n);
            }
        }
        for (cap, count) in cx {
            self.pools.cx.reserve(cap, count);
        }
        for (cap, count) in real {
            self.pools.real.reserve(cap, count);
        }
    }

    /// Runs the resident world until the `jobs` channel disconnects and
    /// every in-flight slot has drained. Each received `Vec<CpiJob>` is
    /// one slot group (1..=`max_group` CPIs, distinct or repeated
    /// streams); results stream out on `done` as slots complete.
    pub fn serve(
        &self,
        jobs: Receiver<Vec<CpiJob>>,
        done: Sender<CpiDone>,
    ) -> Result<ResidentSummary, PipelineError> {
        self.serve_with_state(jobs, done, ResidentState::default())
            .map(|(summary, _)| summary)
    }

    /// [`Self::serve`] with cross-session state carry: the stateful
    /// tasks (weight history rings, QR recursion, beamform weight
    /// FIFOs) start from `carry` — re-partitioned to this session's
    /// assignment — and the drained session's state comes back with the
    /// summary. This is the rebalance primitive: exporting under one
    /// assignment and importing under another is bit-identical to never
    /// having stopped.
    pub fn serve_with_state(
        &self,
        jobs: Receiver<Vec<CpiJob>>,
        done: Sender<CpiDone>,
        carry: ResidentState,
    ) -> Result<(ResidentSummary, ResidentState), PipelineError> {
        let t0 = Instant::now();
        let parts = Partitions::new(&self.params, &self.assign);
        let mut world: World<Msg> = World::new(self.assign.world_size());
        if self.mailbox_high_water > 0 {
            world = world.with_mailbox_high_water(self.mailbox_high_water);
        }
        if let Some(plan) = &self.faults {
            if !plan.is_empty() {
                world = world
                    .with_faults(plan.clone())
                    .with_corruptor(crate::fault::nan_corruptor());
            }
        }
        let policy = RuntimePolicy::default();
        let ctx = TaskCtx {
            params: &self.params,
            assign: &self.assign,
            parts: &parts,
            steering: &self.steering,
            pools: &self.pools,
            policy: &policy,
            limit: None,
            max_group: self.max_group,
            screen: self.screen,
            carry: &carry,
            epoch: None,
        };
        let window = self.window.max(1);
        // mpsc endpoints are Send but not Sync; the SPMD closure is
        // shared by reference across ranks, so the driver arm takes
        // them out of a mutex (it runs exactly once).
        let jobs_cell = Mutex::new(Some(jobs));
        let done_cell = Mutex::new(Some(done));
        fn take<T>(cell: &Mutex<Option<T>>) -> T {
            let mut cell = cell.lock().expect("no rank panics holding the driver cell");
            cell.take().expect("driver rank runs once")
        }

        enum Res {
            Task(usize, TaskExit),
            Driver(PipelineHealth, u64, u64),
        }

        let results =
            world.try_run_collect(|mut comm| match self.assign.task_of_rank(comm.rank()) {
                Some((t, local)) => Res::Task(t, run_task(&ctx, &mut comm, t, local)),
                None => {
                    let (feed, sink) = (Feed::Jobs(take(&jobs_cell)), Sink::Done(take(&done_cell)));
                    let (health, cpis, slots) = drive(&ctx, &mut comm, window, feed, sink);
                    Res::Driver(health, cpis, slots)
                }
            })?;

        let mut summary = ResidentSummary::default();
        let mut state = ResidentState::default();
        for r in results {
            match r {
                Res::Task(t, exit) => {
                    summary.health.merge(&exit.report.health);
                    summary.busy[t] += exit.busy;
                    match exit.state {
                        TaskState::Stateless => {}
                        TaskState::EasyWt(m) => state.easy_history.extend(m),
                        TaskState::HardWt(m) => state.hard_r.extend(m),
                        TaskState::EasyBf(m) => state.easy_fifo.extend(m),
                        TaskState::HardBf(m) => state.hard_fifo.extend(m),
                    }
                }
                Res::Driver(health, cpis, slots) => {
                    summary.health.merge(&health);
                    summary.cpis = cpis;
                    summary.slots = slots;
                }
            }
        }
        summary.pool_cx = self.pools.cx.stats();
        summary.pool_real = self.pools.real.stats();
        summary.elapsed = t0.elapsed().as_secs_f64();
        Ok((summary, state))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::ParallelStap;
    use std::sync::mpsc;

    /// Interleaved multi-stream resident processing must be
    /// bit-identical to running each stream through the batch pipeline
    /// on its own.
    #[test]
    fn interleaved_streams_match_per_stream_batch_runs() {
        let params = StapParams::reduced();
        let seeds = [11u64, 23u64, 47u64];
        let per_stream = 5usize;
        let scenarios: Vec<Scenario> = seeds.iter().map(|&s| Scenario::reduced(s)).collect();
        let streams: Vec<Vec<CCube>> = scenarios
            .iter()
            .map(|sc| sc.stream(per_stream).map(|(_, _, c)| c).collect())
            .collect();

        // Per-stream serial baselines (batch pipeline, same steering).
        let mut want: Vec<Vec<Vec<Detection>>> = Vec::new();
        for (sc, cubes) in scenarios.iter().zip(&streams) {
            let par = ParallelStap::for_scenario(params.clone(), NodeAssignment::tiny(), sc);
            want.push(par.run(cubes.clone()).detections);
        }

        // Resident run: one slot per CPI index carrying all three
        // streams' cubes (steering fans are per-scenario; use stream 0's
        // scenario for construction — all reduced scenarios share the
        // same transmit beams and geometry).
        let res = ResidentStap::for_scenario(params, NodeAssignment::tiny(), &scenarios[0])
            .with_max_group(seeds.len());
        res.reserve(seeds.len(), 1);
        let (jobs_tx, jobs_rx) = mpsc::sync_channel(4);
        let (done_tx, done_rx) = mpsc::channel();
        let pool = res.pools().cx.clone();
        let feeder = std::thread::spawn(move || {
            for scpi in 0..per_stream {
                let batch: Vec<CpiJob> = streams
                    .iter()
                    .enumerate()
                    .map(|(s, cubes)| {
                        let c = &cubes[scpi];
                        CpiJob {
                            stream: s as u16,
                            scpi: scpi as u32,
                            cube: pool.take_cube(c.shape(), |i, j, k| c[(i, j, k)]),
                            submitted: Instant::now(),
                        }
                    })
                    .collect();
                jobs_tx.send(batch).unwrap();
            }
        });
        let summary = res.serve(jobs_rx, done_tx).unwrap();
        feeder.join().unwrap();
        assert_eq!(summary.cpis as usize, seeds.len() * per_stream);
        assert_eq!(summary.slots as usize, per_stream);

        let mut got: Vec<Vec<Vec<Detection>>> = vec![vec![Vec::new(); per_stream]; seeds.len()];
        let mut n = 0;
        while let Ok(d) = done_rx.recv() {
            assert!(d.latency >= 0.0);
            got[d.stream as usize][d.scpi as usize] = d.detections;
            n += 1;
        }
        assert_eq!(n, seeds.len() * per_stream);
        for (s, (g, w)) in got.iter().zip(&want).enumerate() {
            for (i, (gd, wd)) in g.iter().zip(w).enumerate() {
                assert_eq!(gd.len(), wd.len(), "stream {s} CPI {i} detection count");
                for (a, b) in gd.iter().zip(wd) {
                    assert_eq!((a.bin, a.beam, a.range), (b.bin, b.beam, b.range));
                    assert!((a.power - b.power).abs() <= 1e-9 * b.power.abs().max(1.0));
                }
            }
        }
        // Demand-driven reserve: the steady state must be miss-free
        // (every class pre-warmed before the first slot).
        assert_eq!(
            summary.pool_cx.misses, 0,
            "reserve() under-provisioned the complex pool: {:?}",
            summary.pool_cx
        );
        assert_eq!(summary.pool_real.misses, 0);
    }

    /// Variable group sizes (ramp-up and tail slots smaller than
    /// max_group) and same-stream multi-CPI slots keep the per-stream
    /// weight schedule intact.
    #[test]
    fn uneven_groups_and_same_stream_slots_match() {
        let params = StapParams::reduced();
        let sc = Scenario::reduced(7);
        let per_stream = 6usize;
        let cubes: Vec<CCube> = sc.stream(per_stream).map(|(_, _, c)| c).collect();
        let want = ParallelStap::for_scenario(params.clone(), NodeAssignment::tiny(), &sc)
            .run(cubes.clone())
            .detections;

        // One stream, CPIs packed into uneven slots: [0], [1,2], [3,4,5].
        let res = ResidentStap::for_scenario(params, NodeAssignment::tiny(), &sc).with_max_group(3);
        res.reserve(1, 4);
        let (jobs_tx, jobs_rx) = mpsc::sync_channel(4);
        let (done_tx, done_rx) = mpsc::channel();
        let pool = res.pools().cx.clone();
        let feeder = std::thread::spawn(move || {
            let mk = |scpi: usize| {
                let c = &cubes[scpi];
                CpiJob {
                    stream: 0,
                    scpi: scpi as u32,
                    cube: pool.take_cube(c.shape(), |i, j, k| c[(i, j, k)]),
                    submitted: Instant::now(),
                }
            };
            jobs_tx.send(vec![mk(0)]).unwrap();
            jobs_tx.send(vec![mk(1), mk(2)]).unwrap();
            jobs_tx.send(vec![mk(3), mk(4), mk(5)]).unwrap();
        });
        let summary = res.serve(jobs_rx, done_tx).unwrap();
        feeder.join().unwrap();
        assert_eq!(summary.cpis as usize, per_stream);
        assert_eq!(summary.slots, 3);

        let mut got = vec![Vec::new(); per_stream];
        while let Ok(d) = done_rx.recv() {
            got[d.scpi as usize] = d.detections;
        }
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g.len(), w.len(), "CPI {i}");
            for (a, b) in g.iter().zip(w) {
                assert_eq!((a.bin, a.beam, a.range), (b.bin, b.beam, b.range));
            }
        }
    }
}
