//! Batch runs: world construction over a fixed CPI list, and the
//! aggregation of per-rank results into timings and traces. Every rank
//! body is one of the loops in [`crate::tasks`] that resident sessions
//! run too.

use crate::assignment::{NodeAssignment, Partitions};
use crate::fault::{nan_corruptor, RuntimePolicy};
use crate::metrics::{CpiOutcome, PipelineHealth, PipelineTimings, TaskTiming};
use crate::msg::Msg;
use crate::resident::ResidentState;
use crate::stages::run_task;
use crate::tasks::{drive, Feed, PipelinePools, Sink, TaskCtx, TaskReport};
use stap_core::{Detection, StapParams};
use stap_cube::CCube;
use stap_math::CMat;
use stap_mp::{FaultPlan, World, WorldError};
use stap_radar::Scenario;
use std::fmt;
use std::time::Instant;

/// Why a pipeline run could not produce output.
#[derive(Debug)]
pub enum PipelineError {
    /// The injected input was rejected before any rank was spawned
    /// (wrong cube shape, empty CPI list).
    InvalidInput(String),
    /// A rank panicked and the failure was joined back (see
    /// [`stap_mp::WorldError`]).
    World(WorldError),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::InvalidInput(m) => write!(f, "invalid pipeline input: {m}"),
            PipelineError::World(e) => write!(f, "pipeline {e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<WorldError> for PipelineError {
    fn from(e: WorldError) -> Self {
        PipelineError::World(e)
    }
}

/// What a pipeline run returns.
#[derive(Debug)]
pub struct PipelineOutput {
    /// Detections per CPI, merged across CFAR nodes and sorted
    /// (bin, beam, range).
    pub detections: Vec<Vec<Detection>>,
    /// Per-task timings averaged over the measured CPIs plus measured
    /// pipeline rates. On a host with fewer cores than ranks these are
    /// functional timings, not Paragon performance — `stap-sim` models
    /// the latter.
    pub timings: PipelineTimings,
    /// Unified measured timeline (task spans + comm events + CPI
    /// marks). `None` unless the run was built with
    /// [`ParallelStap::with_tracing`].
    pub trace: Option<crate::trace::PipelineTrace>,
}

/// What one rank contributes to a run. Produced by
/// [`ParallelStap::run_rank`] on every rank (in-process thread or
/// cluster child process) and folded into a [`PipelineOutput`] by
/// [`ParallelStap::assemble`].
#[derive(Debug)]
pub enum RankResult {
    /// A task node's report: paper task index, local node index within
    /// the task, and its per-CPI report.
    Task {
        /// Task index (0..7, paper order).
        task: usize,
        /// Local node index within the task.
        node: usize,
        /// The node's timings, health counters and spans.
        report: TaskReport,
    },
    /// The driver rank's collected output.
    Driver(DriverResult),
}

/// Everything the driver rank collects: merged detections plus the
/// raw per-CPI timestamps the aggregation turns into throughput and
/// latency.
#[derive(Debug, Default)]
pub struct DriverResult {
    /// Detections per CPI, merged across CFAR nodes and sorted.
    pub detections: Vec<Vec<Detection>>,
    /// Injection time of each CPI, seconds since the driver epoch.
    pub inject_t: Vec<f64>,
    /// Completion time of each CPI, seconds since the driver epoch.
    pub complete_t: Vec<f64>,
    /// Per-CPI outcome classification (fault-tolerant runs).
    pub outcomes: Vec<CpiOutcome>,
    /// Health counters observed at the driver.
    pub health: PipelineHealth,
}

/// The parallel pipelined STAP system.
pub struct ParallelStap {
    /// Algorithm parameters.
    pub params: StapParams,
    /// Node assignment.
    pub assign: NodeAssignment,
    /// Steering matrices per transmit-beam position.
    pub steering: Vec<CMat>,
    /// CPIs kept in flight by the driver (pipeline window).
    pub window: usize,
    /// Leading CPIs excluded from timing averages (paper: first 3).
    pub warmup: usize,
    /// Trailing CPIs excluded from timing averages (paper: last 2).
    pub cooldown: usize,
    /// Fault-tolerance policy for the task loops. Defaults to off
    /// (zero-overhead blocking receives, bit-identical to the non-FT
    /// pipeline).
    pub policy: RuntimePolicy,
    /// Deterministic fault-injection plan installed in the world.
    /// `None` (the default) builds a clean world.
    pub faults: Option<FaultPlan>,
    /// When true, the run records a full span timeline (task phases,
    /// comm events, CPI marks) into [`PipelineOutput::trace`]. Off by
    /// default: the untraced path performs no clock reads or
    /// allocations beyond the existing per-CPI timing.
    pub tracing: bool,
}

impl ParallelStap {
    /// Builds a runner from explicit steering matrices.
    pub fn new(params: StapParams, assign: NodeAssignment, steering: Vec<CMat>) -> Self {
        params.validate().expect("invalid parameters");
        assert!(!steering.is_empty(), "need at least one steering matrix");
        ParallelStap {
            params,
            assign,
            steering,
            window: 4,
            warmup: 3,
            cooldown: 2,
            policy: RuntimePolicy::default(),
            faults: None,
            tracing: false,
        }
    }

    /// Enables span tracing: the returned output carries a
    /// [`crate::trace::PipelineTrace`] merging every task node's
    /// per-CPI phase spans with every rank's communication events.
    pub fn with_tracing(mut self) -> Self {
        self.tracing = true;
        self
    }

    /// Sets the runtime degradation policy (deadlines, retry budget,
    /// payload screening).
    pub fn with_policy(mut self, policy: RuntimePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Installs a deterministic fault-injection plan and, unless a
    /// policy was already set, switches the task loops to the
    /// fault-tolerant path (injecting faults into a non-tolerant
    /// pipeline would just panic it).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        if !self.policy.fault_tolerant {
            self.policy = RuntimePolicy::fault_tolerant();
        }
        self.faults = Some(plan);
        self
    }

    /// Builds a runner whose steering fans match
    /// [`stap_core::SequentialStap::for_scenario`].
    pub fn for_scenario(params: StapParams, assign: NodeAssignment, scenario: &Scenario) -> Self {
        let steering = scenario_steering(&params, scenario);
        ParallelStap::new(params, assign, steering)
    }

    /// Runs the pipeline over `cpis` (index, cube) pairs, one OS thread
    /// per node plus a driver thread. Panics on invalid input or a rank
    /// failure; use [`ParallelStap::try_run`] for recoverable errors.
    pub fn run(&self, cpis: Vec<CCube>) -> PipelineOutput {
        self.try_run(cpis).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Like [`ParallelStap::run`] but validates the input cubes before
    /// any rank is spawned and joins rank panics back as structured
    /// [`PipelineError`]s instead of panicking the caller.
    pub fn try_run(&self, cpis: Vec<CCube>) -> Result<PipelineOutput, PipelineError> {
        self.validate_input(&cpis)?;
        let num_cpis = cpis.len();
        let parts = Partitions::new(&self.params, &self.assign);
        let mut world: World<Msg> = World::new(self.assign.world_size());
        if let Some(plan) = &self.faults {
            world = world
                .with_faults(plan.clone())
                .with_corruptor(nan_corruptor());
        }
        // One epoch shared by the comm recorder, the task spans and the
        // driver's CPI marks, so the merged timeline is coherent.
        let epoch = self.tracing.then(Instant::now);
        let sink = stap_mp::TraceSink::new();
        if let Some(e) = epoch {
            world = world.with_tracing(e, &sink, crate::msg::wire_bytes);
        }
        let parts_ref = &parts;
        let cpis_ref = &cpis;
        // One recycling pool per run, shared by every node thread:
        // receivers retire message buffers, senders draw packing buffers.
        let pools = PipelinePools::default();
        let pools_ref = &pools;

        let results = world.try_run_collect(|mut comm| {
            self.run_rank(&mut comm, cpis_ref, parts_ref, pools_ref, epoch)
        })?;
        Ok(self.assemble(num_cpis, results, sink.take(), &pools))
    }

    /// Checks that `cpis` is non-empty and every cube matches the
    /// configured `[k_range, j_channels, n_pulses]` shape. `try_run`
    /// calls this before spawning; the cluster parent calls it before
    /// launching rank processes.
    pub fn validate_input(&self, cpis: &[CCube]) -> Result<(), PipelineError> {
        if cpis.is_empty() {
            return Err(PipelineError::InvalidInput(
                "need at least one CPI".to_string(),
            ));
        }
        let want = [
            self.params.k_range,
            self.params.j_channels,
            self.params.n_pulses,
        ];
        for (i, c) in cpis.iter().enumerate() {
            if c.shape() != want {
                return Err(PipelineError::InvalidInput(format!(
                    "CPI {i} cube has shape {:?}, but StapParams requires \
                     [k_range, j_channels, n_pulses] = {want:?}",
                    c.shape()
                )));
            }
        }
        Ok(())
    }

    /// Runs exactly one rank of the pipeline to completion over `comm`
    /// and returns its contribution. This is the whole per-rank body of
    /// [`ParallelStap::try_run`], exposed so a cluster child process
    /// (which *is* one rank, on a wire-backed `Comm`) can execute the
    /// identical code path the in-process threads run.
    ///
    /// Task ranks only use `cpis` for its length; the driver rank
    /// extracts and injects the actual cubes.
    pub fn run_rank(
        &self,
        comm: &mut stap_mp::Comm<Msg>,
        cpis: &[CCube],
        parts: &Partitions,
        pools: &PipelinePools,
        epoch: Option<Instant>,
    ) -> RankResult {
        let carry = ResidentState::default();
        let ctx = TaskCtx {
            params: &self.params,
            assign: &self.assign,
            parts,
            steering: &self.steering,
            pools,
            policy: &self.policy,
            limit: Some(cpis.len()),
            max_group: 1,
            screen: false,
            carry: &carry,
            epoch,
        };
        match self.assign.task_of_rank(comm.rank()) {
            Some((task, node)) => RankResult::Task {
                task,
                node,
                report: run_task(&ctx, comm, task, node).report,
            },
            None => {
                let mut result = DriverResult::default();
                let sink = Sink::Batch(&mut result);
                let window = self.window.max(1);
                result.health = drive(&ctx, comm, window, Feed::Cpis(cpis), sink).0;
                RankResult::Driver(result)
            }
        }
    }

    /// Folds per-rank results (however they were obtained: in-process
    /// threads or cluster child processes) plus the collected comm
    /// traces into the run's [`PipelineOutput`].
    pub fn assemble(
        &self,
        num_cpis: usize,
        results: Vec<RankResult>,
        comm_traces: Vec<stap_mp::RankTrace>,
        pools: &PipelinePools,
    ) -> PipelineOutput {
        let lo = self.warmup.min(num_cpis.saturating_sub(1));
        let hi = num_cpis.saturating_sub(self.cooldown).max(lo + 1);
        let measured: std::ops::Range<usize> = lo..hi;
        let mut tasks = [TaskTiming::default(); 7];
        let mut counts = [0usize; 7];
        let mut detections = Vec::new();
        let mut timings = PipelineTimings::default();
        let mut trace_tasks: Vec<crate::trace::TaskInterval> = Vec::new();
        let mut trace_cpis: Vec<crate::trace::CpiMark> = Vec::new();
        for r in results {
            match r {
                RankResult::Task {
                    task: t,
                    node: local,
                    report,
                } => {
                    for cpi in measured.clone() {
                        if let Some(tt) = report.timings.get(cpi) {
                            tasks[t].add(tt);
                            counts[t] += 1;
                        }
                    }
                    timings.health.merge(&report.health);
                    trace_tasks.extend(report.spans.iter().map(|&span| {
                        crate::trace::TaskInterval {
                            task: t,
                            node: local,
                            span,
                        }
                    }));
                }
                RankResult::Driver(DriverResult {
                    detections: d,
                    inject_t: inject,
                    complete_t: complete,
                    outcomes,
                    health,
                }) => {
                    let lat: Vec<f64> = measured.clone().map(|i| complete[i] - inject[i]).collect();
                    timings.measured_latency = mean(&lat);
                    let mut intervals: Vec<f64> = measured
                        .clone()
                        .skip(1)
                        .map(|i| complete[i] - complete[i - 1])
                        .collect();
                    if intervals.is_empty() && num_cpis > 1 {
                        // Too few measured CPIs to exclude warmup; use all.
                        intervals = (1..num_cpis)
                            .map(|i| complete[i] - complete[i - 1])
                            .collect();
                    }
                    let mean_int = mean(&intervals);
                    timings.measured_throughput = if mean_int > 0.0 { 1.0 / mean_int } else { 0.0 };
                    if self.tracing {
                        trace_cpis = (0..num_cpis)
                            .map(|cpi| crate::trace::CpiMark {
                                cpi,
                                inject_s: inject[cpi],
                                complete_s: complete[cpi],
                            })
                            .collect();
                    }
                    detections = d;
                    timings.health.merge(&health);
                    if self.policy.fault_tolerant {
                        for o in &outcomes {
                            match o {
                                CpiOutcome::Dropped => timings.health.dropped_cpis += 1,
                                CpiOutcome::DegradedStaleWeights => {
                                    timings.health.degraded_cpis += 1
                                }
                                CpiOutcome::Ok => {}
                            }
                        }
                        timings.outcomes = outcomes;
                    }
                }
            }
        }
        for t in 0..7 {
            if counts[t] > 0 {
                tasks[t] = tasks[t].scale(1.0 / counts[t] as f64);
            }
        }
        timings.tasks = tasks;
        timings.pool_cx = pools.cx.stats();
        timings.pool_real = pools.real.stats();
        let trace = self.tracing.then(|| {
            trace_tasks.sort_by_key(|iv| (iv.task, iv.node, iv.span.cpi));
            crate::trace::PipelineTrace {
                assign: self.assign,
                num_cpis,
                tasks: trace_tasks,
                comm: comm_traces,
                cpis: trace_cpis,
            }
        });
        PipelineOutput {
            detections,
            timings,
            trace,
        }
    }
}

/// The steering fan per transmit beam of `scenario`, matching
/// [`stap_core::SequentialStap::for_scenario`].
pub(crate) fn scenario_steering(params: &StapParams, scenario: &Scenario) -> Vec<CMat> {
    let half_width = scenario.beam_half_width_deg / 2.0;
    let fan = |&c: &f64| scenario.geom.beam_fan(c, half_width, params.m_beams);
    scenario.transmit_beams.iter().map(fan).collect()
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stap_core::SequentialStap;

    /// The central invariant: the parallel pipeline produces the exact
    /// detections of the sequential reference.
    #[test]
    fn parallel_matches_sequential_reference() {
        let params = StapParams::reduced();
        let scenario = Scenario::reduced(77);
        let cpis: Vec<CCube> = scenario.stream(6).map(|(_, _, c)| c).collect();

        let mut seq = SequentialStap::for_scenario(params.clone(), &scenario);
        let want: Vec<Vec<Detection>> = cpis
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let beam = i % scenario.transmit_beams.len();
                let mut d = seq.process_cpi(beam, c).detections;
                d.sort_by_key(|d| (d.bin, d.beam, d.range));
                d
            })
            .collect();

        let par = ParallelStap::for_scenario(params, NodeAssignment::tiny(), &scenario);
        let got = par.run(cpis);
        assert_eq!(got.detections.len(), want.len());
        for (i, (g, w)) in got.detections.iter().zip(&want).enumerate() {
            assert_eq!(
                g.len(),
                w.len(),
                "CPI {i}: {} vs {} detections",
                g.len(),
                w.len()
            );
            for (gd, wd) in g.iter().zip(w) {
                assert_eq!((gd.bin, gd.beam, gd.range), (wd.bin, wd.beam, wd.range));
                assert!((gd.power - wd.power).abs() <= 1e-9 * wd.power.abs().max(1.0));
            }
        }
    }

    #[test]
    fn equivalence_holds_across_assignments() {
        let params = StapParams::reduced();
        let scenario = Scenario::reduced(5);
        let cpis: Vec<CCube> = scenario.stream(4).map(|(_, _, c)| c).collect();

        let baseline = ParallelStap::for_scenario(
            params.clone(),
            NodeAssignment([1, 1, 1, 1, 1, 1, 1]),
            &scenario,
        )
        .run(cpis.clone());

        for assign in [
            NodeAssignment([4, 2, 3, 2, 2, 3, 2]),
            NodeAssignment([2, 1, 4, 1, 2, 1, 3]),
        ] {
            let out =
                ParallelStap::for_scenario(params.clone(), assign, &scenario).run(cpis.clone());
            for (i, (a, b)) in out.detections.iter().zip(&baseline.detections).enumerate() {
                assert_eq!(a.len(), b.len(), "assignment {assign:?} CPI {i}");
                for (x, y) in a.iter().zip(b) {
                    assert_eq!((x.bin, x.beam, x.range), (y.bin, y.beam, y.range));
                }
            }
        }
    }

    #[test]
    fn multi_azimuth_streams_work() {
        let params = StapParams::reduced();
        let mut scenario = Scenario::reduced(9);
        scenario.transmit_beams = vec![-20.0, 0.0, 20.0];
        let cpis: Vec<CCube> = scenario.stream(7).map(|(_, _, c)| c).collect();

        let mut seq = SequentialStap::for_scenario(params.clone(), &scenario);
        let want: Vec<usize> = cpis
            .iter()
            .enumerate()
            .map(|(i, c)| seq.process_cpi(i % 3, c).detections.len())
            .collect();

        let par = ParallelStap::for_scenario(params, NodeAssignment::tiny(), &scenario);
        let got = par.run(cpis);
        let got_counts: Vec<usize> = got.detections.iter().map(|d| d.len()).collect();
        assert_eq!(got_counts, want);
    }

    #[test]
    fn timings_are_populated() {
        let params = StapParams::reduced();
        let scenario = Scenario::reduced(3);
        let cpis: Vec<CCube> = scenario.stream(6).map(|(_, _, c)| c).collect();
        let par = ParallelStap::for_scenario(params, NodeAssignment::tiny(), &scenario);
        let out = par.run(cpis);
        for t in 0..7 {
            assert!(
                out.timings.tasks[t].comp > 0.0,
                "task {t} compute time missing"
            );
        }
        assert!(out.timings.measured_throughput > 0.0);
        assert!(out.timings.measured_latency > 0.0);
    }
}

#[cfg(test)]
mod failure_tests {
    use super::*;

    /// A wrong-shape CPI cube must be rejected with a descriptive error
    /// before any rank thread is spawned — not surface as a worker
    /// panic deep inside the Doppler task.
    #[test]
    fn invalid_cube_shape_is_rejected_before_spawn() {
        let params = StapParams::reduced();
        let scenario = Scenario::reduced(1);
        let bad = CCube::zeros([8, 2, 4]);
        let par = ParallelStap::for_scenario(params, NodeAssignment::tiny(), &scenario);
        match par.try_run(vec![bad]) {
            Err(PipelineError::InvalidInput(msg)) => {
                assert!(msg.contains("CPI 0"), "unhelpful message: {msg}");
                assert!(msg.contains("[8, 2, 4]"), "missing got-shape: {msg}");
            }
            Err(other) => panic!("expected InvalidInput, got {other}"),
            Ok(_) => panic!("expected InvalidInput, got output"),
        }
        // The panicking `run` wrapper surfaces the same message.
        assert!(par.try_run(Vec::new()).is_err());
    }

    /// A panicking rank must surface as a panic from `run` (and an
    /// `Err` from `try_run`), not a silent hang: the liveness counter in
    /// stap-mp turns the dead rank into `Disconnected` errors on its
    /// peers, and the join layer converts the panic into a
    /// `WorldError` naming the rank.
    #[test]
    #[should_panic(expected = "panicked")]
    fn rank_panic_propagates_not_hangs() {
        let params = StapParams::reduced();
        let scenario = Scenario::reduced(1);
        let cpis: Vec<CCube> = scenario.stream(2).map(|(_, _, c)| c).collect();
        let par = ParallelStap::for_scenario(params, NodeAssignment::tiny(), &scenario)
            .with_faults(stap_mp::FaultPlan::seeded(11).panic_rank(0, 0));
        let _ = par.run(cpis);
    }
}
