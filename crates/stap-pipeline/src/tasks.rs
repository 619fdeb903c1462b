//! The per-rank loop and the driver loop every pipeline run executes.
//!
//! Batch runs ([`crate::runner::ParallelStap`]) and resident sessions
//! ([`crate::resident::ResidentStap`]) share this code: a batch CPI is
//! a one-member slot (stream 0, `scpi` = CPI index), a resident slot
//! coalesces up to `max_group` CPIs of any streams. Each of the seven
//! tasks is a [`Stage`] (see the `stages` module) that supplies only its
//! input sources, how a received block is placed, its compute and its
//! outputs. [`run_node`] owns everything else for every stage:
//!
//! * the fault checkpoint and mailbox sampling at the top of each slot;
//! * the receive — fail-fast blocking when fault tolerance is off;
//!   deadline, retry, seq check and quarantine under
//!   [`RuntimePolicy::fault_tolerant`];
//! * `Dropped` propagation, the end-of-slot purge and pool retirement;
//! * phase timing, busy time and the optional trace span;
//! * the end of the run: a batch run stops after its CPI count (it
//!   sends no `Shutdown`), a resident session unwinds on the `Shutdown`
//!   cascade the driver starts once its jobs channel closes.
//!
//! [`drive`] is the driver rank for both kinds of run, over a slot
//! source ([`Feed`]: the batch CPI list or the resident jobs channel)
//! and a completion sink ([`Sink`]: a [`DriverResult`] or `CpiDone`s).
//!
//! Senders pack and receivers assemble; both sides compute the *same*
//! deterministic index lists from the shared parameters and partitions,
//! so no index metadata travels on the wire. All sends are
//! asynchronous; receives block with (source, tag) matching, and the
//! tag carries the slot index so successive slots never cross-match.
//!
//! # Steady-state allocation discipline
//!
//! Every cube that travels an edge is drawn from the shared
//! [`PipelinePools`] and retired by its receiver, and every per-slot
//! workspace is built once per group size, so after warmup the hot
//! path allocates only the small weight matrices and detection lists.
#![deny(clippy::unwrap_used)]

use crate::assignment::{CFAR, DOPPLER};
use crate::fault::{payload_is_finite, RuntimePolicy};
use crate::metrics::{CpiOutcome, PipelineHealth, TaskTiming};
use crate::msg::{cpi_of_tag, edge_of_tag, tag, Edge, Msg, Payload, SubCpi, EDGE_NAMES};
use crate::resident::{CpiDone, CpiJob, ResidentState};
use crate::runner::DriverResult;
use crate::stages::TaskState;
use stap_core::params::StapParams;
use stap_core::Detection;
use stap_cube::{CCube, SharedBufferPool};
use stap_math::{CMat, Cx};
use stap_mp::{Comm, RecvError, Tag};
use std::collections::VecDeque;
use std::ops::Deref;
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Process-wide recycling pools for redistribution message buffers.
/// One instance is shared (by reference) across every node thread of a
/// pipeline run; senders draw packing buffers, receivers retire consumed
/// messages, and the global balance keeps the steady state allocation
/// free.
#[derive(Clone, Default)]
pub struct PipelinePools {
    /// Complex blocks: driver input slabs, Doppler and beamform edges.
    pub cx: SharedBufferPool<Cx>,
    /// Real blocks: the pulse compression to CFAR edge.
    pub real: SharedBufferPool<f64>,
}

/// Shared, read-only context every rank of a run gets.
pub(crate) struct TaskCtx<'a> {
    pub params: &'a StapParams,
    pub assign: &'a crate::assignment::NodeAssignment,
    pub parts: &'a crate::assignment::Partitions,
    /// Steering matrix (`J x M`) per transmit-beam position.
    pub steering: &'a [CMat],
    pub pools: &'a PipelinePools,
    pub policy: &'a RuntimePolicy,
    /// A batch run's CPI count; `None` for a resident session, which
    /// ends on the `Shutdown` cascade instead.
    pub limit: Option<usize>,
    /// Largest slot group the driver accepts.
    pub max_group: usize,
    /// Per-sub non-finite screening at the CFAR boundary (serving).
    pub screen: bool,
    /// Cross-session state the stateful stages start from.
    pub carry: &'a ResidentState,
    /// Trace epoch when span tracing is on; `None` (the default) keeps
    /// the loops off the traced path — no span allocation.
    pub epoch: Option<Instant>,
}

impl TaskCtx<'_> {
    /// Transmit-beam positions in the revisit cycle.
    pub fn beams(&self) -> usize {
        self.steering.len()
    }

    /// First rank of task `t`.
    pub fn rank0(&self, t: usize) -> usize {
        self.assign.rank_range(t).start
    }

    /// Whether a message tagged `target` is ever sent: a batch run
    /// skips targets at or beyond its CPI count (weights for CPIs that
    /// never come).
    fn live(&self, target: usize) -> bool {
        self.limit.is_none_or(|n| target < n)
    }
}

/// What a task's loop hands back: per-CPI phase times plus the node's
/// fault-tolerance counters.
#[derive(Debug, Default)]
pub struct TaskReport {
    /// Per-CPI phase timings (batch runs only; a resident session keeps
    /// no per-slot vectors).
    pub timings: Vec<TaskTiming>,
    /// This node's health counters (all zero without faults).
    pub health: PipelineHealth,
    /// Per-CPI spans (empty unless the run was traced; `Vec::new` does
    /// not allocate, so the untraced path stays allocation-free).
    pub spans: Vec<crate::trace::TaskSpan>,
}

impl TaskReport {
    /// Records one CPI's phase timing, and — when `epoch` is set — the
    /// corresponding absolute span (phase boundaries reconstructed from
    /// the cumulative phase durations; inter-phase gaps on a node are
    /// nanoseconds).
    fn push_cpi(&mut self, epoch: Option<Instant>, cpi: usize, started: Instant, t: TaskTiming) {
        if let Some(e) = epoch {
            let start = started.duration_since(e).as_secs_f64();
            self.spans.push(crate::trace::TaskSpan {
                cpi,
                start,
                recv_end: start + t.recv,
                comp_end: start + t.recv + t.comp,
                send_end: start + t.recv + t.comp + t.send,
            });
        }
        self.timings.push(t);
    }
}

/// What one task rank hands back when its loop exits.
pub(crate) struct TaskExit {
    pub report: TaskReport,
    /// Receive-unpack, compute and send seconds, excluding blocked
    /// receives (the elastic scheduler's bottleneck signal).
    pub busy: f64,
    /// The stage's exported cross-slot state.
    pub state: TaskState,
}

/// Outcome of one fault-aware edge receive.
pub(crate) enum Recvd {
    /// Healthy payload plus the sender's degraded flag.
    Data(Payload, bool),
    /// The input is gone: explicit drop marker, deadline overrun after
    /// retries, a dead peer, or a quarantined (non-finite) payload.
    Gone,
}

/// One receive on edge-tag `t` for slot `seq` under `policy`; `None`
/// when the input is gone (see [`Recvd::Gone`]).
///
/// Without fault tolerance this is the plain blocking receive, and a
/// vanished peer panics with a message naming rank, peer and edge (the
/// `Disconnected` in it is what lets the world join attribute cascade
/// failures to their root). The fault-tolerant path enforces `timeout`
/// per attempt with `policy.max_retries` retries, discards messages
/// whose `seq` does not match (late/duplicate deliveries), and screens
/// payloads for non-finite values.
fn recv_edge(
    comm: &mut Comm<Msg>,
    src: usize,
    t: Tag,
    seq: usize,
    policy: &RuntimePolicy,
    timeout: Duration,
    health: &mut PipelineHealth,
) -> Option<Msg> {
    let e = edge_of_tag(t);
    if !policy.fault_tolerant {
        let m = match comm.recv(src, t) {
            Ok(m) => m,
            Err(err) => panic!(
                "rank {} lost peer {src} on edge {}: {err:?}",
                comm.rank(),
                EDGE_NAMES[e]
            ),
        };
        debug_assert_eq!(m.seq as usize, seq, "tag/seq mismatch on edge {e}");
        return (!matches!(m.payload, Payload::Dropped)).then_some(m);
    }
    let mut retries = 0u32;
    loop {
        match comm.recv_timeout(src, t, timeout) {
            Ok(m) => {
                if m.seq as usize != seq {
                    // A late or duplicated CPI matched this tag (possible
                    // only under injection); discard and keep waiting.
                    health.edges[e].late_or_dup += 1;
                    continue;
                }
                if matches!(m.payload, Payload::Dropped) {
                    return None;
                }
                if policy.screen_nonfinite && !payload_is_finite(&m.payload) {
                    health.edges[e].quarantined += 1;
                    return None;
                }
                return Some(m);
            }
            Err(RecvError::Timeout) if retries < policy.max_retries => {
                retries += 1;
                health.edges[e].retries += 1;
            }
            Err(_) => {
                health.edges[e].dropped += 1;
                return None;
            }
        }
    }
}

/// [`recv_edge`] as a [`Recvd`], for callers that need no slot group.
pub(crate) fn recv_msg(
    comm: &mut Comm<Msg>,
    src: usize,
    t: Tag,
    cpi: usize,
    policy: &RuntimePolicy,
    timeout: Duration,
    health: &mut PipelineHealth,
) -> Recvd {
    match recv_edge(comm, src, t, cpi, policy, timeout, health) {
        Some(m) => Recvd::Data(m.payload, m.degraded),
        None => Recvd::Gone,
    }
}

/// End-of-slot hygiene for fault-tolerant loops: discards every
/// buffered message belonging to slot `cpi` or earlier — late
/// deliveries the loop gave up on, and duplicate copies of messages
/// already consumed — attributing the discards to their edges. Without
/// this the unexpected-message queue would grow for the rest of the run.
pub(crate) fn purge_late(comm: &mut Comm<Msg>, cpi: usize, health: &mut PipelineHealth) {
    let edges = &mut health.edges;
    comm.purge_pending(|_, t| {
        if cpi_of_tag(t) <= cpi {
            edges[edge_of_tag(t)].late_or_dup += 1;
            false
        } else {
            true
        }
    });
}

/// Samples the receiver-side mailbox and max-merges the currently
/// buffered per-edge depths into `health.max_mailbox_depth`. Called once
/// per slot at the top of each loop: one inbox drain plus a bucket
/// walk, no allocation, so the zero-alloc steady state is preserved.
pub(crate) fn sample_mailbox(comm: &mut Comm<Msg>, health: &mut PipelineHealth) {
    let mut depth = [0u64; crate::msg::NUM_EDGES];
    comm.pending_counts(|_, t, n| {
        let e = edge_of_tag(t);
        if e < depth.len() {
            depth[e] += n as u64;
        }
    });
    for (a, b) in health.max_mailbox_depth.iter_mut().zip(depth) {
        *a = (*a).max(b);
    }
}

/// The member CPIs of one slot, in axis-0 concatenation order. Batch
/// messages carry no group on the wire: the slot is implied to be CPI
/// `seq` of stream 0 alone.
#[derive(Clone)]
pub(crate) enum Group {
    Implied([SubCpi; 1]),
    Shared(Arc<[SubCpi]>),
}

impl Group {
    /// The group a message carries, or the implied batch member.
    pub fn of(wire: Option<Arc<[SubCpi]>>, scpi: usize) -> Group {
        match wire {
            Some(g) => Group::Shared(g),
            None => Group::Implied([SubCpi {
                stream: 0,
                scpi: scpi as u32,
            }]),
        }
    }

    /// What goes on the wire: nothing for an implied batch slot.
    fn wire(&self) -> Option<Arc<[SubCpi]>> {
        match self {
            Group::Implied(_) => None,
            Group::Shared(g) => Some(g.clone()),
        }
    }
}

impl Deref for Group {
    type Target = [SubCpi];

    fn deref(&self) -> &[SubCpi] {
        match self {
            Group::Implied(g) => g,
            Group::Shared(g) => g,
        }
    }
}

/// Receive handle a stage gets during the receive phase: every call
/// counts as blocked (idle) time.
pub(crate) struct Rx<'a> {
    comm: &'a mut Comm<Msg>,
    pub health: &'a mut PipelineHealth,
    pub policy: &'a RuntimePolicy,
    idle: f64,
}

impl Rx<'_> {
    /// One receive of `edge` tagged `seq` from `src`; `None` when the
    /// input is gone.
    pub fn recv(&mut self, src: usize, edge: Edge, seq: usize, timeout: Duration) -> Option<Msg> {
        let t = Instant::now();
        let m = recv_edge(
            self.comm,
            src,
            tag(edge, seq),
            seq,
            self.policy,
            timeout,
            self.health,
        );
        self.idle += t.elapsed().as_secs_f64();
        m
    }
}

/// Send handle a stage gets during the send phase: stamps every message
/// with the slot's tag, group and degraded flag.
pub(crate) struct Tx<'a> {
    comm: &'a mut Comm<Msg>,
    seq: usize,
    pub group: &'a Group,
    degraded: bool,
}

impl Tx<'_> {
    /// Sends `payload` to `dst` on `edge`.
    pub fn send(&mut self, dst: usize, edge: Edge, payload: Payload) {
        let msg = Msg {
            seq: self.seq as u32,
            degraded: self.degraded,
            group: self.group.wire(),
            payload,
        };
        self.comm.send(dst, tag(edge, self.seq), msg);
    }

    /// Packs a cube with `pack` and sends it, attributed as a
    /// `Redistribute` span (pack + enqueue) when tracing is on: Doppler's
    /// "data collection and reorganization" is the redistribution step
    /// the paper singles out, so the trace shows its per-edge cost.
    pub fn redistribute(&mut self, dst: usize, edge: Edge, pack: impl FnOnce() -> CCube) {
        let t0 = self.comm.trace_now();
        let block = pack();
        let bytes = 8 * block.len() as u64;
        self.send(dst, edge, Payload::Cube(block));
        self.comm
            .trace_redistribute(dst, tag(edge, self.seq), bytes, t0);
    }
}

/// One pipeline task as the loop sees it. Inputs and outputs are
/// declared on the [`Node`]; the stage only places, computes and sends.
pub(crate) trait Stage {
    /// Places the payload received on input `i` for `group` (receive
    /// phase; retires the message buffer to the pool).
    fn place(&mut self, i: usize, group: &Group, payload: Payload);

    /// Receives beyond the per-slot inputs (the beamformers' weight
    /// edges), after every input arrived.
    fn recv_more(&mut self, _rx: &mut Rx, _slot: usize, _group: &Group) {}

    /// Computes the slot; true when the output is degraded.
    fn compute(&mut self, group: &Group) -> bool;

    /// Packs and sends the slot's outputs.
    fn send(&mut self, tx: &mut Tx);

    /// Final receives when the `Shutdown` cascade reaches slot `slot`.
    fn shutdown(&mut self, _rx: &mut Rx, _slot: usize) {}

    /// The cross-slot state at exit.
    fn export(self) -> TaskState
    where
        Self: Sized,
    {
        TaskState::Stateless
    }
}

/// A stage plus its declared edges.
pub(crate) struct Node<S> {
    /// `(source rank, edge)` received once per slot, in order.
    pub inputs: Vec<(usize, Edge)>,
    /// `(destination rank, edge)` written once per slot; `Dropped` and
    /// `Shutdown` markers go to every one.
    pub outputs: Vec<(usize, Edge)>,
    /// Tag offset of the outputs: the weight tasks tag weights computed
    /// in slot `s` for slot `s + beams`, the CPI they apply to.
    pub lag: usize,
    pub stage: S,
}

/// The per-rank loop shared by every stage of every run.
pub(crate) fn run_node<S: Stage>(ctx: &TaskCtx, comm: &mut Comm<Msg>, node: Node<S>) -> TaskExit {
    let Node {
        inputs,
        outputs,
        lag,
        mut stage,
    } = node;
    let policy = ctx.policy;
    let mut report = TaskReport {
        timings: Vec::with_capacity(ctx.limit.unwrap_or(0)),
        ..TaskReport::default()
    };
    let mut busy = 0.0f64;
    let mut slot = 0usize;
    while ctx.limit.is_none_or(|n| slot < n) {
        comm.fault_checkpoint(slot as u64);
        sample_mailbox(comm, &mut report.health);
        // --- receive ---------------------------------------------------
        let started = Instant::now();
        let mut rx = Rx {
            comm,
            health: &mut report.health,
            policy,
            idle: 0.0,
        };
        let mut group: Option<Group> = None;
        let (mut lost, mut shutdown, mut degraded) = (false, false, false);
        for (i, &(src, edge)) in inputs.iter().enumerate() {
            let Some(m) = rx.recv(src, edge, slot, policy.edge_timeout) else {
                lost = true;
                continue;
            };
            if matches!(m.payload, Payload::Shutdown) {
                shutdown = true;
                continue;
            }
            degraded |= m.degraded;
            let g = group.get_or_insert_with(|| Group::of(m.group, slot));
            stage.place(i, g, m.payload);
        }
        if shutdown {
            stage.shutdown(&mut rx, slot);
            for &(dst, edge) in &outputs {
                comm.send(
                    dst,
                    tag(edge, slot + lag),
                    Msg::new(slot + lag, Payload::Shutdown),
                );
            }
            break;
        }
        let target = slot + lag;
        let secs = |t: Instant| t.elapsed().as_secs_f64();
        let mut t = TaskTiming::default();
        match group.filter(|_| !lost) {
            Some(group) => {
                stage.recv_more(&mut rx, slot, &group);
                (t.recv, t.recv_idle) = (secs(started), rx.idle);
                // --- compute -----------------------------------------------
                let t1 = Instant::now();
                degraded |= stage.compute(&group);
                t.comp = secs(t1);
                // --- send --------------------------------------------------
                let t2 = Instant::now();
                if ctx.live(target) {
                    stage.send(&mut Tx {
                        comm,
                        seq: target,
                        group: &group,
                        degraded,
                    });
                }
                t.send = secs(t2);
            }
            None => {
                // An input is gone: the slot's assembly would mix CPIs,
                // so drop it downstream and keep draining.
                (t.recv, t.recv_idle) = (secs(started), rx.idle);
                if ctx.live(target) {
                    for &(dst, edge) in &outputs {
                        comm.send(dst, tag(edge, target), Msg::dropped(target));
                    }
                }
            }
        }
        busy += t.total_without_idle();
        if ctx.limit.is_some() {
            report.push_cpi(ctx.epoch, slot, started, t);
        }
        if policy.fault_tolerant {
            purge_late(comm, slot, &mut report.health);
        }
        slot += 1;
    }
    report.health.mailbox_over_high_water = comm.mailbox_stats().over_high_water;
    TaskExit {
        report,
        busy,
        state: stage.export(),
    }
}

/// Where the driver's slots come from.
pub(crate) enum Feed<'a> {
    /// A batch run's CPI list: slot `s` is CPI `s` alone.
    Cpis(&'a [CCube]),
    /// A resident session's jobs channel: each received group is one
    /// slot; the session ends when the channel disconnects.
    Jobs(Receiver<Vec<CpiJob>>),
}

/// Where the driver's completed slots go.
pub(crate) enum Sink<'a> {
    /// A batch run's per-CPI record.
    Batch(&'a mut DriverResult),
    /// A resident session's completion channel.
    Done(Sender<CpiDone>),
}

/// The driver rank: windowed slot injection from `feed`, completion
/// collection into `sink`, and — for a resident session — the shutdown
/// cascade once the feed closes. Returns the driver's health plus the
/// CPIs and slots it completed.
pub(crate) fn drive(
    ctx: &TaskCtx,
    comm: &mut Comm<Msg>,
    window: usize,
    mut feed: Feed,
    mut sink: Sink,
) -> (PipelineHealth, u64, u64) {
    let policy = ctx.policy;
    let cfar_ranks: Vec<usize> = ctx.assign.rank_range(CFAR).collect();
    // Under tracing the driver clock shares the trace epoch so CPI
    // marks line up with the spans.
    let t0 = ctx.epoch.unwrap_or_else(Instant::now);
    let mut inflight: VecDeque<(Group, Vec<Instant>)> = VecDeque::with_capacity(window);
    let mut health = PipelineHealth::default();
    let (mut next, mut done, mut cpis) = (0usize, 0usize, 0u64);
    let mut open = true;
    loop {
        comm.fault_checkpoint(done as u64);
        // Fill the window. A resident driver blocks for a job only when
        // nothing is in flight; otherwise it prefers draining.
        while open && next - done < window {
            let (group, stamps) = match &mut feed {
                Feed::Cpis(cubes) => {
                    let Some(cube) = cubes.get(next) else {
                        open = false;
                        break;
                    };
                    let now = Instant::now();
                    let group = Group::of(None, next);
                    inject(ctx, comm, next, &group, [cube]);
                    (group, vec![now])
                }
                Feed::Jobs(jobs) => {
                    let got = if next == done {
                        jobs.recv().map_err(|_| TryRecvError::Disconnected)
                    } else {
                        jobs.try_recv()
                    };
                    let batch = match got {
                        Ok(b) => b,
                        Err(TryRecvError::Empty) => break,
                        Err(TryRecvError::Disconnected) => {
                            open = false;
                            break;
                        }
                    };
                    if batch.is_empty() {
                        continue;
                    }
                    assert!(
                        batch.len() <= ctx.max_group,
                        "slot group of {} exceeds max_group {}",
                        batch.len(),
                        ctx.max_group
                    );
                    let members: Arc<[SubCpi]> = batch
                        .iter()
                        .map(|j| SubCpi {
                            stream: j.stream,
                            scpi: j.scpi,
                        })
                        .collect();
                    let group = Group::Shared(members);
                    inject(ctx, comm, next, &group, batch.iter().map(|j| &j.cube));
                    let stamps = batch.iter().map(|j| j.submitted).collect();
                    for job in batch {
                        ctx.pools.cx.recycle(job.cube);
                    }
                    (group, stamps)
                }
            };
            inflight.push_back((group, stamps));
            next += 1;
        }
        let Some((group, stamps)) = inflight.pop_front() else {
            break;
        };
        // Collect the oldest slot from every CFAR node.
        sample_mailbox(comm, &mut health);
        let b = group.len();
        let mut per_sub: Vec<Vec<Detection>> = (0..b).map(|_| Vec::new()).collect();
        let mut bad = vec![false; b];
        let mut lost = false;
        for &src in &cfar_ranks {
            let t = tag(Edge::Output, done);
            let (lists, mask, deg) =
                match recv_msg(comm, src, t, done, policy, policy.edge_timeout, &mut health) {
                    Recvd::Data(Payload::Detections(d), deg) => (vec![d], Vec::new(), deg),
                    Recvd::Data(Payload::DetectionsGroup(gs, mask), deg) => (gs, mask, deg),
                    Recvd::Data(other, _) => panic!("driver: expected detections, got {other:?}"),
                    Recvd::Gone => {
                        lost = true;
                        continue;
                    }
                };
            for (acc, ds) in per_sub.iter_mut().zip(lists) {
                acc.extend(ds);
            }
            for (flag, m) in bad.iter_mut().zip(mask) {
                *flag |= m;
            }
            if deg {
                bad.iter_mut().for_each(|f| *f = true);
            }
        }
        for ds in &mut per_sub {
            if lost {
                ds.clear();
            }
            ds.sort_by_key(|d| (d.bin, d.beam, d.range));
        }
        let now = Instant::now();
        match &mut sink {
            Sink::Batch(r) => {
                let secs = |i: Instant| i.duration_since(t0).as_secs_f64();
                r.inject_t.extend(stamps.first().map(|&i| secs(i)));
                r.complete_t.push(secs(now));
                r.outcomes.push(if lost {
                    CpiOutcome::Dropped
                } else if bad.iter().any(|&x| x) {
                    CpiOutcome::DegradedStaleWeights
                } else {
                    CpiOutcome::Ok
                });
                r.detections.extend(per_sub);
            }
            Sink::Done(tx) => {
                for ((sub, ds), (&at, &deg)) in
                    group.iter().zip(per_sub).zip(stamps.iter().zip(&bad))
                {
                    let degraded = deg || lost;
                    health.degraded_cpis += degraded as u64;
                    // A closed `done` receiver is fine: keep draining.
                    let _ = tx.send(CpiDone {
                        stream: sub.stream,
                        scpi: sub.scpi,
                        detections: ds,
                        latency: now.duration_since(at).as_secs_f64(),
                        degraded,
                    });
                }
            }
        }
        if policy.fault_tolerant {
            purge_late(comm, done, &mut health);
        }
        cpis += b as u64;
        done += 1;
    }
    if let Feed::Jobs(_) = feed {
        // Every slot drained: cascade the shutdown from the input edge.
        for dst in ctx.assign.rank_range(DOPPLER) {
            comm.send(
                dst,
                tag(Edge::Input, next),
                Msg::new(next, Payload::Shutdown),
            );
        }
    }
    health.mailbox_over_high_water = comm.mailbox_stats().over_high_water;
    (health, cpis, next as u64)
}

/// Sends slot `slot`'s input: per Doppler node, the concatenation of
/// every member cube's range rows (axis 0 is the slowest axis, so each
/// member's k-slab is one contiguous slice copy).
fn inject<'c>(
    ctx: &TaskCtx,
    comm: &mut Comm<Msg>,
    slot: usize,
    group: &Group,
    cubes: impl IntoIterator<Item = &'c CCube> + Clone,
) {
    let p = ctx.params;
    let row = p.j_channels * p.n_pulses;
    let b = group.len();
    for (pn, kr) in ctx.parts.doppler_k.iter().enumerate() {
        // Input slabs come from the shared pool; the Doppler nodes
        // retire them after use.
        let mut buf = ctx.pools.cx.get(b * kr.len() * row);
        for cube in cubes.clone() {
            buf.extend_from_slice(&cube.as_slice()[kr.start * row..kr.end * row]);
        }
        let slab = CCube::from_vec([b * kr.len(), p.j_channels, p.n_pulses], buf);
        Tx {
            comm,
            seq: slot,
            group,
            degraded: false,
        }
        .send(ctx.rank0(DOPPLER) + pn, Edge::Input, Payload::Cube(slab));
    }
}

#[cfg(test)]
mod seq_tests {
    use super::*;
    use stap_mp::World;

    fn det_msg(cpi: usize) -> Msg {
        Msg::new(cpi, Payload::Detections(Vec::new()))
    }

    /// A message whose `seq` disagrees with the CPI being assembled
    /// (a late or duplicated delivery that landed on a reused tag) is
    /// discarded and counted, and the receive keeps waiting for the
    /// real message.
    #[test]
    fn out_of_order_seq_is_discarded_then_real_message_received() {
        let world: World<Msg> = World::new(2);
        let policy = RuntimePolicy::fault_tolerant();
        let counts = world.run_collect(move |mut comm| {
            if comm.rank() == 0 {
                // A stale CPI-4 message mislabeled onto CPI 5's tag,
                // then the genuine CPI-5 message.
                comm.send(
                    1,
                    tag(Edge::Input, 5),
                    Msg::flagged(4, false, Payload::Detections(Vec::new())),
                );
                comm.send(1, tag(Edge::Input, 5), det_msg(5));
                0
            } else {
                let mut health = PipelineHealth::default();
                let got = recv_msg(
                    &mut comm,
                    0,
                    tag(Edge::Input, 5),
                    5,
                    &policy,
                    Duration::from_secs(2),
                    &mut health,
                );
                assert!(matches!(got, Recvd::Data(Payload::Detections(_), false)));
                health.edges[Edge::Input as usize].late_or_dup
            }
        });
        assert_eq!(counts[1], 1, "stale seq not counted");
    }

    /// Duplicated or late messages left in the mailbox are shed by the
    /// end-of-CPI purge; messages for future CPIs survive it.
    #[test]
    fn purge_discards_current_and_earlier_cpis_only() {
        let world: World<Msg> = World::new(2);
        let policy = RuntimePolicy::fault_tolerant();
        let results = world.run_collect(move |mut comm| {
            if comm.rank() == 0 {
                comm.send(1, tag(Edge::Input, 0), det_msg(0)); // duplicate of a consumed CPI
                comm.send(1, tag(Edge::Input, 1), det_msg(1)); // late for the current CPI
                comm.send(1, tag(Edge::Input, 2), det_msg(2)); // next CPI: must survive
                (0, true)
            } else {
                let mut health = PipelineHealth::default();
                // Give all three sends time to land in the mailbox.
                std::thread::sleep(Duration::from_millis(50));
                purge_late(&mut comm, 1, &mut health);
                // CPI 2 must still be receivable after the purge.
                let got = recv_msg(
                    &mut comm,
                    0,
                    tag(Edge::Input, 2),
                    2,
                    &policy,
                    Duration::from_secs(2),
                    &mut health,
                );
                let survived = matches!(got, Recvd::Data(Payload::Detections(_), _));
                (health.edges[Edge::Input as usize].late_or_dup, survived)
            }
        });
        let (purged, survived) = results[1];
        assert!(purged >= 1, "nothing was purged");
        assert!(survived, "future CPI was wrongly purged");
    }
}
