//! The seven pipeline tasks, each written once as a [`Stage`] in the
//! grouped form: a slot carries one or more member CPIs concatenated
//! along axis 0 of every cube (a batch slot has exactly one), and the
//! kernels run once per slot over all members
//! (`DopplerProcessor::process_groups_with` batches the FFT lanes of
//! the whole group through one `forward_lanes` call).
//!
//! Batching across streams is bit-exact with per-stream serial runs
//! because all per-CPI state is keyed by *stream*:
//!
//! * azimuth revisit: `beam = scpi % beams` uses the per-stream CPI
//!   index, not the slot index;
//! * easy-weight history rings are keyed `(stream, beam, bin)`;
//! * hard-weight QR recursion state is keyed `(stream, beam, bin, seg)`;
//! * the beamform tasks keep weight FIFOs keyed `(stream, beam, bin)`.
//!
//! Bins are global indices, so the state exports to
//! [`crate::resident::ResidentState`] and re-partitions under another
//! node assignment without rebasing.
//!
//! The weight hand-off keeps the weight tasks off the latency path
//! (paper Fig. 4, TD(1,3)/TD(2,4)): weights computed in slot `s` are
//! tagged for slot `s + beams`. At slot `s` a beamformer first receives
//! every weight message tagged `<= s` into its FIFOs, then receives
//! later ones only while some member's FIFO is still empty — which
//! happens only when one slot packs CPIs of one stream fewer than
//! `beams` apart. Popping the front of `fifo[(stream, scpi % beams, bin)]`
//! therefore yields exactly the weights computed from
//! `(stream, scpi - beams)`; a lost weight message pushes a stale
//! placeholder, so FIFO order holds and the beamformer falls back to
//! the last good weights for that azimuth.
//!
//! Senders pack exactly the matrices `stap_core` builds, in the same
//! element order, and call the same kernels, so the pipeline stays
//! bitwise identical to the sequential reference.
#![deny(clippy::unwrap_used)]

use crate::assignment::{overlap, NodeAssignment, Partitions};
use crate::assignment::{CFAR, DOPPLER, EASY_BF, EASY_WT, HARD_BF, HARD_WT, PC};
use crate::msg::{Edge, Msg, Payload, SubCpi};
use crate::tasks::{run_node, Group, Node, Rx, Stage, TaskCtx, TaskExit, Tx};
use stap_core::params::StapParams;
use stap_core::training::{easy_training_cells, hard_training_cells};
use stap_core::weights::{hard_constraint, mean_abs, EasyWeightComputer, HardWeightComputer};
use stap_core::{
    cfar,
    doppler::DopplerProcessor,
    pulse::{PulseCompressor, PulseScratch},
    Detection,
};
use stap_cube::{CCube, Cube, RCube, SharedBufferPool};
use stap_math::fft::FftScratch;
use stap_math::qr::qr_update;
use stap_math::solve::{constrained_lstsq, constrained_lstsq_from_r};
use stap_math::{CMat, Cx};
use stap_mp::Comm;
use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::ops::Range;

/// The node-local slice of [`crate::resident::ResidentState`], keyed by
/// global bin.
pub(crate) enum TaskState {
    Stateless,
    EasyWt(HashMap<(u16, usize, usize), VecDeque<CMat>>),
    HardWt(HashMap<(u16, usize, usize, usize), CMat>),
    EasyBf(HashMap<(u16, usize, usize), VecDeque<CMat>>),
    HardBf(HashMap<(u16, usize, usize), VecDeque<Vec<CMat>>>),
}

/// Runs local node `local` of task `task` to completion.
pub(crate) fn run_task(ctx: &TaskCtx, comm: &mut Comm<Msg>, task: usize, local: usize) -> TaskExit {
    match task {
        DOPPLER => run_node(ctx, comm, Doppler::node(ctx, local)),
        EASY_WT => run_node(ctx, comm, Weight::node(ctx, local, false)),
        HARD_WT => run_node(ctx, comm, Weight::node(ctx, local, true)),
        EASY_BF => run_node(ctx, comm, Beamform::node(ctx, local, false)),
        HARD_BF => run_node(ctx, comm, Beamform::node(ctx, local, true)),
        PC => run_node(ctx, comm, Pulse::node(ctx, local)),
        CFAR => run_node(ctx, comm, Cfar::node(ctx, local)),
        _ => unreachable!("unknown task {task}"),
    }
}

/// Global training cells for easy weights that fall inside `krange`.
fn easy_cells_in(params: &StapParams, krange: &Range<usize>) -> Vec<usize> {
    easy_training_cells(params)
        .into_iter()
        .filter(|c| krange.contains(c))
        .collect()
}

/// Global training cells for hard segment `seg` inside `krange`.
fn hard_cells_in(params: &StapParams, seg: usize, krange: &Range<usize>) -> Vec<usize> {
    hard_training_cells(params, seg)
        .into_iter()
        .filter(|c| krange.contains(c))
        .collect()
}

fn expect_cube(p: Payload) -> CCube {
    match p {
        Payload::Cube(c) => c,
        other => panic!("expected Cube, got {other:?}"),
    }
}

fn expect_real(p: Payload) -> RCube {
    match p {
        Payload::Real(c) => c,
        other => panic!("expected Real, got {other:?}"),
    }
}

/// Every rank of task `t` on `edge`.
fn all_ranks(ctx: &TaskCtx, t: usize, edge: Edge) -> Vec<(usize, Edge)> {
    ctx.assign.rank_range(t).map(|r| (r, edge)).collect()
}

/// Nodes of a bin-partitioned task whose bins overlap `mine`, as
/// `(rank, overlap)` pairs.
fn overlapping(
    parts: &[Range<usize>],
    mine: &Range<usize>,
    rank0: usize,
) -> Vec<(usize, Range<usize>)> {
    parts
        .iter()
        .enumerate()
        .filter_map(|(q, r)| {
            let ov = overlap(r, mine);
            (!ov.is_empty()).then_some((rank0 + q, ov))
        })
        .collect()
}

/// Lazily-built per-group-size workspace cubes `[b * rows, d1, d2]`:
/// slot groups are usually at the steady-state size, but ramp-up and
/// the final tail slot can be smaller; each distinct size allocates its
/// workspace once and reuses it for the rest of the run.
struct ByGroup<T> {
    shape: [usize; 3],
    slots: Vec<Option<Cube<T>>>,
}

impl<T: Copy + Default> ByGroup<T> {
    fn new(shape: [usize; 3]) -> Self {
        ByGroup {
            shape,
            slots: Vec::new(),
        }
    }

    fn get(&mut self, b: usize) -> &mut Cube<T> {
        if self.slots.len() <= b {
            self.slots.resize_with(b + 1, || None);
        }
        let [r, d1, d2] = self.shape;
        self.slots[b].get_or_insert_with(|| Cube::zeros([b * r, d1, d2]))
    }
}

/// Gathers one grouped Doppler fan-out block without per-element
/// div/mod index math: the loops run in output row-major order
/// `(sub, bin, row, channel)`, so the hot path is pure pointer stepping.
fn gather_bins_block(
    pool: &SharedBufferPool<Cx>,
    stag: &CCube,
    b: usize,
    bins: &[usize],
    rows: &[usize],
    channels: usize,
) -> CCube {
    let nb = bins.len();
    let s = stag.as_slice();
    let [rows_all, cdim, n] = stag.shape();
    let (klen, row_stride) = (rows_all / b, cdim * n);
    let mut buf = pool.get(b * nb * rows.len() * channels);
    for u in 0..b {
        let sub0 = u * klen;
        for &bin in bins {
            for &row in rows {
                let base = (sub0 + row) * row_stride + bin;
                for ch in 0..channels {
                    buf.push(s[base + ch * n]);
                }
            }
        }
    }
    CCube::from_vec([b * nb, rows.len(), channels], buf)
}

/// Gathers whole `[d1, d2]` planes of `src` (the BF→PC and PC→CFAR
/// blocks keep their two inner axes intact): each output row is one
/// contiguous slice copy. `src_row(sub, o)` names the source plane for
/// output row `sub * out_rows + o`.
fn gather_plane_rows<T: Copy + Default>(
    pool: &SharedBufferPool<T>,
    src: &Cube<T>,
    b: usize,
    out_rows: usize,
    mut src_row: impl FnMut(usize, usize) -> usize,
) -> Cube<T> {
    let [_, d1, d2] = src.shape();
    let plane = d1 * d2;
    let s = src.as_slice();
    let mut buf = pool.get(b * out_rows * plane);
    for u in 0..b {
        for o in 0..out_rows {
            let r = src_row(u, o);
            buf.extend_from_slice(&s[r * plane..(r + 1) * plane]);
        }
    }
    Cube::from_vec([b * out_rows, d1, d2], buf)
}

/// Inverse of [`gather_plane_rows`]: copies each `[d1, d2]` plane of
/// the `b`-member `block` into `dst`, plane `o` of member `u` landing in
/// row `u * dst_rows + dst_row(o)`.
fn scatter_plane_rows<T: Copy + Default>(
    dst: &mut Cube<T>,
    dst_rows: usize,
    b: usize,
    block: &Cube<T>,
    dst_row: impl Fn(usize) -> usize,
) {
    let [rows, d1, d2] = block.shape();
    let (rows, plane) = (rows / b, d1 * d2);
    let (src, out) = (block.as_slice(), dst.as_mut_slice());
    for u in 0..b {
        for o in 0..rows {
            let (r, i) = (u * dst_rows + dst_row(o), u * rows + o);
            out[r * plane..(r + 1) * plane].copy_from_slice(&src[i * plane..(i + 1) * plane]);
        }
    }
}

/// This node's slice of carried state keyed `(stream, beam, bin, ..)`
/// by global bin: the entries whose bin falls in `bins`.
fn carried<K: Copy + Eq + Hash, V, W>(
    state: &HashMap<K, V>,
    bin: impl Fn(&K) -> usize,
    bins: &Range<usize>,
    f: impl Fn(&V) -> W,
) -> HashMap<K, W> {
    let mine = state.iter().filter(|(k, _)| bins.contains(&bin(k)));
    mine.map(|(k, v)| (*k, f(v))).collect()
}

/// One Doppler fan-out block: the destination and edge, the natural
/// bins it carries, the slab rows it gathers, and the channels per row
/// (J for the first stagger window, 2J for both).
struct Fanout {
    dst: usize,
    edge: Edge,
    bins: Vec<usize>,
    rows: Vec<usize>,
    channels: usize,
}

/// Doppler node `local`'s fan-out blocks in send order (the pools are
/// sized from the same lists).
fn fanout(
    p: &StapParams,
    parts: &Partitions,
    assign: &NodeAssignment,
    local: usize,
) -> Vec<Fanout> {
    use Edge::*;
    let my_k = parts.doppler_k[local].clone();
    let rows = |cells: Vec<usize>| -> Vec<usize> { cells.iter().map(|c| c - my_k.start).collect() };
    let easy_rows = rows(easy_cells_in(p, &my_k));
    let hard_cells = (0..p.num_segments()).flat_map(|s| hard_cells_in(p, s, &my_k));
    let hard_rows = rows(hard_cells.collect());
    let all_rows: Vec<usize> = (0..my_k.len()).collect();
    let (easy, hard, j) = (p.easy_bins(), p.hard_bins(), p.j_channels);
    let mut out = Vec::new();
    for (t, edge, bins, natural, rows, channels) in [
        (
            EASY_WT,
            DopplerToEasyWt,
            &parts.easy_wt_bins,
            &easy,
            &easy_rows,
            j,
        ),
        (
            HARD_WT,
            DopplerToHardWt,
            &parts.hard_wt_bins,
            &hard,
            &hard_rows,
            2 * j,
        ),
        (
            EASY_BF,
            DopplerToEasyBf,
            &parts.easy_bf_bins,
            &easy,
            &all_rows,
            j,
        ),
        (
            HARD_BF,
            DopplerToHardBf,
            &parts.hard_bf_bins,
            &hard,
            &all_rows,
            2 * j,
        ),
    ] {
        out.extend(bins.iter().enumerate().map(|(q, idx)| Fanout {
            dst: assign.rank_range(t).start + q,
            edge,
            bins: natural[idx.clone()].to_vec(),
            rows: rows.clone(),
            channels,
        }));
    }
    out
}

/// Each PC node's share of beamform node `bins_idx`: the bin indices
/// whose natural bin the PC node owns, ascending.
fn pc_shares(parts: &Partitions, natural: &[usize], bins_idx: &Range<usize>) -> Vec<Vec<usize>> {
    let share = |pc: &Range<usize>| {
        let mine = bins_idx.clone().filter(|&bn| pc.contains(&natural[bn]));
        mine.collect()
    };
    parts.pc_bins.iter().map(share).collect()
}

/// Element counts of every block a one-member slot moves: complex
/// (input slabs, Doppler fan-out, beamform output), then real (power).
/// A `b`-member slot's blocks are `b` times longer; the pools are
/// sized from these lists.
pub(crate) fn block_lens(
    p: &StapParams,
    parts: &Partitions,
    assign: &NodeAssignment,
) -> (Vec<usize>, Vec<usize>) {
    let plane = p.m_beams * p.k_range;
    let input = parts.doppler_k.iter();
    let mut cx: Vec<usize> = input
        .map(|kr| kr.len() * p.j_channels * p.n_pulses)
        .collect();
    for local in 0..parts.doppler_k.len() {
        for f in fanout(p, parts, assign, local) {
            cx.push(f.bins.len() * f.rows.len() * f.channels);
        }
    }
    let (easy, hard) = (p.easy_bins(), p.hard_bins());
    let bf = parts
        .easy_bf_bins
        .iter()
        .map(|idx| pc_shares(parts, &easy, idx));
    let bf = bf.chain(
        parts
            .hard_bf_bins
            .iter()
            .map(|idx| pc_shares(parts, &hard, idx)),
    );
    cx.extend(bf.flatten().map(|mine| mine.len() * plane));
    let mut real = Vec::new();
    for pc in &parts.pc_bins {
        for cf in &parts.cfar_bins {
            real.push(overlap(pc, cf).len() * plane);
        }
    }
    (cx, real)
}

/// Doppler filtering (task 0): one grouped slab in, one batched FFT
/// pass over the whole group, four grouped redistribution fan-outs.
struct Doppler<'a> {
    ctx: &'a TaskCtx<'a>,
    proc: DopplerProcessor,
    k0: usize,
    slab: Option<CCube>,
    stag: ByGroup<Cx>,
    fft: FftScratch,
    fanout: Vec<Fanout>,
}

impl<'a> Doppler<'a> {
    fn node(ctx: &'a TaskCtx<'a>, local: usize) -> Node<Self> {
        let p = ctx.params;
        let my_k = ctx.parts.doppler_k[local].clone();
        let fanout = fanout(p, ctx.parts, ctx.assign, local);
        Node {
            inputs: vec![(ctx.assign.driver_rank(), Edge::Input)],
            outputs: fanout.iter().map(|f| (f.dst, f.edge)).collect(),
            lag: 0,
            stage: Doppler {
                ctx,
                proc: DopplerProcessor::new(p),
                k0: my_k.start,
                slab: None,
                stag: ByGroup::new([my_k.len(), 2 * p.j_channels, p.n_pulses]),
                fft: FftScratch::new(),
                fanout,
            },
        }
    }
}

impl Stage for Doppler<'_> {
    fn place(&mut self, _i: usize, _group: &Group, payload: Payload) {
        self.slab = Some(expect_cube(payload));
    }

    fn compute(&mut self, group: &Group) -> bool {
        if let Some(slab) = self.slab.take() {
            let stag = self.stag.get(group.len());
            // The perf core: ALL group members' FFT lanes through one
            // batched forward pass.
            self.proc
                .process_groups_with(&slab, self.k0, group.len(), stag, &mut self.fft);
            self.ctx.pools.cx.recycle(slab);
        }
        false
    }

    fn send(&mut self, tx: &mut Tx) {
        let b = tx.group.len();
        let pool = &self.ctx.pools.cx;
        let stag: &CCube = self.stag.get(b);
        for f in &self.fanout {
            tx.redistribute(f.dst, f.edge, || {
                gather_bins_block(pool, stag, b, &f.bins, &f.rows, f.channels)
            });
        }
    }
}

/// Easy (task 1) and hard (task 2) weight computation, for every
/// member CPI of every slot. Snapshots are assembled per (member, bin,
/// range segment) — easy training is the one-segment case over the
/// first stagger window. Easy weights solve over history rings keyed
/// (stream, beam, bin); hard weights advance a QR recursion keyed
/// (stream, beam, bin, segment).
struct Weight<'a> {
    ctx: &'a TaskCtx<'a>,
    hard: bool,
    bins_idx: Range<usize>,
    /// Per Doppler node and segment: (training cells, first row).
    cells: Vec<Vec<(usize, usize)>>,
    /// Training cells per segment over the whole range.
    totals: Vec<usize>,
    /// Per-member snapshots `[member][bin][segment]`, fully overwritten
    /// each slot.
    snaps: Vec<Vec<Vec<CMat>>>,
    /// Snapshots evicted from the easy history rings, reused as receive
    /// buffers.
    spares: Vec<CMat>,
    history: HashMap<(u16, usize, usize), VecDeque<CMat>>,
    r_state: HashMap<(u16, usize, usize, usize), CMat>,
    /// Per-member weights, bin-major and segment-minor.
    weights: Vec<Vec<CMat>>,
    targets: Vec<(usize, Range<usize>)>,
    edge: Edge,
}

impl<'a> Weight<'a> {
    fn node(ctx: &'a TaskCtx<'a>, local: usize, hard: bool) -> Node<Self> {
        let p = ctx.params;
        use Edge::*;
        let parts = ctx.parts;
        let (bf, in_edge, edge) = match hard {
            false => (EASY_BF, DopplerToEasyWt, EasyWtToEasyBf),
            true => (HARD_BF, DopplerToHardWt, HardWtToHardBf),
        };
        let (wt_bins, bf_bins) = match hard {
            false => (&parts.easy_wt_bins, &parts.easy_bf_bins),
            true => (&parts.hard_wt_bins, &parts.hard_bf_bins),
        };
        let bins_idx = wt_bins[local].clone();
        let targets = overlapping(bf_bins, &bins_idx, ctx.rank0(bf));
        let counts = |kr: &Range<usize>| -> Vec<usize> {
            if hard {
                (0..p.num_segments())
                    .map(|s| hard_cells_in(p, s, kr).len())
                    .collect()
            } else {
                vec![easy_cells_in(p, kr).len()]
            }
        };
        let totals = counts(&(0..p.k_range));
        let mut next = vec![0usize; totals.len()];
        let cells = ctx
            .parts
            .doppler_k
            .iter()
            .map(|kr| {
                let c = counts(kr);
                let at = c.iter().zip(&next).map(|(&n, &r)| (n, r)).collect();
                next.iter_mut().zip(c).for_each(|(r, n)| *r += n);
                at
            })
            .collect();
        let carry = ctx.carry;
        Node {
            inputs: all_ranks(ctx, DOPPLER, in_edge),
            outputs: targets.iter().map(|t| (t.0, edge)).collect(),
            lag: ctx.beams(),
            stage: Weight {
                ctx,
                hard,
                history: carried(&carry.easy_history, |k| k.2, &bins_idx, Clone::clone),
                r_state: carried(&carry.hard_r, |k| k.2, &bins_idx, Clone::clone),
                bins_idx,
                cells,
                totals,
                snaps: Vec::new(),
                spares: Vec::new(),
                weights: Vec::new(),
                targets,
                edge,
            },
        }
    }

    /// Channels per snapshot row: J (easy) or 2J (hard, both windows).
    fn channels(&self) -> usize {
        self.ctx.params.j_channels * if self.hard { 2 } else { 1 }
    }
}

impl Stage for Weight<'_> {
    fn place(&mut self, i: usize, group: &Group, payload: Payload) {
        let (b, nbins, jj) = (group.len(), self.bins_idx.len(), self.channels());
        while self.snaps.len() < b {
            let bin = || self.totals.iter().map(|&n| CMat::zeros(n, jj)).collect();
            self.snaps.push((0..nbins).map(|_| bin()).collect());
        }
        let block = expect_cube(payload);
        // The sender packed cells segment-major.
        for (u, set) in self.snaps[..b].iter_mut().enumerate() {
            let mut ci = 0usize;
            for (s, &(cnt, row)) in self.cells[i].iter().enumerate() {
                for c in 0..cnt {
                    for (bi, snap) in set.iter_mut().enumerate() {
                        for ch in 0..jj {
                            // Conjugated rows (see stap_core::training).
                            snap[s][(row + c, ch)] = block[(u * nbins + bi, ci + c, ch)].conj();
                        }
                    }
                }
                ci += cnt;
            }
        }
        self.ctx.pools.cx.recycle(block);
    }

    fn compute(&mut self, group: &Group) -> bool {
        let p = self.ctx.params;
        let (jj, hard_bins) = (self.channels(), p.hard_bins());
        let identity = CMat::identity(p.j_channels);
        self.weights.clear();
        for (u, sub) in group.iter().enumerate() {
            let beam = sub.scpi as usize % self.ctx.beams();
            let steering = &self.ctx.steering[beam];
            let mut weights = Vec::with_capacity(self.bins_idx.len() * self.totals.len());
            for (bin, snaps) in self.bins_idx.clone().zip(&mut self.snaps[u]) {
                if self.hard {
                    let constraint = hard_constraint(p, hard_bins[bin]);
                    for (s, snap) in snaps.iter().enumerate() {
                        let key = (sub.stream, beam, bin, s);
                        let r_prev = self
                            .r_state
                            .entry(key)
                            .or_insert_with(|| CMat::zeros(jj, jj));
                        let r_new = qr_update(r_prev, p.forgetting_factor, snap);
                        let k = mean_abs(snap) * p.beam_constraint_wt;
                        weights.push(constrained_lstsq_from_r(&r_new, &constraint, k, steering));
                        *r_prev = r_new;
                    }
                } else {
                    // The snapshot moves into the history ring; an evicted
                    // one becomes the next receive buffer.
                    let spare = self.spares.pop();
                    let spare = spare.unwrap_or_else(|| CMat::zeros(self.totals[0], jj));
                    let q = self.history.entry((sub.stream, beam, bin)).or_default();
                    q.push_back(std::mem::replace(&mut snaps[0], spare));
                    while q.len() > p.easy_history {
                        self.spares.extend(q.pop_front());
                    }
                    let mut stacked = q[0].clone();
                    for older in q.iter().skip(1) {
                        stacked = stacked.vstack(older);
                    }
                    let k = mean_abs(&stacked) * p.beam_constraint_wt;
                    weights.push(constrained_lstsq(&stacked, &identity, k, steering));
                }
            }
            self.weights.push(weights);
        }
        false
    }

    fn send(&mut self, tx: &mut Tx) {
        let segs = self.totals.len();
        for (dst, ov) in &self.targets {
            let base = (ov.start - self.bins_idx.start) * segs;
            let mut w = Vec::with_capacity(self.weights.len() * ov.len() * segs);
            for ws in &self.weights {
                w.extend_from_slice(&ws[base..base + ov.len() * segs]);
            }
            tx.send(*dst, self.edge, Payload::Weights(w));
        }
    }

    fn export(self) -> TaskState {
        if self.hard {
            TaskState::HardWt(self.r_state)
        } else {
            TaskState::EasyWt(self.history)
        }
    }
}

/// Pending per-segment weights of one (stream, beam, bin); `None` is the
/// stale placeholder of a lost weight message.
type WeightFifo = VecDeque<Option<Vec<CMat>>>;

/// Easy (task 3) and hard (task 4) beamforming: weight FIFOs keyed
/// (stream, beam, bin) filled from the weight edge, one matrix product
/// per (member, bin, segment). Easy beamforming is the one-segment case
/// over the first stagger window.
///
/// Degraded mode: when a weight message is lost (deadline overrun or a
/// drop marker), the node beamforms with the *last good weights for
/// this azimuth* — the same matrices the paper would have applied one
/// revisit earlier — and flags its output `degraded`.
struct Beamform<'a> {
    ctx: &'a TaskCtx<'a>,
    hard: bool,
    bins_idx: Range<usize>,
    /// Range segments, each beamformed with its own weights.
    segs: Vec<Range<usize>>,
    data: ByGroup<Cx>,
    out: ByGroup<Cx>,
    slabs: Vec<CMat>,
    ys: Vec<CMat>,
    /// Weight sources with their bin overlaps, and the weight edge.
    sources: Vec<(usize, Range<usize>)>,
    wt_edge: Edge,
    /// Next weight tag to receive.
    cursor: usize,
    fifo: HashMap<(u16, usize, usize), WeightFifo>,
    /// Last good weights per azimuth (fault-tolerant runs only): the
    /// stale-weight fallback source.
    last_good: HashMap<usize, Vec<Vec<CMat>>>,
    /// My natural bins, ascending, owned by each PC node.
    pc_mine: Vec<(usize, Vec<usize>)>,
    out_edge: Edge,
}

impl<'a> Beamform<'a> {
    fn node(ctx: &'a TaskCtx<'a>, local: usize, hard: bool) -> Node<Self> {
        let p = ctx.params;
        use Edge::*;
        let (wt_task, in_edge, wt_edge, out_edge) = match hard {
            false => (EASY_WT, DopplerToEasyBf, EasyWtToEasyBf, EasyBfToPc),
            true => (HARD_WT, DopplerToHardBf, HardWtToHardBf, HardBfToPc),
        };
        let parts = ctx.parts;
        let (bins, wt_bins, natural) = match hard {
            false => (&parts.easy_bf_bins, &parts.easy_wt_bins, p.easy_bins()),
            true => (&parts.hard_bf_bins, &parts.hard_wt_bins, p.hard_bins()),
        };
        let jj = p.j_channels * if hard { 2 } else { 1 };
        let bins_idx = bins[local].clone();
        let segs: Vec<Range<usize>> = if hard {
            (0..p.num_segments()).map(|s| p.segment_range(s)).collect()
        } else {
            std::iter::once(0..p.k_range).collect()
        };
        let pc0 = ctx.rank0(PC);
        let shares = pc_shares(ctx.parts, &natural, &bins_idx).into_iter();
        let pc_mine: Vec<(usize, Vec<usize>)> = (pc0..).zip(shares).collect();
        let fifo = if hard {
            let sets = |q: &VecDeque<Vec<CMat>>| q.iter().cloned().map(Some).collect();
            carried(&ctx.carry.hard_fifo, |k| k.2, &bins_idx, sets)
        } else {
            let sets = |q: &VecDeque<CMat>| q.iter().map(|w| Some(vec![w.clone()])).collect();
            carried(&ctx.carry.easy_fifo, |k| k.2, &bins_idx, sets)
        };
        Node {
            inputs: all_ranks(ctx, DOPPLER, in_edge),
            outputs: pc_mine.iter().map(|m| (m.0, out_edge)).collect(),
            lag: 0,
            stage: Beamform {
                ctx,
                hard,
                data: ByGroup::new([bins_idx.len(), p.k_range, jj]),
                out: ByGroup::new([bins_idx.len(), p.m_beams, p.k_range]),
                slabs: segs.iter().map(|r| CMat::zeros(jj, r.len())).collect(),
                ys: segs
                    .iter()
                    .map(|r| CMat::zeros(p.m_beams, r.len()))
                    .collect(),
                sources: overlapping(wt_bins, &bins_idx, ctx.rank0(wt_task)),
                wt_edge,
                cursor: ctx.beams(),
                fifo,
                last_good: HashMap::new(),
                pc_mine,
                out_edge,
                segs,
                bins_idx,
            },
        }
    }

    /// Quiescent weights for `beam` — each azimuth's first visit, and
    /// the fallback of last resort — as the sequential reference builds
    /// them.
    fn quiescent(&self, beam: usize) -> Vec<Vec<CMat>> {
        let (p, s, mine) = (
            self.ctx.params,
            &self.ctx.steering[beam],
            self.bins_idx.clone(),
        );
        if self.hard {
            HardWeightComputer::new(p).quiescent(s).per_bin[mine].to_vec()
        } else {
            let easy = EasyWeightComputer::new(p).quiescent(s).per_bin;
            easy[mine].iter().map(|w| vec![w.clone()]).collect()
        }
    }

    /// Receives weight tag `self.cursor` from every source and files one
    /// entry per (member CPI it was computed from, bin). The weight
    /// tasks' `Shutdown` (the end of a resident session) files nothing.
    fn pull(&mut self, rx: &mut Rx) {
        let t = self.cursor;
        self.cursor += 1;
        let (beams, nsegs) = (self.ctx.beams(), self.segs.len());
        let mut group: Option<Group> = None;
        let mut lost = Vec::new();
        let grace = rx.policy.weight_grace;
        for (src, ov) in &self.sources {
            let Some(m) = rx.recv(*src, self.wt_edge, t, grace) else {
                lost.push(ov.clone());
                continue;
            };
            let w = match m.payload {
                Payload::Weights(w) => w,
                Payload::Shutdown => continue,
                other => panic!("expected Weights, got {other:?}"),
            };
            let g = group.get_or_insert_with(|| Group::of(m.group, t - beams));
            for (sub, sub_w) in g.iter().zip(w.chunks(ov.len() * nsegs)) {
                for (bin, per_seg) in ov.clone().zip(sub_w.chunks(nsegs)) {
                    let fifo = self
                        .fifo
                        .entry((sub.stream, sub.scpi as usize % beams, bin));
                    fifo.or_default().push_back(Some(per_seg.to_vec()));
                }
            }
        }
        if lost.is_empty() {
            return;
        }
        // Stale placeholders keep every bin's FIFO in order.
        rx.health.edges[self.wt_edge as usize].stale_weights += 1;
        let group = group.unwrap_or_else(|| Group::of(None, t - beams));
        for sub in group.iter() {
            for bin in lost.iter().flat_map(Range::clone) {
                let fifo = self
                    .fifo
                    .entry((sub.stream, sub.scpi as usize % beams, bin));
                fifo.or_default().push_back(None);
            }
        }
    }

    /// True when some member of `group` would find its FIFO empty when
    /// its turn to pop comes (members of one stream and azimuth pop the
    /// same FIFOs in group order).
    fn starved(&self, group: &Group) -> bool {
        let beams = self.ctx.beams();
        let bin = self.bins_idx.start;
        let key = |s: &SubCpi| {
            (s.scpi as usize >= beams).then_some((s.stream, s.scpi as usize % beams, bin))
        };
        group.iter().enumerate().any(|(u, sub)| {
            key(sub).is_some_and(|k| {
                let need = group[..=u].iter().filter(|s| key(s) == Some(k)).count();
                self.fifo.get(&k).map_or(0, VecDeque::len) < need
            })
        })
    }

    /// Pops member `sub`'s weights from every bin's FIFO; `None` when
    /// any bin holds a stale placeholder.
    fn pop(&mut self, sub: &SubCpi, beam: usize) -> Option<Vec<Vec<CMat>>> {
        let mut sets = Vec::with_capacity(self.bins_idx.len());
        let mut stale = false;
        for bin in self.bins_idx.clone() {
            match self
                .fifo
                .get_mut(&(sub.stream, beam, bin))
                .and_then(VecDeque::pop_front)
            {
                Some(Some(w)) => sets.push(w),
                Some(None) => stale = true,
                None => panic!("weight FIFO underflow: streams must submit CPIs in order"),
            }
        }
        (!stale).then_some(sets)
    }
}

impl Stage for Beamform<'_> {
    fn place(&mut self, i: usize, group: &Group, payload: Payload) {
        let block = expect_cube(payload);
        let k0 = self.ctx.parts.doppler_k[i].start;
        self.data.get(group.len()).place([0, k0, 0], &block);
        self.ctx.pools.cx.recycle(block);
    }

    fn recv_more(&mut self, rx: &mut Rx, slot: usize, group: &Group) {
        // Fault-tolerant runs purge every tag `< slot` at the end of the
        // previous slot; elsewhere the cursor is already past it.
        self.cursor = self.cursor.max(slot);
        while self.cursor <= slot {
            self.pull(rx);
        }
        while self.starved(group) {
            assert!(
                self.cursor <= slot + self.ctx.beams(),
                "weight FIFO underflow: streams must submit CPIs in order"
            );
            self.pull(rx);
        }
    }

    fn compute(&mut self, group: &Group) -> bool {
        let p = self.ctx.params;
        let beams = self.ctx.beams();
        let nbins = self.bins_idx.len();
        let mut degraded = false;
        for (u, sub) in group.iter().enumerate() {
            let beam = sub.scpi as usize % beams;
            let popped = if (sub.scpi as usize) < beams {
                Some(self.quiescent(beam))
            } else {
                self.pop(sub, beam)
            };
            let weights = match popped {
                Some(w) => {
                    if self.ctx.policy.fault_tolerant {
                        self.last_good.insert(beam, w.clone());
                    }
                    w
                }
                None => {
                    // Fall back to the last good weights for this
                    // azimuth — the paper already applies weights one
                    // revisit late; this widens the gap by one more.
                    degraded = true;
                    match self.last_good.get(&beam) {
                        Some(w) => w.clone(),
                        None => self.quiescent(beam),
                    }
                }
            };
            let data = self.data.get(group.len());
            let out = self.out.get(group.len());
            for (bi, w) in weights.iter().enumerate() {
                let row = u * nbins + bi;
                for (s, r) in self.segs.iter().enumerate() {
                    self.slabs[s].fill_from_fn(|ch, kc| data[(row, r.start + kc, ch)]);
                    w[s].hermitian_matmul_into(&self.slabs[s], &mut self.ys[s]);
                    for m in 0..p.m_beams {
                        out.lane_mut(row, m)[r.clone()].copy_from_slice(self.ys[s].row(m));
                    }
                }
            }
        }
        degraded
    }

    fn send(&mut self, tx: &mut Tx) {
        let b = tx.group.len();
        let (nbins, start) = (self.bins_idx.len(), self.bins_idx.start);
        let out = self.out.get(b);
        for (dst, mine) in &self.pc_mine {
            let block = gather_plane_rows(&self.ctx.pools.cx, out, b, mine.len(), |u, o| {
                u * nbins + mine[o] - start
            });
            tx.send(*dst, self.out_edge, Payload::Cube(block));
        }
    }

    fn shutdown(&mut self, rx: &mut Rx, slot: usize) {
        // Drain every weight message still in flight (up to the weight
        // tasks' own shutdown) so the exported FIFOs are complete.
        while self.cursor <= slot + self.ctx.beams() {
            self.pull(rx);
        }
    }

    fn export(self) -> TaskState {
        let fifo = self.fifo.into_iter().filter(|(_, q)| !q.is_empty());
        let sets = fifo.map(|(k, q)| (k, q.into_iter().flatten()));
        if self.hard {
            TaskState::HardBf(sets.map(|(k, q)| (k, q.collect())).collect())
        } else {
            TaskState::EasyBf(sets.map(|(k, q)| (k, q.flatten().collect())).collect())
        }
    }
}

/// Pulse compression (task 5): the whole slot group through one
/// `process_into_with` pass over the concatenated cube.
struct Pulse<'a> {
    ctx: &'a TaskCtx<'a>,
    my_bins: Range<usize>,
    /// Natural bins each input delivers, in block row order.
    feeders: Vec<Vec<usize>>,
    compressor: PulseCompressor,
    data: ByGroup<Cx>,
    power: ByGroup<f64>,
    ws: PulseScratch,
    cfar_ov: Vec<(usize, Range<usize>)>,
}

impl<'a> Pulse<'a> {
    fn node(ctx: &'a TaskCtx<'a>, local: usize) -> Node<Self> {
        let p = ctx.params;
        let my_bins = ctx.parts.pc_bins[local].clone();
        let (mut inputs, mut feeders) = (Vec::new(), Vec::new());
        let parts = ctx.parts;
        for (t, edge, bins, natural) in [
            (
                EASY_BF,
                Edge::EasyBfToPc,
                &parts.easy_bf_bins,
                p.easy_bins(),
            ),
            (
                HARD_BF,
                Edge::HardBfToPc,
                &parts.hard_bf_bins,
                p.hard_bins(),
            ),
        ] {
            for (r, idx) in bins.iter().enumerate() {
                inputs.push((ctx.rank0(t) + r, edge));
                feeders.push(
                    idx.clone()
                        .map(|bn| natural[bn])
                        .filter(|bn| my_bins.contains(bn))
                        .collect(),
                );
            }
        }
        let cfar_ov: Vec<(usize, Range<usize>)> = ctx
            .parts
            .cfar_bins
            .iter()
            .enumerate()
            .map(|(u, c)| (ctx.rank0(CFAR) + u, overlap(&my_bins, c)))
            .collect();
        let shape = [my_bins.len(), p.m_beams, p.k_range];
        Node {
            inputs,
            outputs: cfar_ov.iter().map(|c| (c.0, Edge::PcToCfar)).collect(),
            lag: 0,
            stage: Pulse {
                ctx,
                my_bins,
                feeders,
                compressor: PulseCompressor::new(p),
                data: ByGroup::new(shape),
                power: ByGroup::new(shape),
                ws: PulseScratch::new(),
                cfar_ov,
            },
        }
    }
}

impl Stage for Pulse<'_> {
    fn place(&mut self, i: usize, group: &Group, payload: Payload) {
        let block = expect_cube(payload);
        let (bins, start) = (&self.feeders[i], self.my_bins.start);
        let data = self.data.get(group.len());
        scatter_plane_rows(data, self.my_bins.len(), group.len(), &block, |o| {
            bins[o] - start
        });
        self.ctx.pools.cx.recycle(block);
    }

    fn compute(&mut self, group: &Group) -> bool {
        let data = self.data.get(group.len());
        let power = self.power.get(group.len());
        self.compressor.process_into_with(data, power, &mut self.ws);
        false
    }

    fn send(&mut self, tx: &mut Tx) {
        let b = tx.group.len();
        let (ml, start) = (self.my_bins.len(), self.my_bins.start);
        let power = self.power.get(b);
        for (dst, ov) in &self.cfar_ov {
            let block = gather_plane_rows(&self.ctx.pools.real, power, b, ov.len(), |u, o| {
                u * ml + ov.start + o - start
            });
            tx.send(*dst, Edge::PcToCfar, Payload::Real(block));
        }
    }
}

/// CFAR (task 6): per-member detection lists to the driver.
struct Cfar<'a> {
    ctx: &'a TaskCtx<'a>,
    my_bins: Range<usize>,
    /// Row offset (within my bins) each PC input covers.
    row0: Vec<usize>,
    power: ByGroup<f64>,
    scratch: cfar::CfarScratch,
    per_sub: Vec<Vec<Detection>>,
    mask: Vec<bool>,
}

impl<'a> Cfar<'a> {
    fn node(ctx: &'a TaskCtx<'a>, local: usize) -> Node<Self> {
        let p = ctx.params;
        let my_bins = ctx.parts.cfar_bins[local].clone();
        let row0 = ctx
            .parts
            .pc_bins
            .iter()
            .map(|r| overlap(r, &my_bins).start.saturating_sub(my_bins.start))
            .collect();
        Node {
            inputs: all_ranks(ctx, PC, Edge::PcToCfar),
            outputs: vec![(ctx.assign.driver_rank(), Edge::Output)],
            lag: 0,
            stage: Cfar {
                ctx,
                // The detection list is reserved once, so the steady-state
                // CFAR round performs no heap allocation beyond the
                // send-boundary handoff.
                scratch: cfar::CfarScratch::for_task(p, my_bins.len()),
                power: ByGroup::new([my_bins.len(), p.m_beams, p.k_range]),
                row0,
                per_sub: Vec::new(),
                mask: Vec::new(),
                my_bins,
            },
        }
    }
}

impl Stage for Cfar<'_> {
    fn place(&mut self, i: usize, group: &Group, payload: Payload) {
        let block = expect_real(payload);
        let (ml, row0) = (self.my_bins.len(), self.row0[i]);
        let power = self.power.get(group.len());
        scatter_plane_rows(power, ml, group.len(), &block, |o| row0 + o);
        self.ctx.pools.real.recycle(block);
    }

    fn compute(&mut self, group: &Group) -> bool {
        let p = self.ctx.params;
        let ml = self.my_bins.len();
        let power = self.power.get(group.len());
        // Screening attributes non-finite power to the owning sub-CPI:
        // each member's lanes are disjoint rows of the slot cube, so a
        // poisoned tenant degrades its own CPI, never its slot-mates'.
        for u in 0..group.len() {
            self.scratch.begin_cpi();
            let mut poisoned = false;
            for bi in 0..ml {
                for m in 0..p.m_beams {
                    let lane = power.lane(u * ml + bi, m);
                    if self.ctx.screen && !lane.iter().all(|v| v.is_finite()) {
                        poisoned = true;
                    }
                    let bin = self.my_bins.start + bi;
                    cfar::cfar_lane(p, lane, bin, m, &mut self.scratch.detections);
                }
            }
            if self.ctx.screen {
                self.mask.push(poisoned);
            }
            self.per_sub.push(self.scratch.take());
        }
        false
    }

    fn send(&mut self, tx: &mut Tx) {
        let payload = match tx.group {
            Group::Implied(_) => Payload::Detections(self.per_sub.pop().unwrap_or_default()),
            Group::Shared(_) => Payload::DetectionsGroup(
                std::mem::take(&mut self.per_sub),
                std::mem::take(&mut self.mask),
            ),
        };
        self.per_sub.clear();
        self.mask.clear();
        tx.send(self.ctx.assign.driver_rank(), Edge::Output, payload);
    }
}
