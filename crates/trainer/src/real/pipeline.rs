//! Layer-pipelined training step on a work-stealing core pool.
//!
//! The classic step in `train.rs` is bulk-synchronous: every replica
//! finishes its whole backward pass, then one allreduce moves the full
//! flat gradient, then the optimizer runs. This executor reproduces the
//! Horovod overlap the paper leans on: backprop is split into per-layer
//! phases, and the moment the last task finishes a layer's phase, that
//! layer's gradient tile is reduced across replicas **while the
//! remaining layers are still backpropagating** on the other workers.
//!
//! Execution model, per step:
//!
//! - The work unit is a *task* = (replica, chunk-of-batch). Tasks are
//!   spread over the [`CorePool`] workers through per-worker
//!   [`RangeQueue`]s; an idle worker steals from the tail of a busy
//!   worker's queue.
//! - Each task runs phase-major: forward+softmax for all its samples,
//!   then the head backward for all its samples, then the middle layer,
//!   then the input layer. Finishing a backward phase decrements that
//!   layer tile's completion counter; the worker that brings a counter
//!   to zero immediately runs the tile's cross-replica reduction
//!   in-line, overlapping it with the other workers' remaining
//!   backprop — the "allreduce as soon as the tensor is ready" rule.
//! - Every task accumulates gradients into its **own** slot, and the
//!   tile reduction folds slots in a fixed (replica-major, chunk-order)
//!   sequence. Scheduling therefore never changes the floating-point
//!   combination order: results are bit-identical run to run, and
//!   independent of the worker count (the chunk count is fixed).
//! - Gradient compression plugs in at the tile reduction: each
//!   replica's local-mean tile takes a [`collectives::compression`]
//!   codec roundtrip (optionally error-feedback compensated against a
//!   persistent per-replica fp32 residual) before the cross-replica
//!   sum. Fp16 without error feedback keeps the fused one-pass kernel
//!   ([`fp16::scale_roundtrip`]): batch-mean scale + pack + unpack, no
//!   separate sweep. Codec scratch is per-tile and the residual slices
//!   are per-(replica, tile), so the overlapped reductions never
//!   contend — and since the codecs are CPU-independent and the fold
//!   order fixed, compressed steps stay bit-deterministic across runs
//!   and worker counts.
//!
//! Safety: the step shares mutable state (gradient slots, workspaces,
//! the reduced buffer) across pool workers through raw pointers. The
//! disjointness argument is structural: a task writes only its own slot
//! and workspaces; a tile reduction reads slot regions only after the
//! completion counter proves every task is done writing that tile (the
//! counter's AcqRel decrement publishes the writes); parameters are
//! only read during the job and only mutated by the submitting thread
//! after the pool barrier. Each `unsafe` block cites the piece of that
//! argument it relies on.

use std::slice;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

use collectives::compression::{self, CodecKind, EncodeScratch};
use collectives::pool::{chunk_range, CorePool, RangeQueue};
use collectives::reduce::{combine_sum, finalize, ReduceOp};
use simd::fp16;
use trace::{Lane, TraceRecorder};

use super::net::{NetConfig, SegNet, Workspace};
use super::segdata::Sample;
use super::sgd::MomentumSgd;

/// The three reducible parameter tiles, in flat-vector order:
/// `[w1|b1]`, `[w2|b2]`, `[w3|b3]`. Tile 2 (the head) is the first
/// whose gradient completes, so reductions fire in 2 → 1 → 0 order.
pub const N_TILES: usize = 3;

/// Happens-before instrumentation for `trace::race`, compiled only
/// under `--features race-detect` so the hot path stays untouched.
///
/// Identity follows the span recorder's convention: pid 0 (one rank in
/// this process), tid = pool worker index — the submitting thread *is*
/// worker 0 (`CorePool::run` participates). The mapping of the real
/// synchronization onto [`trace::race::SyncKind`] events:
///
/// * the pool publish/drain barrier → `POOL_SUBMIT` (submitter
///   releases before `pool.run`, every worker acquires at job entry)
///   and `POOL_DONE` (workers release at job exit, submitter acquires
///   after `pool.run` returns);
/// * a successful `RangeQueue` claim CAS → AcqRel on `queue_obj(q)`;
/// * a tile counter `fetch_sub(AcqRel)` → a release on
///   `counter_obj(tile)` *before* the real decrement and an acquire
///   after a winning one, so the hook order observed by the detector
///   can never invert the real decrement order (a combined AcqRel hook
///   after the decrement could, and would report false races).
///
/// Tracked data: per-(slot, tile) gradient regions and the per-tile
/// regions of the `reduced` buffer — the raw-pointer accesses whose
/// disjointness argument the module doc lays out.
#[cfg(feature = "race-detect")]
pub mod race_keys {
    pub const POOL_SUBMIT: u64 = 1;
    pub const POOL_DONE: u64 = 2;

    pub fn queue_obj(q: usize) -> u64 {
        0x100 + q as u64
    }

    pub fn counter_obj(tile: usize) -> u64 {
        0x1000 + tile as u64
    }

    /// The `tile` region of gradient slot `slot`.
    pub fn slot_tile(slot: usize, tile: usize) -> u64 {
        0x1_0000_0000 | ((slot as u64) << 16) | tile as u64
    }

    /// The `tile` region of the shared `reduced` buffer.
    pub fn reduced_tile(tile: usize) -> u64 {
        0x2_0000_0000 | tile as u64
    }
}

#[cfg(feature = "race-detect")]
fn rd() -> Option<&'static trace::RaceDetector> {
    trace::race::global()
}

/// Per-step executor state: the pool, the per-task gradient slots and
/// sample workspaces, and the pointer tables the job shares with the
/// workers. Construct once, call [`PipelineExecutor::step`] every step;
/// steady-state steps perform no heap allocation.
pub struct PipelineExecutor {
    pool: CorePool,
    /// Fixed chunk count per replica — decoupled from the worker count
    /// so the fold order (and thus the result) does not depend on it.
    chunks: usize,
    replicas: usize,
    batch: usize,
    accumulation: usize,
    n_params: usize,
    tiles: [(usize, usize); N_TILES],
    blocks: [(usize, usize); 6],
    /// Per-slot gradient accumulators, `replicas × chunks`, replica-major.
    grads: Vec<Vec<f32>>,
    /// Per-slot sample workspaces (`accumulation × chunk-size` each).
    slot_ws: Vec<Vec<Workspace>>,
    /// Per-slot summed sample loss of the last step.
    slot_loss: Vec<f64>,
    /// Per-replica mean loss of the last step.
    losses: Vec<f64>,
    /// The cross-replica averaged gradient of the last step.
    reduced: Vec<f32>,
    /// Per-tile codec scratch — one reduction per tile per step, so the
    /// tile index alone picks an uncontended scratch set. Owned storage
    /// reached only through `scratch_ptr_tab`.
    #[allow(dead_code)]
    scratch: Vec<EncodeScratch>,
    /// Per-replica fp32 error-feedback residuals (tile-sliced by the
    /// reductions; persistent across steps). Owned storage reached only
    /// through `ef_ptr_tab`.
    #[allow(dead_code)]
    ef: Vec<Vec<f32>>,
    queues: Vec<RangeQueue>,
    counters: [AtomicUsize; N_TILES],
    /// Nanoseconds spent in tile reductions last step.
    reduce_ns: AtomicU64,
    lanes: Option<Vec<Lane>>,
    // Pointer tables. The slot tables are built once (Vec heap buffers
    // never move, even when the executor itself does); the replica and
    // shard tables are refilled per step inside reserved capacity, so
    // the steady-state step never allocates.
    grad_ptr_tab: Vec<*mut f32>,
    ws_ptr_tab: Vec<(*mut Workspace, usize)>,
    scratch_ptr_tab: Vec<*mut EncodeScratch>,
    ef_ptr_tab: Vec<*mut f32>,
    net_ptrs: Vec<*mut SegNet>,
    opt_ptrs: Vec<*mut MomentumSgd>,
    shard_ptrs: Vec<(*const Sample, usize)>,
}

/// The raw step context every pool worker sees.
struct StepCtx<'a> {
    nets: &'a [*mut SegNet],
    shards: &'a [(*const Sample, usize)],
    grad_ptrs: &'a [*mut f32],
    ws_ptrs: &'a [(*mut Workspace, usize)],
    loss_ptr: *mut f64,
    reduced: *mut f32,
    queues: &'a [RangeQueue],
    counters: &'a [AtomicUsize; N_TILES],
    reduce_ns: &'a AtomicU64,
    lanes: Option<&'a [Lane]>,
    tiles: [(usize, usize); N_TILES],
    blocks: [(usize, usize); 6],
    n_params: usize,
    replicas: usize,
    chunks: usize,
    batch: usize,
    accumulation: usize,
    /// `1 / (batch × accumulation)` — the per-replica mean scale.
    inv_local: f32,
    codec: CodecKind,
    error_feedback: bool,
    /// One scratch set per tile (see `PipelineExecutor::scratch`).
    scratch: &'a [*mut EncodeScratch],
    /// One fp32 residual buffer (`n_params`) per replica.
    ef: &'a [*mut f32],
    step_index: u64,
}

// SAFETY: the raw pointers are shared across the pool workers under the
// disjointness protocol in the module docs; everything else is Sync.
unsafe impl Sync for StepCtx<'_> {}

impl PipelineExecutor {
    /// Executor for `replicas` data-parallel replicas, each computing a
    /// `batch × accumulation` local batch per step, on `workers` pool
    /// lanes (1 means fully inline). Allocates every buffer the step
    /// will touch.
    pub fn new(
        cfg: &NetConfig,
        replicas: usize,
        batch: usize,
        accumulation: usize,
        workers: usize,
    ) -> Self {
        assert!(replicas >= 1 && batch >= 1 && accumulation >= 1);
        // Fixed chunking: at least 4 chunks per replica keeps small
        // worker counts busy and, because it never changes with the
        // worker count, keeps the fold order — and the result — stable.
        let chunks = 4usize.max(workers).min(batch.max(1));
        let probe = SegNet::new(*cfg, 0);
        let n_params = probe.n_params();
        let b = probe.block_ranges().map(|r| (r.start, r.end));
        let tiles = [(b[0].0, b[1].1), (b[2].0, b[3].1), (b[4].0, b[5].1)];
        let mut grads = Vec::with_capacity(replicas * chunks);
        let mut slot_ws: Vec<Vec<Workspace>> = Vec::with_capacity(replicas * chunks);
        for _ in 0..replicas {
            for c in 0..chunks {
                grads.push(vec![0.0f32; n_params]);
                let n_samples = accumulation * chunk_range(batch, chunks, c).len();
                slot_ws.push((0..n_samples).map(|_| Workspace::new(cfg)).collect());
            }
        }
        let grad_ptr_tab = grads.iter_mut().map(|g| g.as_mut_ptr()).collect();
        let ws_ptr_tab = slot_ws.iter_mut().map(|w| (w.as_mut_ptr(), w.len())).collect();
        let mut scratch: Vec<EncodeScratch> = (0..N_TILES).map(|_| EncodeScratch::new()).collect();
        let mut ef: Vec<Vec<f32>> = (0..replicas).map(|_| vec![0.0f32; n_params]).collect();
        let scratch_ptr_tab = scratch.iter_mut().map(|s| s as *mut EncodeScratch).collect();
        let ef_ptr_tab = ef.iter_mut().map(|e| e.as_mut_ptr()).collect();
        PipelineExecutor {
            pool: CorePool::new(workers),
            chunks,
            replicas,
            batch,
            accumulation,
            n_params,
            tiles,
            blocks: b,
            grads,
            slot_ws,
            slot_loss: vec![0.0; replicas * chunks],
            losses: vec![0.0; replicas],
            reduced: vec![0.0f32; n_params],
            scratch,
            ef,
            queues: (0..workers).map(|_| RangeQueue::empty()).collect(),
            counters: [AtomicUsize::new(0), AtomicUsize::new(0), AtomicUsize::new(0)],
            reduce_ns: AtomicU64::new(0),
            lanes: None,
            grad_ptr_tab,
            ws_ptr_tab,
            scratch_ptr_tab,
            ef_ptr_tab,
            net_ptrs: Vec::with_capacity(replicas),
            opt_ptrs: Vec::with_capacity(replicas),
            shard_ptrs: Vec::with_capacity(replicas),
        }
    }

    /// Attach trace lanes (one per pool worker) to a span recorder.
    /// Pipeline spans use pid 900 so they sit apart from the per-rank
    /// compute lanes in the merged timeline.
    pub fn attach_trace(&mut self, recorder: &TraceRecorder) {
        self.lanes = Some(
            (0..self.pool.workers())
                .map(|w| recorder.lane(900, w as u32, "pipeline pool", &format!("worker {w}")))
                .collect(),
        );
    }

    /// Worker lanes in the pool.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// Per-replica mean losses of the last [`PipelineExecutor::step`].
    pub fn losses(&self) -> &[f64] {
        &self.losses
    }

    /// The cross-replica averaged gradient of the last step.
    pub fn reduced(&self) -> &[f32] {
        &self.reduced
    }

    /// Seconds spent inside tile reductions during the last step.
    pub fn last_reduce_seconds(&self) -> f64 {
        self.reduce_ns.load(Ordering::Relaxed) as f64 * 1e-9 // lint: allow(relaxed): reduce_ns is a stats cell read after the pool barrier
    }

    /// Run one pipelined training step.
    ///
    /// `replicas` yields each replica's network and optimizer (in rank
    /// order); `shards[r]` is replica `r`'s local batch, micro-batch
    /// major, of length `batch × accumulation`. Computes gradients on
    /// the pool with per-tile overlapped reduction — each replica's
    /// local-mean tile roundtrips through `codec` (error-feedback
    /// compensated when `error_feedback` is set) before the
    /// cross-replica sum — then applies the shared averaged gradient to
    /// every replica. Returns the mean loss across replicas.
    // lint: hot-path
    pub fn step<'a>(
        &mut self,
        replicas: impl Iterator<Item = (&'a mut SegNet, &'a mut MomentumSgd)>,
        shards: &[Vec<Sample>],
        codec: CodecKind,
        error_feedback: bool,
    ) -> f64 {
        self.net_ptrs.clear();
        self.opt_ptrs.clear();
        for (net, opt) in replicas {
            self.net_ptrs.push(net);
            self.opt_ptrs.push(opt);
        }
        assert_eq!(self.net_ptrs.len(), self.replicas, "replica count");
        assert_eq!(shards.len(), self.replicas, "shard count");
        self.shard_ptrs.clear();
        for s in shards {
            assert_eq!(s.len(), self.batch * self.accumulation, "shard length");
            self.shard_ptrs.push((s.as_ptr(), s.len()));
        }

        let n_tasks = self.replicas * self.chunks;
        debug_assert_eq!(self.grads.len(), n_tasks);
        debug_assert_eq!(self.slot_ws.len(), n_tasks);
        for c in &self.counters {
            c.store(n_tasks, Ordering::Release);
        }
        self.reduce_ns.store(0, Ordering::Relaxed); // lint: allow(relaxed): reduce_ns is a stats cell read after the pool barrier
        let workers = self.pool.workers();
        for (w, q) in self.queues.iter().enumerate() {
            let r = chunk_range(n_tasks, workers, w);
            q.reset(r.start, r.end);
        }

        // SAFETY: `opt_ptrs` was just filled from live `&mut` borrows
        // held (invisibly to the checker) for the whole call.
        let step_index = unsafe { (*self.opt_ptrs[0]).step_index() } as u64;
        let ctx = StepCtx {
            nets: &self.net_ptrs,
            shards: &self.shard_ptrs,
            grad_ptrs: &self.grad_ptr_tab,
            ws_ptrs: &self.ws_ptr_tab,
            loss_ptr: self.slot_loss.as_mut_ptr(),
            reduced: self.reduced.as_mut_ptr(),
            queues: &self.queues,
            counters: &self.counters,
            reduce_ns: &self.reduce_ns,
            lanes: self.lanes.as_deref(),
            tiles: self.tiles,
            blocks: self.blocks,
            n_params: self.n_params,
            replicas: self.replicas,
            chunks: self.chunks,
            batch: self.batch,
            accumulation: self.accumulation,
            inv_local: 1.0 / (self.batch * self.accumulation) as f32,
            codec,
            error_feedback,
            scratch: &self.scratch_ptr_tab,
            ef: &self.ef_ptr_tab,
            step_index,
        };
        #[cfg(feature = "race-detect")]
        if let Some(d) = rd() {
            d.sync_event(0, 0, race_keys::POOL_SUBMIT, trace::SyncKind::Release);
        }
        self.pool.run(&|w| worker(&ctx, w));
        #[cfg(feature = "race-detect")]
        if let Some(d) = rd() {
            d.sync_event(0, 0, race_keys::POOL_DONE, trace::SyncKind::Acquire);
            for tile in 0..N_TILES {
                d.on_read(0, 0, race_keys::reduced_tile(tile));
            }
        }

        // Post-barrier: every tile of `reduced` holds the averaged
        // global gradient. Apply it to each replica — identical inputs,
        // so the replica-consistency invariant is preserved bit-exactly.
        let t0 = self.lanes.as_ref().map(|l| l[0].now_us());
        for (&net, &opt) in self.net_ptrs.iter().zip(&self.opt_ptrs) {
            // SAFETY: the `&mut` borrows these were built from are held
            // (invisibly to the checker) for the whole call; the pool
            // job has completed, so nothing else aliases them.
            unsafe { (*opt).apply((*net).params_mut(), &self.reduced) };
        }
        if let (Some(lanes), Some(t0)) = (self.lanes.as_ref(), t0) {
            lanes[0].record_args("OPTIMIZER", "apply", t0, lanes[0].now_us() - t0, step_index, 0);
        }

        let denom = (self.batch * self.accumulation) as f64;
        let mut total = 0.0;
        for r in 0..self.replicas {
            let sum: f64 = self.slot_loss[r * self.chunks..(r + 1) * self.chunks].iter().sum();
            self.losses[r] = sum / denom;
            total += self.losses[r];
        }
        total / self.replicas as f64
    }
}

/// One pool worker: drain the own queue, then steal from the others.
// lint: hot-path
fn worker(ctx: &StepCtx<'_>, w: usize) {
    #[cfg(feature = "race-detect")]
    if let Some(d) = rd() {
        d.sync_event(0, w as u32, race_keys::POOL_SUBMIT, trace::SyncKind::Acquire);
    }
    loop {
        let task = match ctx.queues[w].pop_front() {
            Some(t) => Some((w, t)),
            None => (1..ctx.queues.len()).find_map(|d| {
                let q = (w + d) % ctx.queues.len();
                ctx.queues[q].steal_back().map(|t| (q, t))
            }),
        };
        match task {
            Some((_q, t)) => {
                #[cfg(feature = "race-detect")]
                if let Some(d) = rd() {
                    d.sync_event(0, w as u32, race_keys::queue_obj(_q), trace::SyncKind::AcqRel);
                }
                run_task(ctx, t, w)
            }
            None => break,
        }
    }
    #[cfg(feature = "race-detect")]
    if let Some(d) = rd() {
        d.sync_event(0, w as u32, race_keys::POOL_DONE, trace::SyncKind::Release);
    }
}

/// A tile's sub-slice of a slot gradient (or of the reduced buffer).
///
/// SAFETY (caller): the `(start, end)` region of `base..base+n_params`
/// must not be aliased by a live reference for the borrow's duration.
unsafe fn tile_slice_mut<'a>(base: *mut f32, (start, end): (usize, usize)) -> &'a mut [f32] {
    slice::from_raw_parts_mut(base.add(start), end - start)
}

unsafe fn tile_slice<'a>(base: *const f32, (start, end): (usize, usize)) -> &'a [f32] {
    slice::from_raw_parts(base.add(start), end - start)
}

/// Run compute task `t` = (replica `t / chunks`, chunk `t % chunks`):
/// all four phases, phase-major over the task's samples, bumping the
/// tile counters and running any reduction this worker completes.
// lint: hot-path
fn run_task(ctx: &StepCtx<'_>, t: usize, w: usize) {
    let (r, c) = (t / ctx.chunks, t % ctx.chunks);
    // SAFETY: nets are only read during the job (the optimizer runs
    // after the pool barrier), so shared borrows are sound.
    let net = unsafe { &*ctx.nets[r] };
    let (shard_ptr, shard_len) = ctx.shards[r];
    debug_assert_eq!(shard_len, ctx.batch * ctx.accumulation);
    let chunk = chunk_range(ctx.batch, ctx.chunks, c);
    let (ws_ptr, ws_len) = ctx.ws_ptrs[t];
    let n_samples = ctx.accumulation * chunk.len();
    debug_assert_eq!(ws_len, n_samples);
    let g = ctx.grad_ptrs[t];

    // SAFETY: slot `t` belongs exclusively to this task until its phase
    // counters are bumped; no reduction reads it before that.
    unsafe { slice::from_raw_parts_mut(g, ctx.n_params) }.fill(0.0);
    #[cfg(feature = "race-detect")]
    if let Some(d) = rd() {
        for tile in 0..N_TILES {
            d.on_write(0, w as u32, race_keys::slot_tile(t, tile));
        }
    }

    // Phase 1: forward + softmax backward for every sample.
    let t0 = ctx.lanes.map(|l| l[w].now_us());
    let mut loss = 0.0f64;
    let mut k = 0usize;
    for m in 0..ctx.accumulation {
        for j in chunk.start..chunk.end {
            // SAFETY: shard reads are shared; workspace `k` of slot `t`
            // is this task's alone.
            let (s, ws) = unsafe { (&*shard_ptr.add(m * ctx.batch + j), &mut *ws_ptr.add(k)) };
            loss += net.phase_forward_softmax(s, ws);
            k += 1;
        }
    }
    // SAFETY: loss slot `t` is this task's alone; read after the barrier.
    unsafe { *ctx.loss_ptr.add(t) = loss };
    if let (Some(lanes), Some(t0)) = (ctx.lanes, t0) {
        let now = lanes[w].now_us();
        lanes[w].record_args("FORWARD", "forward+softmax", t0, now - t0, ctx.step_index, t as u64);
    }

    // Phases 2–4: per-layer backward over the same samples, bumping the
    // tile counter after each; the finishing worker reduces in-line.
    backward_phase(ctx, t, w, 2, "backward_head", |net, _s, ws, gw, gb| {
        net.phase_backward_head(ws, gw, gb);
    });
    backward_phase(ctx, t, w, 1, "backward_mid", |net, _s, ws, gw, gb| {
        net.phase_backward_mid(ws, gw, gb);
    });
    backward_phase(ctx, t, w, 0, "backward_input", |net, s, ws, gw, gb| {
        net.phase_backward_input(s, ws, gw, gb);
    });
}

/// Run one backward phase of task `t` over all its samples, then bump
/// tile `tile`'s counter; if this was the last outstanding task for the
/// tile, run its cross-replica reduction right here.
// lint: hot-path
fn backward_phase(
    ctx: &StepCtx<'_>,
    t: usize,
    w: usize,
    tile: usize,
    name: &'static str,
    phase: impl Fn(&SegNet, &Sample, &mut Workspace, &mut [f32], &mut [f32]),
) {
    let (r, c) = (t / ctx.chunks, t % ctx.chunks);
    // SAFETY: see `run_task` — shared net read, exclusive slot access.
    let net = unsafe { &*ctx.nets[r] };
    let (shard_ptr, _) = ctx.shards[r];
    let chunk = chunk_range(ctx.batch, ctx.chunks, c);
    let (ws_ptr, _) = ctx.ws_ptrs[t];
    let g = ctx.grad_ptrs[t];
    let (wb, bb) = (ctx.blocks[2 * tile], ctx.blocks[2 * tile + 1]);

    let t0 = ctx.lanes.map(|l| l[w].now_us());
    let mut k = 0usize;
    for m in 0..ctx.accumulation {
        for j in chunk.start..chunk.end {
            // SAFETY: the weight/bias gradient blocks of slot `t` are
            // written only by this task until the counter bump below;
            // the two blocks are disjoint ranges of the slot vector.
            let (gw, gb) = unsafe { (tile_slice_mut(g, wb), tile_slice_mut(g, bb)) };
            let (s, ws) = unsafe { (&*shard_ptr.add(m * ctx.batch + j), &mut *ws_ptr.add(k)) };
            phase(net, s, ws, gw, gb);
            k += 1;
        }
    }
    if let (Some(lanes), Some(t0)) = (ctx.lanes, t0) {
        let now = lanes[w].now_us();
        lanes[w].record_args("BACKWARD", name, t0, now - t0, ctx.step_index, tile as u64);
    }
    // AcqRel: the final decrement acquires every task's writes to this
    // tile, so the reduction below reads fully-published slot data.
    #[cfg(feature = "race-detect")]
    if let Some(d) = rd() {
        // The release half is hooked *before* the real decrement (and
        // the acquire half after a winning one) so the detector sees
        // the two halves in real decrement order — see `race_keys`.
        d.on_write(0, w as u32, race_keys::slot_tile(t, tile));
        d.sync_event(0, w as u32, race_keys::counter_obj(tile), trace::SyncKind::Release);
    }
    if ctx.counters[tile].fetch_sub(1, Ordering::AcqRel) == 1 {
        #[cfg(feature = "race-detect")]
        if let Some(d) = rd() {
            d.sync_event(0, w as u32, race_keys::counter_obj(tile), trace::SyncKind::Acquire);
        }
        reduce_tile(ctx, tile, w);
    }
}

/// Cross-replica reduction of one parameter tile: fold the chunk slots
/// into each replica's slot 0 (fixed chunk order), scale to the local
/// batch mean, apply the codec's wire loss (fused with the scale for
/// plain fp16; error-feedback compensated when enabled), sum across
/// replicas in rank order, and average. Runs on whichever worker
/// finished the tile last, concurrently with the remaining backprop
/// phases of the other tiles.
// lint: hot-path
fn reduce_tile(ctx: &StepCtx<'_>, tile: usize, w: usize) {
    let span = (ctx.tiles[tile].0, ctx.tiles[tile].1);
    let wall = Instant::now();
    let t0 = ctx.lanes.map(|l| l[w].now_us());
    // SAFETY: exactly one reduction runs per tile per step, so scratch
    // set `tile` has no other user for the duration of this call.
    let scratch = unsafe { &mut *ctx.scratch[tile] };
    #[cfg(feature = "race-detect")]
    if let Some(d) = rd() {
        for r in 0..ctx.replicas {
            // The fold reads every chunk slot and accumulates into the
            // replica's slot 0.
            for c in 1..ctx.chunks {
                d.on_read(0, w as u32, race_keys::slot_tile(r * ctx.chunks + c, tile));
            }
            d.on_write(0, w as u32, race_keys::slot_tile(r * ctx.chunks, tile));
        }
        d.on_write(0, w as u32, race_keys::reduced_tile(tile));
    }
    for r in 0..ctx.replicas {
        // SAFETY: every task finished writing this tile (counter proof),
        // and concurrent tasks only touch *other* tiles' ranges of
        // these slot vectors — disjoint memory.
        let dst = unsafe { tile_slice_mut(ctx.grad_ptrs[r * ctx.chunks], span) };
        for c in 1..ctx.chunks {
            let src = unsafe { tile_slice(ctx.grad_ptrs[r * ctx.chunks + c], span) };
            combine_sum(dst, src);
        }
        match (ctx.codec, ctx.error_feedback) {
            (CodecKind::None, _) => finalize(ReduceOp::Average, dst, ctx.batch * ctx.accumulation),
            (CodecKind::Fp16, false) => {
                // Fused: batch-mean scale + f16 pack + unpack, one pass.
                fp16::scale_roundtrip(dst, ctx.inv_local);
            }
            (codec, ef) => {
                finalize(ReduceOp::Average, dst, ctx.batch * ctx.accumulation);
                if ef {
                    // SAFETY: concurrent reductions touch other tiles'
                    // disjoint `span` ranges of the residual buffers.
                    let res = unsafe { tile_slice_mut(ctx.ef[r], span) };
                    compression::ef_roundtrip(codec, dst, res, scratch);
                } else {
                    compression::roundtrip(codec, dst, scratch);
                }
            }
        }
    }
    // SAFETY: only this reduction writes the `span` range of `reduced`
    // this step (one reduction per tile), and the submitter reads it
    // only after the pool barrier.
    let red = unsafe { tile_slice_mut(ctx.reduced, span) };
    red.copy_from_slice(unsafe { tile_slice(ctx.grad_ptrs[0], span) });
    for r in 1..ctx.replicas {
        let src = unsafe { tile_slice(ctx.grad_ptrs[r * ctx.chunks], span) };
        combine_sum(red, src);
    }
    finalize(ReduceOp::Average, red, ctx.replicas);
    ctx.reduce_ns.fetch_add(wall.elapsed().as_nanos() as u64, Ordering::Relaxed); // lint: allow(relaxed): reduce_ns is a stats cell read after the pool barrier
    if let (Some(lanes), Some(t0)) = (ctx.lanes, t0) {
        let now = lanes[w].now_us();
        lanes[w].record_args(
            "MPI_ALLREDUCE",
            "tile_allreduce",
            t0,
            now - t0,
            tile as u64,
            (span.1 - span.0) as u64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::real::net::BatchWorkspace;
    use crate::real::sgd::LrSchedule;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn tiny_cfg() -> NetConfig {
        NetConfig { height: 6, width: 5, cin: 2, hidden1: 3, hidden2: 4, n_classes: 3, k: 3 }
    }

    fn random_shard(cfg: &NetConfig, rng: &mut StdRng, n: usize) -> Vec<Sample> {
        let npix = cfg.height * cfg.width;
        (0..n)
            .map(|_| Sample {
                pixels: (0..cfg.cin * npix).map(|_| rng.gen::<f32>() * 2.0 - 1.0).collect(),
                labels: (0..npix).map(|_| rng.gen_range(0..cfg.n_classes) as u8).collect(),
            })
            .collect()
    }

    fn build(cfg: &NetConfig, replicas: usize, seed: u64) -> (Vec<SegNet>, Vec<MomentumSgd>) {
        let nets: Vec<SegNet> = (0..replicas).map(|_| SegNet::new(*cfg, seed)).collect();
        let n = nets[0].n_params();
        let opts = (0..replicas)
            .map(|_| MomentumSgd::new(LrSchedule::constant(0.05, 100), 0.9, n))
            .collect();
        (nets, opts)
    }

    /// The pipelined step must match the classic bulk-synchronous math:
    /// mean gradient per replica, averaged across replicas, one
    /// momentum-SGD update — within reassociation tolerance.
    #[test]
    fn pipelined_step_matches_classic_math() {
        let cfg = tiny_cfg();
        let (mut nets, mut opts) = build(&cfg, 3, 7);
        let mut rng = StdRng::seed_from_u64(11);
        let shards: Vec<Vec<Sample>> = (0..3).map(|_| random_shard(&cfg, &mut rng, 4)).collect();

        // Classic reference: per-replica batch mean, cross-replica mean.
        let reference = {
            let net = SegNet::new(cfg, 7);
            let mut bw = BatchWorkspace::new(&cfg);
            let mut global = vec![0.0f32; net.n_params()];
            let mut loss_sum = 0.0;
            for shard in &shards {
                loss_sum += net.batch_loss_grad_ws(shard, &mut bw);
                for (a, g) in global.iter_mut().zip(&bw.grad) {
                    *a += g;
                }
            }
            for g in &mut global {
                *g /= shards.len() as f32;
            }
            let mut params: Vec<f32> = net.params().to_vec();
            let mut opt = MomentumSgd::new(LrSchedule::constant(0.05, 100), 0.9, net.n_params());
            opt.apply(&mut params, &global);
            (params, loss_sum / shards.len() as f64)
        };

        let mut exec = PipelineExecutor::new(&cfg, 3, 4, 1, 2);
        let mean = exec.step(nets.iter_mut().zip(opts.iter_mut()), &shards, CodecKind::None, false);
        assert!((mean - reference.1).abs() < 1e-6, "loss {mean} vs {}", reference.1);
        for (i, (got, want)) in nets[0].params().iter().zip(&reference.0).enumerate() {
            assert!(
                (got - want).abs() <= 1e-4 * (1.0 + want.abs()),
                "param {i}: pipelined {got} vs classic {want}"
            );
        }
        // Replica consistency: every net took the identical update.
        for net in &nets[1..] {
            assert_eq!(net.params(), nets[0].params(), "replicas diverged");
        }
    }

    /// Scheduling must not leak into the numbers: any worker count
    /// produces bit-identical parameters (fixed chunk fold order).
    #[test]
    fn result_is_bitwise_independent_of_worker_count() {
        let cfg = tiny_cfg();
        let mut rng = StdRng::seed_from_u64(3);
        let shards: Vec<Vec<Sample>> = (0..2).map(|_| random_shard(&cfg, &mut rng, 5)).collect();
        let mut outcomes = Vec::new();
        for workers in [1usize, 2, 3] {
            let (mut nets, mut opts) = build(&cfg, 2, 99);
            let mut exec = PipelineExecutor::new(&cfg, 2, 5, 2, workers);
            let doubled: Vec<Vec<Sample>> =
                shards.iter().map(|s| [s.clone(), s.clone()].concat()).collect();
            let loss =
                exec.step(nets.iter_mut().zip(opts.iter_mut()), &doubled, CodecKind::None, false);
            outcomes.push((loss, nets[0].params().to_vec()));
        }
        for o in &outcomes[1..] {
            assert_eq!(o.0.to_bits(), outcomes[0].0.to_bits(), "loss differs across workers");
            let same = o.1.iter().zip(&outcomes[0].1).all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "parameters differ across worker counts");
        }
    }

    /// Repeated runs from the same state are bit-identical — the
    /// fold-slot discipline makes stealing invisible.
    #[test]
    fn step_is_deterministic_across_runs() {
        let cfg = tiny_cfg();
        let mut rng = StdRng::seed_from_u64(21);
        let shards: Vec<Vec<Sample>> = (0..2).map(|_| random_shard(&cfg, &mut rng, 6)).collect();
        let mut first: Option<Vec<f32>> = None;
        for _ in 0..3 {
            let (mut nets, mut opts) = build(&cfg, 2, 5);
            let mut exec = PipelineExecutor::new(&cfg, 2, 6, 1, 3);
            for _ in 0..2 {
                exec.step(nets.iter_mut().zip(opts.iter_mut()), &shards, CodecKind::None, false);
            }
            match &first {
                None => first = Some(nets[0].params().to_vec()),
                Some(f) => {
                    let same =
                        f.iter().zip(nets[0].params()).all(|(a, b)| a.to_bits() == b.to_bits());
                    assert!(same, "two identical runs diverged");
                }
            }
        }
    }

    /// The fused fp16 reduction equals compress-then-average by hand.
    #[test]
    fn fp16_step_matches_composed_compress() {
        let cfg = tiny_cfg();
        let mut rng = StdRng::seed_from_u64(31);
        let shards: Vec<Vec<Sample>> = (0..2).map(|_| random_shard(&cfg, &mut rng, 3)).collect();

        let reference = {
            let net = SegNet::new(cfg, 13);
            let mut bw = BatchWorkspace::new(&cfg);
            let mut global = vec![0.0f32; net.n_params()];
            for shard in &shards {
                net.batch_loss_grad_ws(shard, &mut bw);
                let mut g = bw.grad.clone();
                fp16::roundtrip_slice(&mut g);
                for (a, gi) in global.iter_mut().zip(&g) {
                    *a += gi;
                }
            }
            for g in &mut global {
                *g /= shards.len() as f32;
            }
            global
        };

        let (mut nets, mut opts) = build(&cfg, 2, 13);
        let mut exec = PipelineExecutor::new(&cfg, 2, 3, 1, 2);
        exec.step(nets.iter_mut().zip(opts.iter_mut()), &shards, CodecKind::Fp16, false);
        for (i, (got, want)) in exec.reduced().iter().zip(&reference).enumerate() {
            assert!(
                (got - want).abs() <= 1e-3 * (1.0 + want.abs()),
                "reduced[{i}]: fused {got} vs composed {want}"
            );
        }
    }
}
