//! Real execution: run a [`Schedule`] across OS threads with actual data.
//!
//! One thread per rank; messages travel over crossbeam channels (one
//! channel per ordered rank pair, so FIFO order within a pair gives us
//! free round sequencing). Deadlock-freedom is not an informal argument
//! about this executor's send hoisting anymore: [`Schedule::validate`]
//! delegates to the `verifier` crate, whose happens-before analysis
//! ([`verifier::hb`]) proves the waits-for graph over receives acyclic
//! under the *weaker* in-order issue model — every receive's matching
//! send is reachable without waiting on that receive, transitively. Any
//! schedule passing that proof cannot deadlock here, where sends are
//! additionally hoisted to the start of each round (phase A) and
//! channels are unbounded. In debug builds the executor runs the full
//! verifier on every schedule it has not seen before, *before* spawning
//! any rank thread; release builds keep the cheap structural check per
//! call (same cost as the old ad-hoc `validate`).
//!
//! Payload buffers are **pooled**: a send acquires a recycled `Vec<f32>`
//! from the executor's [`PayloadPool`] instead of allocating, and the
//! receiver returns the buffer to the pool once it has been reduced in.
//! Hold an [`ExecContext`] across calls (the training loop does) and the
//! steady state performs zero payload-buffer allocations — the pool
//! reaches its high-water mark during the first allreduce and every
//! later send reuses a pooled buffer ([`ExecContext::payload_allocations`]
//! exposes the counter the tests assert on).
//!
//! This is the executor the accuracy experiment trains with — the same
//! algorithm schedules the simulator times are the ones the real
//! gradients travel through.

use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;

use trace::Lane;

use crate::compression::{codec_for, Codec, CodecKind, EncodeScratch};
use crate::exec_trace::ExecTrace;
use crate::reduce::{combine, finalize, ReduceOp};
use crate::sched::{Action, Schedule, Violation};

/// A message: `(round, offset, payload)` — enough to assert the receiver
/// got what the schedule says it should.
type Msg = (usize, usize, Vec<f32>);

/// A compressed message: same header, codec-encoded payload bytes.
type MsgEnc = (usize, usize, Vec<u8>);

/// Structured executor failure. The old behavior — asserting on
/// buffer/rank mismatches and panicking on verification failure — is
/// gone: every way a run can refuse or abort now comes back as a value
/// the caller (the trainer, the elastic layer) can route on.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// `buffers.len()` disagrees with the schedule's rank count.
    BufferCount { expected: usize, got: usize },
    /// One rank's buffer length disagrees with the schedule's element
    /// count.
    BufferLen { rank: usize, expected: usize, got: usize },
    /// The schedule failed static verification before any thread spawned.
    Rejected(Vec<Violation>),
    /// Ranks died (injected crash, or a peer exhausted its retry budget
    /// and declared them dead). The collective aborted; buffers are in
    /// an unspecified partial state and must be restored by the caller.
    /// Ranks are reported as *local indices* into the buffer slice.
    RanksDead { dead: Vec<usize> },
    /// A rank gave up waiting on a peer that never disconnected — the
    /// retry budget ran out with the peer silent but alive.
    RetriesExhausted { rank: usize, peer: usize, round: usize },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::BufferCount { expected, got } => {
                write!(f, "expected one buffer per rank ({expected}), got {got}")
            }
            ExecError::BufferLen { rank, expected, got } => {
                write!(f, "rank {rank} buffer holds {got} elems, schedule wants {expected}")
            }
            ExecError::Rejected(violations) => {
                write!(f, "schedule failed verification before thread spawn: {violations:?}")
            }
            ExecError::RanksDead { dead } => write!(f, "ranks {dead:?} died mid-collective"),
            ExecError::RetriesExhausted { rank, peer, round } => {
                write!(f, "rank {rank} exhausted retries waiting on {peer} in round {round}")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// A recycling free-list of payload buffers shared by all rank threads.
///
/// `acquire_copy` pops a pooled buffer (allocating a fresh one only when
/// the pool is dry) and fills it from a source slice; `release` returns
/// a consumed payload. The counters record every fresh buffer and every
/// capacity growth, so "zero steady-state allocation" is a testable
/// property rather than a comment.
#[derive(Debug, Default)]
pub struct PayloadPool {
    free: Mutex<Vec<Vec<f32>>>,
    /// Encoded-payload byte buffers for the compressed wire path.
    free_bytes: Mutex<Vec<Vec<u8>>>,
    /// Codec scratch sets: one checked out per rank thread for the
    /// duration of a compressed run, parked here between runs.
    scratch: Mutex<Vec<EncodeScratch>>,
    /// High-water capacity hint: fresh and undersized buffers are sized
    /// to this up front (the executor sets it to `schedule.n_elems`, an
    /// upper bound on any segment), so capacity growth happens at most
    /// once per buffer rather than once per size class encountered.
    hint: AtomicUsize,
    /// Same, for encoded byte buffers (`codec.encoded_len(n_elems)`).
    byte_hint: AtomicUsize,
    fresh: AtomicUsize,
    grown: AtomicUsize,
    /// Cumulative encoded payload bytes pushed by compressed runs, and
    /// the raw f32 bytes they stand in for — the wire-byte ledger the
    /// trace metrics and benches read.
    wire_sent: AtomicU64,
    raw_sent: AtomicU64,
}

/// A frozen copy of a pool's allocator counters — the anchor for
/// per-run deltas. Retried/degraded collectives rebuild their
/// [`ExecContext`] but keep the recycled buffers; snapshotting at run
/// boundaries keeps zero-allocation assertions from being polluted by
/// a retry's warm-up (see [`ExecContext::counter_snapshot`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolCounters {
    pub fresh: usize,
    pub grown: usize,
}

impl PoolCounters {
    /// Total allocator events in this snapshot.
    pub fn total(&self) -> usize {
        self.fresh + self.grown
    }
}

impl PayloadPool {
    /// Raise the capacity hint (never lowers it).
    pub(crate) fn reserve_hint(&self, len: usize) {
        self.hint.fetch_max(len, Ordering::Relaxed); // lint: allow(relaxed): monotonic capacity hint; a stale read only costs one realloc
    }

    /// A payload holding a copy of `src`, recycled when possible.
    pub(crate) fn acquire_copy(&self, src: &[f32]) -> Vec<f32> {
        let want = self.hint.load(Ordering::Relaxed).max(src.len()); // lint: allow(relaxed): monotonic capacity hint; a stale read only costs one realloc
        let mut buf = match self.free.lock().pop() {
            Some(b) => b,
            None => {
                self.fresh.fetch_add(1, Ordering::Relaxed); // lint: allow(relaxed): allocator statistic; buffers themselves hand off through the free-list mutex
                Vec::with_capacity(want)
            }
        };
        buf.clear();
        if buf.capacity() < want {
            self.grown.fetch_add(1, Ordering::Relaxed); // lint: allow(relaxed): allocator statistic; buffers themselves hand off through the free-list mutex
            buf.reserve(want);
        }
        buf.extend_from_slice(src);
        buf
    }

    pub(crate) fn release(&self, buf: Vec<f32>) {
        self.free.lock().push(buf);
    }

    /// Raise the encoded-byte capacity hint (never lowers it).
    pub(crate) fn reserve_byte_hint(&self, len: usize) {
        self.byte_hint.fetch_max(len, Ordering::Relaxed); // lint: allow(relaxed): monotonic capacity hint; a stale read only costs one realloc
    }

    /// An empty byte buffer for a codec encode, recycled when possible.
    /// Counts against the same fresh/grown ledger as the f32 buffers.
    pub(crate) fn acquire_bytes(&self) -> Vec<u8> {
        let want = self.byte_hint.load(Ordering::Relaxed); // lint: allow(relaxed): monotonic capacity hint; a stale read only costs one realloc
        let mut buf = match self.free_bytes.lock().pop() {
            Some(b) => b,
            None => {
                self.fresh.fetch_add(1, Ordering::Relaxed); // lint: allow(relaxed): allocator statistic; buffers themselves hand off through the free-list mutex
                Vec::with_capacity(want)
            }
        };
        buf.clear();
        if buf.capacity() < want {
            self.grown.fetch_add(1, Ordering::Relaxed); // lint: allow(relaxed): allocator statistic; buffers themselves hand off through the free-list mutex
            buf.reserve(want);
        }
        buf
    }

    pub(crate) fn release_bytes(&self, buf: Vec<u8>) {
        self.free_bytes.lock().push(buf);
    }

    /// A zero-filled f32 buffer of exactly `len` elements (the decode
    /// destination), recycled when possible.
    pub(crate) fn acquire_f32_len(&self, len: usize) -> Vec<f32> {
        let want = self.hint.load(Ordering::Relaxed).max(len); // lint: allow(relaxed): monotonic capacity hint; a stale read only costs one realloc
        let mut buf = match self.free.lock().pop() {
            Some(b) => b,
            None => {
                self.fresh.fetch_add(1, Ordering::Relaxed); // lint: allow(relaxed): allocator statistic; buffers themselves hand off through the free-list mutex
                Vec::with_capacity(want)
            }
        };
        buf.clear();
        if buf.capacity() < want {
            self.grown.fetch_add(1, Ordering::Relaxed); // lint: allow(relaxed): allocator statistic; buffers themselves hand off through the free-list mutex
            buf.reserve(want);
        }
        buf.resize(len, 0.0);
        buf
    }

    /// A codec scratch set (fresh sets cost nothing until first use;
    /// their internal buffers warm to the high-water size and recycle).
    pub(crate) fn acquire_scratch(&self) -> EncodeScratch {
        self.scratch.lock().pop().unwrap_or_default()
    }

    pub(crate) fn release_scratch(&self, s: EncodeScratch) {
        self.scratch.lock().push(s);
    }

    /// Record one compressed payload: `wire` encoded bytes standing in
    /// for `raw` f32 bytes.
    pub(crate) fn count_wire(&self, wire: usize, raw: usize) {
        self.wire_sent.fetch_add(wire as u64, Ordering::Relaxed); // lint: allow(relaxed): wire-byte ledger; read after the run joins, no payload data rides on it
        self.raw_sent.fetch_add(raw as u64, Ordering::Relaxed); // lint: allow(relaxed): wire-byte ledger; read after the run joins, no payload data rides on it
    }

    /// Cumulative encoded bytes pushed by compressed runs.
    pub fn wire_bytes(&self) -> u64 {
        self.wire_sent.load(Ordering::Relaxed) // lint: allow(relaxed): wire-byte ledger; read after the run joins, no payload data rides on it
    }

    /// Cumulative raw f32 bytes those encoded payloads stand in for.
    pub fn raw_bytes(&self) -> u64 {
        self.raw_sent.load(Ordering::Relaxed) // lint: allow(relaxed): wire-byte ledger; read after the run joins, no payload data rides on it
    }

    /// Total allocator events so far: fresh buffers plus capacity
    /// growths. Flat across calls ⇔ the steady state allocates nothing.
    pub fn allocations(&self) -> usize {
        self.fresh.load(Ordering::Relaxed) + self.grown.load(Ordering::Relaxed) // lint: allow(relaxed): allocator statistic read after the run joins
    }

    /// A frozen copy of the allocator counters (for per-run deltas).
    pub fn counters(&self) -> PoolCounters {
        PoolCounters {
            fresh: self.fresh.load(Ordering::Relaxed), // lint: allow(relaxed): allocator statistic read after the run joins
            grown: self.grown.load(Ordering::Relaxed), // lint: allow(relaxed): allocator statistic read after the run joins
        }
    }

    /// Reset the allocator counters to zero, leaving the recycled
    /// buffers (and the capacity hint) in place. Used when a context is
    /// rebuilt around an inherited pool so the new context's
    /// zero-allocation accounting starts clean.
    pub fn reset_counters(&self) {
        self.fresh.store(0, Ordering::Relaxed); // lint: allow(relaxed): counter reset happens between runs, single-threaded
        self.grown.store(0, Ordering::Relaxed); // lint: allow(relaxed): counter reset happens between runs, single-threaded
    }

    /// Move every parked buffer out of `other` into this pool, adopting
    /// the larger capacity hint. The buffers were already paid for; the
    /// adopting pool's counters do not change.
    pub(crate) fn absorb_free_from(&self, other: &PayloadPool) {
        let mut donated = std::mem::take(&mut *other.free.lock());
        self.reserve_hint(other.hint.load(Ordering::Relaxed)); // lint: allow(relaxed): monotonic capacity hint; a stale read only costs one realloc
        self.free.lock().append(&mut donated);
        let mut donated_bytes = std::mem::take(&mut *other.free_bytes.lock());
        self.reserve_byte_hint(other.byte_hint.load(Ordering::Relaxed)); // lint: allow(relaxed): monotonic capacity hint; a stale read only costs one realloc
        self.free_bytes.lock().append(&mut donated_bytes);
        let mut donated_scratch = std::mem::take(&mut *other.scratch.lock());
        self.scratch.lock().append(&mut donated_scratch);
    }

    /// Buffers currently parked in the pool.
    pub fn pooled(&self) -> usize {
        self.free.lock().len()
    }
}

/// A reusable threaded-allreduce executor owning the payload pool.
///
/// Construct once, call [`ExecContext::allreduce`] every step: payload
/// buffers recycle across rounds *and* across calls.
///
/// Verification happens *before* any rank thread spawns. In debug
/// builds every schedule this context has not executed before goes
/// through the full static verifier (structural + determinism +
/// happens-before); the set of already-verified schedule fingerprints
/// is memoized so a training loop re-running one schedule pays the
/// analysis once. Release builds run the structural layer only.
#[derive(Debug, Default)]
pub struct ExecContext {
    pool: PayloadPool,
    /// Fingerprints of schedules already proven clean by this context.
    #[cfg(debug_assertions)]
    verified: Mutex<std::collections::HashSet<u64>>,
}

/// A structure-sensitive fingerprint: two schedules collide only if
/// every round, rank, and action agrees. Only the debug-build
/// memoization path keys on it.
#[cfg(debug_assertions)]
fn schedule_fingerprint(schedule: &Schedule) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    schedule.n_ranks.hash(&mut h);
    schedule.n_elems.hash(&mut h);
    for round in &schedule.rounds {
        round.per_rank.hash(&mut h);
    }
    h.finish()
}

impl ExecContext {
    pub fn new() -> Self {
        Self::default()
    }

    /// A context that eagerly runs the *full* verifier on `schedule`
    /// (all builds), pre-sizes the payload pool for it, and memoizes it
    /// as verified — the constructor the training loop uses so the
    /// per-step path never re-analyzes.
    pub fn for_schedule(schedule: &Schedule) -> Result<Self, ExecError> {
        schedule.validate().map_err(ExecError::Rejected)?;
        let ctx = Self::new();
        ctx.pool.reserve_hint(schedule.n_elems);
        #[cfg(debug_assertions)]
        ctx.verified.lock().insert(schedule_fingerprint(schedule));
        Ok(ctx)
    }

    /// Like [`ExecContext::for_schedule`], but inheriting the recycled
    /// payload buffers of a previous context — the elastic degradation
    /// path rebuilds its context around the surviving ranks without
    /// re-allocating (or double-counting) the warm pool. The new
    /// context's counters start at zero.
    pub fn for_schedule_with_pool(
        schedule: &Schedule,
        donor: &ExecContext,
    ) -> Result<Self, ExecError> {
        let ctx = Self::for_schedule(schedule)?;
        ctx.pool.absorb_free_from(&donor.pool);
        Ok(ctx)
    }

    /// Debug builds: full verification of unseen schedules, memoized.
    /// Fails with the structured violation list on a bad schedule —
    /// crucially, before any channel is created or thread spawned.
    #[cfg(debug_assertions)]
    fn verify_before_spawn(&self, schedule: &Schedule) -> Result<(), ExecError> {
        let fp = schedule_fingerprint(schedule);
        if self.verified.lock().contains(&fp) {
            return Ok(());
        }
        schedule.validate().map_err(ExecError::Rejected)?;
        self.verified.lock().insert(fp);
        Ok(())
    }

    /// Release builds: the cheap structural layer on every call (the
    /// same cost the old ad-hoc validate paid).
    #[cfg(not(debug_assertions))]
    fn verify_before_spawn(&self, schedule: &Schedule) -> Result<(), ExecError> {
        let violations = verifier::verify_structural(&schedule.to_ir());
        if violations.is_empty() {
            Ok(())
        } else {
            Err(ExecError::Rejected(violations))
        }
    }

    /// Shared preamble of every execution path: buffer shape checks and
    /// pre-spawn verification.
    pub(crate) fn preflight(
        &self,
        schedule: &Schedule,
        buffers: &[Vec<f32>],
    ) -> Result<(), ExecError> {
        if buffers.len() != schedule.n_ranks {
            return Err(ExecError::BufferCount { expected: schedule.n_ranks, got: buffers.len() });
        }
        for (rank, b) in buffers.iter().enumerate() {
            if b.len() != schedule.n_elems {
                return Err(ExecError::BufferLen {
                    rank,
                    expected: schedule.n_elems,
                    got: b.len(),
                });
            }
        }
        self.verify_before_spawn(schedule)
    }

    /// Execute `schedule` on real buffers, one thread per rank.
    ///
    /// Buffers are modified in place; no finalization (callers apply
    /// [`finalize`] for Average — or use [`ExecContext::allreduce`]).
    pub fn run(
        &self,
        schedule: &Schedule,
        buffers: &mut [Vec<f32>],
        op: ReduceOp,
    ) -> Result<(), ExecError> {
        self.run_traced(schedule, buffers, op, None)
    }

    /// [`ExecContext::run`] with per-rank trace lanes: each rank thread
    /// records a SEND span per payload pushed and a RECV span per
    /// blocking receive (wait + reduce) into `trace`'s lane for its
    /// *local* rank index. Lane lookup happens before the threads
    /// spawn; recording is the no-alloc ring write, so a traced run
    /// stays inside the zero-allocation budget.
    pub fn run_traced(
        &self,
        schedule: &Schedule,
        buffers: &mut [Vec<f32>],
        op: ReduceOp,
        trace: Option<&ExecTrace>,
    ) -> Result<(), ExecError> {
        self.preflight(schedule, buffers)?;
        let n = schedule.n_ranks;
        if n == 1 || schedule.rounds.is_empty() {
            return Ok(());
        }
        // Any segment is a sub-range of the rank buffer, so `n_elems`
        // bounds every payload; pre-sizing to it makes capacity growth a
        // once-per-buffer event.
        self.pool.reserve_hint(schedule.n_elems);

        // tx[src][dst] / rx[dst][src]
        let mut tx: Vec<Vec<Option<Sender<Msg>>>> =
            (0..n).map(|_| (0..n).map(|_| None).collect()).collect();
        let mut rx: Vec<Vec<Option<Receiver<Msg>>>> =
            (0..n).map(|_| (0..n).map(|_| None).collect()).collect();
        for s in 0..n {
            for d in 0..n {
                if s != d {
                    let (t, r) = unbounded();
                    tx[s][d] = Some(t);
                    rx[d][s] = Some(r);
                }
            }
        }

        std::thread::scope(|scope| {
            for (rank, buf) in buffers.iter_mut().enumerate() {
                let tx_row = std::mem::take(&mut tx[rank]);
                let rx_row = std::mem::take(&mut rx[rank]);
                let sched = &*schedule;
                let pool = &self.pool;
                let lane = trace.and_then(|t| t.lane(rank));
                scope.spawn(move || {
                    rank_main(rank, buf, sched, op, tx_row, rx_row, pool, lane);
                });
            }
        });
        Ok(())
    }

    /// Full threaded allreduce: run the schedule and finalize the op.
    pub fn allreduce(
        &self,
        schedule: &Schedule,
        buffers: &mut [Vec<f32>],
        op: ReduceOp,
    ) -> Result<(), ExecError> {
        self.allreduce_traced(schedule, buffers, op, None)
    }

    /// [`ExecContext::allreduce`] with per-rank trace lanes (see
    /// [`ExecContext::run_traced`]).
    pub fn allreduce_traced(
        &self,
        schedule: &Schedule,
        buffers: &mut [Vec<f32>],
        op: ReduceOp,
        trace: Option<&ExecTrace>,
    ) -> Result<(), ExecError> {
        self.run_traced(schedule, buffers, op, trace)?;
        for b in buffers.iter_mut() {
            finalize(op, b, schedule.n_ranks);
        }
        Ok(())
    }

    /// Threaded allreduce with codec-compressed payloads: every hop
    /// encodes its segment through `codec` before the channel push and
    /// decodes on receipt, so the bytes that cross rank boundaries are
    /// the codec's wire format. Lossy codecs make this an *approximate*
    /// allreduce (quantization error compounds per hop) — it is still
    /// bit-deterministic across runs, because the codecs are
    /// CPU-independent and every rank's combine order is fixed by the
    /// schedule. `CodecKind::None` degrades to the identity wire format
    /// and matches [`ExecContext::allreduce`] bit-for-bit.
    ///
    /// Encoded buffers, decode destinations, and codec scratch all come
    /// from the payload pool: the steady state allocates nothing, the
    /// same property the raw path proves.
    pub fn allreduce_compressed(
        &self,
        schedule: &Schedule,
        buffers: &mut [Vec<f32>],
        op: ReduceOp,
        codec: CodecKind,
    ) -> Result<(), ExecError> {
        self.allreduce_compressed_traced(schedule, buffers, op, codec, None)
    }

    /// [`ExecContext::allreduce_compressed`] with per-rank trace lanes.
    /// SEND spans record the *encoded* byte count, so a trace of a
    /// compressed run shows the actual wire traffic.
    pub fn allreduce_compressed_traced(
        &self,
        schedule: &Schedule,
        buffers: &mut [Vec<f32>],
        op: ReduceOp,
        codec: CodecKind,
        trace: Option<&ExecTrace>,
    ) -> Result<(), ExecError> {
        self.run_compressed_traced(schedule, buffers, op, codec, trace)?;
        for b in buffers.iter_mut() {
            finalize(op, b, schedule.n_ranks);
        }
        Ok(())
    }

    fn run_compressed_traced(
        &self,
        schedule: &Schedule,
        buffers: &mut [Vec<f32>],
        op: ReduceOp,
        codec: CodecKind,
        trace: Option<&ExecTrace>,
    ) -> Result<(), ExecError> {
        self.preflight(schedule, buffers)?;
        let n = schedule.n_ranks;
        if n == 1 || schedule.rounds.is_empty() {
            return Ok(());
        }
        self.pool.reserve_hint(schedule.n_elems);
        self.pool.reserve_byte_hint(codec.encoded_len(schedule.n_elems));
        let codec: &'static dyn Codec = codec_for(codec);

        let mut tx: Vec<Vec<Option<Sender<MsgEnc>>>> =
            (0..n).map(|_| (0..n).map(|_| None).collect()).collect();
        let mut rx: Vec<Vec<Option<Receiver<MsgEnc>>>> =
            (0..n).map(|_| (0..n).map(|_| None).collect()).collect();
        for s in 0..n {
            for d in 0..n {
                if s != d {
                    let (t, r) = unbounded();
                    tx[s][d] = Some(t);
                    rx[d][s] = Some(r);
                }
            }
        }

        std::thread::scope(|scope| {
            for (rank, buf) in buffers.iter_mut().enumerate() {
                let tx_row = std::mem::take(&mut tx[rank]);
                let rx_row = std::mem::take(&mut rx[rank]);
                let sched = &*schedule;
                let pool = &self.pool;
                let lane = trace.and_then(|t| t.lane(rank));
                scope.spawn(move || {
                    rank_main_compressed(rank, buf, sched, op, codec, tx_row, rx_row, pool, lane);
                });
            }
        });
        Ok(())
    }

    /// Cumulative encoded bytes this context's compressed runs pushed.
    pub fn wire_bytes(&self) -> u64 {
        self.pool.wire_bytes()
    }

    /// Cumulative raw f32 bytes those encoded payloads replaced.
    pub fn raw_bytes(&self) -> u64 {
        self.pool.raw_bytes()
    }

    /// Payload-buffer allocator events so far (see
    /// [`PayloadPool::allocations`]).
    pub fn payload_allocations(&self) -> usize {
        self.pool.allocations()
    }

    /// Freeze the pool's allocator counters — the anchor for
    /// [`ExecContext::payload_allocations_since`].
    pub fn counter_snapshot(&self) -> PoolCounters {
        self.pool.counters()
    }

    /// Allocator events since `snapshot` was taken on this context.
    /// Zero across a window ⇔ every payload in the window recycled.
    pub fn payload_allocations_since(&self, snapshot: PoolCounters) -> usize {
        self.pool.allocations() - snapshot.total()
    }

    /// Payload buffers currently recycled and idle in the pool.
    pub fn pooled_buffers(&self) -> usize {
        self.pool.pooled()
    }
}

// Instrumentation inside this function must stay on the no-alloc
// recorder API (`record`/`record_args`); the ring write is the only
// trace cost the steady-state step pays.
// lint: hot-path
#[allow(clippy::too_many_arguments)]
fn rank_main(
    rank: usize,
    buf: &mut [f32],
    schedule: &Schedule,
    op: ReduceOp,
    tx: Vec<Option<Sender<Msg>>>,
    rx: Vec<Option<Receiver<Msg>>>,
    pool: &PayloadPool,
    lane: Option<&Lane>,
) {
    for (round_idx, round) in schedule.rounds.iter().enumerate() {
        let actions = &round.per_rank[rank];
        // Phase A: materialize and push all outgoing payloads. Payloads
        // are copied before any receive mutates the buffer, giving the
        // pre-round snapshot semantics exchanges rely on.
        for a in actions {
            if let Action::Send { peer, seg } = *a {
                let t0 = lane.map(Lane::now_us);
                let payload = pool.acquire_copy(&buf[seg.offset..seg.end()]);
                tx[peer]
                    .as_ref()
                    .expect("send to self is rejected by the verifier") // lint: allow(unwrap): SelfMessage rule proven before spawn
                    .send((round_idx, seg.offset, payload))
                    .expect("receiver thread hung up"); // lint: allow(unwrap): scoped threads outlive the round
                if let (Some(l), Some(t0)) = (lane, t0) {
                    // a1 is wire bytes, same convention as the
                    // compressed path — the critical-path analyzer's
                    // wire ledger sums it.
                    l.record_args(
                        "SEND",
                        "send",
                        t0,
                        l.now_us() - t0,
                        peer as u64,
                        4 * seg.len as u64,
                    );
                }
            }
        }
        // Phase B: block on receives in action order.
        for a in actions {
            match *a {
                Action::Send { .. } => {}
                Action::RecvReduce { peer, seg } | Action::RecvReplace { peer, seg } => {
                    let t0 = lane.map(Lane::now_us);
                    let (r, off, payload) = rx[peer]
                        .as_ref()
                        .expect("recv from self is rejected by the verifier") // lint: allow(unwrap): SelfMessage rule proven before spawn
                        .recv()
                        .expect("sender thread hung up"); // lint: allow(unwrap): UnmatchedRecv + DeadlockCycle rules proven before spawn
                    assert_eq!(r, round_idx, "rank {rank}: out-of-round message from {peer}");
                    assert_eq!(off, seg.offset, "rank {rank}: segment mismatch from {peer}");
                    assert_eq!(payload.len(), seg.len, "rank {rank}: length mismatch from {peer}");
                    match a {
                        Action::RecvReduce { .. } => {
                            combine(op, &mut buf[seg.offset..seg.end()], &payload)
                        }
                        Action::RecvReplace { .. } => {
                            buf[seg.offset..seg.end()].copy_from_slice(&payload)
                        }
                        Action::Send { .. } => unreachable!(),
                    }
                    pool.release(payload);
                    if let (Some(l), Some(t0)) = (lane, t0) {
                        l.record_args(
                            "RECV",
                            "recv",
                            t0,
                            l.now_us() - t0,
                            peer as u64,
                            4 * seg.len as u64,
                        );
                    }
                }
            }
        }
    }
}

// Compressed twin of `rank_main`: encode before every channel push,
// decode into a pooled f32 buffer before every reduce. Same phase
// structure, same span cats — only the payload representation differs.
// The codec scratch is checked out once per thread, so the per-action
// cost is the encode/decode kernels plus two pool pops.
// lint: hot-path
#[allow(clippy::too_many_arguments)]
fn rank_main_compressed(
    rank: usize,
    buf: &mut [f32],
    schedule: &Schedule,
    op: ReduceOp,
    codec: &dyn Codec,
    tx: Vec<Option<Sender<MsgEnc>>>,
    rx: Vec<Option<Receiver<MsgEnc>>>,
    pool: &PayloadPool,
    lane: Option<&Lane>,
) {
    let mut scratch = pool.acquire_scratch();
    for (round_idx, round) in schedule.rounds.iter().enumerate() {
        let actions = &round.per_rank[rank];
        // Phase A: encode and push all outgoing payloads (pre-round
        // snapshot semantics, same as the raw path).
        for a in actions {
            if let Action::Send { peer, seg } = *a {
                let t0 = lane.map(Lane::now_us);
                let mut payload = pool.acquire_bytes();
                codec.encode(&buf[seg.offset..seg.end()], &mut payload, &mut scratch);
                let wire = payload.len();
                pool.count_wire(wire, 4 * seg.len);
                tx[peer]
                    .as_ref()
                    .expect("send to self is rejected by the verifier") // lint: allow(unwrap): SelfMessage rule proven before spawn
                    .send((round_idx, seg.offset, payload))
                    .expect("receiver thread hung up"); // lint: allow(unwrap): scoped threads outlive the round
                if let (Some(l), Some(t0)) = (lane, t0) {
                    l.record_args("SEND", "send", t0, l.now_us() - t0, peer as u64, wire as u64);
                }
            }
        }
        // Phase B: block on receives in action order.
        for a in actions {
            match *a {
                Action::Send { .. } => {}
                Action::RecvReduce { peer, seg } | Action::RecvReplace { peer, seg } => {
                    let t0 = lane.map(Lane::now_us);
                    let (r, off, payload) = rx[peer]
                        .as_ref()
                        .expect("recv from self is rejected by the verifier") // lint: allow(unwrap): SelfMessage rule proven before spawn
                        .recv()
                        .expect("sender thread hung up"); // lint: allow(unwrap): UnmatchedRecv + DeadlockCycle rules proven before spawn
                    assert_eq!(r, round_idx, "rank {rank}: out-of-round message from {peer}");
                    assert_eq!(off, seg.offset, "rank {rank}: segment mismatch from {peer}");
                    assert_eq!(
                        payload.len(),
                        codec.encoded_len(seg.len),
                        "rank {rank}: wire length mismatch from {peer}"
                    );
                    let mut dec = pool.acquire_f32_len(seg.len);
                    codec.decode(&payload, &mut dec, &mut scratch);
                    match a {
                        Action::RecvReduce { .. } => {
                            combine(op, &mut buf[seg.offset..seg.end()], &dec)
                        }
                        Action::RecvReplace { .. } => {
                            buf[seg.offset..seg.end()].copy_from_slice(&dec)
                        }
                        Action::Send { .. } => unreachable!(),
                    }
                    pool.release(dec);
                    pool.release_bytes(payload);
                    if let (Some(l), Some(t0)) = (lane, t0) {
                        l.record_args(
                            "RECV",
                            "recv",
                            t0,
                            l.now_us() - t0,
                            peer as u64,
                            codec.encoded_len(seg.len) as u64,
                        );
                    }
                }
            }
        }
    }
    pool.release_scratch(scratch);
}

/// Execute `schedule` with a throwaway [`ExecContext`] (buffers still
/// recycle within the call). Long-lived callers should hold their own
/// context so the pool survives across steps.
pub fn run(schedule: &Schedule, buffers: &mut [Vec<f32>], op: ReduceOp) -> Result<(), ExecError> {
    ExecContext::new().run(schedule, buffers, op)
}

/// Full threaded allreduce with a throwaway [`ExecContext`]: run the
/// schedule and finalize the op.
pub fn allreduce(
    schedule: &Schedule,
    buffers: &mut [Vec<f32>],
    op: ReduceOp,
) -> Result<(), ExecError> {
    ExecContext::new().allreduce(schedule, buffers, op)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchical::{self, LeaderAlgo, NodeGroups};
    use crate::reference::{assert_allreduce_result, expected_allreduce};
    use crate::{rabenseifner, rd, ring, tree};

    fn inputs(n_ranks: usize, n_elems: usize) -> Vec<Vec<f32>> {
        (0..n_ranks)
            .map(|r| (0..n_elems).map(|i| ((r * 29 + i * 5) % 17) as f32 * 0.5 - 4.0).collect())
            .collect()
    }

    #[test]
    fn threaded_ring_matches_reference() {
        for &(n, e) in &[(2usize, 16usize), (4, 100), (6, 17), (7, 33)] {
            let ins = inputs(n, e);
            let mut bufs = ins.clone();
            allreduce(&ring::allreduce(n, e), &mut bufs, ReduceOp::Sum).unwrap();
            assert_allreduce_result(&ins, &bufs, ReduceOp::Sum, 1e-3);
        }
    }

    #[test]
    fn threaded_rd_matches_reference() {
        for &n in &[2usize, 5, 8, 9] {
            let ins = inputs(n, 24);
            let mut bufs = ins.clone();
            allreduce(&rd::allreduce(n, 24), &mut bufs, ReduceOp::Sum).unwrap();
            assert_allreduce_result(&ins, &bufs, ReduceOp::Sum, 1e-3);
        }
    }

    #[test]
    fn threaded_rabenseifner_matches_reference() {
        for &n in &[2usize, 4, 6, 8, 11] {
            let ins = inputs(n, 37);
            let mut bufs = ins.clone();
            allreduce(&rabenseifner::allreduce(n, 37), &mut bufs, ReduceOp::Sum).unwrap();
            assert_allreduce_result(&ins, &bufs, ReduceOp::Sum, 1e-3);
        }
    }

    #[test]
    fn threaded_tree_matches_reference() {
        let ins = inputs(9, 12);
        let mut bufs = ins.clone();
        allreduce(&tree::allreduce(9, 12), &mut bufs, ReduceOp::Sum).unwrap();
        assert_allreduce_result(&ins, &bufs, ReduceOp::Sum, 1e-3);
    }

    #[test]
    fn threaded_hierarchical_matches_reference() {
        let (n, e) = (12usize, 50usize);
        let groups = NodeGroups::dense(n, 4);
        let s = hierarchical::allreduce(n, e, &groups, LeaderAlgo::Rabenseifner);
        let ins = inputs(n, e);
        let mut bufs = ins.clone();
        allreduce(&s, &mut bufs, ReduceOp::Sum).unwrap();
        assert_allreduce_result(&ins, &bufs, ReduceOp::Sum, 1e-3);
    }

    #[test]
    fn average_matches_expected() {
        let (n, e) = (4usize, 1000usize);
        let ins = inputs(n, e);
        let mut bufs = ins.clone();
        allreduce(&ring::allreduce(n, e), &mut bufs, ReduceOp::Average).unwrap();
        let want = expected_allreduce(&ins, ReduceOp::Average);
        for b in &bufs {
            for (g, w) in b.iter().zip(&want) {
                assert!((g - w).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn large_buffer_exercises_parallel_reduce() {
        let (n, e) = (4usize, 1 << 16);
        let ins: Vec<Vec<f32>> = (0..n).map(|r| vec![r as f32 + 1.0; e]).collect();
        let mut bufs = ins.clone();
        allreduce(&ring::allreduce(n, e), &mut bufs, ReduceOp::Sum).unwrap();
        assert!(bufs.iter().all(|b| b.iter().all(|&x| (x - 10.0).abs() < 1e-4)));
    }

    #[test]
    fn single_rank_noop() {
        let mut bufs = vec![vec![1.0, 2.0]];
        allreduce(&ring::allreduce(1, 2), &mut bufs, ReduceOp::Sum).unwrap();
        assert_eq!(bufs[0], vec![1.0, 2.0]);
    }

    #[test]
    fn deterministic_bitwise_across_runs() {
        // Same schedule + same inputs must give bit-identical results
        // (each rank's combine order is fixed by the schedule).
        let (n, e) = (6usize, 511usize);
        let ins = inputs(n, e);
        let mut a = ins.clone();
        let mut b = ins.clone();
        let s = ring::allreduce(n, e);
        allreduce(&s, &mut a, ReduceOp::Sum).unwrap();
        allreduce(&s, &mut b, ReduceOp::Sum).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn pooled_context_matches_throwaway() {
        // A long-lived context must compute exactly what fresh ones do.
        let (n, e) = (5usize, 97usize);
        let s = ring::allreduce(n, e);
        let ctx = ExecContext::new();
        for round in 0..3 {
            let ins = inputs(n, e);
            let mut a = ins.clone();
            let mut b = ins.clone();
            ctx.allreduce(&s, &mut a, ReduceOp::Sum).unwrap();
            allreduce(&s, &mut b, ReduceOp::Sum).unwrap();
            assert_eq!(a, b, "round {round}");
        }
    }

    #[test]
    fn steady_state_allocates_no_payload_buffers() {
        // The pool hits its high-water mark during the first few
        // allreduces (buffer count can creep while thread interleavings
        // vary); after that every call must recycle (zero fresh
        // buffers, zero capacity growths).
        let (n, e) = (6usize, 1024usize);
        let s = rabenseifner::allreduce(n, e);
        let ctx = ExecContext::new();
        for _ in 0..3 {
            let mut bufs = inputs(n, e);
            ctx.allreduce(&s, &mut bufs, ReduceOp::Average).unwrap();
        }
        let after_warmup = ctx.payload_allocations();
        assert!(after_warmup > 0, "warm-up must have populated the pool");
        for _ in 0..5 {
            let mut bufs = inputs(n, e);
            ctx.allreduce(&s, &mut bufs, ReduceOp::Average).unwrap();
        }
        assert_eq!(
            ctx.payload_allocations(),
            after_warmup,
            "steady-state allreduce allocated payload buffers"
        );
        assert!(ctx.pooled_buffers() > 0, "buffers must be parked between calls");
    }

    #[test]
    fn pool_recycles_within_a_single_call() {
        // Even a throwaway context recycles across rounds: a ring over
        // many rounds needs far fewer distinct buffers than sends.
        let (n, e) = (8usize, 4096usize);
        let s = ring::allreduce(n, e);
        let sends: usize = s
            .rounds
            .iter()
            .flat_map(|r| r.per_rank.iter())
            .flatten()
            .filter(|a| matches!(a, Action::Send { .. }))
            .count();
        let ctx = ExecContext::new();
        let mut bufs = inputs(n, e);
        ctx.allreduce(&s, &mut bufs, ReduceOp::Sum).unwrap();
        assert!(
            ctx.payload_allocations() < sends,
            "pool must recycle: {} allocations for {} sends",
            ctx.payload_allocations(),
            sends
        );
    }

    #[test]
    fn corrupted_schedule_rejected_before_any_thread_spawns() {
        // Drop rank 1's receive: rank 0's send dangles. The
        // verification gate must return a structured error before any
        // channel exists or rank thread spawns — no panic, no partial
        // execution.
        let mut s = ring::allreduce(4, 16);
        s.rounds[0].per_rank[1].retain(|a| a.is_send());
        let ctx = ExecContext::new();
        let ins = inputs(4, 16);
        let mut bufs = ins.clone();
        let err = ctx.run(&s, &mut bufs, ReduceOp::Sum).expect_err("must reject");
        let msg = err.to_string();
        assert!(msg.contains("before thread spawn"), "unexpected error: {msg}");
        assert!(msg.contains("UnmatchedSend") || msg.contains("UnmatchedRecv"), "{msg}");
        assert_eq!(bufs, ins, "rejected run must not touch the buffers");
    }

    #[test]
    fn buffer_mismatches_are_structured_errors() {
        let s = ring::allreduce(4, 16);
        let ctx = ExecContext::new();
        // Wrong rank count.
        let mut three = inputs(3, 16);
        assert_eq!(
            ctx.run(&s, &mut three, ReduceOp::Sum),
            Err(ExecError::BufferCount { expected: 4, got: 3 })
        );
        // Wrong buffer length on one rank.
        let mut bufs = inputs(4, 16);
        bufs[2].truncate(7);
        assert_eq!(
            ctx.run(&s, &mut bufs, ReduceOp::Sum),
            Err(ExecError::BufferLen { rank: 2, expected: 16, got: 7 })
        );
    }

    #[test]
    fn for_schedule_verifies_at_construction() {
        assert!(ExecContext::for_schedule(&ring::allreduce(4, 16)).is_ok());
        let mut bad = ring::allreduce(4, 16);
        bad.rounds[0].per_rank[1].clear();
        let err = ExecContext::for_schedule(&bad).expect_err("must reject broken schedule");
        assert!(matches!(err, ExecError::Rejected(ref v) if !v.is_empty()), "{err}");
    }

    #[test]
    fn counter_snapshots_isolate_runs() {
        let (n, e) = (4usize, 256usize);
        let s = ring::allreduce(n, e);
        let ctx = ExecContext::for_schedule(&s).expect("valid schedule");
        for _ in 0..3 {
            let mut bufs = inputs(n, e);
            ctx.allreduce(&s, &mut bufs, ReduceOp::Sum).unwrap();
        }
        let snap = ctx.counter_snapshot();
        let mut bufs = inputs(n, e);
        ctx.allreduce(&s, &mut bufs, ReduceOp::Sum).unwrap();
        assert_eq!(
            ctx.payload_allocations_since(snap),
            0,
            "steady-state window must be allocation-free relative to its snapshot"
        );
    }

    #[test]
    fn rebuilt_context_inherits_pool_with_clean_counters() {
        // The elastic degradation path rebuilds a context for the
        // surviving ranks; the recycled buffers must carry over and the
        // new context's accounting must start at zero, so a retried
        // collective cannot pollute zero-alloc assertions.
        let s4 = ring::allreduce(4, 128);
        let ctx4 = ExecContext::for_schedule(&s4).expect("valid");
        let mut bufs = inputs(4, 128);
        ctx4.allreduce(&s4, &mut bufs, ReduceOp::Sum).unwrap();
        assert!(ctx4.payload_allocations() > 0);
        assert!(ctx4.pooled_buffers() > 0);
        let donated = ctx4.pooled_buffers();

        let s3 = ring::allreduce(3, 128);
        let ctx3 = ExecContext::for_schedule_with_pool(&s3, &ctx4).expect("valid");
        assert_eq!(ctx3.payload_allocations(), 0, "inherited buffers are not new allocations");
        assert_eq!(ctx3.pooled_buffers(), donated, "warm pool must transfer");
        assert_eq!(ctx4.pooled_buffers(), 0, "donor pool is drained");
        let mut bufs3 = inputs(3, 128);
        ctx3.allreduce(&s3, &mut bufs3, ReduceOp::Sum).unwrap();
        assert_eq!(
            ctx3.payload_allocations(),
            0,
            "a 3-rank ring needs fewer buffers than the donated 4-rank pool holds"
        );
    }

    #[test]
    fn for_schedule_context_computes_correctly_and_presizes() {
        let (n, e) = (5usize, 257usize);
        let s = ring::allreduce(n, e);
        let ctx = ExecContext::for_schedule(&s).expect("valid schedule");
        let ins = inputs(n, e);
        let mut bufs = ins.clone();
        ctx.allreduce(&s, &mut bufs, ReduceOp::Sum).unwrap();
        assert_allreduce_result(&ins, &bufs, ReduceOp::Sum, 1e-3);
    }

    #[test]
    fn pool_recycles_across_size_classes() {
        let pool = PayloadPool::default();
        let big = vec![1.0f32; 1000];
        let small = vec![2.0f32; 10];
        let b1 = pool.acquire_copy(&big);
        assert_eq!(pool.allocations(), 1, "one fresh buffer");
        assert!(b1.capacity() >= 1000);
        pool.release(b1);
        // A smaller payload reuses the big buffer without growing.
        let b2 = pool.acquire_copy(&small);
        assert_eq!(pool.allocations(), 1);
        assert_eq!(b2.len(), 10);
        pool.release(b2);
        // Same-size again: still no new events.
        let b3 = pool.acquire_copy(&big);
        assert_eq!(pool.allocations(), 1);
        assert_eq!(b3[999], 1.0);
    }

    #[test]
    fn traced_run_records_per_rank_lanes_without_changing_results() {
        let (n, e) = (4usize, 64usize);
        let s = ring::allreduce(n, e);
        let ins = inputs(n, e);
        let mut plain = ins.clone();
        allreduce(&s, &mut plain, ReduceOp::Sum).unwrap();

        let rec = trace::TraceRecorder::new();
        let t = ExecTrace::comm(&rec, &(0..n).collect::<Vec<_>>());
        let ctx = ExecContext::for_schedule(&s).unwrap();
        let mut traced = ins.clone();
        ctx.allreduce_traced(&s, &mut traced, ReduceOp::Sum, Some(&t)).unwrap();
        assert_eq!(traced, plain, "tracing must not perturb the numbers");

        let snap = rec.snapshot();
        assert_eq!(snap.pids(), (0..n as u32).collect::<Vec<_>>());
        let sends: usize = s
            .rounds
            .iter()
            .flat_map(|r| r.per_rank.iter())
            .flatten()
            .filter(|a| a.is_send())
            .count();
        let recorded_sends: usize =
            snap.lanes.iter().flat_map(|l| l.spans.iter()).filter(|sp| sp.cat == "SEND").count();
        let recorded_recvs: usize =
            snap.lanes.iter().flat_map(|l| l.spans.iter()).filter(|sp| sp.cat == "RECV").count();
        assert_eq!(recorded_sends, sends, "one SEND span per schedule send");
        assert_eq!(recorded_recvs, sends, "one RECV span per matching receive");
    }

    #[test]
    fn traced_steady_state_stays_pool_allocation_free() {
        let (n, e) = (4usize, 512usize);
        let s = ring::allreduce(n, e);
        let rec = trace::TraceRecorder::new();
        let t = ExecTrace::comm(&rec, &(0..n).collect::<Vec<_>>());
        let ctx = ExecContext::for_schedule(&s).unwrap();
        for _ in 0..3 {
            let mut bufs = inputs(n, e);
            ctx.allreduce_traced(&s, &mut bufs, ReduceOp::Sum, Some(&t)).unwrap();
        }
        let snap = ctx.counter_snapshot();
        for _ in 0..3 {
            let mut bufs = inputs(n, e);
            ctx.allreduce_traced(&s, &mut bufs, ReduceOp::Sum, Some(&t)).unwrap();
        }
        assert_eq!(ctx.payload_allocations_since(snap), 0, "tracing must not cost payload buffers");
    }

    #[test]
    fn compressed_none_matches_uncompressed_bitwise() {
        let (n, e) = (5usize, 513usize);
        let s = ring::allreduce(n, e);
        let ins = inputs(n, e);
        let mut raw = ins.clone();
        allreduce(&s, &mut raw, ReduceOp::Sum).unwrap();
        let ctx = ExecContext::for_schedule(&s).unwrap();
        let mut comp = ins.clone();
        ctx.allreduce_compressed(&s, &mut comp, ReduceOp::Sum, CodecKind::None).unwrap();
        assert_eq!(raw, comp, "identity codec must not change a single bit");
    }

    #[test]
    fn compressed_allreduce_tracks_reference_within_codec_tolerance() {
        // Hop-wise lossy compression compounds per round; each codec's
        // tolerance is its per-hop half-step bound times the hop count,
        // against input sums bounded by |x| <= 4.5 per rank.
        let (n, e) = (4usize, 1000usize);
        let s = ring::allreduce(n, e);
        let ins = inputs(n, e);
        let want = expected_allreduce(&ins, ReduceOp::Sum);
        for (codec, tol) in
            [(CodecKind::Fp16, 0.05f32), (CodecKind::Int8, 0.75), (CodecKind::Int4, 12.0)]
        {
            let ctx = ExecContext::for_schedule(&s).unwrap();
            let mut bufs = ins.clone();
            ctx.allreduce_compressed(&s, &mut bufs, ReduceOp::Sum, codec).unwrap();
            for b in &bufs {
                for (i, (g, w)) in b.iter().zip(&want).enumerate() {
                    assert!((g - w).abs() <= tol, "{codec} elem {i}: got {g} want {w} tol {tol}");
                }
            }
        }
    }

    #[test]
    fn compressed_allreduce_is_bit_deterministic_across_runs() {
        let (n, e) = (6usize, 777usize);
        let s = rabenseifner::allreduce(n, e);
        for codec in CodecKind::ALL {
            let ins = inputs(n, e);
            let mut a = ins.clone();
            let mut b = ins.clone();
            let ctx = ExecContext::for_schedule(&s).unwrap();
            ctx.allreduce_compressed(&s, &mut a, ReduceOp::Sum, codec).unwrap();
            ctx.allreduce_compressed(&s, &mut b, ReduceOp::Sum, codec).unwrap();
            let bits = |v: &[Vec<f32>]| {
                v.iter().flat_map(|b| b.iter().map(|x| x.to_bits())).collect::<Vec<_>>()
            };
            assert_eq!(bits(&a), bits(&b), "{codec}: compressed allreduce must be deterministic");
        }
    }

    #[test]
    fn compressed_steady_state_allocates_no_pool_buffers() {
        let (n, e) = (4usize, 1024usize);
        let s = ring::allreduce(n, e);
        // Absolute worst case: with unbounded channels every payload in
        // the schedule could be in flight at once, so one buffer per
        // send (per pool) bounds peak demand regardless of interleaving.
        let sends = s
            .rounds
            .iter()
            .flat_map(|r| r.per_rank.iter())
            .flatten()
            .filter(|a| a.is_send())
            .count();
        for codec in [CodecKind::Fp16, CodecKind::Int8, CodecKind::TopK] {
            let ctx = ExecContext::for_schedule(&s).unwrap();
            for _ in 0..sends {
                ctx.pool.release(Vec::with_capacity(e));
                ctx.pool.release_bytes(Vec::with_capacity(codec.encoded_len(e)));
            }
            let snap = ctx.counter_snapshot();
            for _ in 0..5 {
                let mut bufs = inputs(n, e);
                ctx.allreduce_compressed(&s, &mut bufs, ReduceOp::Sum, codec).unwrap();
            }
            assert_eq!(
                ctx.payload_allocations_since(snap),
                0,
                "{codec}: compressed allreduce allocated despite a worst-case-sized pool"
            );
        }
    }

    #[test]
    fn wire_byte_ledger_matches_encoded_len_exactly() {
        let (n, e) = (4usize, 1000usize);
        let s = ring::allreduce(n, e);
        let expected_raw: u64 = s
            .rounds
            .iter()
            .flat_map(|r| r.per_rank.iter())
            .flatten()
            .filter_map(|a| match a {
                Action::Send { seg, .. } => Some(4 * seg.len as u64),
                _ => None,
            })
            .sum();
        let expected_wire: u64 = s
            .rounds
            .iter()
            .flat_map(|r| r.per_rank.iter())
            .flatten()
            .filter_map(|a| match a {
                Action::Send { seg, .. } => Some(CodecKind::Int8.encoded_len(seg.len) as u64),
                _ => None,
            })
            .sum();
        let ctx = ExecContext::for_schedule(&s).unwrap();
        let mut bufs = inputs(n, e);
        ctx.allreduce_compressed(&s, &mut bufs, ReduceOp::Sum, CodecKind::Int8).unwrap();
        assert_eq!(ctx.wire_bytes(), expected_wire, "wire ledger must bill encoded_len exactly");
        assert_eq!(ctx.raw_bytes(), expected_raw, "raw ledger must bill 4 bytes per element");
        assert!(
            ctx.raw_bytes() as f64 / ctx.wire_bytes() as f64 >= 3.5,
            "int8 must cut wire bytes at least 3.5x"
        );
    }

    #[test]
    fn compressed_traced_records_wire_bytes_in_send_spans() {
        let (n, e) = (4usize, 512usize);
        let s = ring::allreduce(n, e);
        let rec = trace::TraceRecorder::new();
        let t = ExecTrace::comm(&rec, &(0..n).collect::<Vec<_>>());
        let ctx = ExecContext::for_schedule(&s).unwrap();
        let mut bufs = inputs(n, e);
        ctx.allreduce_compressed_traced(&s, &mut bufs, ReduceOp::Sum, CodecKind::Fp16, Some(&t))
            .unwrap();
        let snap = rec.snapshot();
        let send_bytes: u64 = snap
            .lanes
            .iter()
            .flat_map(|l| l.spans.iter())
            .filter(|sp| sp.cat == "SEND")
            .map(|sp| sp.a1)
            .sum();
        assert_eq!(send_bytes, ctx.wire_bytes(), "SEND spans must carry encoded byte counts");
    }

    #[test]
    fn pool_hint_presizes_fresh_buffers() {
        let pool = PayloadPool::default();
        pool.reserve_hint(500);
        let b = pool.acquire_copy(&[1.0f32; 8]);
        assert!(b.capacity() >= 500, "fresh buffer must honor the hint");
        assert_eq!(pool.allocations(), 1);
        pool.release(b);
        // Raising the hint grows a recycled buffer exactly once.
        pool.reserve_hint(2000);
        let b = pool.acquire_copy(&[1.0f32; 8]);
        assert!(b.capacity() >= 2000);
        assert_eq!(pool.allocations(), 2, "one growth event");
        pool.release(b);
        let b = pool.acquire_copy(&[1.0f32; 8]);
        assert_eq!(pool.allocations(), 2, "no further events");
        drop(b);
    }
}
