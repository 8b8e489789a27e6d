//! Real execution: run a [`Schedule`] across OS threads with actual data.
//!
//! One thread per rank — a lane of the rank set's own
//! [`CorePool`], since rank bodies block on each other and all have to
//! run at once — each running the crate's one rank body,
//! [`PeerExecutor`], over its endpoint of an in-process
//! [`ChannelWire`] mesh. Every [`ExecContext`] entry point (plain,
//! traced, codec-compressed) is the same call (`RankSet::run`); they
//! differ in the [`CodecKind`] the executors are given and in whether
//! an [`ExecTrace`] lane is attached. What this module adds is what has
//! to happen *around* that call: verification before any rank body
//! runs, and the rank set kept warm between calls. Faults and deaths
//! are not this module's business: a fault plan goes on the link as a
//! [`FaultWire`](crate::exec_fault::FaultWire), and what a death does
//! to a training run is the trainer's commit protocol.
//!
//! **Deadlock-freedom** is not an informal argument about send
//! hoisting: [`Schedule::validate`] delegates to the `verifier` crate,
//! whose happens-before analysis ([`verifier::hb`]) proves the
//! waits-for graph over receives acyclic under the *weaker* in-order
//! issue model — every receive's matching send is reachable without
//! waiting on that receive, transitively. Any schedule passing that
//! proof cannot deadlock here, where sends are additionally hoisted to
//! the start of each round (phase A) and channels are unbounded. The
//! context runs that verifier on every schedule it has not seen
//! before, *before* any rank body runs, and remembers the verdict by
//! schedule fingerprint.
//!
//! **The rank set is cached.** Everything whose size depends on the
//! world or the payload — the mesh's channels and its payload pool,
//! the rank threads, each executor's queues, resend buffers, codec
//! scratch — is built once per world size and parked in the context
//! between calls, so a loop holding an [`ExecContext`] pays for
//! construction once and a warm call creates no thread and runs the
//! schedule without allocating (`tests/exec_alloc.rs`).
//!
//! This is the executor the collectives' own suites and the benchmark's
//! thread cells drive — the same algorithm schedules the simulator
//! times are the ones the real gradients travel through.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use faults::RetryPolicy;
use trace::{Lane, TraceRecorder};
use transport::{ChannelWire, Wire};

use crate::compression::CodecKind;
use crate::exec_fault::FaultSink;
use crate::exec_peer::{CtlSignal, PeerExecutor, PeerState};
use crate::pool::CorePool;
use crate::reduce::{finalize, ReduceOp};
use crate::sched::{Schedule, Violation};

/// Structured executor failure: every way a call can refuse comes back
/// as a value the caller can route on, before any rank body runs.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// `buffers.len()` disagrees with the schedule's rank count.
    BufferCount { expected: usize, got: usize },
    /// One rank's buffer length disagrees with the schedule's element
    /// count.
    BufferLen { rank: usize, expected: usize, got: usize },
    /// The schedule failed static verification before any thread spawned.
    Rejected(Vec<Violation>),
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
        }
    }
}

impl std::error::Error for ExecError {}

/// Chrome `tid` of the executor (communication) thread within a rank.
const TID_COMM: u32 = 1;

/// Per-rank trace lanes: rank id → a [`Lane`] of one shared
/// [`TraceRecorder`] (rank → Chrome `pid`, executor thread → `tid`), so
/// every rank body records its SEND/RECV/RETRY spans into its own row
/// of the combined trace. Lane lookup happens once per rank body as it
/// starts; recording afterwards is the recorder's no-alloc ring write.
///
/// The map is keyed by the rank ids a run addresses its ranks by:
/// `0..n` for an [`ExecContext`] call, *original* world ids under a
/// [`FaultSession`](crate::exec_fault::FaultSession), so a rank keeps
/// its trace row across degradations.
#[derive(Debug, Clone, Default)]
pub struct ExecTrace {
    lanes: Vec<(usize, Lane)>,
}

impl ExecTrace {
    /// Register one "comm" lane per id in `rank_ids` (id → Chrome pid).
    pub fn comm(recorder: &TraceRecorder, rank_ids: &[usize]) -> Self {
        let lanes = rank_ids
            .iter()
            .map(|&r| (r, recorder.lane(r as u32, TID_COMM, &format!("rank {r}"), "comm")))
            .collect();
        ExecTrace { lanes }
    }

    /// The lane registered for `rank`, if any.
    pub fn lane(&self, rank: usize) -> Option<&Lane> {
        self.lanes.iter().find(|(r, _)| *r == rank).map(|(_, l)| l)
    }

    /// Registered lane count.
    pub fn len(&self) -> usize {
        self.lanes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.lanes.is_empty()
    }
}

/// What one call asks of [`ExecContext::execute`] beyond its schedule,
/// buffers and op; the default is a plain [`ExecContext::run`].
#[derive(Clone, Copy, Default)]
pub(crate) struct Call<'a> {
    /// How segments cross the mesh.
    pub(crate) codec: CodecKind,
    /// Lanes for SEND/RECV spans.
    pub(crate) trace: Option<&'a ExecTrace>,
    /// Apply the op's finalization after the schedule.
    pub(crate) finish: bool,
}

/// One mesh, its executors and the threads that run them, parked
/// between calls (see the module docs). `ranks[i]` is rank `i` and runs
/// on lane `i` of `pool`.
struct RankSet {
    ranks: Vec<Rank>,
    /// One lane per rank: rank bodies block on each other's sends, so
    /// every one of them needs a thread of its own for the whole call.
    pool: CorePool,
}

/// One rank's endpoint of the mesh and its parked executor.
struct Rank {
    wire: ChannelWire,
    parked: PeerState,
}

impl RankSet {
    fn new(n: usize) -> Self {
        let ranks = ChannelWire::mesh(n)
            .into_iter()
            .map(|wire| {
                let parked = PeerExecutor::new(&wire, RetryPolicy::patient()).park();
                Rank { wire, parked }
            })
            .collect();
        RankSet { ranks, pool: CorePool::new(n) }
    }

    /// The one place a schedule's rank bodies run: lane `i` resumes rank
    /// `i`'s parked executor over its endpoint of the mesh, runs the
    /// schedule on its buffer, and parks again; a warm call creates no
    /// thread. Lossless channels between ranks that cannot die never
    /// need a resend, so the executors run on a patient policy and no
    /// rank body can fail.
    fn run(
        &mut self,
        schedule: &Schedule,
        buffers: &mut [Vec<f32>],
        op: ReduceOp,
        call: &Call<'_>,
    ) {
        self.pool.run_zip(&mut self.ranks, buffers, |local, rank, buf| {
            let parked = std::mem::take(&mut rank.parked);
            let mut exec = PeerExecutor::resume(&rank.wire, RetryPolicy::patient(), parked)
                .with_codec(call.codec);
            if let Some(lane) = call.trace.and_then(|t| t.lane(local)) {
                exec = exec.with_sink(FaultSink::lane_only(lane.clone()));
            }
            let ids = rank.wire.world_ids();
            let outcome = exec.run(schedule, buf, op, ids, &mut || CtlSignal::Continue);
            if let Err(e) = outcome {
                unreachable!("rank {local} of a lossless in-process mesh stopped: {e}");
            }
            rank.parked = exec.park();
        });
    }

    fn data_bytes(&self) -> u64 {
        self.ranks.iter().map(|r| r.parked.stats.data_bytes).sum()
    }
}

/// A reusable threaded-allreduce executor owning the rank set.
///
/// Construct once, call [`ExecContext::allreduce`] every step: the
/// mesh, its payload buffers and the per-rank executors carry over from
/// call to call.
///
/// Verification happens *before* any rank body runs: every schedule
/// this context has not executed before goes through the full static
/// verifier (structural + determinism + happens-before); the set of
/// already-verified schedule fingerprints is memoized so a loop
/// re-running one schedule pays the analysis once and a warm call
/// allocates nothing.
#[derive(Default)]
pub struct ExecContext {
    /// The rank set of the last call. Held only to take or park the
    /// set, never across a run, so a poisoned lock still holds a whole
    /// `Option`.
    ranks: Mutex<Option<RankSet>>,
    /// Payload bytes this context's runs have put on their wires.
    wire_bytes: AtomicU64,
    /// Fingerprints of schedules already proven clean by this context.
    /// A panic cannot half-insert one, so a poisoned memo is still true.
    verified: Mutex<std::collections::HashSet<u64>>,
}

impl fmt::Debug for ExecContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ranks = self.ranks.lock().unwrap_or_else(PoisonError::into_inner);
        let n = ranks.as_ref().map(|set| set.ranks.len());
        f.debug_struct("ExecContext").field("ranks", &n).finish_non_exhaustive()
    }
}

/// A structure-sensitive fingerprint: two schedules collide only if
/// every round, rank, and action agrees. The verification memo keys on
/// it.
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

    /// A context that eagerly runs the verifier on `schedule` and
    /// memoizes it as verified — the constructor the training loop uses
    /// so the per-step path never re-analyzes.
    pub fn for_schedule(schedule: &Schedule) -> Result<Self, ExecError> {
        let ctx = Self::new();
        ctx.verify_before_spawn(schedule)?;
        Ok(ctx)
    }

    /// Full verification of unseen schedules, memoized. Fails with the
    /// structured violation list on a bad schedule — crucially, before
    /// any channel is created or thread spawned.
    fn verify_before_spawn(&self, schedule: &Schedule) -> Result<(), ExecError> {
        let fp = schedule_fingerprint(schedule);
        let verified = || self.verified.lock().unwrap_or_else(PoisonError::into_inner);
        if verified().contains(&fp) {
            return Ok(());
        }
        schedule.validate().map_err(ExecError::Rejected)?;
        verified().insert(fp);
        Ok(())
    }

    /// Buffer shape checks and pre-spawn verification.
    fn preflight(&self, schedule: &Schedule, buffers: &[Vec<f32>]) -> Result<(), ExecError> {
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

    /// Every entry point's body: verify, run one [`PeerExecutor`] per
    /// rank over the cached mesh, park the set again.
    pub(crate) fn execute(
        &self,
        schedule: &Schedule,
        buffers: &mut [Vec<f32>],
        op: ReduceOp,
        call: Call<'_>,
    ) -> Result<(), ExecError> {
        self.preflight(schedule, buffers)?;
        let n = schedule.n_ranks;
        if n > 1 && !schedule.rounds.is_empty() {
            let ranks = || self.ranks.lock().unwrap_or_else(PoisonError::into_inner);
            let mut set = ranks()
                .take()
                .filter(|set| set.ranks.len() == n)
                .unwrap_or_else(|| RankSet::new(n));
            let before = set.data_bytes();
            set.run(schedule, buffers, op, &call);
            self.wire_bytes.fetch_add(set.data_bytes() - before, Ordering::Relaxed); // lint: allow(relaxed): byte statistic; the rank threads that moved the bytes are joined
            *ranks() = Some(set);
        }
        if call.finish {
            for b in buffers.iter_mut() {
                finalize(op, b, n);
            }
        }
        Ok(())
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
        self.execute(schedule, buffers, op, Call::default())
    }

    /// Full threaded allreduce: run the schedule and finalize the op.
    pub fn allreduce(
        &self,
        schedule: &Schedule,
        buffers: &mut [Vec<f32>],
        op: ReduceOp,
    ) -> Result<(), ExecError> {
        self.execute(schedule, buffers, op, Call { finish: true, ..Call::default() })
    }

    /// Threaded allreduce with codec-compressed payloads: every hop
    /// encodes its segment through `codec` before the send and decodes
    /// on receipt, so the bytes that cross rank boundaries are the
    /// codec's wire format (see [`exec_peer`](crate::exec_peer) on what
    /// that does to the numbers). `CodecKind::None` is
    /// [`ExecContext::allreduce`], bit for bit.
    pub fn allreduce_compressed(
        &self,
        schedule: &Schedule,
        buffers: &mut [Vec<f32>],
        op: ReduceOp,
        codec: CodecKind,
    ) -> Result<(), ExecError> {
        self.execute(schedule, buffers, op, Call { codec, finish: true, ..Call::default() })
    }

    /// Payload bytes this context's runs have put on their wires,
    /// resends included: Σ over ranks of [`WireStats::data_bytes`]
    /// (`encoded_len` per send under a codec, 4 per element without).
    ///
    /// [`WireStats::data_bytes`]: crate::exec_peer::WireStats::data_bytes
    pub fn wire_bytes(&self) -> u64 {
        self.wire_bytes.load(Ordering::Relaxed) // lint: allow(relaxed): byte statistic; written after the rank threads join
    }
}

/// Execute `schedule` with a throwaway [`ExecContext`]. Long-lived
/// callers should hold their own context so the rank set survives
/// across steps.
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
    fn corrupted_schedule_rejected_before_any_thread_spawns() {
        // Drop rank 1's receive: rank 0's send dangles. The
        // verification gate must return a structured error before any
        // mesh is built or rank thread spawns — no panic, no partial
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
    fn for_schedule_context_computes_correctly() {
        let (n, e) = (5usize, 257usize);
        let s = ring::allreduce(n, e);
        let ctx = ExecContext::for_schedule(&s).expect("valid schedule");
        let ins = inputs(n, e);
        let mut bufs = ins.clone();
        ctx.allreduce(&s, &mut bufs, ReduceOp::Sum).unwrap();
        assert_allreduce_result(&ins, &bufs, ReduceOp::Sum, 1e-3);
    }

    #[test]
    fn traced_run_records_per_rank_lanes_without_changing_results() {
        let (n, e) = (4usize, 64usize);
        let s = ring::allreduce(n, e);
        let ins = inputs(n, e);
        let mut plain = ins.clone();
        allreduce(&s, &mut plain, ReduceOp::Sum).unwrap();

        let rec = TraceRecorder::new();
        let t = ExecTrace::comm(&rec, &(0..n).collect::<Vec<_>>());
        let ctx = ExecContext::for_schedule(&s).unwrap();
        let mut traced = ins.clone();
        let call = Call { trace: Some(&t), finish: true, ..Call::default() };
        ctx.execute(&s, &mut traced, ReduceOp::Sum, call).unwrap();
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
    fn compressed_traced_records_wire_bytes_in_send_spans() {
        let (n, e) = (4usize, 512usize);
        let s = ring::allreduce(n, e);
        let rec = TraceRecorder::new();
        let t = ExecTrace::comm(&rec, &(0..n).collect::<Vec<_>>());
        let ctx = ExecContext::for_schedule(&s).unwrap();
        let mut bufs = inputs(n, e);
        let call = Call { codec: CodecKind::Fp16, trace: Some(&t), finish: true };
        ctx.execute(&s, &mut bufs, ReduceOp::Sum, call).unwrap();
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
    fn trace_lanes_key_by_rank_id() {
        let rec = TraceRecorder::new();
        let world = ExecTrace::comm(&rec, &[0, 1, 3, 4]);
        assert_eq!(world.len(), 4);
        assert_eq!(world.lane(3).map(Lane::pid), Some(3));
        assert!(world.lane(2).is_none());
        assert_eq!(rec.lane_count(), 4);
    }

    #[test]
    fn traced_spans_land_on_the_rank_pid() {
        let rec = TraceRecorder::new();
        let t = ExecTrace::comm(&rec, &[0, 7]);
        let lane = t.lane(7).expect("registered");
        lane.record_args("SEND", "send", 1.0, 2.0, 0, 64);
        let snap = rec.snapshot();
        assert_eq!(snap.pids(), vec![0, 7]);
        let l7 = snap.lanes.iter().find(|l| l.pid == 7).expect("pid 7 lane");
        assert_eq!(l7.tid, TID_COMM);
        assert_eq!(l7.spans[0].cat, "SEND");
    }

    /// The parked rank set serves every kind of call in any order and is
    /// rebuilt when the world size changes; every call still lands
    /// bit-exactly.
    #[test]
    fn one_context_serves_plain_and_coded_calls_across_world_sizes() {
        let (n, e) = (4usize, 96usize);
        let s = ring::allreduce(n, e);
        let ins = inputs(n, e);
        let mut want = ins.clone();
        allreduce(&s, &mut want, ReduceOp::Sum).unwrap();
        let mut want_int8 = ins.clone();
        ExecContext::new()
            .allreduce_compressed(&s, &mut want_int8, ReduceOp::Sum, CodecKind::Int8)
            .unwrap();

        let ctx = ExecContext::for_schedule(&s).unwrap();
        let plain = |ctx: &ExecContext| {
            let mut bufs = ins.clone();
            ctx.allreduce(&s, &mut bufs, ReduceOp::Sum).unwrap();
            assert_eq!(bufs, want);
        };
        plain(&ctx);
        assert!(ctx.ranks.lock().unwrap().is_some(), "a call parks its rank set");
        let mut coded = ins.clone();
        ctx.allreduce_compressed(&s, &mut coded, ReduceOp::Sum, CodecKind::Int8).unwrap();
        assert_eq!(coded, want_int8, "a warm set changes codec between calls");
        plain(&ctx);

        // Three ranks: a different mesh, then back to four.
        let s3 = ring::allreduce(3, e);
        let mut three = inputs(3, e);
        let mut want3 = three.clone();
        allreduce(&s3, &mut want3, ReduceOp::Sum).unwrap();
        ctx.allreduce(&s3, &mut three, ReduceOp::Sum).unwrap();
        assert_eq!(three, want3);
        plain(&ctx);
    }
}
