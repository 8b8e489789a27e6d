//! Bounded interleaving model checking of the threaded executor's
//! concurrency protocols, via the vendored `interleave` explicit-state
//! checker (`vendor/interleave`).
//!
//! Two families of models:
//!
//! 1. [`PoolModel`] — the acquire/release protocol of the payload pool
//!    every wire recycles its frame buffers through (`transport`'s
//!    `BufPool`, reached via `Wire::release`), checked exhaustively on
//!    2- and 3-thread configurations. Buggy variants (double release,
//!    lost buffer) that the checker must refute prove the harness is
//!    not vacuous.
//! 2. [`ExecModel`] — real generated schedules (ring, recursive
//!    doubling, chunked ring; 2–3 ranks) executed over per-pair FIFO
//!    queues with small integer buffers. Every interleaving must be
//!    deadlock-free, drain every channel, and end with every rank
//!    holding the exact element-wise sums. A recv-before-send mutant
//!    shows the checker genuinely finds executor deadlocks.

use collectives::{Action, Algorithm, Schedule};
use interleave::{check, replay, Model, Options, Step, Verdict};

// ---------------------------------------------------------------------
// 1. Payload pool acquire/release
// ---------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq)]
enum PoolBug {
    None,
    /// Thread 0 keeps a stale handle after its final release and pushes
    /// it to the free list a second time.
    DoubleRelease,
    /// Thread 0 drops its buffer on the floor instead of releasing it
    /// on the final iteration.
    LostBuffer,
}

/// Faithful abstraction of `transport`'s `BufPool`: each thread loops
/// `iters` times over { acquire, release }. Acquire is one atomic step
/// (the real pool holds the mutex across `free.pop()`, minting a fresh
/// buffer only when the pool is dry); release is one atomic step
/// (`free.push`). Buffers are ids; `fresh` counts the ids minted, which
/// is what the conservation invariant balances against.
struct PoolModel {
    threads: usize,
    iters: u8,
    bug: PoolBug,
}

#[derive(Clone, Hash, PartialEq, Eq, Debug)]
struct PoolState {
    /// Free-list stack of buffer ids.
    free: Vec<u8>,
    /// The buffer each thread currently owns, if any.
    held: Vec<Option<u8>>,
    /// Ids minted so far (the allocation counter).
    fresh: u8,
    /// Per-thread step counter: even = acquire next, odd = release next.
    pc: Vec<u8>,
    /// Stale handle kept by the double-release bug.
    stale: Option<u8>,
}

impl PoolModel {
    fn steps_for(&self, tid: usize) -> u8 {
        let base = 2 * self.iters;
        if tid == 0 && self.bug == PoolBug::DoubleRelease {
            base + 1
        } else {
            base
        }
    }
}

impl Model for PoolModel {
    type State = PoolState;

    fn initial(&self) -> PoolState {
        PoolState {
            free: Vec::new(),
            held: vec![None; self.threads],
            fresh: 0,
            pc: vec![0; self.threads],
            stale: None,
        }
    }

    fn n_threads(&self) -> usize {
        self.threads
    }

    fn step(&self, s: &PoolState, tid: usize) -> Step<PoolState> {
        let pc = s.pc[tid];
        if pc >= self.steps_for(tid) {
            return Step::Done;
        }
        let mut st = s.clone();
        st.pc[tid] += 1;
        if pc == 2 * self.iters {
            // Double-release epilogue: push the stale handle again.
            st.free.push(st.stale.expect("stale handle recorded at final release"));
            return Step::Ready(st);
        }
        if pc.is_multiple_of(2) {
            // Acquire: pop the free list or mint a fresh id.
            let id = match st.free.pop() {
                Some(id) => id,
                None => {
                    let id = st.fresh;
                    st.fresh += 1;
                    id
                }
            };
            st.held[tid] = Some(id);
        } else {
            // Release.
            let id = st.held[tid].take().expect("release without a held buffer");
            let last = pc == 2 * self.iters - 1;
            match self.bug {
                PoolBug::LostBuffer if tid == 0 && last => {} // dropped on the floor
                PoolBug::DoubleRelease if tid == 0 && last => {
                    st.free.push(id);
                    st.stale = Some(id);
                }
                _ => st.free.push(id),
            }
        }
        Step::Ready(st)
    }

    fn invariant(&self, s: &PoolState) -> Result<(), String> {
        // No id may appear twice across the free list and all holders.
        let mut seen = std::collections::HashSet::new();
        for &id in &s.free {
            if !seen.insert(id) {
                return Err(format!("buffer {id} appears twice in the free list"));
            }
        }
        for (tid, held) in s.held.iter().enumerate() {
            if let Some(id) = held {
                if !seen.insert(*id) {
                    return Err(format!("buffer {id} owned twice (thread {tid} vs pool/peer)"));
                }
            }
        }
        // Conservation: every minted buffer is either free or held.
        let accounted = s.free.len() + s.held.iter().flatten().count();
        if accounted != s.fresh as usize {
            return Err(format!("{} buffers minted but {accounted} accounted for", s.fresh));
        }
        // Termination: everything returns to the pool.
        let all_done = (0..self.threads).all(|t| s.pc[t] >= self.steps_for(t));
        if all_done && s.free.len() != s.fresh as usize {
            return Err(format!(
                "terminated with {} of {} buffers in the pool",
                s.free.len(),
                s.fresh
            ));
        }
        Ok(())
    }
}

#[test]
fn pool_protocol_two_threads_exhaustive() {
    let r = check(&PoolModel { threads: 2, iters: 3, bug: PoolBug::None }, Options::default())
        .unwrap_or_else(|v| panic!("pool protocol refuted: {v}"));
    assert!(r.states > 10, "exploration must be non-trivial ({} states)", r.states);
}

#[test]
fn pool_protocol_three_threads_exhaustive() {
    let r = check(&PoolModel { threads: 3, iters: 2, bug: PoolBug::None }, Options::default())
        .unwrap_or_else(|v| panic!("pool protocol refuted: {v}"));
    assert!(r.states > 50, "exploration must be non-trivial ({} states)", r.states);
}

#[test]
fn pool_double_release_is_caught() {
    let model = PoolModel { threads: 2, iters: 1, bug: PoolBug::DoubleRelease };
    match check(&model, Options::default()) {
        Err(Verdict::InvariantViolated { schedule, state, reason }) => {
            assert!(
                reason.contains("twice") || reason.contains("accounted"),
                "unexpected reason: {reason}"
            );
            // The counterexample replays to the same violating state.
            let states = replay(&model, &schedule);
            assert_eq!(states.last(), Some(&state));
        }
        other => panic!("double release must violate an invariant, got {other:?}"),
    }
}

#[test]
fn pool_lost_buffer_is_caught() {
    let model = PoolModel { threads: 2, iters: 2, bug: PoolBug::LostBuffer };
    match check(&model, Options::default()) {
        Err(Verdict::InvariantViolated { reason, .. }) => {
            assert!(reason.contains("accounted"), "unexpected reason: {reason}");
        }
        other => panic!("lost buffer must violate conservation, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// 2. Real schedules over FIFO queues
// ---------------------------------------------------------------------

#[derive(Clone, Copy, Debug)]
enum EKind {
    Send,
    Reduce,
    Replace,
}

#[derive(Clone, Copy, Debug)]
struct EOp {
    round: usize,
    peer: usize,
    offset: usize,
    len: usize,
    kind: EKind,
}

/// A generated [`Schedule`] compiled to per-rank atomic-op programs and
/// executed over per-ordered-pair FIFO queues, mirroring the round
/// structure of `PeerExecutor::run` on a lossless wire: per round,
/// sends are issued first (phase A snapshot semantics), then receives
/// block in action order. Each
/// channel push/pop is one atomic step. Buffers hold small integers so
/// the final element-wise sums are exact.
struct ExecModel {
    n: usize,
    prog: Vec<Vec<EOp>>,
    init: Vec<Vec<i64>>,
    expected: Vec<i64>,
}

#[derive(Clone, Hash, PartialEq, Eq, Debug)]
struct ExecState {
    bufs: Vec<Vec<i64>>,
    /// FIFO per ordered pair: `queues[src * n + dst]`, messages are
    /// `(round, offset, payload)` as in the executor.
    queues: Vec<Vec<(usize, usize, Vec<i64>)>>,
    pc: Vec<usize>,
    /// Set when a popped message disagrees with the receiving action
    /// (wrong round, offset, or length) — must be unreachable.
    mismatch: bool,
}

impl ExecModel {
    /// Compile a schedule the way `PeerExecutor::run` consumes it.
    fn from_schedule(s: &Schedule) -> Self {
        let n = s.n_ranks;
        let mut prog: Vec<Vec<EOp>> = vec![Vec::new(); n];
        for (ri, round) in s.rounds.iter().enumerate() {
            for (rank, prog_r) in prog.iter_mut().enumerate() {
                let actions = &round.per_rank[rank];
                for a in actions {
                    if let Action::Send { peer, seg } = *a {
                        prog_r.push(EOp {
                            round: ri,
                            peer,
                            offset: seg.offset,
                            len: seg.len,
                            kind: EKind::Send,
                        });
                    }
                }
                for a in actions {
                    match *a {
                        Action::Send { .. } => {}
                        Action::RecvReduce { peer, seg } => prog_r.push(EOp {
                            round: ri,
                            peer,
                            offset: seg.offset,
                            len: seg.len,
                            kind: EKind::Reduce,
                        }),
                        Action::RecvReplace { peer, seg } => prog_r.push(EOp {
                            round: ri,
                            peer,
                            offset: seg.offset,
                            len: seg.len,
                            kind: EKind::Replace,
                        }),
                    }
                }
            }
        }
        let init: Vec<Vec<i64>> = (0..n)
            .map(|r| (0..s.n_elems).map(|i| ((r * 7 + i * 3) % 11) as i64 + 1).collect())
            .collect();
        let expected = (0..s.n_elems).map(|i| init.iter().map(|b| b[i]).sum()).collect();
        ExecModel { n, prog, init, expected }
    }
}

impl Model for ExecModel {
    type State = ExecState;

    fn initial(&self) -> ExecState {
        ExecState {
            bufs: self.init.clone(),
            queues: vec![Vec::new(); self.n * self.n],
            pc: vec![0; self.n],
            mismatch: false,
        }
    }

    fn n_threads(&self) -> usize {
        self.n
    }

    fn step(&self, s: &ExecState, tid: usize) -> Step<ExecState> {
        let ops = &self.prog[tid];
        if s.pc[tid] >= ops.len() {
            return Step::Done;
        }
        let op = ops[s.pc[tid]];
        match op.kind {
            EKind::Send => {
                let mut st = s.clone();
                st.pc[tid] += 1;
                let payload = st.bufs[tid][op.offset..op.offset + op.len].to_vec();
                st.queues[tid * self.n + op.peer].push((op.round, op.offset, payload));
                Step::Ready(st)
            }
            EKind::Reduce | EKind::Replace => {
                if s.queues[op.peer * self.n + tid].is_empty() {
                    return Step::Blocked;
                }
                let mut st = s.clone();
                st.pc[tid] += 1;
                let (round, offset, payload) = st.queues[op.peer * self.n + tid].remove(0);
                if round != op.round || offset != op.offset || payload.len() != op.len {
                    st.mismatch = true;
                    return Step::Ready(st);
                }
                let dst = &mut st.bufs[tid][op.offset..op.offset + op.len];
                match op.kind {
                    EKind::Reduce => {
                        for (d, p) in dst.iter_mut().zip(&payload) {
                            *d += p;
                        }
                    }
                    EKind::Replace => dst.copy_from_slice(&payload),
                    EKind::Send => unreachable!(),
                }
                Step::Ready(st)
            }
        }
    }

    fn invariant(&self, s: &ExecState) -> Result<(), String> {
        if s.mismatch {
            return Err("received message disagrees with the scheduled action".into());
        }
        let all_done = (0..self.n).all(|r| s.pc[r] >= self.prog[r].len());
        if all_done {
            if s.queues.iter().any(|q| !q.is_empty()) {
                return Err("terminated with undrained channels".into());
            }
            for (rank, buf) in s.bufs.iter().enumerate() {
                if buf != &self.expected {
                    return Err(format!(
                        "rank {rank} ended with {buf:?}, expected {:?}",
                        self.expected
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Exhaustively check one algorithm at (n_ranks, n_elems).
fn check_schedule(algo: Algorithm, n: usize, e: usize) {
    let s = algo.build(n, e);
    let model = ExecModel::from_schedule(&s);
    let r = check(&model, Options::default())
        .unwrap_or_else(|v| panic!("{algo} n={n} e={e} refuted: {v}"));
    assert!(r.states > n, "{algo} n={n}: exploration trivial ({} states)", r.states);
}

#[test]
fn ring_schedules_exhaustively_correct() {
    check_schedule(Algorithm::Ring, 2, 2);
    check_schedule(Algorithm::Ring, 3, 3);
}

#[test]
fn chunked_ring_exhaustively_correct() {
    check_schedule(Algorithm::ChunkedRing { chunks: 2 }, 2, 4);
    check_schedule(Algorithm::ChunkedRing { chunks: 2 }, 3, 4);
}

#[test]
fn recursive_doubling_exhaustively_correct() {
    check_schedule(Algorithm::RecursiveDoubling, 2, 2);
    // Non-power-of-two: exercises the fold/unfold RecvReplace path.
    check_schedule(Algorithm::RecursiveDoubling, 3, 2);
}

#[test]
fn recv_before_send_variant_deadlocks() {
    // Round 0 is a legal send-first exchange; round 1 issues the
    // receive *before* the send on both sides — the in-order issue
    // deadlock the verifier's happens-before rule rejects statically.
    // The checker must find it dynamically.
    let op = |round, peer, kind| EOp { round, peer, offset: 0, len: 1, kind };
    let prog = vec![
        vec![
            op(0, 1, EKind::Send),
            op(0, 1, EKind::Reduce),
            op(1, 1, EKind::Reduce),
            op(1, 1, EKind::Send),
        ],
        vec![
            op(0, 0, EKind::Send),
            op(0, 0, EKind::Reduce),
            op(1, 0, EKind::Reduce),
            op(1, 0, EKind::Send),
        ],
    ];
    let model = ExecModel {
        n: 2,
        prog,
        init: vec![vec![1], vec![2]],
        expected: vec![3], // never reached
    };
    match check(&model, Options::default()) {
        Err(Verdict::Deadlock { state, .. }) => {
            assert_eq!(state.pc, vec![2, 2], "both ranks blocked at the round-1 receive");
        }
        other => panic!("recv-before-send must deadlock, got {other:?}"),
    }
}
