//! DPOR model checking of the three lock-free protocols under the
//! fan-outs (`collectives::pool`, `trainer::real::pipeline`) and of the
//! socket wire's bulk-lane slot protocol (`transport::lane`), via the
//! vendored `interleave` checker's relaxed-memory machine.
//!
//! Each protocol is modeled over [`interleave::Mem`] with the *exact*
//! orderings the real code uses, so the unmutated checks certify those
//! orderings are sufficient, and seeded mutants (dropped fence,
//! Relaxed-ified CAS/RMW, off-by-one counter, torn CAS, lost unpark,
//! panic-mid-phase, unguarded second submitter) must each be refuted
//! with a replayable trace:
//!
//! 1. [`QueueModel`] — `RangeQueue` (`pool.rs`): owner `pop_front` vs
//!    two thieves `steal_back` racing CAS on the packed
//!    `head:32 | end:32` word, with independent per-chunk work after
//!    each claim. This is also the DPOR-vs-BFS benchmark model: the
//!    post-claim work is what plain BFS state-space multiplies over and
//!    DPOR collapses.
//! 2. [`PoolModel`] — the `CorePool` park/unpark generation handshake
//!    (`run` / `helper_loop`), including the submit-while-parking
//!    window (a worker observes a stale generation and heads to park
//!    while the submitter publishes) and the panic-mid-phase window (a
//!    worker panics after reading the job; the real code still
//!    decrements `remaining`). A second submitter models the shared
//!    pool: behind the `try_lock` of `pool::fan_out` the handshake
//!    verifies for both (the loser runs inline); with the lock removed
//!    — what a `run(&self)` on a shared pool allowed — a helper runs a
//!    job outside its submitter's borrow.
//! 3. [`TileModel`] — the pipelined `reduce_tile` completion-counter
//!    drain (`pipeline.rs`): workers publish partials with plain writes
//!    ordered only by the counter's `fetch_sub(AcqRel)` chain; the
//!    final decrementer reduces and runs the PR 7 codec path
//!    (encode-to-scratch, publish reduced) — with a compression step
//!    active, a stale partial read corrupts the wire payload, which is
//!    why the drain's ordering is load-bearing.
//! 4. [`LaneModel`] — the bulk lane's slots (`transport::lane`): lease
//!    → write → publish → deliver → release → reclaim over a segment
//!    of two-and-a-bit slots, with wrap-around. Mutants: publish before
//!    the payload is written or with a Relaxed doorbell (torn read),
//!    reclaim while a delivered reference is live (torn read), and a
//!    wrap check that forgets the slot header (overlapping slots).
//! 5. [`ProgressModel`] — the transport's progress rule
//!    (`transport::conn`): a ring of three ranks over sockets that hold
//!    one frame each, every rank writing two frames to its successor
//!    before it reads its predecessor's. A send that finds its socket
//!    full waits by the rule — it reads every connection of its rank,
//!    and gives up once its peer has been silent past the death bound
//!    (a rank that waits beacons, so only a rank that stopped waiting
//!    is ever that silent). Mutants: a blocked writer that reads only
//!    the socket it writes to, and a blocked send with no silence
//!    bound against a peer that stopped waiting. Both deadlock.
//!
//! Modeling conventions: park/unpark happens-before uses
//! [`Mem::transfer`] at token-consume time (std guarantees
//! release/acquire for `unpark`→`park`); `compare_exchange_weak`
//! spurious failures are not modeled (a spurious failure only retries
//! with the freshly returned value, adding no new visible behavior).

use interleave::{
    check_dpor, check_nd, replay_nd, DporOptions, Loc, Mem, MemOrd, NdModel, NdVerdict, Op, Steps,
    LOC_ANY,
};

fn pack(head: u32, end: u32) -> u64 {
    (u64::from(head) << 32) | u64::from(end)
}

fn unpack(w: u64) -> (u32, u32) {
    ((w >> 32) as u32, w as u32)
}

// ---------------------------------------------------------------------
// 1. RangeQueue: pop_front vs steal_back
// ---------------------------------------------------------------------

const WORD: Loc = 0;

#[derive(Clone, Copy, PartialEq, Eq)]
enum QueueBug {
    None,
    /// CAS replaced by load-then-store: the claim is no longer atomic.
    TornCas,
    /// `steal_back` claims index `end` instead of `end - 1`.
    StealOffByOne,
}

/// Owner (thread 0) pops from the front, thieves steal from the back,
/// exactly as `RangeQueue::{pop_front, steal_back}`: Acquire load, then
/// a `compare_exchange(AcqRel, Acquire)` retry loop fed by the returned
/// current value. Each claimed chunk is followed by `work_steps` of
/// thread-local work plus one write to the chunk's own slot — the
/// independent part DPOR is expected to collapse.
struct QueueModel {
    threads: usize,
    chunks: u32,
    work_steps: u8,
    /// `Some(n)`: each thread retires after `n` successful claims —
    /// the steady-state configuration (every worker owns one chunk and
    /// crunches it) used by the DPOR-vs-BFS benchmark, where the work
    /// phases overlap maximally. `None`: threads loop until the queue
    /// drains (the exhaustive and mutant checks).
    claims_per_thread: Option<u8>,
    bug: QueueBug,
}

#[derive(Clone, Hash, PartialEq, Eq, Debug)]
enum QueuePc {
    Load,
    Cas { cur: u64 },
    Work { idx: u32, stage: u8 },
    Finished,
}

#[derive(Clone, Hash, PartialEq, Eq, Debug)]
struct QueueState {
    mem: Mem,
    pc: Vec<QueuePc>,
    /// Model-level truth: how many times each chunk was claimed.
    claims: Vec<u8>,
    /// Successful claims per thread (for `claims_per_thread`).
    mine: Vec<u8>,
    /// A claim landed outside `0..chunks`.
    out_of_range: bool,
}

impl QueueModel {
    fn slot(idx: u32) -> Loc {
        1 + idx as Loc
    }
}

impl NdModel for QueueModel {
    type State = QueueState;

    fn initial(&self) -> QueueState {
        // Slot locations exist for every index a buggy claim can touch.
        let mut init = vec![0u64; 2 + self.chunks as usize];
        init[WORD as usize] = pack(0, self.chunks);
        QueueState {
            mem: Mem::new(self.threads, &init),
            pc: vec![QueuePc::Load; self.threads],
            claims: vec![0; self.chunks as usize],
            mine: vec![0; self.threads],
            out_of_range: false,
        }
    }

    fn n_threads(&self) -> usize {
        self.threads
    }

    fn steps(&self, s: &QueueState, tid: usize) -> Steps<QueueState> {
        let owner = tid == 0;
        match s.pc[tid].clone() {
            // The initial load reads the newest word (SeqCst): a stale
            // Acquire read is observationally equivalent to a CasFail —
            // the retry loop re-reads — so modeling stale branches here
            // only multiplies trace classes without adding behavior.
            // The CAS itself keeps the real AcqRel/Acquire orderings,
            // which is where the claim-atomicity bugs live.
            QueuePc::Load => Steps::Ready(
                s.mem
                    .load(tid, WORD, MemOrd::SeqCst)
                    .into_iter()
                    .map(|(v, mem)| {
                        let mut st = s.clone();
                        st.mem = mem;
                        let (head, end) = unpack(v);
                        st.pc[tid] =
                            if head >= end { QueuePc::Finished } else { QueuePc::Cas { cur: v } };
                        (Op::Read(WORD), st)
                    })
                    .collect(),
            ),
            QueuePc::Cas { cur } => {
                let (head, end) = unpack(cur);
                if head >= end {
                    // The retry observed a drained queue.
                    let mut st = s.clone();
                    st.pc[tid] = QueuePc::Finished;
                    return Steps::Ready(vec![(Op::Local, st)]);
                }
                let (new, idx) = if owner {
                    (pack(head + 1, end), head)
                } else {
                    match self.bug {
                        QueueBug::StealOffByOne => (pack(head, end - 1), end),
                        _ => (pack(head, end - 1), end - 1),
                    }
                };
                if self.bug == QueueBug::TornCas {
                    // Mutant: plain store of the precomputed word — two
                    // stale readers both "claim" the same index.
                    let mut st = s.clone();
                    st.mem = s.mem.store(tid, WORD, new, MemOrd::Release);
                    claim(&mut st, tid, self.chunks, idx);
                    st.pc[tid] = QueuePc::Work { idx, stage: 0 };
                    return Steps::Ready(vec![(Op::Write(WORD), st)]);
                }
                let (r, mem) = s.mem.cas(tid, WORD, cur, new, MemOrd::AcqRel, MemOrd::Acquire);
                let mut st = s.clone();
                st.mem = mem;
                match r {
                    Ok(_) => {
                        claim(&mut st, tid, self.chunks, idx);
                        st.pc[tid] = QueuePc::Work { idx, stage: 0 };
                        Steps::Ready(vec![(Op::CasOk(WORD), st)])
                    }
                    Err(now) => {
                        st.pc[tid] = QueuePc::Cas { cur: now };
                        Steps::Ready(vec![(Op::CasFail(WORD), st)])
                    }
                }
            }
            QueuePc::Work { idx, stage } => {
                let mut st = s.clone();
                if stage < self.work_steps {
                    // Thread-local compute on the claimed chunk.
                    st.pc[tid] = QueuePc::Work { idx, stage: stage + 1 };
                    Steps::Ready(vec![(Op::Local, st)])
                } else {
                    // Publish into the chunk's own slot: independent of
                    // every other chunk's slot.
                    let loc = QueueModel::slot(idx.min(self.chunks));
                    st.mem = s.mem.store(tid, loc, tid as u64 + 1, MemOrd::Relaxed);
                    let retired = self.claims_per_thread.is_some_and(|n| s.mine[tid] >= n);
                    st.pc[tid] = if retired { QueuePc::Finished } else { QueuePc::Load };
                    Steps::Ready(vec![(Op::Write(loc), st)])
                }
            }
            QueuePc::Finished => Steps::Done,
        }
    }

    fn invariant(&self, s: &QueueState) -> Result<(), String> {
        if s.out_of_range {
            return Err("a chunk index outside the queue range was claimed".into());
        }
        if let Some((i, &n)) = s.claims.iter().enumerate().find(|&(_, &n)| n > 1) {
            return Err(format!("chunk {i} claimed {n} times"));
        }
        if s.pc.iter().all(|pc| *pc == QueuePc::Finished) {
            if let Some((i, _)) = s.claims.iter().enumerate().find(|&(_, &n)| n == 0) {
                return Err(format!("all workers finished but chunk {i} was never claimed"));
            }
        }
        Ok(())
    }
}

fn claim(st: &mut QueueState, tid: usize, chunks: u32, idx: u32) {
    st.mine[tid] += 1;
    if idx >= chunks {
        st.out_of_range = true;
    } else {
        st.claims[idx as usize] += 1;
    }
}

#[test]
fn range_queue_three_threads_exhaustive_under_dpor() {
    let m = QueueModel {
        threads: 3,
        chunks: 3,
        work_steps: 2,
        claims_per_thread: None,
        bug: QueueBug::None,
    };
    let r = check_dpor(&m, DporOptions::default())
        .unwrap_or_else(|v| panic!("RangeQueue protocol refuted: {v}"));
    assert!(r.complete, "no preemption bound: the pass is exhaustive ({r:?})");
    assert!(r.traces > 1, "contended CAS must fork the exploration ({r:?})");
}

#[test]
fn range_queue_dpor_needs_under_one_percent_of_bfs_states() {
    // The acceptance benchmark: same 3-thread model, both engines.
    let m = QueueModel {
        threads: 3,
        chunks: 3,
        work_steps: 48,
        claims_per_thread: Some(1),
        bug: QueueBug::None,
    };
    let bfs = check_nd(&m, 10_000_000).unwrap_or_else(|v| panic!("BFS refuted the queue: {v}"));
    let dpor = check_dpor(&m, DporOptions::default())
        .unwrap_or_else(|v| panic!("DPOR refuted the queue: {v}"));
    println!(
        "RangeQueue 3-thread model: BFS visited {} states ({} transitions); \
         DPOR explored {} nodes across {} traces",
        bfs.states, bfs.transitions, dpor.nodes, dpor.traces
    );
    assert!(
        dpor.nodes * 100 <= bfs.states,
        "DPOR must need <=1% of BFS states: {} vs {}",
        dpor.nodes,
        bfs.states
    );
}

#[test]
fn range_queue_torn_cas_mutant_refuted() {
    let m = QueueModel {
        threads: 3,
        chunks: 3,
        work_steps: 0,
        claims_per_thread: None,
        bug: QueueBug::TornCas,
    };
    let v = check_dpor(&m, DporOptions::default()).expect_err("torn CAS must double-claim");
    println!("torn-CAS counterexample: {v}");
    match &v {
        NdVerdict::InvariantViolated { trace, state, reason, .. } => {
            assert!(reason.contains("claimed"), "{reason}");
            let states = replay_nd(&m, trace);
            assert_eq!(states.last(), Some(state), "trace must replay to the violation");
        }
        other => panic!("expected an invariant violation, got {other}"),
    }
}

#[test]
fn range_queue_steal_off_by_one_mutant_refuted() {
    let m = QueueModel {
        threads: 3,
        chunks: 3,
        work_steps: 0,
        claims_per_thread: None,
        bug: QueueBug::StealOffByOne,
    };
    let v = check_dpor(&m, DporOptions::default()).expect_err("off-by-one steal must misclaim");
    println!("steal-off-by-one counterexample: {v}");
    match &v {
        NdVerdict::InvariantViolated { trace, state, reason, .. } => {
            assert!(
                reason.contains("outside the queue range") || reason.contains("claimed"),
                "{reason}"
            );
            let states = replay_nd(&m, trace);
            assert_eq!(states.last(), Some(state));
        }
        other => panic!("expected an invariant violation, got {other}"),
    }
}

// ---------------------------------------------------------------------
// 2. CorePool: park/unpark generation handshake
// ---------------------------------------------------------------------

const JOB: Loc = 0;
const REM: Loc = 1;
const GEN: Loc = 2;
/// The shared pool's mutex as `try_lock` sees it (0 free, 1 held).
const LOCK: Loc = 3;
/// `Shared::submitter`: whom the last decrementer unparks. A mutex
/// guards it in the real code, hence SeqCst here.
const SLOT: Loc = 4;

const N_WORKERS: usize = 2;
const MAX_SUBMITTERS: usize = 2;

// Submitter program counters.
const S_LOCK: u8 = 0;
const S_SLOT: u8 = 1;
const S_JOB: u8 = 2;
const S_REM: u8 = 3;
const S_GEN: u8 = 4;
/// `S_UNPARK + w` unparks helper `w`.
const S_UNPARK: u8 = 5;
const S_WAIT: u8 = S_UNPARK + N_WORKERS as u8;
const S_PARK: u8 = S_WAIT + 1;
const S_UNLOCK: u8 = S_PARK + 1;
const S_DONE: u8 = S_UNLOCK + 1;

// Helper program counters.
const W_GEN: u8 = 0;
const W_PARK: u8 = 1;
const W_JOB: u8 = 2;
const W_RUN: u8 = 3;
const W_DEC: u8 = 4;
const W_SLOT: u8 = 5;
const W_UNPARK: u8 = 6;

#[derive(Clone, Copy, PartialEq, Eq)]
enum PoolBug {
    None,
    /// `generation.fetch_add(Release)` demoted to Relaxed — the dropped
    /// fence: a spinning helper can see the new generation but a stale
    /// job pointer.
    DroppedGenFence,
    /// The submitter only unparks helpers it observes as parked — the
    /// submit-while-parking window loses the wakeup.
    LostUnpark,
    /// A panicking worker skips the `remaining` decrement (the real
    /// code decrements after `catch_unwind`).
    PanicSkipsDecrement,
    /// Two submitters publish without taking the pool's lock first —
    /// what `CorePool::run(&self)` on a shared pool allowed: job, slot
    /// and `remaining` of one overwrite the other's.
    BothPublish,
}

/// `CorePool::run` + `helper_loop`: each submitter registers itself in
/// the submitter slot, publishes job/remaining/generation with Release
/// stores, unparks both helpers, and waits for `remaining == 0`
/// (Acquire) parking in between; helpers spin-or-park on the
/// generation, read the job, and decrement `remaining` with AcqRel,
/// unparking whoever the slot names on the final decrement, then go
/// back for the next generation.
///
/// With one submitter this is an exclusive pool (`run(&mut self)`, no
/// lock). With two it is the shared pool behind `pool::fan_out`: each
/// must win a `try_lock` before it may publish, and the loser runs its
/// job inline — no further steps here.
struct PoolModel {
    bug: PoolBug,
    /// Worker index (0-based) that panics mid-job, if any.
    panic_in: Option<usize>,
    submitters: usize,
}

#[derive(Clone, Hash, PartialEq, Eq, Debug)]
struct PoolState {
    mem: Mem,
    sub_pc: [u8; MAX_SUBMITTERS],
    w_pc: [u8; N_WORKERS],
    /// Last generation each helper ran.
    w_seen: [u64; N_WORKERS],
    seen_job: [u64; N_WORKERS],
    /// Submitter each helper read out of the slot.
    seen_slot: [usize; N_WORKERS],
    /// Park tokens (std's `unpark` token semantics) and which submitter
    /// issued each (for the HB transfer).
    token: [bool; N_WORKERS],
    token_from: [usize; N_WORKERS],
    sub_token: [bool; MAX_SUBMITTERS],
    /// Which worker issued the submitter's token.
    sub_token_from: [usize; MAX_SUBMITTERS],
    panicked: bool,
    underflow: bool,
}

impl PoolModel {
    /// Thread ids: submitter 0, the helpers, then submitter 1.
    fn stid(s: usize) -> usize {
        s * (1 + N_WORKERS)
    }

    fn wtid(w: usize) -> usize {
        w + 1
    }

    fn sub_lot(s: usize) -> Loc {
        100 + s as Loc
    }

    fn lot(w: usize) -> Loc {
        110 + w as Loc
    }

    /// The job "pointer" submitter `s` publishes.
    fn job_val(s: usize) -> u64 {
        42 + s as u64
    }
}

impl NdModel for PoolModel {
    type State = PoolState;

    fn initial(&self) -> PoolState {
        // An exclusive pool has no lock to take; a submitter that does
        // not exist has nothing to do.
        let first = if self.submitters == 1 { S_SLOT } else { S_LOCK };
        let mut sub_pc = [S_DONE; MAX_SUBMITTERS];
        sub_pc[..self.submitters].fill(first);
        PoolState {
            mem: Mem::new(self.n_threads(), &[0; 5]),
            sub_pc,
            w_pc: [W_GEN; N_WORKERS],
            w_seen: [0; N_WORKERS],
            seen_job: [0; N_WORKERS],
            seen_slot: [0; N_WORKERS],
            token: [false; N_WORKERS],
            token_from: [0; N_WORKERS],
            sub_token: [false; MAX_SUBMITTERS],
            sub_token_from: [0; MAX_SUBMITTERS],
            panicked: false,
            underflow: false,
        }
    }

    fn n_threads(&self) -> usize {
        self.submitters + N_WORKERS
    }

    fn steps(&self, s: &PoolState, tid: usize) -> Steps<PoolState> {
        match tid.checked_sub(1) {
            Some(w) if w < N_WORKERS => self.worker_steps(s, w),
            _ => self.submitter_steps(s, tid / (1 + N_WORKERS)),
        }
    }

    fn invariant(&self, s: &PoolState) -> Result<(), String> {
        if s.underflow {
            return Err("remaining underflowed below zero".into());
        }
        for w in 0..N_WORKERS {
            if s.w_pc[w] != W_RUN {
                continue;
            }
            let job = s.seen_job[w];
            let Some(owner) = (0..self.submitters).find(|&o| PoolModel::job_val(o) == job) else {
                return Err(format!("worker {w} ran with a stale job pointer ({job})"));
            };
            // The job borrows its submitter's stack frame: it may only
            // run between that submitter's publish and the end of its
            // wait.
            if !(S_UNPARK..=S_PARK).contains(&s.sub_pc[owner]) {
                return Err(format!(
                    "worker {w} ran submitter {owner}'s job while it was not waiting on it \
                     (pc {}): use outside the borrow",
                    s.sub_pc[owner]
                ));
            }
        }
        let finished = s.sub_pc.iter().all(|&pc| pc == S_DONE)
            && s.w_pc.iter().zip(&s.token).all(|(&pc, &token)| pc == W_PARK && !token);
        if finished && s.mem.peek(REM) != 0 {
            return Err(format!("handshake completed with remaining = {}", s.mem.peek(REM)));
        }
        Ok(())
    }
}

impl PoolModel {
    fn submitter_steps(&self, s: &PoolState, sub: usize) -> Steps<PoolState> {
        let tid = PoolModel::stid(sub);
        let mut st = s.clone();
        let op = match s.sub_pc[sub] {
            S_LOCK if self.bug == PoolBug::BothPublish => {
                st.sub_pc[sub] = S_SLOT;
                Op::Local
            }
            S_LOCK => {
                let (won, mem) = s.mem.cas(tid, LOCK, 0, 1, MemOrd::Acquire, MemOrd::Relaxed);
                st.mem = mem;
                // Busy pool: the job runs inline on this thread.
                st.sub_pc[sub] = if won.is_ok() { S_SLOT } else { S_DONE };
                if won.is_ok() {
                    Op::CasOk(LOCK)
                } else {
                    Op::CasFail(LOCK)
                }
            }
            S_SLOT => {
                st.mem = s.mem.store(tid, SLOT, sub as u64, MemOrd::SeqCst);
                st.sub_pc[sub] = S_JOB;
                Op::Write(SLOT)
            }
            S_JOB => {
                st.mem = s.mem.store(tid, JOB, PoolModel::job_val(sub), MemOrd::Release);
                st.sub_pc[sub] = S_REM;
                Op::Write(JOB)
            }
            S_REM => {
                st.mem = s.mem.store(tid, REM, N_WORKERS as u64, MemOrd::Release);
                st.sub_pc[sub] = S_GEN;
                Op::Write(REM)
            }
            S_GEN => {
                let ord = if self.bug == PoolBug::DroppedGenFence {
                    MemOrd::Relaxed
                } else {
                    MemOrd::Release
                };
                let (_, mem) = s.mem.rmw(tid, GEN, ord, |v| v + 1);
                st.mem = mem;
                st.sub_pc[sub] = S_UNPARK;
                Op::CasOk(GEN)
            }
            pc if (S_UNPARK..S_WAIT).contains(&pc) => {
                let w = (pc - S_UNPARK) as usize;
                // The real code unparks every helper unconditionally;
                // the LostUnpark mutant "optimizes" by only unparking
                // helpers it observes as already parked.
                let skip = self.bug == PoolBug::LostUnpark && s.w_pc[w] != W_PARK;
                if !skip {
                    st.token[w] = true;
                    st.token_from[w] = sub;
                }
                st.sub_pc[sub] = pc + 1;
                Op::Unpark(PoolModel::lot(w))
            }
            S_WAIT => {
                let after_wait = if self.submitters == 1 { S_DONE } else { S_UNLOCK };
                return Steps::Ready(
                    s.mem
                        .load(tid, REM, MemOrd::Acquire)
                        .into_iter()
                        .map(|(v, mem)| {
                            let mut st = s.clone();
                            st.mem = mem;
                            st.sub_pc[sub] = if v == 0 { after_wait } else { S_PARK };
                            (Op::Read(REM), st)
                        })
                        .collect(),
                );
            }
            S_PARK => {
                if !s.sub_token[sub] {
                    return Steps::Blocked;
                }
                st.sub_token[sub] = false;
                // park() returned because of unpark(): join the
                // unparker's view (std guarantees this edge).
                st.mem = s.mem.transfer(PoolModel::wtid(s.sub_token_from[sub]), tid);
                st.sub_pc[sub] = S_WAIT;
                Op::Park(PoolModel::sub_lot(sub))
            }
            S_UNLOCK if self.bug == PoolBug::BothPublish => {
                st.sub_pc[sub] = S_DONE;
                Op::Local
            }
            S_UNLOCK => {
                st.mem = s.mem.store(tid, LOCK, 0, MemOrd::Release);
                st.sub_pc[sub] = S_DONE;
                Op::Write(LOCK)
            }
            _ => return Steps::Done,
        };
        Steps::Ready(vec![(op, st)])
    }

    fn worker_steps(&self, s: &PoolState, w: usize) -> Steps<PoolState> {
        let tid = PoolModel::wtid(w);
        let mut st = s.clone();
        let op = match s.w_pc[w] {
            W_GEN => {
                return Steps::Ready(
                    s.mem
                        .load(tid, GEN, MemOrd::Acquire)
                        .into_iter()
                        .map(|(v, mem)| {
                            let mut st = s.clone();
                            st.mem = mem;
                            // gen == seen: nothing new published from
                            // this helper's point of view — head to park.
                            st.w_pc[w] = if v == s.w_seen[w] { W_PARK } else { W_JOB };
                            st.w_seen[w] = v;
                            (Op::Read(GEN), st)
                        })
                        .collect(),
                );
            }
            W_PARK => {
                if !s.token[w] {
                    // Parked for good once nobody is left to submit.
                    let idle = s.sub_pc.iter().all(|&pc| pc == S_DONE);
                    return if idle { Steps::Done } else { Steps::Blocked };
                }
                st.token[w] = false;
                st.mem = s.mem.transfer(PoolModel::stid(s.token_from[w]), tid);
                st.w_pc[w] = W_GEN;
                Op::Park(PoolModel::lot(w))
            }
            W_JOB => {
                return Steps::Ready(
                    s.mem
                        .load(tid, JOB, MemOrd::Acquire)
                        .into_iter()
                        .map(|(v, mem)| {
                            let mut st = s.clone();
                            st.mem = mem;
                            st.seen_job[w] = v;
                            st.w_pc[w] = W_RUN;
                            (Op::Read(JOB), st)
                        })
                        .collect(),
                );
            }
            W_RUN => {
                st.w_pc[w] = W_DEC;
                if self.panic_in == Some(w) {
                    st.panicked = true;
                    // The mutant forgets that a panicking job must
                    // still decrement `remaining`.
                    if self.bug == PoolBug::PanicSkipsDecrement {
                        st.w_pc[w] = W_GEN;
                    }
                }
                Op::Local
            }
            W_DEC => {
                let (old, mem) = s.mem.rmw(tid, REM, MemOrd::AcqRel, |v| v.wrapping_sub(1));
                st.mem = mem;
                if old == 0 {
                    st.underflow = true;
                }
                st.w_pc[w] = if old == 1 { W_SLOT } else { W_GEN };
                Op::CasOk(REM)
            }
            W_SLOT => {
                return Steps::Ready(
                    s.mem
                        .load(tid, SLOT, MemOrd::SeqCst)
                        .into_iter()
                        .map(|(v, mem)| {
                            let mut st = s.clone();
                            st.mem = mem;
                            st.seen_slot[w] = v as usize;
                            st.w_pc[w] = W_UNPARK;
                            (Op::Read(SLOT), st)
                        })
                        .collect(),
                );
            }
            W_UNPARK => {
                let sub = s.seen_slot[w];
                st.sub_token[sub] = true;
                st.sub_token_from[sub] = w;
                st.w_pc[w] = W_GEN;
                Op::Unpark(PoolModel::sub_lot(sub))
            }
            _ => unreachable!("helpers loop"),
        };
        Steps::Ready(vec![(op, st)])
    }
}

#[test]
fn core_pool_handshake_exhaustive_under_dpor() {
    let m = PoolModel { bug: PoolBug::None, panic_in: None, submitters: 1 };
    let r = check_dpor(&m, DporOptions::default())
        .unwrap_or_else(|v| panic!("CorePool handshake refuted: {v}"));
    assert!(r.complete);
    assert!(r.traces > 1, "park vs spin windows must both be explored ({r:?})");
}

#[test]
fn core_pool_panic_mid_phase_window_still_drains() {
    // A worker panicking after reading the job: the real code
    // decrements anyway, so the handshake must still complete.
    let m = PoolModel { bug: PoolBug::None, panic_in: Some(1), submitters: 1 };
    let r = check_dpor(&m, DporOptions::default())
        .unwrap_or_else(|v| panic!("panic-mid-phase handling refuted: {v}"));
    assert!(r.complete);
}

#[test]
fn core_pool_dropped_gen_fence_mutant_refuted() {
    let m = PoolModel { bug: PoolBug::DroppedGenFence, panic_in: None, submitters: 1 };
    let v = check_dpor(&m, DporOptions::default()).expect_err("relaxed gen bump must leak");
    println!("dropped-fence counterexample: {v}");
    match &v {
        NdVerdict::InvariantViolated { trace, state, reason, .. } => {
            assert!(reason.contains("stale job"), "{reason}");
            let states = replay_nd(&m, trace);
            assert_eq!(states.last(), Some(state));
        }
        other => panic!("expected a stale-job violation, got {other}"),
    }
}

#[test]
fn core_pool_lost_unpark_mutant_deadlocks() {
    let m = PoolModel { bug: PoolBug::LostUnpark, panic_in: None, submitters: 1 };
    let v = check_dpor(&m, DporOptions::default()).expect_err("lost wakeup must wedge the pool");
    println!("lost-unpark counterexample: {v}");
    assert!(
        matches!(v, NdVerdict::Deadlock { .. }),
        "submit-while-parking without a token must deadlock, got {v}"
    );
}

#[test]
fn core_pool_panic_skips_decrement_mutant_deadlocks() {
    let m = PoolModel { bug: PoolBug::PanicSkipsDecrement, panic_in: Some(0), submitters: 1 };
    let v = check_dpor(&m, DporOptions::default()).expect_err("skipped decrement must wedge");
    println!("panic-skips-decrement counterexample: {v}");
    assert!(matches!(v, NdVerdict::Deadlock { .. }), "got {v}");
}

#[test]
fn shared_pool_two_submitters_behind_try_lock_verify() {
    // Either one wins the lock and the other runs inline, or they take
    // turns: both shapes must be explored and both must drain.
    let m = PoolModel { bug: PoolBug::None, panic_in: None, submitters: 2 };
    let r = check_dpor(&m, DporOptions::default())
        .unwrap_or_else(|v| panic!("guarded shared pool refuted: {v}"));
    println!("shared pool, two submitters: {r:?}");
    assert!(r.complete);
    assert!(r.traces > 1, "{r:?}");
}

#[test]
fn shared_pool_both_publish_mutant_refuted() {
    let m = PoolModel { bug: PoolBug::BothPublish, panic_in: None, submitters: 2 };
    let v = check_dpor(&m, DporOptions::default())
        .expect_err("two unguarded submitters must corrupt the handshake");
    println!("both-publish counterexample: {v}");
    match &v {
        NdVerdict::InvariantViolated { trace, state, .. } => {
            let states = replay_nd(&m, trace);
            assert_eq!(states.last(), Some(state));
        }
        NdVerdict::Deadlock { .. } => {}
        other => panic!("expected a violation or a wedge, got {other}"),
    }
}

// ---------------------------------------------------------------------
// 3. reduce_tile completion-counter drain (codec active)
// ---------------------------------------------------------------------

const N_RED: usize = 3;
const CTR: Loc = N_RED as Loc;
const ENC: Loc = N_RED as Loc + 1;
const RED: Loc = N_RED as Loc + 2;

#[derive(Clone, Copy, PartialEq, Eq)]
enum TileBug {
    None,
    /// `counters[tile].fetch_sub(AcqRel)` demoted to Relaxed — the
    /// Relaxed-ified RMW: the final decrement no longer acquires the
    /// other workers' partial writes.
    RelaxedFetchSub,
    /// Counter seeded with `n_tasks - 1`.
    OffByOneInit,
}

/// Worker `w` writes its gradient partial (a plain store, ordered only
/// by the counter chain), then decrements the tile counter; whoever
/// sees the counter hit zero drains the tile: reads every partial,
/// quantizes the sum into the encode scratch (the PR 7 codec path), and
/// publishes the reduced value.
struct TileModel {
    bug: TileBug,
}

fn partial_of(w: usize) -> u64 {
    (w as u64 + 1) * 3
}

fn quantize(sum: u64) -> u64 {
    sum * 2 + 1
}

fn dequantize(enc: u64) -> u64 {
    (enc - 1) / 2
}

#[derive(Clone, Hash, PartialEq, Eq, Debug)]
struct TileState {
    mem: Mem,
    /// 0 compute, 1 store partial, 2 decrement, 3 reduce-read,
    /// 4 encode, 5 publish, 6 done.
    pc: [u8; N_RED],
    /// Reducer bookkeeping (at most one thread enters the drain).
    ridx: u8,
    sum: u64,
    stale_read: Option<(usize, u64)>,
    underflow: bool,
    published: bool,
}

impl NdModel for TileModel {
    type State = TileState;

    fn initial(&self) -> TileState {
        let mut init = vec![0u64; N_RED + 3];
        init[CTR as usize] = match self.bug {
            TileBug::OffByOneInit => N_RED as u64 - 1,
            _ => N_RED as u64,
        };
        TileState {
            mem: Mem::new(N_RED, &init),
            pc: [0; N_RED],
            ridx: 0,
            sum: 0,
            stale_read: None,
            underflow: false,
            published: false,
        }
    }

    fn n_threads(&self) -> usize {
        N_RED
    }

    fn steps(&self, s: &TileState, tid: usize) -> Steps<TileState> {
        match s.pc[tid] {
            0 => {
                let mut st = s.clone();
                st.pc[tid] = 1;
                Steps::Ready(vec![(Op::Local, st)])
            }
            1 => {
                let mut st = s.clone();
                st.mem = s.mem.store(tid, tid as Loc, partial_of(tid), MemOrd::Relaxed);
                st.pc[tid] = 2;
                Steps::Ready(vec![(Op::Write(tid as Loc), st)])
            }
            2 => {
                let ord = if self.bug == TileBug::RelaxedFetchSub {
                    MemOrd::Relaxed
                } else {
                    MemOrd::AcqRel
                };
                let (old, mem) = s.mem.rmw(tid, CTR, ord, |v| v.wrapping_sub(1));
                let mut st = s.clone();
                st.mem = mem;
                if old == 0 {
                    st.underflow = true;
                }
                st.pc[tid] = if old == 1 { 3 } else { 6 };
                Steps::Ready(vec![(Op::CasOk(CTR), st)])
            }
            3 => {
                let r = s.ridx as usize;
                Steps::Ready(
                    s.mem
                        .load(tid, r as Loc, MemOrd::Relaxed)
                        .into_iter()
                        .map(|(v, mem)| {
                            let mut st = s.clone();
                            st.mem = mem;
                            if v != partial_of(r) {
                                st.stale_read = Some((r, v));
                            }
                            st.sum = st.sum.wrapping_add(v);
                            st.ridx += 1;
                            if st.ridx as usize == N_RED {
                                st.pc[tid] = 4;
                            }
                            (Op::Read(r as Loc), st)
                        })
                        .collect(),
                )
            }
            4 => {
                let mut st = s.clone();
                st.mem = s.mem.store(tid, ENC, quantize(s.sum), MemOrd::Relaxed);
                st.pc[tid] = 5;
                Steps::Ready(vec![(Op::Write(ENC), st)])
            }
            5 => {
                let mut st = s.clone();
                st.mem = s.mem.store(tid, RED, dequantize(s.mem.peek(ENC)), MemOrd::Release);
                st.published = true;
                st.pc[tid] = 6;
                Steps::Ready(vec![(Op::Write(RED), st)])
            }
            _ => Steps::Done,
        }
    }

    fn invariant(&self, s: &TileState) -> Result<(), String> {
        if s.underflow {
            return Err("tile counter underflowed: the drain fired twice".into());
        }
        if let Some((w, v)) = s.stale_read {
            return Err(format!(
                "reduce_tile read a stale partial from worker {w}: {v} != {}",
                partial_of(w)
            ));
        }
        if s.pc.iter().all(|&pc| pc == 6) {
            if !s.published {
                return Err("every worker finished but the tile was never reduced".into());
            }
            let want: u64 = (0..N_RED).map(partial_of).sum();
            if s.mem.peek(RED) != want {
                return Err(format!(
                    "reduced tile holds {} but the partial sum is {want}",
                    s.mem.peek(RED)
                ));
            }
        }
        Ok(())
    }
}

#[test]
fn tile_drain_exhaustive_under_dpor() {
    let r = check_dpor(&TileModel { bug: TileBug::None }, DporOptions::default())
        .unwrap_or_else(|v| panic!("reduce_tile drain refuted: {v}"));
    assert!(r.complete);
    assert!(r.traces > 1, "decrement orders must fork the exploration ({r:?})");
}

#[test]
fn tile_relaxed_fetch_sub_mutant_refuted() {
    let m = TileModel { bug: TileBug::RelaxedFetchSub };
    let v = check_dpor(&m, DporOptions::default()).expect_err("relaxed drain must read stale");
    println!("relaxed-fetch_sub counterexample: {v}");
    match &v {
        NdVerdict::InvariantViolated { trace, state, reason, .. } => {
            assert!(reason.contains("stale partial"), "{reason}");
            let states = replay_nd(&m, trace);
            assert_eq!(states.last(), Some(state));
        }
        other => panic!("expected a stale-partial violation, got {other}"),
    }
}

#[test]
fn tile_off_by_one_counter_mutant_refuted() {
    let m = TileModel { bug: TileBug::OffByOneInit };
    let v = check_dpor(&m, DporOptions::default()).expect_err("short counter must fire early");
    println!("off-by-one-counter counterexample: {v}");
    match &v {
        NdVerdict::InvariantViolated { trace, state, reason, .. } => {
            assert!(reason.contains("stale partial") || reason.contains("underflow"), "{reason}");
            let states = replay_nd(&m, trace);
            assert_eq!(states.last(), Some(state));
        }
        other => panic!("expected a violation, got {other}"),
    }
}

// ---------------------------------------------------------------------
// 4. Bulk-lane slot protocol (transport::lane)
// ---------------------------------------------------------------------

/// Segment cells: slot headers (the reference count) and payload words.
const SEG: usize = 7;
/// Header cells per slot (the real header is 64 bytes; one word here).
const HDR: usize = 1;
/// Payload words of each message, in send order. Spans 2, 3, 2, 3 in a
/// 7-cell segment: the third slot ends flush with the segment, and the
/// fourth must wrap to 0 — which fits only once the oldest live slot
/// starts at 3 or later.
const LANE_MSGS: [usize; 4] = [1, 2, 1, 2];
const N_MSG: usize = LANE_MSGS.len();
/// `desc[m]`: slot offset + 1 of message `m`, or [`INLINE`].
const DESC0: Loc = SEG as Loc;
const BELL: Loc = DESC0 + N_MSG as Loc;
const ACK: Loc = BELL + 1;
/// The descriptor of a message that found no room and went inline.
const INLINE: u64 = 100;

#[derive(Clone, Copy, PartialEq, Eq)]
enum LaneBug {
    None,
    /// The descriptor is published before the payload is written.
    PublishEarly,
    /// The doorbell store is Relaxed: the payload writes are not
    /// ordered before it.
    PublishRelaxed,
    /// Reclaim counts only the sender's own reference: a slot is reused
    /// while the receiver still reads it.
    ReclaimLive,
    /// The wrap check forgets the slot header (`len <= tail`).
    WrapOffByOne,
    /// Not a bug: flags any wrap-around placement, to prove the
    /// unmutated model reaches one.
    WrapWitness,
}

/// `SendLane::lease` / `PeerConn::send` / the reader's `resolve` and
/// the frame's drop, over a 7-cell segment: before each lease the
/// sender services acks (Acquire), dropping its own reference to every
/// acked message's slot (Release), as the executor does between sends;
/// it leases a slot (reclaiming in order while counts read zero,
/// Acquire), writes the count (1) and the payload, pins the
/// descriptor's reference, and publishes descriptor then doorbell
/// (Release — the socket in the real code). After the last message it
/// waits for the final ack (the executor's flush). The receiver waits
/// for the doorbell (Acquire), reads the descriptor, acks (at delivery,
/// before the apply, as the executor does), reads the payload where it
/// lies, and drops the descriptor's reference (Release). Slots that do
/// not fit go inline.
struct LaneModel {
    bug: LaneBug,
}

#[derive(Clone, Hash, PartialEq, Eq, Debug)]
struct LaneState {
    mem: Mem,
    /// Sender: message, pc within it, and its slot offset.
    s_msg: usize,
    s_pc: u8,
    s_off: Option<usize>,
    /// Slot of every message sent, and how many of them have had the
    /// sender's own reference dropped / have been acked as far as the
    /// sender has seen.
    sent: Vec<Option<usize>>,
    unpinned: usize,
    acked: usize,
    /// Sender's ring: next placement and live slots `(off, span)`.
    head: usize,
    live: Vec<(usize, usize)>,
    /// Receiver: message, pc within it, slot offset, words read.
    r_msg: usize,
    r_pc: u8,
    r_off: Option<usize>,
    r_word: usize,
    /// Violations, recorded where they happen.
    torn: Option<String>,
    overlap: Option<String>,
    wrapped: bool,
}

// Sender pcs.
const L_ACKS: u8 = 0;
const L_UNPIN: u8 = 1;
const L_RECLAIM: u8 = 2;
const L_PLACE: u8 = 3;
const L_COUNT: u8 = 4;
const L_WRITE: u8 = 5; // + word
const L_PIN: u8 = 10;
const L_DESC: u8 = 11;
const L_BELL: u8 = 12;
const L_FLUSH: u8 = 13;
const L_DONE: u8 = 14;
// Receiver pcs.
const R_BELL: u8 = 0;
const R_DESC: u8 = 1;
const R_ACK: u8 = 2;
const R_READ: u8 = 3;
const R_RELEASE: u8 = 4;
const R_DONE: u8 = 5;

impl LaneModel {
    /// `Ring::place` after the reclaim: where a slot of `need` cells
    /// goes, if anywhere.
    fn place(&self, s: &LaneState, need: usize, len: usize) -> Option<(usize, bool)> {
        let (Some(&(tail, _)), Some(&(last, _))) = (s.live.first(), s.live.last()) else {
            return Some((0, false));
        };
        if last < tail {
            return (s.head + need <= tail).then_some((s.head, false));
        }
        if s.head + need <= SEG {
            return Some((s.head, false));
        }
        let fits = match self.bug {
            LaneBug::WrapOffByOne => len <= tail,
            _ => need <= tail,
        };
        fits.then_some((0, true))
    }

    /// The sender's step after message `m` is published: the next
    /// message's ack service (the flush, after the last).
    fn next_message(st: &mut LaneState) {
        st.s_msg += 1;
        st.s_pc = L_ACKS;
    }

    fn sender(&self, s: &LaneState) -> Steps<LaneState> {
        const TID: usize = 0;
        let m = s.s_msg;
        let len = LANE_MSGS.get(m).copied().unwrap_or(0);
        let early = self.bug == LaneBug::PublishEarly;
        let mut st = s.clone();
        let op = match s.s_pc {
            L_ACKS | L_FLUSH => {
                // Service whatever acks are visible. The flush waits
                // for the last one: blocked until it is the newest
                // write (stale reads there only retry).
                let flush = s.s_pc == L_FLUSH;
                if flush && s.mem.peek(ACK) < N_MSG as u64 {
                    return Steps::Blocked;
                }
                let seen: Vec<_> = s
                    .mem
                    .load(TID, ACK, MemOrd::Acquire)
                    .into_iter()
                    .filter(|&(v, _)| !flush || v == N_MSG as u64)
                    .map(|(v, mem)| {
                        let mut st = s.clone();
                        st.mem = mem;
                        st.acked = st.acked.max(v as usize);
                        st.s_pc = L_UNPIN;
                        (Op::Read(ACK), st)
                    })
                    .collect();
                return Steps::Ready(seen);
            }
            L_UNPIN if s.unpinned < s.acked => {
                // The sender's own reference of the oldest acked
                // message goes (an `Ack` in the executor's `ingest`).
                st.unpinned += 1;
                match s.sent[s.unpinned] {
                    Some(off) => {
                        let (_, mem) = s.mem.rmw(TID, off as Loc, MemOrd::Release, |v| v - 1);
                        st.mem = mem;
                        Op::CasOk(off as Loc)
                    }
                    None => Op::Local,
                }
            }
            L_UNPIN => {
                st.s_pc = match (m == N_MSG, s.unpinned == N_MSG) {
                    (true, true) => L_DONE,
                    (true, false) => L_FLUSH,
                    (false, _) => L_RECLAIM,
                };
                Op::Local
            }
            L_DONE => return Steps::Done,
            L_RECLAIM => {
                let Some(&(front, _)) = s.live.first() else {
                    st.s_pc = L_PLACE;
                    return Steps::Ready(vec![(Op::Local, st)]);
                };
                let free = |refs: u64| match self.bug {
                    LaneBug::ReclaimLive => refs <= 1,
                    _ => refs == 0,
                };
                return Steps::Ready(
                    s.mem
                        .load(TID, front as Loc, MemOrd::Acquire)
                        .into_iter()
                        .map(|(refs, mem)| {
                            let mut st = s.clone();
                            st.mem = mem;
                            if free(refs) {
                                st.live.remove(0);
                            } else {
                                st.s_pc = L_PLACE;
                            }
                            (Op::Read(front as Loc), st)
                        })
                        .collect(),
                );
            }
            L_PLACE => {
                let need = HDR + len;
                if st.live.is_empty() {
                    st.head = 0;
                }
                match self.place(&st, need, len) {
                    Some((off, wrapped)) => {
                        let clash = s.live.iter().find(|&&(o, sp)| off < o + sp && o < off + need);
                        if let Some(&(o, sp)) = clash {
                            st.overlap = Some(format!(
                                "message {m} placed at [{off}, {}) over the live slot [{o}, {})",
                                off + need,
                                o + sp
                            ));
                        }
                        st.wrapped |= wrapped;
                        st.live.push((off, need));
                        st.head = off + need;
                        st.s_off = Some(off);
                        st.s_pc = L_COUNT;
                    }
                    None => {
                        st.s_off = None;
                        st.s_pc = L_DESC;
                    }
                }
                Op::Local
            }
            L_COUNT => {
                let off = s.s_off.expect("leased");
                st.mem = s.mem.store(TID, off as Loc, 1, MemOrd::Relaxed);
                st.s_pc = if early { L_PIN } else { L_WRITE };
                Op::Write(off as Loc)
            }
            pc if (L_WRITE..L_PIN).contains(&pc) => {
                let word = (pc - L_WRITE) as usize;
                let cell = s.s_off.expect("leased") + HDR + word;
                st.mem = s.mem.store(TID, cell as Loc, m as u64 + 1, MemOrd::Relaxed);
                match (word + 1 == len, early) {
                    (false, _) => st.s_pc = pc + 1,
                    (true, false) => st.s_pc = L_PIN,
                    (true, true) => LaneModel::next_message(&mut st),
                }
                Op::Write(cell as Loc)
            }
            L_PIN => {
                let off = s.s_off.expect("leased");
                let (_, mem) = s.mem.rmw(TID, off as Loc, MemOrd::Relaxed, |v| v + 1);
                st.mem = mem;
                st.s_pc = L_DESC;
                Op::CasOk(off as Loc)
            }
            L_DESC => {
                let desc = s.s_off.map_or(INLINE, |off| off as u64 + 1);
                st.mem = s.mem.store(TID, DESC0 + m as Loc, desc, MemOrd::Relaxed);
                st.s_pc = L_BELL;
                Op::Write(DESC0 + m as Loc)
            }
            L_BELL => {
                let ord = match self.bug {
                    LaneBug::PublishRelaxed => MemOrd::Relaxed,
                    _ => MemOrd::Release,
                };
                st.mem = s.mem.store(TID, BELL, m as u64 + 1, ord);
                st.sent.push(s.s_off);
                if early && s.s_off.is_some() {
                    st.s_pc = L_WRITE;
                } else {
                    LaneModel::next_message(&mut st);
                }
                Op::Write(BELL)
            }
            _ => unreachable!("sender pc {}", s.s_pc),
        };
        Steps::Ready(vec![(op, st)])
    }

    fn receiver(&self, s: &LaneState) -> Steps<LaneState> {
        const TID: usize = 1;
        if s.r_msg == N_MSG {
            return Steps::Done;
        }
        let m = s.r_msg;
        let loads = |loc: Loc, ord: MemOrd, next: &dyn Fn(&mut LaneState, u64)| {
            s.mem
                .load(TID, loc, ord)
                .into_iter()
                .map(|(v, mem)| {
                    let mut st = s.clone();
                    st.mem = mem;
                    next(&mut st, v);
                    (Op::Read(loc), st)
                })
                .collect::<Vec<_>>()
        };
        let mut st = s.clone();
        let op = match s.r_pc {
            R_BELL => {
                if s.mem.peek(BELL) <= m as u64 {
                    return Steps::Blocked;
                }
                // As the sender's flush: stale reads only retry.
                let rung: Vec<_> = s
                    .mem
                    .load(TID, BELL, MemOrd::Acquire)
                    .into_iter()
                    .filter(|&(v, _)| v > m as u64)
                    .map(|(_, mem)| {
                        let mut st = s.clone();
                        st.mem = mem;
                        st.r_pc = R_DESC;
                        (Op::Read(BELL), st)
                    })
                    .collect();
                return Steps::Ready(rung);
            }
            R_DESC => {
                return Steps::Ready(loads(DESC0 + m as Loc, MemOrd::Relaxed, &|st, v| {
                    match v {
                        0 => st.torn = Some(format!("message {m}: its descriptor is not visible")),
                        INLINE => st.r_off = None,
                        off => st.r_off = Some(off as usize - 1),
                    }
                    st.r_pc = R_ACK;
                }));
            }
            R_ACK => {
                st.mem = s.mem.store(TID, ACK, m as u64 + 1, MemOrd::Release);
                st.r_word = 0;
                st.r_pc = if s.r_off.is_some() { R_READ } else { R_DONE };
                Op::Write(ACK)
            }
            R_READ => {
                let cell = (s.r_off.expect("slot") + HDR + s.r_word) as Loc;
                let word = s.r_word;
                return Steps::Ready(loads(cell, MemOrd::Relaxed, &|st, v| {
                    if v != m as u64 + 1 {
                        st.torn = Some(format!("message {m} word {word} read {v}"));
                    }
                    st.r_word += 1;
                    if st.r_word == LANE_MSGS[m] {
                        st.r_pc = R_RELEASE;
                    }
                }));
            }
            R_RELEASE => {
                let off = s.r_off.expect("slot") as Loc;
                let (_, mem) = s.mem.rmw(TID, off, MemOrd::Release, |v| v.wrapping_sub(1));
                st.mem = mem;
                st.r_pc = R_DONE;
                Op::CasOk(off)
            }
            R_DONE => {
                st.r_msg += 1;
                st.r_pc = R_BELL;
                Op::Local
            }
            _ => unreachable!("receiver pc {}", s.r_pc),
        };
        Steps::Ready(vec![(op, st)])
    }
}

impl NdModel for LaneModel {
    type State = LaneState;

    fn initial(&self) -> LaneState {
        LaneState {
            mem: Mem::new(2, &[0; SEG + N_MSG + 2]),
            s_msg: 0,
            s_pc: L_RECLAIM,
            s_off: None,
            sent: Vec::new(),
            unpinned: 0,
            acked: 0,
            head: 0,
            live: Vec::new(),
            r_msg: 0,
            r_pc: R_BELL,
            r_off: None,
            r_word: 0,
            torn: None,
            overlap: None,
            wrapped: false,
        }
    }

    fn n_threads(&self) -> usize {
        2
    }

    fn steps(&self, s: &LaneState, tid: usize) -> Steps<LaneState> {
        match tid {
            0 => self.sender(s),
            _ => self.receiver(s),
        }
    }

    fn invariant(&self, s: &LaneState) -> Result<(), String> {
        if let Some(t) = &s.torn {
            return Err(format!("torn read: {t}"));
        }
        if let Some(o) = &s.overlap {
            return Err(format!("slot overlap: {o}"));
        }
        if self.bug == LaneBug::WrapWitness && s.wrapped {
            return Err("wrapped around".into());
        }
        if s.s_pc == L_DONE && s.r_msg == N_MSG {
            if let Some(&(off, _)) = s.live.iter().find(|&&(off, _)| s.mem.peek(off as Loc) != 0) {
                return Err(format!("slot {off} still counted after every reference dropped"));
            }
        }
        Ok(())
    }
}

#[test]
fn bulk_lane_slot_protocol_exhaustive_under_dpor() {
    let m = LaneModel { bug: LaneBug::None };
    let r = check_dpor(&m, DporOptions::default())
        .unwrap_or_else(|v| panic!("bulk-lane slot protocol refuted: {v}"));
    println!(
        "bulk-lane model ({} messages, {SEG}-cell segment): DPOR explored {} nodes across {} \
         traces, depth {}",
        N_MSG, r.nodes, r.traces, r.depth
    );
    assert!(r.complete);
    assert!(r.traces > 1, "reclaim-before vs after the release must fork ({r:?})");
    let v = check_dpor(&LaneModel { bug: LaneBug::WrapWitness }, DporOptions::default())
        .expect_err("some interleaving wraps around");
    assert!(
        matches!(v, NdVerdict::InvariantViolated { ref reason, .. } if reason == "wrapped around")
    );
}

fn refute_lane(bug: LaneBug, what: &str, expect: &str) {
    let m = LaneModel { bug };
    let v = check_dpor(&m, DporOptions::default()).expect_err(what);
    println!("{what} counterexample: {v}");
    match &v {
        NdVerdict::InvariantViolated { trace, state, reason, .. } => {
            assert!(reason.contains(expect), "{reason}");
            let states = replay_nd(&m, trace);
            assert_eq!(states.last(), Some(state), "trace must replay to the violation");
        }
        other => panic!("expected an invariant violation, got {other}"),
    }
}

#[test]
fn bulk_lane_publish_before_write_mutant_refuted() {
    refute_lane(LaneBug::PublishEarly, "publish-before-write", "torn read");
}

#[test]
fn bulk_lane_relaxed_publish_mutant_refuted() {
    refute_lane(LaneBug::PublishRelaxed, "relaxed-publish", "torn read");
}

#[test]
fn bulk_lane_reclaim_while_delivered_mutant_refuted() {
    refute_lane(LaneBug::ReclaimLive, "reclaim-while-delivered", "torn read");
}

#[test]
fn bulk_lane_wrap_off_by_one_header_mutant_refuted() {
    refute_lane(LaneBug::WrapOffByOne, "wrap-off-by-one-header", "slot overlap");
}

// ---------------------------------------------------------------------
// 5. The progress rule: a ring of writers
// ---------------------------------------------------------------------

/// Ranks in the ring.
const RING: usize = 3;
/// Frames a socket holds before a write to it blocks.
const SOCKET_FRAMES: u8 = 1;
/// Frames each rank writes to its successor before it reads.
const RING_FRAMES: u8 = 2;

#[derive(Clone, Copy, PartialEq, Eq)]
enum ProgressBug {
    None,
    /// A blocked writer reads only the socket it writes to, which in a
    /// ring brings it nothing.
    OwnSocketOnly,
    /// A blocked send never gives up on a silent peer.
    NoSendBound,
}

/// `PeerConn::send` and `PeerConn::recv_timeout` on a ring of
/// [`RING`] ranks: rank `r` writes [`RING_FRAMES`] frames on the
/// socket to `r + 1`, which holds [`SOCKET_FRAMES`] of them, then
/// receives as many from `r - 1`. A write to a full socket waits by the
/// progress rule: it reads whatever its predecessor's socket holds into
/// that connection's early queue, and gives up once its successor has
/// been silent past the death bound. A receive takes the early queue
/// first, then the socket, and gives up on the same bound. Every rank
/// that waits beacons, so the only silent rank is `wedged`: its
/// process is alive and its sockets open, but it never waits again.
struct ProgressModel {
    bug: ProgressBug,
    wedged: Option<usize>,
}

#[derive(Clone, Hash, PartialEq, Eq, Debug)]
struct ProgressState {
    /// Frames in rank `r`'s socket to its successor.
    wire: [u8; RING],
    /// Frames rank `r` has read off its predecessor's socket while it
    /// waited, not yet received.
    early: [u8; RING],
    sent: [u8; RING],
    received: [u8; RING],
    /// Rank `r`'s send, or its receive, gave up on a silent peer.
    send_gave_up: [bool; RING],
    recv_gave_up: [bool; RING],
}

impl ProgressModel {
    fn silent(&self, rank: usize) -> bool {
        self.wedged == Some(rank)
    }

    /// Rank `r`'s wait for room on its full socket.
    fn blocked_send(&self, s: &ProgressState, r: usize) -> Vec<(Op, ProgressState)> {
        let (succ, pred) = ((r + 1) % RING, (r + RING - 1) % RING);
        let mut branches = Vec::new();
        if self.bug != ProgressBug::OwnSocketOnly && s.wire[pred] > 0 {
            let mut n = s.clone();
            n.early[r] += n.wire[pred];
            n.wire[pred] = 0;
            // It reads both sockets: its own is full, its predecessor's
            // is not empty.
            branches.push((Op::Write(LOC_ANY), n));
        }
        if self.silent(succ) && self.bug != ProgressBug::NoSendBound {
            let mut n = s.clone();
            n.send_gave_up[r] = true;
            branches.push((Op::Read(r as Loc), n));
        }
        branches
    }
}

impl NdModel for ProgressModel {
    type State = ProgressState;

    fn initial(&self) -> ProgressState {
        ProgressState {
            wire: [0; RING],
            early: [0; RING],
            sent: [0; RING],
            received: [0; RING],
            send_gave_up: [false; RING],
            recv_gave_up: [false; RING],
        }
    }

    fn n_threads(&self) -> usize {
        RING
    }

    fn steps(&self, s: &ProgressState, r: usize) -> Steps<ProgressState> {
        if self.silent(r) {
            return Steps::Done;
        }
        let pred = (r + RING - 1) % RING;
        let mut n = s.clone();
        if s.sent[r] < RING_FRAMES && !s.send_gave_up[r] {
            if s.wire[r] < SOCKET_FRAMES {
                n.wire[r] += 1;
                n.sent[r] += 1;
                return Steps::Ready(vec![(Op::Write(r as Loc), n)]);
            }
            let branches = self.blocked_send(s, r);
            return if branches.is_empty() { Steps::Blocked } else { Steps::Ready(branches) };
        }
        if s.received[r] == RING_FRAMES || s.recv_gave_up[r] {
            return Steps::Done;
        }
        n.received[r] += 1;
        if s.early[r] > 0 {
            n.early[r] -= 1;
            Steps::Ready(vec![(Op::Local, n)])
        } else if s.wire[pred] > 0 {
            n.wire[pred] -= 1;
            Steps::Ready(vec![(Op::Write(pred as Loc), n)])
        } else if self.silent(pred) {
            let mut n = s.clone();
            n.recv_gave_up[r] = true;
            Steps::Ready(vec![(Op::Read(pred as Loc), n)])
        } else {
            Steps::Blocked
        }
    }

    /// No frame is lost or made up: every frame a rank sent is in its
    /// socket, in its successor's early queue, or received.
    fn invariant(&self, s: &ProgressState) -> Result<(), String> {
        for r in 0..RING {
            let succ = (r + 1) % RING;
            if s.sent[r] != s.wire[r] + s.early[succ] + s.received[succ] {
                return Err(format!("rank {r}'s frames not conserved: {s:?}"));
            }
        }
        Ok(())
    }
}

#[test]
fn progress_rule_turns_the_ring_exhaustively_under_dpor() {
    for wedged in [None, Some(2)] {
        let m = ProgressModel { bug: ProgressBug::None, wedged };
        let r = check_dpor(&m, DporOptions::default())
            .unwrap_or_else(|v| panic!("progress rule refuted (wedged {wedged:?}): {v}"));
        println!(
            "progress model (wedged {wedged:?}): DPOR explored {} nodes across {} traces, \
             depth {}",
            r.nodes, r.traces, r.depth
        );
        assert!(r.complete);
        check_nd(&m, 1_000_000).unwrap_or_else(|v| panic!("BFS refuted the rule: {v}"));
    }
}

fn refute_progress(m: &ProgressModel, what: &str) {
    let v = check_dpor(m, DporOptions::default()).expect_err(what);
    println!("{what} counterexample: {v}");
    match &v {
        NdVerdict::Deadlock { trace, state, .. } => {
            let states = replay_nd(m, trace);
            assert_eq!(states.last(), Some(state), "trace must replay to the deadlock");
        }
        other => panic!("expected a deadlock, got {other}"),
    }
}

#[test]
fn progress_own_socket_only_mutant_deadlocks() {
    let m = ProgressModel { bug: ProgressBug::OwnSocketOnly, wedged: None };
    refute_progress(&m, "blocked writer reading only its own socket");
}

#[test]
fn progress_no_send_bound_mutant_deadlocks() {
    let m = ProgressModel { bug: ProgressBug::NoSendBound, wedged: Some(2) };
    refute_progress(&m, "blocked send with no silence bound");
}

// ---------------------------------------------------------------------
// Budgeted runs (the CI model-check job's explicit state budget)
// ---------------------------------------------------------------------

#[test]
fn preemption_bounded_fallback_still_refutes_every_mutant() {
    // Under a 2-preemption budget the search is not exhaustive, but
    // every seeded bug still needs at most two preemptions to surface —
    // the fallback mode CI can afford on bigger models.
    let opts = DporOptions { preemption_bound: Some(2), ..Default::default() };
    assert!(check_dpor(
        &QueueModel {
            threads: 3,
            chunks: 3,
            work_steps: 0,
            claims_per_thread: None,
            bug: QueueBug::TornCas
        },
        opts
    )
    .is_err());
    assert!(check_dpor(
        &PoolModel { bug: PoolBug::DroppedGenFence, panic_in: None, submitters: 1 },
        opts
    )
    .is_err());
    assert!(check_dpor(&TileModel { bug: TileBug::RelaxedFetchSub }, opts).is_err());
}
