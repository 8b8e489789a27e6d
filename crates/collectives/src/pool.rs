//! The one way product code gets a thread for fan-out: a persistent
//! core pool with two entry points.
//!
//! [`CorePool::run`] fans a job out to `n` lanes: the calling thread
//! participates as lane 0 and `n - 1` persistent helper threads run the
//! rest. Helpers park between jobs (`thread::park`, never a sleep loop)
//! and are woken by a generation-counter handshake, so a steady-state
//! `run` performs **no heap allocation** and creates no thread: publish
//! the job, unpark, work, park. `run` takes `&mut self` — one job at a
//! time is a property of the type, not of the callers' discipline.
//!
//! * **Exclusive** — an owner that needs every lane running
//!   *concurrently* holds its own pool: the pipelined step executor
//!   (its workers steal from each other's [`RangeQueue`]s) and the
//!   threaded allreduce's rank set (rank bodies block on each other's
//!   sends, so each needs a thread of its own;
//!   [`CorePool::run_zip`]).
//! * **Shared** — data-parallel loops whose items are independent
//!   ([`for_each_mut`], [`for_each_zip_mut`], [`for_each_chunk_mut`])
//!   go to one process-wide pool of [`lanes`] lanes. It is taken with a
//!   `try_lock`: a caller that finds it busy runs the same per-index
//!   calls **inline**, in index order. A fan-out nested inside a shared
//!   job always finds it busy (the outer caller holds it), so nesting
//!   never multiplies threads, and two threads fanning out at once
//!   never queue behind each other. A lane of an exclusive pool that
//!   does per-lane compute (one of several in-process rank bodies) runs
//!   it under [`fold_inline`], the same fold without holding the pool.
//!   What a slot or chunk index *means* is fixed by the caller from the
//!   lane count, never by which thread ran it, so results do not
//!   depend on which path a call took.
//!
//! The pool deliberately does *not* ship a scheduler: jobs receive only
//! their lane index. Work distribution beyond the balanced contiguous
//! partition of [`chunk_range`] (the stealing part) lives with the
//! caller.

use std::cell::Cell;
use std::marker::PhantomData;
use std::mem;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError, TryLockError};
use std::thread::{self, JoinHandle, Thread};

/// Raw job entry point: `(context, lane index)`.
type JobFn = unsafe fn(*const (), usize);

struct Shared {
    /// `JobFn` of the current job, stored as a word.
    job_fn: AtomicUsize,
    /// Context pointer of the current job, stored as a word.
    job_ctx: AtomicUsize,
    /// Bumped once per published job; helpers run when it advances.
    generation: AtomicU64,
    /// Helpers still working on the current job.
    remaining: AtomicUsize,
    /// Set when any helper panicked inside a job.
    panicked: AtomicBool,
    shutdown: AtomicBool,
    /// The thread blocked in [`CorePool::run`], to unpark on completion.
    /// Poisoned only if storing a `Thread` handle panicked, which
    /// leaves the handle whole.
    submitter: Mutex<Thread>,
}

/// Persistent worker pool; see the module docs.
pub struct CorePool {
    shared: Arc<Shared>,
    /// Handles of the helper threads, for unparking on publish.
    helpers: Vec<Thread>,
    joins: Vec<JoinHandle<()>>,
    workers: usize,
}

impl CorePool {
    /// Pool with `workers` total lanes (1 ⇒ everything runs inline on
    /// the calling thread; `n` ⇒ `n - 1` helper threads are spawned).
    pub fn new(workers: usize) -> Self {
        assert!(workers >= 1, "a pool needs at least one worker");
        let shared = Arc::new(Shared {
            job_fn: AtomicUsize::new(0),
            job_ctx: AtomicUsize::new(0),
            generation: AtomicU64::new(0),
            remaining: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            submitter: Mutex::new(thread::current()),
        });
        let mut joins = Vec::with_capacity(workers - 1);
        for idx in 1..workers {
            let sh = Arc::clone(&shared);
            let join = thread::Builder::new()
                .name(format!("core-pool-{idx}"))
                .spawn(move || helper_loop(&sh, idx))
                .expect("spawn core pool helper"); // lint: allow(unwrap): thread spawn failing at pool construction is unrecoverable
            joins.push(join);
        }
        let helpers = joins.iter().map(|j| j.thread().clone()).collect();
        CorePool { shared, helpers, joins, workers }
    }

    /// Total lanes (helpers + the submitting thread).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Run `f(lane)` on every lane, all at once, and wait for all of
    /// them. The borrow checker cannot see across the helper threads,
    /// so the safety contract is enforced by blocking: `f`'s borrows
    /// stay valid because `run` does not return until every helper has
    /// finished the job (the same discipline as scoped threads), and
    /// `&mut self` keeps a second job from being published over the
    /// first.
    ///
    /// Steady-state calls allocate nothing.
    // lint: hot-path
    pub fn run<F: Fn(usize) + Sync>(&mut self, f: &F) {
        unsafe fn trampoline<F: Fn(usize) + Sync>(ctx: *const (), idx: usize) {
            (*(ctx as *const F))(idx)
        }
        if self.workers == 1 {
            f(0);
            return;
        }
        *self.shared.submitter.lock().unwrap_or_else(PoisonError::into_inner) = thread::current();
        self.shared.job_ctx.store(f as *const F as *const () as usize, Ordering::Release);
        self.shared.job_fn.store(trampoline::<F> as JobFn as usize, Ordering::Release);
        self.shared.remaining.store(self.workers - 1, Ordering::Release);
        self.shared.generation.fetch_add(1, Ordering::Release);
        for h in &self.helpers {
            h.unpark();
        }
        // Participate as lane 0. A panic here must still wait for the
        // helpers (their borrows of `f`'s context die with this frame).
        let mine = panic::catch_unwind(AssertUnwindSafe(|| f(0)));
        while self.shared.remaining.load(Ordering::Acquire) != 0 {
            thread::park();
        }
        // Cleared before either unwind so the next job starts clean.
        let helper_panicked = self.shared.panicked.swap(false, Ordering::AcqRel);
        if let Err(payload) = mine {
            panic::resume_unwind(payload);
        }
        if helper_panicked {
            panic!("core pool worker panicked");
        }
    }

    /// [`CorePool::run`] with lane `i` given `&mut items[i]`; the slice
    /// holds exactly one item per lane.
    // lint: hot-path
    pub fn run_each<A: Send>(&mut self, items: &mut [A], f: impl Fn(usize, &mut A) + Sync) {
        assert!(items.len() == self.workers, "one item per lane");
        let items = Slots::new(items);
        // SAFETY: `run` calls each lane index exactly once per job.
        self.run(&|lane| unsafe { f(lane, items.one(lane)) });
    }

    /// [`CorePool::run_each`] over two slices, lane `i` given
    /// `&mut a[i]` and `&mut b[i]`.
    // lint: hot-path
    pub fn run_zip<A: Send, B: Send>(
        &mut self,
        a: &mut [A],
        b: &mut [B],
        f: impl Fn(usize, &mut A, &mut B) + Sync,
    ) {
        assert_eq!(a.len(), b.len(), "one item per lane");
        let b = Slots::new(b);
        // SAFETY: `run_each` calls each lane index exactly once per job.
        self.run_each(a, |lane, x| f(lane, x, unsafe { b.one(lane) }));
    }
}

impl Drop for CorePool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        for h in &self.helpers {
            h.unpark();
        }
        for j in mem::take(&mut self.joins) {
            let _ = j.join();
        }
    }
}

fn helper_loop(shared: &Shared, idx: usize) {
    let mut seen = 0u64;
    loop {
        let gen = shared.generation.load(Ordering::Acquire);
        if gen == seen {
            if shared.shutdown.load(Ordering::Acquire) {
                return;
            }
            thread::park();
            continue;
        }
        seen = gen;
        // SAFETY: `job_fn` was stored from a `JobFn` of the matching
        // monomorphization by `run`, which blocks until `remaining`
        // drains — the context outlives this call.
        let f: JobFn =
            unsafe { mem::transmute::<usize, JobFn>(shared.job_fn.load(Ordering::Acquire)) };
        let ctx = shared.job_ctx.load(Ordering::Acquire) as *const ();
        if panic::catch_unwind(AssertUnwindSafe(|| unsafe { f(ctx, idx) })).is_err() {
            shared.panicked.store(true, Ordering::Release);
        }
        if shared.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            shared.submitter.lock().unwrap_or_else(PoisonError::into_inner).unpark();
        }
    }
}

/// A mutable slice handed out piecewise to the lanes of one job.
struct Slots<'a, T> {
    ptr: *mut T,
    len: usize,
    _borrow: PhantomData<&'a mut [T]>,
}

// SAFETY: the handle only ever yields disjoint `&mut` pieces of the
// slice it exclusively borrows (the `range` contract), so sharing it
// moves `&mut T`s to other threads and nothing more: `T: Send`.
unsafe impl<T: Send> Sync for Slots<'_, T> {}

impl<'a, T> Slots<'a, T> {
    fn new(items: &'a mut [T]) -> Self {
        Slots { ptr: items.as_mut_ptr(), len: items.len(), _borrow: PhantomData }
    }

    /// # Safety
    /// Ranges taken while an earlier piece is still alive must not
    /// overlap it.
    unsafe fn range(&self, r: Range<usize>) -> &'a mut [T] {
        assert!(r.start <= r.end && r.end <= self.len, "piece out of bounds");
        std::slice::from_raw_parts_mut(self.ptr.add(r.start), r.end - r.start)
    }

    /// # Safety
    /// As [`Slots::range`], for the one element at `i`.
    unsafe fn one(&self, i: usize) -> &'a mut T {
        &mut self.range(i..i + 1)[0]
    }
}

/// Balanced contiguous chunk `c` of `n` chunks over `len` items — the
/// partition every fan-out in the workspace uses, so a slot index means
/// the same items whichever thread runs it.
pub fn chunk_range(len: usize, n: usize, c: usize) -> Range<usize> {
    let base = len / n;
    let rem = len % n;
    let start = c * base + c.min(rem);
    start..start + base + usize::from(c < rem)
}

/// Lanes of the shared pool: the machine's available parallelism, read
/// once. Callers size per-lane state (fold slots, partials) by it.
pub fn lanes() -> usize {
    static LANES: OnceLock<usize> = OnceLock::new();
    *LANES.get_or_init(|| thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The process-wide pool behind the `for_each_*` entry points. Its
/// helpers live as long as the process; they are parked whenever no
/// fan-out is running.
fn shared_pool() -> &'static Mutex<CorePool> {
    static POOL: OnceLock<Mutex<CorePool>> = OnceLock::new();
    POOL.get_or_init(|| Mutex::new(CorePool::new(lanes())))
}

/// `m`'s guard if no one holds it, poisoned or not; `None` if it is held.
fn try_lock_poisoned_too<T>(m: &Mutex<T>) -> Option<MutexGuard<'_, T>> {
    match m.try_lock() {
        Ok(guard) => Some(guard),
        Err(TryLockError::Poisoned(p)) => Some(p.into_inner()),
        Err(TryLockError::WouldBlock) => None,
    }
}

thread_local! {
    /// Set while this thread folds its shared fan-outs inline.
    static INLINE: Cell<bool> = const { Cell::new(false) };
}

/// Run `f` with every shared fan-out it makes on this thread folded
/// inline (`on`), exactly as if the shared pool were busy, or offered
/// to the shared pool as usual (`!on`); the thread's previous setting
/// is restored afterwards, on unwind too. Folding is for a thread that
/// is itself one of several concurrent lanes — an in-process rank body
/// on an exclusive pool — so that nesting never multiplies threads: N
/// such lanes are N compute threads, not N plus the shared pool's.
pub fn fold_inline<R>(on: bool, f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            INLINE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(INLINE.with(|c| c.replace(on)));
    f()
}

/// Call `body(i)` exactly once for every `i` in `0..n`: split over the
/// shared pool's lanes by [`chunk_range`], or in index order on the
/// calling thread when the pool is busy or the thread folds inline
/// ([`fold_inline`]; see the module docs).
// lint: hot-path
fn fan_out(n: usize, body: impl Fn(usize) + Sync) {
    if n > 1 && !INLINE.with(Cell::get) {
        // Poisoned means a job panicked, but the pool itself is
        // consistent: `run` drains its helpers before unwinding.
        if let Some(mut pool) = try_lock_poisoned_too(shared_pool()) {
            let k = pool.workers().min(n);
            pool.run(&|lane| {
                if lane < k {
                    chunk_range(n, k, lane).for_each(&body);
                }
            });
            return;
        }
    }
    (0..n).for_each(body);
}

/// `f(c, chunk)` for every `size`-element window of `items` (the last
/// may be short), fanned out over the shared pool.
// lint: hot-path
pub fn for_each_chunk_mut<T: Send>(
    items: &mut [T],
    size: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    assert!(size > 0, "chunk size must be non-zero");
    let len = items.len();
    let slots = Slots::new(items);
    fan_out(len.div_ceil(size), |c| {
        let start = c * size;
        // SAFETY: `fan_out` visits each `c` once and the windows of
        // distinct `c` are disjoint.
        f(c, unsafe { slots.range(start..(start + size).min(len)) });
    });
}

/// `f(i, &mut items[i])` for every item, fanned out over the shared
/// pool.
// lint: hot-path
pub fn for_each_mut<T: Send>(items: &mut [T], f: impl Fn(usize, &mut T) + Sync) {
    for_each_chunk_mut(items, 1, |i, one| f(i, &mut one[0]));
}

/// `f(i, &mut a[i], &mut b[i])` for every index of two equally long
/// slices, fanned out over the shared pool.
// lint: hot-path
pub fn for_each_zip_mut<A: Send, B: Send>(
    a: &mut [A],
    b: &mut [B],
    f: impl Fn(usize, &mut A, &mut B) + Sync,
) {
    assert_eq!(a.len(), b.len(), "zipped slices differ in length");
    let b = Slots::new(b);
    // SAFETY: `for_each_mut` visits each `i` once.
    for_each_mut(a, |i, x| f(i, x, unsafe { b.one(i) }));
}

/// A contiguous block of task indices, packed `head:32 | end:32` into
/// one atomic word so owners and thieves race through plain CAS.
/// Owners take from the head, thieves from the tail; either way a
/// claimed index is claimed exactly once.
#[derive(Debug)]
pub struct RangeQueue(AtomicU64);

fn pack(head: u32, end: u32) -> u64 {
    (u64::from(head) << 32) | u64::from(end)
}

impl RangeQueue {
    pub fn empty() -> Self {
        RangeQueue(AtomicU64::new(0))
    }

    /// Reset to cover `start..end` (called between jobs, single-threaded).
    pub fn reset(&self, start: usize, end: usize) {
        debug_assert!(start <= end && end <= u32::MAX as usize);
        self.0.store(pack(start as u32, end as u32), Ordering::Release);
    }

    /// Claim the next index from the front (the owner's fast path).
    // lint: hot-path
    pub fn pop_front(&self) -> Option<usize> {
        let mut cur = self.0.load(Ordering::Acquire);
        loop {
            let (head, end) = ((cur >> 32) as u32, cur as u32);
            if head >= end {
                return None;
            }
            match self.0.compare_exchange_weak(
                cur,
                pack(head + 1, end),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some(head as usize),
                Err(now) => cur = now,
            }
        }
    }

    /// Claim the last index from the back (the thief's entry point).
    // lint: hot-path
    pub fn steal_back(&self) -> Option<usize> {
        let mut cur = self.0.load(Ordering::Acquire);
        loop {
            let (head, end) = ((cur >> 32) as u32, cur as u32);
            if head >= end {
                return None;
            }
            match self.0.compare_exchange_weak(
                cur,
                pack(head, end - 1),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some((end - 1) as usize),
                Err(now) => cur = now,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn inline_pool_runs_on_the_caller() {
        let mut pool = CorePool::new(1);
        let hits = AtomicU32::new(0);
        pool.run(&|idx| {
            assert_eq!(idx, 0);
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn every_worker_lane_runs_each_job() {
        let mut pool = CorePool::new(3);
        for _ in 0..50 {
            let mask = AtomicU32::new(0);
            pool.run(&|idx| {
                mask.fetch_or(1 << idx, Ordering::Relaxed);
            });
            assert_eq!(mask.load(Ordering::Relaxed), 0b111);
        }
    }

    #[test]
    fn borrowed_state_is_visible_after_run() {
        let mut pool = CorePool::new(2);
        let mut data = vec![0u64; 1000];
        let cells: Vec<AtomicU64> = (0..1000).map(|_| AtomicU64::new(0)).collect();
        pool.run(&|idx| {
            for (i, c) in cells.iter().enumerate() {
                if i % 2 == idx {
                    c.store(i as u64 + 1, Ordering::Relaxed);
                }
            }
        });
        for (d, c) in data.iter_mut().zip(&cells) {
            *d = c.load(Ordering::Relaxed);
        }
        assert!(data.iter().enumerate().all(|(i, &v)| v == i as u64 + 1));
    }

    #[test]
    fn worker_panic_propagates_to_the_submitter() {
        let mut pool = CorePool::new(2);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(&|idx| {
                if idx == 1 {
                    panic!("boom");
                }
            });
        }));
        // Either the helper's flagged panic or (rarely, if worker 0 is
        // re-dispatched...) — the run must not succeed silently.
        assert!(caught.is_err(), "helper panic must surface");
        // The pool stays usable for the next job.
        let ok = AtomicU32::new(0);
        pool.run(&|_| {
            ok.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ok.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn run_zip_hands_each_lane_its_own_pair() {
        let mut pool = CorePool::new(3);
        let mut a = vec![0usize; 3];
        let mut b = vec![String::new(); 3];
        pool.run_zip(&mut a, &mut b, |lane, x, y| {
            *x = lane + 10;
            y.push_str(&lane.to_string());
        });
        assert_eq!(a, [10, 11, 12]);
        assert_eq!(b, ["0", "1", "2"]);
    }

    /// The shared entry points under the load they are built for: many
    /// threads fanning out at once (so some find the pool busy and run
    /// inline), every job nesting a second fan-out inside the first.
    /// `+=` makes a double visit as visible as a missed one.
    #[test]
    fn shared_fan_out_visits_each_index_once_under_concurrent_nested_callers() {
        const THREADS: usize = 4;
        const ROWS: usize = 7;
        const COLS: usize = 5;
        let start = std::sync::Barrier::new(THREADS);
        thread::scope(|s| {
            for t in 0..THREADS {
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    for round in 0..200 {
                        let cell = |i: usize, j: usize| (t * 1000 + round + i * COLS + j) as u32;
                        let mut grid = vec![vec![0u32; COLS]; ROWS];
                        let mut sums = vec![0u32; ROWS];
                        for_each_zip_mut(&mut grid, &mut sums, |i, row, sum| {
                            for_each_mut(row, |j, c| *c += cell(i, j));
                            for_each_chunk_mut(row, 2, |c, pair| {
                                assert_eq!(pair.len(), if c == COLS / 2 { 1 } else { 2 });
                                pair.iter_mut().for_each(|x| *x += 1);
                            });
                            *sum += row.iter().sum::<u32>();
                        });
                        for (i, row) in grid.iter().enumerate() {
                            let want: Vec<u32> = (0..COLS).map(|j| cell(i, j) + 1).collect();
                            assert_eq!(row, &want);
                            assert_eq!(sums[i], want.iter().sum::<u32>());
                        }
                    }
                });
            }
        });
    }

    /// Folded, every shared fan-out runs on the calling thread, in index
    /// order, even with the shared pool idle; a nested `fold_inline(false)`
    /// lifts the fold for its own extent only; afterwards the previous
    /// setting is back, a panic inside included.
    #[test]
    fn fold_inline_folds_shared_fan_outs_onto_the_caller() {
        let me = thread::current().id();
        let mut order = vec![None; 16];
        fold_inline(true, || {
            for_each_mut(&mut order, |i, slot| *slot = Some((i, thread::current().id())));
            assert!(!fold_inline(false, || INLINE.with(Cell::get)), "lifted inside");
            assert!(INLINE.with(Cell::get), "folded again after the lift");
        });
        for (i, slot) in order.iter().enumerate() {
            assert_eq!(*slot, Some((i, me)));
        }
        let caught = panic::catch_unwind(|| fold_inline(true, || panic!("boom")));
        assert!(caught.is_err());
        assert!(!INLINE.with(Cell::get), "the flag is restored on unwind");
    }

    #[test]
    fn shared_pool_stays_usable_after_a_job_panics() {
        for _ in 0..20 {
            let mut items = vec![0u8; 8];
            let caught = panic::catch_unwind(AssertUnwindSafe(|| {
                for_each_mut(&mut items, |i, _| assert_ne!(i, 5, "boom"));
            }));
            assert!(caught.is_err(), "the job's panic must surface");
            let mut after = vec![0usize; 64];
            for_each_chunk_mut(&mut after, 8, |c, window| window.fill(c));
            assert!(after.iter().enumerate().all(|(i, &v)| v == i / 8));
        }
    }

    #[test]
    fn a_poisoned_shared_lock_is_still_taken() {
        let m = Mutex::new(0u8);
        let _ = panic::catch_unwind(AssertUnwindSafe(|| {
            let _held = m.lock();
            panic!("poison");
        }));
        assert!(m.is_poisoned());
        let guard = try_lock_poisoned_too(&m);
        assert!(guard.is_some(), "a poisoned pool is still handed out");
        assert!(try_lock_poisoned_too(&m).is_none(), "a held one is not");
    }

    #[test]
    fn range_queue_hands_out_each_index_once() {
        let q = RangeQueue::empty();
        q.reset(3, 11);
        let mut got = Vec::new();
        got.push(q.steal_back());
        while let Some(i) = q.pop_front() {
            got.push(Some(i));
        }
        assert_eq!(q.steal_back(), None);
        let mut idx: Vec<usize> = got.into_iter().flatten().collect();
        idx.sort_unstable();
        assert_eq!(idx, (3..11).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_owners_and_thieves_never_duplicate() {
        let q = RangeQueue::empty();
        q.reset(0, 4000);
        let claims: Vec<AtomicU32> = (0..4000).map(|_| AtomicU32::new(0)).collect();
        thread::scope(|s| {
            for t in 0..4 {
                let q = &q;
                let claims = &claims;
                s.spawn(move || loop {
                    let got = if t % 2 == 0 { q.pop_front() } else { q.steal_back() };
                    match got {
                        Some(i) => {
                            claims[i].fetch_add(1, Ordering::Relaxed);
                        }
                        None => break,
                    }
                });
            }
        });
        assert!(claims.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn chunk_range_partitions() {
        for len in [1usize, 2, 7, 16] {
            for n in 1..=4usize.min(len) {
                let mut covered = 0;
                let mut prev = 0;
                for c in 0..n {
                    let r = chunk_range(len, n, c);
                    assert_eq!(r.start, prev);
                    prev = r.end;
                    covered += r.len();
                }
                assert_eq!(covered, len);
            }
        }
    }
}
