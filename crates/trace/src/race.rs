//! A vector-clock happens-before race detector for the pipelined
//! executor, in the FastTrack style: last-write *epochs* per location
//! plus a read vector clock, with synchronization modeled through a
//! narrow [`sync_event`] hook.
//!
//! Identity piggybacks the span recorder's `(pid, tid)` convention
//! (rank → pid, executor thread → tid), so the lanes a race report
//! names line up with the lanes in the Chrome trace of the same run.
//!
//! Like the span recorder (§5b of DESIGN.md), the hot path performs
//! **zero heap allocation**: every table — thread slots, their vector
//! clocks, the location and sync-object tables — is preallocated at
//! construction, and `on_read`/`on_write`/`sync_event` only index into
//! them. Lookup is open addressing over fixed power-of-two tables;
//! filling a table is a hard error (`TableFull`), never a realloc.
//!
//! The protocol mapping used by the trainer's `race-detect` feature:
//!
//! * `RangeQueue` claims and the tile completion counters are AcqRel
//!   RMW chains → [`SyncKind::AcqRel`] on a sync object per queue word
//!   / per counter.
//! * `collectives::pool::CorePool::run`'s publish (Release stores +
//!   unpark) and the helpers' generation load →
//!   [`SyncKind::Release`] by the submitter, [`SyncKind::Acquire`] by
//!   each helper, on one sync object per pool phase direction.
//! * Gradient tile payloads and the weight buffers are the *data*
//!   whose accesses `on_read`/`on_write` track.

use std::fmt;
use std::sync::{Mutex, OnceLock};

/// How a [`RaceDetector::sync_event`] moves clocks around.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncKind {
    /// Publish: the sync object's clock joins the thread's view
    /// (`L ⊔= C_t`), then the thread's own epoch advances.
    Release,
    /// Subscribe: the thread's view joins the object's clock
    /// (`C_t ⊔= L`).
    Acquire,
    /// An RMW edge (CAS / fetch_sub chains): acquire then release.
    AcqRel,
}

/// One recorded race (reports are capped; the count is not).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RaceReport {
    pub loc: u64,
    /// `(pid, tid)` of the prior access this one races with.
    pub prior: (u32, u32),
    /// `(pid, tid)` of the racing access.
    pub current: (u32, u32),
    /// True when both accesses are writes.
    pub write_write: bool,
}

impl fmt::Display for RaceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} race on loc {:#x}: ({},{}) vs ({},{})",
            if self.write_write { "write-write" } else { "read-write" },
            self.loc,
            self.prior.0,
            self.prior.1,
            self.current.0,
            self.current.1,
        )
    }
}

/// Why a hook call could not be tracked.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RaceError {
    /// More distinct `(pid, tid)` lanes than `max_threads`.
    TooManyThreads,
    /// The location or sync-object table filled up.
    TableFull,
}

const EMPTY: u64 = u64::MAX;

/// Fixed-capacity open-addressing map from a `u64` key to a slot index
/// in a side table. Never allocates after construction.
struct FixedMap {
    keys: Vec<u64>,
    slots: Vec<u32>,
    len: usize,
}

impl FixedMap {
    fn new(capacity_pow2: usize) -> Self {
        assert!(capacity_pow2.is_power_of_two());
        FixedMap { keys: vec![EMPTY; capacity_pow2], slots: vec![0; capacity_pow2], len: 0 }
    }

    /// Find `key`, or claim the next free slot for it. `Err` when the
    /// table is at its fill limit (¾ of capacity keeps probing short).
    fn get_or_insert(&mut self, key: u64) -> Result<(u32, bool), RaceError> {
        debug_assert_ne!(key, EMPTY, "u64::MAX is the tombstone key");
        // Fibonacci hashing: cheap, and good enough for addresses.
        let mask = self.keys.len() - 1;
        let mut i = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & mask;
        loop {
            if self.keys[i] == key {
                return Ok((self.slots[i], false));
            }
            if self.keys[i] == EMPTY {
                if self.len >= self.keys.len() / 4 * 3 {
                    return Err(RaceError::TableFull);
                }
                let slot = self.len as u32;
                self.keys[i] = key;
                self.slots[i] = slot;
                self.len += 1;
                return Ok((slot, true));
            }
            i = (i + 1) & mask;
        }
    }
}

/// Per-location access history: FastTrack's write epoch + read VC.
struct LocState {
    /// Thread slot and clock of the last write (`u32::MAX`: none yet).
    write_tid: u32,
    write_clk: u32,
    write_id: (u32, u32),
    /// Last read clock per thread slot.
    reads: Vec<u32>,
    read_ids: Vec<(u32, u32)>,
}

struct Inner {
    /// Registered `(pid, tid)` lanes, and one VC per lane.
    lane_map: FixedMap,
    lane_ids: Vec<(u32, u32)>,
    /// Flattened `max_threads × max_threads` clock matrix.
    clocks: Vec<u32>,
    locs: FixedMap,
    loc_states: Vec<LocState>,
    syncs: FixedMap,
    /// Flattened `max_syncs × max_threads` sync-object clocks.
    sync_clocks: Vec<u32>,
    races: u64,
    dropped: u64,
    reports: Vec<RaceReport>,
    max_threads: usize,
}

/// The detector. One instance per run; share it via [`install`] /
/// [`global`] or pass it around explicitly. All methods take `&self`
/// (a mutex guards the clock state — the contention is acceptable
/// because the detector only runs in the `race-detect` configuration).
pub struct RaceDetector {
    inner: Mutex<Inner>,
    report_cap: usize,
}

impl RaceDetector {
    /// Preallocate for at most `max_threads` lanes, `max_locs` tracked
    /// locations and `max_syncs` sync objects. Everything the hot path
    /// touches is sized here, up front.
    pub fn new(max_threads: usize, max_locs: usize, max_syncs: usize) -> Self {
        let loc_cap = (max_locs * 4 / 3 + 1).next_power_of_two();
        let sync_cap = (max_syncs * 4 / 3 + 1).next_power_of_two();
        let lane_cap = (max_threads * 4 / 3 + 1).next_power_of_two();
        let mut loc_states = Vec::with_capacity(loc_cap);
        for _ in 0..loc_cap {
            loc_states.push(LocState {
                write_tid: u32::MAX,
                write_clk: 0,
                write_id: (0, 0),
                reads: vec![0; max_threads],
                read_ids: vec![(0, 0); max_threads],
            });
        }
        RaceDetector {
            inner: Mutex::new(Inner {
                lane_map: FixedMap::new(lane_cap),
                lane_ids: vec![(0, 0); max_threads],
                clocks: vec![0; max_threads * max_threads],
                locs: FixedMap::new(loc_cap),
                loc_states,
                syncs: FixedMap::new(sync_cap),
                sync_clocks: vec![0; sync_cap * max_threads],
                races: 0,
                dropped: 0,
                reports: Vec::with_capacity(64),
                max_threads,
            }),
            report_cap: 64,
        }
    }

    /// A write of `loc` by lane `(pid, tid)`.
    pub fn on_write(&self, pid: u32, tid: u32, loc: u64) {
        let mut g = self.inner.lock().unwrap(); // lint: allow(unwrap): poisoning implies a prior panic under this lock
        let Some(t) = lane(&mut g, pid, tid) else { return };
        let Some(l) = loc_slot(&mut g, loc) else { return };
        let n = g.max_threads;
        let my_clk = g.clocks[t * n + t];
        let st = &g.loc_states[l];
        // Prior write must happen-before this one...
        let mut racy = None;
        if st.write_tid != u32::MAX {
            let w = st.write_tid as usize;
            if w != t && st.write_clk > g.clocks[t * n + w] {
                racy = Some((st.write_id, true));
            }
        }
        // ...and so must every prior read.
        if racy.is_none() {
            for u in 0..n {
                if u != t && st.reads[u] > g.clocks[t * n + u] {
                    racy = Some((st.read_ids[u], false));
                    break;
                }
            }
        }
        if let Some((prior, ww)) = racy {
            record(
                &mut g,
                self.report_cap,
                RaceReport { loc, prior, current: (pid, tid), write_write: ww },
            );
        }
        let st = &mut g.loc_states[l];
        st.write_tid = t as u32;
        st.write_clk = my_clk;
        st.write_id = (pid, tid);
        // The write epoch subsumes older same-thread reads; other
        // threads' reads stay (they must still be checked against
        // later writers, and remain covered by the VC entries above).
        st.reads[t] = my_clk;
        st.read_ids[t] = (pid, tid);
    }

    /// A read of `loc` by lane `(pid, tid)`.
    pub fn on_read(&self, pid: u32, tid: u32, loc: u64) {
        let mut g = self.inner.lock().unwrap(); // lint: allow(unwrap): poisoning implies a prior panic under this lock
        let Some(t) = lane(&mut g, pid, tid) else { return };
        let Some(l) = loc_slot(&mut g, loc) else { return };
        let n = g.max_threads;
        let my_clk = g.clocks[t * n + t];
        let st = &g.loc_states[l];
        if st.write_tid != u32::MAX {
            let w = st.write_tid as usize;
            if w != t && st.write_clk > g.clocks[t * n + w] {
                let prior = st.write_id;
                record(
                    &mut g,
                    self.report_cap,
                    RaceReport { loc, prior, current: (pid, tid), write_write: false },
                );
            }
        }
        let st = &mut g.loc_states[l];
        st.reads[t] = my_clk;
        st.read_ids[t] = (pid, tid);
    }

    /// A synchronization edge through sync object `obj`.
    pub fn sync_event(&self, pid: u32, tid: u32, obj: u64, kind: SyncKind) {
        let mut g = self.inner.lock().unwrap(); // lint: allow(unwrap): poisoning implies a prior panic under this lock
        let Some(t) = lane(&mut g, pid, tid) else { return };
        let Ok((s, _)) = g.syncs.get_or_insert(obj) else {
            g.dropped += 1;
            return;
        };
        let n = g.max_threads;
        let (s, t_row) = (s as usize * n, t * n);
        if matches!(kind, SyncKind::Acquire | SyncKind::AcqRel) {
            for u in 0..n {
                g.clocks[t_row + u] = g.clocks[t_row + u].max(g.sync_clocks[s + u]);
            }
        }
        if matches!(kind, SyncKind::Release | SyncKind::AcqRel) {
            for u in 0..n {
                g.sync_clocks[s + u] = g.sync_clocks[s + u].max(g.clocks[t_row + u]);
            }
            // Advance the epoch so later unrelated accesses by this
            // thread are not confused with the published prefix.
            g.clocks[t_row + t] += 1;
        }
    }

    /// Total races observed (never capped).
    pub fn races(&self) -> u64 {
        self.inner.lock().unwrap().races // lint: allow(unwrap): poisoning implies a prior panic under this lock
    }

    /// Hook calls dropped because a table filled up.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().unwrap().dropped // lint: allow(unwrap): poisoning implies a prior panic under this lock
    }

    /// The first few race reports (capped at 64).
    pub fn reports(&self) -> Vec<RaceReport> {
        self.inner.lock().unwrap().reports.clone() // lint: allow(unwrap): poisoning implies a prior panic under this lock
    }
}

fn lane(g: &mut Inner, pid: u32, tid: u32) -> Option<usize> {
    let key = (u64::from(pid) << 32) | u64::from(tid);
    // The span recorder's (pid, tid) pairs are never (MAX, MAX).
    match g.lane_map.get_or_insert(key) {
        Ok((slot, fresh)) => {
            let slot = slot as usize;
            if slot >= g.max_threads {
                g.dropped += 1;
                return None;
            }
            if fresh {
                g.lane_ids[slot] = (pid, tid);
                // Epoch convention: a thread's own clock starts at 1,
                // every other view of it at 0 — so an access is
                // unordered (`clk > view`) until a release publishes.
                let n = g.max_threads;
                g.clocks[slot * n + slot] = 1;
            }
            Some(slot)
        }
        Err(_) => {
            g.dropped += 1;
            None
        }
    }
}

fn loc_slot(g: &mut Inner, loc: u64) -> Option<usize> {
    match g.locs.get_or_insert(loc) {
        Ok((slot, _)) => Some(slot as usize),
        Err(_) => {
            g.dropped += 1;
            None
        }
    }
}

fn record(g: &mut Inner, cap: usize, r: RaceReport) {
    g.races += 1;
    if g.reports.len() < cap {
        g.reports.push(r);
    }
}

static GLOBAL: OnceLock<RaceDetector> = OnceLock::new();

/// Install a process-wide detector (first caller wins) and return it.
pub fn install(max_threads: usize, max_locs: usize, max_syncs: usize) -> &'static RaceDetector {
    GLOBAL.get_or_init(|| RaceDetector::new(max_threads, max_locs, max_syncs))
}

/// The installed detector, if any. Instrumentation sites use this so
/// uninstrumented runs pay one atomic load.
pub fn global() -> Option<&'static RaceDetector> {
    GLOBAL.get()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unsynchronized_write_write_is_a_race() {
        let d = RaceDetector::new(4, 16, 16);
        d.on_write(0, 0, 0x10);
        d.on_write(0, 1, 0x10);
        assert_eq!(d.races(), 1);
        let r = d.reports()[0];
        assert!(r.write_write);
        assert_eq!(r.prior, (0, 0));
        assert_eq!(r.current, (0, 1));
    }

    #[test]
    fn release_acquire_orders_the_handoff() {
        let d = RaceDetector::new(4, 16, 16);
        d.on_write(0, 0, 0x10);
        d.sync_event(0, 0, 0xA, SyncKind::Release);
        d.sync_event(0, 1, 0xA, SyncKind::Acquire);
        d.on_write(0, 1, 0x10);
        d.on_read(0, 1, 0x10);
        assert_eq!(d.races(), 0, "{:?}", d.reports());
    }

    #[test]
    fn acquire_without_matching_release_does_not_synchronize() {
        let d = RaceDetector::new(4, 16, 16);
        d.on_write(0, 0, 0x10);
        // Thread 1 acquires a *different* object: no edge.
        d.sync_event(0, 0, 0xA, SyncKind::Release);
        d.sync_event(0, 1, 0xB, SyncKind::Acquire);
        d.on_read(0, 1, 0x10);
        assert_eq!(d.races(), 1);
        assert!(!d.reports()[0].write_write);
    }

    #[test]
    fn rmw_chain_links_successive_claimants() {
        let d = RaceDetector::new(4, 16, 16);
        // t0 writes, then joins an AcqRel chain (a CAS on a queue
        // word); t1 continues the chain and may touch the data.
        d.on_write(0, 0, 0x20);
        d.sync_event(0, 0, 0xC, SyncKind::AcqRel);
        d.sync_event(0, 1, 0xC, SyncKind::AcqRel);
        d.on_write(0, 1, 0x20);
        // t2 never joined the chain: its read races.
        d.on_read(0, 2, 0x20);
        assert_eq!(d.races(), 1);
        assert_eq!(d.reports()[0].current, (0, 2));
    }

    #[test]
    fn read_then_unsynchronized_write_is_a_race() {
        let d = RaceDetector::new(4, 16, 16);
        d.on_read(0, 0, 0x30);
        d.on_write(0, 1, 0x30);
        assert_eq!(d.races(), 1);
        let r = d.reports()[0];
        assert!(!r.write_write);
        assert_eq!(r.prior, (0, 0));
    }

    #[test]
    fn same_thread_accesses_never_race() {
        let d = RaceDetector::new(4, 16, 16);
        d.on_write(0, 0, 0x40);
        d.on_read(0, 0, 0x40);
        d.on_write(0, 0, 0x40);
        assert_eq!(d.races(), 0);
    }

    #[test]
    fn transitive_happens_before_through_two_objects() {
        let d = RaceDetector::new(4, 16, 16);
        d.on_write(0, 0, 0x50);
        d.sync_event(0, 0, 0x1, SyncKind::Release);
        d.sync_event(0, 1, 0x1, SyncKind::Acquire);
        d.sync_event(0, 1, 0x2, SyncKind::Release);
        d.sync_event(0, 2, 0x2, SyncKind::Acquire);
        d.on_write(0, 2, 0x50);
        assert_eq!(d.races(), 0, "{:?}", d.reports());
    }

    #[test]
    fn table_overflow_is_counted_not_grown() {
        let d = RaceDetector::new(2, 4, 4);
        for i in 0..64 {
            d.on_write(0, 0, 0x100 + i);
        }
        assert!(d.dropped() > 0);
        // Lanes beyond max_threads are dropped, not misattributed.
        d.on_write(0, 7, 0x100);
        d.on_write(0, 8, 0x100);
        assert!(d.dropped() > 0);
    }

    #[test]
    fn race_count_keeps_growing_past_the_report_cap() {
        let d = RaceDetector::new(4, 256, 4);
        for i in 0..100 {
            d.on_write(0, 0, 0x1000 + i);
            d.on_write(0, 1, 0x1000 + i);
        }
        assert_eq!(d.races(), 100);
        assert_eq!(d.reports().len(), 64);
    }
}
