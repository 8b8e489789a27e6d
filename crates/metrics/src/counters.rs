//! Fault/recovery counters: the quantitative face of a chaos run.
//!
//! A [`FaultCounters`] is a bag of relaxed atomics shared by reference
//! across rank threads; the executor, the fault decorator, and the
//! trainer bump them as events happen. [`FaultCounters::snapshot`] freezes them into
//! a plain [`FaultCounterSnapshot`] for assertions and reports.
//! Injection counts and topology changes are deterministic under a
//! fixed fault plan; timeout/resend/duplicate counts depend on OS
//! scheduling and should only be bounded, not matched exactly.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Shared mutable counters (see module docs).
#[derive(Debug, Default)]
pub struct FaultCounters {
    pub injected_straggles: AtomicU64,
    pub injected_drops: AtomicU64,
    pub injected_corruptions: AtomicU64,
    pub injected_crashes: AtomicU64,
    pub timeouts: AtomicU64,
    pub resends: AtomicU64,
    pub crc_rejects: AtomicU64,
    pub duplicates_dropped: AtomicU64,
    pub rank_deaths: AtomicU64,
    pub degradations: AtomicU64,
    pub checkpoint_saves: AtomicU64,
    pub checkpoint_restores: AtomicU64,
}

/// A frozen copy of every counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounterSnapshot {
    pub injected_straggles: u64,
    pub injected_drops: u64,
    pub injected_corruptions: u64,
    pub injected_crashes: u64,
    pub timeouts: u64,
    pub resends: u64,
    pub crc_rejects: u64,
    pub duplicates_dropped: u64,
    pub rank_deaths: u64,
    pub degradations: u64,
    pub checkpoint_saves: u64,
    pub checkpoint_restores: u64,
}

impl FaultCounters {
    pub fn new() -> Self {
        Self::default()
    }

    /// Bump a counter by one. All loads/stores are relaxed: counters
    /// are statistics, not synchronization.
    pub fn bump(c: &AtomicU64) {
        c.fetch_add(1, Ordering::Relaxed); // lint: allow(relaxed): fault statistics; snapshots tolerate torn cross-counter views
    }

    pub fn snapshot(&self) -> FaultCounterSnapshot {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed); // lint: allow(relaxed): fault statistics; snapshots tolerate torn cross-counter views
        FaultCounterSnapshot {
            injected_straggles: get(&self.injected_straggles),
            injected_drops: get(&self.injected_drops),
            injected_corruptions: get(&self.injected_corruptions),
            injected_crashes: get(&self.injected_crashes),
            timeouts: get(&self.timeouts),
            resends: get(&self.resends),
            crc_rejects: get(&self.crc_rejects),
            duplicates_dropped: get(&self.duplicates_dropped),
            rank_deaths: get(&self.rank_deaths),
            degradations: get(&self.degradations),
            checkpoint_saves: get(&self.checkpoint_saves),
            checkpoint_restores: get(&self.checkpoint_restores),
        }
    }
}

impl FaultCounterSnapshot {
    /// Total injected faults of every kind.
    pub fn injected_total(&self) -> u64 {
        self.injected_straggles
            + self.injected_drops
            + self.injected_corruptions
            + self.injected_crashes
    }

    /// Total recovery actions taken (retries, resends, rejections,
    /// duplicate discards, deaths, degradations).
    pub fn recovery_total(&self) -> u64 {
        self.timeouts
            + self.resends
            + self.crc_rejects
            + self.duplicates_dropped
            + self.rank_deaths
            + self.degradations
    }

    /// The subset of fields that must replay identically under a fixed
    /// fault plan (injections + the coordinator's degradations).
    /// `rank_deaths` counts the survivors that noticed a hang-up before
    /// the coordinator's degrade reached them, a race between threads,
    /// so it is masked like the other recovery noise.
    pub fn deterministic_part(&self) -> FaultCounterSnapshot {
        FaultCounterSnapshot {
            timeouts: 0,
            resends: 0,
            crc_rejects: 0,
            duplicates_dropped: 0,
            rank_deaths: 0,
            ..*self
        }
    }
}

impl fmt::Display for FaultCounterSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "injected[straggle={} drop={} corrupt={} crash={}] \
             recovery[timeout={} resend={} crc={} dup={} dead={} degraded={}] \
             checkpoint[save={} restore={}]",
            self.injected_straggles,
            self.injected_drops,
            self.injected_corruptions,
            self.injected_crashes,
            self.timeouts,
            self.resends,
            self.crc_rejects,
            self.duplicates_dropped,
            self.rank_deaths,
            self.degradations,
            self.checkpoint_saves,
            self.checkpoint_restores,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_freezes_counts() {
        let c = FaultCounters::new();
        FaultCounters::bump(&c.timeouts);
        FaultCounters::bump(&c.timeouts);
        FaultCounters::bump(&c.injected_drops);
        let s = c.snapshot();
        assert_eq!(s.timeouts, 2);
        assert_eq!(s.injected_drops, 1);
        assert_eq!(s.injected_total(), 1);
        assert_eq!(s.recovery_total(), 2);
        FaultCounters::bump(&c.timeouts);
        assert_eq!(s.timeouts, 2, "snapshot must not track later bumps");
        assert_eq!(c.snapshot().timeouts, 3);
    }

    #[test]
    fn deterministic_part_masks_timing_noise() {
        let c = FaultCounters::new();
        FaultCounters::bump(&c.injected_crashes);
        FaultCounters::bump(&c.rank_deaths);
        FaultCounters::bump(&c.degradations);
        FaultCounters::bump(&c.timeouts);
        FaultCounters::bump(&c.resends);
        let det = c.snapshot().deterministic_part();
        assert_eq!(det.injected_crashes, 1);
        assert_eq!(det.degradations, 1);
        assert_eq!(det.rank_deaths, 0, "who noticed a hang-up first is thread timing");
        assert_eq!(det.timeouts, 0);
        assert_eq!(det.resends, 0);
    }

    #[test]
    fn display_is_compact() {
        let c = FaultCounters::new();
        FaultCounters::bump(&c.degradations);
        let text = c.snapshot().to_string();
        assert!(text.contains("degraded=1"), "{text}");
    }

    #[test]
    fn counters_are_thread_safe() {
        let c = FaultCounters::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        FaultCounters::bump(&c.resends);
                    }
                });
            }
        });
        assert_eq!(c.snapshot().resends, 4000);
    }
}
