//! Structured fault events: what the chaos machinery observed and did.
//!
//! Events split into a **deterministic core** — plan-driven injections
//! and the topology changes the coordinator decides, identical on every
//! replay of the same seed — and **timing-dependent recovery noise**
//! (spurious timeouts, duplicate deliveries, which survivor noticed a
//! hang-up) that depends on OS scheduling. The chaos suite asserts
//! equality on the former ([`FaultEvent::is_deterministic`]) and only
//! sanity bounds on the latter. [`FaultCounterSnapshot`] is the log's
//! quantitative face: a tally of its events, never a second store kept
//! beside it.

use std::fmt;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use crate::plan::FaultKind;

/// One observed fault or recovery action. `rank` fields are original
/// (world) rank ids throughout.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum FaultEvent {
    /// A plan injection actually fired.
    Injected { step: usize, rank: usize, round: usize, kind: FaultKind },
    /// A receive deadline expired; a resend request (NACK) was sent.
    RetryTimeout { step: usize, rank: usize, peer: usize, round: usize, attempt: u32 },
    /// A payload failed its CRC check and was rejected.
    CrcReject { step: usize, rank: usize, peer: usize, round: usize, seq: u64 },
    /// A sender re-sent a buffered payload in answer to a NACK.
    Resend { step: usize, rank: usize, peer: usize, seq: u64 },
    /// A duplicate delivery (already-applied sequence number) was
    /// discarded idempotently.
    DuplicateDropped { step: usize, rank: usize, peer: usize, seq: u64 },
    /// A rank observed a peer's hang-up (or silence) and gave up on it.
    PeerDead { step: usize, rank: usize, peer: usize, round: usize },
    /// The coordinator declared `dead` dead while `step` was open; the
    /// survivors re-run it over `new_world` ranks.
    Degraded { step: usize, dead: Vec<usize>, new_world: usize },
    /// The trainer wrote a checkpoint after `step`.
    CheckpointSave { step: usize },
    /// The trainer resumed from a checkpoint at `step`.
    CheckpointRestore { step: usize },
}

impl FaultEvent {
    /// True for events that must replay identically from the same seed:
    /// injections, degradations, and checkpoint lifecycle.
    /// Timeout/resend/duplicate noise is timing-dependent, and so is
    /// `PeerDead`: a crashed rank hangs up *and* its coordinator
    /// broadcasts `Degrade`, and whether a survivor notices the hang-up
    /// before the `Degrade` reaches it is a race between two threads.
    /// The death itself replays exactly — as the coordinator's
    /// `Degraded`.
    pub fn is_deterministic(&self) -> bool {
        matches!(
            self,
            FaultEvent::Injected { .. }
                | FaultEvent::Degraded { .. }
                | FaultEvent::CheckpointSave { .. }
                | FaultEvent::CheckpointRestore { .. }
        )
    }

    /// Short stable category name for counters/timelines.
    pub fn name(&self) -> &'static str {
        match self {
            FaultEvent::Injected { kind, .. } => kind.name(),
            FaultEvent::RetryTimeout { .. } => "retry-timeout",
            FaultEvent::CrcReject { .. } => "crc-reject",
            FaultEvent::Resend { .. } => "resend",
            FaultEvent::DuplicateDropped { .. } => "duplicate-dropped",
            FaultEvent::PeerDead { .. } => "peer-dead",
            FaultEvent::Degraded { .. } => "degraded",
            FaultEvent::CheckpointSave { .. } => "checkpoint-save",
            FaultEvent::CheckpointRestore { .. } => "checkpoint-restore",
        }
    }
}

impl fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultEvent::Injected { step, rank, round, kind } => {
                write!(f, "inject {} step {step} rank {rank} round {round}", kind.name())
            }
            FaultEvent::RetryTimeout { step, rank, peer, round, attempt } => write!(
                f,
                "timeout step {step} rank {rank} waiting on {peer} round {round} attempt {attempt}"
            ),
            FaultEvent::CrcReject { step, rank, peer, round, seq } => {
                write!(f, "crc-reject step {step} rank {rank} from {peer} round {round} seq {seq}")
            }
            FaultEvent::Resend { step, rank, peer, seq } => {
                write!(f, "resend step {step} rank {rank} -> {peer} seq {seq}")
            }
            FaultEvent::DuplicateDropped { step, rank, peer, seq } => {
                write!(f, "dup-dropped step {step} rank {rank} from {peer} seq {seq}")
            }
            FaultEvent::PeerDead { step, rank, peer, round } => {
                write!(f, "peer-dead step {step} rank {rank} declares {peer} round {round}")
            }
            FaultEvent::Degraded { step, dead, new_world } => {
                write!(f, "degraded step {step} dead {dead:?} new world {new_world}")
            }
            FaultEvent::CheckpointSave { step } => write!(f, "checkpoint-save step {step}"),
            FaultEvent::CheckpointRestore { step } => write!(f, "checkpoint-restore step {step}"),
        }
    }
}

/// An event plus when it was observed (seconds since the log was
/// created) — enough to render a Horovod-timeline lane of fault
/// activity.
#[derive(Debug, Clone, PartialEq)]
pub struct Stamped {
    pub t: f64,
    pub event: FaultEvent,
}

/// A thread-safe, timestamped append-only event log.
#[derive(Debug)]
pub struct EventLog {
    start: Instant,
    events: Mutex<Vec<Stamped>>,
}

impl EventLog {
    pub fn new() -> Self {
        EventLog { start: Instant::now(), events: Mutex::new(Vec::new()) }
    }

    /// The log, riding out poison: a thread that panicked while holding
    /// it either pushed its event or did not, so the log stays whole.
    fn events(&self) -> MutexGuard<'_, Vec<Stamped>> {
        self.events.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub fn push(&self, event: FaultEvent) {
        let t = self.start.elapsed().as_secs_f64();
        self.events().push(Stamped { t, event });
    }

    /// Every event observed so far, in arrival order.
    pub fn snapshot(&self) -> Vec<Stamped> {
        self.events().clone()
    }

    /// How many events of each kind the log holds.
    pub fn counts(&self) -> FaultCounterSnapshot {
        FaultCounterSnapshot::tally(self.events().iter().map(|s| &s.event))
    }

    /// The deterministic core, stripped of timestamps — the part a
    /// replay from the same seed must reproduce exactly. Sorted into a
    /// canonical order so concurrent arrival order doesn't matter.
    /// `PeerDead` is left out (see [`FaultEvent::is_deterministic`]);
    /// the raw [`snapshot`] keeps every observation for diagnostics.
    ///
    /// [`snapshot`]: EventLog::snapshot
    pub fn deterministic_core(&self) -> Vec<FaultEvent> {
        let mut core: Vec<FaultEvent> = self
            .events()
            .iter()
            .filter(|s| s.event.is_deterministic())
            .map(|s| s.event.clone())
            .collect();
        core.sort_by(|a, b| format!("{a}").cmp(&format!("{b}")));
        core
    }

    pub fn len(&self) -> usize {
        self.events().len()
    }

    pub fn is_empty(&self) -> bool {
        self.events().is_empty()
    }
}

impl Default for EventLog {
    fn default() -> Self {
        EventLog::new()
    }
}

/// How many events of each kind a fault log holds — the quantitative
/// face of a chaos run, folded from the log by [`EventLog::counts`].
/// Injection counts and topology changes are deterministic under a
/// fixed fault plan; timeout/resend/duplicate counts depend on OS
/// scheduling and should only be bounded, not matched exactly.
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

impl FaultCounterSnapshot {
    /// Tally `events`: each adds one to the field of its kind.
    pub fn tally<'a>(events: impl IntoIterator<Item = &'a FaultEvent>) -> Self {
        let mut c = FaultCounterSnapshot::default();
        for event in events {
            *match event {
                FaultEvent::Injected { kind, .. } => match kind {
                    FaultKind::Straggle { .. } => &mut c.injected_straggles,
                    FaultKind::Drop => &mut c.injected_drops,
                    FaultKind::Corrupt => &mut c.injected_corruptions,
                    FaultKind::Crash => &mut c.injected_crashes,
                },
                FaultEvent::RetryTimeout { .. } => &mut c.timeouts,
                FaultEvent::CrcReject { .. } => &mut c.crc_rejects,
                FaultEvent::Resend { .. } => &mut c.resends,
                FaultEvent::DuplicateDropped { .. } => &mut c.duplicates_dropped,
                FaultEvent::PeerDead { .. } => &mut c.rank_deaths,
                FaultEvent::Degraded { .. } => &mut c.degradations,
                FaultEvent::CheckpointSave { .. } => &mut c.checkpoint_saves,
                FaultEvent::CheckpointRestore { .. } => &mut c.checkpoint_restores,
            } += 1;
        }
        c
    }

    /// Total injected faults of every kind.
    pub fn injected_total(&self) -> u64 {
        self.injected_straggles
            + self.injected_drops
            + self.injected_corruptions
            + self.injected_crashes
    }

    /// The fields that must replay identically under a fixed fault plan
    /// — the tally of the [`FaultEvent::is_deterministic`] events.
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
    fn log_orders_and_stamps() {
        let log = EventLog::new();
        log.push(FaultEvent::CheckpointSave { step: 1 });
        log.push(FaultEvent::RetryTimeout { step: 0, rank: 1, peer: 2, round: 3, attempt: 1 });
        let snap = log.snapshot();
        assert_eq!(snap.len(), 2);
        assert!(snap[0].t <= snap[1].t);
        assert_eq!(snap[0].event, FaultEvent::CheckpointSave { step: 1 });
    }

    #[test]
    fn deterministic_core_filters_noise() {
        let log = EventLog::new();
        log.push(FaultEvent::RetryTimeout { step: 0, rank: 0, peer: 1, round: 0, attempt: 1 });
        log.push(FaultEvent::Degraded { step: 2, dead: vec![1], new_world: 3 });
        log.push(FaultEvent::DuplicateDropped { step: 0, rank: 0, peer: 1, seq: 4 });
        log.push(FaultEvent::Injected { step: 0, rank: 1, round: 0, kind: FaultKind::Crash });
        let core = log.deterministic_core();
        assert_eq!(core.len(), 2);
        assert!(core.iter().all(|e| e.is_deterministic()));
    }

    #[test]
    fn peer_dead_is_normalized_out_of_the_core() {
        // Which survivor notices a hang-up before the coordinator's
        // degrade reaches it — and in which round — is thread timing;
        // two runs of the same seed may differ in both. The death they
        // both record is the Degraded event.
        let a = EventLog::new();
        a.push(FaultEvent::PeerDead { step: 0, rank: 2, peer: 1, round: 3 });
        a.push(FaultEvent::Degraded { step: 0, dead: vec![1], new_world: 3 });
        let b = EventLog::new();
        b.push(FaultEvent::Degraded { step: 0, dead: vec![1], new_world: 3 });
        assert_eq!(a.deterministic_core(), b.deterministic_core());
        assert_eq!(
            a.deterministic_core(),
            vec![FaultEvent::Degraded { step: 0, dead: vec![1], new_world: 3 }]
        );
        assert_eq!(a.snapshot().len(), 2, "the raw log keeps the observation");
    }

    /// Reads one field of a tally.
    type Field = fn(&FaultCounterSnapshot) -> u64;

    /// One event of every kind, each with the field it tallies into.
    fn one_of_each() -> Vec<(FaultEvent, Field)> {
        let inj = |kind| FaultEvent::Injected { step: 0, rank: 1, round: 0, kind };
        vec![
            (inj(FaultKind::Straggle { millis: 5 }), |c| c.injected_straggles),
            (inj(FaultKind::Drop), |c| c.injected_drops),
            (inj(FaultKind::Corrupt), |c| c.injected_corruptions),
            (inj(FaultKind::Crash), |c| c.injected_crashes),
            (FaultEvent::RetryTimeout { step: 0, rank: 0, peer: 1, round: 0, attempt: 1 }, |c| {
                c.timeouts
            }),
            (FaultEvent::CrcReject { step: 0, rank: 0, peer: 1, round: 0, seq: 2 }, |c| {
                c.crc_rejects
            }),
            (FaultEvent::Resend { step: 0, rank: 0, peer: 1, seq: 2 }, |c| c.resends),
            (FaultEvent::DuplicateDropped { step: 0, rank: 0, peer: 1, seq: 2 }, |c| {
                c.duplicates_dropped
            }),
            (FaultEvent::PeerDead { step: 0, rank: 2, peer: 1, round: 0 }, |c| c.rank_deaths),
            (FaultEvent::Degraded { step: 0, dead: vec![1], new_world: 3 }, |c| c.degradations),
            (FaultEvent::CheckpointSave { step: 1 }, |c| c.checkpoint_saves),
            (FaultEvent::CheckpointRestore { step: 1 }, |c| c.checkpoint_restores),
        ]
    }

    /// Every field summed (each kind's field appears once above).
    fn total(c: &FaultCounterSnapshot) -> u64 {
        one_of_each().iter().map(|(_, field)| field(c)).sum()
    }

    #[test]
    fn every_kind_tallies_to_one_in_its_field() {
        for (event, field) in one_of_each() {
            let c = FaultCounterSnapshot::tally([&event]);
            assert_eq!((field(&c), total(&c)), (1, 1), "{event}: {c}");
        }
        let log = EventLog::new();
        one_of_each().into_iter().for_each(|(e, _)| log.push(e));
        let c = log.counts();
        assert!(one_of_each().iter().all(|(_, field)| field(&c) == 1), "{c}");
        assert_eq!(total(&c), 12);
    }

    #[test]
    fn deterministic_part_is_the_tally_of_the_deterministic_core() {
        let log = EventLog::new();
        for (e, _) in one_of_each().into_iter().chain(one_of_each()) {
            log.push(e);
        }
        let det = log.counts().deterministic_part();
        assert_eq!(det, FaultCounterSnapshot::tally(&log.deterministic_core()));
        assert_eq!(det.rank_deaths, 0, "who noticed a hang-up first is thread timing");
        assert_eq!(det.degradations, 2);
    }

    #[test]
    fn counts_display_compactly() {
        let log = EventLog::new();
        log.push(FaultEvent::Degraded { step: 2, dead: vec![1], new_world: 3 });
        let text = log.counts().to_string();
        assert!(text.contains("degraded=1"), "{text}");
    }

    #[test]
    fn canonical_order_is_arrival_independent() {
        let a = EventLog::new();
        a.push(FaultEvent::Degraded { step: 1, dead: vec![2], new_world: 3 });
        a.push(FaultEvent::CheckpointSave { step: 1 });
        let b = EventLog::new();
        b.push(FaultEvent::CheckpointSave { step: 1 });
        b.push(FaultEvent::Degraded { step: 1, dead: vec![2], new_world: 3 });
        assert_eq!(a.deterministic_core(), b.deterministic_core());
    }
}
