//! Structured fault events: what the chaos machinery observed and did.
//!
//! Events split into a **deterministic core** — plan-driven injections
//! and the topology changes the coordinator decides, identical on every
//! replay of the same seed — and **timing-dependent recovery noise**
//! (spurious timeouts, duplicate deliveries, which survivor noticed a
//! hang-up) that depends on OS scheduling. The chaos suite asserts
//! equality on the former ([`FaultEvent::is_deterministic`]) and only
//! sanity bounds on the latter.

use std::fmt;
use std::time::Instant;

use parking_lot::Mutex;

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

    pub fn push(&self, event: FaultEvent) {
        let t = self.start.elapsed().as_secs_f64();
        self.events.lock().push(Stamped { t, event });
    }

    /// Every event observed so far, in arrival order.
    pub fn snapshot(&self) -> Vec<Stamped> {
        self.events.lock().clone()
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
            .events
            .lock()
            .iter()
            .filter(|s| s.event.is_deterministic())
            .map(|s| s.event.clone())
            .collect();
        core.sort_by(|a, b| format!("{a}").cmp(&format!("{b}")));
        core
    }

    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.lock().is_empty()
    }
}

impl Default for EventLog {
    fn default() -> Self {
        EventLog::new()
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
