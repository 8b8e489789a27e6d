//! Deterministic fault injection for the collectives/trainer stack.
//!
//! The verifier (`crates/verifier`) proves schedules correct *when every
//! rank is healthy*; this crate provides the complementary layer — a way
//! to prove the stack behaves when things break, without giving up
//! replayability:
//!
//! * [`FaultPlan`] — a seeded, fully materialized list of injections
//!   (per step, rank, and round): message delay ([`FaultKind::Straggle`]),
//!   message drop ([`FaultKind::Drop`]), payload bit-corruption
//!   ([`FaultKind::Corrupt`]), and rank death ([`FaultKind::Crash`]).
//!   Two plans built from the same seed and spec are identical, so every
//!   chaos run replays exactly.
//! * [`FaultClock`] — the single doorway for injected delay. Library
//!   code never calls `std::thread::sleep` directly (`xtask lint`
//!   enforces this); it asks the clock, which either really sleeps
//!   ([`FaultClock::real`]) or merely accounts the delay virtually
//!   ([`FaultClock::virtual_clock`]), keeping unit tests fast while the
//!   chaos suite exercises genuine wall-clock straggling.
//! * [`crc32_bytes`] / [`Crc32`] — the frame checksum the transport
//!   uses to detect corruption (injected or real) and trigger a resend.
//! * [`EventLog`] / [`FaultEvent`] — every injection and every recovery
//!   action (retry, resend, CRC reject, declared death, degradation,
//!   checkpoint save/restore) as a structured, timestamped record, so
//!   chaos runs are observable and their deterministic core is
//!   assertable; [`FaultCounterSnapshot`] is the log's per-kind tally.
//!
//! Nothing here knows about schedules or training; the injecting wire
//! decorator (`collectives::exec_fault`) and the trainer consume these
//! types.

pub mod clock;
pub mod crc;
pub mod event;
pub mod plan;

pub use clock::FaultClock;
pub use crc::{crc32_bytes, Crc32};
pub use event::{EventLog, FaultCounterSnapshot, FaultEvent, Stamped};
pub use plan::{FaultKind, FaultPlan, FaultSpec, Injection, RetryPolicy, SendFault};
