//! The fault clock: every injected delay goes through here, never
//! through a bare `std::thread::sleep` (`xtask lint` bans those in
//! library code).
//!
//! Two modes:
//!
//! * **real** — delays actually sleep, so chaos runs exercise genuine
//!   wall-clock straggling and the timeout/retry machinery;
//! * **virtual** — delays are only *accounted* (atomically summed), so
//!   unit tests and simulator re-plots stay fast while still observing
//!   exactly which delays the plan injected.
//!
//! Either way the clock keeps a ledger of the *injected* delay
//! (plan-driven straggling — deterministic, replayable, asserted by the
//! chaos suite). Protocol waiting (poll ticks while blocked on a slow
//! peer) is timing-dependent and is not accounted here.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Real,
    Virtual,
}

/// See the module docs. Cheap to share by reference across rank
/// threads; the ledger is a relaxed atomic.
#[derive(Debug)]
pub struct FaultClock {
    mode: Mode,
    injected_ns: AtomicU64,
}

impl FaultClock {
    /// A clock whose delays really sleep.
    pub fn real() -> Self {
        FaultClock { mode: Mode::Real, injected_ns: AtomicU64::new(0) }
    }

    /// A clock that only accounts delays (nothing sleeps).
    pub fn virtual_clock() -> Self {
        FaultClock { mode: Mode::Virtual, injected_ns: AtomicU64::new(0) }
    }

    /// Apply an *injected* (plan-driven) delay.
    pub fn inject(&self, d: Duration) {
        self.injected_ns.fetch_add(d.as_nanos() as u64, Ordering::Relaxed); // lint: allow(relaxed): time-accounting accumulator; read for reporting, carries no data
        if self.mode == Mode::Real {
            std::thread::sleep(d); // lint: allow(sleep): the FaultClock is the one sanctioned delay doorway
        }
    }

    /// Total plan-driven delay injected so far, across all threads.
    pub fn injected(&self) -> Duration {
        Duration::from_nanos(self.injected_ns.load(Ordering::Relaxed)) // lint: allow(relaxed): time-accounting accumulator; read for reporting, carries no data
    }

    /// True when [`FaultClock::inject`] really sleeps.
    pub fn is_real(&self) -> bool {
        self.mode == Mode::Real
    }
}

impl Default for FaultClock {
    /// Virtual by default: nothing sleeps unless a chaos run opts in.
    fn default() -> Self {
        FaultClock::virtual_clock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_clock_accounts_without_sleeping() {
        let c = FaultClock::virtual_clock();
        let t0 = std::time::Instant::now();
        c.inject(Duration::from_secs(3600));
        assert!(t0.elapsed() < Duration::from_secs(1), "virtual inject must not sleep");
        assert_eq!(c.injected(), Duration::from_secs(3600));
        assert!(!c.is_real());
    }

    #[test]
    fn real_clock_sleeps() {
        let c = FaultClock::real();
        let t0 = std::time::Instant::now();
        c.inject(Duration::from_millis(15));
        assert!(t0.elapsed() >= Duration::from_millis(10));
        assert_eq!(c.injected(), Duration::from_millis(15));
        assert!(c.is_real());
    }

    #[test]
    fn ledger_is_cumulative() {
        let c = FaultClock::virtual_clock();
        c.inject(Duration::from_millis(5));
        c.inject(Duration::from_millis(7));
        assert_eq!(c.injected(), Duration::from_millis(12));
    }
}
