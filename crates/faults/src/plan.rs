//! Seeded fault plans: what breaks, where, and when.
//!
//! A [`FaultPlan`] is a *materialized* list of [`Injection`]s — there is
//! no hidden RNG state consulted at run time. Sampling happens once, in
//! [`FaultPlan::seeded`], from a splitmix64 stream derived from the
//! seed; after that the plan is a plain value that can be cloned,
//! compared, logged, and replayed. Determinism of a chaos run therefore
//! reduces to determinism of the executor under a *fixed* plan, which
//! the chaos suite asserts directly.

use std::time::Duration;

use summit_metrics::rng::{derive_seed, splitmix64};

/// One kind of injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The rank delays the start of the round by `millis` (a straggler).
    Straggle { millis: u64 },
    /// The rank's outgoing payloads in the round are dropped in flight
    /// (the receiver recovers them via timeout + resend request).
    Drop,
    /// The rank's outgoing payloads in the round have one bit flipped in
    /// flight (the receiver detects the CRC mismatch and requests a
    /// resend).
    Corrupt,
    /// The rank dies at the start of the round and never participates
    /// again — in this collective, this step, or any later step.
    Crash,
}

impl FaultKind {
    /// Short stable name for logs and tables.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::Straggle { .. } => "straggle",
            FaultKind::Drop => "drop",
            FaultKind::Corrupt => "corrupt",
            FaultKind::Crash => "crash",
        }
    }
}

/// One injection: fault `kind` at training step `step`, on `rank`, in
/// collective round `round`. Ranks are *original* (world) rank ids — a
/// plan stays addressable after a degradation shrinks the live
/// set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Injection {
    pub step: usize,
    pub rank: usize,
    pub round: usize,
    pub kind: FaultKind,
}

/// A send-side fault the executor applies to outgoing payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendFault {
    Drop,
    Corrupt,
}

/// Sampling envelope for [`FaultPlan::seeded`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// World size the plan addresses (ranks are sampled `< n_ranks`).
    pub n_ranks: usize,
    /// Training steps covered (steps are sampled `< steps`).
    pub steps: usize,
    /// Rounds per collective (rounds are sampled `< rounds`; injections
    /// landing past the real schedule are simply never triggered).
    pub rounds: usize,
    /// How many rank crashes to inject (at most one per rank).
    pub crashes: usize,
    /// How many straggler rounds to inject.
    pub stragglers: usize,
    /// Straggler delay in milliseconds.
    pub straggle_ms: u64,
    /// How many dropped-payload rounds to inject.
    pub drops: usize,
    /// How many corrupted-payload rounds to inject.
    pub corruptions: usize,
}

impl FaultSpec {
    /// A fault-free spec over the given world, useful as a base for
    /// struct-update syntax.
    pub fn none(n_ranks: usize, steps: usize, rounds: usize) -> Self {
        FaultSpec {
            n_ranks,
            steps,
            rounds,
            crashes: 0,
            stragglers: 0,
            straggle_ms: 5,
            drops: 0,
            corruptions: 0,
        }
    }
}

/// How the fault-aware executor retries: per-receive deadlines with
/// exponential backoff, and the bound after which a silent peer is
/// declared dead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// First-receive deadline; a resend request (NACK) fires when it
    /// expires.
    pub base: Duration,
    /// Deadline multiplier per failed attempt (exponential backoff).
    pub factor: u32,
    /// After this many expired deadlines the peer is declared dead.
    pub max_attempts: u32,
    /// Poll granularity: how often a blocked receive services incoming
    /// acks/resend-requests while waiting.
    pub tick: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            base: Duration::from_millis(25),
            factor: 2,
            max_attempts: 6,
            tick: Duration::from_millis(2),
        }
    }
}

impl RetryPolicy {
    /// The pacing of ranks that cannot be lost: lossless in-process
    /// links between threads that die only by plan never need a resend,
    /// so no receive deadline and no death bound ever fires — a slow
    /// peer is waited for, as long as it takes. Only the tick (how often
    /// a blocked receive looks at its other peers) is in play.
    pub fn patient() -> Self {
        RetryPolicy { base: Duration::MAX, factor: 1, max_attempts: 1, ..RetryPolicy::default() }
    }

    /// Receive deadline for 0-based `attempt`: `base * factor^attempt`
    /// (exponent clamped so a pathological policy cannot overflow).
    pub fn deadline(&self, attempt: u32) -> Duration {
        self.base.saturating_mul(self.factor.saturating_pow(attempt.min(16)))
    }

    /// How often a transport link beacons liveness when otherwise idle:
    /// half the first receive deadline, so a healthy-but-slow peer lands
    /// a heartbeat inside every deadline window.
    pub fn heartbeat_interval(&self) -> Duration {
        self.base / 2
    }

    /// Total peer silence after which the transport declares it dead:
    /// the sum of every backoff deadline the retry ladder would wait
    /// through before giving up.
    pub fn death_threshold(&self) -> Duration {
        (0..self.max_attempts).fold(Duration::ZERO, |acc, k| acc.saturating_add(self.deadline(k)))
    }
}

/// A seeded, replayable set of fault injections.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    injections: Vec<Injection>,
}

impl FaultPlan {
    /// A plan with no injections (the executor treats it as "fault layer
    /// off for every site", but still snapshots, wraps every link and
    /// keeps its receive deadlines — use `None` at the API level to run
    /// without them).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// An explicit plan: exactly these injections, tagged with `seed`
    /// for replay bookkeeping. Crash injections are normalized so each
    /// rank dies at most once (its earliest crash point wins).
    pub fn explicit(seed: u64, injections: Vec<Injection>) -> Self {
        let mut plan = FaultPlan { seed, injections };
        plan.normalize();
        plan
    }

    /// Sample a plan from `seed` under `spec`. Deterministic: the same
    /// seed and spec always produce the identical injection list.
    pub fn seeded(seed: u64, spec: &FaultSpec) -> Self {
        assert!(spec.n_ranks >= 1, "plan needs at least one rank");
        let steps = spec.steps.max(1);
        let rounds = spec.rounds.max(1);
        let mut injections = Vec::new();
        let mut sample = |label: &str, count: usize, kind_of: &dyn Fn(u64) -> FaultKind| {
            let stream = derive_seed(seed, label);
            for i in 0..count {
                let h0 = splitmix64(stream ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
                let h1 = splitmix64(h0);
                let h2 = splitmix64(h1);
                injections.push(Injection {
                    step: (h0 % steps as u64) as usize,
                    rank: (h1 % spec.n_ranks as u64) as usize,
                    round: (h2 % rounds as u64) as usize,
                    kind: kind_of(splitmix64(h2)),
                });
            }
        };
        sample("crash", spec.crashes, &|_| FaultKind::Crash);
        sample("straggle", spec.stragglers, &|_| FaultKind::Straggle { millis: spec.straggle_ms });
        sample("drop", spec.drops, &|_| FaultKind::Drop);
        sample("corrupt", spec.corruptions, &|_| FaultKind::Corrupt);
        let mut plan = FaultPlan { seed, injections };
        plan.normalize();
        plan
    }

    /// Keep at most one crash per rank (the earliest in step/round
    /// order) and drop non-crash injections that land at or after that
    /// rank's death — they could never trigger.
    fn normalize(&mut self) {
        let mut crash_points: Vec<(usize, (usize, usize))> = Vec::new();
        for inj in self.injections.iter().filter(|i| i.kind == FaultKind::Crash) {
            match crash_points.iter_mut().find(|(r, _)| *r == inj.rank) {
                Some((_, at)) => *at = (*at).min((inj.step, inj.round)),
                None => crash_points.push((inj.rank, (inj.step, inj.round))),
            }
        }
        let mut kept_crash: Vec<usize> = Vec::new();
        self.injections.retain(|inj| {
            let death = crash_points.iter().find(|(r, _)| *r == inj.rank).map(|&(_, at)| at);
            match (inj.kind, death) {
                (FaultKind::Crash, Some(at)) => {
                    let first = (inj.step, inj.round) == at && !kept_crash.contains(&inj.rank);
                    if first {
                        kept_crash.push(inj.rank);
                    }
                    first
                }
                (_, Some(at)) => (inj.step, inj.round) < at,
                (_, None) => true,
            }
        });
        self.injections.sort_by_key(|i| (i.step, i.round, i.rank, i.kind.name()));
    }

    pub fn seed(&self) -> u64 {
        self.seed
    }

    pub fn is_empty(&self) -> bool {
        self.injections.is_empty()
    }

    pub fn injections(&self) -> &[Injection] {
        &self.injections
    }

    /// The `(step, round)` at which `rank` dies, if the plan crashes it.
    pub fn crash_point(&self, rank: usize) -> Option<(usize, usize)> {
        self.injections
            .iter()
            .find(|i| i.rank == rank && i.kind == FaultKind::Crash)
            .map(|i| (i.step, i.round))
    }

    /// Does `rank` die exactly at the start of (`step`, `round`)?
    pub fn crashes_at(&self, step: usize, rank: usize, round: usize) -> bool {
        self.crash_point(rank) == Some((step, round))
    }

    /// Injected straggler delay for `rank` at the start of (`step`,
    /// `round`), if any.
    pub fn straggle(&self, step: usize, rank: usize, round: usize) -> Option<Duration> {
        self.injections.iter().find_map(|i| match i.kind {
            FaultKind::Straggle { millis }
                if i.step == step && i.rank == rank && i.round == round =>
            {
                Some(Duration::from_millis(millis))
            }
            _ => None,
        })
    }

    /// Send-side fault applied to `rank`'s outgoing payloads in
    /// (`step`, `round`), if any. Drop wins over corrupt when both were
    /// sampled onto the same site.
    pub fn send_fault(&self, step: usize, rank: usize, round: usize) -> Option<SendFault> {
        let mut found = None;
        for i in
            self.injections.iter().filter(|i| i.step == step && i.rank == rank && i.round == round)
        {
            match i.kind {
                FaultKind::Drop => return Some(SendFault::Drop),
                FaultKind::Corrupt => found = Some(SendFault::Corrupt),
                _ => {}
            }
        }
        found
    }

    /// All ranks the plan ever crashes.
    pub fn crashed_ranks(&self) -> Vec<usize> {
        let mut out: Vec<usize> =
            self.injections.iter().filter(|i| i.kind == FaultKind::Crash).map(|i| i.rank).collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> FaultSpec {
        FaultSpec {
            n_ranks: 8,
            steps: 10,
            rounds: 6,
            crashes: 2,
            stragglers: 4,
            straggle_ms: 7,
            drops: 3,
            corruptions: 3,
        }
    }

    #[test]
    fn seeded_plans_replay_identically() {
        let a = FaultPlan::seeded(42, &spec());
        let b = FaultPlan::seeded(42, &spec());
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultPlan::seeded(1, &spec());
        let b = FaultPlan::seeded(2, &spec());
        assert_ne!(a.injections(), b.injections());
    }

    #[test]
    fn injections_stay_in_envelope() {
        let s = spec();
        for seed in 0..50 {
            let p = FaultPlan::seeded(seed, &s);
            for i in p.injections() {
                assert!(i.rank < s.n_ranks && i.step < s.steps && i.round < s.rounds);
            }
        }
    }

    #[test]
    fn at_most_one_crash_per_rank_and_nothing_after_death() {
        for seed in 0..50 {
            let p = FaultPlan::seeded(seed, &FaultSpec { crashes: 6, ..spec() });
            let crashed = p.crashed_ranks();
            let mut seen = crashed.clone();
            seen.dedup();
            assert_eq!(seen.len(), crashed.len(), "duplicate crash for a rank");
            for rank in crashed {
                let death = p.crash_point(rank).expect("crashed rank has a crash point");
                for i in p.injections().iter().filter(|i| i.rank == rank) {
                    if i.kind == FaultKind::Crash {
                        assert_eq!((i.step, i.round), death);
                    } else {
                        assert!((i.step, i.round) < death, "injection after death");
                    }
                }
            }
        }
    }

    #[test]
    fn explicit_plan_lookup() {
        let p = FaultPlan::explicit(
            7,
            vec![
                Injection { step: 1, rank: 2, round: 0, kind: FaultKind::Crash },
                Injection { step: 0, rank: 3, round: 1, kind: FaultKind::Straggle { millis: 9 } },
                Injection { step: 0, rank: 0, round: 2, kind: FaultKind::Drop },
                Injection { step: 0, rank: 1, round: 2, kind: FaultKind::Corrupt },
            ],
        );
        assert_eq!(p.crash_point(2), Some((1, 0)));
        assert!(p.crashes_at(1, 2, 0));
        assert!(!p.crashes_at(1, 2, 1));
        assert_eq!(p.straggle(0, 3, 1), Some(Duration::from_millis(9)));
        assert_eq!(p.straggle(0, 3, 2), None);
        assert_eq!(p.send_fault(0, 0, 2), Some(SendFault::Drop));
        assert_eq!(p.send_fault(0, 1, 2), Some(SendFault::Corrupt));
        assert_eq!(p.send_fault(1, 0, 2), None);
        assert_eq!(p.seed(), 7);
    }

    #[test]
    fn drop_beats_corrupt_on_the_same_site() {
        let p = FaultPlan::explicit(
            0,
            vec![
                Injection { step: 0, rank: 0, round: 0, kind: FaultKind::Corrupt },
                Injection { step: 0, rank: 0, round: 0, kind: FaultKind::Drop },
            ],
        );
        assert_eq!(p.send_fault(0, 0, 0), Some(SendFault::Drop));
    }

    #[test]
    fn crash_normalization_keeps_earliest() {
        let p = FaultPlan::explicit(
            0,
            vec![
                Injection { step: 3, rank: 1, round: 2, kind: FaultKind::Crash },
                Injection { step: 1, rank: 1, round: 4, kind: FaultKind::Crash },
                Injection { step: 2, rank: 1, round: 0, kind: FaultKind::Drop },
            ],
        );
        assert_eq!(p.crash_point(1), Some((1, 4)));
        // The later crash and the post-death drop are gone.
        assert_eq!(p.injections().len(), 1);
    }
}
