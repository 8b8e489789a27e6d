//! Chaos suite for the rank body under a fault plan.
//!
//! Seeded fault plans (drops, corruptions, stragglers, crashes) run
//! against real multi-threaded allreduces — N `PeerExecutor`s over
//! `FaultWire`-wrapped channels (`common::run_faulty`). Recoverable
//! faults must leave the numerics bit-identical to a fault-free run,
//! and a plan with a crash must replay identically from the same seed.
//! What a crash does to a training run — the degrade onto a
//! re-verified survivor schedule — is `trainer/tests/chaos_train.rs`.
//! `CHAOS_SEED` (CI sweeps 8 of them) varies the sampled plans.

mod common;

use collectives::reference::apply_allreduce;
use collectives::{Algorithm, FaultSession, ReduceOp};
use faults::{FaultPlan, FaultSpec};

use common::run_faulty_channels;

fn chaos_seed() -> u64 {
    std::env::var("CHAOS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0xC4405)
}

fn inputs(n_ranks: usize, n_elems: usize, salt: u64) -> Vec<Vec<f32>> {
    (0..n_ranks)
        .map(|r| {
            (0..n_elems)
                .map(|i| {
                    let h = (r as u64 * 31 + i as u64 * 7 + salt * 131) % 23;
                    h as f32 * 0.375 - 4.0
                })
                .collect()
        })
        .collect()
}

/// Every algorithm the chaos suite exercises (single-level ones; the
/// hierarchical composites execute through the same primitives).
const ALGOS: &[Algorithm] = &[Algorithm::Ring, Algorithm::RecursiveDoubling];

#[test]
fn recoverable_faults_leave_results_bit_identical() {
    let seed = chaos_seed();
    let (n, e) = (4usize, 96usize);
    let ids: Vec<usize> = (0..n).collect();
    for &algo in ALGOS {
        let schedule = algo.build(n, e);
        let plan = FaultPlan::seeded(
            seed,
            &FaultSpec {
                stragglers: 2,
                straggle_ms: 4,
                drops: 2,
                corruptions: 2,
                ..FaultSpec::none(n, 1, schedule.rounds.len())
            },
        );
        assert!(!plan.is_empty());
        let session = FaultSession::new(plan);
        let run = run_faulty_channels(&ids, &session, &schedule, inputs(n, e, seed), ReduceOp::Sum);
        assert!(run.outcomes.iter().all(Result::is_ok), "no crashes in this plan");

        let mut clean = inputs(n, e, seed);
        apply_allreduce(&schedule, &mut clean, ReduceOp::Sum);
        assert_eq!(run.bufs, clean, "{algo:?}: recovery must be bit-exact");
        // The plan actually fired and the protocol actually recovered.
        let c = session.counts();
        assert!(c.injected_total() > 0, "{algo:?}: {c}");
    }
}

#[test]
fn chaos_runs_replay_identically_from_the_same_seed() {
    let seed = chaos_seed();
    let (n, e) = (4usize, 80usize);
    let ids: Vec<usize> = (0..n).collect();
    let schedule = Algorithm::Ring.build(n, e);
    let spec = FaultSpec {
        crashes: 1,
        stragglers: 2,
        straggle_ms: 3,
        drops: 1,
        corruptions: 1,
        ..FaultSpec::none(n, 1, schedule.rounds.len())
    };
    let run = || {
        let session = FaultSession::new(FaultPlan::seeded(seed, &spec));
        let run =
            run_faulty_channels(&ids, &session, &schedule, inputs(n, e, seed), ReduceOp::Average);
        let finished: Vec<(usize, Vec<f32>)> =
            (0..n).filter(|&r| run.outcomes[r].is_ok()).map(|r| (r, run.bufs[r].clone())).collect();
        (
            finished,
            run.crashed(),
            session.events().deterministic_core(),
            session.counts().deterministic_part(),
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0, "numerics replay bit-identically");
    assert_eq!(a.1, b.1, "dead set replays identically");
    assert_eq!(a.2, b.2, "deterministic event core replays identically");
    assert_eq!(a.3, b.3, "deterministic counters replay identically");
}

#[test]
fn different_seeds_sample_different_plans() {
    let spec = FaultSpec { drops: 2, corruptions: 2, ..FaultSpec::none(4, 3, 6) };
    let a = FaultPlan::seeded(1, &spec);
    let b = FaultPlan::seeded(2, &spec);
    assert_ne!(a.injections(), b.injections());
}
