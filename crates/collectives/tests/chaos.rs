//! Chaos suite for the fault-aware collective executor.
//!
//! Seeded fault plans (drops, corruptions, stragglers, crashes) run
//! against real multi-threaded allreduces; recoverable faults must
//! leave the numerics bit-identical to a fault-free run, crashes must
//! degrade onto a re-verified survivor topology with the average
//! rescaled, and the whole thing must replay identically from the same
//! seed. `CHAOS_SEED` (CI sweeps 8 of them) varies the sampled plans.

use collectives::reference::apply_allreduce;
use collectives::{
    Action, Algorithm, CodecKind, ElasticAllreduce, EncodeScratch, ErrorFeedback, FaultSession,
    ReduceOp,
};
use faults::{FaultEvent, FaultKind, FaultPlan, FaultSpec, Injection};

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
    for &algo in ALGOS {
        let rounds = algo.build(n, e).rounds.len();
        let plan = FaultPlan::seeded(
            seed,
            &FaultSpec {
                stragglers: 2,
                straggle_ms: 4,
                drops: 2,
                corruptions: 2,
                ..FaultSpec::none(n, 1, rounds)
            },
        );
        assert!(!plan.is_empty());
        let session = FaultSession::new(plan);
        let mut ela = ElasticAllreduce::new(algo, n, e).unwrap();
        let mut faulty = inputs(n, e, seed);
        let report = ela.allreduce(&mut faulty, ReduceOp::Sum, Some(&session)).unwrap();
        assert!(!report.degraded(), "no crashes in this plan");

        let mut clean = inputs(n, e, seed);
        apply_allreduce(ela.schedule(), &mut clean, ReduceOp::Sum);
        assert_eq!(faulty, clean, "{algo:?}: recovery must be bit-exact");
        // The plan actually fired and the protocol actually recovered.
        let c = session.counters().snapshot();
        assert!(c.injected_total() > 0, "{algo:?}: {c}");
    }
}

#[test]
fn crash_mid_collective_degrades_and_passes_verification() {
    let seed = chaos_seed();
    let (n, e) = (4usize, 64usize);
    let victim = (seed % n as u64) as usize;
    let plan = FaultPlan::explicit(
        seed,
        vec![Injection { step: 0, rank: victim, round: 1, kind: FaultKind::Crash }],
    );
    let session = FaultSession::new(plan);
    let mut ela = ElasticAllreduce::new(Algorithm::Ring, n, e).unwrap();
    let ins = inputs(n, e, seed);
    let mut bufs = ins.clone();
    let report = ela.allreduce(&mut bufs, ReduceOp::Average, Some(&session)).unwrap();

    assert_eq!(report.dead, vec![victim]);
    assert_eq!(report.world, 3);
    assert_eq!(ela.live().len(), 3);
    assert!(!ela.live().contains(&victim));
    // The rebuilt survivor schedule passes the full static verifier.
    assert_eq!(ela.schedule().n_ranks, 3);
    assert_eq!(ela.schedule().verify_allreduce(), Ok(()));
    // Survivor average is exact over the NEW world size.
    let mut survivors: Vec<Vec<f32>> =
        (0..n).filter(|r| *r != victim).map(|r| ins[r].clone()).collect();
    apply_allreduce(ela.schedule(), &mut survivors, ReduceOp::Average);
    assert_eq!(bufs, survivors, "rescaled survivor average must be bit-exact");
    assert!(session
        .events()
        .deterministic_core()
        .iter()
        .any(|ev| matches!(ev, FaultEvent::Degraded { new_world: 3, .. })));
}

#[test]
fn chaos_runs_replay_identically_from_the_same_seed() {
    let seed = chaos_seed();
    let (n, e) = (4usize, 80usize);
    let rounds = Algorithm::Ring.build(n, e).rounds.len();
    let spec = FaultSpec {
        crashes: 1,
        stragglers: 2,
        straggle_ms: 3,
        drops: 1,
        corruptions: 1,
        ..FaultSpec::none(n, 1, rounds)
    };
    let run = || {
        let session = FaultSession::new(FaultPlan::seeded(seed, &spec));
        let mut ela = ElasticAllreduce::new(Algorithm::Ring, n, e).unwrap();
        let mut bufs = inputs(n, e, seed);
        ela.allreduce(&mut bufs, ReduceOp::Average, Some(&session)).unwrap();
        (
            bufs,
            ela.live().to_vec(),
            session.events().deterministic_core(),
            session.counters().snapshot().deterministic_part(),
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0, "numerics replay bit-identically");
    assert_eq!(a.1, b.1, "survivor set replays identically");
    assert_eq!(a.2, b.2, "deterministic event core replays identically");
    assert_eq!(a.3, b.3, "deterministic counters replay identically");
}

/// The compressed training configuration under chaos: every rank runs
/// Int8 + error-feedback compression in front of the elastic allreduce
/// (the same compose order the trainer uses — compensate, quantize,
/// then reduce the dequantized values), and a rank dies mid-collective.
/// The degraded run must still produce the bit-exact rescaled survivor
/// average of the *compressed* inputs, and a compressed run over the
/// rebuilt schedule must bill the wire ledger exactly per `encoded_len`.
#[test]
fn compressed_elastic_run_survives_rank_death_with_exact_wire_accounting() {
    let seed = chaos_seed();
    let (n, e) = (4usize, 720usize);
    let victim = ((seed >> 8) % n as u64) as usize;

    let mut ela = ElasticAllreduce::new(Algorithm::Ring, n, e).unwrap();
    let mut efs: Vec<ErrorFeedback> = (0..n).map(|_| ErrorFeedback::new(e)).collect();
    let mut scratch = EncodeScratch::new();
    let plan = FaultPlan::explicit(
        seed,
        vec![Injection { step: 1, rank: victim, round: 1, kind: FaultKind::Crash }],
    );
    let session = FaultSession::new(plan);

    // Step 0, clean: warms every rank's residual so the crash step runs
    // with live error-feedback state, not a zeroed one.
    let mut step0 = inputs(n, e, seed);
    for (r, buf) in step0.iter_mut().enumerate() {
        efs[r].roundtrip(CodecKind::Int8, buf, &mut scratch);
    }
    let r0 = ela.allreduce(&mut step0, ReduceOp::Average, Some(&session)).unwrap();
    assert!(!r0.degraded(), "no injection fires at step 0");
    assert!(
        efs.iter().any(|ef| ef.residual().iter().any(|x| *x != 0.0)),
        "int8 quantization must have dropped something into the residuals"
    );

    // Step 1: compensate + quantize per rank, then the crash fires
    // mid-collective. The snapshot/restore inside ElasticAllreduce must
    // retry from exactly these compressed inputs.
    session.begin_step(1);
    let mut step1 = inputs(n, e, seed ^ 0x5EED);
    for (r, buf) in step1.iter_mut().enumerate() {
        efs[r].roundtrip(CodecKind::Int8, buf, &mut scratch);
    }
    let compressed = step1.clone();
    let report = ela.allreduce(&mut step1, ReduceOp::Average, Some(&session)).unwrap();
    assert_eq!(report.dead, vec![victim]);
    assert_eq!(report.world, n - 1);
    assert_eq!(ela.schedule().n_ranks, n - 1);
    assert_eq!(ela.schedule().verify_allreduce(), Ok(()));

    // Survivors' average of the compressed inputs, rescaled to the new
    // world size, bit-exact against the rebuilt schedule's reference.
    let mut survivors: Vec<Vec<f32>> =
        (0..n).filter(|r| *r != victim).map(|r| compressed[r].clone()).collect();
    apply_allreduce(ela.schedule(), &mut survivors, ReduceOp::Average);
    assert_eq!(step1, survivors, "compressed survivor average must be bit-exact");

    // Wire accounting over the REBUILT schedule: a compressed run
    // through the rebuilt executor must bill encoded bytes per send
    // exactly on top of what the (uncoded) fault path already moved.
    let sends = |f: &dyn Fn(usize) -> u64| -> u64 {
        ela.schedule()
            .rounds
            .iter()
            .flat_map(|r| r.per_rank.iter())
            .flatten()
            .filter_map(|a| match a {
                Action::Send { seg, .. } => Some(f(seg.len)),
                _ => None,
            })
            .sum()
    };
    let expected_wire = sends(&|len| CodecKind::Int8.encoded_len(len) as u64);
    let expected_raw = sends(&|len| 4 * len as u64);
    let uncoded = ela.ctx().wire_bytes();
    assert!(uncoded >= expected_raw, "the retry over the survivors moved every raw f32");
    let mut again = survivors.clone();
    ela.ctx()
        .allreduce_compressed(ela.schedule(), &mut again, ReduceOp::Sum, CodecKind::Int8)
        .unwrap();
    let wire = ela.ctx().wire_bytes() - uncoded;
    assert_eq!(wire, expected_wire, "wire ledger must bill encoded_len");
    assert!(
        expected_raw as f64 / wire as f64 >= 3.5,
        "int8 must keep its compression ratio on the degraded topology"
    );
}

#[test]
fn different_seeds_sample_different_plans() {
    let spec = FaultSpec { drops: 2, corruptions: 2, ..FaultSpec::none(4, 3, 6) };
    let a = FaultPlan::seeded(1, &spec);
    let b = FaultPlan::seeded(2, &spec);
    assert_ne!(a.injections(), b.injections());
}
