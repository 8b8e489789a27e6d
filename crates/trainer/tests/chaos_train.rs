//! End-to-end chaos: training under injected faults.
//!
//! The acceptance scenario from the fault-tolerance issue: 4 workers, a
//! seeded plan with one crashed rank and two straggler rounds —
//! training must complete on the survivors, record the degradation, and
//! replay bit-identically from the same plan. Plus: recoverable faults
//! (drops/corruptions) must leave training bit-identical to a
//! fault-free run. `CHAOS_SEED` varies the sampled plans in CI.

use collectives::{Algorithm, CodecKind};
use faults::{FaultKind, FaultPlan, FaultSpec, Injection};
use trainer::real::{train, DataConfig, FaultToleranceConfig, NetConfig, TrainConfig};

fn chaos_seed() -> u64 {
    std::env::var("CHAOS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0xC4405)
}

fn tiny(workers: usize, steps: usize) -> TrainConfig {
    let data = DataConfig { height: 10, width: 10, ..DataConfig::default() };
    let net =
        NetConfig { height: 10, width: 10, cin: 3, hidden1: 4, hidden2: 6, n_classes: 4, k: 3 };
    TrainConfig {
        data,
        net,
        workers,
        batch_per_worker: 2,
        steps,
        base_lr: 0.4,
        lr_scale: 1.0,
        warmup_steps: 5,
        momentum: 0.9,
        weight_decay: 0.0,
        accumulation_steps: 1,
        algo: Algorithm::Ring,
        pipeline: false,
        codec: CodecKind::None,
        error_feedback: false,
        augment: false,
        eval_every: 0,
        eval_samples: 16,
        seed: 42,
        faults: None,
        checkpoint: None,
        trace: None,
    }
}

#[test]
fn training_survives_a_crash_and_two_straggler_rounds() {
    let seed = chaos_seed();
    // One crashed rank + two straggler rounds at n = 4: the acceptance
    // scenario. The victim is seed-dependent so CI's seed sweep rotates
    // it around the ring.
    let victim = 1 + (seed % 3) as usize; // keep worker 0 alive for eval
    let survivors: Vec<usize> = (0..4).filter(|&w| w != victim).collect();
    let plan = FaultPlan::explicit(
        seed,
        vec![
            Injection { step: 2, rank: victim, round: 1, kind: FaultKind::Crash },
            Injection {
                step: 4,
                rank: survivors[1],
                round: 0,
                kind: FaultKind::Straggle { millis: 30 },
            },
            Injection {
                step: 6,
                rank: survivors[2],
                round: 2,
                kind: FaultKind::Straggle { millis: 30 },
            },
        ],
    );
    let mut cfg = tiny(4, 10);
    cfg.faults = Some(FaultToleranceConfig::with_plan(plan));

    let r = train(&cfg);
    // Training completed every step on the survivor topology.
    assert_eq!(r.step_losses.len(), 10);
    assert_eq!(r.survivors, survivors);
    assert!(r.final_miou.is_finite() && r.final_miou > 0.0);
    let c = r.fault_counters;
    assert_eq!(c.injected_crashes, 1, "{c}");
    assert_eq!(c.injected_straggles, 2, "{c}");
    assert_eq!(c.degradations, 1, "{c}");
    assert!(
        r.fault_events
            .iter()
            .any(|e| matches!(e, faults::FaultEvent::Degraded { step: 2, new_world: 3, .. })),
        "{:?}",
        r.fault_events
    );
    // Stragglers were absorbed on the virtual clock: they delayed
    // nothing real and cost no correctness.
    assert!(r.step_losses.iter().all(|l| l.is_finite()));

    // Replay: the same plan reproduces the identical run.
    let r2 = train(&cfg);
    assert_eq!(r.final_params, r2.final_params, "replay must be bit-identical");
    assert_eq!(r.step_losses, r2.step_losses);
    assert_eq!(r.fault_events, r2.fault_events);
    assert_eq!(r.fault_counters.deterministic_part(), r2.fault_counters.deterministic_part());
}

#[test]
fn recoverable_faults_do_not_change_training_at_all() {
    let seed = chaos_seed();
    // Drops + corruptions + stragglers, no crashes: the resend/CRC
    // protocol must make training bit-identical to the fault-free run.
    let rounds = Algorithm::Ring.build(4, 1).rounds.len();
    let plan = FaultPlan::seeded(
        seed,
        &FaultSpec {
            stragglers: 1,
            straggle_ms: 3,
            drops: 2,
            corruptions: 1,
            ..FaultSpec::none(4, 6, rounds)
        },
    );
    assert!(!plan.is_empty());
    let mut faulty_cfg = tiny(4, 6);
    faulty_cfg.faults = Some(FaultToleranceConfig::with_plan(plan));
    let faulty = train(&faulty_cfg);
    let clean = train(&tiny(4, 6));
    assert_eq!(
        faulty.final_params, clean.final_params,
        "recovered faults must leave training bit-identical"
    );
    assert_eq!(faulty.step_losses, clean.step_losses);
    assert_eq!(faulty.survivors, vec![0, 1, 2, 3]);
    assert!(faulty.fault_counters.injected_total() > 0);
    assert_eq!(faulty.fault_counters.degradations, 0);
}

#[test]
fn degraded_run_still_learns() {
    // Losing a worker early must not stop convergence — the survivors
    // keep averaging over their own shards.
    let plan = FaultPlan::explicit(
        7,
        vec![Injection { step: 1, rank: 3, round: 0, kind: FaultKind::Crash }],
    );
    let mut cfg = tiny(4, 40);
    cfg.faults = Some(FaultToleranceConfig::with_plan(plan));
    let r = train(&cfg);
    assert_eq!(r.survivors, vec![0, 1, 2]);
    assert!(r.final_miou > 0.5, "degraded run should still learn, got {:.3}", r.final_miou);
}
