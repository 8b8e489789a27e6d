//! End-to-end chaos: training under injected faults, on the one path.
//!
//! `try_train` runs N copies of the rank body under the commit
//! coordinator, each over a `FaultWire`-wrapped channel endpoint. An
//! injected crash hangs its rank up, the coordinator degrades the run,
//! and the survivors restore, rebuild and re-verify the schedule, bump
//! the era and re-run the step — the protocol `dist_train` runs on a
//! SIGKILL. Every case here checks the same invariants: the exact
//! survivor set, a rebuilt schedule that verifies, survivors that end
//! bit-equal, and a replay that reproduces params, losses, the
//! deterministic event core and the deterministic counters. Plus:
//! recoverable faults (drops/corruptions) leave training bit-identical
//! to a fault-free run. `CHAOS_SEED` varies the plans in CI.

use std::path::PathBuf;
use std::sync::Arc;

use collectives::{Algorithm, CodecKind};
use faults::{FaultEvent, FaultKind, FaultPlan, FaultSpec, Injection};
use trace::TraceSession;
use trainer::real::{
    train, try_train, Checkpoint, CheckpointConfig, DataConfig, FaultToleranceConfig, NetConfig,
    TrainConfig, TrainError, TrainResult,
};

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

fn crash(step: usize, rank: usize, round: usize) -> Injection {
    Injection { step, rank, round, kind: FaultKind::Crash }
}

fn ck_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("summit-chaos-train-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// A second run of `cfg` reproduces `r`: numbers, survivors, and the
/// deterministic parts of the fault log.
fn assert_replays(cfg: &TrainConfig, r: &TrainResult) {
    let again = train(cfg);
    assert_eq!(r.final_params, again.final_params, "replay must be bit-identical");
    assert_eq!(r.step_losses, again.step_losses);
    assert_eq!(r.survivors, again.survivors);
    assert_eq!(r.fault_events, again.fault_events);
    assert_eq!(r.fault_counters.deterministic_part(), again.fault_counters.deterministic_part());
}

/// The survivor topology the run degraded to verifies in full, as the
/// rank bodies re-verified it before running it.
fn assert_rebuilt_schedule_verifies(cfg: &TrainConfig, r: &TrainResult) {
    let rebuilt = cfg.algo.build(r.survivors.len(), cfg.net.n_params());
    assert_eq!(rebuilt.n_ranks, r.survivors.len());
    assert_eq!(rebuilt.verify_allreduce(), Ok(()));
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
            crash(2, victim, 1),
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
            .any(|e| matches!(e, FaultEvent::Degraded { step: 2, new_world: 3, .. })),
        "{:?}",
        r.fault_events
    );
    // Stragglers were absorbed on the virtual clock: they delayed
    // nothing real and cost no correctness.
    assert!(r.step_losses.iter().all(|l| l.is_finite()));
    assert_rebuilt_schedule_verifies(&cfg, &r);
    assert_replays(&cfg, &r);
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
    let plan = FaultPlan::explicit(7, vec![crash(1, 3, 0)]);
    let mut cfg = tiny(4, 40);
    cfg.faults = Some(FaultToleranceConfig::with_plan(plan));
    let r = train(&cfg);
    assert_eq!(r.survivors, vec![0, 1, 2]);
    assert!(r.final_miou > 0.5, "degraded run should still learn, got {:.3}", r.final_miou);
}

/// A crash anywhere in step `d` is the survivors re-running `d` over
/// the rebuilt schedule, averaged over the new world size — exactly
/// what a run resumed at `d` from a checkpoint whose live set has the
/// victim's hole computes. Bit for bit, on a victim the seed rotates,
/// mid-collective.
#[test]
fn a_crash_is_a_resume_over_the_survivors() {
    let seed = chaos_seed();
    let (n, steps, d) = (4usize, 8usize, 3usize);
    let victim = (seed % n as u64) as usize;
    let survivors: Vec<usize> = (0..n).filter(|&r| r != victim).collect();
    let mut crashed = tiny(n, steps);
    crashed.faults =
        Some(FaultToleranceConfig::with_plan(FaultPlan::explicit(seed, vec![crash(d, victim, 1)])));
    let r = train(&crashed);
    assert_eq!(r.survivors, survivors, "the exact survivor set");
    assert_eq!(r.fault_counters.degradations, 1);
    assert!(r.fault_events.contains(&FaultEvent::Degraded {
        step: d,
        dead: vec![victim],
        new_world: n - 1
    }));
    assert_rebuilt_schedule_verifies(&crashed, &r);
    assert_replays(&crashed, &r);

    // The same run stopped after step d - 1, its checkpoint given the
    // victim's hole, resumed over the survivors.
    let path = ck_path(&format!("hole_{seed}.bin"));
    let _ = std::fs::remove_file(&path);
    let mut first = tiny(n, steps);
    first.checkpoint =
        Some(CheckpointConfig { path: path.clone(), every: d, resume: false, halt_after: Some(d) });
    train(&first);
    let mut ck = Checkpoint::load(&path).unwrap();
    assert_eq!((ck.step, ck.live.clone()), (d, (0..n).collect()));
    ck.live.retain(|&r| r != victim);
    ck.save(&path).unwrap();
    let mut resumed = tiny(n, steps);
    resumed.checkpoint =
        Some(CheckpointConfig { path: path.clone(), every: 0, resume: true, halt_after: None });
    let from_hole = train(&resumed);
    assert_eq!(from_hole.survivors, survivors);
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&r.final_params),
        bits(&from_hole.final_params),
        "the rescaled survivor average must be bit-exact"
    );
    assert_eq!(r.step_losses[d..], from_hole.step_losses[..], "post-crash losses");
    std::fs::remove_file(&path).unwrap();
}

/// A checkpoint written after a degradation records the hole, and a
/// resumed run starts over exactly the survivors and ends where the
/// uninterrupted degraded run ends.
#[test]
fn a_checkpoint_after_a_degrade_resumes_over_its_holes() {
    let path = ck_path("after_degrade.bin");
    let _ = std::fs::remove_file(&path);
    let plan = FaultPlan::explicit(11, vec![crash(1, 2, 0)]);
    let chaos = || {
        let mut cfg = tiny(4, 8);
        cfg.faults = Some(FaultToleranceConfig::with_plan(plan.clone()));
        cfg
    };
    let full = train(&chaos());
    let mut first = chaos();
    first.checkpoint =
        Some(CheckpointConfig { path: path.clone(), every: 4, resume: false, halt_after: Some(4) });
    let half = train(&first);
    assert_eq!(half.step_losses.len(), 4);
    let ck = Checkpoint::load(&path).unwrap();
    assert_eq!((ck.step, ck.live.clone()), (4, vec![0, 1, 3]));
    assert!(half.fault_events.contains(&FaultEvent::CheckpointSave { step: 4 }));

    let mut second = chaos();
    second.checkpoint =
        Some(CheckpointConfig { path: path.clone(), every: 0, resume: true, halt_after: None });
    let resumed = train(&second);
    assert_eq!(resumed.survivors, vec![0, 1, 3]);
    assert_eq!(resumed.final_params, full.final_params, "resume over the holes is bit-exact");
    assert_eq!(resumed.step_losses, full.step_losses[4..].to_vec());
    assert!(resumed.fault_events.contains(&FaultEvent::CheckpointRestore { step: 4 }));
    std::fs::remove_file(&path).unwrap();
}

/// Int8 + error feedback through a death: the survivors re-run the
/// crash step from their compressed, compensated gradients and end
/// bit-equal; the run replays; and the wire ledger bills encoded bytes
/// per live rank per step, before and after the degrade.
#[test]
fn int8_error_feedback_survives_a_rank_death() {
    let seed = chaos_seed();
    let (n, steps, d) = (4usize, 6usize, 1usize);
    let victim = ((seed >> 8) % n as u64) as usize;
    let session = Arc::new(TraceSession::new());
    let mut cfg = tiny(n, steps);
    cfg.codec = CodecKind::Int8;
    cfg.error_feedback = true;
    cfg.trace = Some(session.clone());
    cfg.faults =
        Some(FaultToleranceConfig::with_plan(FaultPlan::explicit(seed, vec![crash(d, victim, 1)])));
    let r = train(&cfg);
    assert_eq!(r.survivors, (0..n).filter(|&w| w != victim).collect::<Vec<_>>());
    assert_eq!(r.fault_counters.degradations, 1);
    assert_rebuilt_schedule_verifies(&cfg, &r);

    let counter = |name: &str| session.registry.counter(name).get();
    let n_params = cfg.net.n_params() as u64;
    let payloads = (n * d + (n - 1) * (steps - d)) as u64;
    let encoded = counter("train_encoded_bytes_total");
    assert_eq!(encoded, CodecKind::Int8.encoded_len(cfg.net.n_params()) as u64 * payloads);
    assert_eq!(counter("train_raw_bytes_total"), 4 * n_params * payloads);
    assert!(
        (4 * n_params * payloads) as f64 / encoded as f64 >= 3.5,
        "int8 must keep its compression ratio on the degraded topology"
    );

    cfg.trace = None;
    let plain = train(&cfg);
    assert_eq!(plain.final_params, r.final_params, "tracing is read-only under chaos too");
    assert_replays(&cfg, &plain);
}

/// Every plan the seed sweep samples — a crash, stragglers, a drop and a
/// corruption over the run — replays identically. A training run refuses
/// a plan that faults the step its crash is in (next test), so the sweep
/// runs the first plan drawn from the seed whose crash step holds
/// nothing else.
#[test]
fn seeded_chaos_runs_replay_identically() {
    let seed = chaos_seed();
    let rounds = Algorithm::Ring.build(4, 1).rounds.len();
    let spec = FaultSpec {
        crashes: 1,
        stragglers: 2,
        straggle_ms: 3,
        drops: 1,
        corruptions: 1,
        ..FaultSpec::none(4, 6, rounds)
    };
    let plan = (0u64..)
        .map(|k| FaultPlan::seeded(seed ^ (k << 32), &spec))
        .find(|p| {
            let all = p.injections();
            let crash_step = all.iter().find(|i| i.kind == FaultKind::Crash).map(|i| i.step);
            all.iter().all(|i| i.kind == FaultKind::Crash || Some(i.step) != crash_step)
        })
        .expect("some plan keeps its crash step to itself");
    assert!(plan.injections().iter().any(|i| i.kind != FaultKind::Crash), "{plan:?}");
    let mut cfg = tiny(4, 6);
    cfg.faults = Some(FaultToleranceConfig::with_plan(plan));
    let r = train(&cfg);
    assert_eq!(r.survivors.len(), 3);
    assert_eq!(r.fault_counters.injected_crashes, 1);
    assert_rebuilt_schedule_verifies(&cfg, &r);
    assert_replays(&cfg, &r);
}

/// The coordinator aborts a step someone dies in wherever its `Degrade`
/// finds each survivor, so whether another injection of that step fires
/// would be thread timing: such a plan is refused, not edited.
#[test]
#[should_panic(expected = "shares step 2 with")]
fn a_plan_that_faults_a_crash_step_is_refused() {
    let drop = Injection { step: 2, rank: 0, round: 0, kind: FaultKind::Drop };
    let mut cfg = tiny(4, 4);
    cfg.faults =
        Some(FaultToleranceConfig::with_plan(FaultPlan::explicit(3, vec![crash(2, 1, 1), drop])));
    let _ = try_train(&cfg);
}

/// Two ranks the seed picks die in the same step — round-0 crashes, the
/// only company a crash may keep in its step. Their hang-ups reach the
/// coordinator in thread-timing order, yet the run logs one `Degraded`
/// for the step naming both, ends on the exact survivors, and replays.
#[test]
fn two_deaths_in_one_step_replay_as_one_degrade() {
    let seed = chaos_seed();
    let (n, steps, d) = (4usize, 6usize, 2usize);
    let a = (seed % n as u64) as usize;
    let b = (a + 1 + ((seed / n as u64) % (n as u64 - 1)) as usize) % n;
    let mut dead = vec![a, b];
    dead.sort_unstable();
    let mut cfg = tiny(n, steps);
    cfg.faults = Some(FaultToleranceConfig::with_plan(FaultPlan::explicit(
        seed,
        vec![crash(d, a, 0), crash(d, b, 0)],
    )));
    let r = train(&cfg);
    assert_eq!(r.survivors, (0..n).filter(|w| !dead.contains(w)).collect::<Vec<_>>());
    assert_eq!(r.step_losses.len(), steps);
    let c = r.fault_counters;
    assert_eq!((c.injected_crashes, c.degradations), (2, 1), "{c}");
    let degrades: Vec<&FaultEvent> =
        r.fault_events.iter().filter(|e| matches!(e, FaultEvent::Degraded { .. })).collect();
    assert_eq!(degrades, [&FaultEvent::Degraded { step: d, dead, new_world: n - 2 }]);
    assert_rebuilt_schedule_verifies(&cfg, &r);
    for _ in 0..3 {
        assert_replays(&cfg, &r);
    }
}

/// Survivors keep their trace rows across the degrade: spans after the
/// crash step still land on each survivor's original pid, and the dead
/// rank's row stops at its death.
#[test]
fn trace_rows_keep_original_ids_across_degradation() {
    let (d, victim) = (2usize, 1usize);
    let session = Arc::new(TraceSession::new());
    let mut cfg = tiny(4, 5);
    cfg.trace = Some(session.clone());
    cfg.faults =
        Some(FaultToleranceConfig::with_plan(FaultPlan::explicit(7, vec![crash(d, victim, 0)])));
    let r = train(&cfg);
    assert_eq!(r.survivors, vec![0, 2, 3]);
    let snap = session.recorder.snapshot();
    let last_exchange = |pid: u32| {
        let spans = snap.lanes.iter().filter(|l| l.pid == pid).flat_map(|l| l.spans.iter());
        spans.filter(|s| s.name == "exchange").map(|s| s.a0).max()
    };
    for pid in [0, 2, 3] {
        assert_eq!(last_exchange(pid), Some(4), "survivor {pid} ran the last step on its row");
    }
    assert_eq!(last_exchange(victim as u32), Some(d as u64), "the victim's row stops at its death");
}

#[test]
fn every_rank_dying_is_an_error_value() {
    let mut cfg = tiny(2, 4);
    cfg.faults = Some(FaultToleranceConfig::with_plan(FaultPlan::explicit(
        1,
        vec![crash(0, 0, 0), crash(0, 1, 0)],
    )));
    match try_train(&cfg) {
        Err(TrainError::AllRanksDead) => {}
        other => panic!("expected AllRanksDead, got {:?}", other.map(|r| r.survivors)),
    }
}
