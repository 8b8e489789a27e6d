//! Checkpoint/restart integration: a run interrupted at a checkpoint
//! and resumed must be indistinguishable from one that never stopped.

use std::path::PathBuf;

use collectives::CodecKind;

use trainer::real::{train, Checkpoint, CheckpointConfig, DataConfig, NetConfig, TrainConfig};

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
        algo: collectives::Algorithm::Ring,
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

fn ck_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("summit-ckpt-restart");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn resumed_run_is_bit_identical_to_uninterrupted() {
    let path = ck_path("resume.bin");
    let _ = std::fs::remove_file(&path);

    // The uninterrupted reference: 10 steps straight through.
    let full = train(&tiny(2, 10));

    // Interrupted run: same 10-step config, but crash right after the
    // step-5 checkpoint. The LR schedule spans the full 10 steps, just
    // like a really-interrupted run.
    let mut first = tiny(2, 10);
    first.checkpoint =
        Some(CheckpointConfig { path: path.clone(), every: 5, resume: false, halt_after: Some(5) });
    let half = train(&first);
    assert!(path.exists(), "checkpoint written at step 5");
    assert_eq!(half.step_losses.len(), 5, "run halted after step 5");

    // The on-disk snapshot round-trips bit-exactly: params and
    // optimizer state are the interrupted run's final state.
    let ck = Checkpoint::load(&path).unwrap();
    assert_eq!(ck.step, 5);
    assert_eq!(ck.live, vec![0, 1]);
    assert_eq!(ck.opt_step, 5);
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&ck.params), bits(&half.final_params), "saved params are bit-exact");

    // Resume to step 10: every remaining step's loss and the final
    // parameters must match the uninterrupted run bit for bit.
    let mut second = tiny(2, 10);
    second.checkpoint =
        Some(CheckpointConfig { path: path.clone(), every: 0, resume: true, halt_after: None });
    let resumed = train(&second);
    assert_eq!(
        bits(&resumed.final_params),
        bits(&full.final_params),
        "resumed parameters diverged from the uninterrupted run"
    );
    assert_eq!(resumed.final_miou, full.final_miou);
    // The resumed run records losses for steps 5..10; the tail of the
    // full run's trajectory (≥ 5 steps) must be identical.
    assert_eq!(resumed.step_losses.len(), 5);
    assert_eq!(resumed.step_losses, full.step_losses[5..].to_vec(), "loss trajectory diverged");

    std::fs::remove_file(&path).unwrap();
}

#[test]
fn periodic_saves_keep_only_the_latest() {
    let path = ck_path("periodic.bin");
    let _ = std::fs::remove_file(&path);
    let mut cfg = tiny(2, 9);
    cfg.checkpoint =
        Some(CheckpointConfig { path: path.clone(), every: 3, resume: false, halt_after: None });
    let r = train(&cfg);
    let ck = Checkpoint::load(&path).unwrap();
    assert_eq!(ck.step, 9, "latest periodic save wins");
    assert_eq!(ck.params, r.final_params);
    assert!(!path.with_extension("tmp").exists(), "atomic rename leaves no temp file");
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn mismatched_checkpoint_is_rejected_not_loaded() {
    let path = ck_path("mismatch.bin");
    let _ = std::fs::remove_file(&path);
    let mut small = tiny(2, 4);
    small.checkpoint =
        Some(CheckpointConfig { path: path.clone(), every: 4, resume: false, halt_after: None });
    train(&small);

    // A bigger net cannot resume from it.
    let mut big = tiny(2, 8);
    big.net.hidden1 = 6;
    big.checkpoint =
        Some(CheckpointConfig { path: path.clone(), every: 0, resume: true, halt_after: None });
    let err = trainer::real::try_train(&big).unwrap_err();
    assert!(
        matches!(err, trainer::real::TrainError::CheckpointMismatch(_)),
        "expected CheckpointMismatch, got {err}"
    );
    std::fs::remove_file(&path).unwrap();
}
