//! Integration of the real training path: the claim-C6 parity property
//! (distributed ≡ serial) across allreduce algorithms and worker counts,
//! end to end through data generation, the conv net, the optimizer and
//! the threaded collectives.

use summit_dlv3_repro::collectives::{Algorithm, CodecKind};
use summit_dlv3_repro::trainer::real::{train, DataConfig, NetConfig, TrainConfig};

fn cfg(workers: usize, batch_per_worker: usize, steps: usize) -> TrainConfig {
    let data = DataConfig { height: 12, width: 12, ..DataConfig::default() };
    let net =
        NetConfig { height: 12, width: 12, cin: 3, hidden1: 5, hidden2: 8, n_classes: 4, k: 3 };
    TrainConfig {
        data,
        net,
        workers,
        batch_per_worker,
        steps,
        base_lr: 0.4,
        lr_scale: 1.0,
        warmup_steps: 5,
        momentum: 0.9,
        weight_decay: 0.0,
        accumulation_steps: 1,
        algo: Algorithm::Ring,
        codec: CodecKind::None,
        error_feedback: false,
        augment: false,
        eval_every: 0,
        eval_samples: 24,
        seed: 2020,
        faults: None,
        checkpoint: None,
        trace: None,
        pipeline: false,
    }
}

#[test]
fn learns_the_task() {
    let r = train(&cfg(2, 3, 60));
    assert!(r.final_miou > 0.6, "mIoU after 60 steps = {:.3}", r.final_miou);
    assert!(r.final_pixel_accuracy > r.final_miou, "accuracy bounds mIoU from above here");
}

#[test]
fn worker_count_does_not_change_the_math() {
    // Same global batch (6) split 1/2/3/6 ways: parameters agree to
    // float-reassociation noise, mIoU to the same decision boundary.
    let runs: Vec<(usize, usize)> = vec![(1, 6), (2, 3), (3, 2), (6, 1)];
    let results: Vec<_> = runs.iter().map(|&(w, b)| train(&cfg(w, b, 30))).collect();
    let reference = &results[0];
    for ((w, _), r) in runs.iter().zip(&results).skip(1) {
        let max_dev = reference
            .final_params
            .iter()
            .zip(&r.final_params)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(max_dev < 2e-2, "{w} workers deviate by {max_dev}");
        assert!(
            (reference.final_miou - r.final_miou).abs() < 0.05,
            "{w} workers: mIoU {:.3} vs serial {:.3}",
            r.final_miou,
            reference.final_miou
        );
    }
}

#[test]
fn allreduce_algorithm_does_not_change_the_result() {
    let algos =
        [Algorithm::Ring, Algorithm::RecursiveDoubling, Algorithm::Rabenseifner, Algorithm::Tree];
    let results: Vec<_> = algos
        .iter()
        .map(|&a| {
            let mut c = cfg(4, 2, 25);
            c.algo = a;
            train(&c)
        })
        .collect();
    for (a, r) in algos.iter().zip(&results).skip(1) {
        let max_dev = results[0]
            .final_params
            .iter()
            .zip(&r.final_params)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0f32, f32::max);
        assert!(max_dev < 2e-2, "{a} deviates by {max_dev}");
    }
}

#[test]
fn training_is_reproducible_end_to_end() {
    let a = train(&cfg(4, 2, 20));
    let b = train(&cfg(4, 2, 20));
    assert_eq!(a.final_params, b.final_params, "bitwise reproducibility");
    assert_eq!(a.final_miou, b.final_miou);
}

#[test]
fn lr_scaling_recipe_behaves() {
    // With warmup + poly decay, a 4-worker run with scaled LR should
    // still converge (no divergence from the larger effective LR).
    let mut c = cfg(4, 2, 60);
    c.lr_scale = 1.5;
    c.warmup_steps = 10;
    let r = train(&c);
    assert!(r.final_miou > 0.5, "scaled-LR run must still converge: {:.3}", r.final_miou);
    // And the unscaled run converges too — scaling did not break training.
    let r1 = train(&cfg(4, 2, 60));
    assert!((r.final_miou - r1.final_miou).abs() < 0.35, "scaled LR within reach of base");
}
