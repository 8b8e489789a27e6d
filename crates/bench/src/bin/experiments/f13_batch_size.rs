//! F13 — per-GPU batch-size sensitivity: why the paper's workload is
//! communication-bound.
//!
//! Segmentation at 513² forces small per-GPU batches (memory), which
//! shrinks the backward-pass overlap budget. This sweep shows the whole
//! default-vs-tuned gap collapsing as the batch grows — locating the
//! regime in which the paper's tuning matters.

use bench::{
    default_candidate, header, paper_machine, paper_model, tuned_candidate, v100, SEED, SIM_STEPS,
};
use horovod::StepSim;
use summit_metrics::Table;

pub const TITLE: &str = "Per-GPU batch-size sensitivity (132 GPUs)";

pub fn run() {
    header("F13", TITLE, "regime analysis");
    let machine = paper_machine();
    let model = paper_model();
    let gpu = v100();
    let n = 132;

    let mut t = Table::new(
        "weak-scaling efficiency at 132 GPUs by per-GPU batch",
        &["batch/GPU", "default eff", "tuned eff", "gap (pts)", "tuned speedup"],
    );
    for bs in [1usize, 2, 4, 8] {
        let run = |c: tuner::Candidate| {
            StepSim::new(&machine, c.backend.profile(), c.config, &model, &gpu, bs, n, SEED)
                .simulate_training(SIM_STEPS)
        };
        let d = run(default_candidate());
        let tu = run(tuned_candidate());
        t.row(&[
            bs.to_string(),
            format!("{:.1}%", d.efficiency * 100.0),
            format!("{:.1}%", tu.efficiency * 100.0),
            format!("{:.1}", (tu.efficiency - d.efficiency) * 100.0),
            format!("{:.2}x", tu.throughput / d.throughput),
        ]);
    }
    t.print();
    println!(
        "Shape: at batch 1 the gap is the paper's ~24 points; by batch 4-8 the\n\
         longer backward pass hides even the default backend's communication\n\
         and the gap closes — tuning matters exactly when memory limits force\n\
         small per-GPU batches, as 513x513 segmentation does."
    );
}
