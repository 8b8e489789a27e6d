//! F15 — the intro's contrast: ResNet-50 scales fine where DLv3+ does
//! not.
//!
//! The paper motivates the study by noting ResNet-50 (300 img/s,
//! ~100 MiB gradients, short steps) was already well-served by existing
//! distributed-training practice, while DLv3+ (6.7 img/s, ~200 MiB
//! gradients, but *per-GPU batch pinned small by memory*) was not. This
//! binary runs both models through the identical stack.

use bench::{default_candidate, header, paper_machine, tuned_candidate, v100, SEED, SIM_STEPS};
use dlmodels::{deeplab_paper, resnet50};
use horovod::StepSim;
use summit_metrics::Table;

pub const TITLE: &str = "ResNet-50 vs DLv3+ under the same stack";

pub fn run() {
    header("F15", TITLE, "the paper's motivation");
    let machine = paper_machine();
    let gpu = v100();
    let dl = deeplab_paper();
    let rn = resnet50(224);

    let mut t = Table::new(
        "efficiency at 132 GPUs (ResNet-50 at batch 32/GPU, DLv3+ at 1/GPU)",
        &["model", "config", "img/s", "efficiency"],
    );
    for (model, bs) in [(&rn, 32usize), (&dl, 1usize)] {
        for cand in [default_candidate(), tuned_candidate()] {
            let r = StepSim::new(
                &machine,
                cand.backend.profile(),
                cand.config.clone(),
                model,
                &gpu,
                bs,
                132,
                SEED,
            )
            .simulate_training(SIM_STEPS);
            t.row(&[
                model.name.clone(),
                if cand.backend == mpi_profiles::Backend::SpectrumDefault {
                    "default"
                } else {
                    "tuned"
                }
                .to_string(),
                format!("{:.0}", r.throughput),
                format!("{:.1}%", r.efficiency * 100.0),
            ]);
        }
    }
    t.print();
    println!(
        "Shape: ResNet-50 is near-linear even on the default stack (its large\n\
         batch buys a long backward pass to hide ~100 MiB of gradients), while\n\
         DLv3+ on the default stack collapses — the gap the paper's tuning\n\
         closes. Same machine, same runtime, different workload shape."
    );
}
