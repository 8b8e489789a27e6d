//! F14 — input-pipeline sensitivity: GPFS reads + CPU decode feeding the
//! GPUs.
//!
//! A tuned communication stack is wasted if the data loader cannot keep
//! up. This sweep varies loader workers per node (and prefetch) under
//! the tuned 96-GPU configuration.

use bench::{header, paper_machine, paper_model, tuned_candidate, v100, SEED, SIM_STEPS};
use horovod::StepSim;
use summit_metrics::Table;
use trainer::input::InputPipeline;

pub const TITLE: &str = "Input-pipeline sensitivity (96 GPUs, tuned config)";

pub fn run() {
    header("F14", TITLE, "substrate study");
    let machine = paper_machine();
    let model = paper_model();
    let gpu = v100();
    let (n, bs) = (96usize, 2usize);
    let cand = tuned_candidate();

    let train = StepSim::new(
        &machine,
        cand.backend.profile(),
        cand.config.clone(),
        &model,
        &gpu,
        bs,
        n,
        SEED,
    )
    .simulate_training(SIM_STEPS);
    let train_step = train.mean_step_time;
    let images_per_node = machine.config.gpus_per_node * bs;
    println!(
        "train step (compute+comm): {:.1} ms; {} images/node/step\n",
        train_step * 1e3,
        images_per_node
    );

    let mut t = Table::new(
        "effective throughput by loader workers per node",
        &["workers", "prefetch", "input (ms)", "effective img/s", "input-bound?"],
    );
    for &workers in &[1usize, 2, 4, 8, 16] {
        for prefetch in [true, false] {
            let pipe =
                InputPipeline { cpu_workers: workers, prefetch, ..InputPipeline::summit_voc() };
            let eff_step = pipe.effective_step_time(train_step, images_per_node);
            t.row(&[
                workers.to_string(),
                if prefetch { "on" } else { "off" }.to_string(),
                format!("{:.1}", pipe.input_step_time(images_per_node) * 1e3),
                format!("{:.1}", n as f64 * bs as f64 / eff_step),
                if pipe.input_bound(train_step, images_per_node) { "YES" } else { "no" }
                    .to_string(),
            ]);
        }
    }
    t.print();
    println!(
        "Shape: below ~2 loader workers/node the pipeline, not the network,\n\
         bounds training; with prefetch and >=4 workers the input is fully\n\
         hidden — the precondition all the scaling results above assume."
    );
}
