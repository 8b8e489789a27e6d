//! Run the paper's tuning methodology: greedy coordinate descent over
//! the Horovod/MPI knob space at 96 GPUs, starting from the system
//! default — then the online hill-climber over the same knobs.
//!
//! ```text
//! cargo run --example autotune --release
//! ```

use summit_dlv3_repro::prelude::*;

fn main() {
    let machine = Machine::new(MachineConfig::summit_for_gpus(96));
    let model = deeplab_paper();
    let gpu = GpuModel::v100();
    let objective = Objective::new(&machine, &model, &gpu, 1, 96, 3, 42);
    let space = KnobSpace::paper();

    println!("knob space: {} candidates; running coordinate descent...", space.size());
    let report = coordinate_descent(&space, &objective, Candidate::paper_default(), 3);

    println!("evaluations: {} (vs {} for the full grid)", report.trajectory.len(), space.size());
    println!("start : {}", report.trajectory[0].candidate.label());
    println!(
        "        {:.1} img/s ({:.1}% efficiency)",
        report.trajectory[0].throughput,
        report.trajectory[0].efficiency * 100.0
    );
    println!("best  : {}", report.best.candidate.label());
    println!(
        "        {:.1} img/s ({:.1}% efficiency) — {:.2}x over the default",
        report.best.throughput,
        report.best.efficiency * 100.0,
        report.best.throughput / report.trajectory[0].throughput
    );

    println!("\nimprovement trajectory (new bests only):");
    let mut best = 0.0f64;
    for s in &report.trajectory {
        if s.throughput > best {
            best = s.throughput;
            println!("  {:>7.1} img/s  <- {}", s.throughput, s.candidate.label());
        }
    }

    // The online variant (HOROVOD_AUTOTUNE-style): tune *during* training
    // instead of sweeping offline.
    println!("\nonline autotuning (8 windows of 3 steps, starting from defaults):");
    let ladders = KnobSpace::online(Backend::Mvapich2Gdr);
    let online = hill_climb(&ladders, &objective, Candidate::paper_default(), 8);
    for (i, w) in online.trajectory.iter().enumerate() {
        println!(
            "  window {i}: {:>7.2} ms/step   {}",
            w.mean_step_time * 1e3,
            w.candidate.config.render_env()
        );
    }
    println!(
        "  best: {:.2} ms/step with {}",
        online.best.mean_step_time * 1e3,
        online.best.candidate.config.render_env()
    );
}
