//! F5 — `HOROVOD_CYCLE_TIME` sweep at 96 GPUs.
//!
//! The second Horovod-knob sweep: short cycles react quickly but pay
//! negotiation more often (especially with the response cache off); long
//! cycles leave gradients idle and push communication past the end of
//! the backward pass.

use bench::{header, paper_machine, paper_model, v100, BATCH_PER_GPU, SEED, SIM_STEPS};
use horovod::{HorovodConfig, StepSim};
use mpi_profiles::Backend;
use summit_metrics::Table;

pub const TITLE: &str = "Cycle-time sweep (96 GPUs)";

pub fn run() {
    header("F5", TITLE, "tuning methodology, knob 2");
    let machine = paper_machine();
    let model = paper_model();
    let gpu = v100();
    let n = 96;
    let cycles_ms = [0.5f64, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0];

    for cache in [true, false] {
        let mut t = Table::new(
            format!("MVAPICH2-GDR @ {n} GPUs, response cache {}", if cache { "on" } else { "off" }),
            &["cycle (ms)", "img/s", "efficiency", "active cycles/step"],
        );
        for &c in &cycles_ms {
            let sim = StepSim::new(
                &machine,
                Backend::Mvapich2Gdr.profile(),
                HorovodConfig::default()
                    .with_fusion(16 << 20)
                    .with_cycle(c * 1e-3)
                    .with_cache(cache),
                &model,
                &gpu,
                BATCH_PER_GPU,
                n,
                SEED,
            );
            let r = sim.simulate_training(SIM_STEPS);
            t.row(&[
                format!("{c}"),
                format!("{:.1}", r.throughput),
                format!("{:.1}%", r.efficiency * 100.0),
                r.steps[0].n_active_cycles.to_string(),
            ]);
        }
        t.print();
    }
    println!(
        "Shape: 1-2.5 ms is the sweet spot; 25-50 ms cycles quantize gradient\n\
         pickup and stall the tail of the step. Disabling the response cache\n\
         raises the cost of short cycles."
    );
}
