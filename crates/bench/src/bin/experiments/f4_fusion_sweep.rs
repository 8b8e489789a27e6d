//! F4 — `HOROVOD_FUSION_THRESHOLD` sweep at 96 GPUs.
//!
//! The first of the paper's two Horovod-knob sweeps: fusion too small
//! drowns in per-message latency and negotiation; too large delays the
//! first allreduce and shrinks the overlap window.

use bench::{header, paper_machine, paper_model, v100, BATCH_PER_GPU, SEED, SIM_STEPS};
use horovod::{HorovodConfig, StepSim};
use mpi_profiles::Backend;
use summit_metrics::{fmt_bytes, Table};

pub const TITLE: &str = "Fusion-threshold sweep (96 GPUs)";

pub fn run() {
    header("F4", TITLE, "tuning methodology, knob 1");
    let machine = paper_machine();
    let model = paper_model();
    let gpu = v100();
    let n = 96;

    let thresholds: Vec<u64> = vec![
        0,
        1 << 20,
        2 << 20,
        4 << 20,
        8 << 20,
        16 << 20,
        32 << 20,
        64 << 20,
        128 << 20,
        256 << 20,
    ];

    for backend in [Backend::SpectrumDefault, Backend::Mvapich2Gdr] {
        let mut t = Table::new(
            format!("{} @ {n} GPUs", backend.profile().name),
            &["fusion", "img/s", "efficiency", "buffers/step", "exposed comm (ms)"],
        );
        for &th in &thresholds {
            let sim = StepSim::new(
                &machine,
                backend.profile(),
                HorovodConfig::default().with_fusion(th),
                &model,
                &gpu,
                BATCH_PER_GPU,
                n,
                SEED,
            );
            let r = sim.simulate_training(SIM_STEPS);
            let b = &r.steps[0];
            t.row(&[
                if th == 0 { "off".to_string() } else { fmt_bytes(th) },
                format!("{:.1}", r.throughput),
                format!("{:.1}%", r.efficiency * 100.0),
                b.n_buffers.to_string(),
                format!("{:.1}", b.exposed_comm * 1e3),
            ]);
        }
        t.print();
    }
    println!(
        "Shape: on the default backend, throughput collapses with fusion off\n\
         (hundreds of small allreduces) and recovers through the 8-64 MB\n\
         band. On MVAPICH2-GDR the knob is nearly flat — communication is\n\
         already hidden — which is itself the paper's point: the backend\n\
         choice dominates, then fusion/cycle fine-tune the default backend."
    );
}
