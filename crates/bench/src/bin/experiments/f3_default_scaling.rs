//! F3 — default-configuration scaling of DLv3+ (claim C2).
//!
//! Horovod's default knobs (64 MB fusion, 5 ms cycle) over each MPI
//! backend, 6–132 GPUs: the paper's "poor default scaling" observation.

use bench::{header, paper_machine, paper_model, v100, BATCH_PER_GPU, SEED, SIM_STEPS};
use horovod::HorovodConfig;
use mpi_profiles::Backend;
use summit_metrics::Table;
use tuner::{paper_gpu_counts, Candidate, Objective};

pub const TITLE: &str = "DLv3+ scaling with default Horovod knobs";

pub fn run() {
    header("F3", TITLE, "abstract claim C2");
    let machine = paper_machine();
    let model = paper_model();
    let gpu = v100();

    let mut table = Table::new(
        "images/second (weak scaling, batch 1/GPU) — default knobs",
        &["GPUs", "Spectrum (default)", "eff", "MVAPICH2-GDR", "eff", "NCCL-like", "eff"],
    );
    let counts = paper_gpu_counts();
    let mut rows: Vec<Vec<String>> = counts.iter().map(|n| vec![n.to_string()]).collect();
    let objective = Objective::new(&machine, &model, &gpu, BATCH_PER_GPU, 1, SIM_STEPS, SEED);
    for backend in Backend::all() {
        let default = Candidate { backend, config: HorovodConfig::default() };
        let series = objective.sweep(&default, backend.profile().name, &counts);
        for (i, (n, eff)) in series.efficiencies().iter().enumerate() {
            let thr = series.throughput_at(*n).expect("measured");
            rows[i].push(format!("{thr:.1}"));
            rows[i].push(format!("{:.1}%", eff * 100.0));
        }
    }
    for r in rows {
        table.row(&r);
    }
    table.print();
    println!(
        "The default-MPI curve flattens past ~48 GPUs — the paper's \"poor default\n\
         scaling performance of DLv3+ on Summit\" (exact default efficiency is\n\
         compared against the paper's 68.1% in F6)."
    );
}
