//! F6 — tuned vs default scaling: the paper's headline figure
//! (claims C3, C4, C5).
//!
//! Paper: "Our optimization approach achieves near-linear (92%) scaling
//! with MVAPICH2-GDR ... an improvement in scaling efficiency by 23.9%
//! over default Horovod training, which translates to a 1.3× speedup."

use bench::{
    compare, default_candidate, header, paper_machine, paper_model, tuned_candidate, v100,
    BATCH_PER_GPU, SEED, SIM_STEPS,
};
use summit_metrics::scaling::compare_at;
use summit_metrics::Table;
use tuner::{paper_gpu_counts, Objective};

pub const TITLE: &str = "Tuned (MVAPICH2-GDR) vs default Horovod scaling of DLv3+";

pub fn run() {
    header("F6", TITLE, "abstract claims C3 (92% @ 132), C4 (+23.9 pts), C5 (1.3x)");
    let machine = paper_machine();
    let model = paper_model();
    let gpu = v100();
    let counts = paper_gpu_counts();

    let objective = Objective::new(&machine, &model, &gpu, BATCH_PER_GPU, 1, SIM_STEPS, SEED);
    let default = objective.sweep(&default_candidate(), "default", &counts);
    let tuned = objective.sweep(&tuned_candidate(), "tuned", &counts);

    let mut t = Table::new(
        "images/second and efficiency (batch 1/GPU)",
        &["GPUs", "default img/s", "default eff", "tuned img/s", "tuned eff", "speedup"],
    );
    for &n in &counts {
        let (et, ed, _, spd) = compare_at(&tuned, &default, n).expect("point measured");
        t.row(&[
            n.to_string(),
            format!("{:.1}", default.throughput_at(n).unwrap()),
            format!("{:.1}%", ed * 100.0),
            format!("{:.1}", tuned.throughput_at(n).unwrap()),
            format!("{:.1}%", et * 100.0),
            format!("{spd:.2}x"),
        ]);
    }
    t.print();

    println!("Tuned configuration: {}", tuned_candidate().label());
    println!("Default configuration: {}", default_candidate().label());
    println!();
    let (et, ed, delta, spd) = compare_at(&tuned, &default, 132).expect("132-GPU point");
    println!("Paper-vs-measured at 132 GPUs:");
    compare("tuned scaling efficiency", 92.0, et * 100.0, "%");
    compare("default scaling efficiency", 68.1, ed * 100.0, "%");
    compare("efficiency improvement", 23.9, delta, "pts");
    compare("training speedup (tuned/default)", 1.3, spd, "x");
}
