//! T12 — tuning-strategy comparison at a fixed evaluation budget:
//! exhaustive grid vs greedy coordinate descent vs random search.
//!
//! The paper's methodology is one-knob-family-at-a-time (≈ coordinate
//! descent). This experiment quantifies what that buys over naive
//! random search and how close it lands to the full grid's optimum.

use bench::{header, paper_machine, paper_model, v100, BATCH_PER_GPU, SEED};
use summit_metrics::Table;
use tuner::{coordinate_descent, grid_search, random_search, Candidate, KnobSpace, Objective};

pub const TITLE: &str = "Grid vs coordinate descent vs random search (96 GPUs)";

pub fn run() {
    header("T12", TITLE, "methodology study");
    let machine = paper_machine();
    let model = paper_model();
    let gpu = v100();
    let space = KnobSpace::paper();
    let n = 96;

    let objective = Objective::new(&machine, &model, &gpu, BATCH_PER_GPU, n, 2, SEED);

    // Full grid: the reference optimum (expensive).
    let grid = grid_search(&space, &objective);

    // Coordinate descent from the default.
    let cd = coordinate_descent(&space, &objective, Candidate::paper_default(), 3);

    // Random search with the same budget coordinate descent used.
    let rs = random_search(&space, &objective, cd.trajectory.len(), SEED);

    let mut t = Table::new(
        format!("space = {} candidates", space.size()),
        &["strategy", "evaluations", "best img/s", "vs grid optimum"],
    );
    for (name, report) in
        [("grid (exhaustive)", &grid), ("coordinate descent", &cd), ("random", &rs)]
    {
        t.row(&[
            name.to_string(),
            report.trajectory.len().to_string(),
            format!("{:.1}", report.best.throughput),
            format!("{:.1}%", report.best.throughput / grid.best.throughput * 100.0),
        ]);
    }
    t.print();
    println!("grid optimum: {}", grid.best.candidate.label());
    println!("coord descent: {}", cd.best.candidate.label());
    println!("random best : {}", rs.best.candidate.label());
    println!(
        "\nFinding: once the backend swap to MVAPICH2-GDR and a sub-ms cycle are\n\
         found, the remaining knobs are flat at this scale, so every strategy\n\
         reaches the same plateau — the methodology's value is getting there\n\
         deterministically at ~{}x below grid cost (random matching it depends\n\
         on the draw: ~1/3 of candidates use the right backend).",
        space.size() / cd.trajectory.len()
    );
}
