//! A9 — ablation: two-level hierarchical allreduce vs flat algorithms.
//!
//! Where the topology-aware composition wins and where it loses, across
//! message sizes and scales — the design-choice analysis behind the MPI
//! personalities' selection tables (DESIGN.md §5).

use bench::header;
use collectives::{simulate_dense, Algorithm, LeaderAlgo, UniformCost};
use summit_metrics::{fmt_bytes, Table};
use summit_sim::{Machine, MachineConfig};

pub const TITLE: &str = "Hierarchical vs flat allreduce";

pub fn run() {
    header("A9", TITLE, "design-choice ablation");
    let cost = UniformCost::default();
    let algos: Vec<(&str, Algorithm)> = vec![
        ("ring", Algorithm::Ring),
        ("ring/4ch", Algorithm::ChunkedRing { chunks: 4 }),
        ("recursive-doubling", Algorithm::RecursiveDoubling),
        ("rabenseifner", Algorithm::Rabenseifner),
        ("hier(rab)", Algorithm::Hierarchical { per_node: 6, leader: LeaderAlgo::Rabenseifner }),
        ("hier(ring)", Algorithm::Hierarchical { per_node: 6, leader: LeaderAlgo::Ring }),
        ("rsag", Algorithm::HierarchicalRsag { per_node: 6 }),
    ];

    for gpus in [12usize, 48, 132] {
        let machine = Machine::new(MachineConfig::summit_for_gpus(gpus));
        let mut t = Table::new(
            format!("allreduce latency (µs) @ {gpus} GPUs"),
            &[
                "size",
                "ring",
                "ring/4ch",
                "recursive-doubling",
                "rabenseifner",
                "hier(rab)",
                "hier(ring)",
                "rsag",
                "winner",
            ],
        );
        for pow in [10u32, 14, 17, 20, 23, 26, 28] {
            let bytes = 1u64 << pow;
            let elems = (bytes / 4) as usize;
            let mut row = vec![fmt_bytes(bytes)];
            let mut best = (f64::INFINITY, "");
            for (name, algo) in &algos {
                let us = simulate_dense(&algo.build(gpus, elems), &machine, &cost)
                    .makespan
                    .as_secs_f64()
                    * 1e6;
                if us < best.0 {
                    best = (us, name);
                }
                row.push(format!("{us:.1}"));
            }
            row.push(best.1.to_string());
            t.row(&row);
        }
        t.print();
    }
    println!(
        "Shape: recursive doubling owns the latency regime (<=64 KiB),\n\
         hierarchical variants own the fused-buffer regime (~128 KiB-8 MiB),\n\
         and ring variants own the huge-message regime — exactly the selection\n\
         table MVAPICH2-GDR's personality encodes. RSAG (every GPU injecting\n\
         1/6 of the buffer) and chunked rings refine their respective bands."
    );
}
