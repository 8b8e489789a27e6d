//! V0 — model validation: the discrete-event simulation against the
//! closed-form α–β–γ bounds.
//!
//! Before trusting any reproduced figure, check that the simulator's
//! uncontended behaviour brackets the textbook cost models: simulated
//! time must sit at or above the analytic lower bound and within a small
//! factor of it in the bandwidth-dominated regime, for every algorithm.

use bench::header;
use collectives::{allreduce_cost, simulate_dense, Algorithm, AlphaBeta, LeaderAlgo, UniformCost};
use summit_metrics::Table;
use summit_sim::{Machine, MachineConfig};

pub const TITLE: &str = "Simulator vs analytic α–β–γ bounds";

pub fn run() {
    header("V0", TITLE, "model validation");
    // Single node: all transfers uncontended NVLink, so the analytic
    // model (α = software + wire latency, β = 1/50 GB/s, γ = 1/250 GB/s)
    // is directly comparable.
    let machine = Machine::new(MachineConfig::summit(1));
    let cost = UniformCost::default();
    let ab = AlphaBeta::new(4e-6, 50e9, 250e9);

    let algos: Vec<(&str, Algorithm)> = vec![
        ("ring", Algorithm::Ring),
        ("chunked-ring(4)", Algorithm::ChunkedRing { chunks: 4 }),
        ("recursive-doubling", Algorithm::RecursiveDoubling),
        ("rabenseifner", Algorithm::Rabenseifner),
        ("tree", Algorithm::Tree),
        ("hier(rab)", Algorithm::Hierarchical { per_node: 3, leader: LeaderAlgo::Rabenseifner }),
    ];

    for bytes in [64u64 << 10, 4 << 20, 64 << 20] {
        let mut t = Table::new(
            format!("6 ranks, {} allreduce", summit_metrics::fmt_bytes(bytes)),
            &["algorithm", "analytic (µs)", "simulated (µs)", "sim/analytic"],
        );
        for (name, algo) in &algos {
            let bound = allreduce_cost(*algo, 6, bytes, &ab);
            let sim = simulate_dense(&algo.build(6, (bytes / 4) as usize), &machine, &cost)
                .makespan
                .as_secs_f64();
            t.row(&[
                name.to_string(),
                format!("{:.1}", bound * 1e6),
                format!("{:.1}", sim * 1e6),
                format!("{:.2}x", sim / bound),
            ]);
        }
        t.print();
    }
    println!(
        "Reading: ratios near 1x mean the fluid simulation matches the\n\
         uncontended textbook cost; ratios above 1x reflect topology effects\n\
         the analytic model cannot see (cross-socket X-bus hops, route\n\
         latency asymmetry). Ratios below ~0.75x would indicate a simulator\n\
         bug — `collectives::analytic` tests enforce that bound."
    );
}
