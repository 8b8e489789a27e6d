//! A11 — ablation: how much of the tuned result depends on the machine?
//!
//! Three counterfactual Summits — PCIe-only nodes (no NVLink),
//! single-rail injection (half NIC bandwidth), and round-robin rank
//! placement — re-run the tuned 96-GPU configuration to show which
//! hardware/launcher properties the near-linear scaling rests on.

use bench::{
    default_candidate, header, paper_model, tuned_candidate, v100, BATCH_PER_GPU, SEED, SIM_STEPS,
};
use horovod::StepSim;
use summit_metrics::Table;
use summit_sim::{Machine, MachineConfig};

pub const TITLE: &str = "Interconnect & placement sensitivity (96 GPUs, tuned config)";

pub fn run() {
    header("A11", TITLE, "design ablation");
    let model = paper_model();
    let gpu = v100();
    let cand = tuned_candidate();
    let n = 96;

    let machines: Vec<(&str, Machine)> = vec![
        ("Summit (baseline)", Machine::new(MachineConfig::summit_for_gpus(n))),
        ("PCIe-only nodes (no NVLink)", Machine::new(MachineConfig::summit_pcie_only(16))),
        (
            "single-rail EDR (half NIC)",
            Machine::new(MachineConfig::summit_for_gpus(n).with_nic_scale(0.5)),
        ),
    ];

    let mut t = Table::new(
        "batch 1/GPU, 96 GPUs",
        &["machine", "tuned img/s", "tuned eff", "default img/s", "default eff"],
    );
    for (name, machine) in &machines {
        let run = |c: &tuner::Candidate| {
            StepSim::new(
                machine,
                c.backend.profile(),
                c.config.clone(),
                &model,
                &gpu,
                BATCH_PER_GPU,
                n,
                SEED,
            )
            .simulate_training(SIM_STEPS)
        };
        let tuned = run(&cand);
        let default = run(&default_candidate());
        t.row(&[
            name.to_string(),
            format!("{:.1}", tuned.throughput),
            format!("{:.1}%", tuned.efficiency * 100.0),
            format!("{:.1}", default.throughput),
            format!("{:.1}%", default.efficiency * 100.0),
        ]);
    }
    t.print();

    // Placement sensitivity, measured at the allreduce level.
    use collectives::{simulate, Algorithm, UniformCost};
    use summit_sim::Placement;
    let machine = &machines[0].1;
    let sched = Algorithm::Ring.build(n, (16 << 20) / 4);
    let cost = UniformCost::default();
    let mut t = Table::new(
        "16 MiB ring allreduce by rank placement",
        &["placement", "latency (ms)", "slowdown"],
    );
    let base = simulate(&sched, machine, &Placement::Dense.assign(machine, n), &cost)
        .makespan
        .as_secs_f64();
    for p in [Placement::Dense, Placement::SocketInterleaved, Placement::RoundRobinNodes] {
        let tm = simulate(&sched, machine, &p.assign(machine, n), &cost).makespan.as_secs_f64();
        t.row(&[format!("{p:?}"), format!("{:.2}", tm * 1e3), format!("{:.2}x", tm / base)]);
    }
    t.print();
    println!(
        "Shape: the tuned result needs NVLink (PCIe-only nodes lose heavily in\n\
         the intra-node phases) and packed placement (round-robin ranks push\n\
         every ring hop through the fabric); single-rail operation costs\n\
         inter-node bandwidth but overlap still hides most of it."
    );
}
