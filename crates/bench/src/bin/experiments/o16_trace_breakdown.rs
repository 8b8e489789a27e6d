//! O16 — per-rank trace and critical-path breakdown, default vs tuned
//! (the paper's methodology, instrumented).
//!
//! Anthony et al. diagnose the default configuration's poor scaling by
//! reading the Horovod timeline, then verify the tuning by watching the
//! allreduce share of the step shrink. This experiment reproduces that
//! loop end to end: simulate one step per configuration at 4 ranks with
//! a timeline **per rank**, write Chrome-trace JSON (one pid per rank,
//! compute/comm lanes per pid), and run the critical-path analyzer —
//! per-phase busy time is an interval *union*, so the mirrored
//! synchronous allreduce is not quadruple-counted. The tuned
//! configuration must show a smaller allreduce busy-time fraction.
//!
//! A real 4-worker training run (genuine gradients over the threaded
//! ring allreduce) then produces a measured trace from the span
//! recorder, plus the metrics registry's Prometheus-style exposition.

use std::sync::Arc;

use bench::{default_candidate, header, paper_model, tuned_candidate, v100, BATCH_PER_GPU, SEED};
use horovod::{StepSim, Timeline};
use summit_sim::{Machine, MachineConfig};
use trace::{analyze, write_trace, Breakdown, TraceSession};
use trainer::real::{train, TrainConfig};
use tuner::Candidate;

/// Rank count of the traced runs (one Chrome pid each).
const N_RANKS: usize = 4;

/// Steps of each measured training run. The pipelined run asserts that
/// its tile reductions (3 per step, a few µs each) overlap backprop:
/// at 6 steps a 2-core box showed no overlap at all in about one run in
/// four, at 48 in none of twenty.
const MEASURED_STEPS: usize = 48;

fn traced_step(cand: Candidate, machine: &Machine, label: &str) -> (Breakdown, String) {
    let model = paper_model();
    let sim = StepSim::new(
        machine,
        cand.backend.profile(),
        cand.config,
        &model,
        &v100(),
        BATCH_PER_GPU,
        N_RANKS,
        SEED,
    );
    let (_, per_rank) = sim.simulate_step_per_rank(0);
    let mut merged = Timeline::default();
    for tl in &per_rank {
        merged.merge(tl);
    }
    let events = merged.to_chrome_events();
    let path = artifact_path(&format!("o16_trace_{label}.json"));
    std::fs::write(&path, write_trace(&events)).expect("write trace");
    (analyze(&events), path)
}

/// All report binaries drop their JSON into the gitignored
/// `artifacts/` directory instead of littering the repo root.
fn artifact_path(name: &str) -> String {
    std::fs::create_dir_all("artifacts").expect("create artifacts dir");
    format!("artifacts/{name}")
}

pub const TITLE: &str = "Per-rank timeline and critical-path breakdown, default vs tuned (4 GPUs)";

pub fn run() {
    header(
        "O16",
        TITLE,
        "methodology: timeline-driven tuning (paper §IV) — allreduce share shrinks",
    );
    // 4 ranks as 2 nodes x 2 GPUs: each pair shares its node's EDR
    // injection bandwidth, the smallest topology where the paper's
    // communication regime is visible. (4 ranks on one Summit node
    // would talk over NVLink, where the tuning knobs barely matter.)
    let machine =
        Machine::new(MachineConfig { nodes: 2, gpus_per_node: 2, ..MachineConfig::summit(2) });

    let (bd_default, path_default) = traced_step(default_candidate(), &machine, "default");
    let (bd_tuned, path_tuned) = traced_step(tuned_candidate(), &machine, "tuned");

    println!("--- default: {} ---", default_candidate().label());
    println!("{}", bd_default.table());
    println!("--- tuned: {} ---", tuned_candidate().label());
    println!("{}", bd_tuned.table());

    let f_default = bd_default.allreduce_fraction();
    let f_tuned = bd_tuned.allreduce_fraction();
    println!(
        "allreduce busy-time fraction of the step: default {:.1}%  ->  tuned {:.1}%",
        100.0 * f_default,
        100.0 * f_tuned
    );
    assert!(
        f_tuned < f_default,
        "tuning must shrink the allreduce share: {f_tuned:.4} vs {f_default:.4}"
    );
    println!("wrote {path_default} and {path_tuned} — load in chrome://tracing\n");

    // Real numerics: train 4 workers for a few steps with the span
    // recorder enabled; the trace comes out of the actual executor
    // threads (SEND/RECV per schedule hop) and worker compute spans.
    let session = Arc::new(TraceSession::new());
    let mut cfg = TrainConfig::quick(N_RANKS);
    cfg.steps = MEASURED_STEPS;
    cfg.trace = Some(session.clone());
    let result = train(&cfg);
    let events = session.recorder.to_chrome_events();
    let real_path = artifact_path("o16_trace_real.json");
    std::fs::write(&real_path, write_trace(&events)).expect("write trace");
    println!("--- real 4-worker training ({} steps, measured) ---", cfg.steps);
    println!("{}", analyze(&events).table());
    println!("final mIoU after {} steps: {:.3}", cfg.steps, result.final_miou);
    println!("wrote {real_path}\n");

    // The layer-pipelined executor, same workload: its per-layer tile
    // reductions should land *inside* other workers' backprop, which the
    // per-phase overlap column makes a single-command check.
    let pipe_session = Arc::new(TraceSession::new());
    let mut pipe_cfg = TrainConfig::quick(N_RANKS);
    pipe_cfg.steps = MEASURED_STEPS;
    pipe_cfg.pipeline = true;
    pipe_cfg.trace = Some(pipe_session.clone());
    let pipe_result = train(&pipe_cfg);
    let pipe_events = pipe_session.recorder.to_chrome_events();
    let pipe_path = artifact_path("o16_trace_pipelined.json");
    std::fs::write(&pipe_path, write_trace(&pipe_events)).expect("write trace");
    let pipe_bd = analyze(&pipe_events);
    println!("--- pipelined 4-worker training ({} steps, measured) ---", pipe_cfg.steps);
    println!("{}", pipe_bd.table());
    println!("final mIoU after {} steps: {:.3}", pipe_cfg.steps, pipe_result.final_miou);
    let ar = pipe_bd.phases.iter().find(|p| p.cat == "MPI_ALLREDUCE").expect("allreduce spans");
    println!(
        "pipelined allreduce: busy {:.3} ms, {:.1}% hidden behind compute",
        ar.busy_us / 1e3,
        100.0 * ar.overlap_fraction()
    );
    // With a single-lane pool the reductions run on the only worker and
    // nothing can overlap; the acceptance check needs real concurrency.
    if collectives::pool::lanes() >= 2 {
        assert!(
            ar.overlap_us > 0.0,
            "pipelined tile reductions must overlap backprop, got {:.3} ms over {:.3} ms busy",
            ar.overlap_us / 1e3,
            ar.busy_us / 1e3
        );
    } else {
        println!("(single-lane pool: overlap assertion skipped)");
    }
    println!("wrote {pipe_path}\n");

    println!("--- metrics exposition ---");
    print!("{}", session.registry.snapshot().to_prometheus_text());
}
