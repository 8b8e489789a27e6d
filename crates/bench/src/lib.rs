//! Shared harness code for the `experiments` binary.
//!
//! Each module of `src/bin/experiments/` regenerates one table or figure
//! of the paper (see DESIGN.md §4 for the index). This library holds the
//! common setup — the Summit machine at paper scale, the models, the
//! default and tuned configurations — and the paper-vs-measured
//! reporting helpers that EXPERIMENTS.md quotes. Nothing here times
//! anything: speed is measured by `benchmark/` (`BENCHMARK.json`).

use dlmodels::{deeplab_paper, GpuModel, ModelGraph};
use horovod::HorovodConfig;
use mpi_profiles::Backend;
use summit_sim::{Machine, MachineConfig};
use tuner::Candidate;

/// Steps simulated per scaling point (averages the straggler jitter).
pub const SIM_STEPS: usize = 5;

/// The per-GPU batch size of the scaling experiments. Segmentation at
/// 513² trains with small per-GPU batches; 1 reproduces the paper's
/// communication-bound regime (see DESIGN.md).
pub const BATCH_PER_GPU: usize = 1;

/// Root seed for every experiment.
pub const SEED: u64 = 2020;

/// The machine at the paper's maximum scale (22 nodes = 132 GPUs).
pub fn paper_machine() -> Machine {
    Machine::new(MachineConfig::summit_for_gpus(132))
}

/// The DLv3+ workload.
pub fn paper_model() -> ModelGraph {
    deeplab_paper()
}

pub fn v100() -> GpuModel {
    GpuModel::v100()
}

/// The paper's baseline: default Horovod knobs over the system MPI.
pub fn default_candidate() -> Candidate {
    Candidate::paper_default()
}

/// The tuned configuration (the fixed point experiment `t7` converges to):
/// MVAPICH2-GDR, 16 MB fusion, 1 ms cycle, cache on, hierarchical off
/// (MV2's own selection table already picks the two-level algorithm in
/// the mid-size range).
pub fn tuned_candidate() -> Candidate {
    Candidate {
        backend: Backend::Mvapich2Gdr,
        config: HorovodConfig::default().with_fusion(16 << 20).with_cycle(1e-3),
    }
}

/// Print the standard experiment header.
pub fn header(id: &str, title: &str, reproduces: &str) {
    println!("================================================================");
    println!("{id}: {title}");
    println!("reproduces: {reproduces}");
    println!("================================================================");
}

/// Print a paper-vs-measured comparison line (quoted by EXPERIMENTS.md).
/// The deviation is signed: positive means the measurement exceeds the
/// paper's value.
pub fn compare(metric: &str, paper: f64, measured: f64, unit: &str) {
    let err = if paper == 0.0 {
        summit_metrics::stats::rel_err(measured, paper) * 100.0
    } else {
        (measured - paper) / paper.abs() * 100.0
    };
    println!(
        "  {metric:<44} paper {paper:>9.2} {unit:<6} measured {measured:>9.2} {unit:<6} ({err:+.1}% rel)",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_machine_has_132_gpus() {
        assert_eq!(paper_machine().config.total_gpus(), 132);
    }

    #[test]
    fn tuned_candidate_uses_mv2() {
        let c = tuned_candidate();
        assert_eq!(c.backend, Backend::Mvapich2Gdr);
        assert!(c.config.fusion_threshold < HorovodConfig::default().fusion_threshold);
        assert!(c.config.cycle_time < HorovodConfig::default().cycle_time);
    }
}
