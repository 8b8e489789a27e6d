//! # summit-dlv3-repro
//!
//! A Rust reproduction of *"Efficient Training of Semantic Image
//! Segmentation on Summit using Horovod and MVAPICH2-GDR"* (Anthony,
//! Awan, Jain, Subramoni, Panda — IPDPSW/ScaDL 2020).
//!
//! The paper is a performance-tuning study of distributed DeepLab-v3+
//! training on ORNL Summit. Its artifact — TensorFlow + Horovod + two
//! proprietary MPI stacks + 132 V100 GPUs — cannot run on a laptop, so
//! this workspace rebuilds the *system* underneath it (see DESIGN.md):
//!
//! | crate | provides |
//! |-------|----------|
//! | [`summit_sim`] | discrete-event Summit interconnect (NVLink2/X-bus/PCIe/dual-rail EDR fat-tree), fluid-flow contention, rank-program executor |
//! | [`collectives`] | ring / recursive-doubling / Rabenseifner / tree / two-level hierarchical allreduce as round schedules, with simulated *and* real threaded executors |
//! | [`mpi_profiles`] | MVAPICH2-GDR, Spectrum-MPI-default and NCCL-like personalities: protocols, data paths, selection tables, OSU microbenchmarks |
//! | [`dlmodels`] | DLv3+ (Xception-65 + ASPP + decoder) and ResNet-50 layer graphs, V100 roofline calibrated to the paper's 6.7 / 300 img/s |
//! | [`horovod`] | the Horovod runtime: coordinator, response cache, tensor fusion, cycle loop, overlap, timeline |
//! | [`trainer`] | a real numerical data-parallel trainer (synthetic segmentation, from-scratch conv net, real gradient allreduce) |
//! | [`tuner`] | the paper's contribution: knob space, scaling sweeps, grid search, coordinate descent, online hill-climbing |
//! | [`summit_metrics`] | stats, units, scaling math, report rendering |
//! | [`trace`] | observability: per-rank span recorder, metrics registry, Chrome-trace emitter/parser, critical-path analyzer |
//!
//! Every table/figure is an entry of the `experiments` binary in
//! `crates/bench` (`cargo run -p bench --release --bin experiments -- f6`, etc.);
//! EXPERIMENTS.md records paper-vs-measured for each.
//!
//! # Quickstart
//!
//! ```
//! use summit_dlv3_repro::prelude::*;
//!
//! // Simulate tuned DLv3+ training at 24 GPUs (4 Summit nodes).
//! let machine = Machine::new(MachineConfig::summit_for_gpus(24));
//! let sim = StepSim::new(
//!     &machine,
//!     MpiProfile::mvapich2_gdr(),
//!     HorovodConfig::default().with_fusion(16 << 20).with_cycle(1e-3),
//!     &deeplab_paper(),
//!     &GpuModel::v100(),
//!     1,
//!     24,
//!     42,
//! );
//! let report = sim.simulate_training(3);
//! assert!(report.efficiency > 0.9, "tuned config is near-linear at 4 nodes");
//! ```

pub use collectives;
pub use dlmodels;
pub use horovod;
pub use mpi_profiles;
pub use summit_metrics;
pub use summit_sim;
pub use trace;
pub use trainer;
pub use tuner;

/// The most common imports, in one place.
pub mod prelude {
    pub use collectives::{Algorithm, LeaderAlgo, ReduceOp};
    pub use dlmodels::{deeplab_paper, resnet50, EmissionSchedule, GpuModel, ModelGraph};
    pub use horovod::{HorovodConfig, StepSim, Timeline, TrainReport};
    pub use mpi_profiles::{AllreduceOracle, Backend, MpiProfile};
    pub use summit_metrics::{ScalingSeries, Series, Summary, Table};
    pub use summit_sim::{DataPath, GpuId, Machine, MachineConfig, SimTime};
    pub use tuner::{
        coordinate_descent, grid_search, hill_climb, paper_gpu_counts, Candidate, KnobSpace,
        Objective,
    };
}
