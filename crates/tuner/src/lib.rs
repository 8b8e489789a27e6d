//! The paper's contribution as a library: systematic tuning of
//! Horovod/MPI knobs for distributed DLv3+ training, *without modifying
//! Horovod, MPI, or the model* — every candidate is just a knob setting
//! handed to the unmodified runtime simulation.
//!
//! * [`space`] — the knob space as one list of axes (MPI backend,
//!   `HOROVOD_FUSION_THRESHOLD`, `HOROVOD_CYCLE_TIME`, response cache,
//!   hierarchical allreduce);
//! * [`objective`] — candidate scoring by simulated training throughput,
//!   at one scale or swept across the paper's GPU counts;
//! * [`search`] — exhaustive grid sweep, greedy coordinate descent (the
//!   one-knob-family-at-a-time methodology, formalized) and the online
//!   hill-climber (`HOROVOD_AUTOTUNE`), all walking the same axes;
//! * [`random`] — the budget-matched random baseline.
//!
//! # Example
//!
//! ```
//! use tuner::{coordinate_descent, Candidate, KnobSpace, Objective};
//! use dlmodels::{deeplab_paper, GpuModel};
//! use summit_sim::{Machine, MachineConfig};
//!
//! let machine = Machine::new(MachineConfig::summit_for_gpus(24));
//! let model = deeplab_paper();
//! let gpu = GpuModel::v100();
//! let objective = Objective::new(&machine, &model, &gpu, 1, 24, 2, 42);
//! let report = coordinate_descent(
//!     &KnobSpace::small(), &objective, Candidate::paper_default(), 2);
//! assert!(report.best.throughput > 0.0);
//! ```

pub mod objective;
pub mod random;
pub mod search;
pub mod space;

pub use objective::{paper_gpu_counts, Objective, Scored};
pub use random::random_search;
pub use search::{coordinate_descent, grid_search, hill_climb, TuneReport};
pub use space::{Axis, Candidate, KnobSpace};
