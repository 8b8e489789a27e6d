//! Synchronous data-parallel training for real: a from-scratch
//! segmentation network trained across OS threads or processes with
//! real gradient allreduce on a synthetic shapes dataset (the paper's
//! mIoU claim, per the substitution in DESIGN.md §2), plus the
//! [`input`] pipeline model. Simulated scaling sweeps over the
//! Summit + MPI + Horovod stack are `tuner::Objective::sweep`; this
//! crate does not depend on the simulator.
//!
//! # Example: real distributed training
//!
//! ```
//! use trainer::real::{train, TrainConfig};
//!
//! let mut cfg = TrainConfig::quick(2);
//! cfg.steps = 30; // keep the doctest fast
//! let result = train(&cfg);
//! assert!(result.final_miou > 0.4);
//! ```

pub mod input;
pub mod real;

pub use input::InputPipeline;
