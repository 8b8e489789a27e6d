//! Simulation of the Horovod runtime — the system whose knobs the paper
//! tunes.
//!
//! The pieces mirror Horovod's actual architecture:
//!
//! * [`config`] — `HOROVOD_FUSION_THRESHOLD`, `HOROVOD_CYCLE_TIME`,
//!   response cache, forced hierarchical allreduce, and
//!   `HOROVOD_COMPRESSION` as a [`collectives::CodecKind`];
//! * [`coordinator`] — the per-cycle negotiation cost (with/without the
//!   response cache);
//! * [`fusion`] — greedy packing of ready tensors into fusion buffers,
//!   including the pack/unpack device copies;
//! * [`runtime`] — the step simulation: backward-pass gradient emission
//!   feeding the cycle loop, fused allreduces overlapping compute on a
//!   serial communication stream, slowest-rank jitter;
//! * [`timeline`] — Horovod-timeline-style tracing (text +
//!   Chrome-trace JSON).
//!
//! # Example
//!
//! ```
//! use horovod::{HorovodConfig, StepSim};
//! use dlmodels::{deeplab_paper, GpuModel};
//! use mpi_profiles::MpiProfile;
//! use summit_sim::{Machine, MachineConfig};
//!
//! let machine = Machine::new(MachineConfig::summit_for_gpus(12));
//! let sim = StepSim::new(
//!     &machine,
//!     MpiProfile::mvapich2_gdr(),
//!     HorovodConfig::default(),
//!     &deeplab_paper(),
//!     &GpuModel::v100(),
//!     2,   // batch per GPU
//!     12,  // ranks
//!     42,  // seed
//! );
//! let report = sim.simulate_training(3);
//! assert!(report.efficiency > 0.5 && report.efficiency <= 1.0);
//! ```

pub mod config;
pub mod coordinator;
pub mod fusion;
pub mod runtime;
pub mod timeline;

pub use config::HorovodConfig;
pub use fusion::{pack, FusedBuffer};
pub use runtime::{StepBreakdown, StepSim, TrainReport, DEFAULT_JITTER_SIGMA};
pub use timeline::{Phase, Span, Timeline};
