//! Shared measurement utilities for the Summit DLv3+ reproduction.
//!
//! This crate holds everything that is about *reporting* rather than
//! *simulating*: summary statistics, byte/time unit formatting, scaling
//! efficiency math, ASCII table/series rendering for the experiment
//! binaries, and deterministic RNG seed derivation.
//!
//! Nothing in here knows about Horovod, MPI or networks; the other crates
//! depend on this one and not vice versa.

pub mod rng;
pub mod scaling;
pub mod series;
pub mod stats;
pub mod table;
pub mod units;

pub use scaling::{scaling_efficiency, speedup, ScalingPoint, ScalingSeries};
pub use series::Series;
pub use stats::Summary;
pub use table::Table;
pub use units::{fmt_bytes, fmt_rate, fmt_time_s, parse_bytes};
