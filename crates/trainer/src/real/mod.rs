//! The real (numerical) half of the reproduction: a from-scratch
//! mini-framework trained data-parallel — across threads or across
//! processes, by one rank body — with genuine gradient allreduce.

pub mod checkpoint;
pub mod commit;
pub mod miou;
pub mod net;
pub mod pipeline;
pub mod segdata;
pub mod sgd;
pub mod train;
pub mod worker;

pub use checkpoint::{Checkpoint, CheckpointError};
pub use commit::DegradeRecord;
pub use miou::Confusion;
pub use net::{BatchWorkspace, NetConfig, SegNet, Workspace};
pub use segdata::{generate, generate_batch, DataConfig, Sample};
pub use sgd::{LrSchedule, MomentumSgd};
pub use train::{
    evaluate, train, try_train, CheckpointConfig, EvalPoint, FaultToleranceConfig, TrainConfig,
    TrainError, TrainResult,
};
pub use worker::{preset, run_worker, WorkerOutcome};
