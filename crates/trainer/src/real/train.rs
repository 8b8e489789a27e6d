//! Data-parallel training with *real* gradients over *real* allreduce.
//!
//! Each worker thread owns a model replica and an optimizer; every step
//! the workers compute gradients on disjoint shards of the global batch,
//! average them with a genuine multi-threaded allreduce (the same
//! algorithm schedules the simulator times — see
//! [`collectives::exec_thread`]), and apply identical updates. This is
//! the accuracy half of the reproduction: claim C6's substance is that
//! synchronous gradient averaging matches serial training's mIoU.

use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use collectives::compression::{self, CodecKind, EncodeScratch, ErrorFeedback};
use collectives::pool;
use collectives::{
    Algorithm, ElasticAllreduce, ElasticError, ExecTrace, FaultSession, ReduceOp, Violation,
};
use faults::{FaultEvent, FaultPlan, RetryPolicy};
use summit_metrics::rng::derive_seed;
use summit_metrics::FaultCounterSnapshot;
use trace::{Lane, TraceSession};

use super::checkpoint::{Checkpoint, CheckpointError};
use super::miou::Confusion;
use super::net::{BatchWorkspace, NetConfig, SegNet};
use super::segdata::{augment, generate, generate_batch, DataConfig, Sample};
use super::sgd::{LrSchedule, MomentumSgd};

/// Fault-injection knobs for a chaos run. Absent (`TrainConfig::faults
/// = None`) the allreduce runs with no injector, snapshot or deadlines.
#[derive(Debug, Clone)]
pub struct FaultToleranceConfig {
    /// The seeded, replayable injection plan.
    pub plan: FaultPlan,
    /// Receive deadlines / backoff / death threshold.
    pub policy: RetryPolicy,
}

impl FaultToleranceConfig {
    pub fn with_plan(plan: FaultPlan) -> Self {
        FaultToleranceConfig { plan, policy: RetryPolicy::default() }
    }
}

/// Checkpoint/restart knobs.
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Where the checkpoint file lives (written atomically).
    pub path: PathBuf,
    /// Save after every `every` steps; 0 disables saving.
    pub every: usize,
    /// If `path` exists at startup, resume from it instead of step 0.
    pub resume: bool,
    /// Simulate a crash: stop the run right after this step completes
    /// (checkpoint saves for the step happen first, so a matching
    /// `every` makes the stop recoverable). The LR schedule still spans
    /// the full configured `steps`, exactly as a really-interrupted run.
    pub halt_after: Option<usize>,
}

/// Why a training run failed (as a value — the trainer no longer
/// panics on infrastructure faults).
#[derive(Debug)]
pub enum TrainError {
    /// The gradient allreduce schedule failed static verification.
    Verification(Vec<Violation>),
    /// The collective layer gave up (all ranks dead, rebuilt schedule
    /// rejected, or a non-recoverable executor error).
    Elastic(ElasticError),
    /// Checkpoint I/O or integrity failure.
    Checkpoint(CheckpointError),
    /// A checkpoint loaded fine but does not fit this config.
    CheckpointMismatch(String),
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainError::Verification(v) => {
                write!(f, "gradient allreduce schedule failed verification: {v:?}")
            }
            TrainError::Elastic(e) => write!(f, "collective layer failed: {e}"),
            TrainError::Checkpoint(e) => write!(f, "{e}"),
            TrainError::CheckpointMismatch(why) => write!(f, "checkpoint mismatch: {why}"),
        }
    }
}

impl std::error::Error for TrainError {}

/// Full training-run configuration.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    pub data: DataConfig,
    pub net: NetConfig,
    /// Data-parallel worker (replica) count.
    pub workers: usize,
    pub batch_per_worker: usize,
    pub steps: usize,
    pub base_lr: f32,
    /// LR linear-scaling factor (global batch / reference batch).
    pub lr_scale: f32,
    pub warmup_steps: usize,
    pub momentum: f32,
    /// Classic L2 weight decay (DeepLab uses 4e-5; 0 disables).
    pub weight_decay: f32,
    /// Micro-batches accumulated locally before each allreduce+update
    /// (1 = standard synchronous SGD).
    pub accumulation_steps: usize,
    /// Allreduce algorithm for gradient averaging.
    pub algo: Algorithm,
    /// Run steps on the layer-pipelined work-stealing executor: per-layer
    /// gradient tiles are reduced across replicas as soon as the last
    /// backward task for that layer finishes, overlapping communication
    /// with the remaining backprop (Horovod's tensor-ready overlap).
    /// Mutually exclusive with `faults` — chaos runs need the elastic
    /// bulk-synchronous path.
    pub pipeline: bool,
    /// Wire codec applied to each worker's local-mean gradient before
    /// averaging (`None` ⇒ full fp32; `Fp16` is Horovod's
    /// `HOROVOD_COMPRESSION=fp16`). Lossier codecs (`Int4`, `TopK`)
    /// should be paired with `error_feedback`.
    pub codec: CodecKind,
    /// Keep a persistent per-worker fp32 residual of what the codec
    /// dropped and re-inject it next step (error feedback) — the
    /// mechanism that lets int4/top-k training converge to the fp32
    /// baseline.
    pub error_feedback: bool,
    /// Apply random flip augmentation to training samples.
    pub augment: bool,
    /// Evaluate every this many steps (0 = only at the end).
    pub eval_every: usize,
    pub eval_samples: usize,
    pub seed: u64,
    /// Fault-injection session for chaos runs (`None` ⇒ no injector, no
    /// snapshot, no deadlines; the numbers are the same either way).
    pub faults: Option<FaultToleranceConfig>,
    /// Checkpoint/restart (`None` ⇒ never saved, never resumed).
    pub checkpoint: Option<CheckpointConfig>,
    /// Observability session (`None` ⇒ nothing is recorded anywhere).
    /// Shared by `Arc`: the caller keeps the same recorder/registry the
    /// workers write, and reads traces/metrics out after (or during)
    /// the run. Recording is allocation-free in the steady state — the
    /// counting-allocator proof in `tests/zero_alloc.rs` covers the
    /// recorder enabled.
    pub trace: Option<Arc<TraceSession>>,
}

impl TrainConfig {
    /// A small-but-real default: enough to reach high mIoU in seconds.
    pub fn quick(workers: usize) -> Self {
        let data = DataConfig::default();
        let net = NetConfig {
            height: data.height,
            width: data.width,
            cin: data.channels,
            n_classes: data.n_classes,
            ..NetConfig::default()
        };
        TrainConfig {
            data,
            net,
            workers,
            batch_per_worker: 4,
            steps: 120,
            base_lr: 0.4,
            lr_scale: 1.0,
            warmup_steps: 10,
            momentum: 0.9,
            weight_decay: 0.0,
            accumulation_steps: 1,
            algo: Algorithm::Ring,
            pipeline: false,
            codec: CodecKind::None,
            error_feedback: false,
            augment: false,
            eval_every: 0,
            eval_samples: 32,
            seed: 42,
            faults: None,
            checkpoint: None,
            trace: None,
        }
    }

    /// The learning-rate schedule every replica's optimizer follows.
    pub(crate) fn lr_schedule(&self) -> LrSchedule {
        LrSchedule {
            base_lr: self.base_lr,
            scale: self.lr_scale,
            warmup_steps: self.warmup_steps,
            total_steps: self.steps,
            poly_power: 0.9,
        }
    }

    /// Examples consumed per optimizer update.
    pub fn global_batch(&self) -> usize {
        self.workers * self.batch_per_worker * self.accumulation_steps
    }

    fn check(&self) {
        assert!(self.workers >= 1 && self.batch_per_worker >= 1 && self.steps >= 1);
        assert!(self.accumulation_steps >= 1, "need at least one micro-batch");
        assert!(
            !(self.pipeline && self.faults.is_some()),
            "the pipelined executor does not support fault injection; use the elastic path"
        );
        assert_eq!(self.data.height, self.net.height, "data/net height");
        assert_eq!(self.data.width, self.net.width, "data/net width");
        assert_eq!(self.data.channels, self.net.cin, "data/net channels");
        assert_eq!(self.data.n_classes, self.net.n_classes, "data/net classes");
    }
}

/// One evaluation point on the training curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalPoint {
    pub step: usize,
    pub train_loss: f64,
    pub miou: f64,
    pub pixel_accuracy: f64,
}

/// The result of a training run.
#[derive(Debug, Clone)]
pub struct TrainResult {
    pub curve: Vec<EvalPoint>,
    pub final_miou: f64,
    pub final_pixel_accuracy: f64,
    pub final_params: Vec<f32>,
    /// Mean training loss of every executed step, in order (a resumed
    /// run records only the steps it actually ran).
    pub step_losses: Vec<f64>,
    /// Original worker ids still alive at the end, ascending.
    pub survivors: Vec<usize>,
    /// The deterministic fault-event core (injections, deaths,
    /// degradations, checkpoint lifecycle) — identical on every replay
    /// of the same plan. Empty when `faults` is `None`.
    pub fault_events: Vec<FaultEvent>,
    /// Frozen fault/recovery counters at the end of the run.
    pub fault_counters: FaultCounterSnapshot,
}

/// Evaluate `net` on `n` held-out samples (seed stream disjoint from
/// training data by construction).
pub fn evaluate(net: &SegNet, data: &DataConfig, seed: u64, n: usize) -> Confusion {
    let eval_seed = derive_seed(seed, "eval");
    // One partial per lane; the counts are integers, so the merge order
    // does not matter.
    let k = pool::lanes().min(n).max(1);
    let mut partials = vec![Confusion::new(data.n_classes); k];
    pool::for_each_mut(&mut partials, |c, partial| {
        for i in pool::chunk_range(n, k, c) {
            let s = generate(data, eval_seed, i as u64);
            partial.add(&s.labels, &net.predict(&s.pixels));
        }
    });
    let mut total = Confusion::new(data.n_classes);
    for partial in &partials {
        total.merge(partial);
    }
    total
}

/// Run data-parallel training per `cfg`, panicking on infrastructure
/// failure — the convenience wrapper around [`try_train`].
pub fn train(cfg: &TrainConfig) -> TrainResult {
    try_train(cfg).unwrap_or_else(|e| panic!("{e}"))
}

/// Run data-parallel training per `cfg`.
///
/// All replicas start from the same seed-derived initialization, consume
/// disjoint shards of a common data stream, and stay synchronized by
/// construction; the run asserts replica consistency at the end.
///
/// With `cfg.faults` set, the gradient allreduce goes through the
/// fault-aware path: injected drops/corruptions are recovered
/// bit-exactly, and confirmed rank deaths shrink the run onto the
/// survivors (the dead worker's data shard is lost from that step on —
/// the gradient stays an average over the live world). With
/// `cfg.checkpoint` set, bit-exact snapshots are saved periodically and
/// a run can resume from one identically to never having stopped.
pub fn try_train(cfg: &TrainConfig) -> Result<TrainResult, TrainError> {
    cfg.check();
    let n_params = cfg.net.n_params();

    // Comm lanes are keyed by ORIGINAL worker id (one per configured
    // worker, rank → Chrome pid), so the attribution survives elastic
    // renumbering after deaths, exactly like data sharding does.
    let all_ids: Vec<usize> = (0..cfg.workers).collect();
    let comm_trace: Option<ExecTrace> =
        cfg.trace.as_ref().map(|ts| ExecTrace::comm(&ts.recorder, &all_ids));

    let session: Option<FaultSession> = cfg.faults.as_ref().map(|f| {
        let mut s = FaultSession::new(f.plan.clone()).with_policy(f.policy);
        if let Some(t) = &comm_trace {
            s = s.with_trace(t.clone());
        }
        s
    });

    // Resume: the checkpoint dictates the starting step and the live
    // set (a checkpoint taken after a degradation has holes in it).
    let mut start_step = 0usize;
    let mut live: Vec<usize> = (0..cfg.workers).collect();
    let mut resume_from: Option<Checkpoint> = None;
    if let Some(ck_cfg) = &cfg.checkpoint {
        if ck_cfg.resume && ck_cfg.path.exists() {
            let ck = Checkpoint::load(&ck_cfg.path).map_err(TrainError::Checkpoint)?;
            if ck.params.len() != n_params {
                return Err(TrainError::CheckpointMismatch(format!(
                    "checkpoint holds {} params, net has {n_params}",
                    ck.params.len()
                )));
            }
            if ck.live.is_empty() || ck.live.iter().any(|&id| id >= cfg.workers) {
                return Err(TrainError::CheckpointMismatch(format!(
                    "live set {:?} does not fit a {}-worker config",
                    ck.live, cfg.workers
                )));
            }
            if ck.step > cfg.steps {
                return Err(TrainError::CheckpointMismatch(format!(
                    "checkpoint at step {} is past the configured {} steps",
                    ck.step, cfg.steps
                )));
            }
            start_step = ck.step;
            live = ck.live.clone();
            resume_from = Some(ck);
        }
    }

    let lr = cfg.lr_schedule();
    // Per-worker state persists across steps: model replica, optimizer,
    // reusable gradient workspaces, and a per-worker loss cell. `id` is
    // the worker's *original* rank — data sharding keys off it, so the
    // data stream layout survives degradations and resumes. The
    // allreduce payload buffers (`grads`) are allocated once up front,
    // so the steady-state step performs no heap allocation anywhere in
    // the gradient or allreduce path (see `tests/zero_alloc.rs`).
    struct WorkerState {
        id: usize,
        net: SegNet,
        opt: MomentumSgd,
        bw: BatchWorkspace,
        loss: f64,
        /// Compute lane (pid = original id, tid 0); the lane handle is
        /// resolved once here so the per-step recording never touches
        /// the recorder's registry.
        lane: Option<Lane>,
    }
    let mut workers: Vec<WorkerState> = live
        .iter()
        .map(|&id| WorkerState {
            id,
            net: SegNet::new(cfg.net, derive_seed(cfg.seed, "init")),
            opt: MomentumSgd::new(lr, cfg.momentum, n_params).with_weight_decay(cfg.weight_decay),
            bw: BatchWorkspace::new(&cfg.net),
            loss: 0.0,
            lane: cfg
                .trace
                .as_ref()
                .map(|ts| ts.recorder.lane(id as u32, 0, &format!("rank {id}"), "compute")),
        })
        .collect();
    if let Some(ck) = &resume_from {
        // All replicas are identical by the synchronous-SGD invariant,
        // so one saved copy restores every survivor bit-exactly.
        for state in workers.iter_mut() {
            state.net.params_mut().copy_from_slice(&ck.params);
            state.opt.restore(ck.opt_step, &ck.velocity);
        }
        if let Some(s) = &session {
            s.record(FaultEvent::CheckpointRestore { step: ck.step });
        }
    }
    let mut grads: Vec<Vec<f32>> = vec![vec![0.0f32; n_params]; workers.len()];
    // Persistent elastic executor: it owns the schedule, the verifier
    // gate, and the pooled payload buffers, and rebuilds all three over
    // the survivors when a rank dies mid-collective.
    let mut ela = ElasticAllreduce::with_live(cfg.algo, live, n_params).map_err(|e| match e {
        ElasticError::Rejected(v) => TrainError::Verification(v),
        other => TrainError::Elastic(other),
    })?;
    if let Some(t) = &comm_trace {
        ela.set_trace(t.clone());
    }
    // Metric handles are resolved once: per-step updates are pure
    // atomics, no registry lookups (and no allocation) on the hot path.
    let metrics = cfg.trace.as_ref().map(|ts| {
        (
            ts.registry.counter("train_steps_total"),
            ts.registry.histogram("train_step_seconds"),
            ts.registry.histogram("train_allreduce_seconds"),
            ts.registry.gauge("train_last_loss"),
        )
    });
    // Wire-byte ledger: what each step's gradient exchange costs on the
    // wire under the configured codec, vs the raw fp32 bytes it stands
    // in for (one payload per live worker per step).
    let codec = cfg.codec;
    let wire_metrics = cfg.trace.as_ref().map(|ts| {
        (
            ts.registry.counter("train_wire_bytes_total"),
            ts.registry.counter("train_raw_bytes_total"),
        )
    });
    // Persistent codec state for the classic path: per-worker fp32
    // error-feedback residuals and one reusable encode scratch
    // (compression is serial there). Allocated once, so the step path
    // stays allocation-free.
    let mut ef_states: Vec<ErrorFeedback> = if cfg.error_feedback && codec.is_lossy() {
        (0..workers.len()).map(|_| ErrorFeedback::new(n_params)).collect()
    } else {
        Vec::new()
    };
    let mut codec_scratch = EncodeScratch::new();
    codec_scratch.reserve(codec, n_params);

    // Layer-pipelined executor (opt-in via `cfg.pipeline`): backprop is
    // split into per-layer phases on a work-stealing core pool and each
    // layer's gradient tile is reduced across replicas the moment it is
    // ready, overlapping the "allreduce" with the remaining backward
    // work. Fault injection needs the elastic path, so the two are
    // mutually exclusive (checked in `check()`).
    let mut pipe = if cfg.pipeline {
        let mut ex = super::pipeline::PipelineExecutor::new(
            &cfg.net,
            workers.len(),
            cfg.batch_per_worker,
            cfg.accumulation_steps,
            pool::lanes(),
        );
        if let Some(ts) = &cfg.trace {
            ex.attach_trace(&ts.recorder);
        }
        Some(ex)
    } else {
        None
    };
    let mut pipe_shards: Vec<Vec<super::segdata::Sample>> = Vec::new();

    let mut curve = Vec::new();
    let mut step_losses = Vec::with_capacity(cfg.steps - start_step);
    let mut last_loss = f64::NAN;
    for step in start_step..cfg.steps {
        let step_t0 = Instant::now();
        if let Some(s) = &session {
            s.begin_step(step);
        }
        if let Some(exec) = pipe.as_mut() {
            // Pipelined step: generate the same shards the classic path
            // would (identical seed addressing), micro-batch major, then
            // hand compute + reduction + update to the executor.
            pipe_shards.clear();
            for state in workers.iter() {
                let mut shard = Vec::with_capacity(cfg.accumulation_steps * cfg.batch_per_worker);
                for m in 0..cfg.accumulation_steps {
                    shard.append(&mut micro_batch(cfg, state.id, step, m));
                }
                pipe_shards.push(shard);
            }
            last_loss = exec.step(
                workers.iter_mut().map(|w| (&mut w.net, &mut w.opt)),
                &pipe_shards,
                codec,
                cfg.error_feedback,
            );
            for (state, &l) in workers.iter_mut().zip(exec.losses()) {
                state.loss = l;
            }
            if let Some((_, _, ar_hist, _)) = &metrics {
                ar_hist.observe(exec.last_reduce_seconds());
            }
            step_losses.push(last_loss);
        } else {
            // Gradient computation: workers fan out over the shared core
            // pool; with more than one worker the per-sample fan-out
            // inside each finds the pool busy and folds its slots in
            // line. Each worker accumulates straight into its persistent
            // allreduce buffer.
            pool::for_each_zip_mut(&mut workers, &mut grads, |_, state, acc| {
                let t0 = state.lane.as_ref().map(Lane::now_us);
                state.loss =
                    local_mean_gradient(cfg, state.id, step, &state.net, &mut state.bw, acc);
                if let (Some(l), Some(t0)) = (state.lane.as_ref(), t0) {
                    // Forward and backward are fused in batch_loss_grad_ws,
                    // so one span covers both halves of the compute phase.
                    l.record_args(
                        "BACKWARD",
                        "forward+backward",
                        t0,
                        l.now_us() - t0,
                        step as u64,
                        cfg.accumulation_steps as u64,
                    );
                }
            });
            last_loss = workers.iter().map(|s| s.loss).sum::<f64>() / workers.len() as f64;
            // `ef_states` is empty without error feedback: `next()` then
            // hands every worker the plain roundtrip.
            let mut efs = ef_states.iter_mut();
            for g in grads.iter_mut() {
                apply_wire_codec(codec, efs.next(), g, &mut codec_scratch);
            }

            // The real allreduce: gradients cross threads through the same
            // schedules the timing simulation measures, averaging in place.
            // With a fault session, drops/corruptions are injected and
            // recovered and rank deaths degrade the topology onto the
            // survivors; without one, the same executor runs undisturbed.
            let ar_t0 = Instant::now();
            let report = ela
                .allreduce(&mut grads, ReduceOp::Average, session.as_ref())
                .map_err(TrainError::Elastic)?;
            if let Some((_, _, ar_hist, _)) = &metrics {
                ar_hist.observe(ar_t0.elapsed().as_secs_f64());
            }
            if report.degraded() {
                // The elastic layer already removed the dead ranks' gradient
                // buffers; drop the matching worker replicas (and their
                // error-feedback residuals, which are positional).
                if !ef_states.is_empty() {
                    let keep: Vec<bool> =
                        workers.iter().map(|w| !report.dead.contains(&w.id)).collect();
                    let mut it = keep.iter();
                    ef_states.retain(|_| *it.next().unwrap_or(&false)); // lint: allow(unwrap): keep mask built from the same workers vec, one entry per state
                }
                workers.retain(|w| !report.dead.contains(&w.id));
                debug_assert_eq!(workers.len(), grads.len());
            }

            pool::for_each_mut(&mut workers, |w, state| {
                let t0 = state.lane.as_ref().map(Lane::now_us);
                state.opt.apply(state.net.params_mut(), &grads[w]);
                if let (Some(l), Some(t0)) = (state.lane.as_ref(), t0) {
                    l.record_args("OPTIMIZER", "apply", t0, l.now_us() - t0, step as u64, 0);
                }
            });
            step_losses.push(last_loss);
        }

        let mut halt = false;
        if let Some(ck_cfg) = &cfg.checkpoint {
            if ck_cfg.every > 0 && (step + 1) % ck_cfg.every == 0 {
                let ck_t0 = workers[0].lane.as_ref().map(Lane::now_us);
                let ck = Checkpoint {
                    step: step + 1,
                    live: workers.iter().map(|w| w.id).collect(),
                    opt_step: workers[0].opt.step_index(),
                    params: workers[0].net.params().to_vec(),
                    velocity: workers[0].opt.velocity().to_vec(),
                };
                ck.save(&ck_cfg.path).map_err(TrainError::Checkpoint)?;
                if let (Some(l), Some(t0)) = (workers[0].lane.as_ref(), ck_t0) {
                    l.record_args("CHECKPOINT", "save", t0, l.now_us() - t0, (step + 1) as u64, 0);
                }
                if let Some(s) = &session {
                    s.record(FaultEvent::CheckpointSave { step: step + 1 });
                }
            }
            halt = ck_cfg.halt_after == Some(step + 1);
        }

        if cfg.eval_every > 0 && (step + 1) % cfg.eval_every == 0 {
            let conf = evaluate(&workers[0].net, &cfg.data, cfg.seed, cfg.eval_samples);
            curve.push(EvalPoint {
                step: step + 1,
                train_loss: last_loss,
                miou: conf.miou(),
                pixel_accuracy: conf.pixel_accuracy(),
            });
        }
        if let Some((steps_total, step_hist, _, loss_gauge)) = &metrics {
            steps_total.inc();
            step_hist.observe(step_t0.elapsed().as_secs_f64());
            loss_gauge.set(last_loss);
        }
        if let Some((wire_ctr, raw_ctr)) = &wire_metrics {
            let payloads = workers.len() as u64;
            wire_ctr.add(codec.encoded_len(n_params) as u64 * payloads);
            raw_ctr.add(4 * n_params as u64 * payloads);
        }
        if halt {
            break;
        }
    }

    // Replica-consistency invariant of synchronous data-parallel SGD —
    // it must hold across the survivors even after degradations.
    let reference = workers[0].net.params().to_vec();
    for state in workers.iter().skip(1) {
        let p = state.net.params();
        let max_dev = reference.iter().zip(p).map(|(a, b)| (a - b).abs()).fold(0.0f32, f32::max);
        assert!(max_dev == 0.0, "replica {} diverged by {max_dev}", state.id);
    }

    let conf = evaluate(&workers[0].net, &cfg.data, cfg.seed, cfg.eval_samples);
    let final_point = EvalPoint {
        step: cfg.steps,
        train_loss: last_loss,
        miou: conf.miou(),
        pixel_accuracy: conf.pixel_accuracy(),
    };
    if curve.last().map(|p| p.step) != Some(cfg.steps) {
        curve.push(final_point);
    }
    let (fault_events, fault_counters) = match &session {
        Some(s) => (s.events().deterministic_core(), s.counters().snapshot()),
        None => (Vec::new(), FaultCounterSnapshot::default()),
    };
    Ok(TrainResult {
        curve,
        final_miou: final_point.miou,
        final_pixel_accuracy: final_point.pixel_accuracy,
        final_params: reference,
        step_losses,
        survivors: workers.iter().map(|w| w.id).collect(),
        fault_events,
        fault_counters,
    })
}

/// Micro-batch `m` of worker `orig_rank`'s shard at `step`. Addressing
/// uses the ORIGINAL world layout (`cfg.workers` and the worker's
/// original id), so each survivor keeps its own slice of the data
/// stream no matter who else has died.
fn micro_batch(cfg: &TrainConfig, orig_rank: usize, step: usize, m: usize) -> Vec<Sample> {
    let micro = cfg.workers * cfg.batch_per_worker;
    let base = (step * cfg.global_batch() + m * micro + orig_rank * cfg.batch_per_worker) as u64;
    let mut shard = generate_batch(&cfg.data, cfg.seed, base, cfg.batch_per_worker);
    if cfg.augment {
        for (i, s) in shard.iter_mut().enumerate() {
            *s = augment(&cfg.data, s, cfg.seed, base + i as u64);
        }
    }
    shard
}

/// One worker's gradient for `step`: accumulate its
/// `cfg.accumulation_steps` micro-batches into `acc` and scale to their
/// mean. Returns the mean loss. The one definition both the threaded
/// classic path and [`run_worker`](super::worker::run_worker) compute —
/// which is what makes the two bit-identical.
pub(crate) fn local_mean_gradient(
    cfg: &TrainConfig,
    orig_rank: usize,
    step: usize,
    net: &SegNet,
    bw: &mut BatchWorkspace,
    acc: &mut [f32],
) -> f64 {
    let mut loss_sum = 0.0f64;
    acc.fill(0.0);
    for m in 0..cfg.accumulation_steps {
        loss_sum += net.batch_loss_grad_ws(&micro_batch(cfg, orig_rank, step, m), bw);
        for (a, gi) in acc.iter_mut().zip(&bw.grad) {
            *a += gi;
        }
    }
    let inv = 1.0 / cfg.accumulation_steps as f32;
    acc.iter_mut().for_each(|a| *a *= inv);
    loss_sum / cfg.accumulation_steps as f64
}

/// Apply the wire codec to one worker's local-mean gradient in place
/// (the averaging itself stays fp32), error-feedback compensated when
/// `ef` is given.
pub(crate) fn apply_wire_codec(
    codec: CodecKind,
    ef: Option<&mut ErrorFeedback>,
    grad: &mut [f32],
    scratch: &mut EncodeScratch,
) {
    if !codec.is_lossy() {
        return;
    }
    match ef {
        Some(ef) => ef.roundtrip(codec, grad, scratch),
        None => compression::roundtrip(codec, grad, scratch),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A config small enough for debug-mode tests.
    fn tiny(workers: usize, steps: usize) -> TrainConfig {
        let data = DataConfig { height: 10, width: 10, ..DataConfig::default() };
        let net =
            NetConfig { height: 10, width: 10, cin: 3, hidden1: 4, hidden2: 6, n_classes: 4, k: 3 };
        TrainConfig {
            data,
            net,
            workers,
            batch_per_worker: 2,
            steps,
            base_lr: 0.4,
            lr_scale: 1.0,
            warmup_steps: 5,
            momentum: 0.9,
            weight_decay: 0.0,
            accumulation_steps: 1,
            algo: Algorithm::Ring,
            pipeline: false,
            codec: CodecKind::None,
            error_feedback: false,
            augment: false,
            eval_every: 0,
            eval_samples: 16,
            seed: 42,
            faults: None,
            checkpoint: None,
            trace: None,
        }
    }

    #[test]
    fn training_learns_something() {
        let r = train(&tiny(2, 40));
        assert!(
            r.final_miou > 0.5,
            "after 40 steps mIoU should clear 0.5, got {:.3}",
            r.final_miou
        );
        assert!(r.final_pixel_accuracy > 0.7);
    }

    #[test]
    fn curve_is_recorded() {
        let mut cfg = tiny(2, 20);
        cfg.eval_every = 10;
        let r = train(&cfg);
        assert_eq!(r.curve.len(), 2);
        assert_eq!(r.curve[0].step, 10);
        assert_eq!(r.curve[1].step, 20);
    }

    #[test]
    fn distributed_matches_serial_with_same_global_batch() {
        // 1 × 4 vs 4 × 1: identical data, identical math up to FP order.
        let mut serial = tiny(1, 25);
        serial.batch_per_worker = 4;
        let mut dist = tiny(4, 25);
        dist.batch_per_worker = 1;
        let a = train(&serial);
        let b = train(&dist);
        let max_dev = a
            .final_params
            .iter()
            .zip(&b.final_params)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0f32, f32::max);
        assert!(max_dev < 2e-2, "parameter deviation {max_dev}");
        assert!(
            (a.final_miou - b.final_miou).abs() < 0.05,
            "serial {:.3} vs distributed {:.3}",
            a.final_miou,
            b.final_miou
        );
    }

    #[test]
    fn different_allreduce_algorithms_agree() {
        let base = tiny(4, 15);
        let ring = train(&base);
        let mut rd = base.clone();
        rd.algo = Algorithm::RecursiveDoubling;
        let rd = train(&rd);
        // Combine orders differ, so allow tiny FP drift.
        let max_dev = ring
            .final_params
            .iter()
            .zip(&rd.final_params)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0f32, f32::max);
        assert!(max_dev < 2e-2, "ring vs recursive-doubling deviation {max_dev}");
    }

    #[test]
    fn run_is_deterministic() {
        let a = train(&tiny(2, 10));
        let b = train(&tiny(2, 10));
        assert_eq!(a.final_params, b.final_params);
        assert_eq!(a.final_miou, b.final_miou);
    }

    #[test]
    fn fp16_gradients_barely_move_the_result() {
        let base = train(&tiny(2, 30));
        let mut c = tiny(2, 30);
        c.codec = CodecKind::Fp16;
        let fp16 = train(&c);
        assert!(
            (base.final_miou - fp16.final_miou).abs() < 0.08,
            "fp16 compression: mIoU {:.3} vs {:.3}",
            fp16.final_miou,
            base.final_miou
        );
        // But the parameters must actually differ (compression happened).
        assert_ne!(base.final_params, fp16.final_params);
    }

    #[test]
    fn int4_error_feedback_reaches_fp32_baseline_loss() {
        // The error-feedback convergence claim: int4 is far too lossy to
        // train well bare, but with the fp32 residual accumulator the
        // run reaches the fp32 baseline's final loss and mIoU.
        let base = train(&tiny(2, 30));
        let mut c = tiny(2, 30);
        c.codec = CodecKind::Int4;
        c.error_feedback = true;
        let ef = train(&c);
        let tail = |r: &TrainResult| {
            let n = r.step_losses.len();
            r.step_losses[n - 5..].iter().sum::<f64>() / 5.0
        };
        assert!(
            tail(&ef) <= tail(&base) * 1.15 + 0.02,
            "int4+EF tail loss {:.4} must reach fp32 baseline {:.4}",
            tail(&ef),
            tail(&base)
        );
        assert!(
            (base.final_miou - ef.final_miou).abs() < 0.08,
            "int4+EF mIoU {:.3} vs fp32 {:.3}",
            ef.final_miou,
            base.final_miou
        );
        // And the compression really happened.
        assert_ne!(base.final_params, ef.final_params);
    }

    #[test]
    fn codec_runs_are_deterministic_and_lossy() {
        for codec in [CodecKind::Int8, CodecKind::TopK] {
            let mut c = tiny(2, 10);
            c.codec = codec;
            c.error_feedback = true;
            let a = train(&c);
            let b = train(&c);
            assert_eq!(a.final_params, b.final_params, "{codec}: codec run must be deterministic");
            let plain = train(&tiny(2, 10));
            assert_ne!(plain.final_params, a.final_params, "{codec}: codec must change the bits");
        }
    }

    #[test]
    fn pipelined_compressed_run_is_deterministic() {
        // The pipelined executor with a quantizing codec + error
        // feedback: bit-identical across repeated runs (per-tile scratch
        // and fixed fold order keep scheduling out of the numbers).
        let mut cfg = tiny(2, 8);
        cfg.pipeline = true;
        cfg.codec = CodecKind::Int8;
        cfg.error_feedback = true;
        cfg.accumulation_steps = 2;
        let a = train(&cfg);
        let b = train(&cfg);
        assert_eq!(a.final_params, b.final_params);
        assert_eq!(a.final_miou, b.final_miou);
        // And it matches the classic path's math to reassociation tolerance.
        let mut classic = cfg.clone();
        classic.pipeline = false;
        let c = train(&classic);
        let max_dev = a
            .final_params
            .iter()
            .zip(&c.final_params)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0f32, f32::max);
        assert!(max_dev < 5e-2, "pipelined vs classic int8+EF deviation {max_dev}");
    }

    #[test]
    fn wire_byte_counters_record_codec_reduction() {
        let mut cfg = tiny(2, 4);
        cfg.codec = CodecKind::Int8;
        let ts = Arc::new(TraceSession::new());
        cfg.trace = Some(ts.clone());
        train(&cfg);
        let m = ts.registry.snapshot();
        let get =
            |name: &str| m.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v).unwrap_or(0);
        let wire = get("train_wire_bytes_total");
        let raw = get("train_raw_bytes_total");
        let n_params = cfg.net.n_params();
        assert_eq!(raw, 4 * n_params as u64 * 2 * 4, "raw = 4B x params x workers x steps");
        assert_eq!(
            wire,
            CodecKind::Int8.encoded_len(n_params) as u64 * 2 * 4,
            "wire = encoded_len x workers x steps"
        );
        assert!(raw as f64 / wire as f64 >= 3.5, "int8 must log >= 3.5x reduction");
    }

    #[test]
    fn augmentation_keeps_parity_and_learning() {
        let mut a = tiny(2, 30);
        a.augment = true;
        let r = train(&a);
        assert!(r.final_miou > 0.4, "augmented run learns: {:.3}", r.final_miou);
        // Parity across worker splits still holds (same augmented stream).
        let mut serial = a.clone();
        serial.workers = 1;
        serial.batch_per_worker = 4;
        let mut dist = a;
        dist.workers = 4;
        dist.batch_per_worker = 1;
        let rs = train(&serial);
        let rd = train(&dist);
        let dev = rs
            .final_params
            .iter()
            .zip(&rd.final_params)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0f32, f32::max);
        assert!(dev < 2e-2, "augmented parity deviation {dev}");
    }

    #[test]
    fn gradient_accumulation_equals_bigger_batch() {
        // 2 workers x batch 1 x 2 accumulation steps consumes the same
        // examples, in the same grouping, as 2 workers x batch 2... not
        // quite: accumulation interleaves micro-batches across workers.
        // The exact equivalence is: accumulation over k micro-batches of
        // the same shard layout == one update from the mean gradient, so
        // compare against a run whose data stream is constructed to
        // match. Here we check the strong invariants instead: the
        // accumulated run is deterministic, consumes k x the data, and
        // still converges to the same quality.
        let mut acc = tiny(2, 20);
        acc.accumulation_steps = 2;
        let a1 = train(&acc);
        let a2 = train(&acc);
        assert_eq!(a1.final_params, a2.final_params, "deterministic");
        assert_eq!(acc.global_batch(), 8);
        let base = train(&tiny(2, 20));
        assert!(
            (a1.final_miou - base.final_miou).abs() < 0.3,
            "accumulated {:.3} vs base {:.3}",
            a1.final_miou,
            base.final_miou
        );
    }

    #[test]
    fn weight_decay_shrinks_weight_norm() {
        let mut wd = tiny(1, 25);
        wd.weight_decay = 5e-2;
        let with = train(&wd);
        let without = train(&tiny(1, 25));
        let norm = |p: &[f32]| p.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!(
            norm(&with.final_params) < norm(&without.final_params),
            "decay must shrink the weights: {} vs {}",
            norm(&with.final_params),
            norm(&without.final_params)
        );
    }

    #[test]
    fn single_worker_works() {
        let r = train(&tiny(1, 10));
        assert!(r.final_miou > 0.0);
    }

    #[test]
    fn evaluation_is_held_out() {
        // Eval stream differs from train stream: mIoU on eval should not
        // be exactly the train confusion (weak check: just ensure the
        // eval seed derivation changes data).
        let cfg = tiny(1, 1);
        let train_sample = generate(&cfg.data, cfg.seed, 0);
        let eval_seed = derive_seed(cfg.seed, "eval");
        let eval_sample = generate(&cfg.data, eval_seed, 0);
        assert_ne!(train_sample.labels, eval_sample.labels);
    }

    #[test]
    fn traced_run_records_spans_and_metrics() {
        let mut cfg = tiny(2, 4);
        let ts = Arc::new(TraceSession::new());
        cfg.trace = Some(ts.clone());
        let traced = train(&cfg);
        // Observability is read-only: the result is bit-identical to an
        // untraced run.
        let plain = train(&tiny(2, 4));
        assert_eq!(traced.final_params, plain.final_params);

        let events = ts.recorder.to_chrome_events();
        let mut pids: Vec<u32> = events.iter().filter(|e| e.ph == 'X').map(|e| e.pid).collect();
        pids.sort_unstable();
        pids.dedup();
        assert_eq!(pids, vec![0, 1], "one pid per worker");
        for cat in ["BACKWARD", "OPTIMIZER", "SEND", "RECV"] {
            assert!(events.iter().any(|e| e.cat == cat), "missing {cat} spans");
        }
        let m = ts.registry.snapshot();
        assert!(m.counters.contains(&("train_steps_total".to_string(), 4)));
        let (_, step_hist) =
            m.histograms.iter().find(|(n, _)| n == "train_step_seconds").expect("hist");
        assert_eq!(step_hist.count, 4);
    }

    #[test]
    #[should_panic(expected = "data/net")]
    fn mismatched_config_rejected() {
        let mut cfg = tiny(1, 1);
        cfg.net.height = 12;
        train(&cfg);
    }

    #[test]
    fn pipelined_run_matches_classic() {
        // Same data stream, same updates — the pipelined executor only
        // reorders the floating-point combination, so the runs agree to
        // the same tolerance the allreduce-algorithm comparison uses.
        let classic = train(&tiny(3, 25));
        let mut p = tiny(3, 25);
        p.pipeline = true;
        let piped = train(&p);
        let max_dev = classic
            .final_params
            .iter()
            .zip(&piped.final_params)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0f32, f32::max);
        assert!(max_dev < 2e-2, "classic vs pipelined deviation {max_dev}");
        assert!(
            (classic.final_miou - piped.final_miou).abs() < 0.05,
            "classic {:.3} vs pipelined {:.3}",
            classic.final_miou,
            piped.final_miou
        );
        assert!(piped.final_miou > 0.25, "pipelined run learns: {:.3}", piped.final_miou);
    }

    #[test]
    fn pipelined_run_is_deterministic() {
        let mut cfg = tiny(2, 10);
        cfg.pipeline = true;
        cfg.accumulation_steps = 2;
        cfg.codec = CodecKind::Fp16;
        let a = train(&cfg);
        let b = train(&cfg);
        assert_eq!(a.final_params, b.final_params);
        assert_eq!(a.final_miou, b.final_miou);
    }

    #[test]
    fn pipelined_traced_run_records_pipeline_spans() {
        let mut cfg = tiny(2, 3);
        cfg.pipeline = true;
        let ts = Arc::new(TraceSession::new());
        cfg.trace = Some(ts.clone());
        let traced = train(&cfg);
        let plain = train(&{
            let mut c = tiny(2, 3);
            c.pipeline = true;
            c
        });
        assert_eq!(traced.final_params, plain.final_params, "tracing is read-only");

        // The executor records on pid-900 lanes, one tid per pool worker.
        let events = ts.recorder.to_chrome_events();
        let pipe: Vec<_> = events.iter().filter(|e| e.pid == 900 && e.ph == 'X').collect();
        assert!(!pipe.is_empty(), "pipeline lanes recorded nothing");
        for cat in ["FORWARD", "BACKWARD", "MPI_ALLREDUCE", "OPTIMIZER"] {
            assert!(pipe.iter().any(|e| e.cat == cat), "missing {cat} spans on pipeline lanes");
        }
        // Step/metrics plumbing is shared with the classic path.
        let m = ts.registry.snapshot();
        assert!(m.counters.contains(&("train_steps_total".to_string(), 3)));
        let (_, ar_hist) =
            m.histograms.iter().find(|(n, _)| n == "train_allreduce_seconds").expect("hist");
        assert_eq!(ar_hist.count, 3, "one tile-reduce observation per step");
    }
}
