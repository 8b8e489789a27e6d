//! Data-parallel training with *real* gradients over *real* allreduce.
//!
//! Every replica owns a model and an optimizer; every step the replicas
//! compute gradients on disjoint shards of the global batch, average
//! them with a genuine allreduce (the same algorithm schedules the
//! simulator times — see [`collectives::exec_peer`]), and apply
//! identical updates. This is the accuracy half of the reproduction:
//! claim C6's substance is that synchronous gradient averaging matches
//! serial training's mIoU.
//!
//! [`try_train`] runs the job in this process as N copies of the one
//! rank body, [`run_worker`] — the very loop `dist_train` runs once per
//! process — on the lanes of one pool, over an in-process channel mesh,
//! under the same commit coordinator ([`commit::coordinate`]) over the
//! same socket control streams, one `socketpair` per rank. Threads and
//! processes therefore share one training loop, one degrade protocol
//! and one control transport. The layer-pipelined
//! executor (`cfg.pipeline`) keeps a step loop of its own, which keeps
//! its books through the same `Ledger`.

use std::fmt;
use std::mem;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use collectives::compression::CodecKind;
use collectives::pool::{self, CorePool};
use collectives::{Algorithm, ExecTrace, FaultSession, FaultWire, PeerExecError, Violation};
use faults::{FaultCounterSnapshot, FaultEvent, FaultKind, FaultPlan, Injection, RetryPolicy};
use summit_metrics::rng::derive_seed;
use trace::{Counter, Gauge, Histogram, Lane, TraceSession};
use transport::{ChannelWire, Inbox, PeerConn, Wire};

use super::checkpoint::{Checkpoint, CheckpointError};
use super::commit::{self, Coordinator};
use super::miou::Confusion;
use super::net::{NetConfig, SegNet};
use super::segdata::{augment, generate, generate_batch, DataConfig, Sample};
use super::sgd::{LrSchedule, MomentumSgd};
use super::worker::{compute_lane, run_worker, WorkerOutcome};

/// Fault-injection knobs for a chaos run. Absent (`TrainConfig::faults
/// = None`) the ranks run with no injector and no deadlines.
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

/// Why a training run — or one rank of it — failed (as a value: the
/// trainer does not panic on infrastructure faults).
#[derive(Debug)]
pub enum TrainError {
    /// The gradient allreduce schedule (the initial one, or one rebuilt
    /// over the survivors) failed static verification.
    Verification(Vec<Violation>),
    /// A rank's peer executor failed unrecoverably.
    Exec(PeerExecError),
    /// The commit protocol broke down (coordinator gone or insane).
    Protocol(String),
    /// Every worker died; nobody holds a result.
    AllRanksDead,
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
            TrainError::Exec(e) => write!(f, "peer executor failed: {e}"),
            TrainError::Protocol(why) => write!(f, "commit protocol failed: {why}"),
            TrainError::AllRanksDead => write!(f, "every worker died; no survivors"),
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
    /// Mutually exclusive with `faults` — chaos runs need the rank
    /// bodies and their commit protocol.
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
    /// Fault-injection session for chaos runs (`None` ⇒ no injector and
    /// no deadlines; the numbers are the same either way).
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

    /// True when the run stops right after `step` (a simulated crash).
    pub(crate) fn halts_after(&self, step: usize) -> bool {
        self.checkpoint.as_ref().is_some_and(|ck| ck.halt_after == Some(step + 1))
    }

    fn check(&self) {
        assert!(self.workers >= 1 && self.batch_per_worker >= 1 && self.steps >= 1);
        assert!(self.accumulation_steps >= 1, "need at least one micro-batch");
        assert!(
            !(self.pipeline && self.faults.is_some()),
            "the pipelined executor does not support fault injection; use the rank bodies"
        );
        if let Some((i, c)) = self.faults.as_ref().and_then(|f| crash_step_company(&f.plan)) {
            panic!(
                "fault plan: {i:?} shares step {} with {c:?}; a step someone dies in may hold \
                 nothing else, or only round-0 crashes",
                i.step
            );
        }
        assert_eq!(self.data.height, self.net.height, "data/net height");
        assert_eq!(self.data.width, self.net.width, "data/net width");
        assert_eq!(self.data.channels, self.net.cin, "data/net channels");
        assert_eq!(self.data.n_classes, self.net.n_classes, "data/net classes");
    }
}

/// An injection of `plan` that shares its step with crash `c` and that a
/// training run could not replay, as `(injection, c)`. The coordinator
/// aborts a step someone dies in wherever its `Degrade` finds each
/// survivor — a point thread timing sets — and the survivors re-run it,
/// so whether anything else in that step fires, and how often, would be
/// timing too. Round-0 crashes may share a step: every rank enters
/// round 0 of the step's first attempt before it can see a `Degrade`.
fn crash_step_company(plan: &FaultPlan) -> Option<(Injection, Injection)> {
    let all = plan.injections();
    let round0_crash = |i: &Injection| i.kind == FaultKind::Crash && i.round == 0;
    all.iter()
        .filter(|c| c.kind == FaultKind::Crash)
        .flat_map(|c| {
            all.iter().filter(move |i| i.step == c.step && *i != c).map(move |i| (*i, *c))
        })
        .find(|(i, c)| !(round0_crash(i) && round0_crash(c)))
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
    /// Mean training loss of every executed step over the ranks that
    /// committed it, in order (a resumed run records only the steps it
    /// actually ran).
    pub step_losses: Vec<f64>,
    /// Original worker ids still alive at the end, ascending.
    pub survivors: Vec<usize>,
    /// The deterministic fault-event core (injections, degradations,
    /// checkpoint lifecycle) — identical on every replay of the same
    /// plan. Empty when `faults` is `None`.
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
/// With `cfg.faults` set, every rank's link runs behind a `FaultWire`:
/// injected drops/corruptions are recovered bit-exactly, and an injected
/// crash hangs its rank up, so the coordinator degrades the run onto the
/// survivors exactly as `dist_train` does on a SIGKILL (the dead
/// worker's data shard is lost from that step on — the gradient stays
/// an average over the live world). A plan that puts anything but
/// round-0 crashes into a step some rank crashes in is refused as a
/// misconfiguration: it could not replay. With `cfg.checkpoint` set,
/// bit-exact snapshots are saved periodically and a run can resume from
/// one identically to never having stopped.
pub fn try_train(cfg: &TrainConfig) -> Result<TrainResult, TrainError> {
    cfg.check();
    // Resume: the checkpoint dictates the starting step and the live
    // set (a checkpoint taken after a degradation has holes in it).
    let resume = resume_point(cfg)?;
    if cfg.pipeline {
        return train_pipelined(cfg, resume);
    }
    let (start, live) = resume.map_or((0, (0..cfg.workers).collect()), |ck| (ck.step, ck.live));

    // One fault log for the whole run. Comm lanes are keyed by ORIGINAL
    // worker id (rank → Chrome pid), so the attribution survives
    // degradations.
    let session: Option<FaultSession> = cfg.faults.as_ref().map(|f| {
        let s = FaultSession::new(f.plan.clone()).with_policy(f.policy);
        match &cfg.trace {
            Some(ts) => s.with_trace(ExecTrace::comm(&ts.recorder, &live)),
            None => s,
        }
    });

    let ranks = launch(cfg, &live, session.as_ref())?;
    let Some(first) = ranks.iter().find(|o| !o.killed) else {
        return Err(TrainError::AllRanksDead);
    };
    // A step's loss is the mean over the ranks that committed it,
    // summed in rank order; a killed rank committed a prefix of the run.
    let step_losses: Vec<f64> = (0..first.step_losses.len())
        .map(|k| {
            let at: Vec<f64> = ranks.iter().filter_map(|o| o.step_losses.get(k)).copied().collect();
            at.iter().sum::<f64>() / at.len() as f64
        })
        .collect();
    // Leaders come and go with deaths; each kept the eval points of the
    // steps it led. A rank knows its own loss: the curve carries the
    // step's mean.
    let mut curve: Vec<EvalPoint> = ranks.iter().flat_map(|o| o.curve.iter().copied()).collect();
    curve.sort_by_key(|p| p.step);
    for p in &mut curve {
        p.train_loss = step_losses[p.step - 1 - start];
    }
    let replicas =
        ranks.into_iter().filter(|o| !o.killed).map(|o| (o.rank, o.final_params)).collect();
    Ok(finish(cfg, replicas, step_losses, curve, session.as_ref()))
}

/// Run `live`'s rank bodies and their coordinator in this process: lane
/// `i` of one pool runs rank `live[i]`'s [`run_worker`] over its
/// endpoint of an in-process channel mesh — behind a [`FaultWire`] in a
/// chaos run — and its end of a `socketpair` to the coordinator; the
/// last lane runs [`commit::coordinate`] over the other ends, parked in
/// the inbox's `poll` between arrivals. No thread is spawned beyond the
/// pool's lanes and no control stream has a heartbeat: under a patient
/// policy silence condemns no one, and death is a hang-up and an EOF.
/// Several rank bodies fold their own fan-outs inline
/// ([`pool::fold_inline`]), so N ranks are N compute threads; a lone
/// one leaves them to the shared pool, whose other lanes would idle.
/// Returns every rank's outcome, in `live` order, or the first failure
/// (the coordinator's before any rank's).
fn launch(
    cfg: &TrainConfig,
    live: &[usize],
    session: Option<&FaultSession>,
) -> Result<Vec<WorkerOutcome>, TrainError> {
    /// One lane's work, and where it leaves its result.
    enum Job {
        /// A rank body: its endpoint of the mesh (kept until every lane
        /// is done, so a send to a rank that died still lands) and the
        /// worker end of its control stream (dropped when the body
        /// returns: the EOF a dead rank is degraded on).
        Rank {
            wire: ChannelWire,
            ctl: Option<Box<PeerConn>>,
            outcome: Result<WorkerOutcome, TrainError>,
        },
        /// The coordinator over the other ends, indexed by original id.
        Coordinator { conns: Vec<Option<PeerConn>>, outcome: Result<(), String> },
    }

    let inbox = Inbox::sockets();
    // The coordinator signs as no worker's id, as `dist_train`'s does.
    let me = cfg.workers;
    let mut conns: Vec<Option<PeerConn>> = (0..cfg.workers).map(|_| None).collect();
    let mut jobs: Vec<Job> = Vec::with_capacity(live.len() + 1);
    for wire in ChannelWire::mesh_of(live) {
        let rank = wire.rank();
        let (worker_end, coordinator_end) = UnixStream::pair().map_err(control_stream)?;
        let ctl = PeerConn::solo(me, rank, worker_end, None).map_err(control_stream)?;
        conns[rank] = Some(
            PeerConn::solo_into(rank, me, coordinator_end, None, &inbox).map_err(control_stream)?,
        );
        let outcome = Err(TrainError::Protocol("rank lane never ran".into()));
        jobs.push(Job::Rank { wire, ctl: Some(Box::new(ctl)), outcome });
    }
    jobs.push(Job::Coordinator { conns, outcome: Ok(()) });

    // The control plane needs no deadline in-process: a rank that stops
    // drops its control end, and that EOF is the only death there is.
    let control = RetryPolicy::patient();
    let policy = session.map_or_else(RetryPolicy::patient, FaultSession::policy);
    let fold = live.len() > 1;
    CorePool::new(jobs.len()).run_each(&mut jobs, |_, job| match job {
        Job::Rank { wire, ctl, outcome } => {
            let Some(ctl) = ctl.take() else { return };
            *outcome = pool::fold_inline(fold, || {
                let faulty = session.map(|s| FaultWire::new(&*wire, s));
                let link: &dyn Wire = match &faulty {
                    Some(faulty) => faulty,
                    None => &*wire,
                };
                commit::join_barrier(&ctl, &control, link.rank()).map_err(TrainError::Protocol)?;
                let done = run_worker(cfg, link, &ctl, policy, None, session)?;
                if !done.killed {
                    commit::report_finished(&ctl, done.rank, cfg.steps)
                        .map_err(TrainError::Protocol)?;
                }
                Ok(done)
            });
            if !outcome.as_ref().is_ok_and(|o| !o.killed) {
                // A rank that stops short hangs up, as a dead process's
                // sockets close: its peers drain what it sent, then see
                // it gone. Dropping `ctl` tells the coordinator.
                for &peer in live {
                    wire.hang_up(peer);
                }
            }
        }
        Job::Coordinator { conns, outcome } => {
            let mut machine = Coordinator::new(cfg.workers, None).with_live(live);
            // The ends are dropped as the loop returns: a rank still
            // waiting on a verdict from a failed coordinator sees it
            // gone.
            let conns = mem::take(conns);
            *outcome = commit::coordinate(&mut machine, &inbox, &conns, &control, &mut ());
            drop(conns);
            if let Some(s) = session {
                record_degrades(s, live.len(), machine.degrades());
            }
        }
    });

    let mut ranks = Vec::with_capacity(live.len());
    for job in jobs {
        match job {
            Job::Rank { outcome, .. } => ranks.push(outcome),
            Job::Coordinator { outcome, .. } => outcome.map_err(TrainError::Protocol)?,
        }
    }
    ranks.into_iter().collect()
}

/// A control stream that could not be built: the process is out of
/// descriptors or memory.
fn control_stream(e: std::io::Error) -> TrainError {
    TrainError::Protocol(format!("control stream: {e}"))
}

/// Log the coordinator's degrades of a run that started over `world`
/// ranks: one `Degraded` per step someone died in, its dead ascending.
/// Deaths in one step reach the coordinator in thread-timing order; the
/// step and the set are what replays.
fn record_degrades(session: &FaultSession, mut world: usize, degrades: &[(u32, Vec<usize>)]) {
    for deaths in degrades.chunk_by(|a, b| a.0 == b.0) {
        let mut dead: Vec<usize> = deaths.iter().flat_map(|(_, d)| d.iter().copied()).collect();
        dead.sort_unstable();
        world -= dead.len();
        let step = deaths[0].0 as usize;
        session.record(FaultEvent::Degraded { step, dead, new_world: world });
    }
}

/// The checkpoint a run resumes from, validated against `cfg`; `None`
/// when it starts at step 0 over every worker.
pub(crate) fn resume_point(cfg: &TrainConfig) -> Result<Option<Checkpoint>, TrainError> {
    let Some(ck_cfg) = cfg.checkpoint.as_ref().filter(|c| c.resume && c.path.exists()) else {
        return Ok(None);
    };
    let ck = Checkpoint::load(&ck_cfg.path).map_err(TrainError::Checkpoint)?;
    let n_params = cfg.net.n_params();
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
    Ok(Some(ck))
}

/// The `train_*` metric handles, resolved once: per-step updates are
/// pure atomics, no registry lookups (and no allocation).
struct StepMetrics {
    steps: Arc<Counter>,
    step_s: Arc<Histogram>,
    exchange_s: Arc<Histogram>,
    last_loss: Arc<Gauge>,
    /// `train_encoded_bytes_total`: the configured codec's
    /// `encoded_len` of every step's payloads (one per live rank), by
    /// arithmetic — what the exchange would move were the codec on the
    /// wire — vs the raw fp32 bytes they stand in for. The measured
    /// wire bytes are telemetry's `train_wire_bytes_total`.
    encoded_bytes: Arc<Counter>,
    raw_bytes: Arc<Counter>,
}

/// What a run records for each applied step besides the math — the
/// `train_*` metrics, a due checkpoint (its span on `lane`, its event in
/// `faults`), a due eval point — written once for both step loops: the
/// rank bodies' leader (the lowest live rank) keeps the books, and so
/// does the pipelined loop.
pub(crate) struct Ledger<'a> {
    cfg: &'a TrainConfig,
    lane: Option<&'a Lane>,
    faults: Option<&'a FaultSession>,
    metrics: Option<StepMetrics>,
    /// Eval points recorded so far.
    pub(crate) curve: Vec<EvalPoint>,
}

impl<'a> Ledger<'a> {
    pub(crate) fn new(
        cfg: &'a TrainConfig,
        lane: Option<&'a Lane>,
        faults: Option<&'a FaultSession>,
    ) -> Self {
        let metrics = cfg.trace.as_ref().map(|ts| StepMetrics {
            steps: ts.registry.counter("train_steps_committed_total"),
            step_s: ts.registry.histogram("train_step_seconds"),
            exchange_s: ts.registry.histogram("train_allreduce_seconds"),
            last_loss: ts.registry.gauge("train_last_loss"),
            encoded_bytes: ts.registry.counter("train_encoded_bytes_total"),
            raw_bytes: ts.registry.counter("train_raw_bytes_total"),
        });
        Ledger { cfg, lane, faults, metrics, curve: Vec::new() }
    }

    /// The metrics of one applied step: its loss, its seconds from start
    /// to update and in the gradient exchange, and its payloads (one per
    /// live rank).
    pub(crate) fn observe(&self, loss: f64, step_s: f64, exchange_s: f64, payloads: usize) {
        if let Some(m) = &self.metrics {
            let (n_params, payloads) = (self.cfg.net.n_params(), payloads as u64);
            m.steps.inc();
            m.step_s.observe(step_s);
            m.exchange_s.observe(exchange_s);
            m.last_loss.set(loss);
            m.encoded_bytes.add(self.cfg.codec.encoded_len(n_params) as u64 * payloads);
            m.raw_bytes.add(4 * n_params as u64 * payloads);
        }
    }

    /// `step` was applied over `live`, leaving the books' replica at
    /// `net` and `opt`: save a checkpoint of the live set when one is
    /// due.
    pub(crate) fn checkpoint(
        &self,
        step: usize,
        live: &[usize],
        net: &SegNet,
        opt: &MomentumSgd,
    ) -> Result<(), TrainError> {
        let done = step + 1;
        let Some(ck_cfg) =
            self.cfg.checkpoint.as_ref().filter(|c| c.every > 0 && done.is_multiple_of(c.every))
        else {
            return Ok(());
        };
        let t0 = self.lane.map(Lane::now_us);
        let ck = Checkpoint {
            step: done,
            live: live.to_vec(),
            opt_step: opt.step_index(),
            params: net.params().to_vec(),
            velocity: opt.velocity().to_vec(),
        };
        ck.save(&ck_cfg.path).map_err(TrainError::Checkpoint)?;
        if let (Some(l), Some(t0)) = (self.lane, t0) {
            l.record_args("CHECKPOINT", "save", t0, l.now_us() - t0, step as u64, done as u64);
        }
        if let Some(s) = self.faults {
            s.record(FaultEvent::CheckpointSave { step: done });
        }
        Ok(())
    }

    /// Record `step`'s eval point when one is due: `net` as that step
    /// left it, and the step's loss. The evaluation fans out over the
    /// shared pool even from a rank lane that folds its own compute
    /// inline — the rank body calls this while the other ranks wait on
    /// it.
    pub(crate) fn eval_point(&mut self, step: usize, loss: f64, net: &SegNet) {
        let (cfg, done) = (self.cfg, step + 1);
        if cfg.eval_every > 0 && done.is_multiple_of(cfg.eval_every) {
            let conf =
                pool::fold_inline(false, || evaluate(net, &cfg.data, cfg.seed, cfg.eval_samples));
            self.curve.push(EvalPoint {
                step: done,
                train_loss: loss,
                miou: conf.miou(),
                pixel_accuracy: conf.pixel_accuracy(),
            });
        }
    }
}

/// The layer-pipelined run (`cfg.pipeline`): backprop is split into
/// per-layer phases on a work-stealing core pool and each layer's
/// gradient tile is reduced across the replicas the moment it is ready,
/// overlapping the "allreduce" with the remaining backward work. Its
/// own step loop, over replicas that share this address space; its
/// books are the rank bodies' [`Ledger`].
fn train_pipelined(
    cfg: &TrainConfig,
    resume: Option<Checkpoint>,
) -> Result<TrainResult, TrainError> {
    let n_params = cfg.net.n_params();
    let lr = cfg.lr_schedule();
    let (start, live) = match &resume {
        Some(ck) => (ck.step, ck.live.clone()),
        None => (0, (0..cfg.workers).collect::<Vec<_>>()),
    };
    let mut nets: Vec<SegNet> =
        live.iter().map(|_| SegNet::new(cfg.net, derive_seed(cfg.seed, "init"))).collect();
    let mut opts: Vec<MomentumSgd> = live
        .iter()
        .map(|_| MomentumSgd::new(lr, cfg.momentum, n_params).with_weight_decay(cfg.weight_decay))
        .collect();
    if let Some(ck) = &resume {
        for (net, opt) in nets.iter_mut().zip(&mut opts) {
            net.params_mut().copy_from_slice(&ck.params);
            opt.restore(ck.opt_step, &ck.velocity);
        }
    }
    // The leader's compute lane carries the checkpoint spans; the
    // executor records its own work on pid-900 lanes.
    let lane = cfg.trace.as_ref().map(|ts| compute_lane(&ts.recorder, live[0]));
    let mut exec = super::pipeline::PipelineExecutor::new(
        &cfg.net,
        live.len(),
        cfg.batch_per_worker,
        cfg.accumulation_steps,
        pool::lanes(),
    );
    if let Some(ts) = &cfg.trace {
        exec.attach_trace(&ts.recorder);
    }
    let mut ledger = Ledger::new(cfg, lane.as_ref(), None);
    let mut shards: Vec<Vec<Sample>> = Vec::new();
    let mut step_losses = Vec::with_capacity(cfg.steps - start);
    for step in start..cfg.steps {
        let step_t0 = Instant::now();
        // The shards the rank bodies would draw (identical seed
        // addressing), micro-batch major.
        shards.clear();
        for &id in &live {
            let mut shard = Vec::with_capacity(cfg.accumulation_steps * cfg.batch_per_worker);
            for m in 0..cfg.accumulation_steps {
                shard.append(&mut micro_batch(cfg, id, step, m));
            }
            shards.push(shard);
        }
        let loss =
            exec.step(nets.iter_mut().zip(opts.iter_mut()), &shards, cfg.codec, cfg.error_feedback);
        step_losses.push(loss);
        ledger.observe(
            loss,
            step_t0.elapsed().as_secs_f64(),
            exec.last_reduce_seconds(),
            live.len(),
        );
        ledger.checkpoint(step, &live, &nets[0], &opts[0])?;
        ledger.eval_point(step, loss, &nets[0]);
        if cfg.halts_after(step) {
            break;
        }
    }
    let replicas = live.iter().zip(&nets).map(|(&id, net)| (id, net.params().to_vec())).collect();
    Ok(finish(cfg, replicas, step_losses, ledger.curve, None))
}

/// The run's result from its surviving replicas (original id, final
/// parameters; ascending): the replica-consistency check, the final
/// evaluation, and the fault log.
fn finish(
    cfg: &TrainConfig,
    replicas: Vec<(usize, Vec<f32>)>,
    step_losses: Vec<f64>,
    mut curve: Vec<EvalPoint>,
    session: Option<&FaultSession>,
) -> TrainResult {
    // Replica-consistency invariant of synchronous data-parallel SGD —
    // it must hold across the survivors even after degradations.
    let reference = &replicas[0].1;
    for (id, p) in &replicas[1..] {
        let max_dev = reference.iter().zip(p).map(|(a, b)| (a - b).abs()).fold(0.0f32, f32::max);
        assert!(max_dev == 0.0, "replica {id} diverged by {max_dev}");
    }
    let mut net = SegNet::new(cfg.net, derive_seed(cfg.seed, "init"));
    net.params_mut().copy_from_slice(reference);
    let conf = evaluate(&net, &cfg.data, cfg.seed, cfg.eval_samples);
    let final_point = EvalPoint {
        step: cfg.steps,
        train_loss: step_losses.last().copied().unwrap_or(f64::NAN),
        miou: conf.miou(),
        pixel_accuracy: conf.pixel_accuracy(),
    };
    if curve.last().map(|p| p.step) != Some(cfg.steps) {
        curve.push(final_point);
    }
    let (fault_events, fault_counters) = match session {
        Some(s) => (s.events().deterministic_core(), s.counts()),
        None => (Vec::new(), FaultCounterSnapshot::tally([])),
    };
    let survivors = replicas.iter().map(|(id, _)| *id).collect();
    let final_params = replicas.into_iter().next().map(|(_, p)| p).unwrap_or_default();
    TrainResult {
        curve,
        final_miou: final_point.miou,
        final_pixel_accuracy: final_point.pixel_accuracy,
        final_params,
        step_losses,
        survivors,
        fault_events,
        fault_counters,
    }
}

/// Micro-batch `m` of worker `orig_rank`'s shard at `step`. Addressing
/// uses the ORIGINAL world layout (`cfg.workers` and the worker's
/// original id), so each survivor keeps its own slice of the data
/// stream no matter who else has died.
pub(crate) fn micro_batch(
    cfg: &TrainConfig,
    orig_rank: usize,
    step: usize,
    m: usize,
) -> Vec<Sample> {
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
    fn encoded_byte_counters_record_codec_reduction() {
        let mut cfg = tiny(2, 4);
        cfg.codec = CodecKind::Int8;
        let ts = Arc::new(TraceSession::new());
        cfg.trace = Some(ts.clone());
        train(&cfg);
        let m = ts.registry.snapshot();
        let get =
            |name: &str| m.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v).unwrap_or(0);
        let encoded = get("train_encoded_bytes_total");
        let raw = get("train_raw_bytes_total");
        let n_params = cfg.net.n_params();
        assert_eq!(raw, 4 * n_params as u64 * 2 * 4, "raw = 4B x params x workers x steps");
        assert_eq!(
            encoded,
            CodecKind::Int8.encoded_len(n_params) as u64 * 2 * 4,
            "encoded = encoded_len x workers x steps"
        );
        assert!(raw as f64 / encoded as f64 >= 3.5, "int8 must log >= 3.5x reduction");
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
        assert!(m.counters.contains(&("train_steps_committed_total".to_string(), 4)));
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
        assert!(m.counters.contains(&("train_steps_committed_total".to_string(), 3)));
        let (_, ar_hist) =
            m.histograms.iter().find(|(n, _)| n == "train_allreduce_seconds").expect("hist");
        assert_eq!(ar_hist.count, 3, "one tile-reduce observation per step");
    }
}
