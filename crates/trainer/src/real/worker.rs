//! One rank of the real trainer as a separate OS process.
//!
//! [`run_worker`] is the multi-process twin of
//! [`try_train`](super::train::try_train)'s classic path: the same
//! seed-derived initialization, the same original-id shard addressing,
//! the same codec roundtrip, and the same schedule — executed over a
//! [`transport::Wire`] by a [`collectives::PeerExecutor`] instead of
//! across threads. Because every applied payload and every combine is
//! ordered by the schedule, a multi-process run is bit-identical to
//! the threaded run for the same seed (the socket-parity integration
//! test pins this).
//!
//! # Crash tolerance
//!
//! The optimizer update is gated by the commit protocol
//! ([`super::commit`]): a worker that completes a step's exchange votes
//! and waits; it applies the update only on `Commit`. On `Degrade` it
//! restores its pre-exchange gradient snapshot, removes the dead from
//! its live set, rebuilds **and re-verifies** the schedule over the
//! survivors, bumps the transport era (sequence numbers restart;
//! stale-era frames are dropped on arrival), and re-executes the
//! exchange. The optimizer is therefore applied exactly once per step,
//! on identical bytes, at every survivor — which is what makes the
//! chaos result reproducible by a threaded run with a crash injected at
//! `(d, round 0)`.

use collectives::compression::{EncodeScratch, ErrorFeedback};
use collectives::{CtlSignal, PeerExecError, PeerExecutor, ReduceOp, Schedule, Violation};
use faults::RetryPolicy;
use summit_metrics::rng::derive_seed;
use trace::telemetry::{metric, WorkerTelemetry};
use transport::{Frame, FrameKind, PeerConn, Wire};

use super::commit::{self, DegradeRecord, Verdict};
use super::net::{BatchWorkspace, SegNet};
use super::sgd::MomentumSgd;
use super::train::{apply_wire_codec, local_mean_gradient, TrainConfig};

/// What one worker process produced.
#[derive(Debug, Clone)]
pub struct WorkerOutcome {
    pub rank: usize,
    pub final_params: Vec<f32>,
    /// This worker's own per-step training loss (committed steps only).
    pub step_losses: Vec<f64>,
    /// Original ids alive at the end, ascending.
    pub survivors: Vec<usize>,
    pub degradations: Vec<DegradeRecord>,
}

impl WorkerOutcome {
    /// This rank's `result_r<rank>.json`. Losses print with 17
    /// significant digits, so a reader recovers the exact f64.
    pub fn result_json(&self) -> String {
        let degrades: Vec<String> = self
            .degradations
            .iter()
            .map(|d| {
                let dead = commit::id_list(&d.dead);
                format!("{{\"step\": {}, \"dead\": [{dead}], \"era\": {}}}", d.step, d.era)
            })
            .collect();
        let losses: Vec<String> = self.step_losses.iter().map(|l| format!("{l:.17e}")).collect();
        format!(
            "{{\n  \"rank\": {},\n  \"survivors\": [{}],\n  \"degrades\": [{}],\n  \"losses\": [{}]\n}}\n",
            self.rank,
            commit::id_list(&self.survivors),
            degrades.join(", "),
            losses.join(", ")
        )
    }
}

/// Why a worker run failed.
#[derive(Debug)]
pub enum WorkerError {
    /// The (initial or rebuilt) schedule failed static verification.
    Verification(Vec<Violation>),
    /// The peer executor failed unrecoverably.
    Exec(PeerExecError),
    /// The commit protocol broke down (coordinator gone or insane).
    Coordinator(String),
}

impl std::fmt::Display for WorkerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkerError::Verification(v) => write!(f, "schedule failed verification: {v:?}"),
            WorkerError::Exec(e) => write!(f, "peer executor failed: {e}"),
            WorkerError::Coordinator(why) => write!(f, "commit protocol failed: {why}"),
        }
    }
}

impl std::error::Error for WorkerError {}

/// The names [`preset`] accepts — what a launcher checks a `--preset`
/// flag against before it spawns anything.
pub fn preset_names() -> &'static [&'static str] {
    &["tiny", "quick"]
}

/// Shared named configs so the launcher, the workers, and the parity
/// tests construct the *same* [`TrainConfig`] from four scalars.
/// `tiny` mirrors the trainer test fixture (10×10 data, 2 per worker);
/// `quick` is [`TrainConfig::quick`]. Panics on a name outside
/// [`preset_names`]: outside input is checked against that list first.
pub fn preset(name: &str, workers: usize, steps: usize, seed: u64) -> TrainConfig {
    let mut cfg = match name {
        "quick" => TrainConfig::quick(workers),
        "tiny" => {
            use super::net::NetConfig;
            use super::segdata::DataConfig;
            let mut cfg = TrainConfig::quick(workers);
            cfg.data = DataConfig { height: 10, width: 10, ..DataConfig::default() };
            cfg.net = NetConfig {
                height: 10,
                width: 10,
                cin: 3,
                hidden1: 4,
                hidden2: 6,
                n_classes: 4,
                k: 3,
            };
            cfg.batch_per_worker = 2;
            cfg.warmup_steps = 5;
            cfg.eval_samples = 16;
            cfg
        }
        other => panic!("unknown preset {other:?} (expected tiny|quick)"),
    };
    cfg.workers = workers;
    cfg.steps = steps;
    cfg.seed = seed;
    cfg
}

/// Run this process's rank of `cfg` over `wire`, arbitrated by the
/// coordinator on `ctl`. Applies exactly the classic-path math of
/// `try_train` for `wire.rank()`.
///
/// With `telemetry` set, the worker folds step counters, wire stats,
/// and flight-recorder events into the shared [`WorkerTelemetry`] and
/// pushes one synchronous snapshot over `ctl` at every step begin (the
/// heartbeat thread pushes the rest at beacon cadence — see
/// `PeerConn::solo_with_telemetry`). Telemetry never touches the
/// training math: a telemetry run is bit-identical to a plain one.
pub fn run_worker(
    cfg: &TrainConfig,
    wire: &dyn Wire,
    ctl: &PeerConn,
    policy: RetryPolicy,
    telemetry: Option<&WorkerTelemetry>,
) -> Result<WorkerOutcome, WorkerError> {
    let rank = wire.rank();
    let n_params = cfg.net.n_params();
    // One trace lane per process, keyed by original rank so the
    // launcher's merged timeline renders one row group per worker.
    let lane = cfg.trace.as_ref().map(|ts| {
        let process = format!("rank {rank} (os pid {})", std::process::id());
        ts.recorder.lane(rank as u32, 0, &process, "train step")
    });
    let lr = cfg.lr_schedule();
    let mut net = SegNet::new(cfg.net, derive_seed(cfg.seed, "init"));
    let mut opt = MomentumSgd::new(lr, cfg.momentum, n_params).with_weight_decay(cfg.weight_decay);
    let mut bw = BatchWorkspace::new(&cfg.net);
    let mut grad = vec![0.0f32; n_params];
    let mut snapshot = vec![0.0f32; n_params];

    let mut live: Vec<usize> = (0..cfg.workers).collect();
    let mut schedule = build_verified(cfg, live.len(), n_params)?;
    let mut exec = PeerExecutor::new(wire, policy);

    let codec = cfg.codec;
    let mut ef = if cfg.error_feedback && codec.is_lossy() {
        Some(ErrorFeedback::new(n_params))
    } else {
        None
    };
    let mut codec_scratch = EncodeScratch::new();
    codec_scratch.reserve(codec, n_params);

    let mut step_losses = Vec::with_capacity(cfg.steps);
    let mut degradations: Vec<DegradeRecord> = Vec::new();
    // Reused telemetry payload buffer: synchronous snapshot sends
    // allocate nothing once it is warm.
    let mut tel_buf: Vec<u8> = Vec::new();

    for step in 0..cfg.steps {
        let step_t0 = std::time::Instant::now();
        if let Some(tel) = telemetry {
            // Announce the step *before* any mesh traffic: no rank can
            // complete step S's exchange without this rank's sends, so
            // by the time a StepDone{S} vote reaches the coordinator,
            // this frame (ordered ahead on the control stream) is
            // already queued there — the post-mortem for a rank killed
            // at S always shows last_step == S.
            tel.begin_step(step as u32);
            tel.add(metric::STEPS_BEGUN, 1);
            tel.flight("STEP", "begin", step as u32, 0, 0);
            fold_wire_stats(tel, &exec);
            send_telemetry(ctl, tel, &mut tel_buf);
        }
        // Gradient and wire codec: the very functions try_train's
        // classic path calls, so the two cannot drift apart.
        let compute_t0 = lane.as_ref().map(|l| l.now_us());
        let compute_t0i = std::time::Instant::now();
        let loss = local_mean_gradient(cfg, rank, step, &net, &mut bw, &mut grad);
        apply_wire_codec(codec, ef.as_mut(), &mut grad, &mut codec_scratch);

        if let (Some(l), Some(t0)) = (&lane, compute_t0) {
            l.record("COMPUTE", "grad_compute", t0, l.now_us() - t0);
        }
        if let Some(tel) = telemetry {
            tel.flight(
                "COMPUTE",
                "grad_compute",
                step as u32,
                compute_t0i.elapsed().as_micros() as u32,
                0,
            );
        }

        // The exchange + commit loop: re-entered once per degrade.
        snapshot.copy_from_slice(&grad);
        loop {
            let exchange_t0 = lane.as_ref().map(|l| l.now_us());
            let exchange_t0i = std::time::Instant::now();
            exec.begin_step(step);
            let mut announced = Ok(None);
            let result =
                exec.allreduce(&schedule, &mut grad, ReduceOp::Average, &live, &mut || {
                    announced = commit::poll_degrade(ctl, step);
                    match announced {
                        Ok(None) => CtlSignal::Continue,
                        _ => CtlSignal::Abort,
                    }
                });
            if let (Some(l), Some(t0)) = (&lane, exchange_t0) {
                l.record("MPI_ALLREDUCE", "exchange", t0, l.now_us() - t0);
            }
            let verdict = match result {
                Ok(()) => {
                    if let Some(tel) = telemetry {
                        tel.flight(
                            "MPI_ALLREDUCE",
                            "exchange",
                            step as u32,
                            exchange_t0i.elapsed().as_micros() as u32,
                            0,
                        );
                        tel.flight("CTL", "vote", step as u32, 0, exec.era() as u64);
                        // Refresh the wire gauges before voting: if this
                        // rank dies or degrades between vote and commit,
                        // the heartbeat-shipped snapshots (and the
                        // post-mortem) must show the exchange it just
                        // ran, not the stats of its last committed step.
                        fold_wire_stats(tel, &exec);
                    }
                    commit::vote(ctl, rank, exec.era(), step).map_err(WorkerError::Coordinator)?;
                    let vote_t0 = std::time::Instant::now();
                    let v = commit::await_verdict(ctl, &policy, step)
                        .map_err(WorkerError::Coordinator)?;
                    if let Some(tel) = telemetry {
                        tel.set(metric::COMMIT_WAIT_US, vote_t0.elapsed().as_micros() as u64);
                    }
                    v
                }
                Err(PeerExecError::Aborted) => {
                    match announced.map_err(WorkerError::Coordinator)? {
                        Some(record) => Verdict::Degrade(record),
                        None => {
                            return Err(WorkerError::Coordinator(
                                "aborted without a degrade frame".into(),
                            ))
                        }
                    }
                }
                Err(PeerExecError::PeerDead { .. }) => {
                    // The coordinator sees the same death (control EOF /
                    // silence) and owns the verdict; a peer that died
                    // mid-exchange cannot have voted, so no Commit for
                    // this step can exist — only a Degrade can arrive.
                    match commit::await_verdict(ctl, &policy, step)
                        .map_err(WorkerError::Coordinator)?
                    {
                        Verdict::Commit => {
                            return Err(WorkerError::Coordinator(format!(
                                "commit for step {step} after a peer died mid-exchange"
                            )))
                        }
                        d => d,
                    }
                }
                Err(e) => return Err(WorkerError::Exec(e)),
            };
            match verdict {
                Verdict::Commit => {
                    opt.apply(net.params_mut(), &grad);
                    if let Some(tel) = telemetry {
                        tel.add(metric::STEPS_COMMITTED, 1);
                        tel.set(metric::STEP_LATENCY_US, step_t0.elapsed().as_micros() as u64);
                        fold_wire_stats(tel, &exec);
                        tel.flight("CTL", "commit", step as u32, 0, 0);
                    }
                    break;
                }
                Verdict::Degrade(record) => {
                    if let Some(l) = &lane {
                        l.instant("FAULT", "degrade", l.now_us());
                    }
                    if let Some(tel) = telemetry {
                        tel.add(metric::DEGRADES, 1);
                        let dead0 = record.dead.first().copied().unwrap_or(0) as u64;
                        tel.flight("FAULT", "degrade", step as u32, 0, dead0);
                        fold_wire_stats(tel, &exec);
                    }
                    // Restore the pre-exchange gradient, shrink the
                    // world, rebuild + RE-VERIFY the schedule, and step
                    // the transport into the announced era.
                    grad.copy_from_slice(&snapshot);
                    live.retain(|id| !record.dead.contains(id));
                    schedule = build_verified(cfg, live.len(), n_params)?;
                    while exec.era() < record.era {
                        exec.bump_era();
                    }
                    degradations.push(record);
                }
            }
        }
        step_losses.push(loss);
    }

    if let Some(tel) = telemetry {
        // One final synchronous snapshot so the coordinator's last view
        // of this rank carries the full committed count.
        tel.flight("STEP", "finished", cfg.steps as u32, 0, 0);
        send_telemetry(ctl, tel, &mut tel_buf);
    }

    Ok(WorkerOutcome {
        rank,
        final_params: net.params().to_vec(),
        step_losses,
        survivors: live,
        degradations,
    })
}

fn build_verified(
    cfg: &TrainConfig,
    n_ranks: usize,
    n_elems: usize,
) -> Result<Schedule, WorkerError> {
    let schedule = cfg.algo.build(n_ranks, n_elems);
    schedule.verify_allreduce().map_err(WorkerError::Verification)?;
    Ok(schedule)
}

/// Fold the executor's wire counters into the telemetry gauges, so the
/// next shipped snapshot — synchronous or heartbeat-cadence — carries
/// the transport state of the step being run, not of the last commit.
fn fold_wire_stats(tel: &WorkerTelemetry, exec: &PeerExecutor<'_>) {
    let stats = exec.stats();
    tel.set(metric::WIRE_BYTES, stats.data_bytes);
    tel.set(metric::NACKS, stats.nacks_sent);
    tel.set(metric::RESENDS, stats.resends);
    tel.set(metric::INFLIGHT_SENDS, exec.pending_sends() as u64);
}

/// Push one synchronous telemetry snapshot over the control stream.
/// Best-effort: a failed send means the coordinator is gone, which the
/// commit protocol surfaces on its own — telemetry never aborts a
/// step. The payload buffer is reused across calls (the frame borrows
/// it via `mem::take` and hands it back), so the steady state
/// allocates nothing.
fn send_telemetry(ctl: &PeerConn, tel: &WorkerTelemetry, buf: &mut Vec<u8>) {
    let seq = tel.encode_into(buf);
    let mut f = Frame::control(FrameKind::Telemetry, tel.rank(), 0, tel.current_step());
    f.seq = seq;
    f.payload = std::mem::take(buf);
    let _ = ctl.send(&f);
    *buf = f.payload;
}
