//! One rank of the real trainer: the rank body both launchers run.
//!
//! [`run_worker`] trains one replica: the seed-derived initialization
//! (or a checkpoint's state), the rank's original-id shard of every
//! step's data, the codec roundtrip, and the gradient exchange over a
//! [`transport::Wire`] by a [`collectives::PeerExecutor`], gated by the
//! commit protocol over a control [`PeerConn`]. `dist_train` runs one per
//! process over a `SocketMesh`; `try_train` runs N of them on the lanes
//! of one pool over an in-process `ChannelWire` mesh, each behind a
//! `FaultWire` in a chaos run. It is the only training loop of either,
//! so a multi-process run is bit-identical to the threaded run for the
//! same seed by construction (the socket-parity suite pins it).
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
//! on identical bytes, at every survivor. A rank whose wire refuses a
//! round — an injected crash — stops there and returns what it had
//! committed, marked [`WorkerOutcome::killed`]; its launcher hangs up
//! its wire and its control stream, which is the death the coordinator
//! degrades on, exactly as for a SIGKILLed process.
//!
//! # The leader's bookkeeping
//!
//! The lowest live rank is the leader. For every step it commits it
//! keeps the run's books — the `train_*` metrics, a due checkpoint of
//! the live set, a due eval point (taken after its next gradient, while
//! the others wait on it) — through the same `Ledger` the pipelined
//! loop keeps them with. A checkpoint taken after a degrade
//! therefore has holes in its live set, and a run resumed from it
//! starts over exactly those ranks.

use std::time::Instant;

use collectives::compression::{self, CodecKind, EncodeScratch, ErrorFeedback};
use collectives::{
    CtlSignal, ExecTrace, FaultSession, FaultSink, PeerExecError, PeerExecutor, ReduceOp, Schedule,
};
use faults::{FaultEvent, RetryPolicy};
use summit_metrics::rng::derive_seed;
use trace::telemetry::WorkerTelemetry;
use trace::{Lane, TraceRecorder};
use transport::{Frame, FrameKind, PeerConn, Wire};

use super::commit::{self, DegradeRecord, Verdict};
use super::net::{BatchWorkspace, SegNet};
use super::sgd::MomentumSgd;
use super::train::{micro_batch, resume_point, EvalPoint, Ledger, TrainConfig, TrainError};

/// What one rank produced.
#[derive(Debug, Clone)]
pub struct WorkerOutcome {
    pub rank: usize,
    pub final_params: Vec<f32>,
    /// This worker's own per-step training loss (committed steps only).
    pub step_losses: Vec<f64>,
    /// Original ids alive at the end, ascending.
    pub survivors: Vec<usize>,
    pub degradations: Vec<DegradeRecord>,
    /// The eval points this rank recorded while it was the leader.
    pub curve: Vec<EvalPoint>,
    /// The rank's wire refused a round (an injected crash): it stopped
    /// there, with `step_losses` ending at its last committed step.
    pub killed: bool,
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

/// Rank `rank`'s compute lane on `recorder`: pid = original rank, tid 0
/// (the executor's SEND/RECV go on tid 1).
pub fn compute_lane(recorder: &TraceRecorder, rank: usize) -> Lane {
    recorder.lane(rank as u32, 0, &format!("rank {rank}"), "compute")
}

/// Run `wire.rank()`'s replica of `cfg` over `wire`, arbitrated by the
/// coordinator on `ctl`, from step 0 or from `cfg.checkpoint`'s resume
/// point, with every wait paced by `policy`.
///
/// Every record on the rank's compute lane carries its step in `a0`.
/// The lane is the telemetry's when `telemetry` is set — its tail is
/// the crash flight recorder, and the worker adds the `STEP`/`begin`
/// and `CTL`/`vote` instants a post-mortem anchors on — and otherwise
/// `cfg.trace`'s. With `telemetry` set, this loop is the one writer and
/// the one sender of the rank's snapshots: at every step begin, and
/// once more at the end of a run it was not killed in, it builds the
/// metric values from its own state (its counts, the degrade log, the
/// executor's wire stats, the last committed step's timings) and ships
/// them over `ctl`. With `faults` set, the executor
/// reports its recovery actions into that session, and the leader its
/// checkpoint lifecycle. Neither touches the training math: such a run
/// is bit-identical to a plain one.
pub fn run_worker(
    cfg: &TrainConfig,
    wire: &dyn Wire,
    ctl: &PeerConn,
    policy: RetryPolicy,
    mut telemetry: Option<&mut WorkerTelemetry>,
    faults: Option<&FaultSession>,
) -> Result<WorkerOutcome, TrainError> {
    let rank = wire.rank();
    let n_params = cfg.net.n_params();
    // The rank's one compute lane; the executor's SEND/RECV lane comes
    // from the trace session (a fault session brings its own).
    let lane = match telemetry.as_deref() {
        Some(tel) => Some(tel.lane().clone()),
        None => cfg.trace.as_ref().map(|ts| compute_lane(&ts.recorder, rank)),
    };
    let sink = match faults {
        Some(session) => Some(session.sink(rank)),
        None => cfg.trace.as_ref().and_then(|ts| {
            ExecTrace::comm(&ts.recorder, &[rank]).lane(rank).cloned().map(FaultSink::lane_only)
        }),
    };
    let lr = cfg.lr_schedule();
    let mut net = SegNet::new(cfg.net, derive_seed(cfg.seed, "init"));
    let mut opt = MomentumSgd::new(lr, cfg.momentum, n_params).with_weight_decay(cfg.weight_decay);
    let mut bw = BatchWorkspace::new(&cfg.net);
    let mut grad = vec![0.0f32; n_params];
    let mut snapshot = vec![0.0f32; n_params];

    // Resume: the checkpoint dictates the starting step and the live
    // set. All replicas are identical by the synchronous-SGD invariant,
    // so one saved copy restores every rank bit-exactly.
    let (start, mut live) = match resume_point(cfg)? {
        Some(ck) => {
            net.params_mut().copy_from_slice(&ck.params);
            opt.restore(ck.opt_step, &ck.velocity);
            if let Some(s) = faults.filter(|_| ck.live.first() == Some(&rank)) {
                s.record(FaultEvent::CheckpointRestore { step: ck.step });
            }
            (ck.step, ck.live)
        }
        None => (0, (0..cfg.workers).collect()),
    };
    let mut schedule = build_verified(cfg, live.len(), n_params)?;
    let mut exec = PeerExecutor::new(wire, policy);
    if let Some(sink) = sink {
        exec = exec.with_sink(sink);
    }

    let codec = cfg.codec;
    let mut ef = if cfg.error_feedback && codec.is_lossy() {
        Some(ErrorFeedback::new(n_params))
    } else {
        None
    };
    let mut codec_scratch = EncodeScratch::new();
    codec_scratch.reserve(codec, n_params);

    let mut ledger = Ledger::new(cfg, lane.as_ref(), faults);
    let mut step_losses = Vec::with_capacity(cfg.steps - start);
    let mut degradations: Vec<DegradeRecord> = Vec::new();
    // Reused telemetry payload buffer: snapshot sends allocate nothing
    // once it is warm.
    let mut tel_buf: Vec<u8> = Vec::new();
    // The last committed step's latency (wall time less the leader's
    // eval) and commit wait (vote to verdict), µs.
    let (mut latency_us, mut commit_wait_us) = (0, 0);

    // The leader's last applied step and its loss, whose eval point (if
    // due) is taken once the next step's gradient is computed: the other
    // ranks then wait on this one in the exchange, so the evaluation has
    // the machine to itself, and the replica is still as that step left
    // it.
    let mut to_eval: Option<(usize, f64)> = None;
    let mut killed = false;
    'steps: for step in start..cfg.steps {
        let step_t0 = Instant::now();
        if let Some(tel) = telemetry.as_deref_mut() {
            // Announce the step *before* any mesh traffic: no rank can
            // complete step S's exchange without this rank's sends, so
            // by the time a StepDone{S} vote reaches the coordinator,
            // this frame (ordered ahead on the control stream) is
            // already queued there — the post-mortem for a rank killed
            // at S always shows last_step == S.
            let l = tel.lane();
            l.record_args("STEP", "begin", l.now_us(), 0.0, step as u64, 0);
            let counts = [step + 1 - start, step_losses.len(), degradations.len()];
            let timings = [latency_us, commit_wait_us];
            send_telemetry(ctl, tel, step, counts, &exec, timings, &mut tel_buf);
        }
        let compute_t0 = lane.as_ref().map(Lane::now_us);
        let loss = local_mean_gradient(cfg, rank, step, &net, &mut bw, &mut grad);
        apply_wire_codec(codec, ef.as_mut(), &mut grad, &mut codec_scratch);
        if let (Some(l), Some(t0)) = (&lane, compute_t0) {
            // Forward and backward are fused in batch_loss_grad_ws, so
            // one span covers both halves of the compute phase.
            let (dur, micro) = (l.now_us() - t0, cfg.accumulation_steps as u64);
            l.record_args("BACKWARD", "grad_compute", t0, dur, step as u64, micro);
        }
        let eval_t0 = Instant::now();
        if let Some((done, done_loss)) = to_eval.take() {
            ledger.eval_point(done, done_loss, &net);
        }
        let eval_s = eval_t0.elapsed().as_secs_f64();

        // The exchange + commit loop: re-entered once per degrade.
        snapshot.copy_from_slice(&grad);
        let mut exchange_s = 0.0;
        loop {
            let exchange_t0 = lane.as_ref().map(Lane::now_us);
            let exchange_t0i = Instant::now();
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
            exchange_s += exchange_t0i.elapsed().as_secs_f64();
            if let (Some(l), Some(t0)) = (&lane, exchange_t0) {
                l.record_args("MPI_ALLREDUCE", "exchange", t0, l.now_us() - t0, step as u64, 0);
            }
            let verdict = match result {
                Ok(()) => {
                    if let Some(tel) = telemetry.as_deref() {
                        let (l, era) = (tel.lane(), exec.era() as u64);
                        l.record_args("CTL", "vote", l.now_us(), 0.0, step as u64, era);
                    }
                    commit::vote(ctl, rank, exec.era(), step).map_err(TrainError::Protocol)?;
                    let vote_t0 = Instant::now();
                    let v =
                        commit::await_verdict(ctl, &policy, step).map_err(TrainError::Protocol)?;
                    commit_wait_us = vote_t0.elapsed().as_micros() as u64;
                    v
                }
                Err(PeerExecError::Aborted) => match announced.map_err(TrainError::Protocol)? {
                    Some(record) => Verdict::Degrade(record),
                    // Nothing asked for the abort: the wire refused the
                    // round. This rank was killed mid-step; what it
                    // committed stands.
                    None => {
                        killed = true;
                        break 'steps;
                    }
                },
                Err(PeerExecError::PeerDead { .. }) => {
                    // The coordinator sees the same death (control EOF /
                    // silence) and owns the verdict; a peer that died
                    // mid-exchange cannot have voted, so no Commit for
                    // this step can exist — only a Degrade can arrive.
                    match commit::await_verdict(ctl, &policy, step).map_err(TrainError::Protocol)? {
                        Verdict::Commit => {
                            return Err(TrainError::Protocol(format!(
                                "commit for step {step} after a peer died mid-exchange"
                            )))
                        }
                        d => d,
                    }
                }
                Err(e) => return Err(TrainError::Exec(e)),
            };
            match verdict {
                Verdict::Commit => {
                    let apply_t0 = lane.as_ref().map(Lane::now_us);
                    opt.apply(net.params_mut(), &grad);
                    if let (Some(l), Some(t0)) = (&lane, apply_t0) {
                        l.record_args("OPTIMIZER", "apply", t0, l.now_us() - t0, step as u64, 0);
                    }
                    break;
                }
                Verdict::Degrade(record) => {
                    if let Some(l) = &lane {
                        let dead0 = record.dead.first().map_or(0, |&d| d as u64);
                        l.record_args("FAULT", "degrade", l.now_us(), 0.0, step as u64, dead0);
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
        // The latency the ledger observes and the next snapshot ships.
        let step_s = step_t0.elapsed().as_secs_f64() - eval_s;
        latency_us = (step_s * 1e6) as u64;
        if live.first() == Some(&rank) {
            ledger.observe(loss, step_s, exchange_s, live.len());
            ledger.checkpoint(step, &live, &net, &opt)?;
            to_eval = Some((step, loss));
        }
        if cfg.halts_after(step) {
            break;
        }
    }

    if let Some((done, done_loss)) = to_eval {
        ledger.eval_point(done, done_loss, &net);
    }
    if let Some(tel) = telemetry.filter(|_| !killed) {
        // One final snapshot so the coordinator's last view of this
        // rank carries the full committed count: it committed every
        // step it began.
        let done = step_losses.len();
        let (last, counts) = ((start + done).saturating_sub(1), [done, done, degradations.len()]);
        send_telemetry(ctl, tel, last, counts, &exec, [latency_us, commit_wait_us], &mut tel_buf);
    }
    Ok(WorkerOutcome {
        rank,
        final_params: net.params().to_vec(),
        step_losses,
        survivors: live,
        degradations,
        curve: ledger.curve,
        killed,
    })
}

/// One worker's gradient for `step`: accumulate its
/// `cfg.accumulation_steps` micro-batches into `acc` and scale to their
/// mean. Returns the mean loss.
fn local_mean_gradient(
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
fn apply_wire_codec(
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

fn build_verified(
    cfg: &TrainConfig,
    n_ranks: usize,
    n_elems: usize,
) -> Result<Schedule, TrainError> {
    let schedule = cfg.algo.build(n_ranks, n_elems);
    schedule.verify_allreduce().map_err(TrainError::Verification)?;
    Ok(schedule)
}

/// Ship one snapshot of `step` over the control stream, its values
/// read from the rank's own state as it ships: the loop's `[begun,
/// committed, degrades]`, the executor's wire counters and in-flight
/// sends, and the last committed step's `[latency, commit wait]` in µs.
/// Best-effort: a failed send means the coordinator is gone, which the
/// commit protocol surfaces on its own — telemetry never aborts a
/// step. The payload buffer is reused across calls (the frame borrows
/// it via `mem::take` and hands it back), so the steady state
/// allocates nothing.
fn send_telemetry(
    ctl: &PeerConn,
    tel: &mut WorkerTelemetry,
    step: usize,
    counts: [usize; 3],
    exec: &PeerExecutor<'_>,
    [latency_us, wait_us]: [u64; 2],
    buf: &mut Vec<u8>,
) {
    let [begun, committed, degrades] = counts.map(|c| c as u64);
    let (wire, inflight) = (exec.stats(), exec.pending_sends() as u64);
    // In metric-id order, `STEPS_BEGUN` (0) to `COMMIT_WAIT_US` (8).
    let values = [
        begun,
        committed,
        degrades,
        wire.data_bytes,
        wire.nacks_sent,
        wire.resends,
        latency_us,
        inflight,
        wait_us,
    ];
    let seq = tel.encode_into(step as u32, &values, buf);
    let mut f = Frame::control(FrameKind::Telemetry, tel.rank(), 0, step as u32);
    f.seq = seq;
    f.payload = std::mem::take(buf);
    let _ = ctl.send(&f);
    *buf = f.payload;
}
