//! The one file that names the program under test.
//!
//! Every symbol of the trainer the benchmark calls (`PeerExecutor`,
//! `SocketMesh`, `PipelineExecutor`, `try_train`, `crc32_bytes`,
//! `encode_into`, …) and everything it knows about the `dist_train`
//! binary (where it is, its flags, the files it writes) is here, behind
//! functions whose signatures mention no program type. A refactor that
//! renames or merges an API needs a follow-up in this file only; the
//! workloads, the layer pass and the arithmetic do not change.

use std::hint::black_box;
use std::os::unix::net::UnixStream;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use collectives::compression::{codec_for, CodecKind, EncodeScratch, ErrorFeedback};
use collectives::reduce::combine_sum;
use collectives::{Algorithm, CtlSignal, ExecContext, PeerExecutor, ReduceOp, Schedule};
use faults::{crc32_bytes, FaultClock, RetryPolicy};
use trace::TraceSession;
use trainer::real::checkpoint::Checkpoint;
use trainer::real::net::{BatchWorkspace, NetConfig, SegNet};
use trainer::real::pipeline::PipelineExecutor;
use trainer::real::segdata::{generate_batch, DataConfig, Sample};
use trainer::real::sgd::{LrSchedule, MomentumSgd};
use trainer::real::train::try_train;
use trainer::real::worker::preset;
use transport::{
    encode_into, join, parse_body, ChannelWire, Frame, FrameKind, Rendezvous, SocketMesh, Wire,
};

use crate::gen::{fill_floats, fill_ints, is_average};
use crate::json::Json;
use crate::spans::Spans;
use crate::sys;

/// Where launches, checkpoints and rendezvous sockets live while a run
/// is in flight. Relative on purpose: the driver runs the benchmark
/// from the checkout root and allows no writes outside it, and Unix
/// socket paths are capped near 100 bytes.
pub const SCRATCH_DIR: &str = "artifacts/benchmark";

/// A fresh, empty directory under [`SCRATCH_DIR`].
pub fn scratch_dir(tag: &str) -> Result<PathBuf, String> {
    static N: AtomicUsize = AtomicUsize::new(0);
    // A name counter publishes nothing else, hence `Relaxed`.
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir = Path::new(SCRATCH_DIR).join(format!("{tag}{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}

// ------------------------------------------------------------ shapes

/// The preset both `*_quick` workloads train.
const PRESET: &str = "quick";
/// Workers in the `*_quick` workloads and ranks in the wire workloads.
pub const RANKS: usize = 2;
/// Images per worker per step in the quick preset and the pipe workload.
pub const BATCH_PER_WORKER: usize = 4;
/// The 4 MiB payload of `wire_bw_4m`, in f32 elements.
pub const BW_ELEMS: usize = 1 << 20;

/// The quick preset's gradient length: the payload of `wire_lat_6k`.
pub fn quick_grad_elems() -> usize {
    preset(PRESET, RANKS, 1, 0).net.n_params()
}

fn net_shape(wide: bool) -> NetConfig {
    if wide {
        NetConfig { height: 24, width: 24, cin: 3, hidden1: 32, hidden2: 64, n_classes: 4, k: 3 }
    } else {
        preset(PRESET, RANKS, 1, 0).net
    }
}

/// Parameters of the wide net `pipe_wide_int8` trains.
pub fn wide_params() -> usize {
    net_shape(true).n_params()
}

/// Computed (not measured) floating-point operations of one
/// forward + backward pass over `BATCH_PER_WORKER` images: per pixel, a
/// multiply-add per weight forward, the same again for the weight
/// gradient of every layer, and again for the input gradient of every
/// layer but the first.
pub fn grad_flops(wide: bool) -> f64 {
    let c = net_shape(wide);
    let (w1, w2, w3) =
        (c.k * c.k * c.cin * c.hidden1, c.k * c.k * c.hidden1 * c.hidden2, c.hidden2 * c.n_classes);
    let macs_per_pixel = 2 * (w1 + w2 + w3) + (w2 + w3);
    (2 * macs_per_pixel * c.height * c.width * BATCH_PER_WORKER) as f64
}

// ------------------------------------------------- dist_train binary

/// One `dist_train launch` invocation.
#[derive(Debug, Clone, Copy)]
pub struct Launch {
    pub workers: usize,
    pub steps: usize,
    pub seed: u64,
    pub trace: bool,
    pub telemetry: bool,
}

/// A launch that exited 0, and the directory it wrote (removed on drop).
pub struct Launched {
    pub wall_s: f64,
    /// user + sys CPU of the launcher and every worker it waited for.
    pub cpu_s: f64,
    workers: usize,
    dir: PathBuf,
}

impl Drop for Launched {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// One training step of one rank, read from the program's own trace.
#[derive(Debug, Clone, Copy)]
pub struct TracedStep {
    pub start_us: f64,
    pub compute_us: f64,
    pub exchange_us: f64,
}

/// `dist_train`, expected next to the running `benchmark` binary.
pub fn dist_train_path() -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("cannot locate this executable: {e}"))?;
    let sibling = me.with_file_name("dist_train");
    if sibling.is_file() {
        Ok(sibling)
    } else {
        Err(format!(
            "{} is missing: run `bash benchmark/run.sh`, which builds `dist_train` and `benchmark` \
             side by side",
            sibling.display()
        ))
    }
}

/// Run one launch to completion. Past `deadline` the launcher's whole
/// process group is killed and the launch is an error; either way no
/// process outlives this call, and a failed launch leaves no directory.
pub fn launch(spec: &Launch, deadline: Duration) -> Result<Launched, String> {
    let exe = dist_train_path()?;
    let dir = scratch_dir("d")?;
    let log_path = dir.join("launch.log");
    let log = std::fs::File::create(&log_path).map_err(|e| format!("creating launch log: {e}"))?;
    let log_err = log.try_clone().map_err(|e| format!("cloning launch log: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("launch")
        .arg("--dir")
        .arg(&dir)
        .args(["--workers", &spec.workers.to_string()])
        .args(["--preset", PRESET])
        .args(["--seed", &spec.seed.to_string()])
        .args(["--steps", &spec.steps.to_string()])
        .stdin(Stdio::null())
        .stdout(log)
        .stderr(log_err)
        // Its own group, which the workers it spawns inherit: the
        // deadline can then kill all of them with one signal.
        .process_group(0);
    if spec.trace {
        cmd.arg("--trace");
    }
    if spec.telemetry {
        cmd.arg("--telemetry");
    }
    let cpu_before = sys::usage_children().cpu_s;
    let started = Instant::now();
    // From here on `launched` owns the directory: every early return
    // below removes it.
    let mut launched = Launched { wall_s: 0.0, cpu_s: 0.0, workers: spec.workers, dir };
    let mut child = cmd.spawn().map_err(|e| format!("spawning dist_train: {e}"))?;
    let pgid = child.id();
    let (done_tx, done_rx) = mpsc::channel::<()>();
    let watchdog = std::thread::spawn(move || {
        let expired = done_rx.recv_timeout(deadline) == Err(mpsc::RecvTimeoutError::Timeout);
        if expired {
            sys::kill_group(pgid);
        }
        expired
    });
    let status = child.wait();
    launched.wall_s = started.elapsed().as_secs_f64();
    let _ = done_tx.send(());
    let expired = watchdog.join().map_err(|_| "launch watchdog panicked".to_string())?;
    launched.cpu_s = sys::usage_children().cpu_s - cpu_before;
    let status = status.map_err(|e| format!("waiting for dist_train: {e}"))?;
    if expired {
        return Err(format!("launch exceeded its {deadline:?} deadline and was killed"));
    }
    if !status.success() {
        let log = std::fs::read_to_string(&log_path).unwrap_or_default();
        let tail: Vec<&str> = log.lines().rev().take(8).collect();
        return Err(format!(
            "dist_train exited with {status}: {}",
            tail.into_iter().rev().collect::<Vec<_>>().join(" | ")
        ));
    }
    Ok(launched)
}

impl Launched {
    fn read_json(&self, file: &str) -> Result<Json, String> {
        let path = self.dir.join(file);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Every worker survived and nothing degraded.
    pub fn check_clean(&self) -> Result<(), String> {
        let summary = self.read_json("summary.json")?;
        let survivors: Vec<f64> = summary
            .get("survivors")
            .and_then(Json::as_arr)
            .ok_or("summary.json has no survivors")?
            .iter()
            .filter_map(Json::as_f64)
            .collect();
        let everyone: Vec<f64> = (0..self.workers).map(|r| r as f64).collect();
        if survivors != everyone {
            return Err(format!("survivors {survivors:?}, expected {everyone:?}"));
        }
        match summary.get("degrades").and_then(Json::as_arr) {
            Some([]) => Ok(()),
            other => Err(format!("unexpected degrades: {other:?}")),
        }
    }

    /// Every rank ended on byte-identical parameters.
    pub fn check_params_identical(&self) -> Result<(), String> {
        let read = |r: usize| {
            std::fs::read(self.dir.join(format!("params_r{r}.bin")))
                .map_err(|e| format!("params_r{r}.bin: {e}"))
        };
        let first = read(0)?;
        if first.is_empty() {
            return Err("params_r0.bin is empty".into());
        }
        for r in 1..self.workers {
            if read(r)? != first {
                return Err(format!("params_r{r}.bin differs from params_r0.bin"));
            }
        }
        Ok(())
    }

    /// Per-step training loss, averaged over the ranks.
    pub fn mean_losses(&self) -> Result<Vec<f64>, String> {
        let mut sum: Vec<f64> = Vec::new();
        for r in 0..self.workers {
            let doc = self.read_json(&format!("result_r{r}.json"))?;
            let losses: Vec<f64> = doc
                .get("losses")
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("result_r{r}.json has no losses"))?
                .iter()
                .filter_map(Json::as_f64)
                .collect();
            if r == 0 {
                sum = losses;
            } else if losses.len() == sum.len() {
                sum.iter_mut().zip(&losses).for_each(|(s, l)| *s += l);
            } else {
                return Err(format!("rank {r} ran {} steps, rank 0 {}", losses.len(), sum.len()));
            }
        }
        let n = self.workers as f64;
        Ok(sum.into_iter().map(|s| s / n).collect())
    }

    /// The steps still in each rank's trace ring (the last 2048 of a
    /// long run), oldest first, from `trace_merged.json`. Timestamps
    /// are relative to each worker's own recorder epoch.
    pub fn traced_steps(&self) -> Result<Vec<Vec<TracedStep>>, String> {
        let doc = self.read_json("trace_merged.json")?;
        let events = doc.as_arr().ok_or("trace_merged.json is not an array")?;
        let mut out = Vec::with_capacity(self.workers);
        for rank in 0..self.workers {
            let spans_named = |name: &str| {
                let mut v: Vec<(f64, f64)> = events
                    .iter()
                    .filter(|e| {
                        e.get("name").and_then(Json::as_str) == Some(name)
                            && e.get("pid").and_then(Json::as_f64) == Some(rank as f64)
                    })
                    .filter_map(|e| Some((e.get("ts")?.as_f64()?, e.get("dur")?.as_f64()?)))
                    .collect();
                v.sort_by(|a, b| a.0.total_cmp(&b.0));
                v
            };
            let (computes, exchanges) = (spans_named("grad_compute"), spans_named("exchange"));
            // Pair each compute span with the exchange that follows it;
            // a ring that wrapped mid-step starts with an orphan.
            let mut steps = Vec::with_capacity(computes.len());
            let mut next = 0;
            for &(start_us, compute_us) in &computes {
                while next < exchanges.len() && exchanges[next].0 < start_us {
                    next += 1;
                }
                let Some(&(_, exchange_us)) = exchanges.get(next) else { break };
                steps.push(TracedStep { start_us, compute_us, exchange_us });
            }
            out.push(steps);
        }
        Ok(out)
    }
}

// -------------------------------------------------- thread-backend run

/// One in-process `train` call on the thread backend.
pub struct TrainRun {
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Mean training loss of every step.
    pub losses: Vec<f64>,
    /// Traced runs only: when rank 0 began each step still in its trace
    /// ring, in µs.
    pub step_starts_us: Vec<f64>,
    /// Traced runs only: the program's own Chrome trace.
    pub program_trace: Option<String>,
}

/// Train the quick preset for `steps` steps on [`RANKS`] worker threads.
pub fn thread_train(steps: usize, seed: u64, traced: bool) -> Result<TrainRun, String> {
    let mut cfg = preset(PRESET, RANKS, steps, seed);
    let session = traced.then(|| Arc::new(TraceSession::new()));
    cfg.trace = session.clone();
    let cpu_before = sys::cpu_total_s();
    let started = Instant::now();
    let result = try_train(&cfg).map_err(|e| format!("thread trainer failed: {e}"))?;
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_s = sys::cpu_total_s() - cpu_before;
    let mut step_starts_us = Vec::new();
    if let Some(s) = &session {
        let snapshot = s.recorder.snapshot();
        if let Some(lane) = snapshot.lanes.iter().find(|l| l.pid == 0 && l.tid == 0) {
            step_starts_us =
                lane.spans.iter().filter(|sp| sp.cat == "BACKWARD").map(|sp| sp.ts_us).collect();
        }
    }
    Ok(TrainRun {
        wall_s,
        cpu_s,
        losses: result.step_losses,
        step_starts_us,
        program_trace: session.map(|s| s.recorder.to_chrome_json()),
    })
}

// ------------------------------------------------ two-rank allreduce

/// Which `Wire` backend carries the frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireKind {
    /// `SocketMesh` over one `UnixStream::pair()`: framing, CRC, syscalls.
    Socket,
    /// `ChannelWire`: the same protocol with none of those.
    Channel,
}

/// Exact counts from rank 0's executor over the timed steps.
#[derive(Debug, Clone, Copy, Default)]
pub struct WireCounts {
    pub frames: u64,
    pub bytes: u64,
    /// Summed over both ranks; a healthy run has none.
    pub resends: u64,
    pub nacks: u64,
}

/// A closed loop of steps measured from rank 0.
pub struct StepRun {
    /// Construction plus the warm-up steps.
    pub setup_s: f64,
    /// Duration of every timed step, in seconds.
    pub step_s: Vec<f64>,
    /// The part of each timed step inside the program (the step less
    /// the harness's fill and check), in seconds.
    pub call_s: Vec<f64>,
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Timed or warm-up steps, on either rank, whose result was wrong.
    pub bad_steps: u64,
    pub counts: WireCounts,
}

fn wire_policy() -> RetryPolicy {
    RetryPolicy {
        base: Duration::from_millis(50),
        factor: 2,
        max_attempts: 6,
        tick: Duration::from_millis(1),
    }
}

type WirePair = (Box<dyn Wire>, Box<dyn Wire>);

fn wire_pair(kind: WireKind) -> Result<WirePair, String> {
    match kind {
        WireKind::Socket => {
            let (a, b) = UnixStream::pair().map_err(|e| format!("socketpair: {e}"))?;
            let mesh = |rank: usize, stream| {
                SocketMesh::new(rank, vec![0, 1], vec![(1 - rank, stream)], wire_policy())
                    .map_err(|e| format!("socket mesh rank {rank}: {e}"))
            };
            Ok((Box::new(mesh(0, a)?), Box::new(mesh(1, b)?)))
        }
        WireKind::Channel => {
            let mut wires = ChannelWire::mesh(RANKS);
            match (wires.pop(), wires.pop()) {
                (Some(w1), Some(w0)) => Ok((Box::new(w0), Box::new(w1))),
                _ => Err("channel mesh came back short".into()),
            }
        }
    }
}

/// One rank's side of the allreduce loop: fill from the seed, average
/// across the ranks, check every element.
struct AllreduceRank<'a> {
    exec: PeerExecutor<'a>,
    schedule: &'a Schedule,
    buf: Vec<f32>,
    rank: usize,
    seed: u64,
}

impl<'a> AllreduceRank<'a> {
    fn new(wire: &'a dyn Wire, schedule: &'a Schedule, rank: usize, seed: u64) -> Self {
        let exec = PeerExecutor::new(wire, wire_policy());
        AllreduceRank { exec, schedule, buf: vec![0.0; schedule.n_elems], rank, seed }
    }

    /// Returns the step's four boundaries (start, filled, reduced,
    /// checked) and whether the result was right.
    fn step(&mut self, step: usize) -> Result<([Instant; 4], bool), String> {
        let start = Instant::now();
        fill_ints(self.seed, step, self.rank, &mut self.buf);
        let filled = Instant::now();
        self.exec.begin_step(step);
        self.exec
            .allreduce(self.schedule, &mut self.buf, ReduceOp::Average, &[0, 1], &mut || {
                CtlSignal::Continue
            })
            .map_err(|e| format!("rank {} step {step}: {e}", self.rank))?;
        let reduced = Instant::now();
        let ok = is_average(self.seed, step, &self.buf);
        Ok(([start, filled, reduced, Instant::now()], ok))
    }
}

/// `warm` untimed then `timed` timed ring-allreduce steps of `n_elems`
/// f32 between two ranks (this thread and one more). With `spans`,
/// every timed step is recorded with its fill / allreduce / check
/// children.
pub fn allreduce_run(
    kind: WireKind,
    n_elems: usize,
    warm: usize,
    timed: usize,
    seed: u64,
    mut spans: Option<&mut Spans>,
) -> Result<StepRun, String> {
    let setup_started = Instant::now();
    let (w0, w1) = wire_pair(kind)?;
    let schedule = Algorithm::Ring.build(RANKS, n_elems);
    schedule.verify_allreduce().map_err(|v| format!("ring schedule rejected: {v:?}"))?;
    let total = warm + timed;
    std::thread::scope(|scope| {
        let schedule = &schedule;
        let peer = scope.spawn(move || -> Result<(u64, u64, u64), String> {
            let mut rank = AllreduceRank::new(&*w1, schedule, 1, seed);
            let mut bad = 0;
            for step in 0..total {
                bad += u64::from(!rank.step(step)?.1);
            }
            let stats = rank.exec.stats();
            Ok((bad, stats.resends, stats.nacks_sent))
        });
        // Owned by this closure so that an early return drops the wire,
        // which fails the peer's next receive and lets the scope join it.
        let w0 = w0;
        let mut rank = AllreduceRank::new(&*w0, schedule, 0, seed);
        let mut bad_steps = 0;
        for step in 0..warm {
            bad_steps += u64::from(!rank.step(step)?.1);
        }
        let setup_s = setup_started.elapsed().as_secs_f64();
        let before = rank.exec.stats();
        let cpu_before = sys::cpu_total_s();
        let run_started = Instant::now();
        let (mut step_s, mut call_s) = (Vec::with_capacity(timed), Vec::with_capacity(timed));
        for step in warm..total {
            let (t, ok) = rank.step(step)?;
            bad_steps += u64::from(!ok);
            step_s.push((t[3] - t[0]).as_secs_f64());
            call_s.push((t[2] - t[1]).as_secs_f64());
            if let Some(spans) = spans.as_deref_mut() {
                let id = spans.push("step", t[0], t[3], None, 1);
                spans.push("fill", t[0], t[1], Some(id), n_elems as u64);
                spans.push("allreduce", t[1], t[2], Some(id), n_elems as u64);
                spans.push("check", t[2], t[3], Some(id), n_elems as u64);
            }
        }
        let wall_s = run_started.elapsed().as_secs_f64();
        let cpu_s = sys::cpu_total_s() - cpu_before;
        let after = rank.exec.stats();
        let (peer_bad, peer_resends, peer_nacks) =
            peer.join().map_err(|_| "rank 1 thread panicked".to_string())??;
        Ok(StepRun {
            setup_s,
            step_s,
            call_s,
            wall_s,
            cpu_s,
            bad_steps: bad_steps + peer_bad,
            counts: WireCounts {
                frames: after.data_frames - before.data_frames,
                bytes: after.data_bytes - before.data_bytes,
                resends: after.resends + peer_resends,
                nacks: after.nacks_sent + peer_nacks,
            },
        })
    })
}

// ------------------------------------------------- pipelined executor

/// A closed loop of `PipelineExecutor::step` calls on the wide net.
pub struct PipeRun {
    pub steps: StepRun,
    /// Mean loss across replicas of every step, warm-up included.
    pub losses: Vec<f64>,
    pub replicas_identical: bool,
    /// Allocator calls by the whole process during the timed steps.
    pub allocs: usize,
    /// Seconds inside tile reductions, summed over the timed steps.
    pub reduce_s: f64,
    /// Traced runs only: the program's own Chrome trace.
    pub program_trace: Option<String>,
}

/// Distinct pre-generated batches the step loop cycles through, so
/// data generation stays out of the timed region.
const PIPE_BATCHES: usize = 16;

/// Train the wide net with [`RANKS`] replicas × [`BATCH_PER_WORKER`]
/// images on `workers` pool lanes, int8 codec with error feedback.
pub fn pipe_run(
    workers: usize,
    warm: usize,
    timed: usize,
    seed: u64,
    traced: bool,
    mut spans: Option<&mut Spans>,
) -> Result<PipeRun, String> {
    let setup_started = Instant::now();
    let cfg = net_shape(true);
    let data = DataConfig::default();
    let n_params = cfg.n_params();
    let lr = LrSchedule::constant(0.05, usize::MAX);
    let mut nets: Vec<SegNet> = (0..RANKS).map(|_| SegNet::new(cfg, seed)).collect();
    let mut opts: Vec<MomentumSgd> =
        (0..RANKS).map(|_| MomentumSgd::new(lr, 0.9, n_params)).collect();
    let mut exec = PipelineExecutor::new(&cfg, RANKS, BATCH_PER_WORKER, 1, workers);
    let session = traced.then(TraceSession::new);
    if let Some(s) = &session {
        exec.attach_trace(&s.recorder);
    }
    let batches: Vec<Vec<Vec<Sample>>> = (0..PIPE_BATCHES)
        .map(|b| {
            (0..RANKS)
                .map(|r| {
                    let start = ((b * RANKS + r) * BATCH_PER_WORKER) as u64;
                    generate_batch(&data, seed, start, BATCH_PER_WORKER)
                })
                .collect()
        })
        .collect();
    let total = warm + timed;
    let mut losses = Vec::with_capacity(total);
    let mut step_s = Vec::with_capacity(timed);
    let (mut setup_s, mut reduce_s, mut cpu_before, mut allocs_before) = (0.0, 0.0, 0.0, 0);
    let mut run_started = Instant::now();
    for i in 0..total {
        if i == warm {
            setup_s = setup_started.elapsed().as_secs_f64();
            cpu_before = sys::cpu_total_s();
            allocs_before = sys::alloc_events();
            run_started = Instant::now();
        }
        let t0 = Instant::now();
        let loss = exec.step(
            nets.iter_mut().zip(opts.iter_mut()),
            &batches[i % PIPE_BATCHES],
            CodecKind::Int8,
            true,
        );
        let t1 = Instant::now();
        // Inside reserved capacity: the loop itself must not allocate.
        losses.push(loss);
        if i >= warm {
            step_s.push((t1 - t0).as_secs_f64());
            reduce_s += exec.last_reduce_seconds();
            if let Some(spans) = spans.as_deref_mut() {
                spans.push("step", t0, t1, None, 1);
            }
        }
    }
    let wall_s = run_started.elapsed().as_secs_f64();
    // Traced runs record harness spans, which may grow a Vec.
    let allocs = if spans.is_some() { 0 } else { sys::alloc_events() - allocs_before };
    let cpu_s = sys::cpu_total_s() - cpu_before;
    let replicas_identical = nets[1..]
        .iter()
        .all(|n| n.params().iter().zip(nets[0].params()).all(|(a, b)| a.to_bits() == b.to_bits()));
    Ok(PipeRun {
        steps: StepRun {
            setup_s,
            call_s: step_s.clone(),
            step_s,
            wall_s,
            cpu_s,
            bad_steps: 0,
            counts: WireCounts::default(),
        },
        losses,
        replicas_identical,
        allocs,
        reduce_s,
        program_trace: session.map(|s| s.recorder.to_chrome_json()),
    })
}

// ------------------------------------------------------- layer calls
//
// Each `op_*` builds its inputs from the seed and returns a closure
// that makes exactly one call into one layer; the layer pass times it.

pub type Op = Box<dyn FnMut()>;

/// `SegNet::batch_loss_grad_ws` on one worker's batch.
pub fn op_grad(wide: bool, seed: u64) -> Op {
    let cfg = net_shape(wide);
    let net = SegNet::new(cfg, seed);
    let batch = generate_batch(&DataConfig::default(), seed, 0, BATCH_PER_WORKER);
    let mut bw = BatchWorkspace::new(&cfg);
    Box::new(move || {
        black_box(net.batch_loss_grad_ws(black_box(&batch), &mut bw));
    })
}

/// `generate_batch` for one worker's batch, a fresh index range per call.
pub fn op_segdata(seed: u64) -> Op {
    let data = DataConfig::default();
    let mut start = 0u64;
    Box::new(move || {
        black_box(generate_batch(&data, seed, start, BATCH_PER_WORKER));
        start += BATCH_PER_WORKER as u64;
    })
}

/// `MomentumSgd::apply` over the wide net's parameters.
pub fn op_sgd(seed: u64) -> Op {
    let n = wide_params();
    let mut opt = MomentumSgd::new(LrSchedule::constant(1e-3, usize::MAX), 0.9, n);
    let (mut params, mut grad) = (vec![0.0f32; n], vec![0.0f32; n]);
    fill_floats(seed, &mut params);
    fill_floats(seed + 1, &mut grad);
    Box::new(move || opt.apply(black_box(&mut params), black_box(&grad)))
}

fn wide_checkpoint(seed: u64) -> Checkpoint {
    let n = wide_params();
    let (mut params, mut velocity) = (vec![0.0f32; n], vec![0.0f32; n]);
    fill_floats(seed, &mut params);
    fill_floats(seed + 1, &mut velocity);
    Checkpoint { step: 1, live: (0..RANKS).collect(), opt_step: 1, params, velocity }
}

/// `Checkpoint::save` of the wide net's state to `path` (atomic, fsynced).
pub fn op_checkpoint_save(path: PathBuf, seed: u64) -> Op {
    let ck = wide_checkpoint(seed);
    Box::new(move || ck.save(&path).expect("checkpoint save into the scratch dir"))
}

/// `Checkpoint::load` of a file written once up front.
pub fn op_checkpoint_load(path: PathBuf, seed: u64) -> Result<Op, String> {
    wide_checkpoint(seed).save(&path).map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(Box::new(move || {
        black_box(Checkpoint::load(&path).expect("checkpoint written above loads"));
    }))
}

fn codec_kind(name: &str) -> CodecKind {
    CodecKind::parse(name).expect("codec names in this crate are literals")
}

/// `Codec::encode` (or `decode` of one encoding) of `n` gradient-like floats.
pub fn op_codec(name: &str, encode: bool, n: usize, seed: u64) -> Op {
    let codec = codec_for(codec_kind(name));
    let mut scratch = EncodeScratch::new();
    let mut src = vec![0.0f32; n];
    fill_floats(seed, &mut src);
    let mut wire = Vec::new();
    codec.encode(&src, &mut wire, &mut scratch);
    if encode {
        Box::new(move || codec.encode(black_box(&src), &mut wire, &mut scratch))
    } else {
        Box::new(move || codec.decode(black_box(&wire), &mut src, &mut scratch))
    }
}

/// Raw f32 bytes over encoded bytes for `n` elements (exact).
pub fn codec_ratio(name: &str, n: usize) -> f64 {
    (4 * n) as f64 / codec_kind(name).encoded_len(n) as f64
}

/// Int8 `ErrorFeedback::roundtrip` over the wide net's gradient.
pub fn op_ef_roundtrip(seed: u64) -> Op {
    let n = wide_params();
    let mut ef = ErrorFeedback::new(n);
    let mut scratch = EncodeScratch::new();
    let mut fresh = vec![0.0f32; n];
    fill_floats(seed, &mut fresh);
    let mut grad = fresh.clone();
    Box::new(move || {
        grad.copy_from_slice(&fresh);
        ef.roundtrip(CodecKind::Int8, black_box(&mut grad), &mut scratch);
    })
}

/// `combine_sum` of `n` floats into `n` floats.
pub fn op_combine_sum(n: usize, seed: u64) -> Op {
    let (mut dst, mut src) = (vec![0.0f32; n], vec![0.0f32; n]);
    fill_floats(seed, &mut src);
    Box::new(move || combine_sum(black_box(&mut dst), black_box(&src)))
}

/// `ExecContext::allreduce` of `n` floats across [`RANKS`] rank threads.
pub fn op_thread_allreduce(n: usize, seed: u64) -> Result<Op, String> {
    let schedule = Algorithm::Ring.build(RANKS, n);
    let ctx = ExecContext::for_schedule(&schedule).map_err(|e| format!("thread executor: {e}"))?;
    let mut bufs: Vec<Vec<f32>> = (0..RANKS).map(|_| vec![0.0f32; n]).collect();
    for (r, b) in bufs.iter_mut().enumerate() {
        fill_floats(seed + r as u64, b);
    }
    Ok(Box::new(move || {
        ctx.allreduce(&schedule, black_box(&mut bufs), ReduceOp::Average)
            .expect("verified schedule runs")
    }))
}

/// `crc32_bytes` over `bytes` bytes.
pub fn op_crc(bytes: usize, seed: u64) -> Op {
    let buf = payload(bytes, seed);
    Box::new(move || {
        black_box(crc32_bytes(black_box(&buf)));
    })
}

fn payload(bytes: usize, seed: u64) -> Vec<u8> {
    let mut floats = vec![0.0f32; bytes.div_ceil(4)];
    fill_floats(seed, &mut floats);
    let mut out: Vec<u8> = floats.iter().flat_map(|f| f.to_le_bytes()).collect();
    out.truncate(bytes);
    out
}

fn data_frame(bytes: usize, seed: u64) -> Frame {
    let mut frame = Frame::control(FrameKind::Data, 0, 0, 0);
    frame.payload = payload(bytes, seed);
    frame
}

/// `encode_into` of a data frame with `bytes` of payload, buffer reused.
pub fn op_frame_encode(bytes: usize, seed: u64) -> Op {
    let frame = data_frame(bytes, seed);
    let mut out = Vec::new();
    Box::new(move || encode_into(black_box(&frame), &mut out))
}

/// `parse_body` of that frame, payload buffer recycled.
pub fn op_frame_parse(bytes: usize, seed: u64) -> Op {
    let mut encoded = Vec::new();
    encode_into(&data_frame(bytes, seed), &mut encoded);
    let mut pooled = Vec::with_capacity(bytes);
    Box::new(move || {
        let buf = std::mem::take(&mut pooled);
        let frame = parse_body(black_box(&encoded[4..]), buf).expect("frame encoded above parses");
        pooled = frame.payload;
    })
}

const LONG_WAIT: Duration = Duration::from_secs(20);

/// Round-trip times, in µs, of a 64-byte data frame bounced off an
/// echoing peer thread: `warm` untimed, then `iters` timed.
pub fn pingpong(kind: WireKind, warm: usize, iters: usize) -> Result<Vec<f64>, String> {
    let (w0, w1) = wire_pair(kind)?;
    let total = warm + iters;
    std::thread::scope(|scope| {
        let echo = scope.spawn(move || -> Result<(), String> {
            for _ in 0..total {
                let f = w1.recv_timeout(0, LONG_WAIT).map_err(|e| format!("echo receive: {e}"))?;
                w1.send(0, &f).map_err(|e| format!("echo send: {e}"))?;
                w1.release(f.payload);
            }
            Ok(())
        });
        let w0 = w0;
        let ball = data_frame(64, 0);
        let mut samples = Vec::with_capacity(iters);
        for i in 0..total {
            let t0 = Instant::now();
            w0.send(1, &ball).map_err(|e| format!("ping send: {e}"))?;
            let f = w0.recv_timeout(1, LONG_WAIT).map_err(|e| format!("ping receive: {e}"))?;
            let dt = t0.elapsed();
            w0.release(f.payload);
            if i >= warm {
                samples.push(dt.as_secs_f64() * 1e6);
            }
        }
        echo.join().map_err(|_| "echo thread panicked".to_string())??;
        Ok(samples)
    })
}

/// Seconds to push `frames` data frames of `bytes` payload one way and
/// hear one small frame back.
pub fn stream(kind: WireKind, frames: usize, bytes: usize, seed: u64) -> Result<f64, String> {
    let (w0, w1) = wire_pair(kind)?;
    std::thread::scope(|scope| {
        let sink = scope.spawn(move || -> Result<(), String> {
            for _ in 0..frames {
                let f = w1.recv_timeout(0, LONG_WAIT).map_err(|e| format!("sink receive: {e}"))?;
                w1.release(f.payload);
            }
            w1.send(0, &Frame::control(FrameKind::Ack, 1, 0, 0))
                .map_err(|e| format!("sink ack: {e}"))
        });
        let w0 = w0;
        let frame = data_frame(bytes, seed);
        let t0 = Instant::now();
        for _ in 0..frames {
            w0.send(1, &frame).map_err(|e| format!("stream send: {e}"))?;
        }
        let done = w0.recv_timeout(1, LONG_WAIT).map_err(|e| format!("stream ack: {e}"))?;
        let secs = t0.elapsed().as_secs_f64();
        w0.release(done.payload);
        sink.join().map_err(|_| "sink thread panicked".to_string())??;
        Ok(secs)
    })
}

/// Seconds for `Rendezvous::bind` + [`RANKS`] × (`join` + `build_mesh`)
/// + `assemble`, all in this process.
pub fn rendezvous_assemble() -> Result<f64, String> {
    let dir = scratch_dir("rz")?;
    let t0 = Instant::now();
    let result = (|| {
        let rdzv = Rendezvous::bind(&dir).map_err(|e| format!("rendezvous bind: {e}"))?;
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..RANKS)
                .map(|i| {
                    let dir = &dir;
                    scope.spawn(move || -> Result<(), String> {
                        let clock = FaultClock::real();
                        let joined = join(dir, &i.to_string(), &wire_policy(), &clock)
                            .map_err(|e| format!("rendezvous join {i}: {e}"))?;
                        joined
                            .build_mesh(wire_policy(), &clock)
                            .map_err(|e| format!("mesh build {i}: {e}"))?;
                        Ok(())
                    })
                })
                .collect();
            let assembled = rdzv.assemble(RANKS).map_err(|e| format!("rendezvous assemble: {e}"));
            for w in workers {
                w.join().map_err(|_| "rendezvous worker panicked".to_string())??;
            }
            assembled.map(|_| ())
        })
    })();
    let secs = t0.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&dir);
    result.map(|()| secs)
}
