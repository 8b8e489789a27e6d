//! The five workloads and the end-to-end pass over them.
//!
//! Every workload is a closed loop — the next step starts when the
//! previous one returns — driven by this one process with at most
//! `nproc` driver threads. A run is one back-to-back repetition per
//! second of `--seconds`; each sets the system up from nothing, warms
//! it, then times a fixed number of steps (about a second's worth).
//!
//! Every time-based value comes from the run's **best repetition** —
//! the one with the highest step rate — and set-up time from the
//! fastest set-up. The reference box is a slice of a shared host that
//! runs everything a third slower for spells of a few seconds to a
//! minute. That noise only ever adds time, so the fastest of ten
//! repetitions is the program on an undisturbed machine as long as one
//! second in ten was quiet, where the median repetition needs five —
//! and reads a third high whenever a spell covers half the run.
//! `spread_pct` says how far the repetitions disagreed.

use std::time::Duration;

use crate::stats::{fastest, percentile_of, spread_pct};
use crate::sut::{self, Launch, StepRun, WireKind};
use crate::sys;

/// Reference-box seconds of timed steps in one repetition.
const REP_S: f64 = 1.0;

/// Every subprocess launch must end within this, or its process group
/// is killed and its steps count as failed.
pub const LAUNCH_DEADLINE: Duration = Duration::from_secs(60);

/// How a workload is sized: a fixed warm-up, and timed steps chosen so
/// that a repetition times about [`REP_S`] on the 2-core reference box,
/// and a `--seconds S` run about `S` seconds in total. Payloads and
/// shapes never scale.
struct Shape {
    name: &'static str,
    /// Untimed steps before the timed ones (`*_quick`: the length of
    /// the short run that is subtracted from the long one).
    warm: usize,
    /// Timed steps per second of budget: the rate measured on the
    /// reference box, rounded.
    ref_steps_per_s: f64,
}

const SHAPES: [Shape; 5] = [
    Shape { name: "dist2_quick", warm: 200, ref_steps_per_s: 900.0 },
    Shape { name: "thread2_quick", warm: 200, ref_steps_per_s: 1_100.0 },
    Shape { name: "wire_bw_4m", warm: 10, ref_steps_per_s: 29.0 },
    Shape { name: "wire_lat_6k", warm: 2_000, ref_steps_per_s: 6_400.0 },
    Shape { name: "pipe_wide_int8", warm: 20, ref_steps_per_s: 185.0 },
];

/// Step counts of one repetition.
#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    pub reps: usize,
    pub warm: usize,
    pub timed: usize,
}

/// Size `workload` for an end-to-end run that measures for `seconds`:
/// that many repetitions (also how many times set-up is measured).
/// `quick` is the ~1 % smoke size.
pub fn sizing(workload: &str, seconds: f64, quick: bool) -> Option<Sizing> {
    let reps = if quick { 2 } else { (seconds / REP_S).round().max(3.0) as usize };
    Some(Sizing { reps, ..single(workload, REP_S, quick)? })
}

/// One repetition of `workload` timing about `timed_s` reference-box
/// seconds of steps (the traced pass runs short ones).
pub fn single(workload: &str, timed_s: f64, quick: bool) -> Option<Sizing> {
    let shape = SHAPES.iter().find(|s| s.name == workload)?;
    let (scale, warm) = if quick { (0.05, shape.warm.div_ceil(20)) } else { (1.0, shape.warm) };
    let timed = (shape.ref_steps_per_s * timed_s * scale).round() as usize;
    Some(Sizing { reps: 1, warm, timed: timed.max(4) })
}

/// What one repetition measured: `steps` timed steps took `wall_s`
/// less the run's fastest `overhead` wall (and likewise for CPU).
struct Rep {
    setup_s: f64,
    steps: u64,
    wall_s: f64,
    cpu_s: f64,
    /// `*_quick` only, where the timed steps cannot be separated from
    /// start-up inside one run: (wall, CPU) of the short twin run that
    /// is all start-up and warm-up. The *fastest* twin of the run is
    /// subtracted from every repetition, so a disturbed twin does not
    /// flatter the repetition it happens to sit next to.
    overhead: (f64, f64),
    /// Per-step durations, where the workload has a step boundary the
    /// harness can see with tracing off.
    step_ms: Vec<f64>,
}

/// The result of one end-to-end or traced run of one workload.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<(&'static str, f64)>,
    /// `(max − min) / median` over the repetitions, per metric, in %.
    pub spread_pct: Vec<(&'static str, f64)>,
    /// An op is a step. A repetition that errors, times out or fails a
    /// check fails all its steps.
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Pool lanes for the pipelined executor: two, or one on a single core.
pub fn pipe_workers() -> usize {
    cores().min(2)
}

fn require(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

/// Training made progress: every loss finite, and the last tenth of the
/// run lower on average than the first tenth.
fn check_learning(losses: &[f64], expected_steps: usize) -> Result<(), String> {
    require(losses.len() == expected_steps, || {
        format!("{} losses for {expected_steps} steps", losses.len())
    })?;
    require(losses.iter().all(|l| l.is_finite()), || "a training loss is not finite".into())?;
    let tenth = (losses.len() / 10).max(1);
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    let (head, tail) = (mean(&losses[..tenth]), mean(&losses[losses.len() - tenth..]));
    require(tail < head, || {
        format!("loss did not fall: first tenth {head:.4}, last tenth {tail:.4}")
    })
}

fn checked_launch(steps: usize, seed: u64) -> Result<sut::Launched, String> {
    let spec = Launch { workers: sut::RANKS, steps, seed, trace: false, telemetry: false };
    let launched = sut::launch(&spec, LAUNCH_DEADLINE)?;
    launched.check_clean()?;
    launched.check_params_identical()?;
    Ok(launched)
}

/// A long run and its short twin (see [`Rep::overhead`]).
fn beyond(sz: Sizing, short: (f64, f64), long: (f64, f64)) -> Rep {
    Rep {
        setup_s: short.0,
        steps: sz.timed as u64,
        wall_s: long.0,
        cpu_s: long.1,
        overhead: short,
        step_ms: Vec::new(),
    }
}

fn dist2_quick(sz: Sizing, seed: u64, first: bool) -> Result<Rep, String> {
    let short = checked_launch(sz.warm, seed)?;
    if first {
        // Same seed, same steps, thread backend: the two trainers are
        // one algorithm, so their losses agree to rounding.
        let dist = short.mean_losses()?;
        let thread = sut::thread_train(sz.warm, seed, false)?.losses;
        require(dist.len() == thread.len(), || {
            format!("{} dist losses, {} thread losses", dist.len(), thread.len())
        })?;
        for (step, (d, t)) in dist.iter().zip(&thread).enumerate() {
            require((d - t).abs() <= 1e-12 * t.abs().max(f64::MIN_POSITIVE), || {
                format!("step {step}: dist loss {d:e} differs from thread loss {t:e}")
            })?;
        }
    }
    let long = checked_launch(sz.warm + sz.timed, seed)?;
    check_learning(&long.mean_losses()?, sz.warm + sz.timed)?;
    Ok(beyond(sz, (short.wall_s, short.cpu_s), (long.wall_s, long.cpu_s)))
}

fn thread2_quick(sz: Sizing, seed: u64) -> Result<Rep, String> {
    let short = sut::thread_train(sz.warm, seed, false)?;
    let long = sut::thread_train(sz.warm + sz.timed, seed, false)?;
    check_learning(&long.losses, sz.warm + sz.timed)?;
    Ok(beyond(sz, (short.wall_s, short.cpu_s), (long.wall_s, long.cpu_s)))
}

fn from_steps(run: StepRun) -> Rep {
    Rep {
        setup_s: run.setup_s,
        steps: run.step_s.len() as u64,
        wall_s: run.wall_s,
        cpu_s: run.cpu_s,
        overhead: (0.0, 0.0),
        step_ms: run.step_s.iter().map(|s| s * 1e3).collect(),
    }
}

/// Every step on both ranks produced exactly the expected average.
/// Resends and nacks are counted, not failed on: the retry policy nacks
/// after 50 ms of silence, and on a shared 2-core box a rank thread is
/// now and then descheduled for longer than that. They are reported by
/// the traced pass (`collectives.exec_peer.resends` / `.nacks`) and
/// noted here when they happen.
pub fn check_wire(run: &StepRun) -> Result<(), String> {
    if run.counts.resends + run.counts.nacks > 0 {
        eprintln!(
            "note: {} resends and {} nacks — a rank stalled past the retry deadline",
            run.counts.resends, run.counts.nacks
        );
    }
    require(run.bad_steps == 0, || format!("{} steps produced a wrong average", run.bad_steps))
}

fn wire(elems: usize, sz: Sizing, seed: u64) -> Result<Rep, String> {
    let run = sut::allreduce_run(WireKind::Socket, elems, sz.warm, sz.timed, seed, None)?;
    check_wire(&run)?;
    Ok(from_steps(run))
}

pub fn check_pipe(run: &sut::PipeRun) -> Result<(), String> {
    check_learning(&run.losses, run.losses.len())?;
    require(run.replicas_identical, || "replica parameters diverged".into())?;
    require(run.allocs == 0, || format!("{} allocations during the timed steps", run.allocs))
}

fn pipe_wide_int8(sz: Sizing, seed: u64) -> Result<Rep, String> {
    let run = sut::pipe_run(pipe_workers(), sz.warm, sz.timed, seed, false, None)?;
    check_pipe(&run)?;
    Ok(from_steps(run.steps))
}

fn repetition(workload: &str, sz: Sizing, seed: u64, first: bool) -> Result<Rep, String> {
    match workload {
        "dist2_quick" => dist2_quick(sz, seed, first),
        "thread2_quick" => thread2_quick(sz, seed),
        "wire_bw_4m" => wire(sut::BW_ELEMS, sz, seed),
        "wire_lat_6k" => wire(sut::quick_grad_elems(), sz, seed),
        "pipe_wide_int8" => pipe_wide_int8(sz, seed),
        other => Err(format!("no such workload: {other}")),
    }
}

/// Peak RSS of the system under test: the largest waited-for
/// descendant for the subprocess workload (the benchmark's own memory
/// is not the program's), this process otherwise.
fn peak_rss_mib(workload: &str) -> f64 {
    let kb = if workload == "dist2_quick" {
        sys::usage_children().max_rss_kb
    } else {
        sys::peak_rss_self_kb()
    };
    kb as f64 / 1024.0
}

/// The end-to-end pass: tracing off, every end-to-end metric.
pub fn run(workload: &str, seed: u64, seconds: f64, quick: bool) -> Result<Outcome, String> {
    let sz =
        sizing(workload, seconds, quick).ok_or_else(|| format!("no such workload: {workload}"))?;
    let mut out = Outcome::default();
    let mut reps = Vec::with_capacity(sz.reps);
    let mut peak_rss = f64::NAN;
    for i in 0..sz.reps {
        out.attempted += sz.timed as u64;
        let rep = repetition(workload, sz, seed, i == 0);
        if i == 0 {
            // One set-up and run, not all of them: what later repetitions add is
            // the allocator's fragmentation, which varies from run to run.
            peak_rss = peak_rss_mib(workload);
        }
        match rep {
            Ok(rep) => reps.push(rep),
            Err(e) => {
                out.failed += sz.timed as u64;
                out.errors.push(format!("{workload} repetition {i}: {e}"));
            }
        }
    }
    if reps.is_empty() {
        return Err(out.errors.join("; "));
    }
    let per_rep = |f: &dyn Fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    let setup = per_rep(&|r| r.setup_s);
    let (wall_overhead, cpu_overhead) = reps[fastest(&per_rep(&|r| r.overhead.0))].overhead;
    if let Some(r) = reps.iter().find(|r| r.wall_s <= wall_overhead) {
        return Err(format!(
            "a long run ({:.3} s) was no longer than the fastest short one ({wall_overhead:.3} s)",
            r.wall_s
        ));
    }
    let rate = per_rep(&|r| r.steps as f64 / (r.wall_s - wall_overhead));
    let cpu = per_rep(&|r| (r.cpu_s - cpu_overhead).max(0.0) / r.steps as f64 * 1e3);
    // With a visible step boundary the step time is the repetition's
    // median step; without (`*_quick`) its mean step.
    let step = per_rep(&|r| {
        if r.step_ms.is_empty() {
            1e3 * (r.wall_s - wall_overhead) / r.steps as f64
        } else {
            percentile_of(&r.step_ms, 50.0)
        }
    });
    let best = fastest(&per_rep(&|r| (r.wall_s - wall_overhead) / r.steps as f64));
    out.metrics = vec![
        ("setup_s", setup[fastest(&setup)]),
        ("steps_per_s", rate[best]),
        ("step_ms_p50", step[best]),
        ("cpu_ms_per_step", cpu[best]),
        ("peak_rss_mb", peak_rss),
    ];
    out.spread_pct = vec![
        ("setup_s", spread_pct(&setup)),
        ("steps_per_s", spread_pct(&rate)),
        ("step_ms_p50", spread_pct(&step)),
        ("cpu_ms_per_step", spread_pct(&cpu)),
    ];
    Ok(out)
}
