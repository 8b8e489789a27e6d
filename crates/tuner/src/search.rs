//! Search strategies over the knob space, each a walk over the same
//! [`Axis`] list: exhaustive grid, greedy coordinate descent (the paper
//! tunes one knob family at a time — the coordinate-descent loop
//! formalizes that methodology) and the online hill-climber
//! (`HOROVOD_AUTOTUNE`).

use crate::objective::{Objective, Scored};
use crate::space::{Axis, Candidate, KnobSpace};

/// Result of a tuning run.
#[derive(Debug, Clone)]
pub struct TuneReport {
    pub best: Scored,
    /// Candidates evaluated, in evaluation order: its length is the
    /// sweep cost.
    pub trajectory: Vec<Scored>,
}

/// Exhaustive sweep: score every candidate, return them sorted best
/// first.
pub fn grid_search(space: &KnobSpace, objective: &Objective<'_>) -> TuneReport {
    space.validate();
    let mut scored: Vec<Scored> = space.candidates().iter().map(|c| objective.eval(c)).collect();
    let trajectory = scored.clone();
    scored.sort_by(|a, b| b.throughput.total_cmp(&a.throughput));
    TuneReport { best: scored.swap_remove(0), trajectory }
}

/// Greedy coordinate descent: starting from `start`, optimize one axis at
/// a time in [`Axis::ALL`] order (backend → fusion → cycle → cache →
/// hierarchical), repeating until a full round makes no improvement (or
/// `max_rounds`).
///
/// Evaluates `O(rounds × Σ axis sizes)` candidates instead of the full
/// product — the practical version of the paper's one-knob-at-a-time
/// methodology.
pub fn coordinate_descent(
    space: &KnobSpace,
    objective: &Objective<'_>,
    start: Candidate,
    max_rounds: usize,
) -> TuneReport {
    space.validate();
    assert!(max_rounds >= 1);
    let mut best = objective.eval(&start);
    let mut trajectory = vec![best.clone()];

    for _round in 0..max_rounds {
        let before = best.throughput;
        for axis in Axis::ALL {
            for i in 0..space.len(axis) {
                let mut c = best.candidate.clone();
                space.set(axis, i, &mut c);
                if c == best.candidate {
                    continue;
                }
                let scored = objective.eval(&c);
                trajectory.push(scored.clone());
                if scored.throughput > best.throughput {
                    best = scored;
                }
            }
        }
        if best.throughput <= before * (1.0 + 1e-9) {
            break; // fixed point
        }
    }
    TuneReport { best, trajectory }
}

/// Online autotuning, like `HOROVOD_AUTOTUNE=1`: tune *during* training
/// by measuring `windows` windows of `objective.steps` steps each, the
/// first at `start`, window `w` reseeded with `objective.seed + w`.
///
/// Every axis of `space` with one value pins the climb: `start` takes
/// that value. The others, fusion and cycle only, move in turn: each
/// window moves one of them one ladder step from the current candidate,
/// in the one shared direction, kept when its mean step time improves,
/// else the direction flips.
///
/// Real Horovod uses Bayesian optimization; a deterministic hill-climber
/// captures the behaviour that matters here (convergence to a good
/// region within tens of windows, online, without touching model or
/// MPI code).
pub fn hill_climb(
    space: &KnobSpace,
    objective: &Objective<'_>,
    start: Candidate,
    windows: usize,
) -> TuneReport {
    space.validate();
    assert!(windows >= 1);
    let (moving, pinned): (Vec<Axis>, Vec<Axis>) =
        Axis::ALL.into_iter().partition(|&axis| space.len(axis) > 1);
    assert!(
        matches!(moving[..], [Axis::Fusion] | [Axis::Cycle] | [Axis::Fusion, Axis::Cycle]),
        "the climber moves fusion and cycle only, not {moving:?}"
    );
    let mut start = start;
    for axis in pinned {
        space.set(axis, 0, &mut start);
    }
    let window = |c: &Candidate, w: usize| {
        Objective { seed: objective.seed.wrapping_add(w as u64), ..*objective }.eval(c)
    };

    let mut at: Vec<usize> = moving.iter().map(|&axis| space.nearest(axis, &start)).collect();
    let mut best = window(&start, 0);
    let mut trajectory = vec![best.clone()];
    let mut direction: isize = -1; // start by shrinking (defaults are large)
    for w in 1..windows {
        let k = (w - 1) % moving.len();
        let next = ladder_step(at[k], direction, space.len(moving[k]));
        let mut c = best.candidate.clone();
        space.set(moving[k], next, &mut c);
        let scored = window(&c, w);
        trajectory.push(scored.clone());
        if scored.mean_step_time < best.mean_step_time {
            at[k] = next;
            best = scored;
        } else {
            direction = -direction; // bounce
        }
    }
    TuneReport { best, trajectory }
}

/// One step from `idx` in direction `dir`, clamped to a ladder of `len`.
fn ladder_step(idx: usize, dir: isize, len: usize) -> usize {
    (idx as isize + dir).clamp(0, len as isize - 1) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlmodels::{deeplab_paper, GpuModel};
    use horovod::HorovodConfig;
    use mpi_profiles::Backend;
    use summit_sim::{Machine, MachineConfig};

    #[test]
    fn grid_finds_at_least_the_default() {
        let machine = Machine::new(MachineConfig::summit_for_gpus(24));
        let model = deeplab_paper();
        let gpu = GpuModel::v100();
        let obj = Objective::new(&machine, &model, &gpu, 1, 24, 2, 5);
        let space = KnobSpace::small();
        let report = grid_search(&space, &obj);
        assert_eq!(report.trajectory.len(), space.size());
        let default = obj.eval(&Candidate::paper_default());
        assert!(report.best.throughput >= default.throughput * 0.999);
    }

    #[test]
    fn coordinate_descent_improves_on_default_cheaply() {
        let machine = Machine::new(MachineConfig::summit_for_gpus(96));
        let model = deeplab_paper();
        let gpu = GpuModel::v100();
        let obj = Objective::new(&machine, &model, &gpu, 1, 96, 2, 5);
        let space = KnobSpace::paper();
        let report = coordinate_descent(&space, &obj, Candidate::paper_default(), 3);
        let default_score = report.trajectory[0].throughput;
        assert!(
            report.best.throughput > default_score * 1.05,
            "tuning must improve on default at 96 GPUs: {} -> {}",
            default_score,
            report.best.throughput
        );
        assert!(
            report.trajectory.len() < space.size() / 2,
            "coordinate descent must be cheaper than the grid: {} vs {}",
            report.trajectory.len(),
            space.size()
        );
    }

    #[test]
    fn descent_trajectory_is_monotone_in_best() {
        let machine = Machine::new(MachineConfig::summit_for_gpus(24));
        let model = deeplab_paper();
        let gpu = GpuModel::v100();
        let obj = Objective::new(&machine, &model, &gpu, 1, 24, 2, 5);
        let report = coordinate_descent(&KnobSpace::small(), &obj, Candidate::paper_default(), 2);
        let mut best_so_far = 0.0f64;
        for s in &report.trajectory {
            best_so_far = best_so_far.max(s.throughput);
        }
        assert_eq!(best_so_far, report.best.throughput);
    }

    /// The one axis loop walks exactly what five pasted per-axis loops
    /// did, re-evaluating a value the best moved away from part-way
    /// through an axis (the second `cycle=5.0ms`).
    #[test]
    fn descent_trajectory_is_pinned() {
        let machine = Machine::new(MachineConfig::summit_for_gpus(24));
        let model = deeplab_paper();
        let gpu = GpuModel::v100();
        let obj = Objective::new(&machine, &model, &gpu, 1, 24, 2, 5);
        let report = coordinate_descent(&KnobSpace::small(), &obj, Candidate::paper_default(), 2);
        let labels: Vec<String> = report.trajectory.iter().map(|s| s.candidate.label()).collect();
        assert_eq!(
            labels,
            [
                "SpectrumDefault fusion=64 MiB cycle=5.0ms cache=1 hier=0",
                "Mvapich2Gdr fusion=64 MiB cycle=5.0ms cache=1 hier=0",
                "Mvapich2Gdr fusion=8 MiB cycle=5.0ms cache=1 hier=0",
                "Mvapich2Gdr fusion=64 MiB cycle=1.0ms cache=1 hier=0",
                "Mvapich2Gdr fusion=64 MiB cycle=5.0ms cache=1 hier=0",
                "SpectrumDefault fusion=64 MiB cycle=1.0ms cache=1 hier=0",
                "Mvapich2Gdr fusion=8 MiB cycle=1.0ms cache=1 hier=0",
                "Mvapich2Gdr fusion=64 MiB cycle=5.0ms cache=1 hier=0",
            ]
        );
        assert_eq!(report.best.candidate.label(), labels[3]);
    }

    /// `config` on the paper's default backend: the climber pins the
    /// backend its ladders name.
    fn at(config: HorovodConfig) -> Candidate {
        Candidate { config, ..Candidate::paper_default() }
    }

    #[test]
    fn nearest_and_step() {
        let ladders = KnobSpace::online(Backend::Nccl);
        let start = |fusion: u64, cycle: f64| {
            at(HorovodConfig::default().with_fusion(fusion).with_cycle(cycle))
        };
        assert_eq!(ladders.nearest(Axis::Fusion, &start(64 << 20, 5e-3)), 5);
        assert_eq!(ladders.nearest(Axis::Fusion, &start(0, 5e-3)), 0);
        assert_eq!(ladders.nearest(Axis::Cycle, &start(64 << 20, 5e-3)), 3);
        assert_eq!(ladder_step(0, -1, 7), 0);
        assert_eq!(ladder_step(6, 1, 7), 6);
        assert_eq!(ladder_step(3, 1, 7), 4);
    }

    #[test]
    fn autotune_never_regresses_the_best() {
        let machine = Machine::new(MachineConfig::summit_for_gpus(48));
        let model = deeplab_paper();
        let gpu = GpuModel::v100();
        let obj = Objective::new(&machine, &model, &gpu, 1, 48, 2, 7);
        let report = hill_climb(
            &KnobSpace::online(Backend::Mvapich2Gdr),
            &obj,
            at(HorovodConfig::default()),
            8,
        );
        assert_eq!(report.trajectory.len(), 8);
        assert!(report.best.mean_step_time <= report.trajectory[0].mean_step_time);
        let min_seen =
            report.trajectory.iter().map(|w| w.mean_step_time).fold(f64::INFINITY, f64::min);
        assert!(report.best.mean_step_time <= min_seen * 1.0 + 1e-12);
    }

    #[test]
    fn autotune_helps_a_bad_start() {
        // Start from a pathological 25 ms cycle: the tuner must find a
        // materially better configuration online.
        let machine = Machine::new(MachineConfig::summit_for_gpus(48));
        let model = deeplab_paper();
        let gpu = GpuModel::v100();
        let start = HorovodConfig::default().with_cycle(25e-3);
        // 12 windows of 8 steps: each window's mean averages out enough
        // step jitter that the coordinate descent reliably escapes the
        // bad cycle time regardless of the RNG stream (short 2-step
        // windows are noisy enough that a marginal stream can mask the
        // improvement).
        let obj = Objective::new(&machine, &model, &gpu, 1, 48, 8, 7);
        let report = hill_climb(&KnobSpace::online(Backend::SpectrumDefault), &obj, at(start), 12);
        let start_time = report.trajectory[0].mean_step_time;
        assert!(
            report.best.mean_step_time < start_time * 0.97,
            "online tuning must improve a bad start: {} -> {}",
            start_time,
            report.best.mean_step_time
        );
    }

    #[test]
    fn autotune_is_deterministic() {
        let machine = Machine::new(MachineConfig::summit_for_gpus(12));
        let model = deeplab_paper();
        let gpu = GpuModel::v100();
        let run = || {
            let obj = Objective::new(&machine, &model, &gpu, 1, 12, 2, 3);
            hill_climb(&KnobSpace::online(Backend::Nccl), &obj, at(HorovodConfig::default()), 4)
        };
        let a = run();
        let b = run();
        assert_eq!(a.best.candidate, b.best.candidate);
        assert_eq!(a.best.mean_step_time, b.best.mean_step_time);
    }

    #[test]
    fn climb_runs_on_the_ladders_backend() {
        let machine = Machine::new(MachineConfig::summit_for_gpus(12));
        let model = deeplab_paper();
        let gpu = GpuModel::v100();
        let obj = Objective::new(&machine, &model, &gpu, 1, 12, 1, 3);
        let report =
            hill_climb(&KnobSpace::online(Backend::Nccl), &obj, Candidate::paper_default(), 3);
        assert!(report.trajectory.iter().all(|w| w.candidate.backend == Backend::Nccl));
    }

    #[test]
    #[should_panic(expected = "the climber moves fusion and cycle only")]
    fn climb_rejects_a_backend_axis() {
        let machine = Machine::new(MachineConfig::summit_for_gpus(12));
        let model = deeplab_paper();
        let gpu = GpuModel::v100();
        let obj = Objective::new(&machine, &model, &gpu, 1, 12, 1, 3);
        hill_climb(&KnobSpace::small(), &obj, Candidate::paper_default(), 2);
    }
}
