//! The tuning objective: simulated training throughput of a candidate
//! configuration — at a fixed scale, or swept across scales.

use dlmodels::{GpuModel, ModelGraph};
use horovod::{StepSim, TrainReport};
use summit_metrics::ScalingSeries;
use summit_sim::Machine;

use crate::space::Candidate;

/// Evaluates candidates by simulating a few training steps. The one
/// front end to the step simulator: a copy with a field changed (the
/// climber's per-window seed, a sweep's rank count) is another
/// objective.
#[derive(Clone, Copy)]
pub struct Objective<'a> {
    pub machine: &'a Machine,
    pub model: &'a ModelGraph,
    pub gpu: &'a GpuModel,
    pub batch_per_gpu: usize,
    /// Ranks per evaluation. [`Objective::sweep`] takes its rank counts
    /// from its `counts` instead, so sweep callers pass 1.
    pub n_ranks: usize,
    /// Steps simulated per evaluation (jitter averaging).
    pub steps: usize,
    pub seed: u64,
}

/// One scored candidate.
#[derive(Debug, Clone)]
pub struct Scored {
    pub candidate: Candidate,
    /// Aggregate images/second.
    pub throughput: f64,
    /// Weak-scaling efficiency at the objective's rank count.
    pub efficiency: f64,
    /// Mean simulated step time, seconds.
    pub mean_step_time: f64,
}

impl<'a> Objective<'a> {
    pub fn new(
        machine: &'a Machine,
        model: &'a ModelGraph,
        gpu: &'a GpuModel,
        batch_per_gpu: usize,
        n_ranks: usize,
        steps: usize,
        seed: u64,
    ) -> Self {
        assert!(n_ranks >= 1 && steps >= 1);
        Objective { machine, model, gpu, batch_per_gpu, n_ranks, steps, seed }
    }

    fn simulate(&self, candidate: &Candidate) -> TrainReport {
        StepSim::new(
            self.machine,
            candidate.backend.profile(),
            candidate.config.clone(),
            self.model,
            self.gpu,
            self.batch_per_gpu,
            self.n_ranks,
            self.seed,
        )
        .simulate_training(self.steps)
    }

    /// Simulate `candidate` and score it.
    pub fn eval(&self, candidate: &Candidate) -> Scored {
        let report = self.simulate(candidate);
        Scored {
            candidate: candidate.clone(),
            throughput: report.throughput,
            efficiency: report.efficiency,
            mean_step_time: report.mean_step_time,
        }
    }

    /// `candidate`'s scaling series over `counts`, labelled `label`:
    /// one point per count, against the single-GPU throughput of a
    /// 1-rank run. `self.n_ranks` plays no part.
    pub fn sweep(&self, candidate: &Candidate, label: &str, counts: &[usize]) -> ScalingSeries {
        assert!(!counts.is_empty());
        let at = |n_ranks| Objective { n_ranks, ..*self }.simulate(candidate);
        let mut series = ScalingSeries::new(label, at(1).single_gpu_throughput);
        for &n in counts {
            series.push(n, at(n).throughput);
        }
        series
    }
}

/// The paper's GPU-count ladder on Summit: whole nodes of 6 up to 132.
pub fn paper_gpu_counts() -> Vec<usize> {
    vec![6, 12, 24, 48, 96, 132]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::Candidate;
    use dlmodels::deeplab_paper;
    use horovod::HorovodConfig;
    use mpi_profiles::Backend;
    use summit_sim::MachineConfig;

    #[test]
    fn eval_is_deterministic() {
        let machine = Machine::new(MachineConfig::summit_for_gpus(12));
        let model = deeplab_paper();
        let gpu = GpuModel::v100();
        let obj = Objective::new(&machine, &model, &gpu, 1, 12, 2, 3);
        let c = Candidate::paper_default();
        let a = obj.eval(&c);
        let b = obj.eval(&c);
        assert_eq!(a.throughput, b.throughput);
        assert!(a.efficiency > 0.0 && a.efficiency <= 1.0);
    }

    #[test]
    fn better_backend_scores_higher() {
        let machine = Machine::new(MachineConfig::summit_for_gpus(96));
        let model = deeplab_paper();
        let gpu = GpuModel::v100();
        let obj = Objective::new(&machine, &model, &gpu, 1, 96, 2, 3);
        let default = obj.eval(&Candidate::paper_default());
        let mv2 = obj.eval(&Candidate {
            backend: Backend::Mvapich2Gdr,
            config: Candidate::paper_default().config,
        });
        assert!(mv2.throughput > default.throughput);
    }

    #[test]
    fn sweep_produces_monotone_throughput() {
        let machine = Machine::new(MachineConfig::summit_for_gpus(48));
        let model = deeplab_paper();
        let gpu = GpuModel::v100();
        let obj = Objective::new(&machine, &model, &gpu, 1, 1, 2, 7);
        let tuned = Candidate { backend: Backend::Mvapich2Gdr, config: HorovodConfig::default() };
        let s = obj.sweep(&tuned, "tuned", &[6, 12, 24, 48]);
        let t: Vec<f64> = s.points.iter().map(|p| p.throughput).collect();
        for w in t.windows(2) {
            assert!(w[1] > w[0], "throughput must grow with GPUs: {t:?}");
        }
        let (_, eff) = s.efficiency_at_max().unwrap();
        assert!(eff > 0.7 && eff <= 1.0);
    }

    #[test]
    fn paper_ladder_tops_at_132() {
        let c = paper_gpu_counts();
        assert_eq!(*c.last().unwrap(), 132);
        assert_eq!(c[0], 6);
    }
}
