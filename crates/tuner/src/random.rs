//! Random search over the knob space — the budget-matched baseline the
//! coordinate-descent methodology is compared against (experiment T12).

use rand::seq::SliceRandom;
use summit_metrics::rng::rng_for;

use crate::objective::Objective;
use crate::search::TuneReport;
use crate::space::KnobSpace;

/// Evaluate `budget` uniformly random candidates (without replacement
/// when the budget exceeds the space) and return the best.
pub fn random_search(
    space: &KnobSpace,
    objective: &Objective<'_>,
    budget: usize,
    seed: u64,
) -> TuneReport {
    space.validate();
    assert!(budget >= 1);
    let mut rng = rng_for(seed, "random-search");
    let mut candidates = space.candidates();
    candidates.shuffle(&mut rng);
    candidates.truncate(budget);

    let mut trajectory = Vec::with_capacity(candidates.len());
    for c in &candidates {
        trajectory.push(objective.eval(c));
    }
    let best = trajectory
        .iter()
        .max_by(|a, b| a.throughput.total_cmp(&b.throughput))
        .expect("non-empty budget") // lint: allow(unwrap): budget >= 1 is asserted above
        .clone();
    TuneReport { best, trajectory }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlmodels::{deeplab_paper, GpuModel};
    use summit_sim::{Machine, MachineConfig};

    #[test]
    fn respects_budget_and_is_deterministic() {
        let machine = Machine::new(MachineConfig::summit_for_gpus(24));
        let model = deeplab_paper();
        let gpu = GpuModel::v100();
        let obj_a = Objective::new(&machine, &model, &gpu, 1, 24, 2, 5);
        let a = random_search(&KnobSpace::small(), &obj_a, 4, 9);
        assert_eq!(a.trajectory.len(), 4);
        let b = random_search(&KnobSpace::small(), &obj_a, 4, 9);
        assert_eq!(a.best.candidate, b.best.candidate);
        assert_eq!(a.best.throughput, b.best.throughput);
    }

    #[test]
    fn best_is_max_of_trajectory() {
        let machine = Machine::new(MachineConfig::summit_for_gpus(24));
        let model = deeplab_paper();
        let gpu = GpuModel::v100();
        let obj = Objective::new(&machine, &model, &gpu, 1, 24, 2, 5);
        let r = random_search(&KnobSpace::small(), &obj, 6, 1);
        let max = r.trajectory.iter().map(|s| s.throughput).fold(f64::MIN, f64::max);
        assert_eq!(r.best.throughput, max);
    }

    #[test]
    fn oversized_budget_covers_whole_space() {
        let machine = Machine::new(MachineConfig::summit_for_gpus(12));
        let model = deeplab_paper();
        let gpu = GpuModel::v100();
        let obj = Objective::new(&machine, &model, &gpu, 1, 12, 1, 5);
        let space = KnobSpace::small();
        let r = random_search(&space, &obj, 1000, 1);
        assert_eq!(r.trajectory.len(), space.size());
    }
}
