//! The Horovod step simulation: cycle loop, fusion, negotiation and the
//! overlap of allreduce with the backward pass.
//!
//! One simulated training step, relative to step start:
//!
//! 1. forward pass (no communication);
//! 2. backward pass emits gradient tensors per the model's
//!    [`EmissionSchedule`];
//! 3. the coordinator wakes every `cycle_time`, negotiates, packs ready
//!    tensors into fusion buffers, and hands them to the (serial)
//!    communication stream, whose per-buffer cost comes from the MPI
//!    personality's [`AllreduceOracle`];
//! 4. the optimizer runs once the backward pass is done *and* every
//!    gradient has been reduced.
//!
//! Rank asymmetry ("stragglers") is modelled by scaling each step's
//! compute by the maximum of per-rank lognormal jitter draws — the
//! synchronous allreduce makes every step as slow as its slowest rank,
//! and that maximum grows with the rank count, which is one of the
//! ingredients of sub-linear scaling at fixed per-GPU batch size.

use rand::Rng;
use summit_metrics::rng::rng_for_indexed;
use summit_sim::Machine;

use collectives::{Algorithm, CodecKind, LeaderAlgo};
use dlmodels::{EmissionSchedule, GpuModel, ModelGraph};
use mpi_profiles::{AllreduceOracle, MpiProfile, SelectionTable};

use crate::config::HorovodConfig;
use crate::coordinator::negotiation_cost;
use crate::fusion::{fusion_copy_time, pack};
use crate::timeline::{Phase, Timeline};

/// Per-rank compute-time jitter (lognormal σ). ~2 % matches the
/// step-time variance of real synchronized training.
pub const DEFAULT_JITTER_SIGMA: f64 = 0.022;

/// GPU device-to-device copy bandwidth for fusion buffer packing.
const FUSION_COPY_BW: f64 = 600e9;

/// Everything measured about one simulated step.
#[derive(Debug, Clone)]
pub struct StepBreakdown {
    /// Wall time of the whole step, seconds.
    pub step_time: f64,
    /// Compute-only time (forward + backward + optimizer) of the slowest
    /// rank this step.
    pub compute_time: f64,
    /// Communication-stream busy time (fusion copies + allreduces).
    pub comm_busy: f64,
    /// Step time not hidden behind compute: `step_time - compute_time`.
    pub exposed_comm: f64,
    /// Fused buffers issued.
    pub n_buffers: usize,
    /// Coordinator cycles that carried at least one tensor.
    pub n_active_cycles: usize,
    /// This step's slowest-rank jitter factor (≥ 1 in expectation-ish).
    pub jitter: f64,
}

/// Aggregate over a simulated run of several steps.
#[derive(Debug, Clone)]
pub struct TrainReport {
    pub steps: Vec<StepBreakdown>,
    /// Mean step wall time, seconds.
    pub mean_step_time: f64,
    /// Aggregate throughput: `n_ranks × batch / mean_step_time`, img/s.
    pub throughput: f64,
    /// Ideal single-GPU throughput (no comm, no jitter), img/s.
    pub single_gpu_throughput: f64,
    /// Weak-scaling efficiency vs `n_ranks ×` single-GPU throughput.
    pub efficiency: f64,
}

/// A configured distributed training-step simulator.
pub struct StepSim<'m> {
    config: HorovodConfig,
    oracle: AllreduceOracle<'m>,
    emission: EmissionSchedule,
    n_ranks: usize,
    batch_per_gpu: usize,
    jitter_sigma: f64,
    seed: u64,
}

impl<'m> StepSim<'m> {
    /// Build a simulator for `model` trained at `batch_per_gpu` on
    /// `n_ranks` GPUs of `machine`, over `profile`, with Horovod `config`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        machine: &'m Machine,
        profile: MpiProfile,
        config: HorovodConfig,
        model: &ModelGraph,
        gpu: &GpuModel,
        batch_per_gpu: usize,
        n_ranks: usize,
        seed: u64,
    ) -> Self {
        config.validate();
        assert!(n_ranks >= 1 && batch_per_gpu >= 1);
        assert!(n_ranks <= machine.config.total_gpus(), "machine too small");
        let mut profile = profile;
        if config.hierarchical_allreduce {
            // HOROVOD_HIERARCHICAL_ALLREDUCE overrides the library's own
            // selection with the two-level algorithm for every size —
            // which is precisely why blindly enabling it can hurt.
            profile.knobs.selection = SelectionTable::new(
                vec![],
                Algorithm::Hierarchical {
                    per_node: machine.config.gpus_per_node,
                    leader: LeaderAlgo::Rabenseifner,
                },
            );
        }
        let emission = EmissionSchedule::build(model, gpu, batch_per_gpu);
        let oracle = AllreduceOracle::new(profile, machine, n_ranks);
        StepSim {
            config,
            oracle,
            emission,
            n_ranks,
            batch_per_gpu,
            jitter_sigma: DEFAULT_JITTER_SIGMA,
            seed,
        }
    }

    /// Override the straggler model's σ (0 disables jitter).
    pub fn with_jitter(mut self, sigma: f64) -> Self {
        assert!(sigma >= 0.0);
        self.jitter_sigma = sigma;
        self
    }

    pub fn n_ranks(&self) -> usize {
        self.n_ranks
    }

    pub fn emission(&self) -> &EmissionSchedule {
        &self.emission
    }

    /// Bytes a fused buffer of `bytes` fp32 gradient bytes puts on the
    /// wire under the configured codec: exact per its wire format.
    fn wire_bytes(&self, bytes: u64) -> u64 {
        match self.config.compression {
            CodecKind::None => bytes,
            codec => codec.encoded_len((bytes / 4) as usize) as u64,
        }
    }

    /// Per-rank compute scale factors for `step`: one mean-one
    /// lognormal draw per rank, in rank order. [`StepSim::step_jitter`]
    /// is their maximum; the individual values drive the per-rank
    /// compute lanes of [`StepSim::simulate_step_per_rank`], which is
    /// what makes straggler attribution in the trace possible.
    fn rank_jitters(&self, step: u64) -> Vec<f64> {
        if self.jitter_sigma == 0.0 {
            return vec![1.0; self.n_ranks];
        }
        let mut rng = rng_for_indexed(self.seed, "jitter", step);
        let sigma = self.jitter_sigma;
        let mut js = Vec::with_capacity(self.n_ranks);
        // Box–Muller normals, two per iteration. The draw order is part
        // of the seeded contract: `step_jitter` must keep returning the
        // same values it did when it drew these inline.
        while js.len() < self.n_ranks {
            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            let r = (-2.0 * u1.ln()).sqrt();
            let z0 = r * (std::f64::consts::TAU * u2).cos();
            let z1 = r * (std::f64::consts::TAU * u2).sin();
            for z in [z0, z1] {
                if js.len() < self.n_ranks {
                    js.push((sigma * z - 0.5 * sigma * sigma).exp());
                }
            }
        }
        js
    }

    /// Slowest-rank compute scale for `step`: max of per-rank lognormal
    /// draws (mean-one parameterization).
    fn step_jitter(&self, step: u64) -> f64 {
        self.rank_jitters(step).into_iter().fold(f64::MIN, f64::max)
    }

    /// Simulate one step; optionally record a timeline.
    pub fn simulate_step(&self, step: u64, mut timeline: Option<&mut Timeline>) -> StepBreakdown {
        let e = &self.emission;
        let j = self.step_jitter(step);
        let fwd_end = e.forward_time * j;
        let bwd_end = fwd_end + e.backward_time * j;
        if let Some(t) = timeline.as_deref_mut() {
            t.push(Phase::Forward, 0.0, fwd_end, "forward");
            t.push(Phase::Backward, fwd_end, bwd_end, "backward");
        }

        let coord = negotiation_cost(self.n_ranks, self.config.response_cache);
        let cycle = self.config.cycle_time;
        let mut comm_free = 0.0f64;
        let mut comm_busy = 0.0f64;
        let mut n_buffers = 0usize;
        let mut n_active_cycles = 0usize;
        let mut next_idx = 0usize; // tensors are emitted in ready order
        let mut k = 1u64;

        if self.n_ranks > 1 {
            while next_idx < e.tensors.len() {
                let t = k as f64 * cycle;
                k += 1;
                // Collect tensors ready by this wake.
                let mut ready: Vec<(usize, u64)> = Vec::new();
                while next_idx < e.tensors.len() && fwd_end + e.tensors[next_idx].ready_at * j <= t
                {
                    ready.push((next_idx, e.tensors[next_idx].bytes));
                    next_idx += 1;
                }
                if ready.is_empty() {
                    continue;
                }
                n_active_cycles += 1;
                let issue_at = t + coord;
                if let Some(tl) = timeline.as_deref_mut() {
                    tl.push(Phase::Negotiate, t, issue_at, format!("cycle {k}"));
                }
                for buf in pack(&ready, self.config.fusion_threshold) {
                    let start = issue_at.max(comm_free);
                    let mut copy = fusion_copy_time(&buf, FUSION_COPY_BW);
                    let wire = self.wire_bytes(buf.bytes);
                    if wire != buf.bytes {
                        // Compress + decompress passes over the payload.
                        copy += 2.0 * buf.bytes as f64 / FUSION_COPY_BW;
                    }
                    let ar = self.oracle.time(wire);
                    if let Some(tl) = timeline.as_deref_mut() {
                        if copy > 0.0 {
                            tl.push(Phase::FusionCopy, start, start + copy, "pack+unpack");
                        }
                        tl.push(
                            Phase::Allreduce,
                            start + copy,
                            start + copy + ar,
                            format!("{} B x{}", buf.bytes, buf.n_tensors),
                        );
                    }
                    comm_free = start + copy + ar;
                    comm_busy += copy + ar;
                    n_buffers += 1;
                }
            }
        }

        let opt_start = bwd_end.max(comm_free);
        let step_time = opt_start + e.optimizer_time * j;
        if let Some(tl) = timeline {
            tl.push(Phase::Optimizer, opt_start, step_time, "apply gradients");
        }
        let compute_time = (e.forward_time + e.backward_time + e.optimizer_time) * j;
        StepBreakdown {
            step_time,
            compute_time,
            comm_busy,
            exposed_comm: (step_time - compute_time).max(0.0),
            n_buffers,
            n_active_cycles,
            jitter: j,
        }
    }

    /// Simulate one step recording one timeline **per rank** (pid =
    /// rank). Compute spans use each rank's own jitter draw; the
    /// synchronous comm stream — gated by the slowest rank, exactly as
    /// in [`StepSim::simulate_step`] — is mirrored onto every rank's
    /// comm lane. The returned breakdown is identical to
    /// `simulate_step`'s for the same step.
    pub fn simulate_step_per_rank(&self, step: u64) -> (StepBreakdown, Vec<Timeline>) {
        let e = &self.emission;
        let js = self.rank_jitters(step);
        let j = js.iter().copied().fold(f64::MIN, f64::max);
        let mut tls: Vec<Timeline> =
            (0..self.n_ranks).map(|r| Timeline::for_rank(r as u32)).collect();
        for (r, tl) in tls.iter_mut().enumerate() {
            let fwd_r = e.forward_time * js[r];
            tl.push(Phase::Forward, 0.0, fwd_r, "forward");
            tl.push(Phase::Backward, fwd_r, fwd_r + e.backward_time * js[r], "backward");
        }
        let fwd_end = e.forward_time * j;
        let bwd_end = fwd_end + e.backward_time * j;

        let coord = negotiation_cost(self.n_ranks, self.config.response_cache);
        let cycle = self.config.cycle_time;
        let mut comm_free = 0.0f64;
        let mut comm_busy = 0.0f64;
        let mut n_buffers = 0usize;
        let mut n_active_cycles = 0usize;
        let mut next_idx = 0usize;
        let mut k = 1u64;

        if self.n_ranks > 1 {
            while next_idx < e.tensors.len() {
                let t = k as f64 * cycle;
                k += 1;
                let mut ready: Vec<(usize, u64)> = Vec::new();
                while next_idx < e.tensors.len() && fwd_end + e.tensors[next_idx].ready_at * j <= t
                {
                    ready.push((next_idx, e.tensors[next_idx].bytes));
                    next_idx += 1;
                }
                if ready.is_empty() {
                    continue;
                }
                n_active_cycles += 1;
                let issue_at = t + coord;
                let cyc_label = format!("cycle {k}");
                for tl in tls.iter_mut() {
                    tl.push(Phase::Negotiate, t, issue_at, cyc_label.clone());
                }
                for buf in pack(&ready, self.config.fusion_threshold) {
                    let start = issue_at.max(comm_free);
                    let mut copy = fusion_copy_time(&buf, FUSION_COPY_BW);
                    let wire = self.wire_bytes(buf.bytes);
                    if wire != buf.bytes {
                        copy += 2.0 * buf.bytes as f64 / FUSION_COPY_BW;
                    }
                    let ar = self.oracle.time(wire);
                    let ar_label = format!("{} B x{}", buf.bytes, buf.n_tensors);
                    for tl in tls.iter_mut() {
                        if copy > 0.0 {
                            tl.push(Phase::FusionCopy, start, start + copy, "pack+unpack");
                        }
                        tl.push(
                            Phase::Allreduce,
                            start + copy,
                            start + copy + ar,
                            ar_label.clone(),
                        );
                    }
                    comm_free = start + copy + ar;
                    comm_busy += copy + ar;
                    n_buffers += 1;
                }
            }
        }

        let opt_start = bwd_end.max(comm_free);
        let step_time = opt_start + e.optimizer_time * j;
        for (r, tl) in tls.iter_mut().enumerate() {
            tl.push(
                Phase::Optimizer,
                opt_start,
                opt_start + e.optimizer_time * js[r],
                "apply gradients",
            );
        }
        let compute_time = (e.forward_time + e.backward_time + e.optimizer_time) * j;
        (
            StepBreakdown {
                step_time,
                compute_time,
                comm_busy,
                exposed_comm: (step_time - compute_time).max(0.0),
                n_buffers,
                n_active_cycles,
                jitter: j,
            },
            tls,
        )
    }

    /// Simulate `steps` steps and aggregate.
    pub fn simulate_training(&self, steps: usize) -> TrainReport {
        assert!(steps >= 1);
        let step_reports: Vec<StepBreakdown> =
            (0..steps as u64).map(|s| self.simulate_step(s, None)).collect();
        let mean_step_time = step_reports.iter().map(|s| s.step_time).sum::<f64>() / steps as f64;
        let single = self.batch_per_gpu as f64 / self.emission.compute_time();
        let throughput = self.n_ranks as f64 * self.batch_per_gpu as f64 / mean_step_time;
        TrainReport {
            steps: step_reports,
            mean_step_time,
            throughput,
            single_gpu_throughput: single,
            efficiency: throughput / (self.n_ranks as f64 * single),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlmodels::{deeplab_paper, resnet50};
    use summit_sim::MachineConfig;

    fn machine(gpus: usize) -> Machine {
        Machine::new(MachineConfig::summit_for_gpus(gpus))
    }

    fn sim<'m>(
        machine: &'m Machine,
        profile: MpiProfile,
        config: HorovodConfig,
        n_ranks: usize,
    ) -> StepSim<'m> {
        StepSim::new(machine, profile, config, &deeplab_paper(), &GpuModel::v100(), 2, n_ranks, 42)
    }

    #[test]
    fn single_rank_has_no_comm() {
        let m = machine(6);
        let s = sim(&m, MpiProfile::mvapich2_gdr(), HorovodConfig::default(), 1);
        let b = s.simulate_step(0, None);
        assert_eq!(b.n_buffers, 0);
        assert_eq!(b.comm_busy, 0.0);
        assert!((b.step_time - b.compute_time).abs() < 1e-12);
    }

    #[test]
    fn all_gradient_bytes_are_communicated() {
        let m = machine(12);
        let s = sim(&m, MpiProfile::mvapich2_gdr(), HorovodConfig::default(), 12);
        let mut tl = Timeline::default();
        let b = s.simulate_step(0, Some(&mut tl));
        assert!(b.n_buffers >= 1);
        // Every tensor appears in exactly one allreduce span.
        let total: u64 = tl
            .spans
            .iter()
            .filter(|sp| sp.phase == Phase::Allreduce)
            .map(|sp| sp.label.split(' ').next().unwrap().parse::<u64>().unwrap())
            .sum();
        assert_eq!(total, s.emission().total_bytes());
    }

    #[test]
    fn mv2_scales_better_than_spectrum_at_132() {
        let m = machine(132);
        let cfg = HorovodConfig::default();
        let mv2 = sim(&m, MpiProfile::mvapich2_gdr(), cfg.clone(), 132).simulate_training(3);
        let spec = sim(&m, MpiProfile::spectrum_default(), cfg, 132).simulate_training(3);
        assert!(
            mv2.efficiency > spec.efficiency + 0.05,
            "MV2 {:.3} vs Spectrum {:.3}",
            mv2.efficiency,
            spec.efficiency
        );
    }

    #[test]
    fn efficiency_decreases_with_scale() {
        let m = machine(132);
        let cfg = HorovodConfig::default();
        let e12 = sim(&m, MpiProfile::spectrum_default(), cfg.clone(), 12)
            .simulate_training(3)
            .efficiency;
        let e132 =
            sim(&m, MpiProfile::spectrum_default(), cfg, 132).simulate_training(3).efficiency;
        assert!(e132 < e12, "eff 12={e12:.3} 132={e132:.3}");
    }

    #[test]
    fn tiny_fusion_threshold_hurts() {
        let m = machine(48);
        let base = HorovodConfig::default();
        let good =
            sim(&m, MpiProfile::mvapich2_gdr(), base.clone(), 48).simulate_training(3).throughput;
        let tiny = sim(
            &m,
            MpiProfile::mvapich2_gdr(),
            base.with_fusion(64 << 10), // 64 KiB: hundreds of small allreduces
            48,
        )
        .simulate_training(3)
        .throughput;
        assert!(good > tiny, "64 MiB fusion {good:.1} vs 64 KiB {tiny:.1}");
    }

    #[test]
    fn huge_cycle_time_hurts() {
        let m = machine(48);
        let base = HorovodConfig::default();
        let good = sim(&m, MpiProfile::mvapich2_gdr(), base.clone().with_cycle(2e-3), 48)
            .simulate_training(3)
            .throughput;
        let slow = sim(&m, MpiProfile::mvapich2_gdr(), base.with_cycle(100e-3), 48)
            .simulate_training(3)
            .throughput;
        assert!(good > slow * 1.02, "2 ms cycle {good:.1} vs 100 ms {slow:.1}");
    }

    #[test]
    fn disabling_response_cache_costs_time() {
        let m = machine(132);
        let base = HorovodConfig::default();
        let cached =
            sim(&m, MpiProfile::mvapich2_gdr(), base.clone(), 132).simulate_training(3).throughput;
        let uncached = sim(&m, MpiProfile::mvapich2_gdr(), base.with_cache(false), 132)
            .simulate_training(3)
            .throughput;
        assert!(cached >= uncached, "{cached:.1} vs {uncached:.1}");
    }

    #[test]
    fn jitter_penalty_grows_with_scale() {
        let m = machine(132);
        let s6 = sim(&m, MpiProfile::nccl(), HorovodConfig::default(), 6);
        let s132 = sim(&m, MpiProfile::nccl(), HorovodConfig::default(), 132);
        let j6: f64 = (0..20).map(|k| s6.step_jitter(k)).sum::<f64>() / 20.0;
        let j132: f64 = (0..20).map(|k| s132.step_jitter(k)).sum::<f64>() / 20.0;
        assert!(j132 > j6, "max-of-132 jitter {j132} must exceed max-of-6 {j6}");
    }

    #[test]
    fn zero_jitter_is_deterministic_and_exact() {
        let m = machine(12);
        let s = sim(&m, MpiProfile::mvapich2_gdr(), HorovodConfig::default(), 12).with_jitter(0.0);
        let a = s.simulate_step(0, None);
        let b = s.simulate_step(1, None);
        assert_eq!(a.step_time, b.step_time);
        assert_eq!(a.jitter, 1.0);
    }

    #[test]
    fn timeline_phases_are_complete() {
        let m = machine(12);
        let s = sim(&m, MpiProfile::mvapich2_gdr(), HorovodConfig::default(), 12);
        let mut tl = Timeline::default();
        s.simulate_step(0, Some(&mut tl));
        for phase in
            [Phase::Forward, Phase::Backward, Phase::Negotiate, Phase::Allreduce, Phase::Optimizer]
        {
            assert!(tl.count(phase) > 0, "missing {phase:?} spans");
        }
    }

    #[test]
    fn per_rank_step_matches_aggregate_breakdown() {
        let m = machine(12);
        let s = sim(&m, MpiProfile::mvapich2_gdr(), HorovodConfig::default(), 12);
        let agg = s.simulate_step(3, None);
        let (per, tls) = s.simulate_step_per_rank(3);
        assert_eq!(agg.step_time, per.step_time);
        assert_eq!(agg.comm_busy, per.comm_busy);
        assert_eq!(agg.n_buffers, per.n_buffers);
        assert_eq!(agg.jitter, per.jitter);
        assert_eq!(tls.len(), 12);
        // Every rank sees the same synchronous comm stream...
        for tl in &tls {
            assert_eq!(tl.count(Phase::Allreduce), tls[0].count(Phase::Allreduce));
        }
        // ...but its own compute spans: the slowest rank's backward end
        // is exactly the aggregate (max-jitter) gate.
        let bwd_end = tls
            .iter()
            .flat_map(|tl| tl.spans.iter())
            .filter(|sp| sp.phase == Phase::Backward)
            .map(|sp| sp.end)
            .fold(f64::MIN, f64::max);
        let e = s.emission();
        assert!((bwd_end - (e.forward_time + e.backward_time) * per.jitter).abs() < 1e-12);
    }

    #[test]
    fn merged_per_rank_trace_has_distinct_pids_and_union_busy_time() {
        let m = machine(12);
        let s = sim(&m, MpiProfile::mvapich2_gdr(), HorovodConfig::default(), 4);
        let (_, tls) = s.simulate_step_per_rank(0);
        let mut merged = Timeline::default();
        for tl in &tls {
            merged.merge(tl);
        }
        let parsed = trace::parse_trace(&merged.to_chrome_json()).unwrap();
        let mut pids: Vec<u32> = parsed.iter().filter(|e| e.ph == 'X').map(|e| e.pid).collect();
        pids.sort_unstable();
        pids.dedup();
        assert_eq!(pids.len(), 4, "one pid per rank");
        // Allreduce spans are mirrored on 4 comm lanes: the naive sum
        // quadruple-counts them, the union does not.
        let sum = merged.total(Phase::Allreduce);
        let busy = merged.busy_time(Phase::Allreduce);
        assert!(sum > busy * 3.9, "sum {sum} should be ~4x union {busy}");
        assert!((busy - tls[0].busy_time(Phase::Allreduce)).abs() < 1e-12);
    }

    #[test]
    fn resnet_scales_almost_perfectly() {
        // ResNet-50's small gradients + fast comm: near-linear at 48 even
        // on defaults — the contrast the paper draws with DLv3+.
        let m = machine(48);
        let s = StepSim::new(
            &m,
            MpiProfile::mvapich2_gdr(),
            HorovodConfig::default(),
            &resnet50(224),
            &GpuModel::v100(),
            32,
            48,
            42,
        );
        let r = s.simulate_training(3);
        assert!(r.efficiency > 0.85, "ResNet-50 efficiency = {:.3}", r.efficiency);
    }

    #[test]
    fn forced_hierarchical_changes_behavior() {
        let m = machine(48);
        let plain = sim(&m, MpiProfile::spectrum_default(), HorovodConfig::default(), 48)
            .simulate_step(0, None)
            .comm_busy;
        let hier = sim(
            &m,
            MpiProfile::spectrum_default(),
            HorovodConfig::default().with_hierarchical(true),
            48,
        )
        .simulate_step(0, None)
        .comm_busy;
        assert!(
            (plain - hier).abs() / plain > 1e-3,
            "knob must change the comm stream: {plain} vs {hier}"
        );
    }

    #[test]
    fn training_report_consistency() {
        let m = machine(24);
        let r =
            sim(&m, MpiProfile::mvapich2_gdr(), HorovodConfig::default(), 24).simulate_training(5);
        assert_eq!(r.steps.len(), 5);
        assert!(r.efficiency > 0.0 && r.efficiency <= 1.05);
        let recomputed = 24.0 * 2.0 / r.mean_step_time;
        assert!((r.throughput - recomputed).abs() < 1e-9);
    }
}
