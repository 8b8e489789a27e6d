//! An MPI library personality: knobs + cost-model implementation + a
//! cached allreduce-time oracle.

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

use collectives::{Algorithm, CostModel, MsgParams};
use summit_sim::{DataPath, GpuId, Machine, SimTime};

use crate::knobs::Knobs;

/// A named MPI personality.
#[derive(Debug, Clone)]
pub struct MpiProfile {
    pub name: &'static str,
    pub knobs: Knobs,
}

impl MpiProfile {
    pub fn mvapich2_gdr() -> Self {
        MpiProfile { name: "MVAPICH2-GDR", knobs: Knobs::mvapich2_gdr() }
    }

    pub fn spectrum_default() -> Self {
        MpiProfile { name: "Spectrum-MPI (default)", knobs: Knobs::spectrum_default() }
    }

    pub fn nccl() -> Self {
        MpiProfile { name: "NCCL-like", knobs: Knobs::nccl() }
    }

    /// Which algorithm this library runs for an allreduce of `bytes`.
    pub fn select_algorithm(&self, bytes: u64) -> Algorithm {
        self.knobs.selection.select(bytes)
    }

    /// Simulate one allreduce of `bytes` across `n_ranks` dense-placed
    /// GPUs. Exact (uncached) — see [`AllreduceOracle`] for the
    /// interpolating cache used inside training-step loops.
    pub fn allreduce_time(&self, machine: &Machine, n_ranks: usize, bytes: u64) -> SimTime {
        if n_ranks <= 1 || bytes == 0 {
            return SimTime::ZERO;
        }
        let elems = (bytes as usize).div_ceil(collectives::ELEM_BYTES as usize);
        let algo = self.select_algorithm(bytes);
        let schedule = algo.build(n_ranks, elems);
        collectives::simulate_dense(&schedule, machine, self).makespan
    }

    /// Simulate a broadcast of `bytes` from rank 0 (model/parameter
    /// broadcast at training start).
    pub fn broadcast_time(&self, machine: &Machine, n_ranks: usize, bytes: u64) -> SimTime {
        if n_ranks <= 1 || bytes == 0 {
            return SimTime::ZERO;
        }
        let elems = (bytes as usize).div_ceil(collectives::ELEM_BYTES as usize);
        let schedule = collectives::tree::broadcast(n_ranks, elems, 0);
        collectives::simulate_dense(&schedule, machine, self).makespan
    }
}

impl CostModel for MpiProfile {
    fn msg(&self, machine: &Machine, src: GpuId, dst: GpuId, bytes: u64) -> MsgParams {
        let k = &self.knobs;
        let intra = machine.node_of(src) == machine.node_of(dst);
        let eager = bytes <= k.eager_threshold;
        let overhead = if eager { k.overhead_small } else { k.overhead_large };
        if intra {
            // Intra-node GPU-GPU goes over NVLink CUDA IPC regardless of
            // library; quality differences show up in the overheads.
            return MsgParams {
                path: DataPath::Gdr,
                overhead: SimTime::from_secs_f64(overhead),
                rate_cap: f64::INFINITY,
                eager,
            };
        }
        let (path, rate_cap) = if k.use_gdr && bytes <= k.gdr_limit {
            (DataPath::Gdr, f64::INFINITY)
        } else {
            (DataPath::HostStaged, k.staging_rate)
        };
        MsgParams { path, overhead: SimTime::from_secs_f64(overhead), rate_cap, eager }
    }
}

/// Quarter-octave geometric size grid used by the oracle's cache.
fn grid_bounds(bytes: u64) -> (u64, u64) {
    assert!(bytes >= 1);
    // Points at 2^(k/2): 256, 362, 512, 724, 1024, ...
    let mut lo = 256u64;
    if bytes <= lo {
        return (lo, lo);
    }
    loop {
        let hi = lo + lo / 2 + lo / 16; // ≈ lo * sqrt(2)
        if bytes <= hi {
            return (lo, hi);
        }
        lo = hi;
        if lo > 8 << 30 {
            return (lo, lo);
        }
    }
}

/// A memoizing allreduce-time oracle: simulates the geometric size grid
/// once per (rank count) and linearly interpolates between grid points.
/// The Horovod runtime calls this once per fused buffer per step, so the
/// cache is what keeps parameter sweeps fast.
pub struct AllreduceOracle<'m> {
    profile: MpiProfile,
    machine: &'m Machine,
    n_ranks: usize,
    cache: Mutex<HashMap<u64, f64>>,
}

impl<'m> AllreduceOracle<'m> {
    pub fn new(profile: MpiProfile, machine: &'m Machine, n_ranks: usize) -> Self {
        assert!(n_ranks <= machine.config.total_gpus(), "machine too small for rank count");
        AllreduceOracle { profile, machine, n_ranks, cache: Mutex::new(HashMap::new()) }
    }

    pub fn profile(&self) -> &MpiProfile {
        &self.profile
    }

    pub fn n_ranks(&self) -> usize {
        self.n_ranks
    }

    /// The memo. A panic cannot half-insert an entry, so a poisoned
    /// cache still holds only true times.
    fn cache(&self) -> MutexGuard<'_, HashMap<u64, f64>> {
        self.cache.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn grid_time(&self, bytes: u64) -> f64 {
        if let Some(&t) = self.cache().get(&bytes) {
            return t;
        }
        let t = self.profile.allreduce_time(self.machine, self.n_ranks, bytes).as_secs_f64();
        self.cache().insert(bytes, t);
        t
    }

    /// Interpolated allreduce time for an arbitrary size, in seconds.
    pub fn time(&self, bytes: u64) -> f64 {
        if self.n_ranks <= 1 || bytes == 0 {
            return 0.0;
        }
        let (lo, hi) = grid_bounds(bytes);
        let t_lo = self.grid_time(lo);
        if lo == hi {
            // Below the grid floor or above its ceiling: scale by size
            // ratio beyond the ceiling, clamp at the floor.
            if bytes <= lo {
                return t_lo;
            }
            return t_lo * bytes as f64 / lo as f64;
        }
        let t_hi = self.grid_time(hi);
        let frac = (bytes - lo) as f64 / (hi - lo) as f64;
        t_lo + frac * (t_hi - t_lo)
    }

    /// Number of distinct grid points simulated so far.
    pub fn cache_len(&self) -> usize {
        self.cache().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use summit_sim::MachineConfig;

    fn machine(gpus: usize) -> Machine {
        Machine::new(MachineConfig::summit_for_gpus(gpus))
    }

    #[test]
    fn grid_bounds_bracket() {
        for bytes in [1u64, 300, 1000, 5 << 20, 64 << 20] {
            let (lo, hi) = grid_bounds(bytes);
            assert!(lo <= hi);
            if bytes > 256 && hi > lo {
                assert!(lo < bytes && bytes <= hi, "bytes {bytes} in ({lo}, {hi}]");
            }
        }
    }

    #[test]
    fn mv2_beats_spectrum_on_large_allreduce() {
        let m = machine(24);
        let bytes = 64 << 20;
        let mv2 = MpiProfile::mvapich2_gdr().allreduce_time(&m, 24, bytes);
        let spec = MpiProfile::spectrum_default().allreduce_time(&m, 24, bytes);
        assert!(
            mv2.as_secs_f64() * 1.2 < spec.as_secs_f64(),
            "MV2 {mv2} should clearly beat Spectrum {spec}"
        );
    }

    #[test]
    fn mv2_beats_spectrum_on_mid_size() {
        let m = machine(48);
        let bytes = 2 << 20;
        let mv2 = MpiProfile::mvapich2_gdr().allreduce_time(&m, 48, bytes);
        let spec = MpiProfile::spectrum_default().allreduce_time(&m, 48, bytes);
        assert!(mv2 < spec);
    }

    #[test]
    fn nccl_competitive_with_mv2() {
        let m = machine(24);
        let bytes = 32 << 20;
        let nccl = MpiProfile::nccl().allreduce_time(&m, 24, bytes).as_secs_f64();
        let mv2 = MpiProfile::mvapich2_gdr().allreduce_time(&m, 24, bytes).as_secs_f64();
        assert!((nccl / mv2) < 1.5 && (mv2 / nccl) < 1.5, "nccl {nccl} vs mv2 {mv2}");
    }

    #[test]
    fn intra_node_is_fast_for_everyone() {
        let m = machine(6);
        for p in [MpiProfile::mvapich2_gdr(), MpiProfile::spectrum_default(), MpiProfile::nccl()] {
            let t = p.allreduce_time(&m, 6, 16 << 20).as_secs_f64();
            assert!(t < 3e-3, "{}: intra-node 16 MiB allreduce took {t}", p.name);
        }
    }

    #[test]
    fn allreduce_time_monotone_in_size() {
        let m = machine(12);
        let p = MpiProfile::mvapich2_gdr();
        let mut last = 0.0;
        for pow in 10..26 {
            let t = p.allreduce_time(&m, 12, 1 << pow).as_secs_f64();
            assert!(t >= last * 0.7, "gross non-monotonicity at 2^{pow}: {t} after {last}");
            last = t;
        }
    }

    #[test]
    fn trivial_cases_are_free() {
        let m = machine(6);
        let p = MpiProfile::mvapich2_gdr();
        assert_eq!(p.allreduce_time(&m, 1, 1 << 20), SimTime::ZERO);
        assert_eq!(p.allreduce_time(&m, 6, 0), SimTime::ZERO);
    }

    #[test]
    fn oracle_interpolates_and_caches() {
        let m = machine(12);
        let oracle = AllreduceOracle::new(MpiProfile::mvapich2_gdr(), &m, 12);
        let exact = oracle.profile().allreduce_time(&m, 12, 3 << 20).as_secs_f64();
        let interp = oracle.time(3 << 20);
        assert!((interp - exact).abs() / exact < 0.15, "interp {interp} vs exact {exact}");
        let before = oracle.cache_len();
        let _ = oracle.time(3 << 20);
        let _ = oracle.time((3 << 20) + 5);
        assert_eq!(oracle.cache_len(), before, "repeat queries must hit the cache");
    }

    #[test]
    fn oracle_monotone_enough() {
        let m = machine(24);
        let oracle = AllreduceOracle::new(MpiProfile::mvapich2_gdr(), &m, 24);
        let t1 = oracle.time(1 << 20);
        let t64 = oracle.time(64 << 20);
        assert!(t64 > t1 * 4.0);
    }

    #[test]
    fn broadcast_time_positive_and_scales() {
        let m = machine(24);
        let p = MpiProfile::mvapich2_gdr();
        let small = p.broadcast_time(&m, 24, 1 << 20).as_secs_f64();
        let large = p.broadcast_time(&m, 24, 64 << 20).as_secs_f64();
        assert!(small > 0.0 && large > small);
        assert_eq!(p.broadcast_time(&m, 1, 1 << 20), SimTime::ZERO);
    }

    #[test]
    fn oracle_zero_and_single_rank() {
        let m = machine(6);
        let oracle = AllreduceOracle::new(MpiProfile::nccl(), &m, 1);
        assert_eq!(oracle.time(1 << 20), 0.0);
        let oracle6 = AllreduceOracle::new(MpiProfile::nccl(), &m, 6);
        assert_eq!(oracle6.time(0), 0.0);
    }
}
