//! The knob space the paper sweeps: Horovod runtime parameters × MPI
//! backend choice, as one list of axes every search walks.

use collectives::CodecKind;
use horovod::HorovodConfig;
use mpi_profiles::Backend;

/// Axes of the tuning space. Every axis must be non-empty.
#[derive(Debug, Clone)]
pub struct KnobSpace {
    pub backends: Vec<Backend>,
    /// `HOROVOD_FUSION_THRESHOLD` values, bytes.
    pub fusion_thresholds: Vec<u64>,
    /// `HOROVOD_CYCLE_TIME` values, seconds.
    pub cycle_times: Vec<f64>,
    pub response_cache: Vec<bool>,
    pub hierarchical: Vec<bool>,
}

/// One axis of a [`KnobSpace`]: the knob a search moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    Backend,
    Fusion,
    Cycle,
    Cache,
    Hierarchical,
}

impl Axis {
    /// Every axis, in walk order: the grid's outermost loop first, and
    /// the order coordinate descent optimizes them in.
    pub const ALL: [Axis; 5] =
        [Axis::Backend, Axis::Fusion, Axis::Cycle, Axis::Cache, Axis::Hierarchical];
}

impl KnobSpace {
    /// The sweep the paper describes: fusion thresholds around the 64 MB
    /// default, cycle times around the 5 ms default, cache/hierarchical
    /// toggles, and the MPI backends under comparison.
    pub fn paper() -> Self {
        KnobSpace {
            backends: vec![Backend::SpectrumDefault, Backend::Mvapich2Gdr, Backend::Nccl],
            fusion_thresholds: [0, 2, 8, 16, 32, 64, 128, 256].map(|mb| mb << 20).to_vec(),
            cycle_times: vec![0.5e-3, 1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3],
            response_cache: vec![true, false],
            hierarchical: vec![false, true],
        }
    }

    /// The ladders the online climber ([`crate::hill_climb`]) moves
    /// along, like `HOROVOD_AUTOTUNE`: fusion 2–128 MB and the paper's
    /// cycle times, climbed on `backend` with cache on and hierarchical
    /// off.
    pub fn online(backend: Backend) -> Self {
        KnobSpace {
            backends: vec![backend],
            fusion_thresholds: [2, 4, 8, 16, 32, 64, 128].map(|mb| mb << 20).to_vec(),
            response_cache: vec![true],
            hierarchical: vec![false],
            ..Self::paper()
        }
    }

    /// A reduced space for fast tests.
    pub fn small() -> Self {
        KnobSpace {
            backends: vec![Backend::SpectrumDefault, Backend::Mvapich2Gdr],
            fusion_thresholds: vec![8 << 20, 64 << 20],
            cycle_times: vec![1e-3, 5e-3],
            response_cache: vec![true],
            hierarchical: vec![false],
        }
    }

    pub fn validate(&self) {
        for axis in Axis::ALL {
            assert!(self.len(axis) > 0, "{axis:?} axis empty");
        }
        assert!(self.cycle_times.iter().all(|&c| c > 0.0), "cycle times must be positive");
    }

    /// Number of values on `axis`.
    pub fn len(&self, axis: Axis) -> usize {
        match axis {
            Axis::Backend => self.backends.len(),
            Axis::Fusion => self.fusion_thresholds.len(),
            Axis::Cycle => self.cycle_times.len(),
            Axis::Cache => self.response_cache.len(),
            Axis::Hierarchical => self.hierarchical.len(),
        }
    }

    /// Set `c`'s knob on `axis` to the axis's `i`-th value.
    pub fn set(&self, axis: Axis, i: usize, c: &mut Candidate) {
        match axis {
            Axis::Backend => c.backend = self.backends[i],
            Axis::Fusion => c.config.fusion_threshold = self.fusion_thresholds[i],
            Axis::Cycle => c.config.cycle_time = self.cycle_times[i],
            Axis::Cache => c.config.response_cache = self.response_cache[i],
            Axis::Hierarchical => c.config.hierarchical_allreduce = self.hierarchical[i],
        }
    }

    /// The index of the value on the numeric `axis` (fusion or cycle)
    /// nearest `c`'s knob. Ties go to the lower index.
    pub fn nearest(&self, axis: Axis, c: &Candidate) -> usize {
        let distance = |i: usize| match axis {
            Axis::Fusion => {
                (self.fusion_thresholds[i] as f64 - c.config.fusion_threshold as f64).abs()
            }
            Axis::Cycle => (self.cycle_times[i] - c.config.cycle_time).abs(),
            Axis::Backend | Axis::Cache | Axis::Hierarchical => {
                panic!("{axis:?} is not a numeric axis")
            }
        };
        (0..self.len(axis))
            .min_by(|&a, &b| distance(a).total_cmp(&distance(b)))
            .expect("non-empty axis") // lint: allow(unwrap): validate() rejects an empty axis
    }

    /// Cardinality of the full grid.
    pub fn size(&self) -> usize {
        Axis::ALL.iter().map(|&axis| self.len(axis)).product()
    }

    /// Enumerate every candidate in deterministic order: the first axis
    /// of [`Axis::ALL`] varies slowest, the last fastest.
    pub fn candidates(&self) -> Vec<Candidate> {
        (0..self.size())
            .map(|mut k| {
                let mut c = Candidate::paper_default();
                for axis in Axis::ALL.into_iter().rev() {
                    self.set(axis, k % self.len(axis), &mut c);
                    k /= self.len(axis);
                }
                c
            })
            .collect()
    }
}

/// One point of the tuning space.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    pub backend: Backend,
    pub config: HorovodConfig,
}

impl Candidate {
    /// The baseline the paper compares against: system-default MPI with
    /// default Horovod knobs.
    pub fn paper_default() -> Self {
        Candidate { backend: Backend::SpectrumDefault, config: HorovodConfig::default() }
    }

    pub fn label(&self) -> String {
        let mut s = format!(
            "{:?} fusion={} cycle={:.1}ms cache={} hier={}",
            self.backend,
            summit_metrics::fmt_bytes(self.config.fusion_threshold),
            self.config.cycle_time * 1e3,
            u8::from(self.config.response_cache),
            u8::from(self.config.hierarchical_allreduce),
        );
        if self.config.compression != CodecKind::None {
            s.push(' ');
            s.push_str(self.config.compression.name());
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_space_cardinality() {
        let s = KnobSpace::paper();
        s.validate();
        assert_eq!(s.size(), 3 * 8 * 6 * 2 * 2);
        assert_eq!(s.candidates().len(), s.size());
    }

    /// The grid order feeds `grid_search`, `random_search`'s shuffle and
    /// T12: pinned at both ends.
    #[test]
    fn paper_candidates_order_is_pinned() {
        let labels: Vec<String> =
            KnobSpace::paper().candidates().iter().map(Candidate::label).collect();
        assert_eq!(labels.len(), 576);
        assert_eq!(
            labels[..3],
            [
                "SpectrumDefault fusion=0 B cycle=0.5ms cache=1 hier=0",
                "SpectrumDefault fusion=0 B cycle=0.5ms cache=1 hier=1",
                "SpectrumDefault fusion=0 B cycle=0.5ms cache=0 hier=0",
            ]
        );
        assert_eq!(
            labels[573..],
            [
                "Nccl fusion=256 MiB cycle=25.0ms cache=1 hier=1",
                "Nccl fusion=256 MiB cycle=25.0ms cache=0 hier=0",
                "Nccl fusion=256 MiB cycle=25.0ms cache=0 hier=1",
            ]
        );
    }

    #[test]
    fn candidates_are_unique() {
        let s = KnobSpace::small();
        let c = s.candidates();
        for i in 0..c.len() {
            for j in i + 1..c.len() {
                assert!(
                    c[i] != c[j] || c[i].backend != c[j].backend,
                    "duplicate candidates at {i}, {j}"
                );
            }
        }
    }

    #[test]
    fn enumeration_is_deterministic() {
        let a = KnobSpace::paper().candidates();
        let b = KnobSpace::paper().candidates();
        assert_eq!(a.len(), b.len());
        assert!(a.iter().zip(&b).all(|(x, y)| x == y));
    }

    #[test]
    fn default_candidate_is_spectrum_defaults() {
        let d = Candidate::paper_default();
        assert_eq!(d.backend, Backend::SpectrumDefault);
        assert_eq!(d.config, HorovodConfig::default());
        assert!(d.label().contains("SpectrumDefault"));
    }

    #[test]
    #[should_panic(expected = "cycle times must be positive")]
    fn invalid_axis_rejected() {
        let mut s = KnobSpace::small();
        s.cycle_times = vec![0.0];
        s.validate();
    }
}
