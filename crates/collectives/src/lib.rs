//! Collective communication algorithms for the Summit DLv3+ reproduction.
//!
//! Every algorithm — ring, recursive doubling, Rabenseifner
//! (halving-doubling), binomial trees, and the two-level hierarchical
//! composition — compiles to the same round-structured [`Schedule`]
//! representation, which three executors consume:
//!
//! * [`mod@reference`] — sequential oracle used by every correctness test;
//! * [`exec_sim`] — timing over the [`summit_sim`] fluid-flow simulator,
//!   parameterized by a [`exec_sim::CostModel`] (the MPI personalities);
//! * [`exec_thread`] — *real* data movement across OS threads, used by
//!   the numerical training experiments.
//!
//! Having one schedule drive both the clock and the data is the point:
//! the algorithm whose time we report is the algorithm the gradients
//! actually traverse.
//!
//! # Example
//!
//! ```
//! use collectives::{Algorithm, ReduceOp, exec_thread};
//!
//! let schedule = Algorithm::Ring.build(4, 1000);
//! let mut bufs: Vec<Vec<f32>> = (0..4).map(|r| vec![r as f32; 1000]).collect();
//! exec_thread::allreduce(&schedule, &mut bufs, ReduceOp::Sum).unwrap();
//! assert!(bufs.iter().all(|b| b[0] == 6.0)); // 0+1+2+3
//! ```
//!
//! Real data has one rank body, [`exec_peer`]: a single rank's
//! schedule over a [`transport::Wire`] with the seq/ack/nack/resend/
//! dedup reliability protocol and the gradient codec stage — across
//! processes over sockets, across threads over channels
//! ([`exec_thread`] is N of them over an in-process mesh). Fault
//! injection is one [`FaultWire`] decorator ([`exec_fault`]) under a
//! rank's executor: a seeded [`faults::FaultPlan`]'s drops and
//! corruptions are repaired in place, and a planned crash stops the
//! rank. What a death does to a training run — abort, rebuild over the
//! survivors, re-verify, re-run — is the trainer's commit protocol, one
//! for threads and processes.

pub mod algo;
pub mod analytic;
pub mod compression;
pub mod exec_fault;
pub mod exec_peer;
pub mod exec_sim;
pub mod exec_thread;
pub mod hierarchical;
pub mod pipeline;
pub mod pool;
pub mod rabenseifner;
pub mod rd;
pub mod reduce;
pub mod reference;
pub mod ring;
pub mod sched;
pub mod tree;

pub use algo::Algorithm;
pub use analytic::{allreduce_cost, crossover, AlphaBeta};
pub use compression::{codec_for, Codec, CodecKind, EncodeScratch, ErrorFeedback};
pub use exec_fault::{FaultSession, FaultSink, FaultWire};
pub use exec_peer::{CtlSignal, PeerExecError, PeerExecutor, WireStats};
pub use exec_sim::{
    simulate, simulate_compressed, simulate_dense, CostModel, MsgParams, UniformCost, ELEM_BYTES,
};
pub use exec_thread::{ExecContext, ExecError, ExecTrace};
pub use hierarchical::{LeaderAlgo, NodeGroups};
pub use reduce::ReduceOp;
pub use sched::{Action, Round, Rule, Schedule, Seg, Span, Violation};

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::reference::{apply_allreduce, expected_allreduce};
    use proptest::prelude::*;

    fn arb_algorithm() -> impl Strategy<Value = Algorithm> {
        prop_oneof![
            Just(Algorithm::Ring),
            Just(Algorithm::RecursiveDoubling),
            Just(Algorithm::Rabenseifner),
            Just(Algorithm::Tree),
            (
                2usize..=6,
                prop_oneof![
                    Just(LeaderAlgo::Ring),
                    Just(LeaderAlgo::Rabenseifner),
                    Just(LeaderAlgo::Tree)
                ]
            )
                .prop_map(|(per_node, leader)| Algorithm::Hierarchical { per_node, leader }),
            (1usize..=8).prop_map(|chunks| Algorithm::ChunkedRing { chunks }),
            (1usize..=6).prop_map(|per_node| Algorithm::HierarchicalRsag { per_node }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any algorithm, any rank count, any size: the schedule passes
        /// the full static verifier (structural, determinism, deadlock,
        /// coverage) and the reference execution equals the
        /// mathematical allreduce.
        #[test]
        fn schedules_validate_and_reduce_correctly(
            algo in arb_algorithm(),
            n in 1usize..20,
            e in 0usize..80,
            seed in 0u64..1000,
        ) {
            let s = algo.build(n, e);
            prop_assert_eq!(s.verify_allreduce(), Ok(()));
            let ins: Vec<Vec<f32>> = (0..n)
                .map(|r| {
                    (0..e)
                        .map(|i| {
                            let h = summit_metrics::rng::splitmix64(
                                seed ^ (r as u64) << 32 ^ i as u64,
                            );
                            ((h % 1000) as f32 / 100.0) - 5.0
                        })
                        .collect()
                })
                .collect();
            let mut bufs = ins.clone();
            apply_allreduce(&s, &mut bufs, ReduceOp::Sum);
            let want = expected_allreduce(&ins, ReduceOp::Sum);
            for b in &bufs {
                for (g, w) in b.iter().zip(&want) {
                    prop_assert!((g - w).abs() < 1e-2, "got {} want {}", g, w);
                }
            }
        }

        /// The threaded executor agrees with the reference executor
        /// bit-for-bit (same combine order per rank).
        #[test]
        fn threads_match_reference_exactly(
            algo in arb_algorithm(),
            n in 1usize..10,
            e in 0usize..40,
        ) {
            let s = algo.build(n, e);
            let ins: Vec<Vec<f32>> = (0..n)
                .map(|r| (0..e).map(|i| ((r * 31 + i * 17) % 23) as f32 - 11.0).collect())
                .collect();
            let mut by_ref = ins.clone();
            apply_allreduce(&s, &mut by_ref, ReduceOp::Sum);
            let mut by_thr = ins.clone();
            exec_thread::allreduce(&s, &mut by_thr, ReduceOp::Sum).unwrap();
            prop_assert_eq!(by_ref, by_thr);
        }

        /// Per-rank sent traffic of ring and Rabenseifner stays within the
        /// bandwidth-optimal bound (2e elements, reached as p → ∞).
        #[test]
        fn bandwidth_optimal_algorithms_bounded_traffic(
            n in 2usize..33,
            e in 1usize..200,
        ) {
            for algo in [Algorithm::Ring, Algorithm::Rabenseifner] {
                let s = algo.build(n, e);
                // +n slack for odd-size halving imbalance; fold/unfold adds
                // up to 2e for non-power-of-two Rabenseifner.
                let bound = if n.is_power_of_two() { 2 * e + n } else { 4 * e + n };
                prop_assert!(
                    s.max_rank_sent_elems() <= bound,
                    "{:?}: {} > {}", algo, s.max_rank_sent_elems(), bound
                );
            }
        }

        /// Segment partition is a partition: covers, is contiguous, and
        /// is balanced to within one element.
        #[test]
        fn partition_invariants(len in 0usize..500, k in 1usize..40) {
            let segs = Seg::new(0, len).partition(k);
            prop_assert_eq!(segs.len(), k);
            prop_assert_eq!(segs.iter().map(|s| s.len).sum::<usize>(), len);
            for w in segs.windows(2) {
                prop_assert_eq!(w[0].end(), w[1].offset);
                prop_assert!(w[0].len >= w[1].len);
                prop_assert!(w[0].len - w[1].len <= 1);
            }
        }
    }
}
