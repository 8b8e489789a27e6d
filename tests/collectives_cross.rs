//! Cross-crate integration of the collectives layer: the same schedules
//! must be numerically correct (threaded executor), structurally valid,
//! and time sensibly under every MPI personality.

use summit_dlv3_repro::collectives::{
    exec_thread, reference, simulate_dense, Algorithm, LeaderAlgo, ReduceOp,
};
use summit_dlv3_repro::mpi_profiles::MpiProfile;
use summit_dlv3_repro::prelude::*;

fn all_algorithms() -> Vec<Algorithm> {
    vec![
        Algorithm::Ring,
        Algorithm::RecursiveDoubling,
        Algorithm::Rabenseifner,
        Algorithm::Tree,
        Algorithm::Hierarchical { per_node: 6, leader: LeaderAlgo::Ring },
        Algorithm::Hierarchical { per_node: 6, leader: LeaderAlgo::Rabenseifner },
    ]
}

#[test]
fn every_algorithm_correct_at_awkward_sizes() {
    for algo in all_algorithms() {
        for (n, e) in [(13usize, 7usize), (6, 1), (9, 100), (18, 31)] {
            let s = algo.build(n, e);
            s.verify_allreduce().unwrap_or_else(|err| panic!("{algo} n={n} e={e}: {err:?}"));
            let ins: Vec<Vec<f32>> = (0..n)
                .map(|r| (0..e).map(|i| ((r * 19 + i * 7) % 13) as f32 - 6.0).collect())
                .collect();
            let mut bufs = ins.clone();
            exec_thread::allreduce(&s, &mut bufs, ReduceOp::Sum).unwrap();
            reference::assert_allreduce_result(&ins, &bufs, ReduceOp::Sum, 1e-3);
        }
    }
}

#[test]
fn pooled_executor_matches_reference_for_every_algorithm() {
    // One ExecContext reused across all algorithms, world sizes and
    // calls: the parked rank set (rebuilt whenever the world changes,
    // reused whenever it does not) must never change results. That the
    // warm path stops allocating with the payload is pinned under a
    // counting allocator in `collectives/tests/exec_alloc.rs`.
    let ctx = exec_thread::ExecContext::new();
    for algo in all_algorithms() {
        for (n, e) in [(13usize, 7usize), (9, 100)] {
            let s = algo.build(n, e);
            let ins: Vec<Vec<f32>> = (0..n)
                .map(|r| (0..e).map(|i| ((r * 11 + i * 5) % 17) as f32 - 8.0).collect())
                .collect();
            let mut bufs = ins.clone();
            ctx.allreduce(&s, &mut bufs, ReduceOp::Average).unwrap();
            reference::assert_allreduce_result(&ins, &bufs, ReduceOp::Average, 1e-3);
        }
    }
}

#[test]
fn fp16_compressed_allreduce_matches_reference_on_compressed_inputs() {
    // The fp16 path casts gradients down/up around the reduce. Since the
    // reduction itself runs in f32, the pooled threaded allreduce of
    // compressed buffers must agree exactly with the reference reduction
    // of the same compressed inputs — compression commutes with which
    // executor runs the schedule.
    use summit_dlv3_repro::collectives::compression::{roundtrip, CodecKind, EncodeScratch};
    let ctx = exec_thread::ExecContext::new();
    let mut scratch = EncodeScratch::new();
    for algo in all_algorithms() {
        let (n, e) = (6usize, 37usize);
        let s = algo.build(n, e);
        let mut ins: Vec<Vec<f32>> = (0..n)
            .map(|r| (0..e).map(|i| ((r * 7 + i * 3) % 29) as f32 * 0.0137 - 0.19).collect())
            .collect();
        for buf in &mut ins {
            roundtrip(CodecKind::Fp16, buf, &mut scratch);
        }
        let mut bufs = ins.clone();
        ctx.allreduce(&s, &mut bufs, ReduceOp::Average).unwrap();
        reference::assert_allreduce_result(&ins, &bufs, ReduceOp::Average, 1e-5);
        // And the values really went through half precision: every input
        // must be exactly f16-representable, i.e. a second roundtrip is
        // the identity.
        for buf in &ins {
            let mut again = buf.clone();
            roundtrip(CodecKind::Fp16, &mut again, &mut scratch);
            assert_eq!(&again, buf);
        }
    }
}

#[test]
fn simulated_times_are_positive_and_ordered_by_personality() {
    let machine = Machine::new(MachineConfig::summit_for_gpus(24));
    let mv2 = MpiProfile::mvapich2_gdr();
    let spec = MpiProfile::spectrum_default();
    for algo in [Algorithm::Ring, Algorithm::Rabenseifner] {
        let sched = algo.build(24, 4 << 20);
        let t_mv2 = simulate_dense(&sched, &machine, &mv2).makespan;
        let t_spec = simulate_dense(&sched, &machine, &spec).makespan;
        assert!(t_mv2 > SimTime::ZERO);
        assert!(
            t_spec > t_mv2,
            "{algo}: Spectrum ({t_spec}) must be slower than MV2-GDR ({t_mv2})"
        );
    }
}

#[test]
fn personality_selection_tables_pick_the_simulated_winner_in_band() {
    // For the three MV2 table bands, the selected algorithm should be at
    // least competitive with the others at a representative size.
    let machine = Machine::new(MachineConfig::summit_for_gpus(48));
    let mv2 = MpiProfile::mvapich2_gdr();
    for bytes in [8u64 << 10, 1 << 20, 64 << 20] {
        let selected = mv2.select_algorithm(bytes);
        let elems = (bytes / 4) as usize;
        let t_selected =
            simulate_dense(&selected.build(48, elems), &machine, &mv2).makespan.as_secs_f64();
        for other in all_algorithms() {
            let t_other =
                simulate_dense(&other.build(48, elems), &machine, &mv2).makespan.as_secs_f64();
            assert!(
                t_selected <= t_other * 1.35,
                "at {bytes} B, table picked {selected} ({t_selected:.2e}s) but {other} is much \
                 faster ({t_other:.2e}s)"
            );
        }
    }
}

#[test]
fn oracle_and_exact_simulation_agree() {
    let machine = Machine::new(MachineConfig::summit_for_gpus(48));
    let profile = MpiProfile::mvapich2_gdr();
    let oracle = AllreduceOracle::new(profile.clone(), &machine, 48);
    for bytes in [64u64 << 10, 3 << 20, 50 << 20] {
        let exact = profile.allreduce_time(&machine, 48, bytes).as_secs_f64();
        let interp = oracle.time(bytes);
        assert!(
            (interp - exact).abs() / exact < 0.2,
            "oracle {interp:.3e} vs exact {exact:.3e} at {bytes} B"
        );
    }
}

#[test]
fn gradient_sized_allreduce_timing_sanity() {
    // The whole DLv3+ gradient (209 MiB) over 132 GPUs: tuned stack must
    // move it in tens of ms, not seconds (else scaling would be absurd).
    let machine = Machine::new(MachineConfig::summit_for_gpus(132));
    let mv2 = MpiProfile::mvapich2_gdr();
    let t = mv2.allreduce_time(&machine, 132, deeplab_paper().gradient_bytes()).as_secs_f64();
    assert!(t > 5e-3 && t < 0.5, "209 MiB @ 132 GPUs took {t}s");
}
