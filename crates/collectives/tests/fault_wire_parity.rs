//! One fault injector under one rank body: N `PeerExecutor`s over
//! `FaultWire`-wrapped endpoints (`common::run_faulty`). Each
//! injection repairs bit-exactly and lands in the session's counters,
//! event log and trace lanes; a crash stops exactly the planned rank,
//! addressed by original id. And what collapsing the two reliability
//! protocols into one buys: the same seeded [`FaultPlan`] drives the
//! same decorator over the in-process channel backend and over real
//! Unix-domain sockets, and both repair every drop and corruption
//! bit-exactly — frames inline and frames in the sockets' bulk lane
//! alike.

mod common;

use std::time::Duration;

use collectives::reference::apply_allreduce;
use collectives::{Algorithm, ExecTrace, FaultSession, ReduceOp, Schedule};
use faults::{
    FaultCounterSnapshot, FaultEvent, FaultKind, FaultPlan, FaultSpec, Injection, RetryPolicy,
};
use transport::{ChannelWire, Wire, BULK_MIN};

use common::{run_faulty, run_faulty_channels};

fn policy() -> RetryPolicy {
    RetryPolicy {
        base: Duration::from_millis(10),
        factor: 2,
        max_attempts: 6,
        tick: Duration::from_millis(1),
    }
}

fn inputs(n_ranks: usize, n_elems: usize) -> Vec<Vec<f32>> {
    (0..n_ranks)
        .map(|r| (0..n_elems).map(|i| ((r * 37 + i * 11) % 29) as f32 * 0.125 - 1.5).collect())
        .collect()
}

fn ids(n: usize) -> Vec<usize> {
    (0..n).collect()
}

/// `schedule`'s fault-free result on `inputs(n, e)`.
fn reference(schedule: &Schedule) -> Vec<Vec<f32>> {
    let mut want = inputs(schedule.n_ranks, schedule.n_elems);
    apply_allreduce(schedule, &mut want, ReduceOp::Sum);
    want
}

#[test]
fn empty_plan_matches_reference_bit_for_bit() {
    let s = Algorithm::Ring.build(4, 64);
    let session = FaultSession::new(FaultPlan::none());
    let run = run_faulty_channels(&ids(4), &session, &s, inputs(4, 64), ReduceOp::Sum);
    assert_eq!(run.bufs, reference(&s));
    assert!(session.events().is_empty());
}

#[test]
fn dropped_payloads_are_recovered_exactly() {
    let s = Algorithm::Ring.build(4, 32);
    let plan = FaultPlan::explicit(
        1,
        vec![
            Injection { step: 0, rank: 1, round: 0, kind: FaultKind::Drop },
            Injection { step: 0, rank: 3, round: 2, kind: FaultKind::Drop },
        ],
    );
    let session = FaultSession::new(plan);
    let run = run_faulty_channels(&ids(4), &session, &s, inputs(4, 32), ReduceOp::Sum);
    assert_eq!(run.bufs, reference(&s), "drop recovery must be bit-exact");
    let c = session.counts();
    assert_eq!(c.injected_drops, 2);
    assert!(c.resends >= 2, "each drop needs at least one resend: {c}");
    assert!(c.timeouts >= 2, "drops are only noticed via deadlines: {c}");
}

#[test]
fn corrupted_payloads_are_rejected_and_resent() {
    let s = Algorithm::RecursiveDoubling.build(4, 32);
    let plan = FaultPlan::explicit(
        2,
        vec![Injection { step: 0, rank: 2, round: 1, kind: FaultKind::Corrupt }],
    );
    let session = FaultSession::new(plan);
    let run = run_faulty_channels(&ids(4), &session, &s, inputs(4, 32), ReduceOp::Sum);
    assert_eq!(run.bufs, reference(&s), "corruption must never reach the buffers");
    let c = session.counts();
    assert_eq!(c.injected_corruptions, 1);
    assert!(c.crc_rejects >= 1, "{c}");
    assert!(c.resends >= 1, "{c}");
}

#[test]
fn stragglers_only_delay_under_virtual_clock() {
    let s = Algorithm::Ring.build(4, 16);
    let plan = FaultPlan::explicit(
        3,
        vec![Injection {
            step: 0,
            rank: 0,
            round: 1,
            kind: FaultKind::Straggle { millis: 60_000 },
        }],
    );
    let session = FaultSession::new(plan); // virtual: must not sleep a minute
    let t0 = std::time::Instant::now();
    let run = run_faulty_channels(&ids(4), &session, &s, inputs(4, 16), ReduceOp::Sum);
    assert!(t0.elapsed() < Duration::from_secs(10));
    assert_eq!(run.bufs, reference(&s));
    assert_eq!(session.clock().injected(), Duration::from_secs(60));
    assert_eq!(session.counts().injected_straggles, 1);
}

#[test]
fn crash_aborts_with_the_dead_rank_reported() {
    let s = Algorithm::Ring.build(4, 24);
    let plan = FaultPlan::explicit(
        4,
        vec![Injection { step: 0, rank: 2, round: 1, kind: FaultKind::Crash }],
    );
    let session = FaultSession::new(plan);
    let run = run_faulty_channels(&ids(4), &session, &s, inputs(4, 24), ReduceOp::Sum);
    assert_eq!(run.crashed(), vec![2], "a crashed rank must abort the collective");
    let c = session.counts();
    assert_eq!(c.injected_crashes, 1);
    assert!(c.rank_deaths >= 1, "at least one peer must observe the death: {c}");
}

/// After a degradation the mesh positions 0..3 may stand for original
/// ids {0, 1, 3, 4}: the plan must hit original id 3 (position 2), and
/// a drop addressed to an original id is repaired on such a mesh too.
#[test]
fn injections_address_original_ids() {
    let s = Algorithm::Ring.build(4, 16);
    let crash = Injection { step: 0, rank: 3, round: 0, kind: FaultKind::Crash };
    let session = FaultSession::new(FaultPlan::explicit(5, vec![crash]));
    let run = run_faulty_channels(&[0, 1, 3, 4], &session, &s, inputs(4, 16), ReduceOp::Sum);
    assert_eq!(run.crashed(), vec![2], "original id 3 is present as position 2");

    let s = Algorithm::Ring.build(4, 96);
    let drop = Injection { step: 0, rank: 5, round: 1, kind: FaultKind::Drop };
    let session = FaultSession::new(FaultPlan::explicit(1, vec![drop]));
    let run = run_faulty_channels(&[2, 5, 7, 8], &session, &s, inputs(4, 96), ReduceOp::Sum);
    assert_eq!(run.bufs, reference(&s));
    assert_eq!(session.counts().injected_drops, 1);
    let crash = Injection { step: 0, rank: 7, round: 0, kind: FaultKind::Crash };
    let session = FaultSession::new(FaultPlan::explicit(2, vec![crash]));
    let run = run_faulty_channels(&[2, 5, 7, 8], &session, &s, inputs(4, 96), ReduceOp::Sum);
    assert_eq!(run.crashed(), vec![2], "rank 7 crashes");
}

#[test]
fn traced_fault_run_records_retry_and_fault_events() {
    let s = Algorithm::Ring.build(4, 32);
    let plan = FaultPlan::explicit(
        1,
        vec![Injection { step: 0, rank: 1, round: 0, kind: FaultKind::Drop }],
    );
    let rec = trace::TraceRecorder::new();
    let session = FaultSession::new(plan).with_trace(ExecTrace::comm(&rec, &ids(4)));
    run_faulty_channels(&ids(4), &session, &s, inputs(4, 32), ReduceOp::Sum);
    let snap = rec.snapshot();
    assert_eq!(snap.pids(), vec![0, 1, 2, 3]);
    let cats: Vec<&str> = snap.lanes.iter().flat_map(|l| l.spans.iter()).map(|s| s.cat).collect();
    assert!(cats.contains(&"SEND") && cats.contains(&"RECV"), "{cats:?}");
    assert!(cats.contains(&"FAULT"), "drop injection must land in the FAULT lane: {cats:?}");
    assert!(cats.contains(&"RETRY"), "drop recovery goes through timeout/resend: {cats:?}");
    // The injection was recorded on the faulty rank's own pid row.
    let rank1 = snap.lanes.iter().find(|l| l.pid == 1).expect("rank 1 lane");
    assert!(rank1.spans.iter().any(|s| s.cat == "FAULT" && s.name == "drop"));
}

#[test]
fn faulty_runs_replay_identically_from_the_same_plan() {
    let s = Algorithm::Ring.build(4, 48);
    let spec = FaultSpec {
        drops: 2,
        corruptions: 2,
        stragglers: 2,
        ..FaultSpec::none(4, 1, s.n_rounds())
    };
    let run = |seed: u64| {
        let session = FaultSession::new(FaultPlan::seeded(seed, &spec));
        let run = run_faulty_channels(&ids(4), &session, &s, inputs(4, 48), ReduceOp::Sum);
        (run.bufs, session.events().deterministic_core(), session.counts().deterministic_part())
    };
    let (b1, e1, c1) = run(11);
    let (b2, e2, c2) = run(11);
    assert_eq!(b1, b2, "same seed, same numbers");
    assert_eq!(e1, e2, "same seed, same deterministic events");
    assert_eq!(c1, c2, "same seed, same deterministic counters");
    let mut clean = inputs(4, 48);
    collectives::exec_thread::allreduce(&s, &mut clean, ReduceOp::Sum).unwrap();
    assert_eq!(b1, clean, "faults repaired ⇒ identical to the fault-free run");
}

/// What one run of a recoverable plan left: the per-rank results, the
/// session's counters, its deterministic event log, and the data frames
/// that rode a bulk lane.
struct Repaired {
    bufs: Vec<Vec<f32>>,
    counts: FaultCounterSnapshot,
    events: Vec<FaultEvent>,
    lane_frames: u64,
}

/// One run of a recoverable `plan` over `mesh`.
fn repair<W: Wire>(mut mesh: Vec<W>, plan: FaultPlan, schedule: &Schedule) -> Repaired {
    let session = FaultSession::new(plan).with_policy(policy());
    let ins = inputs(schedule.n_ranks, schedule.n_elems);
    // No rank stops under a recoverable plan, so none is hung up.
    let run = run_faulty(&mut mesh, &session, schedule, ins, ReduceOp::Sum, |_| {});
    assert!(run.outcomes.iter().all(Result::is_ok), "recoverable faults only");
    Repaired {
        bufs: run.bufs,
        counts: session.counts(),
        events: session.events().deterministic_core(),
        lane_frames: run.lane_frames,
    }
}

/// 96 elements keep every frame inline; 2^16 put every segment at or
/// above `BULK_MIN` (a 4-rank ring's quarter is exactly 64 KiB), so on
/// sockets the plan's drops and corruptions hit bulk-lane frames and
/// their resends.
#[test]
fn one_plan_repairs_identically_over_channels_and_sockets() {
    for (n, e) in [2usize, 4].into_iter().flat_map(|n| [(n, 96usize), (n, 1 << 16)]) {
        for algo in [Algorithm::Ring, Algorithm::RecursiveDoubling] {
            let schedule = algo.build(n, e);
            let spec = FaultSpec {
                drops: 2,
                corruptions: 2,
                stragglers: 1,
                ..FaultSpec::none(n, 1, schedule.n_rounds())
            };
            let plan = FaultPlan::seeded(0xFA17 + n as u64, &spec);
            let want = reference(&schedule);

            let by_channel = repair(ChannelWire::mesh(n), plan.clone(), &schedule);
            let by_socket = repair(common::socket_mesh(n, policy()), plan, &schedule);
            let (chan, sock) = (by_channel.counts, by_socket.counts);
            assert_eq!(by_channel.bufs, want, "{algo:?} n={n}: channel result");
            assert_eq!(by_socket.bufs, want, "{algo:?} n={n}: socket result");
            assert_eq!(
                chan.deterministic_part(),
                sock.deterministic_part(),
                "{algo:?} n={n}: the plan must fire identically on both wires"
            );
            assert_eq!(by_channel.events, by_socket.events, "{algo:?} n={n} e={e}: one event log");
            assert_eq!(by_channel.lane_frames, 0, "channels have no bulk lane");
            let bulk = e / n * 4 >= BULK_MIN;
            assert_eq!(by_socket.lane_frames > 0, bulk, "{algo:?} n={n} e={e}: lane engaged");
            assert!(chan.injected_drops + chan.injected_corruptions > 0, "{algo:?} n={n}: {chan}");
            for (wire, c) in [("channel", chan), ("socket", sock)] {
                assert!(c.crc_rejects >= c.injected_corruptions, "{algo:?} n={n} {wire}: {c}");
                assert!(
                    c.resends >= c.injected_drops + c.injected_corruptions,
                    "{algo:?} n={n} {wire}: {c}"
                );
            }
        }
    }
}
