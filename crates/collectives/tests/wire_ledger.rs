//! One measured wire-byte ledger on both wires: the payload bytes a
//! [`PeerExecutor`] puts on its wire ([`WireStats::data_bytes`]) are
//! exactly the codec's `encoded_len` of every segment the schedule
//! sends — between rank threads over `ChannelWire` and between socket
//! endpoints over `SocketMesh` alike — and a trace's SEND spans add up
//! to the same number, resends included.

mod common;

use std::time::Duration;

use collectives::{
    Action, Algorithm, CodecKind, CtlSignal, ExecContext, ExecTrace, FaultSession, PeerExecutor,
    ReduceOp, Schedule,
};
use faults::{FaultKind, FaultPlan, Injection, RetryPolicy};
use transport::{ChannelWire, Wire};

/// Deadlines far beyond anything these collectives take: a spurious
/// nack would put a resend on the ledger.
fn policy() -> RetryPolicy {
    RetryPolicy {
        base: Duration::from_secs(5),
        factor: 2,
        max_attempts: 4,
        tick: Duration::from_millis(1),
    }
}

fn inputs(n_ranks: usize, n_elems: usize) -> Vec<Vec<f32>> {
    (0..n_ranks)
        .map(|r| (0..n_elems).map(|i| ((r * 29 + i * 5) % 17) as f32 * 0.5 - 4.0).collect())
        .collect()
}

/// Σ `f(seg.len)` over every send of `schedule`.
fn over_sends(schedule: &Schedule, f: impl Fn(usize) -> usize) -> u64 {
    schedule
        .rounds
        .iter()
        .flat_map(|r| r.per_rank.iter())
        .flatten()
        .filter_map(|a| match a {
            Action::Send { seg, .. } => Some(f(seg.len) as u64),
            _ => None,
        })
        .sum()
}

/// One coded allreduce, one executor per endpoint of `wires`: the
/// per-rank results and Σ over ranks of `WireStats::data_bytes`.
fn run_coded<W: Wire>(
    wires: Vec<W>,
    schedule: &Schedule,
    codec: CodecKind,
) -> (Vec<Vec<f32>>, u64) {
    let ids: Vec<usize> = (0..wires.len()).collect();
    let mut bufs = inputs(wires.len(), schedule.n_elems);
    let bytes = std::thread::scope(|scope| {
        let handles: Vec<_> = wires
            .iter()
            .zip(bufs.iter_mut())
            .map(|(wire, buf)| {
                let ids = &ids;
                scope.spawn(move || {
                    let mut exec = PeerExecutor::new(wire, policy()).with_codec(codec);
                    exec.allreduce(schedule, buf, ReduceOp::Sum, ids, &mut || CtlSignal::Continue)
                        .expect("allreduce");
                    exec.stats().data_bytes
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("rank thread")).sum()
    });
    (bufs, bytes)
}

/// 1 000 elements keep every frame inline; 2^16 put every raw segment
/// at or above the socket wire's `BULK_MIN`, so those frames ride its
/// bulk lane — and bill the same bytes.
#[test]
fn wire_byte_ledger_matches_encoded_len_exactly_on_both_wires() {
    let n = 4usize;
    for (e, algo) in [1000usize, 1 << 16]
        .into_iter()
        .flat_map(|e| [Algorithm::Ring, Algorithm::RecursiveDoubling].map(|a| (e, a)))
    {
        let schedule = algo.build(n, e);
        let raw = over_sends(&schedule, |len| 4 * len);
        for codec in CodecKind::ALL {
            let want_bytes = over_sends(&schedule, |len| codec.encoded_len(len));
            let ctx = ExecContext::for_schedule(&schedule).expect("schedule verifies");
            let mut want = inputs(n, e);
            ctx.allreduce_compressed(&schedule, &mut want, ReduceOp::Sum, codec).expect("threads");
            assert_eq!(ctx.wire_bytes(), want_bytes, "{algo} {codec}: ExecContext ledger");

            let (by_channel, chan) = run_coded(ChannelWire::mesh(n), &schedule, codec);
            let (by_socket, sock) = run_coded(common::socket_mesh(n, policy()), &schedule, codec);
            assert_eq!(chan, want_bytes, "{algo} {codec}: channel wire bills encoded_len");
            assert_eq!(sock, want_bytes, "{algo} {codec}: socket wire bills encoded_len");
            assert_eq!(by_channel, want, "{algo} {codec}: channel result");
            assert_eq!(by_socket, want, "{algo} {codec}: socket result is the threaded one");
            if codec == CodecKind::Int8 {
                assert!(raw as f64 / want_bytes as f64 >= 3.5, "int8 must cut wire bytes 3.5x");
            }
        }
    }
}

/// SEND spans carry payload bytes, resends as spans of their own: a
/// traced run's `Breakdown::wire_bytes` is the executors' own ledger
/// even with a repair on the way.
#[test]
fn trace_wire_ledger_is_the_executors_ledger_resends_included() {
    let (n, e) = (4usize, 512usize);
    let schedule = Algorithm::Ring.build(n, e);
    let ids: Vec<usize> = (0..n).collect();
    let once = over_sends(&schedule, |len| 4 * len);

    let drop = Injection { step: 0, rank: 1, round: 0, kind: FaultKind::Drop };
    let rec = trace::TraceRecorder::new();
    let session = FaultSession::new(FaultPlan::explicit(1, vec![drop]))
        .with_trace(ExecTrace::comm(&rec, &ids));
    let run = common::run_faulty_channels(&ids, &session, &schedule, inputs(n, e), ReduceOp::Sum);
    assert!(run.outcomes.iter().all(Result::is_ok), "repair");
    assert!(session.counts().resends >= 1, "the drop must have been repaired");
    assert!(run.wire_bytes > once, "a resend puts its bytes on the wire a second time");
    assert_eq!(trace::analyze(&rec.to_chrome_events()).wire_bytes, run.wire_bytes);
}
