//! What collapsing the two reliability protocols into one buys: the
//! same seeded [`FaultPlan`] drives the same [`FaultWire`] decorator
//! over the in-process channel backend and over real Unix-domain
//! sockets, and both repair every drop and corruption bit-exactly —
//! the first drop/corrupt coverage of the socket path.

mod common;

use std::time::Duration;

use collectives::reference::apply_allreduce;
use collectives::{
    Algorithm, CtlSignal, FaultSession, FaultWire, PeerExecutor, ReduceOp, Schedule,
};
use faults::{FaultPlan, FaultSpec, RetryPolicy};
use summit_metrics::FaultCounterSnapshot;
use transport::{ChannelWire, Wire};

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

/// One allreduce under `plan` with every endpoint of `wires` behind a
/// [`FaultWire`]: the per-rank results and the session's counters.
fn run_faulty<W: Wire>(
    wires: Vec<W>,
    plan: FaultPlan,
    schedule: &Schedule,
) -> (Vec<Vec<f32>>, FaultCounterSnapshot) {
    let n = wires.len();
    let ids: Vec<usize> = (0..n).collect();
    let session = FaultSession::new(plan).with_policy(policy());
    let wires: Vec<FaultWire<'_, W>> = wires.iter().map(|w| FaultWire::new(w, &session)).collect();
    let mut bufs = inputs(n, schedule.n_elems);
    std::thread::scope(|scope| {
        for (wire, buf) in wires.iter().zip(bufs.iter_mut()) {
            let (ids, session) = (&ids, &session);
            scope.spawn(move || {
                let mut exec =
                    PeerExecutor::new(wire, session.policy()).with_sink(session.sink(wire.rank()));
                exec.allreduce(schedule, buf, ReduceOp::Sum, ids, &mut || CtlSignal::Continue)
                    .expect("recoverable faults only");
            });
        }
    });
    (bufs, session.counters().snapshot())
}

#[test]
fn one_plan_repairs_identically_over_channels_and_sockets() {
    for n in [2usize, 4] {
        for algo in [Algorithm::Ring, Algorithm::RecursiveDoubling] {
            let schedule = algo.build(n, 96);
            let spec = FaultSpec {
                drops: 2,
                corruptions: 2,
                stragglers: 1,
                ..FaultSpec::none(n, 1, schedule.n_rounds())
            };
            let plan = FaultPlan::seeded(0xFA17 + n as u64, &spec);
            let mut want = inputs(n, schedule.n_elems);
            apply_allreduce(&schedule, &mut want, ReduceOp::Sum);

            let (by_channel, chan) = run_faulty(ChannelWire::mesh(n), plan.clone(), &schedule);
            let (by_socket, sock) = run_faulty(common::socket_mesh(n, policy()), plan, &schedule);
            assert_eq!(by_channel, want, "{algo:?} n={n}: channel result");
            assert_eq!(by_socket, want, "{algo:?} n={n}: socket result");
            assert_eq!(
                chan.deterministic_part(),
                sock.deterministic_part(),
                "{algo:?} n={n}: the plan must fire identically on both wires"
            );
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
