//! One silence rule covers the start barrier as it covers the steps: a
//! worker beacons while it waits in `join_barrier`, so a worker whose
//! control stream is open but that never waits — wedged before its
//! `Ready` — goes silent, and `coordinate` fails the run naming it
//! within one death threshold and a few ticks.

use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

use faults::RetryPolicy;
use trainer::real::commit::{self, Coordinator};
use transport::{Inbox, PeerConn, WireError};

const WORKERS: usize = 2;
const WEDGED: usize = 1;

/// Heartbeat interval two ticks; death threshold 280 ms.
fn policy() -> RetryPolicy {
    RetryPolicy {
        base: Duration::from_millis(40),
        factor: 2,
        max_attempts: 3,
        tick: Duration::from_millis(10),
    }
}

#[test]
fn a_worker_that_never_waits_is_never_ready() {
    let pol = policy();
    let inbox = Inbox::sockets();
    let mut conns = Vec::new();
    let mut worker_ends = Vec::new();
    let t0 = Instant::now();
    for rank in 0..WORKERS {
        let (ours, theirs) = UnixStream::pair().expect("socketpair");
        conns
            .push(Some(PeerConn::solo_into(rank, WORKERS, ours, Some(pol), &inbox).expect("conn")));
        worker_ends.push(PeerConn::solo(WORKERS, rank, theirs, Some(pol)).expect("worker end"));
    }
    let failed = std::thread::scope(|s| {
        let ready = &worker_ends[0];
        // Rank 0 joins the barrier and, refused its `Start`, waits on
        // until the coordinator hangs up. Rank 1's end stays open and
        // idle.
        s.spawn(move || {
            let _ = commit::join_barrier(ready, &pol, 0);
            while ready.recv_timeout(pol.death_threshold()) != Err(WireError::PeerGone) {}
        });
        let mut machine = Coordinator::new(WORKERS, None);
        let failed = commit::coordinate(&mut machine, &inbox, &conns, &pol, &mut ());
        drop(conns);
        failed
    });
    let took = t0.elapsed();
    assert_eq!(failed, Err(format!("rank {WEDGED} never became ready")));
    assert!(took >= pol.death_threshold(), "failed after {took:?}, before the bound");
    let bound = pol.death_threshold() + pol.tick * 5;
    assert!(took <= bound, "failed after {took:?}, past {bound:?}");
}
