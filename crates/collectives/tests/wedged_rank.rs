//! A rank body wedged in its own code — its process alive, its mesh
//! open — is declared dead by silence. A rank beacons only from its
//! waits, so one that stops waiting goes quiet, and every rank waiting
//! on it sees `PeerDead` once it has been silent past the death
//! threshold: the run degrades. A beacon from anywhere but a wait would
//! keep the wedged rank heard for ever, and its peers would instead
//! exhaust their retries (`RetriesExhausted`), which fails the run.

mod common;

use std::time::{Duration, Instant};

use collectives::{ring, CtlSignal, PeerExecError, PeerExecutor, ReduceOp};
use faults::RetryPolicy;
use transport::Wire;

const ELEMS: usize = 64;

fn short() -> RetryPolicy {
    RetryPolicy {
        base: Duration::from_millis(10),
        factor: 2,
        max_attempts: 4,
        tick: Duration::from_millis(1),
    }
}

/// Ranks 0 and 1 each allreduce with rank 2, whose thread holds its
/// mesh open and waits on nothing for three death thresholds. Both get
/// `PeerDead { 2 }`, well before rank 2's mesh closes (which would be
/// the other, EOF, signal).
#[test]
fn a_wedged_rank_body_is_declared_dead_by_silence() {
    let policy = short();
    let wedged_for = policy.death_threshold() * 3;
    let mut meshes = common::socket_mesh(3, policy);
    let wedged = meshes.pop().expect("rank 2's mesh");
    let schedule = ring::allreduce(2, ELEMS);
    std::thread::scope(|s| {
        s.spawn(move || {
            let _open = wedged;
            std::thread::sleep(wedged_for);
        });
        let waiting: Vec<_> = meshes
            .iter()
            .map(|mesh| {
                let schedule = &schedule;
                s.spawn(move || {
                    let me = mesh.rank();
                    let mut buf = vec![me as f32; ELEMS];
                    let mut exec = PeerExecutor::new(mesh, policy);
                    let t0 = Instant::now();
                    let got =
                        exec.allreduce(schedule, &mut buf, ReduceOp::Sum, &[me, 2], &mut || {
                            CtlSignal::Continue
                        });
                    (me, got, t0.elapsed())
                })
            })
            .collect();
        for rank in waiting {
            let (me, got, took) = rank.join().expect("rank thread");
            assert_eq!(got, Err(PeerExecError::PeerDead { dead: vec![2] }), "rank {me}");
            assert!(took < wedged_for, "rank {me} took {took:?}, rank 2 closed at {wedged_for:?}");
        }
    });
}
