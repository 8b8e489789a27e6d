//! Helpers shared by the integration suites: real socket meshes, and
//! the one way a test runs a collective under a fault plan.

// Each suite compiles this module on its own and uses part of it.
#![allow(dead_code)]

use std::os::unix::net::UnixStream;

use collectives::{
    CtlSignal, FaultSession, FaultWire, PeerExecError, PeerExecutor, ReduceOp, Schedule,
};
use faults::RetryPolicy;
use transport::{ChannelWire, SocketMesh, Wire};

/// A full socket mesh over `n` ranks from `UnixStream::pair()`s, every
/// connection paced by `policy`.
pub fn socket_mesh(n: usize, policy: RetryPolicy) -> Vec<SocketMesh> {
    let mut streams: Vec<Vec<(usize, UnixStream)>> = (0..n).map(|_| Vec::new()).collect();
    for a in 0..n {
        for b in a + 1..n {
            let (sa, sb) = UnixStream::pair().expect("socketpair");
            streams[a].push((b, sa));
            streams[b].push((a, sb));
        }
    }
    streams
        .into_iter()
        .enumerate()
        .map(|(rank, s)| SocketMesh::new(rank, (0..n).collect(), s, policy).expect("mesh"))
        .collect()
}

/// What one allreduce under a fault plan left behind.
#[derive(Debug)]
pub struct Faulty {
    /// Every rank's buffer, in mesh order (partial where the rank
    /// stopped short).
    pub bufs: Vec<Vec<f32>>,
    /// Every rank's executor outcome, in mesh order.
    pub outcomes: Vec<Result<(), PeerExecError>>,
    /// Σ over ranks of `WireStats::data_bytes`: payload bytes on the
    /// wire, resends included.
    pub wire_bytes: u64,
    /// Σ over ranks of `WireStats::lane_frames`: data frames whose
    /// payload rode a socket's bulk lane.
    pub lane_frames: u64,
}

impl Faulty {
    /// Mesh positions of the ranks whose wire refused a round: the
    /// plan's crashes, the authoritative dead set.
    pub fn crashed(&self) -> Vec<usize> {
        (0..self.outcomes.len())
            .filter(|&r| self.outcomes[r] == Err(PeerExecError::Aborted))
            .collect()
    }
}

/// One allreduce of `schedule` over `inputs`: N [`PeerExecutor`]s, one
/// thread each, every endpoint of `wires` behind a [`FaultWire`] over
/// `session`'s plan, paced by `session`'s policy and reporting into
/// its sink. The executors address ranks by the wires' original ids.
/// A rank that stops short — plan-crashed, or giving up on a dead peer
/// — is hung up with `hang_up` (its senders only: the wires outlive
/// every rank thread), so the abort cascades as it does when a process
/// dies.
pub fn run_faulty<W: Wire>(
    wires: &mut [W],
    session: &FaultSession,
    schedule: &Schedule,
    inputs: Vec<Vec<f32>>,
    op: ReduceOp,
    hang_up: impl Fn(&mut W) + Sync,
) -> Faulty {
    let ids: Vec<usize> = wires[0].world_ids().to_vec();
    let mut bufs = inputs;
    let (outcomes, wire_bytes, lane_frames) = std::thread::scope(|scope| {
        let handles: Vec<_> = wires
            .iter_mut()
            .zip(bufs.iter_mut())
            .map(|(wire, buf)| {
                let (ids, hang_up) = (&ids, &hang_up);
                scope.spawn(move || {
                    let (outcome, stats) = {
                        let link = FaultWire::new(&*wire, session);
                        let mut exec = PeerExecutor::new(&link, session.policy())
                            .with_sink(session.sink(link.rank()));
                        let outcome =
                            exec.allreduce(schedule, buf, op, ids, &mut || CtlSignal::Continue);
                        (outcome, exec.stats())
                    };
                    if outcome.is_err() {
                        hang_up(wire);
                    }
                    (outcome, stats)
                })
            })
            .collect();
        let done: Vec<_> = handles.into_iter().map(|h| h.join().expect("rank thread")).collect();
        let bytes = done.iter().map(|(_, s)| s.data_bytes).sum();
        let lane = done.iter().map(|(_, s)| s.lane_frames).sum();
        (done.into_iter().map(|(o, _)| o).collect(), bytes, lane)
    });
    Faulty { bufs, outcomes, wire_bytes, lane_frames }
}

/// [`run_faulty`] over a fresh in-process mesh on original ids `ids`,
/// where a rank that stops hangs up its channel senders.
pub fn run_faulty_channels(
    ids: &[usize],
    session: &FaultSession,
    schedule: &Schedule,
    inputs: Vec<Vec<f32>>,
    op: ReduceOp,
) -> Faulty {
    let mut mesh = ChannelWire::mesh_of(ids);
    run_faulty(&mut mesh, session, schedule, inputs, op, |w| {
        for &peer in ids {
            w.hang_up(peer);
        }
    })
}
