//! The socket [`Wire`] backend: a full mesh of [`PeerConn`]s over
//! Unix-domain sockets, one per peer pair, addressed by original rank
//! id. Built by the rendezvous protocol ([`crate::rendezvous`]); the
//! buffer pool is shared across connections so released payloads serve
//! whichever peer reads next, and whichever send leases next. A lease
//! of [`BULK_MIN`](crate::BULK_MIN) bytes or more comes from the bulk
//! lane of the connection to its peer ([`crate::lane`]): a slot of a
//! shared-memory segment that peer reads in place. The mesh is its
//! rank's set of connections ([`crate::conn`]): every wait on any of
//! them — and on the rank's control stream, which joins the set — polls,
//! reads and beacons them all.

use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::Duration;

use faults::RetryPolicy;

use crate::conn::{BufPool, PeerConn, Set};
use crate::frame::Frame;
use crate::lane::Lease;
use crate::{Wire, WireError};

/// See the module docs.
#[derive(Debug)]
pub struct SocketMesh {
    rank: usize,
    world_ids: Vec<usize>,
    /// Indexed by original id; `None` for self and never-connected ids.
    conns: Vec<Option<PeerConn>>,
    pool: Arc<BufPool>,
    /// The rank's set: every connection above, and any it adopts.
    set: Arc<Set>,
}

impl SocketMesh {
    /// Assemble a mesh for original rank `rank` over `world_ids` from
    /// established per-peer streams. The waits on any of them beacon on
    /// each at the pace of `policy`, and a send gives up on its silence
    /// bound.
    pub fn new(
        rank: usize,
        world_ids: Vec<usize>,
        streams: Vec<(usize, UnixStream)>,
        policy: RetryPolicy,
    ) -> std::io::Result<Self> {
        let max_id = world_ids.iter().copied().max().unwrap_or(0);
        let (pool, set) = (BufPool::new(), Set::new(false));
        let mut conns: Vec<Option<PeerConn>> = (0..=max_id).map(|_| None).collect();
        for (peer, stream) in streams {
            let conn = PeerConn::open(peer, rank, stream, Arc::clone(&pool), Some(policy), &set)?;
            conns[peer] = Some(conn);
        }
        Ok(SocketMesh { rank, world_ids, conns, pool, set })
    }

    /// A connection to `peer` outside the mesh — the rank's control
    /// stream — a member of its set, so a wait on it progresses the
    /// mesh and a wait in the mesh reads it.
    pub(crate) fn adopt(
        &self,
        peer: usize,
        stream: UnixStream,
        policy: RetryPolicy,
    ) -> std::io::Result<PeerConn> {
        PeerConn::open(peer, self.rank, stream, Arc::clone(&self.pool), Some(policy), &self.set)
    }

    fn conn(&self, peer: usize) -> Result<&PeerConn, WireError> {
        self.conns.get(peer).and_then(|c| c.as_ref()).ok_or(WireError::NoSuchPeer(peer))
    }
}

impl Wire for SocketMesh {
    fn rank(&self) -> usize {
        self.rank
    }

    fn world_ids(&self) -> &[usize] {
        &self.world_ids
    }

    fn send(&self, peer: usize, frame: &Frame) -> Result<(), WireError> {
        self.conn(peer)?.send(frame)
    }

    fn recv_timeout(&self, peer: usize, timeout: Duration) -> Result<Frame, WireError> {
        self.conn(peer)?.recv_timeout(timeout)
    }

    fn silence(&self, peer: usize) -> Duration {
        match self.conn(peer) {
            Ok(c) => c.silence(),
            Err(_) => Duration::MAX,
        }
    }

    fn release(&self, payload: Vec<u8>) {
        self.pool.release(payload);
    }

    fn lease(&self, peer: usize, len: usize) -> Lease {
        match self.conn(peer) {
            Ok(c) => c.lease(len),
            Err(_) => Lease::heap(self.pool.acquire(), len),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameKind;

    fn fast() -> RetryPolicy {
        RetryPolicy {
            base: Duration::from_millis(10),
            factor: 2,
            max_attempts: 4,
            tick: Duration::from_millis(1),
        }
    }

    /// An in-process two-rank mesh over a real socketpair: the smallest
    /// configuration that exercises framed byte streams end to end.
    #[test]
    fn two_rank_mesh_over_socketpair() {
        let (a, b) = UnixStream::pair().expect("socketpair");
        let m0 = SocketMesh::new(0, vec![0, 1], vec![(1, a)], fast()).unwrap();
        let m1 = SocketMesh::new(1, vec![0, 1], vec![(0, b)], fast()).unwrap();
        let mut f = Frame::control(FrameKind::Data, 0, 0, 2);
        f.seq = 9;
        f.payload = vec![1, 2, 3, 4];
        m0.send(1, &f).unwrap();
        let got = m1.recv_timeout(0, Duration::from_secs(2)).unwrap();
        assert_eq!(got, f);
        m1.release(got.payload);
        assert_eq!(m1.recv_timeout(9, Duration::from_millis(5)), Err(WireError::NoSuchPeer(9)));
    }
}
