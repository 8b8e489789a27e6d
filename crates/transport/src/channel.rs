//! The in-process [`Wire`] backend: frames pass by value over
//! unbounded `std::sync::mpsc` channels between rank threads — no
//! serialization, no sockets, no heartbeats (a thread cannot be
//! SIGKILLed out from under the mesh; explicit disconnection is the
//! only death signal). A send copies the payload once, into a buffer
//! from the mesh's shared pool; [`Wire::lease`] hands out send buffers
//! from the same pool, and [`Wire::release`] returns both kinds there,
//! so a mesh held across collectives stops allocating once it is warm.
//!
//! This is the backend every in-process rank runs on — one
//! `collectives::PeerExecutor` per rank thread, in the threaded
//! collectives and in the threaded trainer alike, each endpoint wrapped
//! in the `collectives::FaultWire` decorator when a fault plan is in
//! play — and the one the protocol unit tests drive.

use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use crate::conn::BufPool;
use crate::frame::Frame;
use crate::lane::Lease;
use crate::{Wire, WireError};

/// One rank's endpoint of an in-process full mesh.
pub struct ChannelWire {
    rank: usize,
    world_ids: Vec<usize>,
    /// Indexed by original id: sender toward that peer.
    tx: Vec<Option<Sender<Frame>>>,
    /// Indexed by original id: receiver from that peer.
    rx: Vec<Option<Mutex<Receiver<Frame>>>>,
    /// Payload buffers, shared by every endpoint of the mesh: senders
    /// acquire, receivers release.
    pool: Arc<BufPool>,
}

impl ChannelWire {
    /// Build a full mesh over original ids `0..world`, one wire per
    /// rank.
    pub fn mesh(world: usize) -> Vec<ChannelWire> {
        Self::mesh_of(&(0..world).collect::<Vec<_>>())
    }

    /// Build a full mesh over the original ids `ids` (ascending, with
    /// holes after a degradation), one wire per id in `ids`
    /// order. Channels are unbounded — a send never blocks, which is
    /// what lets a verified schedule's deadlock-freedom carry over to
    /// the executor that hoists every round's sends.
    pub fn mesh_of(ids: &[usize]) -> Vec<ChannelWire> {
        let pool = BufPool::new();
        let slots = ids.iter().copied().max().map_or(0, |m| m + 1);
        // senders[i][b] = channel ids[i] -> b; receivers[j][a] = its far end at ids[j]
        let mut senders: Vec<Vec<Option<Sender<Frame>>>> =
            ids.iter().map(|_| (0..slots).map(|_| None).collect()).collect();
        let mut receivers: Vec<Vec<Option<Mutex<Receiver<Frame>>>>> =
            ids.iter().map(|_| (0..slots).map(|_| None).collect()).collect();
        for (i, &a) in ids.iter().enumerate() {
            for (j, &b) in ids.iter().enumerate() {
                if i == j {
                    continue;
                }
                let (s, r) = channel();
                senders[i][b] = Some(s);
                receivers[j][a] = Some(Mutex::new(r));
            }
        }
        senders
            .into_iter()
            .zip(receivers)
            .zip(ids)
            .map(|((tx, rx), &rank)| ChannelWire {
                rank,
                world_ids: ids.to_vec(),
                tx,
                rx,
                pool: Arc::clone(&pool),
            })
            .collect()
    }

    /// Drop this wire's sender toward `peer` — the in-process analogue
    /// of a process death: `peer` drains what was queued, then sees
    /// [`WireError::PeerGone`]. The receiving half stays open, so
    /// sends *to* this rank keep succeeding for as long as the wire
    /// itself lives.
    pub fn hang_up(&mut self, peer: usize) {
        if let Some(slot) = self.tx.get_mut(peer) {
            *slot = None;
        }
    }
}

impl Wire for ChannelWire {
    fn rank(&self) -> usize {
        self.rank
    }

    fn world_ids(&self) -> &[usize] {
        &self.world_ids
    }

    fn send(&self, peer: usize, frame: &Frame) -> Result<(), WireError> {
        if peer == self.rank {
            return Err(WireError::NoSuchPeer(peer));
        }
        let tx = self
            .tx
            .get(peer)
            .ok_or(WireError::NoSuchPeer(peer))?
            .as_ref()
            .ok_or(WireError::PeerGone)?;
        // Control frames carry no payload; there is nothing to pool.
        let mut payload = Vec::new();
        if !frame.bytes().is_empty() {
            payload = self.pool.acquire();
            payload.clear();
            payload.extend_from_slice(frame.bytes());
        }
        tx.send(Frame { payload, slot: None, ..*frame }).map_err(|e| {
            self.pool.release(e.0.payload);
            WireError::PeerGone
        })
    }

    fn recv_timeout(&self, peer: usize, timeout: Duration) -> Result<Frame, WireError> {
        let rx = self
            .rx
            .get(peer)
            .ok_or(WireError::NoSuchPeer(peer))?
            .as_ref()
            .ok_or(WireError::NoSuchPeer(peer))?
            .lock()
            // Poisoned: a receive panicked; the channel itself is whole.
            .unwrap_or_else(PoisonError::into_inner);
        // Drain-before-gone: a disconnected channel still yields its
        // queued frames through try_recv.
        match rx.try_recv() {
            Ok(f) => return Ok(f),
            Err(TryRecvError::Disconnected) => return Err(WireError::PeerGone),
            Err(TryRecvError::Empty) => {}
        }
        match rx.recv_timeout(timeout) {
            Ok(f) => Ok(f),
            Err(RecvTimeoutError::Timeout) => Err(WireError::Timeout),
            Err(RecvTimeoutError::Disconnected) => Err(WireError::PeerGone),
        }
    }

    fn silence(&self, _peer: usize) -> Duration {
        // Channels do not go silent: disconnection is explicit, so the
        // heartbeat death bound never trips on this backend.
        Duration::ZERO
    }

    fn release(&self, payload: Vec<u8>) {
        self.pool.release(payload);
    }

    fn lease(&self, _peer: usize, len: usize) -> Lease {
        Lease::heap(self.pool.acquire(), len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameKind;

    #[test]
    fn mesh_routes_by_original_id() {
        let wires = ChannelWire::mesh(3);
        let mut f = Frame::control(FrameKind::Data, 0, 0, 1);
        f.payload = vec![7];
        wires[0].send(2, &f).unwrap();
        let got = wires[2].recv_timeout(0, Duration::from_millis(100)).unwrap();
        assert_eq!(got, f);
        assert_eq!(wires[1].recv_timeout(0, Duration::from_millis(10)), Err(WireError::Timeout));
    }

    /// `release` is not a no-op: the buffer a receiver hands back is
    /// the one the mesh's next send travels in.
    #[test]
    fn released_payloads_carry_the_next_send() {
        let wires = ChannelWire::mesh(2);
        let mut f = Frame::control(FrameKind::Data, 0, 0, 0);
        f.payload = vec![7; 64];
        wires[0].send(1, &f).unwrap();
        let got = wires[1].recv_timeout(0, Duration::from_millis(100)).unwrap();
        let buf = got.payload.as_ptr();
        wires[1].release(got.payload);
        wires[0].send(1, &f).unwrap();
        let again = wires[1].recv_timeout(0, Duration::from_millis(100)).unwrap();
        assert_eq!(again.payload.as_ptr(), buf, "the released buffer must be reused");
        assert_eq!(again, f);
    }

    #[test]
    fn mesh_of_addresses_by_original_id_across_holes() {
        let wires = ChannelWire::mesh_of(&[0, 3, 4]);
        assert_eq!(wires.iter().map(|w| w.rank()).collect::<Vec<_>>(), vec![0, 3, 4]);
        assert_eq!(wires[1].world_ids(), &[0, 3, 4]);
        let f = Frame::control(FrameKind::Data, 3, 0, 0);
        wires[1].send(4, &f).unwrap();
        assert_eq!(wires[2].recv_timeout(3, Duration::from_millis(100)).unwrap(), f);
        assert_eq!(wires[1].send(2, &f), Err(WireError::PeerGone));
    }

    #[test]
    fn hang_up_reports_peer_gone() {
        let mut wires = ChannelWire::mesh(2);
        let f = Frame::control(FrameKind::Data, 1, 0, 0);
        wires[1].send(0, &f).unwrap();
        wires[1].hang_up(0);
        // Queued frame drains first, then the hangup surfaces.
        assert!(wires[0].recv_timeout(1, Duration::from_millis(100)).is_ok());
        assert_eq!(wires[0].recv_timeout(1, Duration::from_millis(100)), Err(WireError::PeerGone));
    }

    #[test]
    fn send_to_self_or_unknown_is_rejected() {
        let wires = ChannelWire::mesh(2);
        let f = Frame::control(FrameKind::Data, 0, 0, 0);
        assert_eq!(wires[0].send(0, &f), Err(WireError::NoSuchPeer(0)));
        assert_eq!(wires[0].send(9, &f), Err(WireError::NoSuchPeer(9)));
    }
}
