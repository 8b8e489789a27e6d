//! The bulk lane: a large payload is written once, into a slot of a
//! shared-memory segment the sending end of a connection owns and the
//! receiving end has mapped, and the socket carries only the frame's
//! header, a [`DESC_LEN`]-byte slot descriptor and the CRC. It is the
//! stand-in for the GPUDirect path of the paper's MPI: no host-staging
//! copy, no syscall on the payload's bytes.
//!
//! # Segment
//!
//! Each direction of a [`PeerConn`](crate::PeerConn) has its own
//! segment, a `memfd` of [`SEGMENT_LEN`] bytes created by the sender on
//! its first bulk lease (never before, so a connection that only ever
//! carries small frames has none) and passed to the peer as an
//! `SCM_RIGHTS` descriptor riding the body of the first descriptor
//! frame. Nothing is written to any file system; the memory goes when
//! the last mapping does. The peer is the same program and is trusted
//! to keep the protocol below: shared memory cannot be defended from
//! the process it is shared with.
//!
//! # Slots
//!
//! A slot is a [`SLOT_HDR`]-byte header — the slot's reference count —
//! then the payload, padded to the header's alignment. The sender
//! places slots in a ring, in lease order, wrapping to offset 0 when
//! the end is too short for header *and* payload. A slot holds two
//! kinds of reference: the sender's, from the lease until the executor
//! drops the frame (on its ack), and one per descriptor sent, which the
//! receiver drops with the frame — applied, stale, duplicate, CRC
//! rejected or left in a dead peer's queue alike, since it is a
//! [`Slot`]'s `Drop`. The sender reclaims slots in order, from the
//! oldest, and only once a count reads zero: the receiver's release is
//! `Release`, the sender's read `Acquire`, so a reclaimed slot's
//! rewrite cannot race the receiver's last read.
//!
//! # Order of a send
//!
//! Lease, write the payload, take its CRC, count the descriptor's
//! reference, then write the descriptor frame — the doorbell. A sender
//! killed before the last step leaves a half-written slot that no
//! descriptor ever names, and a receiver only ever reads a slot a
//! CRC-checked descriptor named.
//!
//! # Fallback
//!
//! A payload below [`BULK_MIN`] or above [`SLOT_MAX`], a segment that
//! could not be created, and a ring with no room all lease a pooled
//! `Vec` instead, and the frame travels inline exactly as it always
//! has. A slot is announced once: its resend (after a nack) carries
//! the slot's bytes inline, so a receiver that could not map the
//! segment loses the first transmission and gets the second.

use std::collections::VecDeque;
use std::os::fd::{AsRawFd, OwnedFd, RawFd};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use crate::sys;

/// The smallest payload that rides the lane: the size from which the
/// lane beat an inline frame by more than the run-to-run noise in every
/// measured pair (by ≥ 17 % at 64 KiB; it led from 4 KiB, within the
/// noise). Every frame of the quick preset (a 5 840-byte gradient)
/// stays far beneath it, so latency-bound traffic keeps its one-`writev`
/// path.
pub const BULK_MIN: usize = 64 << 10;

/// The largest payload a slot takes: one 2 MiB segment of a 4 MiB
/// two-rank ring allreduce.
pub const SLOT_MAX: usize = 2 << 20;

/// Slot header: the reference count, padded to a cache line so every
/// payload starts 64-byte aligned.
pub const SLOT_HDR: usize = 64;

/// Bytes of one direction's segment: two largest slots, page-rounded.
pub const SEGMENT_LEN: usize = (2 * (SLOT_HDR + SLOT_MAX) + 4095) & !4095;

/// Descriptor bytes on the socket: `u64` slot offset, `u32` payload
/// length, `u32` CRC32 of the payload, little-endian.
pub const DESC_LEN: usize = 16;

/// One mapping of a segment, unmapped when the last holder lets go.
#[derive(Debug)]
struct Mapping {
    ptr: *mut u8,
    len: usize,
}

// SAFETY: the mapping is plain shared memory; every access to it goes
// through `Slot`, whose reference-count protocol orders writers and
// readers, so the pointer may move between and be shared by threads.
unsafe impl Send for Mapping {}
// SAFETY: as above.
unsafe impl Sync for Mapping {}

impl Mapping {
    fn of(fd: &OwnedFd) -> std::io::Result<Arc<Mapping>> {
        let (ptr, len) = sys::map_shared(fd)?;
        Ok(Arc::new(Mapping { ptr, len }))
    }

    /// Whether a slot at `off` with `len` payload bytes lies inside.
    fn holds(&self, off: usize, len: usize) -> bool {
        off.is_multiple_of(SLOT_HDR)
            && off.checked_add(SLOT_HDR + len).is_some_and(|end| end <= self.len)
    }
}

impl Drop for Mapping {
    fn drop(&mut self) {
        // SAFETY: this is the one `Mapping` of `map_shared`'s result, and
        // every `Slot` into it holds this `Arc`, so none is left.
        unsafe { sys::unmap(self.ptr, self.len) };
    }
}

/// A reference to one slot's payload: the sender's, kept with the
/// frame until its ack, or the receiver's, delivered in a frame (see
/// the module docs). Dropping it drops the reference.
pub struct Slot {
    map: Arc<Mapping>,
    off: usize,
    len: usize,
    /// Whether a descriptor naming it has been sent (sender side): a
    /// slot is announced once, and its resends go inline.
    announced: AtomicBool,
}

impl Slot {
    fn refs(&self) -> &AtomicU32 {
        // SAFETY: `off` is a slot header inside the mapping (checked by
        // `holds` or placed by the ring), 64-byte aligned, and the
        // header's first word is only ever accessed atomically.
        unsafe { &*self.map.ptr.add(self.off).cast::<AtomicU32>() }
    }

    /// The payload.
    pub fn bytes(&self) -> &[u8] {
        // SAFETY: inside the mapping (see `refs`); while this reference
        // is counted the sender writes none of these bytes.
        unsafe { std::slice::from_raw_parts(self.map.ptr.add(self.off + SLOT_HDR), self.len) }
    }

    /// The descriptor that names this slot, with the payload's CRC.
    pub(crate) fn descriptor(&self, crc: u32) -> [u8; DESC_LEN] {
        let mut d = [0u8; DESC_LEN];
        d[0..8].copy_from_slice(&(self.off as u64).to_le_bytes());
        d[8..12].copy_from_slice(&(self.len as u32).to_le_bytes());
        d[12..16].copy_from_slice(&crc.to_le_bytes());
        d
    }

    /// Claim the one announcement: true the first time only.
    pub(crate) fn announce(&self) -> bool {
        !self.announced.swap(true, Ordering::AcqRel)
    }

    /// Count one more reference: a descriptor about to be sent.
    pub(crate) fn pin(&self) {
        // Like `Arc::clone`: the count is already held above zero by
        // this reference, so no slot can be reclaimed under it.
        self.refs().fetch_add(1, Ordering::Relaxed); // lint: allow(relaxed): increment under a held reference, as Arc::clone; reclaim orders on the Release decrements
    }

    /// Take back a [`Slot::pin`] whose descriptor never left.
    pub(crate) fn unpin(&self) {
        self.refs().fetch_sub(1, Ordering::Release);
    }
}

impl Clone for Slot {
    fn clone(&self) -> Self {
        self.pin();
        let announced = AtomicBool::new(self.announced.load(Ordering::Acquire));
        Slot { map: Arc::clone(&self.map), off: self.off, len: self.len, announced }
    }
}

impl Drop for Slot {
    fn drop(&mut self) {
        self.unpin();
    }
}

impl std::fmt::Debug for Slot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Slot {{ off: {}, len: {} }}", self.off, self.len)
    }
}

/// A freshly leased slot, writable by its sender until it is sealed
/// into a frame ([`Frame::carrying`](crate::Frame::carrying)).
#[derive(Debug)]
pub struct SlotMut(Slot);

impl SlotMut {
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        let s = &self.0;
        // SAFETY: inside the mapping; the slot was just reclaimed or
        // never used, so no descriptor names it and nobody else reads
        // or writes it until it is sealed and sent.
        unsafe { std::slice::from_raw_parts_mut(s.map.ptr.add(s.off + SLOT_HDR), s.len) }
    }

    pub(crate) fn seal(self) -> Slot {
        self.0
    }
}

/// A send buffer of an exact length leased from a [`Wire`](crate::Wire):
/// a pooled `Vec` on every wire, or a bulk-lane slot on a socket wire.
#[derive(Debug)]
pub enum Lease {
    Heap(Vec<u8>),
    Slot(SlotMut),
}

impl Lease {
    /// A pooled buffer resized to `len`. Only bytes past its old length
    /// are zero-filled; the caller overwrites all of them.
    pub(crate) fn heap(mut buf: Vec<u8>, len: usize) -> Lease {
        buf.resize(len, 0);
        Lease::Heap(buf)
    }

    pub fn bytes_mut(&mut self) -> &mut [u8] {
        match self {
            Lease::Heap(v) => v,
            Lease::Slot(s) => s.bytes_mut(),
        }
    }
}

/// The sender's side of one connection's lane: the segment it owns and
/// the ring of live slots in lease order.
#[derive(Debug, Default)]
pub(crate) struct SendLane {
    ring: Mutex<Ring>,
}

#[derive(Debug, Default)]
struct Ring {
    /// The segment and the descriptor the peer maps it by.
    seg: Option<(Arc<Mapping>, OwnedFd)>,
    /// Creating the segment failed once: every payload goes inline.
    failed: bool,
    /// Where the next slot goes.
    head: usize,
    /// Live slots, oldest first: `(offset, span)`.
    live: VecDeque<(usize, usize)>,
}

/// Bytes a slot of `len` payload bytes occupies.
fn span(len: usize) -> usize {
    SLOT_HDR + ((len + SLOT_HDR - 1) & !(SLOT_HDR - 1))
}

impl Ring {
    /// Where a slot of `need` bytes fits now, reclaiming from the
    /// oldest slot while counts read zero.
    fn place(&mut self, map: &Mapping, need: usize) -> Option<usize> {
        while let Some(&(off, _)) = self.live.front() {
            // SAFETY: a slot header this ring placed inside the mapping.
            let refs = unsafe { &*map.ptr.add(off).cast::<AtomicU32>() };
            if refs.load(Ordering::Acquire) != 0 {
                break;
            }
            self.live.pop_front();
        }
        let (Some(&(tail, _)), Some(&(last, _))) = (self.live.front(), self.live.back()) else {
            self.head = 0;
            return (need <= map.len).then_some(0);
        };
        if last < tail {
            // Wrapped: the free run is between the newest and the oldest.
            return (self.head + need <= tail).then_some(self.head);
        }
        if self.head + need <= map.len {
            Some(self.head)
        } else {
            (need <= tail).then_some(0)
        }
    }
}

impl SendLane {
    /// A slot for a `len`-byte payload, or `None` when the payload goes
    /// inline (see the module docs' fallback).
    pub(crate) fn lease(&self, len: usize) -> Option<SlotMut> {
        if !(BULK_MIN..=SLOT_MAX).contains(&len) {
            return None;
        }
        // Poisoned: a lease panicked mid-update; the live list may have
        // lost an entry, which only strands its slot's space.
        let mut ring = self.ring.lock().unwrap_or_else(PoisonError::into_inner);
        if ring.seg.is_none() && !ring.failed {
            match sys::shared_file(SEGMENT_LEN).and_then(|fd| Ok((Mapping::of(&fd)?, fd))) {
                Ok(seg) => {
                    ring.seg = Some(seg);
                    ring.live.reserve(SEGMENT_LEN / span(BULK_MIN));
                }
                Err(_) => ring.failed = true,
            }
        }
        let map = Arc::clone(&ring.seg.as_ref()?.0);
        let need = span(len);
        let off = ring.place(&map, need)?;
        ring.live.push_back((off, need));
        ring.head = off + need;
        let slot = Slot { map, off, len, announced: AtomicBool::new(false) };
        // Reclaimed at zero (or never used): this lease is the one
        // reference, and the Acquire in `place` ordered the last
        // reader's accesses before it.
        slot.refs().store(1, Ordering::Relaxed); // lint: allow(relaxed): the slot is unreachable by any other party until its descriptor is sent
        Some(SlotMut(slot))
    }

    /// The descriptor of this lane's segment if `slot` is one of its
    /// slots: the only slots a descriptor on this connection may name.
    pub(crate) fn segment_of(&self, slot: &Slot) -> Option<RawFd> {
        let ring = self.ring.lock().unwrap_or_else(PoisonError::into_inner);
        let (map, fd) = ring.seg.as_ref()?;
        Arc::ptr_eq(map, &slot.map).then(|| fd.as_raw_fd())
    }
}

/// The receiver's side of one connection's lane: the peer's segment,
/// mapped when its descriptor arrives.
#[derive(Debug, Default)]
pub(crate) struct RecvLane {
    seg: Option<Arc<Mapping>>,
}

impl RecvLane {
    /// The slot `desc` names, once its payload has passed its CRC —
    /// taking over the reference the sender counted for the descriptor.
    /// `None` is a lost frame: no segment (`fd` is the one that arrived
    /// with the frame, if any), a descriptor out of bounds, or a CRC
    /// mismatch (the reference is dropped then).
    pub(crate) fn resolve(&mut self, desc: &[u8], fd: Option<OwnedFd>) -> Option<Slot> {
        if self.seg.is_none() {
            self.seg = Mapping::of(&fd?).ok();
        }
        let map = self.seg.as_ref()?;
        let desc: &[u8; DESC_LEN] = desc.try_into().ok()?;
        let off = u64::from_le_bytes(desc[0..8].try_into().ok()?) as usize;
        let len = u32::from_le_bytes(desc[8..12].try_into().ok()?) as usize;
        let crc = u32::from_le_bytes(desc[12..16].try_into().ok()?);
        if !map.holds(off, len) {
            return None;
        }
        let slot = Slot { map: Arc::clone(map), off, len, announced: AtomicBool::new(true) };
        (faults::crc32_bytes(slot.bytes()) == crc).then_some(slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lane_slot(lane: &SendLane, len: usize, fill: u8) -> Slot {
        let mut s = lane.lease(len).expect("room in the ring");
        s.bytes_mut().fill(fill);
        s.seal()
    }

    /// Slots are placed in order, wrap to the start when the end is
    /// short of a header plus payload, and come back only once every
    /// reference is gone — oldest first.
    #[test]
    fn ring_reclaims_in_order_and_wraps() {
        let lane = SendLane::default();
        assert!(lane.lease(BULK_MIN - 1).is_none(), "below the threshold goes inline");
        assert!(lane.lease(SLOT_MAX + 1).is_none(), "above a slot goes inline");
        let a = lane_slot(&lane, SLOT_MAX, 1);
        let b = lane_slot(&lane, SLOT_MAX, 2);
        assert_eq!((a.off, b.off), (0, span(SLOT_MAX)));
        assert!(lane.lease(BULK_MIN).is_none(), "two largest slots fill the segment");
        let delivered = a.clone(); // a descriptor's reference
        drop(a);
        assert!(lane.lease(SLOT_MAX).is_none(), "a delivered reference pins the oldest slot");
        drop(delivered);
        let c = lane_slot(&lane, SLOT_MAX, 3);
        assert_eq!(c.off, 0, "wrapped into the reclaimed oldest slot");
        drop(c);
        assert!(lane.lease(SLOT_MAX).is_none(), "b, older than c, is still live");
        drop(b);
        let d = lane_slot(&lane, SLOT_MAX, 4);
        assert_eq!(d.off, 0, "an empty ring starts over at 0");
        assert!(d.bytes().iter().all(|&x| x == 4));
    }

    /// A wrap fits only if header *and* payload end before the oldest
    /// live slot: a payload exactly as long as the free run at the
    /// start does not fit, since its header would not.
    #[test]
    fn wrap_counts_the_slot_header() {
        let lane = SendLane::default();
        let a = lane_slot(&lane, BULK_MIN, 1);
        let b = lane_slot(&lane, SLOT_MAX, 2);
        let rest = SEGMENT_LEN - b.off - span(SLOT_MAX);
        let c = lane_slot(&lane, rest - SLOT_HDR, 3);
        assert_eq!(c.off + span(c.len), SEGMENT_LEN, "the ring is full to its end");
        drop(a);
        let free = b.off;
        assert!(lane.lease(free).is_none(), "{free} payload bytes and a header overrun b");
        let d = lane_slot(&lane, free - SLOT_HDR, 4);
        assert_eq!(d.off, 0);
        assert!(b.bytes().iter().all(|&x| x == 2) && c.bytes().iter().all(|&x| x == 3));
    }

    /// The receiver resolves only what a descriptor names inside the
    /// segment and whose bytes pass the CRC; a CRC reject drops the
    /// reference it took over.
    #[test]
    fn receiver_resolves_checks_and_releases() {
        let lane = SendLane::default();
        let slot = lane_slot(&lane, BULK_MIN, 7);
        let crc = faults::crc32_bytes(slot.bytes());
        let fd = |lane: &SendLane| {
            let ring = lane.ring.lock().unwrap();
            Some(ring.seg.as_ref().expect("segment exists").1.try_clone().unwrap())
        };
        let mut rx = RecvLane::default();
        slot.pin();
        let got = rx.resolve(&slot.descriptor(crc), fd(&lane)).expect("resolves");
        assert_eq!(got.bytes(), slot.bytes());
        assert_eq!(slot.refs().load(Ordering::Acquire), 2);
        drop(got);
        assert_eq!(slot.refs().load(Ordering::Acquire), 1);
        slot.pin();
        assert!(rx.resolve(&slot.descriptor(crc ^ 1), None).is_none(), "CRC mismatch");
        assert_eq!(slot.refs().load(Ordering::Acquire), 1, "the reject released its reference");
        let mut beyond = slot.descriptor(crc);
        beyond[0..8].copy_from_slice(&(SEGMENT_LEN as u64).to_le_bytes());
        assert!(rx.resolve(&beyond, None).is_none(), "out of bounds");
        assert!(RecvLane::default().resolve(&slot.descriptor(crc), None).is_none(), "no segment");
    }
}
