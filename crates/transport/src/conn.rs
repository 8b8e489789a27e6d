//! One peer connection: a Unix-domain stream wrapped with a decoding
//! reader thread, a liveness heartbeat, pooled frame buffers, and the
//! bulk lane ([`crate::lane`]) for large payloads.
//!
//! The reader thread owns the receive half: it runs
//! [`read_frame_in`] in a loop — each payload is read off the socket
//! straight into the pooled buffer its frame will own, and checksummed
//! there; a descriptor frame's slot is checksummed in place in the
//! peer's segment, which the reader maps when the segment's descriptor
//! arrives with the first of them — stamps a last-heard-from clock,
//! consumes heartbeats, and pushes everything else into a pre-allocated
//! ring the consumer drains with a timeout. EOF (the peer died — a SIGKILLed process's kernel
//! closes its sockets) closes the ring: queued frames drain first, then
//! receives report [`WireError::PeerGone`]. A frame that fails its CRC
//! is *dropped* here, before any header field is trusted — to the
//! reliability layer above it looks like loss, and the §5d
//! deadline/nack machinery recovers it; its buffer stays with the
//! reader for the next frame. An owner that waits on many connections
//! at once hands them one [`Inbox`] instead of a ring each: arrivals
//! come tagged with their peer, and a connection's EOF is an item
//! queued behind every frame that connection carried. [`LocalConn`] is
//! the same conversation between two threads of one process.
//!
//! The send half never copies a payload in user space:
//! [`PeerConn::send`] hands the kernel `[len + header] [payload] [crc]`
//! as one vectored write, under the lock every writer of the stream
//! shares — or, for a payload the executor encoded straight into a slot
//! it leased ([`PeerConn::lease`]), `[len + header] [descriptor] [crc]`,
//! and the payload's bytes never touch the socket.
//!
//! All pacing derives from [`RetryPolicy`]; connect retries sleep
//! through [`FaultClock`].

use std::io::{IoSlice, Write};
use std::os::fd::RawFd;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use faults::{FaultClock, RetryPolicy};

use crate::frame::{
    encode, envelope, read_frame, read_frame_in, slot_envelope, Frame, FrameKind, PREFIX_LEN,
};
use crate::lane::{Lease, RecvLane, SendLane, Slot};
use crate::sys::{self, FdReader};
use crate::{Control, WireError};

/// Frames queued per connection before the ring grows (it still grows
/// under pathological backlog rather than dropping — growth is rare
/// enough that the steady-state zero-allocation proof tolerates it by
/// never reaching it).
const RING_CAPACITY: usize = 256;

/// A shared pool of payload byte buffers: the reader thread acquires,
/// the consumer releases. Keeps the per-frame buffer churn off the
/// allocator once warm. Buffers come back with their old length and
/// contents — the reader overwrites them, so nothing is cleared or
/// zero-filled per frame.
#[derive(Debug, Default)]
pub(crate) struct BufPool {
    free: Mutex<Vec<Vec<u8>>>,
}

impl BufPool {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(BufPool { free: Mutex::new(Vec::with_capacity(RING_CAPACITY)) })
    }

    /// The free list. A panic mid-push or mid-pop loses at most one
    /// spare buffer, so a poisoned list is still a valid pool.
    fn free(&self) -> MutexGuard<'_, Vec<Vec<u8>>> {
        self.free.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub(crate) fn acquire(&self) -> Vec<u8> {
        self.free().pop().unwrap_or_default()
    }

    /// Payload-less frames carry `Vec::new()`; there is nothing in one
    /// to recycle.
    pub(crate) fn release(&self, buf: Vec<u8>) {
        if buf.capacity() == 0 {
            return;
        }
        let mut free = self.free();
        if free.len() < RING_CAPACITY {
            free.push(buf);
        }
    }
}

/// A blocking MPSC ring with explicit close, on a paired
/// `Mutex`/`Condvar`.
#[derive(Debug)]
struct Ring<T> {
    inner: Mutex<RingInner<T>>,
    ready: Condvar,
}

#[derive(Debug)]
struct RingInner<T> {
    queue: std::collections::VecDeque<T>,
    closed: bool,
}

/// One connection's decoded frames, closed at its EOF.
type FrameRing = Ring<Frame>;

impl<T> Default for Ring<T> {
    fn default() -> Self {
        Ring {
            inner: Mutex::new(RingInner {
                queue: std::collections::VecDeque::with_capacity(RING_CAPACITY),
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }
}

impl<T> Ring<T> {
    /// Queue `item`; false (and `item` dropped) once the ring is closed.
    fn push(&self, item: T) -> bool {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if inner.closed {
            return false;
        }
        inner.queue.push_back(item);
        drop(inner);
        self.ready.notify_one();
        true
    }

    fn close(&self) {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).closed = true;
        self.ready.notify_all();
    }

    fn is_closed(&self) -> bool {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).closed
    }

    /// Pop the next item, waiting up to `timeout` — without limit when
    /// the deadline is past what an `Instant` can express (a patient
    /// `RetryPolicy`). Queued items drain before the closed state is
    /// reported.
    fn pop_timeout(&self, timeout: Duration) -> Result<T, WireError> {
        let deadline = Instant::now().checked_add(timeout);
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(f) = inner.queue.pop_front() {
                return Ok(f);
            }
            if inner.closed {
                return Err(WireError::PeerGone);
            }
            inner = match deadline {
                None => self.ready.wait(inner).unwrap_or_else(|e| e.into_inner()),
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return Err(WireError::Timeout);
                    }
                    let wait = self.ready.wait_timeout(inner, deadline - now);
                    wait.unwrap_or_else(|e| e.into_inner()).0
                }
            };
        }
    }
}

/// One receive queue fed by several connections, for an owner that
/// waits on all of them at once (the launcher's control streams): each
/// connection built with [`PeerConn::solo_into`] delivers here, tagged
/// with its peer, instead of into a ring of its own.
#[derive(Debug, Clone, Default)]
pub struct Inbox(Arc<Ring<(usize, Option<Frame>)>>);

impl Inbox {
    /// The next arrival on any feeding connection, waiting up to
    /// `timeout`: `(peer, Some(frame))`, or `(peer, None)` — that
    /// connection's EOF, delivered once, after every frame it carried.
    /// `None` when nothing arrived in time.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<(usize, Option<Frame>)> {
        self.0.pop_timeout(timeout).ok()
    }
}

/// The in-process twin of a control connection: two threads of one
/// process talk over it exactly as a launcher and a worker process talk
/// over a [`PeerConn`] pair — the same frames, one [`Inbox`] on the
/// coordinator's side, and an EOF when an end goes away. There is no
/// thread, socket or heartbeat behind it, so [`Control::silence`] is
/// always zero: death is the EOF and nothing else.
///
/// [`LocalConn::pair`] builds one stream's two ends. The *worker end*
/// sends into the coordinator's inbox, tagged with its rank, and
/// receives what the coordinator sends; dropping it delivers the
/// `(rank, None)` a SIGKILLed worker's socket delivers. The
/// *coordinator end* only sends (its arrivals come through the inbox,
/// like a [`PeerConn::solo_into`] connection's); dropping it is the
/// coordinator's EOF on the worker end.
#[derive(Debug)]
pub struct LocalConn {
    /// What the coordinator end sends and the worker end receives;
    /// closed when either end goes away.
    down: Arc<FrameRing>,
    /// The worker end's way up: the coordinator's inbox and its tag.
    up: Option<(Inbox, usize)>,
}

impl LocalConn {
    /// Rank `rank`'s control stream to the coordinator that receives on
    /// `inbox`: `(worker end, coordinator end)`.
    pub fn pair(rank: usize, inbox: &Inbox) -> (LocalConn, LocalConn) {
        let down: Arc<FrameRing> = Arc::default();
        let coordinator = LocalConn { down: Arc::clone(&down), up: None };
        (LocalConn { down, up: Some((inbox.clone(), rank)) }, coordinator)
    }
}

impl Control for LocalConn {
    fn send(&self, frame: &Frame) -> Result<(), WireError> {
        let sent = !self.down.is_closed()
            && match &self.up {
                Some((inbox, rank)) => inbox.0.push((*rank, Some(frame.clone()))),
                None => self.down.push(frame.clone()),
            };
        sent.then_some(()).ok_or(WireError::PeerGone)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Frame, WireError> {
        match self.up {
            Some(_) => self.down.pop_timeout(timeout),
            None => Err(WireError::Timeout),
        }
    }

    fn silence(&self) -> Duration {
        Duration::ZERO
    }
}

impl Drop for LocalConn {
    fn drop(&mut self) {
        self.down.close();
        if let Some((inbox, rank)) = &self.up {
            inbox.0.push((*rank, None));
        }
    }
}

/// Write half: the stream, serialized under one lock so concurrent
/// senders cannot interleave frame bytes. *Every* frame write —
/// consumer sends and heartbeat beacons alike — goes through
/// [`send_frame`]; a partially completed write under send-buffer
/// backpressure would otherwise splice two frames together and the
/// peer's reader would see framing loss.
#[derive(Debug)]
struct WriteHalf {
    stream: UnixStream,
    broken: bool,
    /// The bulk-lane segment's descriptor has gone to the peer (with
    /// the first descriptor frame).
    announced: bool,
}

/// `write_all` over several slices: one `writev` per pass, resuming
/// mid-slice after a partial write.
fn write_all_vectored(
    stream: &mut UnixStream,
    mut bufs: &mut [IoSlice<'_>],
) -> std::io::Result<()> {
    while !bufs.is_empty() {
        match stream.write_vectored(bufs) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut bufs, n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Run `write` on the write half under its lock. A failure marks the
/// half broken and the connection dead.
fn write_locked(
    writer: &Mutex<WriteHalf>,
    alive: &AtomicBool,
    write: impl FnOnce(&mut WriteHalf) -> std::io::Result<()>,
) -> Result<(), WireError> {
    // Poisoned: a write panicked mid-frame and may have torn the
    // stream, so the half is broken.
    let mut w = writer.lock().unwrap_or_else(|torn| {
        let mut w = torn.into_inner();
        w.broken = true;
        w
    });
    if w.broken {
        return Err(WireError::PeerGone);
    }
    write(&mut w).map_err(|_| {
        w.broken = true;
        alive.store(false, Ordering::Release);
        WireError::PeerGone
    })
}

/// Put one frame on the wire: `[len + header] [payload] [crc]`, the
/// payload borrowed where it lies (a slot's included: a resend of a
/// lane frame goes inline). Header and CRC are computed before the lock
/// is taken; only the write itself serializes. A payload-less frame is
/// one contiguous write.
fn send_frame(
    writer: &Mutex<WriteHalf>,
    frame: &Frame,
    alive: &AtomicBool,
) -> Result<(), WireError> {
    let (prefix, crc) = envelope(frame);
    let payload = frame.bytes();
    write_locked(writer, alive, |w| {
        if payload.is_empty() {
            let mut whole = [0u8; PREFIX_LEN + 4];
            whole[..PREFIX_LEN].copy_from_slice(&prefix);
            whole[PREFIX_LEN..].copy_from_slice(&crc);
            w.stream.write_all(&whole)
        } else {
            let mut parts = [IoSlice::new(&prefix), IoSlice::new(payload), IoSlice::new(&crc)];
            write_all_vectored(&mut w.stream, &mut parts)
        }
    })
}

/// Ring the doorbell for `frame`, whose payload is in `slot` of the
/// segment `seg_fd` names: the payload's CRC, the descriptor's
/// reference, then `[len + header] [descriptor] [crc]`. The first such
/// frame on the stream carries the segment's descriptor, attached to
/// its `[descriptor] [crc]` bytes and not to the prefix: the reader
/// reads every prefix with a plain `read`, which would close it, and
/// only a flagged frame's body with `recvmsg`.
fn send_slot(
    writer: &Mutex<WriteHalf>,
    frame: &Frame,
    slot: &Slot,
    seg_fd: RawFd,
    alive: &AtomicBool,
) -> Result<(), WireError> {
    let desc = slot.descriptor(faults::crc32_bytes(slot.bytes()));
    let (prefix, crc) = slot_envelope(frame, &desc);
    slot.pin();
    let sent = write_locked(writer, alive, |w| {
        if w.announced {
            let mut parts = [IoSlice::new(&prefix), IoSlice::new(&desc), IoSlice::new(&crc)];
            return write_all_vectored(&mut w.stream, &mut parts);
        }
        w.stream.write_all(&prefix)?;
        let mut parts = [IoSlice::new(&desc), IoSlice::new(&crc)];
        let n = loop {
            match sys::send_with_fd(&w.stream, &parts, seg_fd) {
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                sent => break sent?,
            }
        };
        w.announced = true;
        let mut rest = &mut parts[..];
        IoSlice::advance_slices(&mut rest, n);
        write_all_vectored(&mut w.stream, rest)
    });
    if sent.is_err() {
        slot.unpin();
    }
    sent
}

/// See the module docs.
#[derive(Debug)]
pub struct PeerConn {
    peer: usize,
    writer: Arc<Mutex<WriteHalf>>,
    /// The connection's own receive queue; `None` when it delivers into
    /// an [`Inbox`] instead.
    ring: Option<Arc<FrameRing>>,
    pool: Arc<BufPool>,
    /// This end's half of the bulk lane: the segment it sends through.
    lane: SendLane,
    /// Milliseconds since `epoch` when the last frame arrived.
    last_rx_ms: Arc<AtomicU64>,
    epoch: Instant,
    alive: Arc<AtomicBool>,
    /// Clone of the stream used only by `Drop`: shutdown must not wait
    /// on the writer lock, which a heartbeat blocked mid-write under
    /// backpressure could hold indefinitely.
    shutdown_handle: UnixStream,
}

impl PeerConn {
    /// Wrap an established stream to original rank `peer`. Spawns the
    /// reader thread — delivering into `inbox` when one is given, else
    /// into a ring of this connection's own — and, when `heartbeat` is
    /// set, a beacon thread pacing [`RetryPolicy::heartbeat_interval`].
    pub(crate) fn spawn(
        peer: usize,
        self_rank: usize,
        stream: UnixStream,
        pool: Arc<BufPool>,
        heartbeat: Option<RetryPolicy>,
        inbox: Option<&Inbox>,
    ) -> std::io::Result<Self> {
        // The reader delivers into the inbox (`Ok`) or into a ring of
        // this connection's own (`Err`) — allocated only then.
        let (ring, into) = match inbox {
            Some(inbox) => (None, Ok(inbox.clone())),
            None => {
                let ring: Arc<FrameRing> = Arc::default();
                (Some(Arc::clone(&ring)), Err(ring))
            }
        };
        let epoch = Instant::now();
        let last_rx_ms = Arc::new(AtomicU64::new(0));
        let alive = Arc::new(AtomicBool::new(true));

        let read_stream = stream.try_clone()?;
        let shutdown_handle = stream.try_clone()?;
        let writer = Arc::new(Mutex::new(WriteHalf { stream, broken: false, announced: false }));
        {
            let pool = Arc::clone(&pool);
            let last = Arc::clone(&last_rx_ms);
            let alive = Arc::clone(&alive);
            std::thread::Builder::new().name(format!("rx-{self_rank}-{peer}")).spawn(
                move || {
                    let deliver = |frame: Option<Frame>| match (&into, frame) {
                        (Ok(inbox), frame) => {
                            inbox.0.push((peer, frame));
                        }
                        (Err(ring), Some(frame)) => {
                            ring.push(frame);
                        }
                        (Err(ring), None) => ring.close(),
                    };
                    reader_main(read_stream, deliver, pool, last, alive, epoch)
                },
            )?;
        }
        if let Some(policy) = heartbeat {
            let writer = Arc::clone(&writer);
            let alive = Arc::clone(&alive);
            std::thread::Builder::new()
                .name(format!("hb-{self_rank}-{peer}"))
                .spawn(move || heartbeat_main(writer, self_rank, policy, alive))?;
        }
        Ok(PeerConn {
            peer,
            writer,
            ring,
            pool,
            lane: SendLane::default(),
            last_rx_ms,
            epoch,
            alive,
            shutdown_handle,
        })
    }

    /// A standalone connection with its own private buffer pool —
    /// for control streams that are not part of a [`SocketMesh`]
    /// (whose connections share one pool).
    ///
    /// [`SocketMesh`]: crate::mesh::SocketMesh
    pub fn solo(
        peer: usize,
        self_rank: usize,
        stream: UnixStream,
        heartbeat: Option<RetryPolicy>,
    ) -> std::io::Result<Self> {
        PeerConn::spawn(peer, self_rank, stream, BufPool::new(), heartbeat, None)
    }

    /// [`PeerConn::solo`], delivering into `inbox` (tagged `peer`)
    /// instead of a ring of its own, which it then never allocates: the
    /// owner receives from the inbox, and this connection's own
    /// [`PeerConn::recv_timeout`] never yields a frame.
    pub fn solo_into(
        peer: usize,
        self_rank: usize,
        stream: UnixStream,
        heartbeat: Option<RetryPolicy>,
        inbox: &Inbox,
    ) -> std::io::Result<Self> {
        PeerConn::spawn(peer, self_rank, stream, BufPool::new(), heartbeat, Some(inbox))
    }

    pub fn peer(&self) -> usize {
        self.peer
    }

    /// Write one frame: its descriptor when its payload is a slot of
    /// this connection's lane that has not been announced yet
    /// ([`send_slot`]), else the whole frame ([`send_frame`]). A write
    /// error marks the connection broken (the peer is gone; Rust
    /// ignores SIGPIPE, so a dead reader surfaces as `BrokenPipe` here).
    pub fn send(&self, frame: &Frame) -> Result<(), WireError> {
        if let Some(slot) = &frame.slot {
            if let Some(seg_fd) = self.lane.segment_of(slot) {
                if slot.announce() {
                    return send_slot(&self.writer, frame, slot, seg_fd, &self.alive);
                }
            }
        }
        send_frame(&self.writer, frame, &self.alive)
    }

    /// A send buffer of exactly `len` bytes for a payload to this peer:
    /// a slot of the bulk lane when `len` is in the lane's range and the
    /// ring has room, else a buffer from the pool.
    pub fn lease(&self, len: usize) -> Lease {
        match self.lane.lease(len) {
            Some(slot) => Lease::Slot(slot),
            None => Lease::heap(self.pool.acquire(), len),
        }
    }

    /// Next decoded frame, waiting up to `timeout`. A connection that
    /// delivers into an [`Inbox`] has nothing to receive here and says
    /// `Timeout` at once.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Frame, WireError> {
        match &self.ring {
            Some(ring) => ring.pop_timeout(timeout),
            None => Err(WireError::Timeout),
        }
    }

    /// How long since the peer was last heard from (any frame kind).
    pub fn silence(&self) -> Duration {
        let now = self.epoch.elapsed().as_millis() as u64;
        let last = self.last_rx_ms.load(Ordering::Acquire);
        Duration::from_millis(now.saturating_sub(last)) // lint: allow(duration): unit conversion of the rx timestamp delta, not a timeout constant
    }

    /// Return a payload buffer to this connection's pool.
    pub fn release(&self, payload: Vec<u8>) {
        self.pool.release(payload);
    }

    /// False once either direction of the stream has failed.
    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::Acquire)
    }
}

impl Control for PeerConn {
    fn send(&self, frame: &Frame) -> Result<(), WireError> {
        PeerConn::send(self, frame)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Frame, WireError> {
        PeerConn::recv_timeout(self, timeout)
    }

    fn silence(&self) -> Duration {
        PeerConn::silence(self)
    }
}

impl Drop for PeerConn {
    fn drop(&mut self) {
        self.alive.store(false, Ordering::Release);
        // Shut the socket down so the reader/heartbeat threads unblock
        // and exit instead of leaking. Deliberately does NOT take the
        // writer lock: a heartbeat wedged in `write_all` holds it, and
        // this shutdown is exactly what unwedges that write.
        let _ = self.shutdown_handle.shutdown(std::net::Shutdown::Both);
    }
}

fn reader_main(
    stream: UnixStream,
    deliver: impl Fn(Option<Frame>),
    pool: Arc<BufPool>,
    last_rx_ms: Arc<AtomicU64>,
    alive: Arc<AtomicBool>,
    epoch: Instant,
) {
    let mut stream = FdReader::new(stream);
    let mut lane = RecvLane::default();
    // The buffer the next payload lands in. A delivered data frame
    // takes it; a payload-less or rejected frame, or a descriptor once
    // resolved, leaves it here.
    let mut buf = Vec::new();
    loop {
        if buf.capacity() == 0 {
            buf = pool.acquire();
        }
        // EOF, an I/O error, or a length out of bounds: the peer is
        // gone or framing is lost for good — a dead stream either way.
        let read = read_frame_in(&mut stream, &mut buf, Some(FdReader::read_exact_keeping_fd));
        let Ok(frame) = read else { break };
        last_rx_ms.store(epoch.elapsed().as_millis() as u64, Ordering::Release);
        match frame {
            Ok((frame, false)) if frame.kind == FrameKind::Heartbeat => pool.release(frame.payload),
            Ok((frame, false)) => deliver(Some(frame)),
            Ok((mut frame, true)) => {
                buf = std::mem::take(&mut frame.payload);
                frame.slot = lane.resolve(&buf, stream.take_fd());
                // Unresolved (no segment, out of bounds, CRC mismatch):
                // loss, like any reject below.
                if frame.slot.is_some() {
                    deliver(Some(frame));
                }
            }
            // CRC/version rejects look like loss to the layer above;
            // its deadline/nack machinery requests a resend.
            Err(_) => {}
        }
    }
    pool.release(buf);
    alive.store(false, Ordering::Release);
    deliver(None);
}

fn heartbeat_main(
    writer: Arc<Mutex<WriteHalf>>,
    self_rank: usize,
    policy: RetryPolicy,
    alive: Arc<AtomicBool>,
) {
    let beacon = Frame::control(FrameKind::Heartbeat, self_rank as u16, 0, 0);
    let interval = policy.heartbeat_interval();
    while alive.load(Ordering::Acquire) {
        // The beacon must track wall time even under a virtual
        // FaultClock — a real socket peer really times out.
        std::thread::sleep(interval); // lint: allow(sleep): heartbeat pacing, interval from RetryPolicy::heartbeat_interval
        if send_frame(&writer, &beacon, &alive).is_err() {
            break;
        }
    }
}

/// Dial `path`, retrying with the policy's exponential backoff (capped
/// per attempt) while the listener comes up. Rendezvous races —
/// workers and the coordinator all start concurrently — resolve here.
pub fn connect_with_backoff(
    path: &Path,
    policy: &RetryPolicy,
    clock: &FaultClock,
) -> std::io::Result<UnixStream> {
    let mut attempt = 0u32;
    loop {
        match UnixStream::connect(path) {
            Ok(s) => return Ok(s),
            Err(e) => {
                if attempt >= policy.max_attempts.saturating_mul(4) {
                    return Err(e);
                }
                clock.inject(policy.deadline(attempt.min(4)));
                attempt += 1;
            }
        }
    }
}

/// Read exactly one frame off a raw stream (rendezvous handshakes,
/// before the reader thread exists). Not for the hot path.
pub fn read_frame_blocking(stream: &mut UnixStream) -> std::io::Result<Frame> {
    read_frame(stream, &mut Vec::new())?
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

/// Write one frame to a raw stream (rendezvous handshakes).
pub fn write_frame_blocking(stream: &mut UnixStream, frame: &Frame) -> std::io::Result<()> {
    stream.write_all(&encode(frame))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (UnixStream, UnixStream) {
        UnixStream::pair().expect("socketpair")
    }

    fn policy_fast() -> RetryPolicy {
        RetryPolicy {
            base: Duration::from_millis(10),
            factor: 2,
            max_attempts: 4,
            tick: Duration::from_millis(1),
        }
    }

    #[test]
    fn frames_cross_a_socketpair() {
        let (a, b) = pair();
        let pool = BufPool::new();
        let left = PeerConn::spawn(1, 0, a, Arc::clone(&pool), None, None).unwrap();
        let right = PeerConn::spawn(0, 1, b, pool, None, None).unwrap();
        let mut f = Frame::control(FrameKind::Data, 0, 0, 3);
        f.seq = 5;
        f.payload = vec![1, 2, 3];
        left.send(&f).unwrap();
        let got = right.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(got, f);
        right.release(got.payload);
    }

    /// A payload leased from the lane crosses as a descriptor and is
    /// read in the sender's segment; the same frame sent again (a
    /// resend) goes inline; a small lease is a pooled buffer; and once
    /// both ends have dropped the frame its slot is leased again.
    #[test]
    fn bulk_lane_announces_once_then_goes_inline() {
        use crate::lane::{BULK_MIN, SLOT_MAX};
        let (a, b) = pair();
        let pool = BufPool::new();
        let left = PeerConn::spawn(1, 0, a, Arc::clone(&pool), None, None).unwrap();
        let right = PeerConn::spawn(0, 1, b, pool, None, None).unwrap();
        assert!(matches!(left.lease(BULK_MIN - 1), Lease::Heap(v) if v.len() == BULK_MIN - 1));
        let mut lease = left.lease(BULK_MIN);
        assert!(matches!(lease, Lease::Slot(_)));
        for (i, x) in lease.bytes_mut().iter_mut().enumerate() {
            *x = (i * 7) as u8;
        }
        let mut f = Frame::control(FrameKind::Data, 0, 0, 1);
        f.seq = 3;
        let f = f.carrying(lease);
        left.send(&f).unwrap();
        left.send(&f).unwrap();
        let wait = Duration::from_secs(2);
        let first = right.recv_timeout(wait).unwrap();
        assert!(first.slot.is_some() && first.payload.is_empty(), "in the lane: {first:?}");
        assert_eq!(first, f);
        let again = right.recv_timeout(wait).unwrap();
        assert!(again.slot.is_none(), "a resend goes inline");
        assert_eq!(again, f);
        // Two largest slots fill a segment: the live one keeps one out.
        let big = left.lease(SLOT_MAX);
        assert!(matches!(big, Lease::Slot(_)));
        assert!(matches!(left.lease(SLOT_MAX), Lease::Heap(_)), "no room while f is held");
        drop((f, first, big));
        assert!(matches!(left.lease(SLOT_MAX), Lease::Slot(_)), "reclaimed once dropped");
    }

    #[test]
    fn eof_drains_queued_frames_then_reports_gone() {
        let (a, b) = pair();
        let pool = BufPool::new();
        let left = PeerConn::spawn(1, 0, a, Arc::clone(&pool), None, None).unwrap();
        let right = PeerConn::spawn(0, 1, b, pool, None, None).unwrap();
        let mut f = Frame::control(FrameKind::Data, 0, 0, 0);
        f.payload = vec![9; 4];
        left.send(&f).unwrap();
        // Give the bytes time to land in right's ring before the writer
        // side disappears.
        let got = right.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(got.payload, vec![9; 4]);
        drop(left);
        assert_eq!(right.recv_timeout(Duration::from_millis(200)), Err(WireError::PeerGone));
        assert!(!right.is_alive());
    }

    /// Two connections into one inbox: arrivals come tagged, and a
    /// connection's EOF is one item behind everything it carried.
    #[test]
    fn inbox_tags_arrivals_and_delivers_eof_in_order() {
        let inbox = Inbox::default();
        let (a, a_far) = pair();
        let (b, b_far) = pair();
        let conn_a = PeerConn::solo_into(0, 9, a, None, &inbox).unwrap();
        let _conn_b = PeerConn::solo_into(1, 9, b, None, &inbox).unwrap();
        let far_a = PeerConn::solo(9, 0, a_far, None).unwrap();
        let far_b = PeerConn::solo(9, 1, b_far, None).unwrap();
        let wait = Duration::from_secs(2);

        let mut f = Frame::control(FrameKind::Data, 0, 0, 1);
        f.payload = vec![7; 3];
        far_a.send(&f).unwrap();
        assert_eq!(inbox.recv_timeout(wait), Some((0, Some(f.clone()))));
        f.from = 1;
        far_b.send(&f).unwrap();
        far_b.send(&f).unwrap();
        drop(far_b);
        assert_eq!(inbox.recv_timeout(wait), Some((1, Some(f.clone()))));
        assert_eq!(inbox.recv_timeout(wait), Some((1, Some(f))));
        assert_eq!(inbox.recv_timeout(wait), Some((1, None)));
        assert_eq!(inbox.recv_timeout(Duration::from_millis(20)), None);
        // The inbox is the only way to receive from a feeding connection,
        // which allocates no ring of its own.
        assert_eq!(conn_a.recv_timeout(Duration::ZERO), Err(WireError::Timeout));
        assert!(conn_a.ring.is_none() && far_a.ring.is_some());
        conn_a.send(&Frame::control(FrameKind::Start, 9, 0, 0)).unwrap();
        assert_eq!(far_a.recv_timeout(wait).unwrap().kind, FrameKind::Start);
    }

    /// The in-process twin keeps the socket pair's contract: worker
    /// frames arrive tagged on the inbox, the worker end's drop is one
    /// EOF behind them, and either end's drop fails the other's sends.
    #[test]
    fn local_conn_is_a_control_stream_with_an_eof() {
        let inbox = Inbox::default();
        let (worker, coord) = LocalConn::pair(3, &inbox);
        let wait = Duration::from_secs(2);
        let vote = Frame::control(FrameKind::StepDone, 3, 0, 1);
        worker.send(&vote).unwrap();
        assert_eq!(inbox.recv_timeout(wait), Some((3, Some(vote.clone()))));
        let commit = Frame::control(FrameKind::Commit, 4, 0, 1);
        coord.send(&commit).unwrap();
        assert_eq!(worker.recv_timeout(wait), Ok(commit.clone()));
        assert_eq!(worker.silence(), Duration::ZERO);

        worker.send(&vote).unwrap();
        drop(worker);
        assert_eq!(inbox.recv_timeout(wait), Some((3, Some(vote))));
        assert_eq!(inbox.recv_timeout(wait), Some((3, None)));
        assert_eq!(coord.send(&commit), Err(WireError::PeerGone));

        let (worker, coord) = LocalConn::pair(0, &inbox);
        coord.send(&commit).unwrap();
        drop(coord);
        assert_eq!(worker.recv_timeout(wait), Ok(commit), "queued frames drain first");
        assert_eq!(worker.recv_timeout(wait), Err(WireError::PeerGone));
        assert_eq!(
            worker.send(&Frame::control(FrameKind::Ready, 0, 0, 0)),
            Err(WireError::PeerGone)
        );
    }

    #[test]
    fn heartbeats_keep_silence_low_and_never_surface() {
        let (a, b) = pair();
        let pool = BufPool::new();
        let _left = PeerConn::spawn(1, 0, a, Arc::clone(&pool), Some(policy_fast()), None).unwrap();
        let right = PeerConn::spawn(0, 1, b, pool, None, None).unwrap();
        // No data frames at all: receives time out...
        assert_eq!(right.recv_timeout(Duration::from_millis(60)), Err(WireError::Timeout));
        // ...but the beacon keeps the peer visibly alive.
        assert!(right.silence() < policy_fast().death_threshold());
    }

    #[test]
    fn connect_backoff_gives_up_on_a_missing_listener() {
        let clock = FaultClock::virtual_clock();
        let err = connect_with_backoff(
            Path::new("/tmp/definitely-not-bound-by-anyone.sock"),
            &policy_fast(),
            &clock,
        );
        assert!(err.is_err());
        assert!(clock.injected() > Duration::ZERO, "retries waited through the clock");
    }

    #[test]
    fn blocking_helpers_roundtrip() {
        let (mut a, mut b) = pair();
        let mut f = Frame::control(FrameKind::Hello, 2, 0, 0);
        f.payload = b"path".to_vec();
        write_frame_blocking(&mut a, &f).unwrap();
        assert_eq!(read_frame_blocking(&mut b).unwrap(), f);
    }
}
