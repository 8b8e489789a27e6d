//! One peer connection: a Unix-domain stream read on the thread that
//! waits on it, a liveness heartbeat, pooled frame buffers, and the bulk
//! lane ([`crate::lane`]) for large payloads.
//!
//! The socket is non-blocking, and [`PeerConn::recv_timeout`] runs the
//! framing loop on the caller's thread: it reads on with the
//! connection's [`PartialFrame`], `poll(2)`s the socket when a read
//! would block, and returns the first frame for its caller. Each
//! payload is read off the socket straight into the pooled buffer its
//! frame will own, and checksummed there; a descriptor frame's slot is
//! checksummed in place in the peer's segment, which the receive half
//! maps when the segment's descriptor arrives with the first of them.
//! Every frame read stamps a last-heard-from clock; heartbeats are
//! consumed there and never surface. EOF (the peer died — a SIGKILLed
//! process's kernel closes its sockets) ends the stream: frames already
//! read out go first, then receives report [`WireError::PeerGone`]. A
//! frame that fails its CRC is *dropped*, before any header field is
//! trusted — to the reliability layer above it looks like loss, and
//! the §5d deadline/nack machinery recovers it; its buffer stays with
//! the receive half for the next frame.
//!
//! A receive half has one reader at a time, behind its lock; the
//! heartbeat thread only ever `try_lock`s it. What arrives while the
//! owner is busy elsewhere waits in the kernel's socket buffer until the
//! owner's next receive or the heartbeat's next beacon, which reads what
//! the owner left into the early queue first. So a peer writing to an
//! owner that computes, waits on another stream, or is done with its
//! connection still open waits at most a heartbeat interval for room,
//! and [`PeerConn::silence`] is fresh right after a receive and at most
//! an interval stale otherwise.
//!
//! An owner that waits on many connections at once hands them one
//! socket [`Inbox`] instead: one `poll` over all their sockets on the
//! owner's thread, each wake draining every readable connection,
//! arrivals tagged with their peer, and a connection's EOF an item
//! behind every frame it carried. Control streams between threads of
//! one process are the same sockets: a `socketpair` per stream, with no
//! heartbeat.
//!
//! The send half never copies a payload in user space:
//! [`PeerConn::send`] hands the kernel `[len + header] [payload] [crc]`
//! as one vectored write, under the lock every writer of the stream
//! shares — or, for a payload the executor encoded straight into a slot
//! it leased ([`PeerConn::lease`]), `[len + header] [descriptor] [crc]`,
//! and the payload's bytes never touch the socket. A write that would
//! block reads while it waits: two ends that both write more than the
//! socket buffers hold, and read only afterwards, would otherwise wait
//! on each other for ever. The blocked writer polls for room *and* for
//! arrivals on the socket it writes to, and reads what arrives into a
//! small queue that the next receive hands out first. A longer circle —
//! a ring of ranks each blocked writing to the next — turns on the
//! heartbeat's read: each blocked writer waits at most a heartbeat
//! interval for its successor's heartbeat to make room.
//!
//! All pacing derives from [`RetryPolicy`]; connect retries sleep
//! through [`FaultClock`].

use std::collections::VecDeque;
use std::io::{IoSlice, Write};
use std::os::fd::RawFd;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, TryLockError};
use std::time::{Duration, Instant};

use faults::{FaultClock, RetryPolicy};

use crate::frame::{
    encode, envelope, read_frame, slot_envelope, Frame, FrameKind, PartialFrame, PREFIX_LEN,
};
use crate::lane::{Lease, RecvLane, SendLane, Slot};
use crate::sys::{self, FdReader, PollFd, POLLIN, POLLOUT};
use crate::WireError;

/// Spare payload buffers a pool keeps; a buffer released to a full
/// pool is freed.
const POOL_SPARES: usize = 256;

/// Frames a blocked send can read ahead before its queue grows.
const EARLY_CAPACITY: usize = 16;

/// A shared pool of payload byte buffers: receives acquire, the
/// consumer releases. Keeps the per-frame buffer churn off the
/// allocator once warm. Buffers come back with their old length and
/// contents — the reader overwrites them, so nothing is cleared or
/// zero-filled per frame.
#[derive(Debug, Default)]
pub(crate) struct BufPool {
    free: Mutex<Vec<Vec<u8>>>,
}

impl BufPool {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(BufPool { free: Mutex::new(Vec::with_capacity(POOL_SPARES)) })
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
        if free.len() < POOL_SPARES {
            free.push(buf);
        }
    }
}

/// What is left of `deadline` (`None`: no deadline, wait without
/// limit); `Err` once it has passed.
fn remaining(deadline: Option<Instant>) -> Result<Option<Duration>, WireError> {
    match deadline {
        None => Ok(None),
        Some(d) => match d.checked_duration_since(Instant::now()) {
            Some(left) if !left.is_zero() => Ok(Some(left)),
            _ => Err(WireError::Timeout),
        },
    }
}

/// One arrival on an [`Inbox`]: the sending peer, and its frame —
/// `None` for that connection's EOF.
type Arrival = (usize, Option<Frame>);

/// One receive point for several connections, for an owner that waits
/// on all of them at once (a coordinator's control streams): the
/// sockets of connections built with [`PeerConn::solo_into`], read by
/// one `poll` over all of them on the receiving thread, arrivals tagged
/// with their peer.
#[derive(Debug)]
pub struct Inbox(Mutex<Socks>);

#[derive(Debug, Default)]
struct Socks {
    /// Each connection's peer, and its receive half until its EOF has
    /// been queued.
    conns: Vec<(usize, Option<Arc<RecvHalf>>)>,
    /// Arrivals read off the sockets and not yet handed out.
    ready: VecDeque<Arrival>,
    /// The poll set, refilled per wait in the allocation it keeps.
    fds: Vec<PollFd>,
}

impl Socks {
    /// Wait up to `wait` for any socket to be readable, then read every
    /// one that is to its end for now — so the silence of every
    /// connection is fresh after the call, whichever arrival is handed
    /// out first. A connection's EOF is queued behind its last frame.
    /// A `poll` that fails (not one a signal cuts short) would fail
    /// again on the next wait, so it ends every connection: each is
    /// read out as it stands and its EOF queued.
    fn drain(&mut self, wait: Option<Duration>) {
        let Socks { conns, ready, fds } = self;
        fds.clear();
        fds.extend(conns.iter().flat_map(|(_, rx)| rx).map(|rx| PollFd::new(rx.fd, POLLIN)));
        let failed = sys::wait(fds, wait).is_err();
        let mut polled = fds.iter();
        for (peer, slot) in conns.iter_mut() {
            let Some(rx) = slot else { continue };
            if !polled.next().is_some_and(PollFd::woke) && !failed {
                continue;
            }
            let mut st = rx.lock();
            while let Some(frame) = rx.next(&mut st) {
                ready.push_back((*peer, Some(frame)));
            }
            st.ended |= failed;
            if st.ended {
                ready.push_back((*peer, None));
                drop(st);
                *slot = None;
            }
        }
    }

    /// The next arrival, reading the sockets until `deadline`. Queued
    /// arrivals go first, but not before the sockets have been read once
    /// more, so silences are fresh whatever is handed out.
    fn recv(&mut self, deadline: Option<Instant>) -> Option<Arrival> {
        let mut wait = remaining(deadline).unwrap_or(Some(Duration::ZERO));
        loop {
            if !self.ready.is_empty() {
                wait = Some(Duration::ZERO);
            }
            self.drain(wait);
            if let Some(arrival) = self.ready.pop_front() {
                return Some(arrival);
            }
            wait = remaining(deadline).ok()?;
        }
    }
}

impl Inbox {
    /// An inbox for connections built with [`PeerConn::solo_into`].
    pub fn sockets() -> Inbox {
        Inbox(Mutex::default())
    }

    /// The next arrival on any feeding connection, waiting up to
    /// `timeout`: `(peer, Some(frame))`, or `(peer, None)` — that
    /// connection's EOF, delivered once, after every frame it carried.
    /// `None` when nothing arrived in time.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Arrival> {
        // Poisoned: a read panicked mid-drain. The queue and the poll
        // set are whole; that connection's receive half knows its
        // stream is over.
        let mut socks = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        socks.recv(Instant::now().checked_add(timeout))
    }
}

/// What a connection's receive half keeps between reads.
#[derive(Debug)]
struct ReadState {
    stream: FdReader,
    /// The frame read part-way when the socket last ran dry.
    frame: PartialFrame,
    /// The buffer the next payload lands in. A delivered data frame
    /// takes it; a payload-less or rejected frame, or a descriptor once
    /// resolved, leaves it here.
    buf: Vec<u8>,
    lane: RecvLane,
    /// Frames a blocked send or the heartbeat read off the socket; a
    /// receive hands them out ahead of anything still in it.
    early: VecDeque<Frame>,
    /// The stream is over — EOF, an I/O error, or framing lost for good:
    /// nothing more will be read.
    ended: bool,
}

/// A connection's receive side, shared by the connection, its heartbeat
/// thread (which only ever `try_lock`s it) and, for a connection built
/// with [`PeerConn::solo_into`], the [`Inbox`] that reads it.
#[derive(Debug)]
struct RecvHalf {
    fd: RawFd,
    state: Mutex<ReadState>,
    pool: Arc<BufPool>,
    /// Milliseconds since `epoch` when the last frame arrived.
    last_rx_ms: AtomicU64,
    epoch: Instant,
    /// Read by an [`Inbox`] only: neither the connection's own receive
    /// nor a blocked send of it reads the socket.
    fed: bool,
    /// The connection has been dropped: its heartbeat stops.
    dropped: AtomicBool,
}

/// A receive state whose last reader panicked part-way through a frame:
/// framing is lost, so the stream is over.
fn torn(poisoned: PoisonError<MutexGuard<'_, ReadState>>) -> MutexGuard<'_, ReadState> {
    let mut st = poisoned.into_inner();
    st.ended = true;
    st
}

impl RecvHalf {
    /// The receive state, for its one reader.
    fn lock(&self) -> MutexGuard<'_, ReadState> {
        self.state.lock().unwrap_or_else(torn)
    }

    /// [`RecvHalf::lock`], unless another reader holds it.
    fn try_lock(&self) -> Option<MutexGuard<'_, ReadState>> {
        match self.state.try_lock() {
            Ok(st) => Some(st),
            Err(TryLockError::Poisoned(poisoned)) => Some(torn(poisoned)),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// Read on to the next frame for the owner: heartbeats consumed,
    /// CRC and version rejects and unresolvable descriptors dropped as
    /// loss, every frame read stamping the last-heard clock. `None` when
    /// the socket runs dry first or the stream is over (`ended`).
    fn next(&self, st: &mut ReadState) -> Option<Frame> {
        while !st.ended {
            if st.buf.capacity() == 0 {
                st.buf = self.pool.acquire();
            }
            let ReadState { stream, frame, buf, lane, .. } = st;
            let read = match frame.read_in(stream, buf, Some(FdReader::read_keeping_fd)) {
                Ok(Some(read)) => read,
                Ok(None) => return None,
                // EOF, an I/O error, or a length out of bounds: the peer
                // is gone or framing is lost — a dead stream either way.
                Err(_) => {
                    st.ended = true;
                    self.pool.release(std::mem::take(&mut st.buf));
                    return None;
                }
            };
            self.last_rx_ms.store(self.epoch.elapsed().as_millis() as u64, Ordering::Release);
            match read {
                Ok((frame, false)) if frame.kind == FrameKind::Heartbeat => {}
                Ok((frame, false)) => return Some(frame),
                Ok((mut frame, true)) => {
                    *buf = std::mem::take(&mut frame.payload);
                    frame.slot = lane.resolve(buf, stream.take_fd());
                    // Unresolved (no segment, out of bounds, CRC
                    // mismatch): loss, like any reject below.
                    if frame.slot.is_some() {
                        return Some(frame);
                    }
                }
                // CRC/version rejects look like loss to the layer above;
                // its deadline/nack machinery requests a resend.
                Err(_) => {}
            }
        }
        None
    }

    /// Read every frame the socket holds now into the early queue.
    fn read_ahead(&self, st: &mut ReadState) {
        while let Some(frame) = self.next(st) {
            st.early.push_back(frame);
        }
    }
}

/// How a writer whose socket is full waits for room.
struct Blocked<'a> {
    /// The connection written to, read while waiting.
    rx: &'a RecvHalf,
    /// Read `rx` only when no one else is (the heartbeat), rather than
    /// wait for its lock (the owner).
    try_only: bool,
    /// The longest single wait; `None`: until the socket is ready.
    wait: Option<Duration>,
}

impl Blocked<'_> {
    /// Wait until the socket can take more bytes or frames arrive, and
    /// read those that do into the receive half's early queue — the
    /// peer may be blocked writing to us, and only our reading lets its
    /// write, and so ours, through.
    fn wait(&self) -> std::io::Result<()> {
        let mut st = match self.try_only {
            true => self.rx.try_lock(),
            false => Some(self.rx.lock()),
        };
        let st = st.as_mut().filter(|st| !st.ended && !self.rx.fed);
        let events = if st.is_some() { POLLIN | POLLOUT } else { POLLOUT };
        let mut fds = [PollFd::new(self.rx.fd, events)];
        sys::wait(&mut fds, self.wait)?;
        if let Some(st) = st.filter(|_| fds[0].woke()) {
            self.rx.read_ahead(st);
        }
        Ok(())
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
/// mid-slice after a partial write, and waiting as `blocked` says
/// whenever the socket is full.
fn write_all_vectored(
    stream: &mut UnixStream,
    mut bufs: &mut [IoSlice<'_>],
    blocked: &Blocked<'_>,
) -> std::io::Result<()> {
    while !bufs.is_empty() {
        match stream.write_vectored(bufs) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut bufs, n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => blocked.wait()?,
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Run `write` on the write half under its lock. A failure marks the
/// half broken.
fn write_locked(
    writer: &Mutex<WriteHalf>,
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
    blocked: &Blocked<'_>,
) -> Result<(), WireError> {
    let (prefix, crc) = envelope(frame);
    let payload = frame.bytes();
    write_locked(writer, |w| {
        if payload.is_empty() {
            let mut whole = [0u8; PREFIX_LEN + 4];
            whole[..PREFIX_LEN].copy_from_slice(&prefix);
            whole[PREFIX_LEN..].copy_from_slice(&crc);
            write_all_vectored(&mut w.stream, &mut [IoSlice::new(&whole)], blocked)
        } else {
            let mut parts = [IoSlice::new(&prefix), IoSlice::new(payload), IoSlice::new(&crc)];
            write_all_vectored(&mut w.stream, &mut parts, blocked)
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
    blocked: &Blocked<'_>,
) -> Result<(), WireError> {
    let desc = slot.descriptor(faults::crc32_bytes(slot.bytes()));
    let (prefix, crc) = slot_envelope(frame, &desc);
    slot.pin();
    let sent = write_locked(writer, |w| {
        if w.announced {
            let mut parts = [IoSlice::new(&prefix), IoSlice::new(&desc), IoSlice::new(&crc)];
            return write_all_vectored(&mut w.stream, &mut parts, blocked);
        }
        write_all_vectored(&mut w.stream, &mut [IoSlice::new(&prefix)], blocked)?;
        let mut parts = [IoSlice::new(&desc), IoSlice::new(&crc)];
        let n = loop {
            match sys::send_with_fd(&w.stream, &parts, seg_fd) {
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => blocked.wait()?,
                sent => break sent?,
            }
        };
        w.announced = true;
        let mut rest = &mut parts[..];
        IoSlice::advance_slices(&mut rest, n);
        write_all_vectored(&mut w.stream, rest, blocked)
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
    rx: Arc<RecvHalf>,
    /// This end's half of the bulk lane: the segment it sends through.
    lane: SendLane,
    /// Clone of the stream used only by `Drop`: shutdown must not wait
    /// on the writer lock, which a heartbeat blocked mid-write under
    /// backpressure could hold.
    shutdown_handle: UnixStream,
}

impl PeerConn {
    /// Wrap an established stream to original rank `peer`, making it
    /// non-blocking, and — when `heartbeat` is set — spawn a beacon
    /// thread pacing [`RetryPolicy::heartbeat_interval`]. A `fed`
    /// connection is read by an [`Inbox`] only.
    pub(crate) fn spawn(
        peer: usize,
        self_rank: usize,
        stream: UnixStream,
        pool: Arc<BufPool>,
        heartbeat: Option<RetryPolicy>,
        fed: bool,
    ) -> std::io::Result<Self> {
        // The flag is the socket's, shared by every clone below.
        stream.set_nonblocking(true)?;
        let read = FdReader::new(stream.try_clone()?);
        let rx = Arc::new(RecvHalf {
            fd: read.raw_fd(),
            state: Mutex::new(ReadState {
                stream: read,
                frame: PartialFrame::default(),
                buf: Vec::new(),
                lane: RecvLane::default(),
                early: VecDeque::with_capacity(EARLY_CAPACITY),
                ended: false,
            }),
            pool,
            last_rx_ms: AtomicU64::new(0),
            epoch: Instant::now(),
            fed,
            dropped: AtomicBool::new(false),
        });
        let shutdown_handle = stream.try_clone()?;
        let writer = Arc::new(Mutex::new(WriteHalf { stream, broken: false, announced: false }));
        if let Some(policy) = heartbeat {
            let writer = Arc::clone(&writer);
            let rx = Arc::clone(&rx);
            std::thread::Builder::new()
                .name(format!("hb-{self_rank}-{peer}"))
                .spawn(move || heartbeat_main(&writer, &rx, self_rank, policy))?;
        }
        Ok(PeerConn { peer, writer, rx, lane: SendLane::default(), shutdown_handle })
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
        PeerConn::spawn(peer, self_rank, stream, BufPool::new(), heartbeat, false)
    }

    /// [`PeerConn::solo`], read by `inbox` (its arrivals tagged `peer`)
    /// instead of by itself: the owner receives from the inbox, and this
    /// connection's own [`PeerConn::recv_timeout`] never yields a frame.
    pub fn solo_into(
        peer: usize,
        self_rank: usize,
        stream: UnixStream,
        heartbeat: Option<RetryPolicy>,
        inbox: &Inbox,
    ) -> std::io::Result<Self> {
        let conn = PeerConn::spawn(peer, self_rank, stream, BufPool::new(), heartbeat, true)?;
        let mut socks = inbox.0.lock().unwrap_or_else(PoisonError::into_inner);
        socks.conns.push((peer, Some(Arc::clone(&conn.rx))));
        Ok(conn)
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
        let blocked = Blocked { rx: &self.rx, try_only: false, wait: None };
        if let Some(slot) = &frame.slot {
            if let Some(seg_fd) = self.lane.segment_of(slot) {
                if slot.announce() {
                    return send_slot(&self.writer, frame, slot, seg_fd, &blocked);
                }
            }
        }
        send_frame(&self.writer, frame, &blocked)
    }

    /// A send buffer of exactly `len` bytes for a payload to this peer:
    /// a slot of the bulk lane when `len` is in the lane's range and the
    /// ring has room, else a buffer from the pool.
    pub fn lease(&self, len: usize) -> Lease {
        match self.lane.lease(len) {
            Some(slot) => Lease::Slot(slot),
            None => Lease::heap(self.rx.pool.acquire(), len),
        }
    }

    /// Next frame, waiting up to `timeout`, read on this thread: frames
    /// a blocked send or the heartbeat already read come first, then the
    /// socket is read on and `poll`ed whenever it runs dry. A `poll` that
    /// fails (not one a signal cuts short) ends the stream like an I/O
    /// error does. A connection read by an [`Inbox`] has nothing to
    /// receive here and says `Timeout` at once.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Frame, WireError> {
        let rx = &*self.rx;
        if rx.fed {
            return Err(WireError::Timeout);
        }
        let deadline = Instant::now().checked_add(timeout);
        let mut st = rx.lock();
        if let Some(frame) = st.early.pop_front() {
            return Ok(frame);
        }
        loop {
            if let Some(frame) = rx.next(&mut st) {
                return Ok(frame);
            }
            if st.ended {
                return Err(WireError::PeerGone);
            }
            let wait = remaining(deadline)?;
            if sys::wait(&mut [PollFd::new(rx.fd, POLLIN)], wait).is_err() {
                st.ended = true;
            }
        }
    }

    /// How long since the peer was last heard from (any frame kind) —
    /// as of the last read of this connection, which is what a caller
    /// that has just tried to receive wants.
    pub fn silence(&self) -> Duration {
        let now = self.rx.epoch.elapsed().as_millis() as u64;
        let last = self.rx.last_rx_ms.load(Ordering::Acquire);
        Duration::from_millis(now.saturating_sub(last)) // lint: allow(duration): unit conversion of the rx timestamp delta, not a timeout constant
    }

    /// Return a payload buffer to this connection's pool.
    pub fn release(&self, payload: Vec<u8>) {
        self.rx.pool.release(payload);
    }
}

impl Drop for PeerConn {
    fn drop(&mut self) {
        self.rx.dropped.store(true, Ordering::Release);
        // Shut the socket down so the peer sees EOF. Deliberately does
        // NOT take the writer lock: a heartbeat waiting on a full socket
        // holds it, and this shutdown is exactly what wakes that wait.
        let _ = self.shutdown_handle.shutdown(std::net::Shutdown::Both);
    }
}

/// Every heartbeat interval while the connection lives: read whatever
/// the owner has left in the socket into the early queue, unless someone
/// is reading it right now, then beacon. The read is what keeps a peer
/// that writes to an owner busy elsewhere — computing, waiting on
/// another stream, or done with its collective while its mesh stays
/// open — from waiting on a full socket for longer than an interval.
fn heartbeat_main(writer: &Mutex<WriteHalf>, rx: &RecvHalf, self_rank: usize, policy: RetryPolicy) {
    let beacon = Frame::control(FrameKind::Heartbeat, self_rank as u16, 0, 0);
    let interval = policy.heartbeat_interval();
    // A full socket: read only what no one else is reading, and give the
    // owner its turn at the receive half at least every tick.
    let blocked = Blocked { rx, try_only: true, wait: Some(policy.tick) };
    while !rx.dropped.load(Ordering::Acquire) {
        // The beacon must track wall time even under a virtual
        // FaultClock — a real socket peer really times out.
        std::thread::sleep(interval); // lint: allow(sleep): heartbeat pacing, interval from RetryPolicy::heartbeat_interval
        if !rx.fed {
            if let Some(mut st) = rx.try_lock() {
                rx.read_ahead(&mut st);
            }
        }
        if send_frame(writer, &beacon, &blocked).is_err() {
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

/// Read exactly one frame off a raw, blocking stream (rendezvous
/// handshakes, before the stream becomes a [`PeerConn`]). Not for the
/// hot path.
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
        let left = PeerConn::spawn(1, 0, a, Arc::clone(&pool), None, false).unwrap();
        let right = PeerConn::spawn(0, 1, b, pool, None, false).unwrap();
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
        let left = PeerConn::spawn(1, 0, a, Arc::clone(&pool), None, false).unwrap();
        let right = PeerConn::spawn(0, 1, b, pool, None, false).unwrap();
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
        let left = PeerConn::spawn(1, 0, a, Arc::clone(&pool), None, false).unwrap();
        let right = PeerConn::spawn(0, 1, b, pool, None, false).unwrap();
        let mut f = Frame::control(FrameKind::Data, 0, 0, 0);
        f.payload = vec![9; 4];
        left.send(&f).unwrap();
        let got = right.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(got.payload, vec![9; 4]);
        drop(left);
        assert_eq!(right.recv_timeout(Duration::from_millis(200)), Err(WireError::PeerGone));
    }

    /// Two connections into one inbox: arrivals come tagged, and a
    /// connection's EOF is one item behind everything it carried.
    #[test]
    fn inbox_tags_arrivals_and_delivers_eof_in_order() {
        let inbox = Inbox::sockets();
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
        // The inbox is the only reader of a feeding connection.
        assert_eq!(conn_a.recv_timeout(Duration::ZERO), Err(WireError::Timeout));
        assert!(conn_a.rx.fed && !far_a.rx.fed);
        conn_a.send(&Frame::control(FrameKind::Start, 9, 0, 0)).unwrap();
        assert_eq!(far_a.recv_timeout(wait).unwrap().kind, FrameKind::Start);
    }

    #[test]
    fn heartbeats_keep_silence_low_and_never_surface() {
        let (a, b) = pair();
        let pool = BufPool::new();
        let _left =
            PeerConn::spawn(1, 0, a, Arc::clone(&pool), Some(policy_fast()), false).unwrap();
        let right = PeerConn::spawn(0, 1, b, pool, None, false).unwrap();
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
