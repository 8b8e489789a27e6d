//! One peer connection: a Unix-domain stream read on the thread that
//! waits on it, liveness beacons sent from that thread's waits, pooled
//! frame buffers, and the bulk lane ([`crate::lane`]) for large
//! payloads.
//!
//! Every connection belongs to one set: the connections one owner
//! waits on — a rank's mesh peers and its control stream, or a
//! coordinator's [`Inbox`]. The transport runs no thread of its own.
//! Instead every blocking wait on any connection of a set — a receive
//! that has to `poll`, a send that finds its socket full, an inbox's
//! wait — follows one progress rule, as MPI's blocking calls do:
//!
//! * it `poll(2)`s every connection of the set;
//! * it reads every arrival, on any of them, into that connection's
//!   early queue (an inbox's onto the inbox's queue, tagged with the
//!   peer) — all but a waiting receive's own, which that receive reads
//!   itself the moment the wait returns;
//! * it beacons on each connection whose last send is older than
//!   [`RetryPolicy::heartbeat_interval`], and wakes when the next one
//!   is due. A beacon that would block is skipped: a socket already
//!   full of our frames keeps us heard.
//!
//! So a peer writing to an owner that waits on another connection, or
//! on its coordinator, finds room as soon as anything arrives there,
//! and a ring of ranks each blocked writing to the next turns without a
//! timer. And an owner is heard exactly while it waits: a rank body
//! wedged in its own code, with its process alive, goes silent, and its
//! peers declare it dead past [`RetryPolicy::death_threshold`]. A send
//! that waits for room gives up with [`WireError::PeerGone`] on that
//! bound too, as a receive does; under the patient policy neither ever
//! gives up.
//!
//! A receive reads on with the connection's [`PartialFrame`], waits as
//! above whenever the socket runs dry, and returns the first frame for
//! its caller, early queue first. Each payload is read off the socket
//! straight into the pooled buffer its frame will own, and checksummed
//! there; a descriptor frame's slot is checksummed in place in the
//! peer's segment, which the receive side maps when the segment's
//! descriptor arrives with the first of them. Every frame read stamps a
//! last-heard-from clock; beacons are consumed there and never surface.
//! EOF (the peer died — a SIGKILLed process's kernel closes its
//! sockets) ends the stream: frames already read out go first, then
//! receives report [`WireError::PeerGone`], and the connection leaves
//! its set. A frame that fails its CRC is *dropped*, before any header
//! field is trusted — to the reliability layer above it looks like
//! loss, and the §5d deadline/nack machinery recovers it; its buffer
//! stays with the connection for the next frame.
//!
//! The waits of one set serialize on its lock: one thread at a time
//! polls for all of them, as one rank body or one coordinator does.
//! Control streams between threads of one process are the same sockets:
//! a `socketpair` per stream, with no beacon.
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

use std::collections::VecDeque;
use std::io::{ErrorKind, IoSlice, Write};
use std::os::fd::RawFd;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
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

/// Frames a wait can read ahead before a connection's queue grows.
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

/// The connections one owner waits on, and the wait that progresses
/// them all (see the module docs). A [`SocketMesh`] is a rank's set,
/// and its control stream joins it; an [`Inbox`] is a coordinator's.
///
/// [`SocketMesh`]: crate::mesh::SocketMesh
#[derive(Debug)]
pub(crate) struct Set {
    /// Arrivals go onto the set's queue, tagged with their peer, rather
    /// than to each connection's own receive: an [`Inbox`].
    fed: bool,
    socks: Mutex<Socks>,
}

#[derive(Debug, Default)]
struct Socks {
    /// The connections whose streams have not ended.
    links: Vec<Arc<Link>>,
    /// A fed set's arrivals, read off the sockets and not yet handed out.
    ready: VecDeque<Arrival>,
    /// The poll set, refilled per wait in the allocation it keeps.
    fds: Vec<PollFd>,
}

impl Set {
    pub(crate) fn new(fed: bool) -> Arc<Set> {
        Arc::new(Set { fed, socks: Mutex::default() })
    }

    /// The set, for its one waiter. Poisoned: a read panicked mid-wait.
    /// The queue and the poll set are whole; that connection's receive
    /// state knows its stream is over.
    fn lock(&self) -> MutexGuard<'_, Socks> {
        self.socks.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Socks {
    /// One wait of the progress rule: beacon on every connection due
    /// one, wait up to `wait` (cut short when the next beacon falls
    /// due) for any connection to be readable — or `room` writable —
    /// and read every readable one to its end for now, so every
    /// silence is fresh after the call. `mine`, a receive's own
    /// connection, is left for that receive to read as soon as the wait
    /// returns: a frame it hands out straight off the socket is not
    /// queued first. A connection whose stream has ended leaves the
    /// set, a fed one's EOF queued behind its last frame. A `poll` that
    /// fails (not one a signal cuts short) would fail again on the next
    /// wait, so it ends every connection: each is read out as it
    /// stands, and the error is returned.
    fn progress(
        &mut self,
        fed: bool,
        mine: Option<&Link>,
        room: Option<&Link>,
        mut wait: Option<Duration>,
    ) -> std::io::Result<()> {
        let Socks { links, ready, fds } = self;
        fds.clear();
        for link in links.iter() {
            wait = wait.into_iter().chain(link.beacon()).min();
            fds.push(PollFd::new(link.fd, POLLIN));
        }
        // Last, the connection written to: its stream may have ended and
        // left the set, and it can still be written to until the peer's
        // end is closed.
        fds.extend(room.map(|r| PollFd::new(r.fd, POLLOUT)));
        let polled = sys::wait(fds, wait);
        let mut woke = fds.iter().map(|fd| fd.woke() || polled.is_err());
        links.retain(|link| {
            let left = polled.is_ok() && mine.is_some_and(|m| std::ptr::eq(m, &**link));
            if woke.next() != Some(true) || left {
                return true;
            }
            let mut st = link.lock();
            while let Some(frame) = link.next(&mut st) {
                st.early.push_back(frame);
            }
            if fed {
                ready.extend(st.early.drain(..).map(|frame| (link.peer, Some(frame))));
            }
            st.ended |= polled.is_err();
            if st.ended && fed {
                ready.push_back((link.peer, None));
            }
            !st.ended
        });
        polled
    }
}

/// One receive point for several connections, for an owner that waits
/// on all of them at once (a coordinator's control streams): the set of
/// the connections built with [`PeerConn::solo_into`], read by one
/// `poll` over all of them on the receiving thread, arrivals tagged
/// with their peer. Its waits beacon on every one of them.
#[derive(Debug)]
pub struct Inbox(Arc<Set>);

impl Inbox {
    /// An inbox for connections built with [`PeerConn::solo_into`].
    pub fn sockets() -> Inbox {
        Inbox(Set::new(true))
    }

    /// The next arrival on any feeding connection, waiting up to
    /// `timeout`: `(peer, Some(frame))`, or `(peer, None)` — that
    /// connection's EOF, delivered once, after every frame it carried.
    /// `None` when nothing arrived in time. Queued arrivals go first,
    /// but not before the sockets have been read once more, so silences
    /// are fresh whatever is handed out.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Arrival> {
        let deadline = Instant::now().checked_add(timeout);
        let mut wait = remaining(deadline).unwrap_or(Some(Duration::ZERO));
        let mut socks = self.0.lock();
        loop {
            if !socks.ready.is_empty() {
                wait = Some(Duration::ZERO);
            }
            // A failed poll has ended every connection and queued
            // their EOFs: nothing is left to report.
            let _ = socks.progress(true, None, None, wait);
            if let Some(arrival) = socks.ready.pop_front() {
                return Some(arrival);
            }
            wait = remaining(deadline).ok()?;
        }
    }
}

/// What a connection's receive side keeps between reads.
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
    /// Frames a wait read off the socket; a receive hands them out
    /// ahead of anything still in it.
    early: VecDeque<Frame>,
    /// The stream is over — EOF, an I/O error, or framing lost for good:
    /// nothing more will be read.
    ended: bool,
}

/// Write half: the stream, serialized under one lock so concurrent
/// senders cannot interleave frame bytes. A partially completed write
/// under send-buffer backpressure would otherwise splice two frames
/// together and the peer's reader would see framing loss.
#[derive(Debug)]
struct WriteHalf {
    stream: UnixStream,
    broken: bool,
    /// The bulk-lane segment's descriptor has gone to the peer (with
    /// the first descriptor frame).
    announced: bool,
}

/// One connection, shared by its [`PeerConn`] and the [`Set`] its owner
/// waits on.
#[derive(Debug)]
struct Link {
    peer: usize,
    /// The id this end's beacons carry.
    me: u16,
    /// The socket's descriptor (the read half's), to `poll`.
    fd: RawFd,
    state: Mutex<ReadState>,
    writer: Mutex<WriteHalf>,
    pool: Arc<BufPool>,
    /// The beacon pacing of this end and the silence bound of a send
    /// that waits on the peer; `None`: neither.
    heartbeat: Option<RetryPolicy>,
    epoch: Instant,
    /// Milliseconds since `epoch` when the last frame arrived.
    last_rx_ms: AtomicU64,
    /// Milliseconds since `epoch` when the last frame left.
    last_tx_ms: AtomicU64,
}

/// A receive state whose last reader panicked part-way through a frame:
/// framing is lost, so the stream is over.
fn torn(poisoned: PoisonError<MutexGuard<'_, ReadState>>) -> MutexGuard<'_, ReadState> {
    let mut st = poisoned.into_inner();
    st.ended = true;
    st
}

impl Link {
    /// The receive state, for its one reader.
    fn lock(&self) -> MutexGuard<'_, ReadState> {
        self.state.lock().unwrap_or_else(torn)
    }

    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    /// How long since the moment `stamp` holds.
    fn since(&self, stamp: &AtomicU64) -> Duration {
        let idle = self.now_ms().saturating_sub(stamp.load(Ordering::Acquire));
        Duration::from_millis(idle) // lint: allow(duration): unit conversion of a timestamp delta, not a timeout constant
    }

    /// Read on to the next frame for the owner: beacons consumed, CRC
    /// and version rejects and unresolvable descriptors dropped as
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
            self.last_rx_ms.store(self.now_ms(), Ordering::Release);
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

    /// Beacon if this end's last frame left a heartbeat interval ago or
    /// more — unless a send holds the writer, or the socket is full:
    /// either way our frames are on their way. How long until the next
    /// beacon is due; `None` for a connection that does not beacon.
    fn beacon(&self) -> Option<Duration> {
        let interval = self.heartbeat?.heartbeat_interval();
        let idle = self.since(&self.last_tx_ms);
        if idle < interval {
            return Some(interval - idle);
        }
        if let Some(mut w) = self.writer.try_lock().ok().filter(|w| !w.broken) {
            let (prefix, crc) = envelope(&Frame::control(FrameKind::Heartbeat, self.me, 0, 0));
            match w.stream.write_vectored(&[IoSlice::new(&prefix), IoSlice::new(&crc)]) {
                Ok(n) if n == PREFIX_LEN + 4 => {
                    self.last_tx_ms.store(self.now_ms(), Ordering::Release)
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {}
                // A frame this small goes onto a Unix stream socket
                // whole or not at all; a part of one, or an error,
                // leaves the stream unusable.
                _ => w.broken = true,
            }
        }
        Some(interval)
    }
}

/// `write_all` over several slices: one `writev` per pass, resuming
/// mid-slice after a partial write, and waiting for room on `conn`
/// whenever the socket is full.
fn write_all_vectored(
    stream: &mut UnixStream,
    mut bufs: &mut [IoSlice<'_>],
    conn: &PeerConn,
) -> std::io::Result<()> {
    while !bufs.is_empty() {
        match stream.write_vectored(bufs) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut bufs, n),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock => conn.await_room()?,
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Run `write` on the link's write half under its lock, stamping the
/// last-sent clock when it succeeds. A failure marks the half broken.
fn write_locked(
    link: &Link,
    write: impl FnOnce(&mut WriteHalf) -> std::io::Result<()>,
) -> Result<(), WireError> {
    // Poisoned: a write panicked mid-frame and may have torn the
    // stream, so the half is broken.
    let mut w = link.writer.lock().unwrap_or_else(|torn| {
        let mut w = torn.into_inner();
        w.broken = true;
        w
    });
    if w.broken {
        return Err(WireError::PeerGone);
    }
    write(&mut w).map(|()| link.last_tx_ms.store(link.now_ms(), Ordering::Release)).map_err(|_| {
        w.broken = true;
        WireError::PeerGone
    })
}

/// Put one frame on the wire: `[len + header] [payload] [crc]`, the
/// payload borrowed where it lies (a slot's included: a resend of a
/// lane frame goes inline). Header and CRC are computed before the lock
/// is taken; only the write itself serializes. A payload-less frame is
/// one contiguous write.
fn send_frame(conn: &PeerConn, frame: &Frame) -> Result<(), WireError> {
    let (prefix, crc) = envelope(frame);
    let payload = frame.bytes();
    write_locked(&conn.link, |w| {
        if payload.is_empty() {
            let mut whole = [0u8; PREFIX_LEN + 4];
            whole[..PREFIX_LEN].copy_from_slice(&prefix);
            whole[PREFIX_LEN..].copy_from_slice(&crc);
            write_all_vectored(&mut w.stream, &mut [IoSlice::new(&whole)], conn)
        } else {
            let mut parts = [IoSlice::new(&prefix), IoSlice::new(payload), IoSlice::new(&crc)];
            write_all_vectored(&mut w.stream, &mut parts, conn)
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
fn send_slot(conn: &PeerConn, frame: &Frame, slot: &Slot, seg_fd: RawFd) -> Result<(), WireError> {
    let desc = slot.descriptor(faults::crc32_bytes(slot.bytes()));
    let (prefix, crc) = slot_envelope(frame, &desc);
    slot.pin();
    let sent = write_locked(&conn.link, |w| {
        if w.announced {
            let mut parts = [IoSlice::new(&prefix), IoSlice::new(&desc), IoSlice::new(&crc)];
            return write_all_vectored(&mut w.stream, &mut parts, conn);
        }
        write_all_vectored(&mut w.stream, &mut [IoSlice::new(&prefix)], conn)?;
        let mut parts = [IoSlice::new(&desc), IoSlice::new(&crc)];
        let n = loop {
            match sys::send_with_fd(&w.stream, &parts, seg_fd) {
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => conn.await_room()?,
                sent => break sent?,
            }
        };
        w.announced = true;
        let mut rest = &mut parts[..];
        IoSlice::advance_slices(&mut rest, n);
        write_all_vectored(&mut w.stream, rest, conn)
    });
    if sent.is_err() {
        slot.unpin();
    }
    sent
}

/// See the module docs.
#[derive(Debug)]
pub struct PeerConn {
    link: Arc<Link>,
    /// The set this connection's waits progress.
    set: Arc<Set>,
    /// This end's half of the bulk lane: the segment it sends through.
    lane: SendLane,
}

impl PeerConn {
    /// Wrap an established stream to original rank `peer`, making it
    /// non-blocking, as a member of `set`. With a `heartbeat` policy
    /// the set's waits beacon on it, and a send to it gives up on the
    /// policy's silence bound.
    pub(crate) fn open(
        peer: usize,
        self_rank: usize,
        stream: UnixStream,
        pool: Arc<BufPool>,
        heartbeat: Option<RetryPolicy>,
        set: &Arc<Set>,
    ) -> std::io::Result<Self> {
        // The flag is the socket's, shared by the clone below.
        stream.set_nonblocking(true)?;
        let read = FdReader::new(stream.try_clone()?);
        let link = Arc::new(Link {
            peer,
            me: self_rank as u16,
            fd: read.raw_fd(),
            state: Mutex::new(ReadState {
                stream: read,
                frame: PartialFrame::default(),
                buf: Vec::new(),
                lane: RecvLane::default(),
                early: VecDeque::with_capacity(EARLY_CAPACITY),
                ended: false,
            }),
            writer: Mutex::new(WriteHalf { stream, broken: false, announced: false }),
            pool,
            heartbeat,
            epoch: Instant::now(),
            last_rx_ms: AtomicU64::new(0),
            last_tx_ms: AtomicU64::new(0),
        });
        set.lock().links.push(Arc::clone(&link));
        Ok(PeerConn { link, set: Arc::clone(set), lane: SendLane::default() })
    }

    /// A standalone connection, the only one of its set, with its own
    /// private buffer pool — for control streams that are not part of
    /// a [`SocketMesh`].
    ///
    /// [`SocketMesh`]: crate::mesh::SocketMesh
    pub fn solo(
        peer: usize,
        self_rank: usize,
        stream: UnixStream,
        heartbeat: Option<RetryPolicy>,
    ) -> std::io::Result<Self> {
        PeerConn::open(peer, self_rank, stream, BufPool::new(), heartbeat, &Set::new(false))
    }

    /// [`PeerConn::solo`], a member of `inbox`'s set and read by it (its
    /// arrivals tagged `peer`) instead of by itself: the owner receives
    /// from the inbox, and this connection's own
    /// [`PeerConn::recv_timeout`] never yields a frame.
    pub fn solo_into(
        peer: usize,
        self_rank: usize,
        stream: UnixStream,
        heartbeat: Option<RetryPolicy>,
        inbox: &Inbox,
    ) -> std::io::Result<Self> {
        PeerConn::open(peer, self_rank, stream, BufPool::new(), heartbeat, &inbox.0)
    }

    pub fn peer(&self) -> usize {
        self.link.peer
    }

    /// Write one frame: its descriptor when its payload is a slot of
    /// this connection's lane that has not been announced yet
    /// ([`send_slot`]), else the whole frame ([`send_frame`]). A write
    /// that finds the socket full waits by the progress rule. A write
    /// error, or the peer's silence past the death threshold while the
    /// write waits, marks the connection broken (the peer is gone; Rust
    /// ignores SIGPIPE, so a dead reader surfaces as `BrokenPipe` here).
    pub fn send(&self, frame: &Frame) -> Result<(), WireError> {
        if let Some(slot) = &frame.slot {
            if let Some(seg_fd) = self.lane.segment_of(slot) {
                if slot.announce() {
                    return send_slot(self, frame, slot, seg_fd);
                }
            }
        }
        send_frame(self, frame)
    }

    /// Wait until the socket can take more bytes or frames arrive on
    /// any connection of the set, and read those that do — the peer may
    /// be blocked writing to us, or to a rank that is blocked writing
    /// to us, and only our reading lets its write, and so ours,
    /// through. Fails once the peer has been silent past the death
    /// threshold.
    fn await_room(&self) -> std::io::Result<()> {
        self.set.lock().progress(self.set.fed, None, Some(&self.link), None)?;
        match self.link.heartbeat {
            Some(policy) if self.link.since(&self.link.last_rx_ms) > policy.death_threshold() => {
                Err(ErrorKind::TimedOut.into())
            }
            _ => Ok(()),
        }
    }

    /// A send buffer of exactly `len` bytes for a payload to this peer:
    /// a slot of the bulk lane when `len` is in the lane's range and the
    /// ring has room, else a buffer from the pool.
    pub fn lease(&self, len: usize) -> Lease {
        match self.lane.lease(len) {
            Some(slot) => Lease::Slot(slot),
            None => Lease::heap(self.link.pool.acquire(), len),
        }
    }

    /// Next frame, waiting up to `timeout`, read on this thread: frames
    /// a wait already read come first, then the socket is read on, and
    /// whenever it runs dry the set is waited on by the progress rule.
    /// A connection read by an [`Inbox`] has nothing to receive here
    /// and says `Timeout` at once.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Frame, WireError> {
        if self.set.fed {
            return Err(WireError::Timeout);
        }
        let link = &*self.link;
        let deadline = Instant::now().checked_add(timeout);
        loop {
            let mut st = link.lock();
            if let Some(frame) = st.early.pop_front().or_else(|| link.next(&mut st)) {
                return Ok(frame);
            }
            if st.ended {
                return Err(WireError::PeerGone);
            }
            // Released first: a wait whose poll fails reads this
            // connection too, and ends it — the next pass says so.
            drop(st);
            let wait = remaining(deadline)?;
            let _ = self.set.lock().progress(false, Some(link), None, wait);
        }
    }

    /// How long since the peer was last heard from (any frame kind) —
    /// as of the last read of this connection, which is what a caller
    /// that has just tried to receive wants.
    pub fn silence(&self) -> Duration {
        self.link.since(&self.link.last_rx_ms)
    }

    /// Return a payload buffer to this connection's pool.
    pub fn release(&self, payload: Vec<u8>) {
        self.link.pool.release(payload);
    }
}

impl Drop for PeerConn {
    fn drop(&mut self) {
        self.set.lock().links.retain(|l| !Arc::ptr_eq(l, &self.link));
        // Shut the socket down so the peer sees EOF whatever else still
        // holds it.
        let w = self.link.writer.lock().unwrap_or_else(PoisonError::into_inner);
        let _ = w.stream.shutdown(std::net::Shutdown::Both);
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
    read_frame(stream, &mut Vec::new())?.map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e))
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
        let left = PeerConn::solo(1, 0, a, None).unwrap();
        let right = PeerConn::solo(0, 1, b, None).unwrap();
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
        let left = PeerConn::solo(1, 0, a, None).unwrap();
        let right = PeerConn::solo(0, 1, b, None).unwrap();
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
        let left = PeerConn::solo(1, 0, a, None).unwrap();
        let right = PeerConn::solo(0, 1, b, None).unwrap();
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
        assert!(conn_a.set.fed && !far_a.set.fed);
        conn_a.send(&Frame::control(FrameKind::Start, 9, 0, 0)).unwrap();
        assert_eq!(far_a.recv_timeout(wait).unwrap().kind, FrameKind::Start);
    }

    /// One end waits in a receive for ten heartbeat intervals and hears
    /// nothing: that wait beacons, so the other end's silence stays
    /// within two intervals throughout and no beacon surfaces. Once the
    /// wait is over the end is silent, though its connection is open.
    #[test]
    fn a_waiting_receive_beacons_and_no_beacon_surfaces() {
        let policy = RetryPolicy { base: Duration::from_millis(100), ..policy_fast() };
        let interval = policy.heartbeat_interval();
        let (a, b) = pair();
        let waiting = PeerConn::solo(1, 0, a, Some(policy)).unwrap();
        let watching = PeerConn::solo(0, 1, b, None).unwrap();
        std::thread::scope(|s| {
            let waits = s.spawn(|| waiting.recv_timeout(interval * 10));
            while !waits.is_finished() {
                let got = watching.recv_timeout(interval / 4);
                assert_eq!(got, Err(WireError::Timeout), "a beacon never surfaces");
                let silence = watching.silence();
                assert!(silence <= interval * 2, "silence {silence:?} while the peer waits");
            }
            assert_eq!(waits.join().unwrap(), Err(WireError::Timeout));
        });
        assert_eq!(watching.recv_timeout(interval * 3), Err(WireError::Timeout));
        assert!(watching.silence() > interval * 2, "an end that does not wait is silent");
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
