//! Byte-stream transport for the collective schedules.
//!
//! One abstraction — [`Wire`] — with two backends, so the one rank body
//! (`collectives::PeerExecutor`) runs unchanged between rank *threads*
//! and between rank *processes*:
//!
//! * [`channel::ChannelWire`] — in-process, frames pass by value over
//!   `std::sync::mpsc` channels. Zero serialization; the backend of every
//!   threaded collective and of the protocol unit tests.
//! * [`mesh::SocketMesh`] — Unix-domain sockets, one full-duplex stream
//!   per peer pair, every message a length-prefixed CRC32-tailed
//!   [`frame::Frame`]. A receive reads and decodes its connection's
//!   socket on the caller's thread. Every blocking wait — a receive
//!   whose socket runs dry, a send that finds it full — `poll(2)`s all
//!   of the rank's connections, reads every arrival, and beacons
//!   liveness on each connection it has not written to for a heartbeat
//!   interval (MPI's progress inside the call); the crate runs no
//!   thread. Payload buffers are pooled so steady-state exchange
//!   allocates nothing. No payload
//!   is copied in user space on either side: a send is one vectored
//!   write that borrows the payload, a receive reads the payload off the
//!   socket into the buffer the frame will own and checksums it there. A
//!   payload of [`BULK_MIN`] bytes or more that was encoded into a
//!   [`Wire::lease`] does not cross the socket at all: it sits in a
//!   slot of a shared-memory segment the peer has mapped, and the
//!   socket carries only its descriptor ([`lane`], the bulk lane).
//!
//! Death detection is two-signal: a SIGKILLed peer's socket returns EOF
//! (fast path), and a peer that stops waiting — a stopped process, or a
//! rank body wedged in its own code — trips the
//! [`faults::RetryPolicy::death_threshold`] silence bound (slow path),
//! since a rank beacons only from its waits. Both are seen at the
//! owner's next wait: what arrives while it computes waits in the
//! kernel's socket buffer.
//! Every timeout in the crate derives from [`faults::RetryPolicy`] and
//! sleeps route through [`faults::FaultClock`] — `xtask lint` bans bare
//! `thread::sleep` and hard-coded `Duration` literals here (rule 7).
//!
//! The crate knows nothing about schedules or reduction: it moves
//! frames. The reliability protocol (seq/ack/nack/resend/dedup) has
//! one implementation, `collectives::exec_peer`, which executes above
//! this crate identically over both backends; fault injection is a
//! [`Wire`] decorator (`collectives::FaultWire`), not a backend. A
//! worker's control stream to its coordinator is a [`PeerConn`],
//! between processes and between threads alike (a `socketpair` with no
//! beacon, in-process). A worker's control connection joins its mesh's set
//! ([`Joined::build_mesh`]), and the coordinator reads every one through
//! one [`Inbox`], which is the coordinator's set. What travels on it —
//! votes, verdicts, telemetry snapshots — is the sender's to write;
//! the waits add only beacons.

pub mod channel;
pub mod conn;
pub mod frame;
pub mod lane;
pub mod mesh;
pub mod rendezvous;
mod sys;

use std::time::Duration;

pub use channel::ChannelWire;
pub use conn::{connect_with_backoff, read_frame_blocking, write_frame_blocking, Inbox, PeerConn};
pub use frame::{
    encode, encode_into, parse_body, read_frame, reference_decode, DedupWindow, Frame, FrameError,
    FrameKind, Offer, PartialFrame, HEADER_LEN, MAX_FRAME_LEN,
};
pub use lane::{Lease, Slot, SlotMut, BULK_MIN};
pub use mesh::SocketMesh;
pub use rendezvous::{join, Joined, Rendezvous, Welcome, WorkerHello, COORD_SOCK};

/// Why a wire operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// No frame arrived within the timeout (the peer may be slow, dead,
    /// or the frame lost — the caller's retry policy decides).
    Timeout,
    /// The peer's stream is gone: every queued frame has been drained
    /// and the connection reported EOF or a write error.
    PeerGone,
    /// The target is not a peer of this wire (unknown original id, or
    /// a send to self).
    NoSuchPeer(usize),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Timeout => write!(f, "receive timed out"),
            WireError::PeerGone => write!(f, "peer connection closed"),
            WireError::NoSuchPeer(id) => write!(f, "no connection to rank {id}"),
        }
    }
}

impl std::error::Error for WireError {}

/// A full mesh of reliable, ordered frame links between this rank and
/// its peers. Peers are addressed by **original (world) rank id** —
/// the addressing survives renumbering after deaths, exactly
/// like the trainer's data sharding does.
pub trait Wire: Send + Sync {
    /// This rank's original id.
    fn rank(&self) -> usize;

    /// Original ids of every rank in the initial world (including self
    /// and any peers that have since died), ascending.
    fn world_ids(&self) -> &[usize];

    /// Queue `frame` to `peer`. Ordered and reliable while the peer
    /// lives; [`WireError::PeerGone`] once its stream is closed.
    fn send(&self, peer: usize, frame: &Frame) -> Result<(), WireError>;

    /// Next frame from `peer`, waiting up to `timeout`. Queued frames
    /// are always drained before [`WireError::PeerGone`] is reported,
    /// so a peer's parting sends are never lost to its death.
    fn recv_timeout(&self, peer: usize, timeout: Duration) -> Result<Frame, WireError>;

    /// How long since *any* frame (heartbeats included) arrived from
    /// `peer`. The heartbeat death bound compares this against
    /// [`faults::RetryPolicy::death_threshold`].
    fn silence(&self, peer: usize) -> Duration;

    /// Return a frame payload buffer to the backend's pool. Callers
    /// that recycle every received payload keep the steady state
    /// allocation-free on both backends.
    fn release(&self, payload: Vec<u8>);

    /// A send buffer of exactly `len` bytes for a payload to `peer`, to
    /// be filled and sealed into a frame with [`Frame::carrying`]: a
    /// buffer from the backend's pool (back there through
    /// [`Wire::release`] once the frame is done with), or — on a socket
    /// wire, for a payload of at least [`BULK_MIN`] bytes — a slot of
    /// the connection's bulk lane, released when the frame is dropped.
    fn lease(&self, peer: usize, len: usize) -> Lease;

    /// The executor is about to run `round` of `step`'s schedule. A
    /// backend ignores it; a fault-injecting decorator keys its
    /// round-entry injections (straggle, crash) on it, so they fire
    /// even in rounds where this rank only receives. `false` ⇔ this
    /// endpoint was killed: the executor stops without touching the
    /// wire again.
    fn enter_round(&self, _step: u32, _round: u32) -> bool {
        true
    }
}
