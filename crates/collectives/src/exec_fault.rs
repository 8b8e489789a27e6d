//! Fault injection for the one rank body: drops, corruptions,
//! stragglers, and crashes from a seeded [`FaultPlan`], put on the link
//! beneath [`exec_peer`](crate::exec_peer) and survived by its
//! reliability protocol.
//!
//! # One protocol, one decorator
//!
//! Nothing here executes a schedule or re-implements reliability.
//! [`FaultWire`] wraps one rank's [`Wire`] endpoint; the
//! [`PeerExecutor`](crate::exec_peer::PeerExecutor) above it runs
//! unchanged. It is generic over the wire it wraps, so the same seeded
//! plan can be pointed at an in-process
//! [`ChannelWire`](transport::ChannelWire) mesh (the threaded trainer's
//! chaos runs) or at the real socket path. It injects on the link:
//!
//! * **drop** — the first transmission of the round's data frames is
//!   swallowed; the receiver's deadline nacks it and the sender's clean
//!   buffered copy repairs it;
//! * **corrupt** — the frame is encoded (a bulk-lane frame's slot
//!   bytes included), one payload bit is flipped, and the production
//!   decoder ([`parse_body`]) rejects it on its CRC, exactly as a
//!   socket reader would: corruption becomes loss;
//! * **straggle** — the rank's round entry is delayed on the session's
//!   [`FaultClock`];
//! * **crash** — the rank refuses the round: its executor returns
//!   [`PeerExecError::Aborted`](crate::PeerExecError::Aborted) with
//!   nothing asked of its control stream, and whoever runs the rank
//!   hangs it up — its wire and its control stream — exactly as a
//!   SIGKILL closes a process's sockets.
//!
//! Resends always pass clean, which is why the *numeric result under
//! recoverable faults is bit-identical to the fault-free run*. What a
//! death does to a training run — the coordinator's `Degrade`, the
//! snapshot restore, the re-verified schedule — is the trainer's commit
//! protocol, the same for threads and processes.

use std::sync::{Mutex, PoisonError};
use std::time::Duration;

use faults::{
    EventLog, FaultClock, FaultCounterSnapshot, FaultEvent, FaultKind, FaultPlan, RetryPolicy,
    SendFault,
};
use trace::Lane;
use transport::{encode_into, parse_body, Frame, FrameKind, Lease, Wire, WireError};

use crate::exec_thread::ExecTrace;

/// Everything one fault-aware run (or one training run of many steps)
/// shares: the plan, the retry policy, the delay clock, and the
/// observability sinks. Cheap to share by reference across rank
/// threads; injections key on the step each frame carries.
#[derive(Debug, Default)]
pub struct FaultSession {
    plan: FaultPlan,
    policy: RetryPolicy,
    clock: FaultClock,
    events: EventLog,
    /// Trace lanes keyed by *original* rank id (the ids the plan and
    /// the event log speak), so a rank keeps its trace row across
    /// degradations. `None` ⇔ the fault path runs untraced.
    trace: Option<ExecTrace>,
}

impl FaultSession {
    /// A session around `plan` with default policy and a virtual clock
    /// (injected delays are accounted, not slept).
    pub fn new(plan: FaultPlan) -> Self {
        FaultSession { plan, ..Default::default() }
    }

    /// Override the retry policy.
    pub fn with_policy(mut self, policy: RetryPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Attach trace lanes (keyed by original rank id): every rank
    /// thread records SEND/RECV spans, RETRY events for the resend
    /// machinery, and FAULT events for the injections it suffers.
    pub fn with_trace(mut self, trace: ExecTrace) -> Self {
        self.trace = Some(trace);
        self
    }

    pub fn trace(&self) -> Option<&ExecTrace> {
        self.trace.as_ref()
    }

    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    pub fn policy(&self) -> RetryPolicy {
        self.policy
    }

    pub fn clock(&self) -> &FaultClock {
        &self.clock
    }

    pub fn events(&self) -> &EventLog {
        &self.events
    }

    /// How many events of each kind the session has logged.
    pub fn counts(&self) -> FaultCounterSnapshot {
        self.events.counts()
    }

    /// Log `event`: the session's one store.
    pub fn record(&self, event: FaultEvent) {
        self.events.push(event);
    }

    /// The handle rank `rank` (original id) reports through: this
    /// session's event log, plus the rank's trace lane when tracing is
    /// on.
    pub fn sink(&self, rank: usize) -> FaultSink<'_> {
        FaultSink { session: Some(self), lane: self.trace().and_then(|t| t.lane(rank)).cloned() }
    }
}

/// One rank's observability sinks — what [`FaultWire`] reports
/// injections through and what a
/// [`PeerExecutor`](crate::exec_peer::PeerExecutor) reports its spans
/// and recovery actions through: a [`FaultSession`]'s event log, a
/// trace lane, or both.
#[derive(Debug)]
pub struct FaultSink<'s> {
    session: Option<&'s FaultSession>,
    lane: Option<Lane>,
}

impl FaultSink<'_> {
    /// A sink that only draws spans: what a plain traced run attaches,
    /// having a lane but no event log to feed.
    pub fn lane_only(lane: Lane) -> FaultSink<'static> {
        FaultSink { session: None, lane: Some(lane) }
    }

    /// Mark (on the lane, if traced, with args `a0`/`a1`) and log one
    /// injection or recovery action.
    pub(crate) fn note(&self, a0: u64, a1: u64, event: FaultEvent) {
        if let Some(l) = &self.lane {
            let cat = match event {
                FaultEvent::Injected { .. } | FaultEvent::PeerDead { .. } => "FAULT",
                _ => "RETRY",
            };
            l.record_args(cat, event.name(), l.now_us(), 0.0, a0, a1);
        }
        if let Some(session) = self.session {
            session.record(event);
        }
    }

    /// Lane time now — the start stamp of a [`FaultSink::span`].
    pub(crate) fn now_us(&self) -> Option<f64> {
        self.lane.as_ref().map(Lane::now_us)
    }

    /// Record a span begun at `t0` (no-op untraced).
    pub(crate) fn span(
        &self,
        cat: &'static str,
        name: &'static str,
        t0: Option<f64>,
        a0: u64,
        a1: u64,
    ) {
        if let (Some(l), Some(t0)) = (&self.lane, t0) {
            l.record_args(cat, name, t0, l.now_us() - t0, a0, a1);
        }
    }
}

/// What [`FaultWire`] remembers about its outgoing links.
#[derive(Debug, Default)]
struct LinkState {
    /// Per peer: the `(era, seq)` the next *first* transmission will
    /// carry. Anything below it is a resend and passes clean.
    fresh: Vec<(u32, u64)>,
    /// The `(era, step, round)` whose send fault has been logged — one
    /// `Injected` event per round, however many frames it sends.
    announced: Option<(u32, u32, u32)>,
    /// Encode target for the corruption path.
    encoded: Vec<u8>,
}

/// A [`Wire`] decorator that injects `session`'s plan into the link
/// beneath a [`PeerExecutor`](crate::exec_peer::PeerExecutor) (see the
/// module docs for the four injections). It borrows the wire it wraps,
/// which outlives it, and the plan addresses ranks by that wire's
/// original ids.
pub struct FaultWire<'s, W: Wire + ?Sized> {
    inner: &'s W,
    session: &'s FaultSession,
    sink: FaultSink<'s>,
    link: Mutex<LinkState>,
}

impl<'s, W: Wire + ?Sized> FaultWire<'s, W> {
    pub fn new(inner: &'s W, session: &'s FaultSession) -> Self {
        let slots = inner.world_ids().iter().copied().max().map_or(0, |m| m + 1);
        let sink = session.sink(inner.rank());
        let link = Mutex::new(LinkState { fresh: vec![(0, 0); slots], ..Default::default() });
        FaultWire { inner, session, sink, link }
    }

    fn injected(&self, step: usize, round: usize, kind: FaultKind, arg: u64) {
        let me = self.inner.rank();
        self.sink.note(me as u64, arg, FaultEvent::Injected { step, rank: me, round, kind });
    }
}

impl<W: Wire + ?Sized> Wire for FaultWire<'_, W> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn world_ids(&self) -> &[usize] {
        self.inner.world_ids()
    }

    fn send(&self, peer: usize, frame: &Frame) -> Result<(), WireError> {
        if frame.kind != FrameKind::Data {
            return self.inner.send(peer, frame);
        }
        // Poisoned: a send panicked mid-update, and its rank's run is
        // failing anyway; the seq marks it left only ever grow.
        let mut guard = self.link.lock().unwrap_or_else(PoisonError::into_inner);
        let link = &mut *guard;
        let fresh = &mut link.fresh[peer];
        if (frame.era, frame.seq) < *fresh {
            return self.inner.send(peer, frame); // a resend: always clean
        }
        *fresh = (frame.era, frame.seq + 1);
        let (step, round) = (frame.step as usize, frame.round as usize);
        let plan = self.session.plan();
        let Some(fault) = plan.send_fault(step, self.inner.rank(), round) else {
            return self.inner.send(peer, frame);
        };
        let site = Some((frame.era, frame.step, frame.round));
        if link.announced != site {
            link.announced = site;
            let kind = match fault {
                SendFault::Drop => FaultKind::Drop,
                SendFault::Corrupt => FaultKind::Corrupt,
            };
            self.injected(step, round, kind, round as u64);
        }
        if fault == SendFault::Corrupt {
            // Flip the last bit ahead of the CRC tail and let the
            // production decoder judge the bytes.
            encode_into(frame, &mut link.encoded);
            let at = link.encoded.len() - 5;
            link.encoded[at] ^= 1;
            match parse_body(&link.encoded[4..], Vec::new()) {
                Err(_) => self.sink.note(
                    peer as u64,
                    frame.seq,
                    FaultEvent::CrcReject {
                        step,
                        rank: peer,
                        peer: self.inner.rank(),
                        round,
                        seq: frame.seq,
                    },
                ),
                Ok(_) => unreachable!("CRC32 detects every single-bit error"),
            }
        }
        Ok(()) // dropped, or rejected at decode: either way the frame is lost
    }

    fn recv_timeout(&self, peer: usize, timeout: Duration) -> Result<Frame, WireError> {
        self.inner.recv_timeout(peer, timeout)
    }

    fn silence(&self, peer: usize) -> Duration {
        self.inner.silence(peer)
    }

    fn release(&self, payload: Vec<u8>) {
        self.inner.release(payload);
    }

    fn lease(&self, peer: usize, len: usize) -> Lease {
        self.inner.lease(peer, len)
    }

    fn enter_round(&self, step: u32, round: u32) -> bool {
        let (s, r) = (step as usize, round as usize);
        let (me, plan) = (self.inner.rank(), self.session.plan());
        if plan.crashes_at(s, me, r) {
            self.injected(s, r, FaultKind::Crash, round as u64);
            return false;
        }
        if let Some(delay) = plan.straggle(s, me, r) {
            let millis = delay.as_millis() as u64;
            self.injected(s, r, FaultKind::Straggle { millis }, millis);
            self.session.clock().inject(delay);
        }
        self.inner.enter_round(step, round)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faults::Injection;
    use transport::ChannelWire;

    /// The decorator's one piece of state: a first transmission is
    /// faulted, the same `(era, seq)` again is a resend and passes, and
    /// a new era's seq 0 is a first transmission again.
    #[test]
    fn fault_wire_faults_first_transmissions_only() {
        let plan = FaultPlan::explicit(
            0,
            vec![Injection { step: 3, rank: 0, round: 1, kind: FaultKind::Drop }],
        );
        let session = FaultSession::new(plan);
        let mesh = ChannelWire::mesh(2);
        let (tx, rx) = (FaultWire::new(&mesh[0], &session), &mesh[1]);
        let mut f = Frame::control(FrameKind::Data, 0, 0, 3);
        f.round = 1;
        let tick = Duration::from_millis(20);
        tx.send(1, &f).unwrap();
        assert_eq!(rx.recv_timeout(0, tick), Err(WireError::Timeout), "first send is dropped");
        tx.send(1, &f).unwrap();
        assert_eq!(rx.recv_timeout(0, tick), Ok(f.clone()), "the resend passes clean");
        f.era = 1;
        tx.send(1, &f).unwrap();
        assert_eq!(rx.recv_timeout(0, tick), Err(WireError::Timeout), "new era, new first send");
        f.round = 0;
        f.seq = 1;
        tx.send(1, &f).unwrap();
        assert_eq!(rx.recv_timeout(0, tick), Ok(f), "no injection on this round");
        assert_eq!(session.counts().injected_drops, 2);
    }
}
