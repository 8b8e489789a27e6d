//! Single-rank schedule execution over a [`transport::Wire`]: the one
//! rank body in the crate. Every path that moves real data through a
//! verified [`Schedule`] runs it — between rank threads
//! ([`ChannelWire`](transport::ChannelWire), driven by
//! [`ExecContext`](crate::exec_thread::ExecContext) or by the trainer's
//! rank body, with or without a fault plan) and between separate OS
//! processes ([`SocketMesh`](transport::SocketMesh), driven by the same
//! rank body) — so back-ends differ only below `Wire`, and the
//! reliability protocol (seq/ack/nack/resend/dedup) and the gradient
//! codec stage each have one implementation.
//!
//! # The protocol
//!
//! [`PeerExecutor`] is the body of a single rank — Phase A
//! snapshot-and-send, Phase B validated in-order receive-and-apply —
//! under one reliability discipline: per-peer sequence numbers, every
//! sent frame kept as its own resend copy until its ack (its payload in
//! the buffer or bulk-lane slot it was encoded into), nacks on deadline
//! expiry with exponential backoff ([`RetryPolicy`]), CRC-rejected
//! frames surfacing as loss (the wire drops them at decode), and a
//! [`DedupWindow`] that discards duplicates idempotently and re-orders
//! early arrivals. Injected faults touch only what crosses the wire —
//! the kept frame always holds clean bytes — and the applied payloads
//! and the per-rank combine order are exactly those of the schedule,
//! so the result under faults is bit-identical to the in-process
//! executors' fault-free one. That is the parity the chaos suites and
//! the multi-process integration tests assert.
//!
//! # Payload bytes
//!
//! Every outgoing payload is encoded once, straight into a send buffer
//! leased from the wire ([`Wire::lease`]): a buffer from the wire's one
//! pool, or — on a socket wire, for a payload of at least
//! [`transport::BULK_MIN`] bytes — a slot of the connection's
//! shared-memory bulk lane, whose bytes the peer reads where they lie.
//! The sent frame keeps the lease until its ack. Without a codec
//! ([`CodecKind::None`]) the executor then touches each payload byte
//! twice: that encode (a bulk copy of the segment's little-endian f32s)
//! and one pass of the reduction kernel reading the f32s straight out
//! of the received frame's bytes, in a pooled buffer or in the peer's
//! slot. With one ([`PeerExecutor::with_codec`]) the encode is the
//! codec's, so the bytes on the wire (and in [`WireStats::data_bytes`])
//! are exactly `encoded_len` — and the receiver decodes into one reused
//! f32 stage before the same reduction kernel. Lossy codecs re-quantise
//! per hop, so a coded allreduce is approximate, but it is
//! bit-deterministic: the codecs are CPU-independent and the schedule
//! fixes every combine order. Error feedback stays with the caller.
//!
//! # Streams multiplex data and control
//!
//! A wire gives us one full-duplex stream per peer, so data, acks, and
//! nacks interleave on it. Every receive demultiplexes: acks release the
//! kept frames, nacks answer with the kept frame, data goes through
//! the era filter and the dedup window, and in-order deliveries queue
//! per peer until the schedule asks for them (a frame from peer Q can
//! land while Phase B is blocked on peer P).
//!
//! # Eras
//!
//! A degradation renumbers the world; the frame `era` field keeps
//! pre- and post-degrade traffic apart. Frames below the current era
//! are stale and dropped; frames above it are stashed and replayed once
//! [`PeerExecutor::bump_era`] resets the sequence space (a survivor
//! that processed the degrade first may already be sending in the new
//! era). Within an era, sequence numbers run continuously across
//! steps — they reset *only* on era bumps.
//!
//! # Death
//!
//! Two signals, both mapped to [`PeerExecError::PeerDead`]: the wire
//! reports [`WireError::PeerGone`] (EOF after draining — the kernel
//! closes a SIGKILLed process's sockets, a crashed rank thread hangs
//! up its channel senders), or the peer's [`Wire::silence`] exceeds
//! [`RetryPolicy::death_threshold`] while we starve (wedged-but-open).
//! The caller — the trainer's rank body, on its coordinator's
//! `Degrade` — restores its snapshot, rebuilds the schedule over the
//! survivors, re-verifies it, and retries.
//! Death is reported where it costs something: by the receive that
//! still awaits the peer's data, or the first transmission that has
//! data to give it. An ack, nack or resend that a closed stream
//! refuses is dropped silently — its addressee is past needing it (a
//! peer that completed its last step hangs up while our re-ack of a
//! duplicate is still in flight), and a channel wire never refuses one.
//!
//! # Observability
//!
//! The per-frame path counts into [`WireStats`] and nothing else. A
//! [`FaultSink`] ([`PeerExecutor::with_sink`]) adds, when it carries a
//! trace lane, one SEND span per transmission (resends included) and
//! one RECV span per applied frame — `a0` the peer, `a1` the payload
//! bytes that crossed the wire, which is what
//! `trace::critical_path::Breakdown::wire_bytes` sums — and, when it
//! carries a fault session, the cold branches — deadline → nack,
//! resend, duplicate re-ack, peer death — count themselves into the
//! session's counters and event log.

use std::collections::VecDeque;
use std::time::Duration;

use faults::{FaultEvent, RetryPolicy};
use transport::{DedupWindow, Frame, FrameKind, Lease, Offer, Wire, WireError};

use crate::compression::{codec_for, CodecKind, EncodeScratch};
use crate::exec_fault::FaultSink;
use crate::reduce::{combine, finalize, ReduceOp};
use crate::sched::{Action, Schedule};

/// What the control-plane poll (checked once per timeout tick while
/// blocked) tells the executor to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtlSignal {
    /// Keep waiting.
    Continue,
    /// Abort the collective now (a degrade was announced out-of-band);
    /// the run returns [`PeerExecError::Aborted`] with partial buffers.
    Abort,
}

/// Why a peer-executed collective stopped short.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PeerExecError {
    /// Peers died (stream EOF or heartbeat silence past the death
    /// threshold). Reported as **original** rank ids — the wire's
    /// addressing — unlike `ExecError::RanksDead`'s local indices.
    PeerDead { dead: Vec<usize> },
    /// The retry budget ran out on a peer that still looks alive.
    RetriesExhausted { peer: usize, round: usize },
    /// The control poll demanded an abort mid-collective, or the wire
    /// refused a round ([`Wire::enter_round`]: this endpoint was
    /// killed).
    Aborted,
}

impl std::fmt::Display for PeerExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PeerExecError::PeerDead { dead } => write!(f, "peers dead: {dead:?}"),
            PeerExecError::RetriesExhausted { peer, round } => {
                write!(f, "retries exhausted on live peer {peer} in round {round}")
            }
            PeerExecError::Aborted => write!(f, "aborted by control signal"),
        }
    }
}

impl std::error::Error for PeerExecError {}

/// Cumulative reliability-layer statistics for one executor: what the
/// rank body reads into every telemetry snapshot it ships (§5j).
/// All counters are totals since construction; eras do not reset them.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WireStats {
    /// Data frames first-sent (resends not included).
    pub data_frames: u64,
    /// Payload bytes put on the wire, resends included.
    pub data_bytes: u64,
    /// Nacks this executor sent (receive deadlines that fired).
    pub nacks_sent: u64,
    /// Resends this executor answered.
    pub resends: u64,
    /// Data frames first-sent with their payload in a bulk-lane slot
    /// (a subset of `data_frames`).
    pub lane_frames: u64,
}

/// Everything a [`PeerExecutor`] owns, apart from its borrow of the
/// wire: what [`PeerExecutor::park`] hands back so the holder of a
/// long-lived mesh ([`ExecContext`](crate::exec_thread::ExecContext))
/// can keep the queues, resend buffers and codec scratch — all sized by
/// the world and the payload — across collectives. All vectors are
/// indexed by **original** rank id.
#[derive(Debug, Default)]
pub(crate) struct PeerState {
    policy: RetryPolicy,
    /// How segments cross the wire; `None` is raw little-endian f32s.
    codec: CodecKind,
    era: u32,
    step: u32,
    /// Next outbound sequence number, per destination.
    next_seq: Vec<u64>,
    /// Un-acked sends per destination, oldest first: each the frame as
    /// sent, its lease its resend copy.
    pending: Vec<VecDeque<Frame>>,
    /// Inbound sequencing per source.
    window: Vec<DedupWindow>,
    /// First not-yet-acked inbound seq per source (acks trail the
    /// window's delivery edge).
    acked: Vec<u64>,
    /// Delivered-but-not-yet-applied frames per source, in seq order.
    ready: Vec<VecDeque<Frame>>,
    /// Frames from a future era per source, replayed after `bump_era`.
    future: Vec<VecDeque<Frame>>,
    /// Codec working buffers, the staging a coded payload is encoded
    /// into when it goes to a slot, and the f32s a coded payload
    /// decodes into.
    scratch: EncodeScratch,
    coded: Vec<u8>,
    stage: Vec<f32>,
    /// Cumulative wire statistics (telemetry reads these).
    pub(crate) stats: WireStats,
}

/// See the module docs. One instance per rank, living across training
/// steps (sequence numbers, dedup windows, and ready queues persist;
/// only era bumps reset them).
pub struct PeerExecutor<'w> {
    wire: &'w dyn Wire,
    /// Where spans and the cold branches report; `None` on the plain
    /// path, which then pays one `Option` test per site.
    sink: Option<FaultSink<'w>>,
    st: PeerState,
}

impl<'w> PeerExecutor<'w> {
    /// An executor over `wire` pacing every wait from `policy`.
    pub fn new(wire: &'w dyn Wire, policy: RetryPolicy) -> Self {
        let slots = wire.world_ids().iter().copied().max().unwrap_or(0) + 1;
        let st = PeerState {
            policy,
            next_seq: vec![0; slots],
            pending: (0..slots).map(|_| VecDeque::new()).collect(),
            window: (0..slots).map(|_| DedupWindow::new()).collect(),
            acked: vec![0; slots],
            ready: (0..slots).map(|_| VecDeque::new()).collect(),
            future: (0..slots).map(|_| VecDeque::new()).collect(),
            ..PeerState::default()
        };
        PeerExecutor { wire, sink: None, st }
    }

    /// Pick up a parked state (built by [`PeerExecutor::new`] over the
    /// same endpoint of the same mesh) for one more collective.
    pub(crate) fn resume(wire: &'w dyn Wire, policy: RetryPolicy, st: PeerState) -> Self {
        PeerExecutor { wire, sink: None, st: PeerState { policy, ..st } }
    }

    /// Let go of the wire, keeping everything else for `resume`.
    pub(crate) fn park(self) -> PeerState {
        self.st
    }

    /// Report SEND/RECV spans, timeouts, resends, duplicates and peer
    /// deaths into `sink` (see the module docs).
    pub fn with_sink(mut self, sink: FaultSink<'w>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Move segments through `codec` from the next collective on: every
    /// peer of the mesh must be given the same one.
    pub fn with_codec(mut self, codec: CodecKind) -> Self {
        self.st.codec = codec;
        self
    }

    pub fn era(&self) -> u32 {
        self.st.era
    }

    /// Cumulative wire statistics since construction.
    pub fn stats(&self) -> WireStats {
        self.st.stats
    }

    /// Data sends currently awaiting an ack, across all peers — the
    /// "in-flight sends" a crashed rank's post-mortem reports.
    pub fn pending_sends(&self) -> usize {
        self.st.pending.iter().map(VecDeque::len).sum()
    }

    /// Tag subsequent frames with the training step they belong to.
    pub fn begin_step(&mut self, step: usize) {
        self.st.step = step as u32;
    }

    /// Enter the next era after a degrade: sequence spaces restart at
    /// zero, stale state is scrapped, and frames that arrived early
    /// from survivors already in the new era are replayed.
    pub fn bump_era(&mut self) {
        self.st.era += 1;
        for p in 0..self.st.window.len() {
            self.st.window[p].reset();
            self.st.next_seq[p] = 0;
            self.st.acked[p] = 0;
            while let Some(sent) = self.st.pending[p].pop_front() {
                self.wire.release(sent.payload);
            }
            while let Some(f) = self.st.ready[p].pop_front() {
                self.wire.release(f.payload);
            }
            let parked = std::mem::take(&mut self.st.future[p]);
            for f in parked {
                if f.era == self.st.era {
                    self.ingest_data(p, f);
                } else if f.era > self.st.era {
                    self.st.future[p].push_back(f);
                } else {
                    self.wire.release(f.payload);
                }
            }
        }
    }

    /// Run `schedule` against this rank's `buf` and apply the op's
    /// finalization — one rank's share of an allreduce.
    /// `rank_ids[local]` maps the schedule's local rank indices to
    /// original wire ids (the live set, with holes after a degrade).
    pub fn allreduce(
        &mut self,
        schedule: &Schedule,
        buf: &mut [f32],
        op: ReduceOp,
        rank_ids: &[usize],
        poll: &mut dyn FnMut() -> CtlSignal,
    ) -> Result<(), PeerExecError> {
        self.run(schedule, buf, op, rank_ids, poll)?;
        finalize(op, buf, schedule.n_ranks);
        Ok(())
    }

    /// Execute the schedule without finalization. On any `Err` the
    /// buffer is in an unspecified partial state — the caller restores
    /// its pre-exchange snapshot before it retries.
    // Instrumentation on the per-frame path (here, `send_data`,
    // `apply`) stays on the no-alloc recorder API: the ring write is
    // the only trace cost a steady-state step pays.
    // lint: hot-path
    pub fn run(
        &mut self,
        schedule: &Schedule,
        buf: &mut [f32],
        op: ReduceOp,
        rank_ids: &[usize],
        poll: &mut dyn FnMut() -> CtlSignal,
    ) -> Result<(), PeerExecError> {
        assert_eq!(rank_ids.len(), schedule.n_ranks, "one original id per schedule rank");
        assert_eq!(buf.len(), schedule.n_elems, "buffer length disagrees with schedule");
        let my = self.wire.rank();
        let me_local = rank_ids
            .iter()
            .position(|&id| id == my)
            .expect("own rank id missing from the live set"); // lint: allow(unwrap): caller contract — the live set always contains the executing rank
        if schedule.n_ranks == 1 || schedule.rounds.is_empty() {
            return Ok(());
        }
        for (round_idx, round) in schedule.rounds.iter().enumerate() {
            if !self.wire.enter_round(self.st.step, round_idx as u32) {
                return Err(PeerExecError::Aborted);
            }
            let actions = &round.per_rank[me_local];
            // Phase A: snapshot-and-send every outgoing segment before
            // touching any incoming one — the pre-round values the
            // schedule's exchanges rely on.
            for a in actions {
                if let Action::Send { peer, seg } = *a {
                    self.send_data(
                        rank_ids[peer],
                        round_idx,
                        seg.offset,
                        &buf[seg.offset..seg.end()],
                    )?;
                }
            }
            self.service(rank_ids);
            // Phase B: blocking, validated receives in action order.
            for a in actions {
                let (peer, seg, reduce) = match *a {
                    Action::Send { .. } => continue,
                    Action::RecvReduce { peer, seg } => (rank_ids[peer], seg, true),
                    Action::RecvReplace { peer, seg } => (rank_ids[peer], seg, false),
                };
                let t0 = self.sink.as_ref().and_then(FaultSink::now_us);
                let frame = self.next_data(peer, round_idx, rank_ids, poll)?;
                assert_eq!(frame.step, self.st.step, "rank {my}: out-of-step frame from {peer}");
                assert_eq!(
                    frame.round as usize, round_idx,
                    "rank {my}: out-of-round frame from {peer}"
                );
                assert_eq!(
                    frame.offset as usize, seg.offset,
                    "rank {my}: segment mismatch from {peer}"
                );
                self.apply(frame.bytes(), &mut buf[seg.offset..seg.end()], reduce.then_some(op));
                if let Some(s) = &self.sink {
                    s.span("RECV", "recv", t0, peer as u64, frame.bytes().len() as u64);
                }
                // A lane frame's slot reference goes with the frame.
                self.wire.release(frame.payload);
            }
        }
        self.flush(rank_ids, poll)
    }

    /// Stay responsive after the schedule completes until every send is
    /// acked (bounded by one death threshold per peer): the last frame
    /// of a schedule has no later receive to piggyback its nack
    /// servicing on, so a lossy wire needs this window to repair it.
    /// The wait polls like every other: a peer that aborted this
    /// collective and entered the next era drops our last frame as
    /// stale and never acks it, and the abort it obeyed is waiting on
    /// our control stream too.
    fn flush(
        &mut self,
        rank_ids: &[usize],
        poll: &mut dyn FnMut() -> CtlSignal,
    ) -> Result<(), PeerExecError> {
        let my = self.wire.rank();
        for &peer in rank_ids.iter().filter(|&&id| id != my) {
            let mut waited = Duration::ZERO;
            let budget = self.st.policy.death_threshold();
            while !self.st.pending[peer].is_empty() && waited < budget {
                match self.wire.recv_timeout(peer, self.st.policy.tick) {
                    Ok(frame) => self.ingest(peer, frame),
                    Err(WireError::Timeout) => {
                        waited += self.st.policy.tick;
                        if poll() == CtlSignal::Abort {
                            return Err(PeerExecError::Aborted);
                        }
                    }
                    Err(WireError::PeerGone) => break,
                    Err(WireError::NoSuchPeer(p)) => unreachable!("flush addressed rank {p}"),
                }
            }
        }
        Ok(())
    }

    /// Send one data frame, its payload encoded into a lease from the
    /// wire — the segment's little-endian f32s, or its encoding: the one
    /// copy of a payload this executor makes — and keep the frame until
    /// its ack, since `buf` is overwritten by later rounds before then.
    /// A dead stream surfaces immediately as `PeerDead`.
    // lint: hot-path
    fn send_data(
        &mut self,
        peer: usize,
        round: usize,
        offset: usize,
        src: &[f32],
    ) -> Result<(), PeerExecError> {
        let t0 = self.sink.as_ref().and_then(FaultSink::now_us);
        let st = &mut self.st;
        let mut lease = self.wire.lease(peer, st.codec.encoded_len(src.len()));
        match (st.codec, &mut lease) {
            (CodecKind::None, lease) => f32s_to_bytes(src, lease.bytes_mut()),
            (kind, Lease::Heap(buf)) => codec_for(kind).encode(src, buf, &mut st.scratch),
            (kind, Lease::Slot(slot)) => {
                codec_for(kind).encode(src, &mut st.coded, &mut st.scratch);
                slot.bytes_mut().copy_from_slice(&st.coded);
            }
        }
        if matches!(lease, Lease::Slot(_)) {
            st.stats.lane_frames += 1;
        }
        let mut frame = Frame::control(FrameKind::Data, self.wire.rank() as u16, st.era, st.step);
        frame.seq = st.next_seq[peer];
        frame.round = round as u32;
        frame.offset = offset as u32;
        st.next_seq[peer] += 1;
        let frame = frame.carrying(lease);
        let sent = self.wire.send(peer, &frame);
        let bytes = frame.bytes().len() as u64;
        self.st.stats.data_frames += 1;
        self.st.stats.data_bytes += bytes;
        self.st.pending[peer].push_back(frame);
        if let Some(s) = &self.sink {
            s.span("SEND", "send", t0, peer as u64, bytes);
        }
        match sent {
            Ok(()) => Ok(()),
            Err(WireError::PeerGone) => Err(dead(peer)),
            Err(e) => unreachable!("send to schedule peer {peer}: {e}"),
        }
    }

    /// Fold one received payload into its segment of the buffer:
    /// combine under `reduce`'s op, or overwrite. A raw payload is
    /// reduced where it lies; a coded one is decoded into the stage
    /// first. Either way the kernel sees the sender's f32s in order.
    // lint: hot-path
    fn apply(&mut self, payload: &[u8], dst: &mut [f32], reduce: Option<ReduceOp>) {
        let st = &mut self.st;
        let wire_len = match st.codec {
            CodecKind::None => dst.len() * 4,
            kind => codec_for(kind).encoded_len(dst.len()),
        };
        assert_eq!(payload.len(), wire_len, "rank {}: payload length mismatch", self.wire.rank());
        let fold = |dst: &mut [f32], src: &[f32]| match reduce {
            Some(op) => combine(op, dst, src),
            None => dst.copy_from_slice(src),
        };
        match st.codec {
            CodecKind::None => apply_f32s(payload, dst, fold),
            kind => {
                st.stage.resize(dst.len(), 0.0);
                codec_for(kind).decode(payload, &mut st.stage, &mut st.scratch);
                fold(dst, &st.stage);
            }
        }
    }

    /// Drain whatever every live peer has queued, without blocking: a
    /// rank blocked on peer P must still clear acks, answer nacks, and
    /// bank early data arriving from Q — the cross-peer dependency
    /// chains of a schedule deadlock otherwise.
    fn service(&mut self, live: &[usize]) {
        let my = self.wire.rank();
        for &p in live.iter().filter(|&&id| id != my) {
            loop {
                match self.wire.recv_timeout(p, Duration::ZERO) {
                    Ok(frame) => self.ingest(p, frame),
                    Err(WireError::Timeout) => break,
                    // Death is surfaced by whoever awaits this peer's
                    // data; servicing just stops early.
                    Err(WireError::PeerGone) => break,
                    Err(WireError::NoSuchPeer(_)) => break,
                }
            }
        }
    }

    /// Next applicable data frame from `peer`: the delivered queue if
    /// one is waiting, otherwise the demultiplexing receive loop with
    /// nack-on-deadline and the two death signals.
    fn next_data(
        &mut self,
        peer: usize,
        round: usize,
        live: &[usize],
        poll: &mut dyn FnMut() -> CtlSignal,
    ) -> Result<Frame, PeerExecError> {
        if let Some(f) = self.st.ready[peer].pop_front() {
            return Ok(f);
        }
        let policy = self.st.policy;
        let mut attempt: u32 = 0;
        let mut deadline = policy.base;
        let mut waited = Duration::ZERO;
        loop {
            match self.wire.recv_timeout(peer, policy.tick) {
                Ok(frame) => {
                    self.ingest(peer, frame);
                    if let Some(f) = self.st.ready[peer].pop_front() {
                        return Ok(f);
                    }
                }
                Err(WireError::Timeout) => {
                    waited += policy.tick;
                    if poll() == CtlSignal::Abort {
                        return Err(PeerExecError::Aborted);
                    }
                    self.service(live);
                    if let Some(f) = self.st.ready[peer].pop_front() {
                        return Ok(f);
                    }
                    if self.wire.silence(peer) > policy.death_threshold() {
                        return Err(self.peer_dead(peer, round));
                    }
                    if waited >= deadline {
                        attempt += 1;
                        self.note(peer, attempt as u64, |step, rank| FaultEvent::RetryTimeout {
                            step,
                            rank,
                            peer,
                            round,
                            attempt,
                        });
                        if attempt >= policy.max_attempts {
                            return Err(PeerExecError::RetriesExhausted { peer, round });
                        }
                        self.control(peer, FrameKind::Nack, self.st.window[peer].expected());
                        self.st.stats.nacks_sent += 1;
                        deadline = deadline.saturating_mul(policy.factor);
                        waited = Duration::ZERO;
                    }
                }
                Err(WireError::PeerGone) => return Err(self.peer_dead(peer, round)),
                Err(WireError::NoSuchPeer(p)) => unreachable!("recv addressed rank {p}"),
            }
        }
    }

    /// `peer` died owing us round `round`'s data: everything it ever
    /// sent has been drained (or it has been silent past the bound).
    fn peer_dead(&self, peer: usize, round: usize) -> PeerExecError {
        self.note(peer, round as u64, |step, rank| FaultEvent::PeerDead {
            step,
            rank,
            peer,
            round,
        });
        dead(peer)
    }

    /// Report a cold-branch event about `peer` (lane arg `a1`) to the
    /// sink, if one is attached; the event is only built then.
    fn note(&self, peer: usize, a1: u64, event: impl FnOnce(usize, usize) -> FaultEvent) {
        if let Some(s) = &self.sink {
            s.note(peer as u64, a1, event(self.st.step as usize, self.wire.rank()));
        }
    }

    /// Demultiplex one received frame: ack/nack bookkeeping or the
    /// data path (era filter, then dedup window, then ready queue).
    fn ingest(&mut self, peer: usize, frame: Frame) {
        match frame.kind {
            FrameKind::Ack => {
                let pending = &mut self.st.pending[peer];
                if let Some(pos) = pending.iter().position(|p| p.seq == frame.seq) {
                    let sent = pending.remove(pos).expect("position just found"); // lint: allow(unwrap): position just found by iter().position
                    self.wire.release(sent.payload);
                }
                self.wire.release(frame.payload);
            }
            FrameKind::Nack => {
                self.resend(peer, frame.seq);
                self.wire.release(frame.payload);
            }
            FrameKind::Data => {
                if frame.era < self.st.era {
                    // Stale era: the degrade already invalidated it.
                    self.wire.release(frame.payload);
                    return;
                }
                if frame.era > self.st.era {
                    // The sender degraded first; replay after our bump.
                    self.st.future[peer].push_back(frame);
                    return;
                }
                let seq = frame.seq;
                if !self.ingest_data(peer, frame) {
                    // Duplicate of an applied frame (a nack raced the
                    // original): re-ack so the sender clears it.
                    self.note(peer, seq, |step, rank| FaultEvent::DuplicateDropped {
                        step,
                        rank,
                        peer,
                        seq,
                    });
                    self.control(peer, FrameKind::Ack, seq);
                }
                // Ack every seq the window has newly committed to
                // delivery order.
                while self.st.acked[peer] < self.st.window[peer].expected() {
                    let next = self.st.acked[peer];
                    self.control(peer, FrameKind::Ack, next);
                    self.st.acked[peer] = next + 1;
                }
            }
            // Heartbeats die in the socket reader; other kinds are
            // control-plane traffic that never shares a data stream.
            other => unreachable!("unexpected {other:?} frame on a data wire"),
        }
    }

    /// Run `frame` through the dedup window, queueing it (and anything
    /// it unblocks from the stash) for application. False ⇔ duplicate.
    fn ingest_data(&mut self, peer: usize, frame: Frame) -> bool {
        let st = &mut self.st;
        match st.window[peer].offer(frame) {
            Offer::Deliver(f) => {
                st.ready[peer].push_back(f);
                while let Some(g) = st.window[peer].pop_ready() {
                    st.ready[peer].push_back(g);
                }
                true
            }
            Offer::Stashed => true,
            Offer::Duplicate => false,
        }
    }

    /// Answer a nack with the kept frame, if still held.
    fn resend(&mut self, peer: usize, seq: u64) {
        // Already acked or not yet assigned: a benign race.
        let Some(frame) = self.st.pending[peer].iter().find(|p| p.seq == seq) else {
            return;
        };
        let t0 = self.sink.as_ref().and_then(FaultSink::now_us);
        let sent = self.wire.send(peer, frame);
        let bytes = frame.bytes().len() as u64;
        self.st.stats.resends += 1;
        self.st.stats.data_bytes += bytes;
        if let Some(s) = &self.sink {
            s.span("SEND", "resend", t0, peer as u64, bytes);
        }
        self.note(peer, seq, |step, rank| FaultEvent::Resend { step, rank, peer, seq });
        match sent {
            // The peer that asked has since closed its stream: nobody
            // is left to want this copy (see `control`).
            Ok(()) | Err(WireError::PeerGone) => {}
            Err(e) => unreachable!("resend to schedule peer {peer}: {e}"),
        }
    }

    /// Send one payload-less protocol frame carrying `seq`.
    fn control(&mut self, peer: usize, kind: FrameKind, seq: u64) {
        let mut f = Frame::control(kind, self.wire.rank() as u16, self.st.era, self.st.step);
        f.seq = seq;
        match self.wire.send(peer, &f) {
            // An ack or nack its addressee can no longer read is moot,
            // not a failed collective: a peer that finished its last
            // step closes its stream while our re-ack of a duplicate is
            // still on its way. A death that matters is reported by
            // whoever still awaits that peer's data (`next_data`) or
            // has data to give it (`send_data`) — which is also the
            // only place a channel wire ever reports one.
            Ok(()) | Err(WireError::PeerGone) => {}
            Err(e) => unreachable!("control to schedule peer {peer}: {e}"),
        }
    }
}

/// The error for one dead peer — kept out of line so the per-frame
/// functions that can return it stay allocation-free.
#[cold]
fn dead(peer: usize) -> PeerExecError {
    PeerExecError::PeerDead { dead: vec![peer] }
}

/// Encode f32s little-endian into `out`, exactly `4 * src.len()` bytes.
fn f32s_to_bytes(src: &[f32], out: &mut [u8]) {
    #[cfg(target_endian = "little")]
    {
        // SAFETY: any initialized f32 is four initialized bytes, u8 has
        // no alignment requirement, and the view borrows `src`.
        let bytes = unsafe { std::slice::from_raw_parts(src.as_ptr().cast::<u8>(), src.len() * 4) };
        out.copy_from_slice(bytes);
    }
    #[cfg(target_endian = "big")]
    for (o, x) in out.chunks_exact_mut(4).zip(src) {
        o.copy_from_slice(&x.to_le_bytes());
    }
}

/// f32s staged per pass when a payload cannot be viewed in place.
const STAGE_ELEMS: usize = 1024;

/// Run `apply(dst, src)` with `src` the little-endian f32s encoded in
/// `bytes` (`4 * dst.len()` of them). An aligned payload on a
/// little-endian target is viewed in place and applied in one call;
/// anything else is decoded through a fixed stack stage, a run of
/// `dst` at a time. `apply` must be element-wise, so both routes give
/// bit-identical results.
fn apply_f32s(bytes: &[u8], dst: &mut [f32], mut apply: impl FnMut(&mut [f32], &[f32])) {
    debug_assert_eq!(bytes.len(), dst.len() * 4);
    // SAFETY: every bit pattern is a valid f32; `align_to` itself
    // guarantees `view` is aligned and in bounds.
    let (head, view, tail) = unsafe { bytes.align_to::<f32>() };
    if cfg!(target_endian = "little") && head.is_empty() && tail.is_empty() {
        return apply(dst, view);
    }
    let mut stage = [0.0f32; STAGE_ELEMS];
    for (run, raw) in dst.chunks_mut(STAGE_ELEMS).zip(bytes.chunks(STAGE_ELEMS * 4)) {
        let staged = &mut stage[..run.len()];
        for (x, c) in staged.iter_mut().zip(raw.chunks_exact(4)) {
            *x = f32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        }
        apply(run, staged);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec_fault::{FaultSession, FaultWire};
    use crate::reference::apply_allreduce;
    use crate::{rd, ring};
    use faults::{FaultKind, FaultPlan, Injection};
    use transport::ChannelWire;

    fn policy() -> RetryPolicy {
        RetryPolicy {
            base: Duration::from_millis(5),
            factor: 2,
            max_attempts: 5,
            tick: Duration::from_millis(1),
        }
    }

    fn inputs(n_ranks: usize, n_elems: usize) -> Vec<Vec<f32>> {
        (0..n_ranks)
            .map(|r| (0..n_elems).map(|i| ((r * 31 + i * 7) % 19) as f32 * 0.25 - 2.0).collect())
            .collect()
    }

    /// Run one allreduce per rank-thread over the given wires and
    /// return the per-rank buffers.
    fn run_mesh(
        wires: Vec<impl Wire>,
        schedule: &Schedule,
        mut bufs: Vec<Vec<f32>>,
        op: ReduceOp,
        step: usize,
    ) -> Vec<Vec<f32>> {
        let ids: Vec<usize> = (0..wires.len()).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = wires
                .iter()
                .zip(bufs.iter_mut())
                .map(|(wire, buf)| {
                    let ids = &ids;
                    scope.spawn(move || {
                        let mut ex = PeerExecutor::new(wire, policy());
                        ex.begin_step(step);
                        ex.allreduce(schedule, buf, op, ids, &mut || CtlSignal::Continue)
                    })
                })
                .collect();
            for h in handles {
                h.join().expect("rank thread").expect("allreduce");
            }
        });
        bufs
    }

    /// The bulk byte copy is the per-element little-endian encoding,
    /// and a payload applies to the same bits whether it is viewed in
    /// place or staged: all four byte alignments (exactly one of them
    /// takes the in-place view), across two stage boundaries.
    #[test]
    fn payload_bytes_apply_identically_at_every_alignment() {
        let n = STAGE_ELEMS * 2 + 37;
        let src: Vec<f32> = (0..n).map(|i| (i as f32 * 0.37).sin() * 1e3).collect();
        let mut bytes = vec![0u8; 4 * n];
        f32s_to_bytes(&src, &mut bytes);
        assert_eq!(bytes, src.iter().flat_map(|x| x.to_le_bytes()).collect::<Vec<u8>>());
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let summed: Vec<f32> = src.iter().map(|s| 1.5 + s).collect();
        let mut backing = vec![0u8; bytes.len() + 4];
        for shift in 0..4 {
            backing[shift..shift + bytes.len()].copy_from_slice(&bytes);
            let payload = &backing[shift..shift + bytes.len()];
            let mut dst = vec![1.5f32; n];
            apply_f32s(payload, &mut dst, |d, s| combine(ReduceOp::Sum, d, s));
            assert_eq!(bits(&dst), bits(&summed), "reduce at byte offset {shift}");
            apply_f32s(payload, &mut dst, |d, s| d.copy_from_slice(s));
            assert_eq!(bits(&dst), bits(&src), "replace at byte offset {shift}");
        }
    }

    #[test]
    fn parity_with_reference_over_channel_mesh() {
        for (n, e) in [(4usize, 96usize), (3, 31)] {
            for schedule in [ring::allreduce(n, e), rd::allreduce(n, e)] {
                let ins = inputs(n, e);
                let mut by_ref = ins.clone();
                apply_allreduce(&schedule, &mut by_ref, ReduceOp::Sum);
                let got = run_mesh(ChannelWire::mesh(n), &schedule, ins.clone(), ReduceOp::Sum, 0);
                assert_eq!(by_ref, got, "n={n} e={e}");
            }
        }
    }

    /// Sequence numbers run continuously across steps; an era bump
    /// resets them and the next collective still lands bit-exactly.
    #[test]
    fn steps_share_an_era_and_survive_a_bump() {
        let (n, e) = (4usize, 40usize);
        let schedule = ring::allreduce(n, e);
        let ids: Vec<usize> = (0..n).collect();
        let wires = ChannelWire::mesh(n);
        let mut bufs = inputs(n, e);
        let mut expect = bufs.clone();
        for _ in 0..3 {
            apply_allreduce(&schedule, &mut expect, ReduceOp::Average);
        }
        std::thread::scope(|scope| {
            for (wire, buf) in wires.iter().zip(bufs.iter_mut()) {
                let ids = &ids;
                let schedule = &schedule;
                scope.spawn(move || {
                    let mut ex = PeerExecutor::new(wire, policy());
                    for step in 0..3 {
                        ex.begin_step(step);
                        ex.allreduce(schedule, buf, ReduceOp::Average, ids, &mut || {
                            CtlSignal::Continue
                        })
                        .expect("allreduce");
                        if step == 1 {
                            ex.bump_era();
                            assert_eq!(ex.era(), 1);
                        }
                    }
                });
            }
        });
        assert_eq!(expect, bufs);
    }

    /// Link misbehaviours a [`FaultPlan`] cannot express.
    #[derive(Clone, Copy, PartialEq)]
    enum Quirk {
        /// Every data frame is sent twice; the dedup window must absorb it.
        DuplicateData,
        /// The peer has stopped listening: data still passes, but every
        /// ack/nack this rank sends is refused with `PeerGone` — what a
        /// socket does once the far end has shut its stream down.
        RefuseControl,
    }

    struct QuirkyWire {
        inner: ChannelWire,
        quirk: Option<Quirk>,
    }

    impl Wire for QuirkyWire {
        fn rank(&self) -> usize {
            self.inner.rank()
        }
        fn world_ids(&self) -> &[usize] {
            self.inner.world_ids()
        }
        fn send(&self, peer: usize, frame: &Frame) -> Result<(), WireError> {
            match (self.quirk, frame.kind == FrameKind::Data) {
                (Some(Quirk::DuplicateData), true) => self.inner.send(peer, frame)?,
                (Some(Quirk::RefuseControl), false) => return Err(WireError::PeerGone),
                _ => {}
            }
            self.inner.send(peer, frame)
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
    }

    /// Rank 1 receives everything it needs but cannot deliver one ack:
    /// its collective still completes, bit-exactly. Rank 0, never
    /// acked, completes too once its flush window closes.
    #[test]
    fn refused_acks_do_not_fail_a_collective_whose_data_arrived() {
        let (n, e) = (2usize, 32usize);
        let schedule = ring::allreduce(n, e);
        let ins = inputs(n, e);
        let mut by_ref = ins.clone();
        apply_allreduce(&schedule, &mut by_ref, ReduceOp::Sum);
        let wires: Vec<QuirkyWire> = ChannelWire::mesh(n)
            .into_iter()
            .map(|inner| {
                let quirk = (inner.rank() == 1).then_some(Quirk::RefuseControl);
                QuirkyWire { inner, quirk }
            })
            .collect();
        let got = run_mesh(wires, &schedule, ins, ReduceOp::Sum, 0);
        assert_eq!(by_ref, got);
    }

    /// A rank whose rounds are done but whose last frames will never be
    /// acked (the peer aborted into the next era and drops them as
    /// stale) must still hear the abort: the flush window polls.
    #[test]
    fn an_abort_reaches_a_rank_waiting_for_its_last_acks() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let (n, e) = (2usize, 32usize);
        let schedule = ring::allreduce(n, e);
        let ids = [0usize, 1];
        let wires: Vec<QuirkyWire> = ChannelWire::mesh(n)
            .into_iter()
            .map(|inner| {
                let quirk = (inner.rank() == 1).then_some(Quirk::RefuseControl);
                QuirkyWire { inner, quirk }
            })
            .collect();
        let mut bufs = inputs(n, e);
        // Set once rank 1 has everything rank 0 will ever send and has
        // sent everything rank 0 needs: from then on rank 0's rounds
        // find their data queued and poll only from the flush window.
        let peer_done = AtomicBool::new(false);
        let (buf0, buf1) = bufs.split_at_mut(1);
        let outcome0 = std::thread::scope(|scope| {
            let rank0 = scope.spawn(|| {
                let mut ex = PeerExecutor::new(&wires[0], policy());
                ex.run(&schedule, &mut buf0[0], ReduceOp::Sum, &ids, &mut || match peer_done
                    .load(Ordering::Acquire)
                {
                    true => CtlSignal::Abort,
                    false => CtlSignal::Continue,
                })
            });
            let mut ex = PeerExecutor::new(&wires[1], policy());
            ex.run(&schedule, &mut buf1[0], ReduceOp::Sum, &ids, &mut || CtlSignal::Continue)
                .expect("rank 1 has all its data");
            peer_done.store(true, Ordering::Release);
            rank0.join().expect("rank 0 thread")
        });
        assert_eq!(outcome0, Err(PeerExecError::Aborted));
    }

    #[test]
    fn dropped_transmissions_are_repaired_exactly() {
        let (n, e) = (4usize, 48usize);
        let schedule = ring::allreduce(n, e);
        let ins = inputs(n, e);
        let mut by_ref = ins.clone();
        apply_allreduce(&schedule, &mut by_ref, ReduceOp::Sum);
        // Every rank loses its first transmissions in two rounds; with
        // no sink attached the protocol must still repair them all.
        let plan = FaultPlan::explicit(
            0,
            (0..n)
                .flat_map(|rank| [rank, rank + 2].map(|round| (rank, round)))
                .map(|(rank, round)| Injection { step: 0, rank, round, kind: FaultKind::Drop })
                .collect(),
        );
        let session = FaultSession::new(plan);
        let mesh = ChannelWire::mesh(n);
        let wires: Vec<FaultWire<'_, ChannelWire>> =
            mesh.iter().map(|w| FaultWire::new(w, &session)).collect();
        let got = run_mesh(wires, &schedule, ins, ReduceOp::Sum, 0);
        assert_eq!(by_ref, got);
        assert_eq!(session.counts().injected_drops, 2 * n as u64);
    }

    #[test]
    fn duplicated_frames_are_deduped_exactly() {
        let (n, e) = (4usize, 48usize);
        let schedule = rd::allreduce(n, e);
        let ins = inputs(n, e);
        let mut by_ref = ins.clone();
        apply_allreduce(&schedule, &mut by_ref, ReduceOp::Sum);
        let wires: Vec<QuirkyWire> = ChannelWire::mesh(n)
            .into_iter()
            .map(|inner| QuirkyWire { inner, quirk: Some(Quirk::DuplicateData) })
            .collect();
        let got = run_mesh(wires, &schedule, ins, ReduceOp::Sum, 0);
        assert_eq!(by_ref, got);
    }

    #[test]
    fn a_dropped_wire_surfaces_peer_dead() {
        let n = 3usize;
        let e = 24usize;
        let schedule = ring::allreduce(n, e);
        let ids: Vec<usize> = (0..n).collect();
        let mut wires = ChannelWire::mesh(n);
        let dead_wire = wires.pop().expect("rank 2's wire"); // lint: allow(unwrap): mesh(3) yields three wires
        drop(dead_wire); // rank 2 "dies" before the collective
        let mut bufs = inputs(n, e);
        bufs.pop();
        std::thread::scope(|scope| {
            let handles: Vec<_> = wires
                .iter()
                .zip(bufs.iter_mut())
                .map(|(wire, buf)| {
                    let ids = &ids;
                    let schedule = &schedule;
                    scope.spawn(move || {
                        let mut ex = PeerExecutor::new(wire, policy());
                        ex.run(schedule, buf, ReduceOp::Sum, ids, &mut || CtlSignal::Continue)
                    })
                })
                .collect();
            for h in handles {
                let err = h.join().expect("rank thread").expect_err("peer 2 is gone");
                assert_eq!(err, PeerExecError::PeerDead { dead: vec![2] });
            }
        });
    }

    #[test]
    fn abort_poll_stops_a_starved_receive() {
        let n = 2usize;
        let e = 8usize;
        let schedule = ring::allreduce(n, e);
        let ids: Vec<usize> = (0..n).collect();
        let wires = ChannelWire::mesh(n);
        // Rank 1 never shows up, but its wire stays open — only the
        // control-plane abort can unblock rank 0.
        let mut buf = vec![1.0f32; e];
        let mut polls = 0u32;
        let mut ex = PeerExecutor::new(&wires[0], policy());
        let err = ex
            .run(&schedule, &mut buf, ReduceOp::Sum, &ids, &mut || {
                polls += 1;
                if polls > 3 {
                    CtlSignal::Abort
                } else {
                    CtlSignal::Continue
                }
            })
            .expect_err("no peer, must abort");
        assert_eq!(err, PeerExecError::Aborted);
        assert!(polls > 3);
    }
}
