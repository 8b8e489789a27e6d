//! Fault injection for the one rank body: drops, corruptions,
//! stragglers, and crashes from a seeded [`FaultPlan`], put on the link
//! beneath [`exec_peer`](crate::exec_peer) and survived by its
//! reliability protocol.
//!
//! # One protocol, one decorator
//!
//! Nothing here executes a schedule or re-implements reliability.
//! [`ExecContext::run_with_faults`] is the same function as every
//! other [`ExecContext`] entry point ([`run_ranks`]) — one
//! [`PeerExecutor`](crate::exec_peer::PeerExecutor) per rank thread
//! over a [`ChannelWire`](transport::ChannelWire) mesh — with each
//! endpoint wrapped in a [`FaultWire`] for the duration of the call.
//! [`FaultWire`] is generic over the wire it wraps, so the same seeded
//! plan can be pointed at the real socket path. It injects on the link:
//!
//! * **drop** — the first transmission of the round's data frames is
//!   swallowed; the receiver's deadline nacks it and the sender's clean
//!   buffered copy repairs it;
//! * **corrupt** — the frame is encoded, one payload bit is flipped,
//!   and the production decoder ([`parse_body`]) rejects it on its
//!   CRC, exactly as a socket reader would: corruption becomes loss;
//! * **straggle** — the rank's round entry is delayed on the session's
//!   [`FaultClock`];
//! * **crash** — the rank refuses the round and stops.
//!
//! Resends always pass clean, which is why the *numeric result under
//! recoverable faults is bit-identical to the fault-free run*.
//!
//! # Crashes and abort
//!
//! A rank that stops — plan-crashed, or aborting because a peer died —
//! hangs up its channel *senders* and nothing else. A peer blocked on
//! data the stopped rank never sent observes `PeerGone` (after
//! draining whatever *was* sent), declares it dead, and aborts; the
//! abort cascades the same way. The stopped rank's *receivers* stay
//! open until every rank thread has finished, so a send to it never
//! fails: death is observed on the receive side only, after the queue
//! drains. That makes each rank's abort point — and hence the whole
//! cascade and every [`FaultEvent::PeerDead`] — a function of the
//! schedule and the plan, not of thread timing. The collective returns
//! [`ExecError::RanksDead`]; buffers are partial and the
//! [`elastic`](crate::elastic) layer owns restoring them and
//! rebuilding over the survivors.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use faults::{EventLog, FaultClock, FaultEvent, FaultKind, FaultPlan, RetryPolicy, SendFault};
use parking_lot::Mutex;
use summit_metrics::FaultCounters;
use trace::Lane;
use transport::{encode_into, parse_body, Frame, FrameKind, Wire, WireError};

use crate::exec_peer::{CtlSignal, PeerExecError, PeerExecutor};
use crate::exec_thread::{Call, ExecContext, ExecError, ExecTrace, RankSet};
use crate::reduce::ReduceOp;
use crate::sched::Schedule;

/// Everything one fault-aware run (or one training run of many steps)
/// shares: the plan, the retry policy, the delay clock, and the
/// observability sinks. Cheap to share by reference across rank
/// threads; bump the step counter between collectives so plan
/// injections keyed by training step land on the right one.
#[derive(Debug, Default)]
pub struct FaultSession {
    plan: FaultPlan,
    policy: RetryPolicy,
    clock: FaultClock,
    counters: FaultCounters,
    events: EventLog,
    step: AtomicUsize,
    /// Trace lanes keyed by *original* rank id (the ids the plan and
    /// the event log speak), so a rank keeps its trace row across
    /// elastic renumberings. `None` ⇔ the fault path runs untraced.
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

    /// Set the training step the next collectives belong to.
    pub fn begin_step(&self, step: usize) {
        self.step.store(step, Ordering::Relaxed); // lint: allow(relaxed): step tag on trace rows only; ordered by the caller's step loop
    }

    pub fn step(&self) -> usize {
        self.step.load(Ordering::Relaxed) // lint: allow(relaxed): step tag on trace rows only; ordered by the caller's step loop
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

    pub fn counters(&self) -> &FaultCounters {
        &self.counters
    }

    pub fn events(&self) -> &EventLog {
        &self.events
    }

    /// Log `event` and bump the counter that tallies its kind — every
    /// event has exactly one.
    pub fn record(&self, event: FaultEvent) {
        let c = &self.counters;
        FaultCounters::bump(match &event {
            FaultEvent::Injected { kind: FaultKind::Straggle { .. }, .. } => &c.injected_straggles,
            FaultEvent::Injected { kind: FaultKind::Drop, .. } => &c.injected_drops,
            FaultEvent::Injected { kind: FaultKind::Corrupt, .. } => &c.injected_corruptions,
            FaultEvent::Injected { kind: FaultKind::Crash, .. } => &c.injected_crashes,
            FaultEvent::RetryTimeout { .. } => &c.timeouts,
            FaultEvent::CrcReject { .. } => &c.crc_rejects,
            FaultEvent::Resend { .. } => &c.resends,
            FaultEvent::DuplicateDropped { .. } => &c.duplicates_dropped,
            FaultEvent::PeerDead { .. } => &c.rank_deaths,
            FaultEvent::Degraded { .. } => &c.degradations,
            FaultEvent::CheckpointSave { .. } => &c.checkpoint_saves,
            FaultEvent::CheckpointRestore { .. } => &c.checkpoint_restores,
        });
        self.events.push(event);
    }

    /// The handle rank `rank` (original id) reports through: this
    /// session's counters and event log, plus the rank's trace lane
    /// when tracing is on.
    pub fn sink(&self, rank: usize) -> FaultSink<'_> {
        FaultSink { session: Some(self), lane: self.trace().and_then(|t| t.lane(rank)).cloned() }
    }
}

/// One rank's observability sinks — what [`FaultWire`] reports
/// injections through and what a
/// [`PeerExecutor`](crate::exec_peer::PeerExecutor) reports its spans
/// and recovery actions through: a [`FaultSession`]'s counters and
/// event log, a trace lane, or both.
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

    /// Mark (on the lane, if traced, with args `a0`/`a1`), count, and
    /// log one injection or recovery action.
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
/// beneath a [`PeerExecutor`] (see the module docs for the four
/// injections). It borrows the wire it wraps — one collective's worth
/// of faults over a mesh that outlives it — and the plan addresses
/// ranks by that wire's original ids.
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
        let mut guard = self.link.lock();
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

/// The pacing of a run with no fault plan: lossless channels between
/// threads that cannot die never need a resend, so no receive deadline
/// and no death bound ever fires — a slow rank is waited for, as long
/// as it takes. Only the tick (how often a blocked receive looks at its
/// other peers) is in play.
fn patient() -> RetryPolicy {
    RetryPolicy { base: Duration::MAX, factor: 1, max_attempts: 1, ..RetryPolicy::default() }
}

/// The one place a schedule's rank bodies run: lane `i` of `set`'s
/// pool resumes rank `i`'s parked executor over its endpoint of the
/// mesh — behind a [`FaultWire`] when there is a `session` — runs the
/// schedule on its buffer, and parks again; a warm call creates no
/// thread. A rank that stops short hangs up its senders; the wires
/// outlive the job, so its receivers stay open until the whole
/// collective is over (see the module docs). Spans go to the lane
/// `call.trace` (or the session's trace) holds for the rank's original
/// id.
pub(crate) fn run_ranks(
    set: &mut RankSet,
    schedule: &Schedule,
    buffers: &mut [Vec<f32>],
    op: ReduceOp,
    call: &Call<'_>,
) -> Result<(), ExecError> {
    let (ids, session) = (&set.ids, call.session);
    set.pool.run_zip(&mut set.ranks, buffers, |local, rank, buf| {
        let wire = &mut rank.wire;
        let faulty = session.map(|s| FaultWire::new(&*wire, s));
        let link: &dyn Wire = match &faulty {
            Some(faulty) => faulty,
            None => &*wire,
        };
        let policy = session.map_or_else(patient, FaultSession::policy);
        let mut exec = PeerExecutor::resume(link, policy, std::mem::take(&mut rank.parked))
            .with_codec(call.codec);
        let lane = |t: &ExecTrace| t.lane(ids[local]).cloned().map(FaultSink::lane_only);
        let sink = match session {
            Some(s) => Some(s.sink(ids[local])),
            None => call.trace.and_then(lane),
        };
        if let Some(sink) = sink {
            exec = exec.with_sink(sink);
        }
        exec.begin_step(session.map_or(0, FaultSession::step));
        rank.outcome = exec.run(schedule, buf, op, ids, &mut || CtlSignal::Continue);
        rank.parked = exec.park();
        drop(faulty);
        if rank.outcome.is_err() {
            for &peer in ids {
                wire.hang_up(peer);
            }
        }
    });
    let outcomes = || set.ranks.iter().map(|r| &r.outcome);

    let local = |orig: usize| {
        let at = ids.iter().position(|&id| id == orig);
        at.expect("peer is live") // lint: allow(unwrap): the mesh was built over `ids`
    };
    // No rank's poll ever aborts, so `Aborted` can only be the wire
    // refusing a round: a plan crash, the authoritative source for the
    // dead set.
    let dead: Vec<usize> =
        (0..ids.len()).filter(|&r| set.ranks[r].outcome == Err(PeerExecError::Aborted)).collect();
    if !dead.is_empty() {
        return Err(ExecError::RanksDead { dead });
    }
    // A peer stopped without a crash injection on record: surface
    // the suspects so the caller still gets an actionable dead set.
    let mut suspects: Vec<usize> = outcomes()
        .filter_map(|o| match o {
            Err(PeerExecError::PeerDead { dead }) => Some(dead.iter().map(|&d| local(d))),
            _ => None,
        })
        .flatten()
        .collect();
    suspects.sort_unstable();
    suspects.dedup();
    if !suspects.is_empty() {
        return Err(ExecError::RanksDead { dead: suspects });
    }
    for (rank, outcome) in outcomes().enumerate() {
        if let Err(PeerExecError::RetriesExhausted { peer, round }) = outcome {
            return Err(ExecError::RetriesExhausted { rank, peer: local(*peer), round: *round });
        }
    }
    Ok(())
}

impl ExecContext {
    /// Execute `schedule` under `session`'s fault plan, one thread per
    /// rank. `rank_ids[local]` is the *original* (world) rank id of
    /// each buffer — the plan and the event log speak original ids, so
    /// a plan stays addressable after elastic degradation renumbers the
    /// survivors.
    ///
    /// On [`ExecError::RanksDead`] the buffers are partial; callers
    /// must restore them (see [`ElasticAllreduce`](crate::elastic::ElasticAllreduce)).
    pub fn run_with_faults(
        &self,
        schedule: &Schedule,
        buffers: &mut [Vec<f32>],
        op: ReduceOp,
        session: &FaultSession,
        rank_ids: &[usize],
    ) -> Result<(), ExecError> {
        let call = Call { session: Some(session), rank_ids: Some(rank_ids), ..Call::default() };
        self.execute(schedule, buffers, op, call)
    }

    /// [`ExecContext::run_with_faults`] plus op finalization — the
    /// fault-path analogue of [`ExecContext::allreduce`].
    pub fn allreduce_with_faults(
        &self,
        schedule: &Schedule,
        buffers: &mut [Vec<f32>],
        op: ReduceOp,
        session: &FaultSession,
        rank_ids: &[usize],
    ) -> Result<(), ExecError> {
        let call = Call {
            session: Some(session),
            rank_ids: Some(rank_ids),
            finish: true,
            ..Call::default()
        };
        self.execute(schedule, buffers, op, call)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::apply_allreduce;
    use crate::{rd, ring};
    use faults::{FaultSpec, Injection};
    use transport::ChannelWire;

    fn inputs(n_ranks: usize, n_elems: usize) -> Vec<Vec<f32>> {
        (0..n_ranks)
            .map(|r| (0..n_elems).map(|i| ((r * 29 + i * 5) % 17) as f32 * 0.5 - 4.0).collect())
            .collect()
    }

    fn ids(n: usize) -> Vec<usize> {
        (0..n).collect()
    }

    #[test]
    fn empty_plan_matches_reference_bit_for_bit() {
        let (n, e) = (4usize, 64usize);
        let s = ring::allreduce(n, e);
        let ins = inputs(n, e);
        let mut by_ref = ins.clone();
        apply_allreduce(&s, &mut by_ref, ReduceOp::Sum);
        let mut by_fault = ins.clone();
        let session = FaultSession::new(FaultPlan::none());
        let ctx = ExecContext::for_schedule(&s).unwrap();
        ctx.allreduce_with_faults(&s, &mut by_fault, ReduceOp::Sum, &session, &ids(n)).unwrap();
        assert_eq!(by_ref, by_fault);
        assert!(session.events().is_empty());
    }

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
        assert_eq!(session.counters().snapshot().injected_drops, 2);
    }

    #[test]
    fn dropped_payloads_are_recovered_exactly() {
        let (n, e) = (4usize, 32usize);
        let s = ring::allreduce(n, e);
        let plan = FaultPlan::explicit(
            1,
            vec![
                Injection { step: 0, rank: 1, round: 0, kind: FaultKind::Drop },
                Injection { step: 0, rank: 3, round: 2, kind: FaultKind::Drop },
            ],
        );
        let ins = inputs(n, e);
        let mut by_ref = ins.clone();
        apply_allreduce(&s, &mut by_ref, ReduceOp::Sum);
        let mut bufs = ins.clone();
        let session = FaultSession::new(plan);
        let ctx = ExecContext::for_schedule(&s).unwrap();
        ctx.allreduce_with_faults(&s, &mut bufs, ReduceOp::Sum, &session, &ids(n)).unwrap();
        assert_eq!(by_ref, bufs, "drop recovery must be bit-exact");
        let c = session.counters().snapshot();
        assert_eq!(c.injected_drops, 2);
        assert!(c.resends >= 2, "each drop needs at least one resend: {c}");
        assert!(c.timeouts >= 2, "drops are only noticed via deadlines: {c}");
    }

    #[test]
    fn corrupted_payloads_are_rejected_and_resent() {
        let (n, e) = (4usize, 32usize);
        let s = rd::allreduce(n, e);
        let plan = FaultPlan::explicit(
            2,
            vec![Injection { step: 0, rank: 2, round: 1, kind: FaultKind::Corrupt }],
        );
        let ins = inputs(n, e);
        let mut by_ref = ins.clone();
        apply_allreduce(&s, &mut by_ref, ReduceOp::Sum);
        let mut bufs = ins.clone();
        let session = FaultSession::new(plan);
        let ctx = ExecContext::for_schedule(&s).unwrap();
        ctx.allreduce_with_faults(&s, &mut bufs, ReduceOp::Sum, &session, &ids(n)).unwrap();
        assert_eq!(by_ref, bufs, "corruption must never reach the buffers");
        let c = session.counters().snapshot();
        assert_eq!(c.injected_corruptions, 1);
        assert!(c.crc_rejects >= 1, "{c}");
        assert!(c.resends >= 1, "{c}");
    }

    #[test]
    fn stragglers_only_delay_under_virtual_clock() {
        let (n, e) = (4usize, 16usize);
        let s = ring::allreduce(n, e);
        let plan = FaultPlan::explicit(
            3,
            vec![Injection {
                step: 0,
                rank: 0,
                round: 1,
                kind: FaultKind::Straggle { millis: 60_000 },
            }],
        );
        let ins = inputs(n, e);
        let mut by_ref = ins.clone();
        apply_allreduce(&s, &mut by_ref, ReduceOp::Sum);
        let mut bufs = ins.clone();
        let session = FaultSession::new(plan); // virtual: must not sleep a minute
        let ctx = ExecContext::for_schedule(&s).unwrap();
        let t0 = std::time::Instant::now();
        ctx.allreduce_with_faults(&s, &mut bufs, ReduceOp::Sum, &session, &ids(n)).unwrap();
        assert!(t0.elapsed() < Duration::from_secs(10));
        assert_eq!(by_ref, bufs);
        assert_eq!(session.clock().injected(), Duration::from_secs(60));
        assert_eq!(session.counters().snapshot().injected_straggles, 1);
    }

    #[test]
    fn crash_aborts_with_the_dead_rank_reported() {
        let (n, e) = (4usize, 24usize);
        let s = ring::allreduce(n, e);
        let plan = FaultPlan::explicit(
            4,
            vec![Injection { step: 0, rank: 2, round: 1, kind: FaultKind::Crash }],
        );
        let mut bufs = inputs(n, e);
        let session = FaultSession::new(plan);
        let ctx = ExecContext::for_schedule(&s).unwrap();
        let err = ctx
            .run_with_faults(&s, &mut bufs, ReduceOp::Sum, &session, &ids(n))
            .expect_err("a crashed rank must abort the collective");
        assert_eq!(err, ExecError::RanksDead { dead: vec![2] });
        let c = session.counters().snapshot();
        assert_eq!(c.injected_crashes, 1);
        assert!(c.rank_deaths >= 1, "at least one peer must observe the death: {c}");
    }

    #[test]
    fn crash_detection_ignores_renumbering() {
        // After a degradation the local ranks 0..3 may stand for
        // original ids {0, 1, 3, 4}: the plan must hit original id 3
        // (local 2) and the error must speak local indices.
        let (n, e) = (4usize, 16usize);
        let s = ring::allreduce(n, e);
        let plan = FaultPlan::explicit(
            5,
            vec![Injection { step: 0, rank: 3, round: 0, kind: FaultKind::Crash }],
        );
        let mut bufs = inputs(n, e);
        let session = FaultSession::new(plan);
        let ctx = ExecContext::for_schedule(&s).unwrap();
        let err = ctx
            .run_with_faults(&s, &mut bufs, ReduceOp::Sum, &session, &[0, 1, 3, 4])
            .expect_err("original id 3 is present as local 2");
        assert_eq!(err, ExecError::RanksDead { dead: vec![2] });
    }

    #[test]
    fn traced_fault_run_records_retry_and_fault_events() {
        let (n, e) = (4usize, 32usize);
        let s = ring::allreduce(n, e);
        let plan = FaultPlan::explicit(
            1,
            vec![Injection { step: 0, rank: 1, round: 0, kind: FaultKind::Drop }],
        );
        let rec = trace::TraceRecorder::new();
        let session = FaultSession::new(plan).with_trace(ExecTrace::comm(&rec, &ids(n)));
        let mut bufs = inputs(n, e);
        let ctx = ExecContext::for_schedule(&s).unwrap();
        ctx.allreduce_with_faults(&s, &mut bufs, ReduceOp::Sum, &session, &ids(n)).unwrap();
        let snap = rec.snapshot();
        assert_eq!(snap.pids(), vec![0, 1, 2, 3]);
        let cats: Vec<&str> =
            snap.lanes.iter().flat_map(|l| l.spans.iter()).map(|s| s.cat).collect();
        assert!(cats.contains(&"SEND") && cats.contains(&"RECV"), "{cats:?}");
        assert!(cats.contains(&"FAULT"), "drop injection must land in the FAULT lane: {cats:?}");
        assert!(cats.contains(&"RETRY"), "drop recovery goes through timeout/resend: {cats:?}");
        // The injection was recorded on the faulty rank's own pid row.
        let rank1 = snap.lanes.iter().find(|l| l.pid == 1).expect("rank 1 lane");
        assert!(rank1.spans.iter().any(|s| s.cat == "FAULT" && s.name == "drop"));
    }

    #[test]
    fn faulty_runs_replay_identically_from_the_same_plan() {
        let (n, e) = (4usize, 48usize);
        let s = ring::allreduce(n, e);
        let spec = FaultSpec {
            drops: 2,
            corruptions: 2,
            stragglers: 2,
            ..FaultSpec::none(n, 1, s.n_rounds())
        };
        let run = |seed: u64| {
            let plan = FaultPlan::seeded(seed, &spec);
            let mut bufs = inputs(n, e);
            let session = FaultSession::new(plan);
            let ctx = ExecContext::for_schedule(&s).unwrap();
            ctx.allreduce_with_faults(&s, &mut bufs, ReduceOp::Sum, &session, &ids(n)).unwrap();
            (
                bufs,
                session.events().deterministic_core(),
                session.counters().snapshot().deterministic_part(),
            )
        };
        let (b1, e1, c1) = run(11);
        let (b2, e2, c2) = run(11);
        assert_eq!(b1, b2, "same seed, same numbers");
        assert_eq!(e1, e2, "same seed, same deterministic events");
        assert_eq!(c1, c2, "same seed, same deterministic counters");
        let mut clean = inputs(n, e);
        crate::exec_thread::allreduce(&s, &mut clean, ReduceOp::Sum).unwrap();
        assert_eq!(b1, clean, "faults repaired ⇒ identical to the fault-free run");
    }
}
