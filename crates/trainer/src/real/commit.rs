//! The commit protocol: which optimizer steps are applied, and by whom.
//!
//! Crash tolerance needs one decision every survivor shares: when a
//! rank dies mid-step — a SIGKILLed process, or a rank thread whose
//! injected crash hangs it up — some survivors may have finished the
//! collective while others must abort. Under e.g. recursive doubling
//! the dead rank's last sends can complete one survivor's exchange
//! posthumously (queued bytes drain before the EOF). If each survivor
//! decided alone, they would diverge. So the optimizer update is gated
//! by a coordinator over each worker's control stream:
//!
//! 1. A worker that completes step `s`'s exchange sends `Vote{s, era}`
//!    and *waits* — it does not apply the update.
//! 2. The coordinator broadcasts `Commit{s}` only when every live
//!    worker has voted for `s` in the current era.
//! 3. On a worker death (control-stream EOF, or heartbeat silence) the
//!    coordinator instead bumps the era, discards the round's votes,
//!    and broadcasts `Degrade{dead, era}`.
//!
//! Control streams are ordered, so every survivor observes the same
//! prefix of `Commit`s before the `Degrade` — all survivors agree on
//! the degrade step `d` without any inter-worker agreement protocol,
//! and the optimizer is applied exactly once per step, on identical
//! bytes, at every survivor.
//!
//! This module is the only place that knows the protocol, and it is
//! the same protocol whether the workers are threads or processes. It
//! has four parts: the six control messages and their frames ([`Msg`]);
//! the coordinator as a pure state machine ([`Coordinator`]: events in,
//! actions out — no socket, clock, file or process in it, so a test or
//! a model drives it with plain values); the coordinator's event loop
//! ([`coordinate`]), which turns arrivals on an [`Inbox`] and the
//! silences of the control connections into [`Event`]s, sends the
//! machine's messages on those connections and hands its other
//! [`Action`]s to a [`Shell`]; and the worker's side of the
//! conversation over its control [`PeerConn`] (join the start barrier,
//! vote, wait for the verdict). The connections are sockets either way:
//! between processes for `bin/dist_train.rs`, whose shell kills
//! processes and writes files, and a `socketpair` per rank for
//! `try_train`, which needs no shell.

use std::collections::VecDeque;
use std::time::Duration;

use faults::RetryPolicy;
use transport::{Frame, FrameKind, Inbox, PeerConn, WireError};

// ------------------------------------------------------------- messages

/// One message of the control protocol. Every field travels in the
/// frame header except the dead list, which is the `Degrade` payload:
/// original ids as comma-separated decimal ASCII.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Msg {
    /// Worker → coordinator: mesh fully connected.
    Ready,
    /// Coordinator → workers: every rank is ready, begin step 0.
    Start,
    /// Worker → coordinator (`StepDone`): `step`'s exchange completed
    /// under `era`. The frame's `seq` repeats `step`.
    Vote { era: u32, step: u32 },
    /// Coordinator → workers: every live rank voted for `step`; apply it.
    Commit { era: u32, step: u32 },
    /// Coordinator → workers: `dead` died while `step` was open. Re-run
    /// it over the survivors under `era`.
    Degrade { era: u32, step: u32, dead: Vec<usize> },
    /// Worker → coordinator: all `steps` applied, results written.
    Finished { steps: u32 },
}

impl Msg {
    /// The frame this message travels as, from original id `from`.
    pub fn frame(&self, from: u16) -> Frame {
        match self {
            Msg::Ready => Frame::control(FrameKind::Ready, from, 0, 0),
            Msg::Start => Frame::control(FrameKind::Start, from, 0, 0),
            Msg::Vote { era, step } => {
                let mut f = Frame::control(FrameKind::StepDone, from, *era, *step);
                f.seq = u64::from(*step);
                f
            }
            Msg::Commit { era, step } => Frame::control(FrameKind::Commit, from, *era, *step),
            Msg::Degrade { era, step, dead } => {
                let mut f = Frame::control(FrameKind::Degrade, from, *era, *step);
                let ids: Vec<String> = dead.iter().map(ToString::to_string).collect();
                f.payload = ids.join(",").into_bytes();
                f
            }
            Msg::Finished { steps } => Frame::control(FrameKind::Finished, from, 0, *steps),
        }
    }

    /// Decode a control frame. Total: any frame of any kind with any
    /// payload is either a message or an error saying why not.
    pub fn parse(f: &Frame) -> Result<Msg, String> {
        match f.kind {
            FrameKind::Ready => Ok(Msg::Ready),
            FrameKind::Start => Ok(Msg::Start),
            FrameKind::StepDone if f.seq != u64::from(f.step) => {
                Err(format!("vote for step {} carries seq {}", f.step, f.seq))
            }
            FrameKind::StepDone => Ok(Msg::Vote { era: f.era, step: f.step }),
            FrameKind::Commit => Ok(Msg::Commit { era: f.era, step: f.step }),
            FrameKind::Degrade => {
                let text = std::str::from_utf8(&f.payload)
                    .map_err(|_| "degrade payload not utf-8".to_string())?;
                let dead = text
                    .split(',')
                    .filter(|p| !p.is_empty())
                    .map(|p| p.parse().map_err(|_| format!("bad dead id {p:?} in degrade")))
                    .collect::<Result<Vec<usize>, String>>()?;
                if dead.is_empty() {
                    return Err("degrade names nobody dead".into());
                }
                Ok(Msg::Degrade { era: f.era, step: f.step, dead })
            }
            FrameKind::Finished => Ok(Msg::Finished { steps: f.step }),
            other => Err(format!("{other:?} is not a control message")),
        }
    }
}

/// `1, 3`: a rank list as the JSON files print it.
pub(crate) fn id_list(ids: &[usize]) -> String {
    ids.iter().map(ToString::to_string).collect::<Vec<_>>().join(", ")
}

// ---------------------------------------------------------- coordinator

/// What the coordinator reacts to, about one rank at a time. Time
/// enters only as [`Event::Silent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// The rank sent `Ready`.
    Ready,
    /// The rank voted: `step`'s exchange completed under `era`.
    Vote { era: u32, step: u32 },
    /// The rank sent `Finished`.
    Finished,
    /// The rank's control stream ended (EOF after everything it
    /// carried), or a send to it failed.
    Gone,
    /// The rank has been quiet for too long: before `Start`, the
    /// barrier's deadline passed; after it, no frame of any kind for a
    /// death threshold.
    Silent,
}

impl Event {
    /// The event a frame on a rank's control stream stands for; `None`
    /// for the messages only a coordinator sends.
    pub fn from_frame(f: &Frame) -> Result<Option<Event>, String> {
        Ok(match Msg::parse(f)? {
            Msg::Ready => Some(Event::Ready),
            Msg::Vote { era, step } => Some(Event::Vote { era, step }),
            Msg::Finished { .. } => Some(Event::Finished),
            Msg::Start | Msg::Commit { .. } | Msg::Degrade { .. } => None,
        })
    }
}

/// What the coordinator wants done, in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Send `msg` to rank `to`. A failed send is that rank's
    /// [`Event::Gone`].
    Send { to: usize, msg: Msg },
    /// Chaos hook: SIGKILL this rank's process. Its death then arrives
    /// like any other, as `Gone` or `Silent`.
    Kill(usize),
    /// The rank was just declared dead; a `Degrade` naming it follows
    /// for every survivor still running.
    Dead(usize),
    /// The protocol broke down; the run cannot continue.
    Fail(String),
}

#[derive(Debug, Clone, Copy, Default)]
struct RankState {
    ready: bool,
    dead: bool,
    finished: bool,
    /// This era's vote, voided by every commit and degrade.
    vote: Option<u32>,
}

impl RankState {
    fn live(&self) -> bool {
        !self.dead && !self.finished
    }
}

/// The commit coordinator as a state machine: the start barrier, vote
/// collection, `Commit` / `Degrade` arbitration and the chaos kill
/// trigger. [`Coordinator::on`] is its only transition function.
///
/// | state | event | actions |
/// |---|---|---|
/// | barrier | `Ready` from the last unready rank | `Start` to all → running |
/// | barrier | `Gone`; `Silent` of an unready rank; `Vote`; `Finished` | `Fail` |
/// | running | current-era `Vote` completing the live set's votes for one step `s` | `Commit{s}` to every live rank; votes voided; step = `s + 1` |
/// | running | current-era votes for different steps | `Fail` (split vote) |
/// | running | first current-era `Vote` for the kill step, victim live | `Kill(victim)`; the victim's vote is voided and it may not vote again, so step stays open until its death arrives |
/// | running | `Gone` / `Silent` of a live rank | `Dead(r)`; era + 1; votes voided; `Degrade{era, step, [r]}` to every other live rank |
/// | running | `Finished` | the rank leaves the live set |
/// | any | anything about a dead or finished rank; stale-era `Vote` | none |
#[derive(Debug, Clone)]
pub struct Coordinator {
    ranks: Vec<RankState>,
    started: bool,
    era: u32,
    /// The step the live ranks are voting on: last committed + 1.
    step: u32,
    /// `(rank, step)` the chaos trigger is armed for.
    kill: Option<(usize, u32)>,
    /// The rank the trigger fired at: live until its death arrives, but
    /// its vote no longer counts.
    condemned: Option<usize>,
    degrades: Vec<(u32, Vec<usize>)>,
}

impl Coordinator {
    /// A coordinator for ranks `0..workers`, in the barrier state.
    /// `kill = (rank, step)` arms the chaos trigger.
    pub fn new(workers: usize, kill: Option<(usize, u32)>) -> Self {
        Coordinator {
            ranks: vec![RankState::default(); workers],
            started: false,
            era: 0,
            step: 0,
            kill,
            condemned: None,
            degrades: Vec::new(),
        }
    }

    /// A run resumed over `live` only — a checkpoint taken after a
    /// degrade: every other rank is dead from the start, owes the
    /// barrier nothing and is never degraded again.
    pub fn with_live(mut self, live: &[usize]) -> Self {
        for (rank, state) in self.ranks.iter_mut().enumerate() {
            state.dead = !live.contains(&rank);
        }
        self
    }

    /// Neither dead nor finished: the rank's silence still matters.
    pub fn is_live(&self, rank: usize) -> bool {
        self.ranks[rank].live()
    }

    /// `Start` has been broadcast.
    pub fn started(&self) -> bool {
        self.started
    }

    /// Every rank has finished or died.
    pub fn done(&self) -> bool {
        self.ranks.iter().all(|s| !s.live())
    }

    /// Ranks not declared dead, ascending.
    pub fn survivors(&self) -> Vec<usize> {
        (0..self.ranks.len()).filter(|&r| !self.ranks[r].dead).collect()
    }

    /// Every degrade so far: the step that was open, and who died.
    pub fn degrades(&self) -> &[(u32, Vec<usize>)] {
        &self.degrades
    }

    /// The run's `summary.json`: who survived, and each degrade's step
    /// and dead — what a test needs to replay the same fault threaded.
    pub fn summary_json(&self) -> String {
        let degrades: Vec<String> = self
            .degrades
            .iter()
            .map(|(step, dead)| format!("{{\"step\": {step}, \"dead\": [{}]}}", id_list(dead)))
            .collect();
        format!(
            "{{\n  \"workers\": {},\n  \"survivors\": [{}],\n  \"degrades\": [{}]\n}}\n",
            self.ranks.len(),
            id_list(&self.survivors()),
            degrades.join(", ")
        )
    }

    fn live_ranks(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.ranks.len()).filter(|&r| self.ranks[r].live())
    }

    /// Apply one event about `rank`; returns what to do about it, in
    /// order.
    pub fn on(&mut self, rank: usize, ev: Event) -> Vec<Action> {
        let mut out = Vec::new();
        // Posthumous votes from kernel-buffered bytes, the EOF of a
        // rank already declared silent, the exit of a finished worker.
        if !self.ranks[rank].live() {
            return out;
        }
        match ev {
            Event::Ready if !self.started => {
                self.ranks[rank].ready = true;
                if self.ranks.iter().all(|s| s.ready || s.dead) {
                    self.started = true;
                    out.extend(self.live_ranks().map(|to| Action::Send { to, msg: Msg::Start }));
                }
            }
            Event::Ready => {}
            // A ready rank waits for `Start` and beacons while it does;
            // silence before `Start` blames only an unready one.
            Event::Silent if !self.started => {
                if !self.ranks[rank].ready {
                    out.push(Action::Fail(format!("rank {rank} never became ready")));
                }
            }
            // Before `Start` there is nothing to degrade to.
            _ if !self.started => {
                out.push(Action::Fail(format!("rank {rank}: {ev:?} before Start")));
            }
            Event::Vote { era, step } => {
                if era != self.era || self.condemned == Some(rank) {
                    return out; // stale vote from before a degrade, or a doomed rank's
                }
                self.ranks[rank].vote = Some(step);
                // Chaos hook: the first current-era vote for the kill
                // step pulls the trigger — the victim may be computing,
                // mid-exchange, or already voted. Voiding its vote keeps
                // the step open until its death arrives in order on its
                // own stream, behind everything it shipped.
                match self.kill {
                    Some((victim, at)) if at == step && self.ranks[victim].live() => {
                        self.kill = None;
                        self.condemned = Some(victim);
                        self.ranks[victim].vote = None;
                        out.push(Action::Kill(victim));
                    }
                    _ => self.try_commit(&mut out),
                }
            }
            Event::Finished => self.ranks[rank].finished = true,
            Event::Gone | Event::Silent => self.degrade(rank, &mut out),
        }
        out
    }

    /// Broadcast `Commit` once every live rank has voted this era.
    fn try_commit(&mut self, out: &mut Vec<Action>) {
        let votes: Vec<(usize, Option<u32>)> =
            self.live_ranks().map(|r| (r, self.ranks[r].vote)).collect();
        let Some(&(first, Some(step))) = votes.first() else { return };
        if votes.iter().any(|(_, v)| v.is_none()) {
            return;
        }
        if let Some((r, v)) = votes.iter().find(|(_, v)| *v != Some(step)) {
            out.push(Action::Fail(format!(
                "split vote: rank {r} at step {v:?}, rank {first} at step {step}"
            )));
            return;
        }
        let msg = Msg::Commit { era: self.era, step };
        out.extend(votes.iter().map(|&(to, _)| Action::Send { to, msg: msg.clone() }));
        self.step = step + 1;
        self.void_votes();
    }

    /// Declare `rank` dead: bump the era, void the round's votes, log
    /// the degrade, and announce it to every rank still running.
    fn degrade(&mut self, rank: usize, out: &mut Vec<Action>) {
        out.push(Action::Dead(rank));
        self.ranks[rank].dead = true;
        self.era += 1;
        self.void_votes();
        self.degrades.push((self.step, vec![rank]));
        let msg = Msg::Degrade { era: self.era, step: self.step, dead: vec![rank] };
        out.extend(self.live_ranks().map(|to| Action::Send { to, msg: msg.clone() }));
    }

    fn void_votes(&mut self) {
        for s in &mut self.ranks {
            s.vote = None;
        }
    }
}

// ----------------------------------------------------------- event loop

/// What the coordinator's actions touch besides the control streams:
/// the launcher's worker processes and telemetry plane. Every hook does
/// nothing unless implemented; an in-process run has none (`()`).
pub trait Shell {
    /// [`Action::Kill`]: kill `rank`'s process.
    fn kill(&mut self, _rank: usize) {}
    /// [`Action::Dead`]: the machine has just declared `rank` dead.
    fn dead(&mut self, _rank: usize) {}
    /// A telemetry snapshot arrived.
    fn telemetry(&mut self, _frame: &Frame) {}
}

impl Shell for () {}

/// The coordinator's event loop, until every rank has finished or died:
/// arrivals on `inbox` and the silences of `conns` — each rank's control
/// connection by original id, `None` for a rank a resumed run starts
/// without — become [`Event`]s; the machine's messages go out on
/// `conns` and its other [`Action`]s to `shell`. The one blocking wait
/// is on the inbox, woken at least every heartbeat interval of `pol`; a
/// rank is `Silent` past one death threshold of quiet, before `Start`
/// as after it: a worker beacons while it waits, in the start barrier
/// as in its steps, and goes quiet only when it computes or when it is
/// wedged. A send that fails is that rank's `Gone`. Returns the
/// machine's `Fail`, if any.
pub fn coordinate(
    machine: &mut Coordinator,
    inbox: &Inbox,
    conns: &[Option<PeerConn>],
    pol: &RetryPolicy,
    shell: &mut impl Shell,
) -> Result<(), String> {
    // The coordinator signs as no worker's id; nothing routes on it.
    let me = machine.ranks.len() as u16;
    let mut events: VecDeque<(usize, Event)> = VecDeque::new();
    while !machine.done() {
        // Telemetry is the rank body's, a side channel of the protocol:
        // it goes to the shell and never becomes an event.
        match inbox.recv_timeout(pol.heartbeat_interval()) {
            Some((_, Some(f))) if f.kind == FrameKind::Telemetry => shell.telemetry(&f),
            Some((rank, Some(f))) => {
                let ev = Event::from_frame(&f).map_err(|e| format!("rank {rank}: {e}"))?;
                events.extend(ev.map(|ev| (rank, ev)));
            }
            Some((rank, None)) => events.push_back((rank, Event::Gone)),
            None => {}
        }
        // Time enters as events. A worker beacons from every wait, and
        // its compute phases are far shorter than the bound, so
        // sustained silence means a rank body that stopped waiting.
        for (rank, conn) in conns.iter().enumerate() {
            let silent = conn.as_ref().is_some_and(|c| c.silence() > pol.death_threshold());
            if machine.is_live(rank) && silent {
                events.push_back((rank, Event::Silent));
            }
        }
        while let Some((rank, ev)) = events.pop_front() {
            for action in machine.on(rank, ev) {
                match action {
                    Action::Send { to, msg } => {
                        let sent =
                            conns[to].as_ref().is_some_and(|c| c.send(&msg.frame(me)).is_ok());
                        if !sent {
                            events.push_back((to, Event::Gone));
                        }
                    }
                    Action::Kill(rank) => shell.kill(rank),
                    Action::Dead(rank) => shell.dead(rank),
                    Action::Fail(why) => return Err(why),
                }
            }
        }
    }
    Ok(())
}

// --------------------------------------------------------------- worker

/// One elastic degradation as the worker observed it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradeRecord {
    /// The training step that was re-executed over the survivors.
    pub step: usize,
    /// Original ids declared dead by this degrade.
    pub dead: Vec<usize>,
    /// The era entered after the degrade.
    pub era: u32,
}

/// What a completed step's commit wait resolved to.
#[derive(Debug)]
pub enum Verdict {
    Commit,
    Degrade(DegradeRecord),
}

/// Worker side of the start barrier: announce `Ready`, then wait —
/// one death threshold at most — for `Start`.
pub fn join_barrier(ctl: &PeerConn, policy: &RetryPolicy, rank: usize) -> Result<(), String> {
    ctl.send(&Msg::Ready.frame(rank as u16)).map_err(|e| format!("ready: {e}"))?;
    let f = ctl
        .recv_timeout(policy.death_threshold())
        .map_err(|e| format!("waiting for start: {e}"))?;
    match Msg::parse(&f)? {
        Msg::Start => Ok(()),
        other => Err(format!("waiting for start: got {other:?}")),
    }
}

/// Tell the coordinator this rank applied all `steps` and wrote its
/// results.
pub fn report_finished(ctl: &PeerConn, rank: usize, steps: usize) -> Result<(), String> {
    ctl.send(&Msg::Finished { steps: steps as u32 }.frame(rank as u16))
        .map_err(|e| format!("finished: {e}"))
}

/// Vote: this rank completed `step`'s exchange under `era`.
pub fn vote(ctl: &PeerConn, rank: usize, era: u32, step: usize) -> Result<(), String> {
    ctl.send(&Msg::Vote { era, step: step as u32 }.frame(rank as u16))
        .map_err(|e| format!("vote for step {step} failed: {e}"))
}

/// The in-exchange poll: has the coordinator announced a degrade?
/// Never blocks. `Ok(None)` means carry on.
pub fn poll_degrade(ctl: &PeerConn, step: usize) -> Result<Option<DegradeRecord>, String> {
    let Ok(f) = ctl.recv_timeout(Duration::ZERO) else { return Ok(None) };
    Ok(match Msg::parse(&f)? {
        Msg::Degrade { era, dead, .. } => Some(DegradeRecord { step, dead, era }),
        _ => None,
    })
}

/// Block on the control stream until the coordinator resolves `step`.
/// Anything but that step's `Commit` or a `Degrade` is protocol
/// insanity.
pub fn await_verdict(ctl: &PeerConn, policy: &RetryPolicy, step: usize) -> Result<Verdict, String> {
    loop {
        match ctl.recv_timeout(policy.tick) {
            Ok(f) => match Msg::parse(&f)? {
                Msg::Commit { step: s, .. } if s as usize == step => return Ok(Verdict::Commit),
                Msg::Commit { step: s, .. } => {
                    return Err(format!("commit for step {s} while waiting on step {step}"))
                }
                Msg::Degrade { era, dead, .. } => {
                    return Ok(Verdict::Degrade(DegradeRecord { step, dead, era }))
                }
                other => return Err(format!("unexpected {other:?} while waiting on step {step}")),
            },
            // The coordinator may legitimately be waiting on slower
            // workers' compute; it beacons while it waits, so only
            // sustained silence condemns it.
            Err(WireError::Timeout) => {
                if ctl.silence() > policy.death_threshold().saturating_mul(4) {
                    return Err(format!(
                        "coordinator silent past the death threshold at step {step}"
                    ));
                }
            }
            Err(e) => return Err(format!("control stream failed at step {step}: {e}")),
        }
    }
}
