//! The commit coordinator driven with plain values: no process, no
//! socket, no sleep. Each case is a table of `(event, exact actions)`
//! rows, so the orders a SIGKILL sweep can only hit by luck — two
//! deaths in one step, a death while a degrade is still being answered,
//! a dead rank's kernel-buffered vote — are stated and replayed
//! directly. Two invariants are checked on every case's per-rank send
//! streams: every survivor saw the same `Commit` prefix before each
//! `Degrade`, and no `Commit{s}` left without a current-era vote for
//! `s` from every live rank.
//!
//! The frame half: `Msg::parse` is total over arbitrary frames and
//! round-trips `Msg::frame`, and the bytes of the three commit frames
//! are pinned.

use proptest::prelude::*;
use trainer::real::commit::{Action, Coordinator, DegradeRecord, Event, Msg};
use trainer::real::WorkerOutcome;
use transport::{Frame, FrameKind};

/// An event and the rank it is about.
type Ev = (usize, Event);

fn ready(rank: usize) -> Ev {
    (rank, Event::Ready)
}

fn vote(rank: usize, era: u32, step: u32) -> Ev {
    (rank, Event::Vote { era, step })
}

fn finished(rank: usize) -> Ev {
    (rank, Event::Finished)
}

fn gone(rank: usize) -> Ev {
    (rank, Event::Gone)
}

fn silent(rank: usize) -> Ev {
    (rank, Event::Silent)
}

fn send_all(to: &[usize], msg: Msg) -> Vec<Action> {
    to.iter().map(|&to| Action::Send { to, msg: msg.clone() }).collect()
}

fn start(to: &[usize]) -> Vec<Action> {
    send_all(to, Msg::Start)
}

fn commit(to: &[usize], era: u32, step: u32) -> Vec<Action> {
    send_all(to, Msg::Commit { era, step })
}

/// `dead` declared dead while `step` was open; `to` are told.
fn degrade(dead: usize, to: &[usize], era: u32, step: u32) -> Vec<Action> {
    let mut out = vec![Action::Dead(dead)];
    out.extend(send_all(to, Msg::Degrade { era, step, dead: vec![dead] }));
    out
}

/// The barrier rows every running case opens with.
fn barrier(n: usize) -> Vec<(Ev, Vec<Action>)> {
    let all: Vec<usize> = (0..n).collect();
    (0..n).map(|r| (ready(r), if r + 1 == n { start(&all) } else { vec![] })).collect()
}

struct Case {
    name: &'static str,
    workers: usize,
    kill: Option<(usize, u32)>,
    /// After the barrier: each event and exactly what it must produce.
    rows: Vec<(Ev, Vec<Action>)>,
    degrades: Vec<(u32, Vec<usize>)>,
    survivors: Vec<usize>,
    done: bool,
}

fn cases() -> Vec<Case> {
    vec![
        Case {
            name: "clean run",
            workers: 2,
            kill: None,
            rows: vec![
                (vote(1, 0, 0), vec![]),
                (vote(0, 0, 0), commit(&[0, 1], 0, 0)),
                (vote(0, 0, 1), vec![]),
                (vote(1, 0, 1), commit(&[0, 1], 0, 1)),
                (finished(0), vec![]),
                (gone(0), vec![]), // a finished worker's exit is not a death
                (finished(1), vec![]),
            ],
            degrades: vec![],
            survivors: vec![0, 1],
            done: true,
        },
        Case {
            name: "a rank dies between its vote and the commit",
            workers: 3,
            kill: None,
            rows: vec![
                (vote(0, 0, 0), vec![]),
                (vote(1, 0, 0), vec![]),
                (vote(2, 0, 0), commit(&[0, 1, 2], 0, 0)),
                // The send to rank 1 failed, or its EOF came: either way
                // the others applied step 0 and step 1 is what reruns.
                (gone(1), degrade(1, &[0, 2], 1, 1)),
                (vote(0, 1, 1), vec![]),
                (vote(2, 1, 1), commit(&[0, 2], 1, 1)),
            ],
            degrades: vec![(1, vec![1])],
            survivors: vec![0, 2],
            done: false,
        },
        Case {
            name: "two deaths in one step",
            workers: 4,
            kill: None,
            rows: vec![
                (vote(0, 0, 0), vec![]),
                (gone(1), degrade(1, &[0, 2, 3], 1, 0)),
                (gone(2), degrade(2, &[0, 3], 2, 0)),
                (vote(0, 2, 0), vec![]),
                (vote(3, 2, 0), commit(&[0, 3], 2, 0)),
            ],
            degrades: vec![(0, vec![1]), (0, vec![2])],
            survivors: vec![0, 3],
            done: false,
        },
        Case {
            name: "a death while a degrade is still being answered",
            workers: 4,
            kill: None,
            rows: vec![
                (gone(3), degrade(3, &[0, 1, 2], 1, 0)),
                (vote(0, 1, 0), vec![]), // rank 0 already re-ran step 0 under era 1
                (gone(1), degrade(1, &[0, 2], 2, 0)), // ...and its vote is voided with the round
                (vote(2, 1, 0), vec![]), // rank 2 answers the first degrade: stale by now
                (vote(2, 2, 0), vec![]),
                (vote(0, 2, 0), commit(&[0, 2], 2, 0)),
            ],
            degrades: vec![(0, vec![3]), (0, vec![1])],
            survivors: vec![0, 2],
            done: false,
        },
        Case {
            name: "posthumous StepDone from a rank already declared dead",
            workers: 3,
            kill: None,
            rows: vec![
                (vote(0, 0, 0), vec![]),
                (silent(2), degrade(2, &[0, 1], 1, 0)),
                (vote(2, 0, 0), vec![]), // kernel-buffered bytes drain before its EOF
                (vote(2, 1, 0), vec![]),
                (gone(2), vec![]), // the EOF of a rank already dead: no second degrade
                (vote(0, 1, 0), vec![]),
                (vote(1, 1, 0), commit(&[0, 1], 1, 0)),
            ],
            degrades: vec![(0, vec![2])],
            survivors: vec![0, 1],
            done: false,
        },
        Case {
            name: "a stale-era vote",
            workers: 3,
            kill: None,
            rows: vec![
                (vote(0, 0, 0), vec![]),
                (vote(1, 0, 0), vec![]),
                (gone(2), degrade(2, &[0, 1], 1, 0)),
                (vote(0, 1, 0), vec![]),
                (vote(1, 0, 0), vec![]), // sent before rank 1 saw the degrade: must not count
                (vote(1, 1, 0), commit(&[0, 1], 1, 0)),
            ],
            degrades: vec![(0, vec![2])],
            survivors: vec![0, 1],
            done: false,
        },
        Case {
            name: "a split vote",
            workers: 3,
            kill: None,
            rows: vec![
                (vote(0, 0, 0), vec![]),
                (vote(1, 0, 1), vec![]), // not judged until every live rank has voted
                (
                    vote(2, 0, 0),
                    vec![Action::Fail(
                        "split vote: rank 1 at step Some(1), rank 0 at step 0".into(),
                    )],
                ),
            ],
            degrades: vec![],
            survivors: vec![0, 1, 2],
            done: false,
        },
        Case {
            name: "Finished from some ranks while others still vote",
            workers: 3,
            kill: None,
            rows: vec![
                (vote(0, 0, 0), vec![]),
                (vote(1, 0, 0), vec![]),
                (vote(2, 0, 0), commit(&[0, 1, 2], 0, 0)),
                (finished(0), vec![]),
                (vote(1, 0, 1), vec![]),
                (vote(0, 0, 1), vec![]), // a finished rank has left the quorum
                (vote(2, 0, 1), commit(&[1, 2], 0, 1)),
                (gone(2), degrade(2, &[1], 1, 2)), // the finished rank is not told
                (finished(1), vec![]),
            ],
            degrades: vec![(2, vec![2])],
            survivors: vec![0, 1],
            done: true,
        },
        Case {
            name:
                "the kill trigger fires on the first vote for the kill step, victim not yet voted",
            workers: 4,
            kill: Some((2, 1)),
            rows: vec![
                (vote(2, 0, 0), vec![]),
                (vote(0, 0, 0), vec![]),
                (vote(1, 0, 0), vec![]),
                (vote(3, 0, 0), commit(&[0, 1, 2, 3], 0, 0)),
                (vote(3, 0, 1), vec![Action::Kill(2)]),
                (vote(0, 0, 1), vec![]),
                (vote(2, 0, 1), vec![]), // finished its exchange before the signal landed: doomed
                (vote(1, 0, 1), vec![]), // every vote is in, and step 1 still stays open
                (gone(2), degrade(2, &[0, 1, 3], 1, 1)),
                (vote(0, 1, 1), vec![]),
                (vote(1, 1, 1), vec![]),
                (vote(3, 1, 1), commit(&[0, 1, 3], 1, 1)),
                (vote(3, 1, 1), vec![]), // the trigger fired once
            ],
            degrades: vec![(1, vec![2])],
            survivors: vec![0, 1, 3],
            done: false,
        },
        Case {
            name: "the kill trigger fires on the victim's own vote",
            workers: 2,
            kill: Some((1, 0)),
            rows: vec![
                (vote(1, 0, 0), vec![Action::Kill(1)]),
                (vote(0, 0, 0), vec![]), // the victim's vote was voided with the trigger
                (silent(1), degrade(1, &[0], 1, 0)), // no EOF ever came: silence does it
                (vote(0, 1, 0), commit(&[0], 1, 0)),
            ],
            degrades: vec![(0, vec![1])],
            survivors: vec![0],
            done: false,
        },
        Case {
            name: "the kill trigger does not fire at a victim already dead",
            workers: 3,
            kill: Some((2, 0)),
            rows: vec![
                (gone(2), degrade(2, &[0, 1], 1, 0)),
                (vote(0, 1, 0), vec![]),
                (vote(1, 1, 0), commit(&[0, 1], 1, 0)),
            ],
            degrades: vec![(0, vec![2])],
            survivors: vec![0, 1],
            done: false,
        },
        Case {
            name: "every worker dies",
            workers: 2,
            kill: None,
            rows: vec![(gone(0), degrade(0, &[1], 1, 0)), (silent(1), degrade(1, &[], 2, 0))],
            degrades: vec![(0, vec![0]), (0, vec![1])],
            survivors: vec![],
            done: true,
        },
    ]
}

/// What the invariants need to know, kept by the test, not read back
/// from the machine.
struct Observer {
    era: u32,
    out_of_quorum: Vec<bool>,
    /// Current-era vote per rank since the last commit or degrade.
    votes: Vec<Option<u32>>,
    /// Everything each rank was sent, in order.
    sent: Vec<Vec<Msg>>,
}

impl Observer {
    fn new(n: usize) -> Self {
        Observer {
            era: 0,
            out_of_quorum: vec![false; n],
            votes: vec![None; n],
            sent: vec![vec![]; n],
        }
    }

    fn before(&mut self, (rank, ev): Ev) {
        match ev {
            Event::Vote { era, step } if era == self.era && !self.out_of_quorum[rank] => {
                self.votes[rank] = Some(step);
            }
            Event::Finished => self.out_of_quorum[rank] = true,
            _ => {}
        }
    }

    fn after(&mut self, name: &str, actions: &[Action]) {
        let mut committed = false;
        for a in actions {
            match a {
                Action::Send { to, msg } => {
                    if let Msg::Commit { era, step } = msg {
                        assert_eq!(*era, self.era, "{name}: commit under a stale era");
                        for (r, v) in self.votes.iter().enumerate() {
                            assert!(
                                self.out_of_quorum[r] || *v == Some(*step),
                                "{name}: Commit{{{step}}} without a current-era vote from rank {r}"
                            );
                        }
                        committed = true;
                    }
                    assert!(!self.out_of_quorum[*to], "{name}: {msg:?} sent to rank {to}");
                    self.sent[*to].push(msg.clone());
                }
                Action::Dead(r) => {
                    self.out_of_quorum[*r] = true;
                    self.era += 1;
                    self.votes.fill(None);
                }
                Action::Kill(_) | Action::Fail(_) => {}
            }
        }
        if committed {
            self.votes.fill(None);
        }
    }

    /// Every rank that was sent `Degrade{era}` was sent the same
    /// commits before it.
    fn assert_same_prefix_before_each_degrade(&self, name: &str) {
        let mut prefix_at: Vec<Option<Vec<u32>>> = Vec::new();
        for (rank, stream) in self.sent.iter().enumerate() {
            let mut commits: Vec<u32> = Vec::new();
            for msg in stream {
                match msg {
                    Msg::Commit { step, .. } => commits.push(*step),
                    Msg::Degrade { era, .. } => {
                        let era = *era as usize;
                        prefix_at.resize(prefix_at.len().max(era + 1), None);
                        let first = prefix_at[era].get_or_insert_with(|| commits.clone());
                        assert_eq!(*first, commits, "{name}: rank {rank} before Degrade era {era}");
                    }
                    _ => {}
                }
            }
        }
    }
}

#[test]
fn coordinator_cases() {
    for case in cases() {
        let name = case.name;
        let mut machine = Coordinator::new(case.workers, case.kill);
        let mut seen = Observer::new(case.workers);
        for (i, (ev, want)) in barrier(case.workers).into_iter().chain(case.rows).enumerate() {
            seen.before(ev);
            let got = machine.on(ev.0, ev.1);
            assert_eq!(got, want, "{name}: row {i}: {ev:?}");
            seen.after(name, &got);
        }
        assert!(machine.started(), "{name}");
        assert_eq!(machine.degrades(), case.degrades, "{name}");
        assert_eq!(machine.survivors(), case.survivors, "{name}");
        assert_eq!(machine.done(), case.done, "{name}");
        seen.assert_same_prefix_before_each_degrade(name);
    }
}

/// Before `Start` there is nothing to degrade to: a rank that leaves,
/// never reports, or talks out of turn fails the launch.
#[test]
fn the_barrier_fails_rather_than_degrades() {
    let cases: [(&[Ev], &str); 4] = [
        (&[ready(0), gone(1)], "rank 1: Gone before Start"),
        (&[ready(0), gone(0)], "rank 0: Gone before Start"),
        (&[ready(1), silent(1), silent(0)], "rank 0 never became ready"),
        (&[ready(0), vote(0, 0, 0)], "rank 0: Vote { era: 0, step: 0 } before Start"),
    ];
    for (events, why) in cases {
        let mut machine = Coordinator::new(2, None);
        let mut last = Vec::new();
        for &ev in events {
            assert!(last.is_empty(), "{events:?}: {last:?} before {ev:?}");
            last = machine.on(ev.0, ev.1);
        }
        assert_eq!(last, [Action::Fail(why.into())], "{events:?}");
        assert!(!machine.started());
    }
}

/// `summary.json` and `result_r<rank>.json`, byte for byte: tests, CI
/// greps and the benchmark read them.
#[test]
fn output_documents_are_pinned() {
    let mut machine = Coordinator::new(4, None);
    for ev in [ready(0), ready(1), ready(2), ready(3), gone(1), vote(0, 1, 0), silent(2)] {
        machine.on(ev.0, ev.1);
    }
    assert_eq!(
        machine.summary_json(),
        "{\n  \"workers\": 4,\n  \"survivors\": [0, 3],\n  \
         \"degrades\": [{\"step\": 0, \"dead\": [1]}, {\"step\": 0, \"dead\": [2]}]\n}\n"
    );
    assert_eq!(
        Coordinator::new(2, None).summary_json(),
        "{\n  \"workers\": 2,\n  \"survivors\": [0, 1],\n  \"degrades\": []\n}\n"
    );
    let outcome = WorkerOutcome {
        rank: 3,
        final_params: vec![],
        step_losses: vec![0.5, 1.0 / 3.0],
        survivors: vec![0, 3],
        degradations: vec![DegradeRecord { step: 7, dead: vec![1, 2], era: 1 }],
        curve: vec![],
        killed: false,
    };
    assert_eq!(
        outcome.result_json(),
        "{\n  \"rank\": 3,\n  \"survivors\": [0, 3],\n  \
         \"degrades\": [{\"step\": 7, \"dead\": [1, 2], \"era\": 1}],\n  \
         \"losses\": [5.00000000000000000e-1, 3.33333333333333315e-1]\n}\n"
    );
}

/// The bytes the three commit frames travel as.
#[test]
fn commit_frames_are_pinned() {
    let f = Msg::Vote { era: 3, step: 17 }.frame(2);
    let want = Frame { seq: 17, ..Frame::control(FrameKind::StepDone, 2, 3, 17) };
    assert_eq!(f, want);
    assert_eq!(
        Msg::Commit { era: 3, step: 17 }.frame(4),
        Frame::control(FrameKind::Commit, 4, 3, 17)
    );
    for (dead, payload) in [(vec![2], "2"), (vec![1, 3], "1,3"), (vec![65535, 0], "65535,0")] {
        let f = Msg::Degrade { era: 1, step: 9, dead }.frame(4);
        let mut want = Frame::control(FrameKind::Degrade, 4, 1, 9);
        want.payload = payload.as_bytes().to_vec();
        assert_eq!(f, want);
    }
    for bad in ["", ",", "x", "1,,x", "-1", "1;2", "99999999999999999999999"] {
        let mut f = Frame::control(FrameKind::Degrade, 4, 1, 9);
        f.payload = bad.as_bytes().to_vec();
        assert!(Msg::parse(&f).is_err(), "{bad:?} parsed");
    }
    let mut vote = Msg::Vote { era: 0, step: 5 }.frame(0);
    vote.seq = 4;
    assert!(Msg::parse(&vote).is_err(), "a vote whose seq is not its step");
}

fn msg_strategy() -> impl Strategy<Value = Msg> {
    let (era, step) = (0u32..u32::MAX, 0u32..u32::MAX);
    prop_oneof![
        Just(Msg::Ready),
        Just(Msg::Start),
        (era.clone(), step.clone()).prop_map(|(era, step)| Msg::Vote { era, step }),
        (era.clone(), step.clone()).prop_map(|(era, step)| Msg::Commit { era, step }),
        (era, step.clone(), prop::collection::vec(0usize..1 << 20, 1..6))
            .prop_map(|(era, step, dead)| Msg::Degrade { era, step, dead }),
        step.prop_map(|steps| Msg::Finished { steps }),
    ]
}

/// Any frame at all: every kind, with the payload leaning towards
/// almost-valid id lists.
fn frame_strategy() -> impl Strategy<Value = Frame> {
    let kind = prop::sample::select(vec![
        FrameKind::Data,
        FrameKind::Ack,
        FrameKind::Nack,
        FrameKind::Heartbeat,
        FrameKind::Hello,
        FrameKind::Welcome,
        FrameKind::Ready,
        FrameKind::Start,
        FrameKind::StepDone,
        FrameKind::StepDone,
        FrameKind::Commit,
        FrameKind::Commit,
        FrameKind::Degrade,
        FrameKind::Degrade,
        FrameKind::Degrade,
        FrameKind::Finished,
        FrameKind::Telemetry,
    ]);
    let payload = prop_oneof![
        prop::collection::vec(0u8..=255, 0..48),
        prop::collection::vec(prop::sample::select(b"0123456789,,- x".to_vec()), 0..24),
    ];
    (kind, 0u16..=u16::MAX, 0u32..8, 0u64..40, (0u32..40, 0u32..4, 0u32..4), payload).prop_map(
        |(kind, from, era, seq, (step, round, offset), payload)| Frame {
            kind,
            from,
            era,
            seq,
            step,
            round,
            offset,
            payload,
            slot: None,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn every_message_round_trips_its_frame(msg in msg_strategy(), from in 0u16..=u16::MAX) {
        let f = msg.frame(from);
        prop_assert_eq!(f.from, from);
        prop_assert_eq!(Msg::parse(&f), Ok(msg));
    }

    /// Total: arbitrary bytes are a message or an error, never a
    /// panic; and whatever parses is what its own encoding parses to.
    #[test]
    fn parse_is_total_over_arbitrary_frames(f in frame_strategy()) {
        if let Ok(msg) = Msg::parse(&f) {
            prop_assert_eq!(Msg::parse(&msg.frame(f.from)), Ok(msg));
        }
        prop_assert_eq!(Event::from_frame(&f).is_ok(), Msg::parse(&f).is_ok());
    }
}
