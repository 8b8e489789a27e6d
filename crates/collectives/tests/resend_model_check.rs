//! Bounded model check of the resend/ack protocol — the one
//! `PeerExecutor` implements (see `crates/collectives/src/exec_peer.rs`)
//! for the threaded fault path and the socket path alike — via the
//! vendored explicit-state checker (`vendor/interleave`).
//!
//! The model is the wire protocol distilled to its atomic actions: each
//! sender assigns consecutive sequence numbers, keeps a resend buffer of
//! sent-but-unacked payloads, and answers NACKs by re-sending the clean
//! copy; the receiver applies in sequence order, ACKs every delivery,
//! discards duplicates idempotently, and NACKs a sequence number it can
//! prove lost (sent, not applied, nothing in flight — the model's
//! timeout). An adversary drops and duplicates in-flight payloads under
//! a bounded budget.
//!
//! Checked exhaustively over every interleaving:
//!
//! * **No duplicate apply** — no payload is ever combined into the
//!   destination twice (gradient corruption).
//! * **No lost gradient** — every payload the protocol claims finished
//!   was applied exactly once; a silently lost payload shows up as a
//!   deadlock (the receiver can never complete), which the checker
//!   reports with a minimal schedule.
//!
//! Two mutants must be *refuted*: a sender that ignores NACKs
//! (drop-without-retry ⇒ deadlock under loss) and a receiver that
//! applies duplicates (⇒ invariant violation under duplication).

use interleave::{check, Model, Options, Step, Verdict};

/// Payloads per sender lane. Two is enough to exercise ordering,
/// dedup, and the resend buffer holding several entries.
const M: u8 = 2;

/// Full protocol state: wire + control queues plus every agent's
/// locals. One "lane" per sender; the receiver handles lanes
/// independently (per-peer sequence tracking, as in the executor).
#[derive(Clone, Hash, PartialEq, Eq, Debug)]
struct St {
    /// In-flight payload seqs per lane, FIFO.
    wire: Vec<Vec<u8>>,
    /// ACKed seqs travelling back per lane, FIFO.
    acks: Vec<Vec<u8>>,
    /// NACKed seqs travelling back per lane, FIFO.
    nacks: Vec<Vec<u8>>,
    /// Next seq each sender will send.
    next: Vec<u8>,
    /// Sent-but-unacked seqs per lane (the resend buffer).
    pending: Vec<Vec<u8>>,
    /// Receiver's next expected seq per lane.
    expected: Vec<u8>,
    /// Times each (lane, seq) payload was applied.
    applied: Vec<[u8; M as usize]>,
    /// Remaining adversary budgets.
    drops: u8,
    dups: u8,
}

/// The protocol (or a mutant of it) under bounded adversarial faults.
struct ResendModel {
    senders: usize,
    drops: u8,
    dups: u8,
    /// false ⇒ the drop-without-retry mutant: NACKs are ignored.
    retry: bool,
    /// false ⇒ the no-dedup mutant: duplicates are applied again.
    dedup: bool,
}

impl ResendModel {
    fn correct(senders: usize, drops: u8, dups: u8) -> Self {
        ResendModel { senders, drops, dups, retry: true, dedup: true }
    }
}

impl Model for ResendModel {
    type State = St;

    fn initial(&self) -> St {
        let n = self.senders;
        St {
            wire: vec![Vec::new(); n],
            acks: vec![Vec::new(); n],
            nacks: vec![Vec::new(); n],
            next: vec![0; n],
            pending: vec![Vec::new(); n],
            expected: vec![0; n],
            applied: vec![[0; M as usize]; n],
            drops: self.drops,
            dups: self.dups,
        }
    }

    /// Per lane: sender, receiver, dropper, duplicator.
    fn n_threads(&self) -> usize {
        self.senders * 4
    }

    fn step(&self, s: &St, tid: usize) -> Step<St> {
        let lane = tid % self.senders;
        let mut st = s.clone();
        match tid / self.senders {
            // Sender: service ctl traffic first, then send fresh seqs,
            // then wait for the resend buffer to drain.
            0 => {
                if let Some(a) = take_front(&mut st.acks[lane]) {
                    st.pending[lane].retain(|&q| q != a);
                    Step::Ready(st)
                } else if let Some(q) = take_front(&mut st.nacks[lane]) {
                    if self.retry && st.pending[lane].contains(&q) {
                        st.wire[lane].push(q); // resend the clean copy
                    }
                    Step::Ready(st)
                } else if st.next[lane] < M {
                    let q = st.next[lane];
                    st.wire[lane].push(q);
                    st.pending[lane].push(q);
                    st.next[lane] += 1;
                    Step::Ready(st)
                } else if st.pending[lane].is_empty() {
                    Step::Done
                } else {
                    Step::Blocked // awaiting acks
                }
            }
            // Receiver (per-peer loop): apply in order, ack everything,
            // drop duplicates, nack provable losses.
            1 => {
                if let Some(q) = take_front(&mut st.wire[lane]) {
                    if q == st.expected[lane] {
                        st.applied[lane][q as usize] += 1;
                        st.expected[lane] += 1;
                        st.acks[lane].push(q);
                    } else if q < st.expected[lane] {
                        // Duplicate: idempotent discard, re-ack so the
                        // sender's resend buffer still drains.
                        if !self.dedup {
                            st.applied[lane][q as usize] += 1; // mutant
                        }
                        st.acks[lane].push(q);
                    }
                    return Step::Ready(st);
                }
                let e = st.expected[lane];
                if e < M {
                    // Timeout model: `e` was sent, is not applied, and
                    // nothing is in flight ⇒ it was dropped. One
                    // outstanding NACK per lane, like one pending
                    // deadline per blocked receive.
                    let lost = st.pending[lane].contains(&e) && st.nacks[lane].is_empty();
                    if self.retry && lost {
                        st.nacks[lane].push(e);
                        return Step::Ready(st);
                    }
                    return Step::Blocked;
                }
                Step::Done
            }
            // Dropper: consume an in-flight payload, within budget.
            2 => {
                if st.drops > 0 && !st.wire[lane].is_empty() {
                    st.wire[lane].remove(0);
                    st.drops -= 1;
                    Step::Ready(st)
                } else {
                    Step::Done
                }
            }
            // Duplicator: re-deliver the oldest in-flight payload
            // behind itself, within budget.
            _ => {
                if st.dups > 0 && !st.wire[lane].is_empty() {
                    let q = st.wire[lane][0];
                    st.wire[lane].push(q);
                    st.dups -= 1;
                    Step::Ready(st)
                } else {
                    Step::Done
                }
            }
        }
    }

    fn invariant(&self, s: &St) -> Result<(), String> {
        for lane in 0..self.senders {
            for (q, &n) in s.applied[lane].iter().enumerate() {
                if n > 1 {
                    return Err(format!("lane {lane} seq {q} applied {n} times"));
                }
                // Everything the receiver has moved past must be in.
                if (q as u8) < s.expected[lane] && n != 1 {
                    return Err(format!("lane {lane} seq {q} passed but applied {n} times"));
                }
            }
        }
        Ok(())
    }
}

fn take_front(q: &mut Vec<u8>) -> Option<u8> {
    if q.is_empty() {
        None
    } else {
        Some(q.remove(0))
    }
}

#[test]
fn two_rank_protocol_survives_drops_and_duplicates_exhaustively() {
    // One sender→receiver pair (2 ranks), 2 payloads, 2 drops + 1
    // duplication for the adversary: every interleaving must deliver
    // both payloads exactly once with no deadlock.
    let m = ResendModel::correct(1, 2, 1);
    let report = check(&m, Options::default()).unwrap_or_else(|v| panic!("{v}"));
    assert!(report.states > 100, "adversary actually explored: {report:?}");
    assert!(report.depth >= 2 * M as usize, "{report:?}");
}

#[test]
fn three_rank_protocol_keeps_lanes_independent() {
    // Two senders feeding one receiver (3 ranks): per-peer sequence
    // tracking must keep the lanes from corrupting each other while
    // the shared adversary budget roams across both.
    let m = ResendModel::correct(2, 1, 1);
    let report = check(&m, Options::default()).unwrap_or_else(|v| panic!("{v}"));
    assert!(report.states > 1_000, "cross-lane space explored: {report:?}");
}

#[test]
fn fault_free_run_has_no_protocol_overhead_states() {
    // With no adversary budget the protocol is just FIFO delivery; it
    // must still pass, with a far smaller state space.
    let quiet = check(&ResendModel::correct(1, 0, 0), Options::default()).unwrap();
    let noisy = check(&ResendModel::correct(1, 2, 1), Options::default()).unwrap();
    assert!(quiet.states < noisy.states, "{quiet:?} vs {noisy:?}");
}

#[test]
fn drop_without_retry_mutant_is_refuted() {
    // Sender that ignores NACKs: a single dropped payload must wedge
    // the collective — the checker finds the deadlock schedule.
    let mutant = ResendModel { retry: false, ..ResendModel::correct(1, 1, 0) };
    match check(&mutant, Options::default()) {
        Err(Verdict::Deadlock { schedule, state }) => {
            assert!(!schedule.is_empty());
            assert!(state.expected[0] < M, "receiver is stuck short of completion: {state:?}");
        }
        other => panic!("drop-without-retry must deadlock, got {other:?}"),
    }
}

#[test]
fn apply_without_dedup_mutant_is_refuted() {
    // Receiver that applies duplicates: one duplicated payload must
    // violate the exactly-once invariant.
    let mutant = ResendModel { dedup: false, ..ResendModel::correct(1, 0, 1) };
    match check(&mutant, Options::default()) {
        Err(Verdict::InvariantViolated { reason, .. }) => {
            assert!(reason.contains("applied 2 times"), "{reason}");
        }
        other => panic!("no-dedup must violate exactly-once, got {other:?}"),
    }
}
