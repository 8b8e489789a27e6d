//! Static analysis for collective-communication schedules.
//!
//! The paper's scaling claims assume every swept configuration (fusion
//! threshold, chunking, algorithm, hierarchy shape) compiles to a
//! *correct* allreduce schedule — a silently wrong one corrupts
//! gradients while still producing plausible timing numbers. This crate
//! proves the correctness part statically, before any executor runs:
//!
//! * [`structural`] — per-round well-formedness: rank counts, peer and
//!   segment bounds, send/receive matching, one message per ordered
//!   pair per round;
//! * [`determinism`] — reduction-order determinism: no rank has
//!   order-sensitive overlapping receives, plus a combine-order
//!   [`determinism::fingerprint`];
//! * [`hb`] — deadlock-freedom as a happens-before proof: the waits-for
//!   graph over receives is acyclic under in-order action issue (a
//!   strictly stronger model than the executor's send-hoisting);
//! * [`coverage`] — contribution dataflow for *allreduce* schedules:
//!   every rank ends holding exactly one copy of every rank's initial
//!   contribution on every element (no double-counted, no orphaned
//!   offsets).
//!
//! The first three hold for any schedule (including sub-collectives
//! like a standalone reduce-scatter) and make up [`verify`]; coverage
//! asserts the full allreduce postcondition and is added by
//! [`verify_allreduce`]. Analyses consume the [`ir::Schedule`] IR;
//! `collectives::Schedule::validate` converts and delegates here, so
//! every call site in the workspace gets the layered checks. Findings
//! are structured [`Violation`] diagnostics, never panics.

pub mod coverage;
pub mod determinism;
pub mod diag;
pub mod hb;
pub mod ir;
pub mod structural;

pub use diag::{Rule, Span, Violation};

/// Run the universal layers: structural, determinism, happens-before.
///
/// Structural violations short-circuit the deeper layers — both deeper
/// analyses assume the send/receive matching that structural soundness
/// establishes, so running them on a malformed schedule would report
/// noise rather than causes.
pub fn verify(s: &ir::Schedule) -> Vec<Violation> {
    let mut out = structural::check(s);
    if !out.is_empty() {
        return out;
    }
    out.extend(determinism::check(s));
    out.extend(hb::check(s));
    out
}

/// [`verify`] plus the allreduce contribution-coverage postcondition:
/// use this for schedules that claim to be a complete allreduce.
pub fn verify_allreduce(s: &ir::Schedule) -> Vec<Violation> {
    let mut out = verify(s);
    if out.is_empty() {
        out.extend(coverage::check(s));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{Op, OpKind, Schedule};

    fn op(kind: OpKind, peer: usize, offset: usize, len: usize) -> Op {
        Op { kind, peer, offset, len }
    }

    fn exchange(n_elems: usize) -> Schedule {
        let mut s = Schedule::new(2, n_elems);
        let r = s.push_round();
        s.push_op(r, 0, op(OpKind::Send, 1, 0, n_elems));
        s.push_op(r, 0, op(OpKind::RecvReduce, 1, 0, n_elems));
        s.push_op(r, 1, op(OpKind::Send, 0, 0, n_elems));
        s.push_op(r, 1, op(OpKind::RecvReduce, 0, 0, n_elems));
        s
    }

    #[test]
    fn clean_schedule_passes_all_layers() {
        assert_eq!(verify_allreduce(&exchange(8)), Vec::new());
    }

    #[test]
    fn structural_failure_short_circuits() {
        // Dropping rank 1 entirely breaks matching AND coverage AND
        // would confuse hb; only the structural causes are reported.
        let mut s = exchange(8);
        s.rounds[0][1].clear();
        let v = verify_allreduce(&s);
        assert!(!v.is_empty());
        assert!(v.iter().all(|x| matches!(x.rule, Rule::UnmatchedSend | Rule::UnmatchedRecv)));
    }

    #[test]
    fn coverage_runs_only_in_allreduce_mode() {
        // A structurally perfect second exchange round double-counts —
        // invisible to `verify`, caught by `verify_allreduce`.
        let mut s = exchange(8);
        let r1 = s.rounds[0].clone();
        s.rounds.push(r1);
        assert_eq!(verify(&s), Vec::new());
        let v = verify_allreduce(&s);
        assert!(v.iter().any(|x| x.rule == Rule::DoubleContribution));
    }

    #[test]
    fn partial_collective_passes_universal_layers() {
        // A lone reduce-into-root (no broadcast back) is a fine
        // *schedule*, just not a complete allreduce.
        let mut s = Schedule::new(2, 4);
        let r = s.push_round();
        s.push_op(r, 1, op(OpKind::Send, 0, 0, 4));
        s.push_op(r, 0, op(OpKind::RecvReduce, 1, 0, 4));
        assert_eq!(verify(&s), Vec::new());
        let v = verify_allreduce(&s);
        assert!(v.iter().any(|x| x.rule == Rule::MissingContribution));
    }

    #[test]
    fn empty_and_single_rank_schedules_are_clean() {
        assert_eq!(verify_allreduce(&Schedule::new(1, 100)), Vec::new());
        assert_eq!(verify_allreduce(&Schedule::new(5, 0)), Vec::new());
        let mut s = Schedule::new(1, 4);
        s.push_round();
        assert_eq!(verify_allreduce(&s), Vec::new());
    }
}
