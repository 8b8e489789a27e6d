//! Elastic allreduce: graceful degradation when ranks die.
//!
//! [`ElasticAllreduce`] wraps one algorithm + executor pair and owns
//! the *survivor topology*: a sorted list of original rank ids that are
//! still alive. A call with no fault session is a plain traced
//! allreduce over that list. Under a [`FaultSession`], the buffers are
//! snapshotted before the attempt; if the fault-aware executor reports
//! [`ExecError::RanksDead`], the in-flight collective has already been
//! aborted, so the wrapper
//!
//! 1. restores every survivor's buffer from the snapshot (partial sums
//!    from the aborted attempt never leak),
//! 2. removes the dead ranks from the live set (and their buffers),
//! 3. rebuilds the schedule over the survivors with the *same*
//!    algorithm, re-runs the full static verifier on it
//!    ([`Schedule::verify_allreduce`]) — a degraded topology gets no
//!    less scrutiny than the original — and
//! 4. replaces the executor with one verified for the new schedule
//!    (the aborted attempt's rank set — mesh, executors, their queues —
//!    died with it; the retry builds a fresh one over the survivors'
//!    original ids),
//!
//! then retries. Because [`ReduceOp::Average`] finalizes by the
//! schedule's rank count, the result after degradation is automatically
//! rescaled to the *new* world size — the gradient average stays an
//! average.

use std::fmt;

use faults::FaultEvent;

use crate::algo::Algorithm;
use crate::exec_fault::FaultSession;
use crate::exec_thread::{Call, ExecContext, ExecError, ExecTrace};
use crate::reduce::ReduceOp;
use crate::sched::{Schedule, Violation};

/// Why an elastic collective gave up (distinct from one aborted
/// attempt, which is retried over the survivors).
#[derive(Debug, Clone, PartialEq)]
pub enum ElasticError {
    /// Every rank died; there is nobody left to hold a result.
    AllRanksDead,
    /// A rebuilt survivor schedule failed verification — a bug in the
    /// algorithm builder, surfaced rather than executed.
    Rejected(Vec<Violation>),
    /// A non-recoverable executor error (shape mismatch, retry budget
    /// exhausted on a live peer).
    Exec(ExecError),
}

impl fmt::Display for ElasticError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ElasticError::AllRanksDead => write!(f, "all ranks died; no survivors"),
            ElasticError::Rejected(v) => {
                write!(f, "rebuilt survivor schedule failed verification: {v:?}")
            }
            ElasticError::Exec(e) => write!(f, "executor error: {e}"),
        }
    }
}

impl std::error::Error for ElasticError {}

/// What one elastic call did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElasticReport {
    /// Original ids of ranks that died during this call.
    pub dead: Vec<usize>,
    /// World size the returned result is averaged/summed over.
    pub world: usize,
    /// How many times the topology was rebuilt during this call.
    pub rebuilds: usize,
}

impl ElasticReport {
    pub fn degraded(&self) -> bool {
        self.rebuilds > 0
    }
}

/// A fault-tolerant allreduce with a persistent survivor topology. See
/// the module docs.
#[derive(Debug)]
pub struct ElasticAllreduce {
    algo: Algorithm,
    n_elems: usize,
    /// Original rank ids still alive, ascending. `live[local]` is the
    /// original id of buffer `local`.
    live: Vec<usize>,
    schedule: Schedule,
    ctx: ExecContext,
    /// World-id-keyed trace lanes (see [`ElasticAllreduce::set_trace`]).
    trace: Option<ExecTrace>,
}

impl ElasticAllreduce {
    /// A fresh elastic collective over `world` ranks.
    pub fn new(algo: Algorithm, world: usize, n_elems: usize) -> Result<Self, ElasticError> {
        assert!(world >= 1, "need at least one rank");
        Self::with_live(algo, (0..world).collect(), n_elems)
    }

    /// An elastic collective resuming an already-degraded topology —
    /// e.g. a trainer restarting from a checkpoint whose live set has
    /// holes. `live` holds original ids, ascending.
    pub fn with_live(
        algo: Algorithm,
        live: Vec<usize>,
        n_elems: usize,
    ) -> Result<Self, ElasticError> {
        assert!(!live.is_empty(), "need at least one live rank");
        let schedule = algo.build(live.len(), n_elems);
        schedule.verify_allreduce().map_err(ElasticError::Rejected)?;
        let ctx = ExecContext::for_schedule(&schedule).map_err(ElasticError::Exec)?;
        Ok(ElasticAllreduce { algo, n_elems, live, schedule, ctx, trace: None })
    }

    /// Attach trace lanes keyed by *original* rank id: the plain path
    /// records each survivor's SEND/RECV spans onto its original pid
    /// row, surviving renumbering across degradations. (The fault path
    /// traces through [`FaultSession::with_trace`] instead, which owns
    /// the same world-id keying.)
    pub fn set_trace(&mut self, trace: ExecTrace) {
        self.trace = Some(trace);
    }

    /// Original ids of the surviving ranks, ascending.
    pub fn live(&self) -> &[usize] {
        &self.live
    }

    /// Current world size (survivor count).
    pub fn world(&self) -> usize {
        self.live.len()
    }

    /// The schedule currently executed (rebuilt after degradations).
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// The executor (replaced after degradations).
    pub fn ctx(&self) -> &ExecContext {
        &self.ctx
    }

    /// Allreduce across the survivors. `buffers` must hold exactly one
    /// replica per live rank, in `live` order; dead ranks' buffers are
    /// removed from the vec during degradation.
    ///
    /// `session: None` is the fault-layer-off switch: no injection, no
    /// deadlines, no snapshot.
    pub fn allreduce(
        &mut self,
        buffers: &mut Vec<Vec<f32>>,
        op: ReduceOp,
        session: Option<&FaultSession>,
    ) -> Result<ElasticReport, ElasticError> {
        let session = match session {
            None => {
                let call = Call {
                    rank_ids: Some(&self.live),
                    trace: self.trace.as_ref(),
                    finish: true,
                    ..Call::default()
                };
                self.ctx.execute(&self.schedule, buffers, op, call).map_err(ElasticError::Exec)?;
                return Ok(ElasticReport { dead: Vec::new(), world: self.live.len(), rebuilds: 0 });
            }
            Some(s) => s,
        };
        let mut dead_total = Vec::new();
        let mut rebuilds = 0usize;
        loop {
            // Snapshot before the attempt: an aborted collective leaves
            // partial sums behind, and the retry must start from the
            // same inputs the fault-free run would have seen.
            let snapshot = buffers.clone();
            match self.ctx.allreduce_with_faults(&self.schedule, buffers, op, session, &self.live) {
                Ok(()) => {
                    return Ok(ElasticReport { dead: dead_total, world: self.live.len(), rebuilds })
                }
                Err(ExecError::RanksDead { dead }) => {
                    // `dead` holds local indices into the current live
                    // set; translate, then shrink topology + buffers.
                    let dead_orig: Vec<usize> = dead.iter().map(|&l| self.live[l]).collect();
                    *buffers = snapshot;
                    for &local in dead.iter().rev() {
                        buffers.remove(local);
                        self.live.remove(local);
                    }
                    dead_total.extend_from_slice(&dead_orig);
                    if self.live.is_empty() {
                        return Err(ElasticError::AllRanksDead);
                    }
                    rebuilds += 1;
                    session.record(FaultEvent::Degraded {
                        step: session.step(),
                        dead: dead_orig,
                        new_world: self.live.len(),
                    });
                    // Rebuild schedule + executor over the survivors;
                    // the degraded topology is re-verified in full.
                    self.schedule = self.algo.build(self.live.len(), self.n_elems);
                    self.schedule.verify_allreduce().map_err(ElasticError::Rejected)?;
                    self.ctx =
                        ExecContext::for_schedule(&self.schedule).map_err(ElasticError::Exec)?;
                }
                Err(other) => return Err(ElasticError::Exec(other)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::apply_allreduce;
    use faults::{FaultKind, FaultPlan, Injection};

    fn inputs(n_ranks: usize, n_elems: usize) -> Vec<Vec<f32>> {
        (0..n_ranks)
            .map(|r| (0..n_elems).map(|i| ((r * 29 + i * 5) % 17) as f32 * 0.5 - 4.0).collect())
            .collect()
    }

    #[test]
    fn no_session_is_the_plain_path() {
        let (n, e) = (4usize, 64usize);
        let mut ela = ElasticAllreduce::new(Algorithm::Ring, n, e).unwrap();
        let ins = inputs(n, e);
        let mut by_ref = ins.clone();
        apply_allreduce(ela.schedule(), &mut by_ref, ReduceOp::Sum);
        let mut bufs = ins.clone();
        let report = ela.allreduce(&mut bufs, ReduceOp::Sum, None).unwrap();
        assert_eq!(bufs, by_ref);
        assert_eq!(report, ElasticReport { dead: vec![], world: 4, rebuilds: 0 });
    }

    #[test]
    fn crash_rebuilds_over_survivors_and_rescales_average() {
        let (n, e) = (4usize, 48usize);
        let mut ela = ElasticAllreduce::new(Algorithm::Ring, n, e).unwrap();
        let plan = FaultPlan::explicit(
            9,
            vec![Injection { step: 0, rank: 2, round: 1, kind: FaultKind::Crash }],
        );
        let session = FaultSession::new(plan);
        let ins = inputs(n, e);
        let mut bufs = ins.clone();
        let report = ela.allreduce(&mut bufs, ReduceOp::Average, Some(&session)).unwrap();
        assert_eq!(report.dead, vec![2]);
        assert_eq!(report.world, 3);
        assert_eq!(report.rebuilds, 1);
        assert_eq!(ela.live(), &[0, 1, 3]);
        assert_eq!(bufs.len(), 3);
        assert_eq!(ela.schedule().n_ranks, 3);
        assert_eq!(ela.schedule().verify_allreduce(), Ok(()));
        // The survivors' average over the *new* world size, bit-exact
        // against the reference run of the rebuilt schedule.
        let mut by_ref = vec![ins[0].clone(), ins[1].clone(), ins[3].clone()];
        apply_allreduce(ela.schedule(), &mut by_ref, ReduceOp::Average);
        assert_eq!(bufs, by_ref);
        assert_eq!(session.counters().snapshot().degradations, 1);
        assert!(session.events().deterministic_core().contains(&FaultEvent::Degraded {
            step: 0,
            dead: vec![2],
            new_world: 3
        }));
    }

    #[test]
    fn later_calls_use_the_degraded_topology() {
        let (n, e) = (4usize, 32usize);
        let mut ela = ElasticAllreduce::new(Algorithm::RecursiveDoubling, n, e).unwrap();
        let plan = FaultPlan::explicit(
            3,
            vec![Injection { step: 0, rank: 0, round: 0, kind: FaultKind::Crash }],
        );
        let session = FaultSession::new(plan);
        let mut bufs = inputs(n, e);
        ela.allreduce(&mut bufs, ReduceOp::Sum, Some(&session)).unwrap();
        assert_eq!(ela.world(), 3);
        // Step 1: no further injections; both the fault path and the
        // plain path run the 3-rank schedule cleanly.
        session.begin_step(1);
        let ins3 = vec![inputs(4, e)[1].clone(), inputs(4, e)[2].clone(), inputs(4, e)[3].clone()];
        let mut with_faults = ins3.clone();
        let r1 = ela.allreduce(&mut with_faults, ReduceOp::Sum, Some(&session)).unwrap();
        assert_eq!(r1.rebuilds, 0);
        assert_eq!(r1.world, 3);
        let mut plain = ins3.clone();
        let r2 = ela.allreduce(&mut plain, ReduceOp::Sum, None).unwrap();
        assert!(!r2.degraded());
        assert_eq!(with_faults, plain, "fault path with no injections is bit-identical");
    }

    #[test]
    fn trace_rows_keep_original_ids_across_degradation() {
        let (n, e) = (4usize, 32usize);
        let mut ela = ElasticAllreduce::new(Algorithm::Ring, n, e).unwrap();
        let rec = trace::TraceRecorder::new();
        let world_ids: Vec<usize> = (0..n).collect();
        let trace = ExecTrace::comm(&rec, &world_ids);
        ela.set_trace(trace.clone());
        let plan = FaultPlan::explicit(
            7,
            vec![Injection { step: 0, rank: 1, round: 0, kind: FaultKind::Crash }],
        );
        let session = FaultSession::new(plan).with_trace(trace);
        let mut bufs = inputs(n, e);
        ela.allreduce(&mut bufs, ReduceOp::Sum, Some(&session)).unwrap();
        assert_eq!(ela.live(), &[0, 2, 3]);
        // A later *plain* (session-off) call must land survivor spans
        // on their original pid rows — local 1 is original rank 2.
        let before: usize =
            rec.snapshot().lanes.iter().filter(|l| l.pid == 2).map(|l| l.spans.len()).sum();
        let mut plain = vec![bufs[0].clone(), bufs[1].clone(), bufs[2].clone()];
        ela.allreduce(&mut plain, ReduceOp::Sum, None).unwrap();
        let after: usize =
            rec.snapshot().lanes.iter().filter(|l| l.pid == 2).map(|l| l.spans.len()).sum();
        assert!(after > before, "survivor rank 2 must keep recording on pid 2");
    }

    #[test]
    fn all_ranks_dead_is_an_error() {
        let (n, e) = (2usize, 8usize);
        let mut ela = ElasticAllreduce::new(Algorithm::Ring, n, e).unwrap();
        let plan = FaultPlan::explicit(
            1,
            vec![
                Injection { step: 0, rank: 0, round: 0, kind: FaultKind::Crash },
                Injection { step: 0, rank: 1, round: 0, kind: FaultKind::Crash },
            ],
        );
        let session = FaultSession::new(plan);
        let mut bufs = inputs(n, e);
        let err = ela.allreduce(&mut bufs, ReduceOp::Sum, Some(&session)).unwrap_err();
        assert_eq!(err, ElasticError::AllRanksDead);
    }
}
