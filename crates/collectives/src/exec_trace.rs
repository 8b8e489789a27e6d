//! Per-rank trace lanes for the threaded executor.
//!
//! An [`ExecTrace`] maps rank ids onto [`trace::Lane`] handles of one
//! shared [`trace::TraceRecorder`] — rank → Chrome `pid`, executor
//! thread → `tid` — so every rank body
//! [`exec_thread`](crate::exec_thread) runs records its SEND/RECV/
//! RETRY spans into its own row of the combined trace. Lane lookup
//! happens once per rank body as it starts; recording afterwards is
//! the recorder's no-alloc ring write.
//!
//! The map is keyed by the rank ids a run addresses its ranks by:
//! `0..n` for a plain [`ExecContext`](crate::exec_thread::ExecContext)
//! call, *original* world ids under a
//! [`FaultSession`](crate::exec_fault::FaultSession) or an
//! [`ElasticAllreduce`](crate::elastic::ElasticAllreduce), so a rank
//! keeps its trace row across elastic renumberings.

use trace::{Lane, TraceRecorder};

/// Chrome `tid` of the executor (communication) thread within a rank.
pub const TID_COMM: u32 = 1;

/// Rank-id-keyed lane map; see the module docs.
#[derive(Debug, Clone, Default)]
pub struct ExecTrace {
    lanes: Vec<(usize, Lane)>,
}

impl ExecTrace {
    /// Register one "comm" lane per id in `rank_ids` (id → Chrome pid).
    pub fn comm(recorder: &TraceRecorder, rank_ids: &[usize]) -> Self {
        let lanes = rank_ids
            .iter()
            .map(|&r| (r, recorder.lane(r as u32, TID_COMM, &format!("rank {r}"), "comm")))
            .collect();
        ExecTrace { lanes }
    }

    /// The lane registered for `rank`, if any.
    pub fn lane(&self, rank: usize) -> Option<&Lane> {
        self.lanes.iter().find(|(r, _)| *r == rank).map(|(_, l)| l)
    }

    /// Registered lane count.
    pub fn len(&self) -> usize {
        self.lanes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.lanes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_key_by_rank_id() {
        let rec = TraceRecorder::new();
        let world = ExecTrace::comm(&rec, &[0, 1, 3, 4]);
        assert_eq!(world.len(), 4);
        assert_eq!(world.lane(3).map(Lane::pid), Some(3));
        assert!(world.lane(2).is_none());
        assert_eq!(rec.lane_count(), 4);
    }

    #[test]
    fn recorded_spans_land_on_the_rank_pid() {
        let rec = TraceRecorder::new();
        let t = ExecTrace::comm(&rec, &[0, 7]);
        let lane = t.lane(7).expect("registered");
        lane.record_args("SEND", "send", 1.0, 2.0, 0, 64);
        let snap = rec.snapshot();
        assert_eq!(snap.pids(), vec![0, 7]);
        let l7 = snap.lanes.iter().find(|l| l.pid == 7).expect("pid 7 lane");
        assert_eq!(l7.tid, TID_COMM);
        assert_eq!(l7.spans[0].cat, "SEND");
    }
}
