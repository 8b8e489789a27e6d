//! Per-rank trace lanes for the threaded executors.
//!
//! An [`ExecTrace`] maps rank ids onto [`trace::Lane`] handles of one
//! shared [`trace::TraceRecorder`] — rank → Chrome `pid`, executor
//! thread → `tid` — so every rank thread of
//! [`exec_thread`](crate::exec_thread) and of the fault path
//! ([`exec_fault`](crate::exec_fault)) records SEND/RECV/RETRY spans
//! into its own row of the combined trace. Lane lookup happens once
//! per rank thread at spawn; recording afterwards is the recorder's
//! no-alloc ring write, which keeps the traced plain path inside the
//! zero-allocation budget the trainer asserts.
//!
//! The map is keyed by whatever ids the creator passes: the plain
//! executor uses local rank indices, while [`FaultSession`]
//! (crate::exec_fault::FaultSession) keys by *original* world ids so a
//! plan-addressed rank keeps its trace row across elastic
//! renumberings; [`ExecTrace::reindex`] converts between the two.

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

    /// A view keyed by position: lane `local` of the result is the
    /// lane this map holds for `ids[local]`. The elastic layer uses it
    /// to hand the plain executor (which speaks local indices) lanes
    /// registered under original world ids; ids without a lane are
    /// simply absent from the view.
    pub fn reindex(&self, ids: &[usize]) -> ExecTrace {
        ExecTrace {
            lanes: ids
                .iter()
                .enumerate()
                .filter_map(|(local, orig)| self.lane(*orig).map(|l| (local, l.clone())))
                .collect(),
        }
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
    fn lanes_key_by_rank_id_and_reindex_by_position() {
        let rec = TraceRecorder::new();
        let world = ExecTrace::comm(&rec, &[0, 1, 3, 4]);
        assert_eq!(world.len(), 4);
        assert_eq!(world.lane(3).map(Lane::pid), Some(3));
        assert!(world.lane(2).is_none());
        // Survivors {0, 3, 4} as locals 0..3: local 1 must carry pid 3.
        let view = world.reindex(&[0, 3, 4]);
        assert_eq!(view.len(), 3);
        assert_eq!(view.lane(1).map(Lane::pid), Some(3));
        assert_eq!(view.lane(2).map(Lane::pid), Some(4));
        // Reindexing never registers new lanes.
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
