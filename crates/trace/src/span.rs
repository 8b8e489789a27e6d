//! The span recorder: per-rank/per-thread lanes over preallocated
//! ring buffers.
//!
//! A [`TraceRecorder`] owns the lane registry; [`TraceRecorder::lane`]
//! registers a `(pid, tid)` lane (rank → pid, executor thread → tid)
//! and hands back a cheap cloneable [`Lane`] handle. Registration
//! allocates (the ring buffer, once); **recording does not**:
//! [`Lane::record`] writes a fixed-size [`SpanRec`] into the ring,
//! overwriting the oldest span when full and counting the overwrite,
//! so an enabled recorder can sit on the zero-allocation gradient path
//! (`trainer/tests/zero_alloc.rs` asserts exactly this). Names and
//! categories are `&'static str` — no interning, no formatting; spans
//! carry two free `u64` args (`a0`, `a1`) for payload bytes, peers,
//! counts, rendered only at export time.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use crate::chrome::{metadata_process_name, metadata_thread_name, ChromeEvent};

/// Default ring capacity per lane, in spans.
pub const DEFAULT_LANE_CAPACITY: usize = 4096;

/// Lock a mutex, riding through poisoning (a panicked recorder thread
/// must not take the trace down with it).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// One recorded span: fixed-size, `Copy`, ring-buffer friendly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanRec {
    /// Static span name ("send", "forward", ...).
    pub name: &'static str,
    /// Static category — the phase taxonomy the analyzer keys on
    /// ("MPI_ALLREDUCE", "SEND", ...).
    pub cat: &'static str,
    /// Start, microseconds from the recorder epoch (or virtual time).
    pub ts_us: f64,
    /// Duration in microseconds (0 for instantaneous events).
    pub dur_us: f64,
    /// Free numeric args rendered into the Chrome `args` object.
    pub a0: u64,
    pub a1: u64,
}

const EMPTY_SPAN: SpanRec = SpanRec { name: "", cat: "", ts_us: 0.0, dur_us: 0.0, a0: 0, a1: 0 };

#[derive(Debug)]
struct LaneBuf {
    ring: Box<[SpanRec]>,
    /// Next write index.
    head: usize,
    /// Spans currently held (≤ ring.len()).
    len: usize,
    /// Spans overwritten because the ring was full.
    dropped: u64,
}

impl LaneBuf {
    fn with_capacity(capacity: usize) -> Self {
        LaneBuf {
            ring: vec![EMPTY_SPAN; capacity.max(1)].into_boxed_slice(),
            head: 0,
            len: 0,
            dropped: 0,
        }
    }

    /// The held spans in insertion order (oldest surviving first), as
    /// the two halves of the ring they lie in.
    fn halves(&self) -> (&[SpanRec], &[SpanRec]) {
        if self.len < self.ring.len() {
            (&self.ring[..self.len], &[])
        } else {
            let (newer, older) = self.ring.split_at(self.head);
            (older, newer)
        }
    }
}

#[derive(Debug, Clone)]
struct LaneMeta {
    pid: u32,
    tid: u32,
    process_name: String,
    thread_name: String,
}

/// A cloneable handle onto one `(pid, tid)` lane. Recording through it
/// is lock-a-mutex + write-a-slot: no allocation, no formatting.
#[derive(Debug, Clone)]
pub struct Lane {
    pid: u32,
    tid: u32,
    enabled: bool,
    epoch: Instant,
    buf: Arc<Mutex<LaneBuf>>,
}

impl Lane {
    pub fn pid(&self) -> u32 {
        self.pid
    }

    pub fn tid(&self) -> u32 {
        self.tid
    }

    /// Microseconds since the owning recorder's epoch — the real-time
    /// clock instrumented executors stamp spans with. (Simulated
    /// timelines pass their own virtual timestamps instead.)
    pub fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Record a span with both numeric args. This is the no-alloc
    /// recording primitive the hot paths use.
    // lint: hot-path
    pub fn record_args(
        &self,
        cat: &'static str,
        name: &'static str,
        ts_us: f64,
        dur_us: f64,
        a0: u64,
        a1: u64,
    ) {
        if !self.enabled {
            return;
        }
        let mut buf = lock(&self.buf);
        let cap = buf.ring.len();
        if buf.len == cap {
            buf.dropped += 1;
        } else {
            buf.len += 1;
        }
        let head = buf.head;
        buf.ring[head] = SpanRec { name, cat, ts_us, dur_us, a0, a1 };
        buf.head = (head + 1) % cap;
    }

    /// Record a span without args.
    // lint: hot-path
    pub fn record(&self, cat: &'static str, name: &'static str, ts_us: f64, dur_us: f64) {
        self.record_args(cat, name, ts_us, dur_us, 0, 0);
    }

    /// Hand `f` the newest `n` ring spans, oldest first, as two slices
    /// (the ring may wrap between them), plus how many older spans the
    /// lane lost to overwrites or holds beyond them. Copies nothing out,
    /// so an encoder on the hot path stays allocation-free.
    pub fn with_tail<R>(&self, n: usize, f: impl FnOnce(u64, &[SpanRec], &[SpanRec]) -> R) -> R {
        let buf = lock(&self.buf);
        let (a, b) = buf.halves();
        let skip = buf.len - n.min(buf.len);
        let older = buf.dropped + skip as u64;
        if skip <= a.len() {
            f(older, &a[skip..], b)
        } else {
            f(older, &[], &b[skip - a.len()..])
        }
    }

    /// Spans the ring holds.
    pub fn recorded(&self) -> usize {
        lock(&self.buf).len
    }
}

/// A frozen copy of one lane.
#[derive(Debug, Clone)]
pub struct LaneSnapshot {
    pub pid: u32,
    pub tid: u32,
    pub process_name: String,
    pub thread_name: String,
    /// Ring spans, oldest surviving first.
    pub spans: Vec<SpanRec>,
    /// Ring overwrites (0 ⇔ nothing was lost).
    pub dropped: u64,
}

/// A frozen copy of every lane, sorted by `(pid, tid)` then
/// registration order — deterministic given deterministic recording.
#[derive(Debug, Clone)]
pub struct TraceSnapshot {
    pub lanes: Vec<LaneSnapshot>,
}

impl TraceSnapshot {
    /// Total spans across all lanes.
    pub fn total_spans(&self) -> usize {
        self.lanes.iter().map(|l| l.spans.len()).sum()
    }

    /// Distinct pids present, ascending.
    pub fn pids(&self) -> Vec<u32> {
        let mut pids: Vec<u32> = self.lanes.iter().map(|l| l.pid).collect();
        pids.sort_unstable();
        pids.dedup();
        pids
    }
}

/// The lane registry. See the module docs for the recording contract.
#[derive(Debug)]
pub struct TraceRecorder {
    enabled: bool,
    capacity: usize,
    epoch: Instant,
    lanes: Mutex<Vec<(LaneMeta, Arc<Mutex<LaneBuf>>)>>,
}

impl Default for TraceRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceRecorder {
    /// An enabled recorder with the default per-lane ring capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_LANE_CAPACITY)
    }

    /// An enabled recorder with `capacity` spans per lane.
    pub fn with_capacity(capacity: usize) -> Self {
        TraceRecorder {
            enabled: true,
            capacity: capacity.max(1),
            epoch: Instant::now(),
            lanes: Mutex::new(Vec::new()),
        }
    }

    /// A recorder whose lanes drop every record — the compiled-in-but-
    /// off configuration (branch on a bool per record, nothing else).
    pub fn disabled() -> Self {
        TraceRecorder { enabled: false, ..Self::new() }
    }

    /// Register a `(pid, tid)` lane. `process` names the pid (shown as
    /// the Chrome process row, e.g. "rank 3"), `thread` names the tid
    /// ("compute", "comm", ...). The ring buffer is preallocated here,
    /// which is what keeps recording allocation-free.
    pub fn lane(&self, pid: u32, tid: u32, process: &str, thread: &str) -> Lane {
        let buf = Arc::new(Mutex::new(LaneBuf::with_capacity(self.capacity)));
        let meta = LaneMeta {
            pid,
            tid,
            process_name: process.to_string(),
            thread_name: thread.to_string(),
        };
        lock(&self.lanes).push((meta, Arc::clone(&buf)));
        Lane { pid, tid, enabled: self.enabled, epoch: self.epoch, buf }
    }

    /// Registered lane count.
    pub fn lane_count(&self) -> usize {
        lock(&self.lanes).len()
    }

    /// Freeze every lane (sorted by `(pid, tid)`, stable).
    pub fn snapshot(&self) -> TraceSnapshot {
        let lanes = lock(&self.lanes);
        let mut out: Vec<LaneSnapshot> = lanes
            .iter()
            .map(|(meta, buf)| {
                let b = lock(buf);
                let (older, newer) = b.halves();
                LaneSnapshot {
                    pid: meta.pid,
                    tid: meta.tid,
                    process_name: meta.process_name.clone(),
                    thread_name: meta.thread_name.clone(),
                    spans: [older, newer].concat(),
                    dropped: b.dropped,
                }
            })
            .collect();
        out.sort_by_key(|a| (a.pid, a.tid));
        TraceSnapshot { lanes: out }
    }

    /// The snapshot as Chrome-trace events: per-pid `process_name` and
    /// per-lane `thread_name` metadata first (deduplicated, first
    /// registration wins), then every span as a complete "X" event.
    pub fn to_chrome_events(&self) -> Vec<ChromeEvent> {
        snapshot_to_chrome_events(&self.snapshot())
    }

    /// The full trace as Chrome-trace JSON (load in `chrome://tracing`
    /// or Perfetto).
    pub fn to_chrome_json(&self) -> String {
        crate::chrome::write_trace(&self.to_chrome_events())
    }
}

/// Convert a frozen snapshot into Chrome events (see
/// [`TraceRecorder::to_chrome_events`]).
pub fn snapshot_to_chrome_events(snap: &TraceSnapshot) -> Vec<ChromeEvent> {
    let mut events = Vec::new();
    let mut named_pids: Vec<u32> = Vec::new();
    let mut named_lanes: Vec<(u32, u32)> = Vec::new();
    for lane in &snap.lanes {
        if !named_pids.contains(&lane.pid) {
            named_pids.push(lane.pid);
            events.push(metadata_process_name(lane.pid, &lane.process_name));
        }
        if !named_lanes.contains(&(lane.pid, lane.tid)) {
            named_lanes.push((lane.pid, lane.tid));
            events.push(metadata_thread_name(lane.pid, lane.tid, &lane.thread_name));
        }
    }
    for lane in &snap.lanes {
        for s in &lane.spans {
            let mut ev =
                ChromeEvent::complete(s.name, s.cat, s.ts_us, s.dur_us, lane.pid, lane.tid);
            if s.a0 != 0 || s.a1 != 0 {
                ev.args = vec![("a0", s.a0), ("a1", s.a1)];
            }
            events.push(ev);
        }
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_record_and_snapshot_in_order() {
        let rec = TraceRecorder::new();
        let lane = rec.lane(3, 1, "rank 3", "comm");
        lane.record("SEND", "send", 10.0, 5.0);
        lane.record_args("RECV", "recv", 20.0, 2.0, 7, 64);
        let snap = rec.snapshot();
        assert_eq!(snap.lanes.len(), 1);
        let l = &snap.lanes[0];
        assert_eq!((l.pid, l.tid), (3, 1));
        assert_eq!(l.spans.len(), 2);
        assert_eq!(l.spans[0].name, "send");
        assert_eq!(l.spans[1].a0, 7);
        assert_eq!(l.dropped, 0);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let rec = TraceRecorder::with_capacity(4);
        let lane = rec.lane(0, 0, "rank 0", "compute");
        for i in 0..10u64 {
            lane.record_args("C", "tick", i as f64, 1.0, i, 0);
        }
        let snap = rec.snapshot();
        let l = &snap.lanes[0];
        assert_eq!(l.spans.len(), 4);
        assert_eq!(l.dropped, 6);
        // Oldest surviving first: ticks 6..10.
        let ids: Vec<u64> = l.spans.iter().map(|s| s.a0).collect();
        assert_eq!(ids, vec![6, 7, 8, 9]);
    }

    #[test]
    fn tail_is_the_newest_spans_across_the_wrap() {
        let rec = TraceRecorder::with_capacity(4);
        let lane = rec.lane(0, 0, "rank 0", "compute");
        for i in 0..6u64 {
            lane.record_args("C", "tick", i as f64, 1.0, i, 0);
        }
        let tail = |n| {
            lane.with_tail(n, |older, a, b| {
                (older, a.iter().chain(b).map(|s| s.a0).collect::<Vec<_>>())
            })
        };
        // Held: ticks 2..6 (2 overwritten); the ring wraps after tick 3.
        assert_eq!(tail(9), (2, vec![2, 3, 4, 5]));
        assert_eq!(tail(3), (3, vec![3, 4, 5]));
        assert_eq!(tail(1), (5, vec![5]));
        assert_eq!(tail(0), (6, vec![]));
    }

    #[test]
    fn disabled_recorder_drops_everything() {
        let rec = TraceRecorder::disabled();
        let lane = rec.lane(0, 0, "rank 0", "compute");
        lane.record("C", "tick", 0.0, 1.0);
        assert_eq!(rec.snapshot().total_spans(), 0);
        assert_eq!(lane.recorded(), 0);
    }

    #[test]
    fn snapshot_sorts_lanes_and_collects_pids() {
        let rec = TraceRecorder::new();
        let b = rec.lane(1, 0, "rank 1", "compute");
        let a = rec.lane(0, 1, "rank 0", "comm");
        let c = rec.lane(0, 0, "rank 0", "compute");
        for lane in [&a, &b, &c] {
            lane.record("C", "x", 0.0, 1.0);
        }
        let snap = rec.snapshot();
        let keys: Vec<(u32, u32)> = snap.lanes.iter().map(|l| (l.pid, l.tid)).collect();
        assert_eq!(keys, vec![(0, 0), (0, 1), (1, 0)]);
        assert_eq!(snap.pids(), vec![0, 1]);
    }

    #[test]
    fn chrome_events_lead_with_deduped_metadata() {
        let rec = TraceRecorder::new();
        rec.lane(0, 0, "rank 0", "compute").record("C", "f", 0.0, 1.0);
        rec.lane(0, 1, "rank 0", "comm").record("A", "ar", 1.0, 1.0);
        let events = rec.to_chrome_events();
        let metas: Vec<&ChromeEvent> = events.iter().filter(|e| e.ph == 'M').collect();
        // One process_name for pid 0, two thread_names.
        assert_eq!(metas.len(), 3);
        assert_eq!(metas[0].name, "process_name");
        assert_eq!(events.iter().filter(|e| e.ph == 'X').count(), 2);
    }

    #[test]
    fn now_us_is_monotonic() {
        let rec = TraceRecorder::new();
        let lane = rec.lane(0, 0, "r", "t");
        let a = lane.now_us();
        let b = lane.now_us();
        assert!(b >= a && a >= 0.0);
    }
}
