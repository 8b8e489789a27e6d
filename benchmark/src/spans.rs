//! In-memory spans recorded by the harness around its calls into the
//! program, flushed as Chrome-trace JSON when a traced run ends. Spans
//! inside the program are a later change; these sit at the boundary.

use std::path::Path;
use std::time::Instant;

use crate::json::Json;

/// Index of a recorded span; what a child names as its parent.
pub type SpanId = usize;

struct Span {
    name: &'static str,
    start_us: f64,
    end_us: f64,
    parent: Option<SpanId>,
    /// How many calls (or bytes, or steps) the span covers.
    count: u64,
}

/// One traced run's spans, all tagged with the workload they belong to.
pub struct Spans {
    workload: String,
    epoch: Instant,
    recs: Vec<Span>,
}

impl Spans {
    pub fn new(workload: &str) -> Self {
        Spans {
            workload: workload.to_string(),
            epoch: Instant::now(),
            recs: Vec::with_capacity(1 << 16),
        }
    }

    /// Record a finished span from two instants the caller already took
    /// (so recording adds nothing inside the interval).
    pub fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        count: u64,
    ) -> SpanId {
        let us = |t: Instant| t.duration_since(self.epoch).as_secs_f64() * 1e6;
        self.recs.push(Span { name, start_us: us(start), end_us: us(end), parent, count });
        self.recs.len() - 1
    }

    /// Widen `id` to end now: a parent opened before its children.
    pub fn close(&mut self, id: SpanId) {
        self.recs[id].end_us = self.epoch.elapsed().as_secs_f64() * 1e6;
    }

    pub fn len(&self) -> usize {
        self.recs.len()
    }

    /// The spans as a Chrome-trace event array (`chrome://tracing`,
    /// Perfetto). Parent and workload travel in `args`.
    pub fn to_chrome(&self) -> Json {
        let events = self.recs.iter().enumerate().map(|(id, s)| {
            let mut args = vec![
                ("id", Json::Num(id as f64)),
                ("workload", Json::str(&self.workload)),
                ("count", Json::Num(s.count as f64)),
            ];
            if let Some(p) = s.parent {
                args.push(("parent", Json::Num(p as f64)));
            }
            Json::obj(vec![
                ("name", Json::str(s.name)),
                ("cat", Json::str("benchmark")),
                ("ph", Json::str("X")),
                ("ts", Json::Num(s.start_us)),
                ("dur", Json::Num(s.end_us - s.start_us)),
                ("pid", Json::Num(0.0)),
                ("tid", Json::Num(0.0)),
                ("args", Json::obj(args)),
            ])
        });
        Json::Arr(events.collect())
    }

    /// Write the trace to `path`, creating its directory.
    pub fn flush(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_chrome().to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_keep_parent_workload_and_order() {
        let mut spans = Spans::new("wire_lat_6k");
        let t0 = Instant::now();
        let root = spans.push("step", t0, t0, None, 1);
        let child = spans.push("allreduce", t0, Instant::now(), Some(root), 1460);
        assert_eq!(child, 1);
        spans.close(root);
        let doc = Json::parse(&spans.to_chrome().to_string()).unwrap();
        let events = doc.as_arr().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("name").and_then(Json::as_str), Some("step"));
        let args = events[1].get("args").unwrap();
        assert_eq!(args.get("parent").and_then(Json::as_f64), Some(0.0));
        assert_eq!(args.get("workload").and_then(Json::as_str), Some("wire_lat_6k"));
        let dur = |e: &Json| e.get("dur").and_then(Json::as_f64).unwrap();
        assert!(dur(&events[0]) >= dur(&events[1]));
    }
}
