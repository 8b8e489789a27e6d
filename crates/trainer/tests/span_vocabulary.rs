//! One span vocabulary for both launchers: the rank body records its
//! compute as `BACKWARD`/`grad_compute`, its exchange as
//! `MPI_ALLREDUCE`/`exchange` and its update as `OPTIMIZER`/`apply` on
//! lane `(rank, tid 0)`, and its executor's SEND/RECV on tid 1 — in a
//! `dist_train --trace` launch and in a traced `try_train` alike. So the
//! critical-path analyzer attributes compute *and* communication to
//! every rank of either, and the names the benchmark reads are there.

use std::path::PathBuf;
use std::process::Command;
use std::sync::Arc;

use trace::{analyze, parse_trace, ChromeEvent, TraceSession};
use trainer::real::try_train;
use trainer::real::worker::preset;

/// Every rank is busy computing and busy communicating, and carries
/// the span names the benchmark pairs into steps.
fn assert_every_rank_computes_and_communicates(events: &[ChromeEvent], ranks: usize, what: &str) {
    let bd = analyze(events);
    assert_eq!(bd.ranks.len(), ranks, "{what}: one analyzer row per rank");
    for r in &bd.ranks {
        assert!(r.compute_busy_us > 0.0, "{what}: rank {} has no compute: {r:?}", r.pid);
        assert!(r.comm_busy_us > 0.0, "{what}: rank {} has no communication: {r:?}", r.pid);
        for name in ["grad_compute", "exchange", "apply", "send", "recv"] {
            assert!(
                events.iter().any(|e| e.pid == r.pid && e.name == name),
                "{what}: rank {} has no {name} span",
                r.pid
            );
        }
    }
}

#[test]
fn a_traced_launch_attributes_compute_and_comm_to_every_rank() {
    let dir = std::env::temp_dir().join(format!("seg_spans_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = Command::new(env!("CARGO_BIN_EXE_dist_train"))
        .arg("launch")
        .args(["--dir", &dir.to_string_lossy()])
        .args(["--workers", "2", "--steps", "4", "--preset", "tiny", "--trace"])
        .output()
        .expect("launching dist_train");
    assert!(
        out.status.success(),
        "launcher failed: {}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let merged: PathBuf = dir.join("trace_merged.json");
    let json = std::fs::read_to_string(&merged).expect("trace_merged.json");
    let events = parse_trace(&json).expect("merged trace parses");
    assert_every_rank_computes_and_communicates(&events, 2, "dist_train --trace");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_traced_try_train_attributes_compute_and_comm_to_every_rank() {
    let session = Arc::new(TraceSession::new());
    let mut cfg = preset("tiny", 2, 4, 42);
    cfg.trace = Some(session.clone());
    try_train(&cfg).expect("threaded run");
    let events = session.recorder.to_chrome_events();
    assert_every_rank_computes_and_communicates(&events, 2, "try_train");
    // The thread pass of the benchmark reads step starts from here.
    let steps_on_rank0 = events
        .iter()
        .filter(|e| e.pid == 0 && e.tid == 0 && e.cat == "BACKWARD" && e.ph == 'X')
        .count();
    assert_eq!(steps_on_rank0, 4, "one BACKWARD span per step on (pid 0, tid 0)");
}
