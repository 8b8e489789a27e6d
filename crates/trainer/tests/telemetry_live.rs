//! End-to-end proof for the distributed telemetry plane, driven
//! through real OS processes:
//!
//! * a chaos run with telemetry + live scrape enabled converges to the
//!   *bit-exact* survivor params of the same run without telemetry —
//!   the plane rides the control stream and never perturbs training;
//! * the HTTP endpoint serves rank-labeled cluster metrics *mid-run*;
//! * SIGKILLing a worker leaves a `flight_<rank>.json` post-mortem
//!   whose `last_step` is exactly the kill step, with `alive: false`;
//! * the per-window `cluster_summary.json` records the shrunken world.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const WORKERS: usize = 4;
const STEPS: usize = 30;
const KILL_RANK: usize = 2;
const KILL_STEP: usize = 20;
const SEED: u64 = 42;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("seg_telemetry_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn launch_cmd(dir: &Path) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_dist_train"));
    cmd.arg("launch")
        .args(["--dir", &dir.to_string_lossy()])
        .args(["--workers", &WORKERS.to_string()])
        .args(["--steps", &STEPS.to_string()])
        .args(["--seed", &SEED.to_string()])
        .args(["--preset", "quick"])
        .args(["--kill-rank", &KILL_RANK.to_string()])
        .args(["--kill-step", &KILL_STEP.to_string()]);
    cmd
}

fn read_params(dir: &Path, rank: usize) -> Vec<u32> {
    let bytes = std::fs::read(dir.join(format!("params_r{rank}.bin")))
        .unwrap_or_else(|e| panic!("params_r{rank}.bin: {e}"));
    bytes.chunks_exact(4).map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]])).collect()
}

/// One plain GET against the scrape endpoint; the body, if the server
/// answered.
fn http_get(addr: &str, path: &str) -> Option<String> {
    let mut stream = TcpStream::connect(addr).ok()?;
    stream.set_read_timeout(Some(Duration::from_secs(2))).ok()?;
    write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n").ok()?;
    let mut response = String::new();
    stream.read_to_string(&mut response).ok()?;
    let (head, body) = response.split_once("\r\n\r\n")?;
    head.starts_with("HTTP/1.1 200").then(|| body.to_string())
}

/// Poll the scrape endpoint while the launcher runs, until a body
/// carrying rank-labeled series shows up.
fn scrape_mid_run(dir: &Path, child: &mut Child) -> (String, String) {
    let deadline = Instant::now() + Duration::from_secs(30);
    let addr_file = dir.join("metrics_addr.txt");
    let mut text = None;
    let mut json = None;
    while Instant::now() < deadline {
        assert!(
            child.try_wait().expect("poll launcher").is_none(),
            "launcher exited before the live scrape observed rank series"
        );
        let Ok(addr) = std::fs::read_to_string(&addr_file) else { continue };
        if text.is_none() {
            text = http_get(addr.trim(), "/metrics").filter(|b| {
                (0..WORKERS)
                    .all(|r| b.contains(&format!("train_steps_committed_total{{rank=\"{r}\"}}")))
            });
        }
        if json.is_none() {
            json = http_get(addr.trim(), "/metrics.json")
                .filter(|b| b.contains("\"ewma_step_us\":") && b.contains("\"ranks\""));
        }
        if let (Some(t), Some(j)) = (&text, &json) {
            return (t.clone(), j.clone());
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("no rank-labeled scrape within 30s");
}

#[test]
fn telemetry_plane_is_inert_observable_and_survives_sigkill() {
    // Reference: the same chaos run with the plane disabled.
    let plain_dir = scratch_dir("plain");
    let out = launch_cmd(&plain_dir).output().expect("plain launch");
    assert!(
        out.status.success(),
        "plain launcher failed: {}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );

    // Instrumented: telemetry + live scrape on an ephemeral port.
    let tel_dir = scratch_dir("tel");
    std::fs::create_dir_all(&tel_dir).expect("scratch dir");
    let mut child = launch_cmd(&tel_dir)
        .args(["--metrics-addr", "127.0.0.1:0"])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("telemetry launch");

    // Live scrape mid-run: rank-labeled series in both formats.
    let (text, json) = scrape_mid_run(&tel_dir, &mut child);
    for rank in 0..WORKERS {
        assert!(
            text.contains(&format!("train_steps_committed_total{{rank=\"{rank}\"}}")),
            "scrape lacks rank {rank}: {text}"
        );
    }
    assert!(text.contains("# TYPE train_straggler_lateness_us gauge"), "no straggler gauge");
    assert!(text.contains("cluster_ranks_total 4"), "no cluster total");
    assert!(json.contains("\"ewma_step_us\":"), "JSON scrape lacks the EWMA: {json}");

    let status = child.wait().expect("telemetry launcher");
    assert!(status.success(), "telemetry launcher failed with {status}");

    // The plane is inert: survivors match the plain run bit-for-bit,
    // and the fault unfolded at the same step.
    for r in (0..WORKERS).filter(|&r| r != KILL_RANK) {
        assert_eq!(
            read_params(&tel_dir, r),
            read_params(&plain_dir, r),
            "rank {r}: telemetry perturbed training"
        );
    }
    assert!(!tel_dir.join(format!("params_r{KILL_RANK}.bin")).exists());
    let summary = std::fs::read_to_string(tel_dir.join("summary.json")).expect("summary.json");
    assert!(
        summary.contains(&format!("{{\"step\": {KILL_STEP}, \"dead\": [{KILL_RANK}]}}")),
        "telemetry run's degrade drifted: {summary}"
    );

    // The crash flight recorder pinned the victim's last step.
    let flight = std::fs::read_to_string(tel_dir.join(format!("flight_{KILL_RANK}.json")))
        .expect("flight_<rank>.json for the killed rank");
    assert!(flight.contains(&format!("\"rank\": {KILL_RANK},")), "wrong rank: {flight}");
    assert!(flight.contains("\"alive\": false,"), "victim still marked alive: {flight}");
    assert!(
        flight.contains(&format!("\"last_step\": {KILL_STEP},")),
        "flight record does not pin the kill step: {flight}"
    );
    // The rank body is the only sender, so the victim's last snapshot
    // is the one it shipped at the begin of KILL_STEP: every earlier
    // step begun and committed, this one begun, no degrade yet, and
    // the bytes of every exchange before it.
    for (name, want) in [
        ("train_steps_begun_total", KILL_STEP + 1),
        ("train_steps_committed_total", KILL_STEP),
        ("train_degrades_total", 0),
    ] {
        let cell = format!("\"{name}\": {want},");
        assert!(flight.contains(&cell), "last snapshot lacks {cell}: {flight}");
    }
    let wire_bytes = flight
        .split_once("\"train_wire_bytes_total\": ")
        .and_then(|(_, rest)| rest.split(',').next()?.parse::<u64>().ok())
        .expect("train_wire_bytes_total in the flight record");
    assert!(wire_bytes > 0, "no wire bytes before the kill step: {flight}");
    assert!(flight.contains("\"cat\": \"STEP\""), "no flight spans: {flight}");
    // The flight tail is the rank's compute lane. The snapshot sent at
    // the begin of KILL_STEP (the one that pinned last_step) already
    // held that step's begin and the previous step's compute and
    // exchange; later snapshots only add newer spans.
    for (cat, name, step) in [
        ("STEP", "begin", KILL_STEP),
        ("BACKWARD", "grad_compute", KILL_STEP - 1),
        ("MPI_ALLREDUCE", "exchange", KILL_STEP - 1),
    ] {
        let rec = format!("\"cat\": \"{cat}\", \"name\": \"{name}\", \"step\": {step},");
        assert!(flight.contains(&rec), "flight tail lacks {cat}/{name} at step {step}: {flight}");
    }

    // The cluster summary records the shrunken world.
    let cluster =
        std::fs::read_to_string(tel_dir.join("cluster_summary.json")).expect("cluster_summary");
    assert!(cluster.contains("\"ranks_total\": 4,"), "bad summary: {cluster}");
    assert!(cluster.contains("\"ranks_alive\": 3,"), "bad summary: {cluster}");
    assert!(
        cluster.contains(&format!("\"rank\": {KILL_RANK}, \"alive\": false")),
        "summary misses the dead rank: {cluster}"
    );

    // No telemetry file leaks into the plain run's dir.
    assert!(!plain_dir.join("cluster_summary.json").exists());
    assert!(!plain_dir.join(format!("flight_{KILL_RANK}.json")).exists());

    let _ = std::fs::remove_dir_all(&plain_dir);
    let _ = std::fs::remove_dir_all(&tel_dir);
}
