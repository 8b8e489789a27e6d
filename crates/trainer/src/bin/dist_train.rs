//! Multi-process data-parallel training over Unix-domain sockets.
//!
//! Two personalities in one binary:
//!
//! * `dist_train launch --dir D --workers N ...` — binds the
//!   rendezvous socket, spawns N copies of itself as `worker`
//!   subprocesses, assigns ranks, runs the Ready→Start barrier, and
//!   then arbitrates the commit protocol (see
//!   `trainer::real::worker`): collect `StepDone` votes, broadcast
//!   `Commit`, and on a worker death broadcast `Degrade` with a bumped
//!   era. With `--kill-rank R --kill-step S` it SIGKILLs rank R's
//!   process when the first vote for step S arrives — the chaos hook
//!   the kill-a-worker suite drives.
//! * `dist_train worker --dir D --tag T ...` — joins the rendezvous,
//!   builds the socket mesh, trains its rank, writes
//!   `result_r<rank>.json` + `params_r<rank>.bin` into the dir, and
//!   reports `Finished`.
//!
//! Every file this binary writes lands inside `--dir`; the launcher
//! writes a final `summary.json` naming the dead and the degrade
//! steps so tests can replay the exact fault threaded.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use faults::{FaultClock, RetryPolicy};
use trace::chrome::{parse_trace, write_trace, ChromeEvent};
use trace::cluster::{ClusterView, StragglerPolicy};
use trace::telemetry::{decode as decode_telemetry, WorkerTelemetry};
use trace::TraceSession;
use trainer::real::worker::{preset, preset_names, run_worker, WorkerOutcome};
use transport::{join, Frame, FrameKind, PeerConn, Rendezvous, TelemetrySource, WireError};

/// The coordinator's pseudo-rank in frame `from` fields (workers are
/// `0..N`, so `N` can never collide — but any value would do; nothing
/// routes on it).
fn coord_id(workers: usize) -> u16 {
    workers as u16
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = args.first().map(String::as_str);
    let code = match mode {
        Some("launch") => launch(&args[1..]),
        Some("worker") => worker(&args[1..]),
        _ => {
            eprintln!(
                "usage: dist_train launch --dir D [--workers N] [--steps S] [--seed X] \
                 [--preset tiny|quick] [--kill-rank R --kill-step S] \
                 [--telemetry] [--metrics-addr HOST:PORT] [--summary-every K]\n\
                 \x20      dist_train worker --dir D --tag T --workers N --steps S --seed X --preset P"
            );
            2
        }
    };
    std::process::exit(code);
}

fn arg(args: &[String], key: &str) -> Option<String> {
    args.iter().position(|a| a == key).and_then(|i| args.get(i + 1)).cloned()
}

/// A numeric flag: `default` when absent, an error naming the flag when
/// present but unparsable — a typo must not silently train the default.
fn num_arg<T: std::str::FromStr>(args: &[String], key: &str, default: T) -> Result<T, String> {
    let Some(at) = args.iter().position(|a| a == key) else {
        return Ok(default);
    };
    let v = args.get(at + 1).ok_or_else(|| format!("{key}: needs a value"))?;
    v.parse().map_err(|_| format!("{key}: {v:?} is not a non-negative integer"))
}

/// The flags `launch` and `worker` share, checked before anything is
/// spawned, bound or joined.
struct RunArgs {
    workers: usize,
    steps: usize,
    seed: u64,
    preset: String,
    /// Commit-protocol pacing. `base` also derives the heartbeat
    /// interval and the death threshold (see `RetryPolicy`), so one
    /// knob scales the whole failure-detection stack.
    pol: RetryPolicy,
}

fn run_args(args: &[String]) -> Result<RunArgs, String> {
    let workers: usize = num_arg(args, "--workers", 4)?;
    // `coord_id` and every frame's `from` field carry ranks as u16.
    if workers == 0 || workers > u16::MAX as usize {
        return Err(format!("--workers: {workers} is outside 1..={}", u16::MAX));
    }
    let steps: usize = num_arg(args, "--steps", 8)?;
    if steps == 0 {
        return Err("--steps: must be at least 1".into());
    }
    let preset = arg(args, "--preset").unwrap_or_else(|| "tiny".into());
    if !preset_names().contains(&preset.as_str()) {
        return Err(format!(
            "--preset: unknown preset {preset:?} (expected {})",
            preset_names().join("|")
        ));
    }
    Ok(RunArgs {
        workers,
        steps,
        seed: num_arg(args, "--seed", 42)?,
        preset,
        pol: RetryPolicy {
            base: Duration::from_millis(num_arg(args, "--base-ms", 25)?),
            factor: 2,
            max_attempts: 6,
            tick: Duration::from_millis(2),
        },
    })
}

// ---------------------------------------------------------------- launch

struct WorkerSlot {
    conn: PeerConn,
    pid: u32,
    dead: bool,
    finished: bool,
    vote: Option<u32>,
}

fn launch(args: &[String]) -> i32 {
    let Some(dir) = arg(args, "--dir").map(PathBuf::from) else {
        eprintln!("launch: --dir is required");
        return 2;
    };
    let (run, summary_every) =
        match run_args(args).and_then(|r| Ok((r, num_arg(args, "--summary-every", 1u64)?))) {
            Ok(parsed) => parsed,
            Err(e) => {
                eprintln!("launch: {e}");
                return 2;
            }
        };
    let RunArgs { workers, steps, seed, preset: preset_name, pol } = run;
    let traced = args.iter().any(|a| a == "--trace");
    let metrics_addr = arg(args, "--metrics-addr");
    // A scrape endpoint is useless without the plane feeding it, so
    // --metrics-addr implies --telemetry.
    let telemetry_on = args.iter().any(|a| a == "--telemetry") || metrics_addr.is_some();
    let kill: Option<(usize, usize)> = match (arg(args, "--kill-rank"), arg(args, "--kill-step")) {
        (Some(r), Some(s)) => match (r.parse(), s.parse()) {
            (Ok(r), Ok(s)) => Some((r, s)),
            _ => {
                eprintln!("launch: --kill-rank/--kill-step must be integers");
                return 2;
            }
        },
        (None, None) => None,
        _ => {
            eprintln!("launch: --kill-rank and --kill-step go together");
            return 2;
        }
    };
    if let Some((r, s)) = kill {
        if r >= workers || s >= steps {
            eprintln!("launch: kill target rank {r} step {s} outside the run");
            return 2;
        }
    }

    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("launch: cannot create {}: {e}", dir.display());
        return 1;
    }
    let rdzv = match Rendezvous::bind(&dir) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("launch: cannot bind rendezvous socket: {e}");
            return 1;
        }
    };

    // Spawn the workers as copies of this binary.
    let exe = std::env::current_exe().expect("own executable path"); // lint: allow(unwrap): no portable fallback exists for self-spawning
    let mut children: Vec<Child> = Vec::with_capacity(workers);
    for i in 0..workers {
        let mut cmd = Command::new(&exe);
        cmd.arg("worker")
            .args(["--dir", &dir.to_string_lossy()])
            .args(["--tag", &i.to_string()])
            .args(["--workers", &workers.to_string()])
            .args(["--steps", &steps.to_string()])
            .args(["--seed", &seed.to_string()])
            .args(["--preset", &preset_name])
            .args(["--base-ms", &pol.base.as_millis().to_string()])
            .stdin(Stdio::null());
        if traced {
            cmd.arg("--trace");
        }
        if telemetry_on {
            cmd.arg("--telemetry");
        }
        let child = cmd.spawn();
        match child {
            Ok(c) => children.push(c),
            Err(e) => {
                eprintln!("launch: spawning worker {i} failed: {e}");
                for mut c in children {
                    let _ = c.kill();
                }
                return 1;
            }
        }
    }

    let telem = telemetry_on.then(|| TelemetryPlane::new(summary_every));
    let server = match (&metrics_addr, &telem) {
        (Some(addr), Some(t)) => match serve_metrics(addr, &dir, Arc::clone(&t.view)) {
            Ok(s) => Some(s),
            Err(e) => {
                eprintln!("launch: metrics endpoint: {e}");
                for mut c in children {
                    let _ = c.kill();
                }
                return 1;
            }
        },
        _ => None,
    };

    let result = coordinate(&rdzv, &dir, workers, kill, &pol, &mut children, telem.as_ref());

    // One last window flush so post-mortems see the final cluster
    // state even when the run (or its summary cadence) ended badly.
    if let Some(t) = &telem {
        t.write_summary(&dir);
    }
    if let Some(s) = server {
        s.shutdown();
    }

    if traced && result.is_ok() {
        match merge_traces(&dir, workers) {
            Ok(n) => println!("launch: merged {n} worker trace lanes into trace_merged.json"),
            Err(e) => eprintln!("launch: trace merge failed: {e}"),
        }
    }

    // Reap everything; a SIGKILLed child's status is expected to be
    // signal-terminated, anyone else must have exited cleanly.
    let mut exit = match &result {
        Ok(_) => 0,
        Err(e) => {
            eprintln!("launch: {e}");
            for c in children.iter_mut() {
                let _ = c.kill();
            }
            1
        }
    };
    let dead_pids = result.unwrap_or_default();
    for (i, c) in children.iter_mut().enumerate() {
        let was_killed = dead_pids.contains(&c.id());
        match c.wait() {
            Ok(status) if !status.success() => {
                if !was_killed && exit == 0 {
                    eprintln!("launch: worker process {i} exited with {status}");
                    exit = 1;
                }
            }
            Ok(_) => {}
            Err(e) => {
                eprintln!("launch: waiting on worker {i}: {e}");
                exit = 1;
            }
        }
    }
    exit
}

/// Rendezvous, barrier, and the commit/degrade event loop. Returns the
/// pids of the ranks that died (their signal exits are expected when
/// reaping). `children[i]` is the worker spawned with tag `i`; ranks
/// are assigned by arrival, so kill targets resolve through the hello
/// pids.
fn coordinate(
    rdzv: &Rendezvous,
    dir: &Path,
    workers: usize,
    kill: Option<(usize, usize)>,
    pol: &RetryPolicy,
    children: &mut [Child],
    telem: Option<&TelemetryPlane>,
) -> Result<Vec<u32>, String> {
    let me = coord_id(workers);
    let joined = rdzv.assemble(workers).map_err(|e| format!("rendezvous failed: {e}"))?;
    let mut slots: Vec<WorkerSlot> = Vec::with_capacity(workers);
    for (rank, (hello, stream)) in joined.into_iter().enumerate() {
        let conn = PeerConn::solo(rank, me as usize, stream, Some(*pol))
            .map_err(|e| format!("control conn for rank {rank}: {e}"))?;
        if !children.iter().any(|c| c.id() == hello.pid) {
            return Err(format!("rank {rank} announced unknown pid {}", hello.pid));
        }
        slots.push(WorkerSlot { conn, pid: hello.pid, dead: false, finished: false, vote: None });
    }

    // Ready → Start barrier: every worker has a full mesh before any
    // schedule traffic flows. Telemetry piggybacks the heartbeat pump,
    // which starts at conn creation — so telemetry frames can race the
    // Ready and must be absorbed here, not treated as protocol errors.
    // The wait is bounded by one overall deadline per rank: telemetry
    // keeps arriving at beacon cadence even from a worker wedged before
    // its Ready, so per-receive timeouts alone would never expire.
    for (rank, slot) in slots.iter().enumerate() {
        let deadline = Instant::now() + pol.death_threshold();
        loop {
            let now = Instant::now();
            if now >= deadline {
                return Err(format!("rank {rank} never became ready: {}", WireError::Timeout));
            }
            match slot.conn.recv_timeout(deadline - now) {
                Ok(f) if f.kind == FrameKind::Ready => break,
                Ok(f) if f.kind == FrameKind::Telemetry => {
                    if let Some(t) = telem {
                        t.ingest(&f);
                    }
                }
                Ok(f) => return Err(format!("rank {rank} sent {:?} before Ready", f.kind)),
                Err(e) => return Err(format!("rank {rank} never became ready: {e}")),
            }
        }
    }
    for slot in slots.iter() {
        slot.conn
            .send(&Frame::control(FrameKind::Start, me, 0, 0))
            .map_err(|e| format!("start broadcast: {e}"))?;
    }

    let mut era: u32 = 0;
    let mut current_step: u32 = 0;
    let mut killed = false;
    let mut degrades: Vec<(u32, Vec<usize>)> = Vec::new();

    let all_done = |slots: &[WorkerSlot]| slots.iter().all(|s| s.finished || s.dead);
    while !all_done(&slots) {
        for r in 0..workers {
            if slots[r].dead || slots[r].finished {
                continue;
            }
            match slots[r].conn.recv_timeout(pol.tick) {
                Ok(f) => match f.kind {
                    FrameKind::StepDone => {
                        if f.era != era {
                            continue; // stale vote from before a degrade
                        }
                        slots[r].vote = Some(f.step);
                        // Chaos hook: the first current-era vote for the
                        // kill step pulls the trigger — the target may be
                        // computing, mid-exchange, or already voted.
                        if let Some((kr, ks)) = kill {
                            if !killed && f.step as usize == ks && !slots[kr].dead {
                                killed = true;
                                // Any vote for step ks means every rank —
                                // the victim included — already entered the
                                // step-ks exchange, and the victim's
                                // begin-of-step snapshot was sent before its
                                // first mesh send. Drain the victim's ring
                                // so the flight recorder pins the kill step
                                // before the process goes away.
                                if let Some(t) = telem {
                                    drain_victim(&slots[kr], t, kr, ks, pol);
                                }
                                sigkill(children, slots[kr].pid);
                                degrade(
                                    &mut slots,
                                    kr,
                                    &mut era,
                                    current_step,
                                    &mut degrades,
                                    me,
                                    telem,
                                    dir,
                                )?;
                                continue;
                            }
                        }
                        try_commit(&mut slots, era, &mut current_step, me, telem, dir)?;
                    }
                    FrameKind::Finished => slots[r].finished = true,
                    FrameKind::Telemetry => {
                        if let Some(t) = telem {
                            t.ingest(&f);
                        }
                    }
                    _ => {}
                },
                Err(WireError::Timeout) => {
                    // Heartbeats flow even while a worker computes, so
                    // sustained silence means a wedged process.
                    if slots[r].conn.silence() > pol.death_threshold() {
                        degrade(
                            &mut slots,
                            r,
                            &mut era,
                            current_step,
                            &mut degrades,
                            me,
                            telem,
                            dir,
                        )?;
                    }
                }
                Err(WireError::PeerGone) => {
                    degrade(&mut slots, r, &mut era, current_step, &mut degrades, me, telem, dir)?;
                }
                Err(WireError::NoSuchPeer(_)) => unreachable!("control conns are per-slot"),
            }
        }
    }

    let survivors: Vec<usize> = (0..workers).filter(|&r| !slots[r].dead).collect();
    if survivors.is_empty() {
        return Err("every worker died".into());
    }
    write_summary(dir, workers, &survivors, &degrades)
        .map_err(|e| format!("writing summary: {e}"))?;
    Ok((0..workers).filter(|&r| slots[r].dead).map(|r| slots[r].pid).collect())
}

fn sigkill(children: &mut [Child], pid: u32) {
    if let Some(c) = children.iter_mut().find(|c| c.id() == pid) {
        let _ = c.kill();
    }
}

/// Pull whatever the doomed rank already shipped out of its control
/// ring before SIGKILL lands. The victim's begin-of-step snapshot for
/// `ks` was written into our socket buffer before any step-`ks` mesh
/// traffic (see `run_worker`), so this loop terminates as soon as the
/// reader thread has moved those bytes — the deadline only guards
/// against a pathological scheduler stall.
fn drain_victim(
    slot: &WorkerSlot,
    telem: &TelemetryPlane,
    kr: usize,
    ks: usize,
    pol: &RetryPolicy,
) {
    let deadline = Instant::now() + pol.death_threshold();
    // Exit conditions head the loop: a steady stream of Ok frames
    // (beacon-cadence telemetry below step ks, votes) must not be able
    // to hold the SIGKILL past the deadline.
    loop {
        let seen = telem.last_step_of(kr as u16);
        if seen.is_some_and(|s| s as usize >= ks) || Instant::now() >= deadline {
            break;
        }
        match slot.conn.recv_timeout(pol.tick) {
            Ok(f) if f.kind == FrameKind::Telemetry => telem.ingest(&f),
            Ok(_) => {} // in-flight votes for this round get voided by the degrade anyway
            Err(WireError::PeerGone) => break, // nothing more will ever arrive
            Err(_) => {}
        }
    }
}

/// Declare `r` dead: bump the era, void the round's votes, record the
/// degrade, and announce it to every survivor.
#[allow(clippy::too_many_arguments)]
fn degrade(
    slots: &mut [WorkerSlot],
    r: usize,
    era: &mut u32,
    current_step: u32,
    degrades: &mut Vec<(u32, Vec<usize>)>,
    me: u16,
    telem: Option<&TelemetryPlane>,
    dir: &Path,
) -> Result<(), String> {
    if let Some(t) = telem {
        t.flight_dump(dir, r);
    }
    slots[r].dead = true;
    *era += 1;
    for s in slots.iter_mut() {
        s.vote = None;
    }
    degrades.push((current_step, vec![r]));
    let mut f = Frame::control(FrameKind::Degrade, me, *era, current_step);
    f.payload = r.to_string().into_bytes();
    for (other, slot) in slots.iter().enumerate() {
        if slot.dead || slot.finished || other == r {
            continue;
        }
        // A send failing here means that worker is dying too; its own
        // EOF will degrade it on a later sweep.
        let _ = slot.conn.send(&f);
    }
    Ok(())
}

/// Broadcast `Commit` once every live worker has voted this era.
fn try_commit(
    slots: &mut [WorkerSlot],
    era: u32,
    current_step: &mut u32,
    me: u16,
    telem: Option<&TelemetryPlane>,
    dir: &Path,
) -> Result<(), String> {
    let live: Vec<usize> =
        (0..slots.len()).filter(|&r| !slots[r].dead && !slots[r].finished).collect();
    if live.is_empty() || live.iter().any(|&r| slots[r].vote.is_none()) {
        return Ok(());
    }
    let step = slots[live[0]].vote.expect("checked above"); // lint: allow(unwrap): vote presence checked for every live slot above
    for &r in &live {
        if slots[r].vote != Some(step) {
            return Err(format!(
                "split vote: rank {r} at step {:?}, rank {} at step {step}",
                slots[r].vote, live[0]
            ));
        }
    }
    let f = Frame::control(FrameKind::Commit, me, era, step);
    for &r in &live {
        slots[r].conn.send(&f).map_err(|e| format!("commit broadcast to rank {r}: {e}"))?;
    }
    *current_step = step + 1;
    for s in slots.iter_mut() {
        s.vote = None;
    }
    if let Some(t) = telem {
        t.on_commit(dir);
    }
    Ok(())
}

// ------------------------------------------------------------- telemetry

/// Coordinator-side half of the telemetry plane: the shared
/// [`ClusterView`] every scrape reads, plus the step-window summary
/// cadence. Ingest happens on the coordinator thread; the HTTP thread
/// only ever takes the lock to render.
struct TelemetryPlane {
    view: Arc<Mutex<ClusterView>>,
    summary_every: u64,
    commits: std::cell::Cell<u64>,
}

impl TelemetryPlane {
    fn new(summary_every: u64) -> Self {
        TelemetryPlane {
            view: Arc::new(Mutex::new(ClusterView::new(StragglerPolicy::default()))),
            summary_every,
            commits: std::cell::Cell::new(0),
        }
    }

    /// Lock the view, riding out poison: a panicked scrape thread must
    /// not take the training run down with it.
    fn lock(&self) -> MutexGuard<'_, ClusterView> {
        self.view.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Decode and fold one wire snapshot; a straggler edge-crossing
    /// gets one log line, not one per scrape.
    fn ingest(&self, f: &Frame) {
        match decode_telemetry(&f.payload) {
            Ok(snap) => {
                if let Some(a) = self.lock().ingest(snap) {
                    eprintln!(
                        "launch: straggler: rank {} is {:.0}us late (ewma {:.0}us vs best {:.0}us) at step {}",
                        a.rank, a.lateness_us, a.ewma_us, a.best_us, a.step
                    );
                }
            }
            Err(e) => eprintln!("launch: undecodable telemetry from rank {}: {e}", f.from),
        }
    }

    fn last_step_of(&self, rank: u16) -> Option<u32> {
        self.lock().latest(rank).map(|s| s.current_step)
    }

    /// Mark `rank` dead and emit its crash flight record — the
    /// last-known spans, step, and counters that rode telemetry frames
    /// before the process vanished.
    fn flight_dump(&self, dir: &Path, rank: usize) {
        let mut view = self.lock();
        view.mark_dead(rank as u16);
        if let Some(doc) = view.flight_json(rank as u16) {
            if let Err(e) = write_atomic(dir, &format!("flight_{rank}.json"), &doc) {
                eprintln!("launch: writing flight_{rank}.json: {e}");
            }
        }
    }

    fn on_commit(&self, dir: &Path) {
        let n = self.commits.get() + 1;
        self.commits.set(n);
        if self.summary_every > 0 && n.is_multiple_of(self.summary_every) {
            self.write_summary(dir);
        }
    }

    fn write_summary(&self, dir: &Path) {
        let doc = self.lock().summary_json();
        if let Err(e) = write_atomic(dir, "cluster_summary.json", &doc) {
            eprintln!("launch: writing cluster_summary.json: {e}");
        }
    }
}

/// tmp + rename so scrapers polling the dir never see a torn file.
fn write_atomic(dir: &Path, name: &str, body: &str) -> std::io::Result<()> {
    let tmp = dir.join(format!("{name}.tmp"));
    std::fs::write(&tmp, body)?;
    std::fs::rename(tmp, dir.join(name))
}

/// Hand-rolled HTTP/1.1 scrape endpoint. One accept loop, one request
/// per connection, `Connection: close` — everything a Prometheus
/// scraper or a curl needs and nothing more.
struct MetricsServer {
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<()>,
}

impl MetricsServer {
    fn shutdown(self) {
        self.stop.store(true, Ordering::Release);
        // Unblock accept() with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        let _ = self.handle.join();
    }
}

fn serve_metrics(
    addr: &str,
    dir: &Path,
    view: Arc<Mutex<ClusterView>>,
) -> Result<MetricsServer, String> {
    let listener = TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
    let bound = listener.local_addr().map_err(|e| format!("local_addr: {e}"))?;
    // Publish the bound address — port 0 resolves here, and tests/CI
    // read this file instead of guessing.
    write_atomic(dir, "metrics_addr.txt", &bound.to_string())
        .map_err(|e| format!("writing metrics_addr.txt: {e}"))?;
    println!("launch: serving metrics on http://{bound}/metrics");
    let stop = Arc::new(AtomicBool::new(false));
    let thread_stop = Arc::clone(&stop);
    let handle = std::thread::Builder::new()
        .name("metrics-http".into())
        .spawn(move || scrape_loop(listener, view, thread_stop))
        .map_err(|e| format!("spawning scrape thread: {e}"))?;
    Ok(MetricsServer { addr: bound, stop, handle })
}

fn scrape_loop(listener: TcpListener, view: Arc<Mutex<ClusterView>>, stop: Arc<AtomicBool>) {
    for conn in listener.incoming() {
        if stop.load(Ordering::Acquire) {
            break;
        }
        let Ok(mut stream) = conn else { continue };
        let _ = serve_one(&mut stream, &view);
    }
}

fn serve_one(stream: &mut TcpStream, view: &Arc<Mutex<ClusterView>>) -> std::io::Result<()> {
    // A stuck client must not wedge the accept loop.
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    stream.set_write_timeout(Some(Duration::from_millis(500)))?;
    // A request can arrive split across TCP segments; keep reading
    // until the request line is complete (bounded by the read timeout
    // and a size cap) so a slow-trickling scraper isn't 404'd on a
    // truncated path.
    let mut head: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    while !head.windows(2).any(|w| w == b"\r\n") && head.len() < 8192 {
        match stream.read(&mut chunk)? {
            0 => break,
            n => head.extend_from_slice(&chunk[..n]),
        }
    }
    let head = String::from_utf8_lossy(&head);
    let line = head.split("\r\n").next().unwrap_or("");
    let path = line.split_whitespace().nth(1).unwrap_or("/");
    let locked = view.lock().unwrap_or_else(|e| e.into_inner());
    let (status, ctype, body) = match path {
        "/metrics" => ("200 OK", "text/plain; version=0.0.4", locked.to_prometheus_text()),
        "/metrics.json" | "/json" => ("200 OK", "application/json", locked.to_json()),
        _ => ("404 Not Found", "text/plain", "not found; try /metrics or /metrics.json\n".into()),
    };
    drop(locked);
    write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    stream.write_all(body.as_bytes())
}

/// Fold every worker's per-process Chrome trace into one timeline.
/// Each worker recorded under pid = its rank, so the merged file
/// renders one row group per worker. A killed rank has no file and a
/// rank that died mid-write leaves a truncated one; both get a
/// zero-width `trace_gap` marker in their lane instead of sinking the
/// whole merge.
fn merge_traces(dir: &Path, workers: usize) -> std::io::Result<usize> {
    let mut events = Vec::new();
    let mut lanes = 0usize;
    for r in 0..workers {
        let path = dir.join(format!("trace_r{r}.json"));
        let json = match std::fs::read_to_string(&path) {
            Ok(j) => j,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                events.push(gap_event("trace_gap: no trace file (rank killed?)", r));
                continue;
            }
            Err(e) => return Err(e),
        };
        match parse_trace(&json) {
            Ok(parsed) => {
                events.extend(parsed);
                lanes += 1;
            }
            Err(e) => {
                eprintln!("launch: trace for rank {r} unreadable ({e}); noting the gap");
                events.push(gap_event(&format!("trace_gap: unreadable ({e})"), r));
            }
        }
    }
    std::fs::write(dir.join("trace_merged.json"), write_trace(&events))?;
    Ok(lanes)
}

fn gap_event(name: &str, rank: usize) -> ChromeEvent {
    ChromeEvent::complete(name, "FAULT", 0.0, 0.0, rank as u32, 0)
}

fn write_summary(
    dir: &Path,
    workers: usize,
    survivors: &[usize],
    degrades: &[(u32, Vec<usize>)],
) -> std::io::Result<()> {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"workers\": {workers},\n"));
    out.push_str(&format!(
        "  \"survivors\": [{}],\n",
        survivors.iter().map(ToString::to_string).collect::<Vec<_>>().join(", ")
    ));
    out.push_str("  \"degrades\": [");
    let items: Vec<String> = degrades
        .iter()
        .map(|(step, dead)| {
            format!(
                "{{\"step\": {step}, \"dead\": [{}]}}",
                dead.iter().map(ToString::to_string).collect::<Vec<_>>().join(", ")
            )
        })
        .collect();
    out.push_str(&items.join(", "));
    out.push_str("]\n}\n");
    let tmp = dir.join("summary.json.tmp");
    std::fs::write(&tmp, out)?;
    std::fs::rename(tmp, dir.join("summary.json"))
}

// ---------------------------------------------------------------- worker

/// Adapter hanging the worker's [`WorkerTelemetry`] off the control
/// conn's heartbeat thread: every beacon interval becomes a fresh
/// snapshot frame instead of an empty beacon.
struct TelemetryFeed(Arc<WorkerTelemetry>);

impl TelemetrySource for TelemetryFeed {
    fn fill(&self, out: &mut Vec<u8>) -> bool {
        self.0.encode_into(out);
        true
    }
}

fn worker(args: &[String]) -> i32 {
    let run = match run_args(args) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("worker: {e}");
            return 2;
        }
    };
    match worker_inner(args, run) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("worker: {e}");
            1
        }
    }
}

fn worker_inner(args: &[String], run: RunArgs) -> Result<(), String> {
    let dir = arg(args, "--dir").map(PathBuf::from).ok_or("--dir is required")?;
    let tag = arg(args, "--tag").ok_or("--tag is required")?;
    let RunArgs { workers, steps, seed, preset: preset_name, pol } = run;
    let clock = FaultClock::real();

    let joined = join(&dir, &tag, &pol, &clock).map_err(|e| format!("rendezvous join: {e}"))?;
    let rank = joined.rank;
    let (mesh, ctl_stream) =
        joined.build_mesh(pol, &clock).map_err(|e| format!("mesh build: {e}"))?;
    // Telemetry rides the control conn only — data wires stay
    // byte-identical with or without the plane.
    let tel: Option<Arc<WorkerTelemetry>> = args
        .iter()
        .any(|a| a == "--telemetry")
        .then(|| Arc::new(WorkerTelemetry::new(rank as u16)));
    let ctl = match &tel {
        Some(t) => PeerConn::solo_with_telemetry(
            workers,
            rank,
            ctl_stream,
            pol,
            Arc::new(TelemetryFeed(Arc::clone(t))),
        ),
        None => PeerConn::solo(workers, rank, ctl_stream, Some(pol)),
    }
    .map_err(|e| format!("control conn: {e}"))?;

    ctl.send(&Frame::control(FrameKind::Ready, rank as u16, 0, 0))
        .map_err(|e| format!("ready: {e}"))?;
    loop {
        match ctl.recv_timeout(pol.death_threshold()) {
            Ok(f) if f.kind == FrameKind::Start => break,
            Ok(_) => {}
            Err(e) => return Err(format!("waiting for start: {e}")),
        }
    }

    let mut cfg = preset(&preset_name, workers, steps, seed);
    let session = if args.iter().any(|a| a == "--trace") {
        Some(std::sync::Arc::new(TraceSession::new()))
    } else {
        None
    };
    cfg.trace = session.clone();
    let outcome = run_worker(&cfg, &mesh, &ctl, pol, tel.as_deref()).map_err(|e| e.to_string())?;
    write_results(&dir, &outcome).map_err(|e| format!("writing results: {e}"))?;
    if let Some(s) = &session {
        std::fs::write(dir.join(format!("trace_r{rank}.json")), s.recorder.to_chrome_json())
            .map_err(|e| format!("writing trace: {e}"))?;
    }
    ctl.send(&Frame::control(FrameKind::Finished, rank as u16, 0, steps as u32))
        .map_err(|e| format!("finished: {e}"))?;
    Ok(())
}

fn write_results(dir: &Path, out: &WorkerOutcome) -> std::io::Result<()> {
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"rank\": {},\n", out.rank));
    json.push_str(&format!(
        "  \"survivors\": [{}],\n",
        out.survivors.iter().map(ToString::to_string).collect::<Vec<_>>().join(", ")
    ));
    json.push_str("  \"degrades\": [");
    let items: Vec<String> = out
        .degradations
        .iter()
        .map(|d| {
            format!(
                "{{\"step\": {}, \"dead\": [{}], \"era\": {}}}",
                d.step,
                d.dead.iter().map(ToString::to_string).collect::<Vec<_>>().join(", "),
                d.era
            )
        })
        .collect();
    json.push_str(&items.join(", "));
    json.push_str("],\n");
    json.push_str(&format!(
        "  \"losses\": [{}]\n",
        out.step_losses.iter().map(|l| format!("{l:.17e}")).collect::<Vec<_>>().join(", ")
    ));
    json.push_str("}\n");
    std::fs::write(dir.join(format!("result_r{}.json", out.rank)), json)?;

    let mut bytes = Vec::with_capacity(out.final_params.len() * 4);
    for &p in &out.final_params {
        bytes.extend_from_slice(&p.to_le_bytes());
    }
    let mut f = std::fs::File::create(dir.join(format!("params_r{}.bin", out.rank)))?;
    f.write_all(&bytes)
}
