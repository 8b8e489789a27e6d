//! Multi-process data-parallel training over Unix-domain sockets.
//!
//! Two personalities in one binary:
//!
//! * `dist_train launch --dir D --workers N ...` — binds the
//!   rendezvous socket, spawns N copies of itself as `worker`
//!   subprocesses, assigns ranks, and then serves the commit
//!   coordinator (`trainer::real::commit::coordinate`): every control
//!   connection feeds one inbox, and this file is the loop's shell —
//!   each action becomes a frame write, a SIGKILL (`--kill-rank R
//!   --kill-step S`, the chaos hook the kill-a-worker suite drives) or
//!   a file.
//! * `dist_train worker --dir D --tag T ...` — joins the rendezvous,
//!   builds the socket mesh, trains its rank, writes
//!   `result_r<rank>.json` + `params_r<rank>.bin`, reports `Finished`.
//!
//! The protocol — frames, votes, eras, who is dead, the event loop —
//! lives in `trainer::real::commit`, and `try_train` runs it too, over
//! threads; this file owns processes and I/O. Every
//! file it writes lands inside `--dir`; the launcher's final
//! `summary.json` names the dead and the degrade steps so tests can
//! replay the exact fault threaded.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use faults::{FaultClock, RetryPolicy};
use trace::chrome::{parse_trace, write_trace, ChromeEvent};
use trace::cluster::{ClusterView, StragglerPolicy};
use trace::telemetry::{decode as decode_telemetry, WorkerTelemetry, FLIGHT_CAPACITY};
use trace::{TraceRecorder, TraceSession};
use trainer::real::commit::{self, Coordinator, Shell};
use trainer::real::worker::{compute_lane, preset, preset_names, run_worker};
use transport::{join, Frame, Inbox, PeerConn, Rendezvous};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = args.first().map_or("", String::as_str);
    if mode != "launch" && mode != "worker" {
        eprintln!(
            "usage: dist_train launch --dir D [--workers N] [--steps S] [--seed X] \
             [--preset tiny|quick] [--base-ms B] [--kill-rank R --kill-step S] \
             [--trace] [--telemetry] [--metrics-addr HOST:PORT]\n\
             \x20      dist_train worker --dir D --tag T --workers N --steps S --seed X --preset P"
        );
        std::process::exit(2);
    }
    // Flags are checked before anything is created, bound or spawned:
    // a bad command line is exit 2, a failed run exit 1.
    let run = Flags::parse(&args[1..], mode == "launch").map_err(|e| (2, e)).and_then(|flags| {
        let run = if mode == "launch" { launch(&flags) } else { worker(&flags) };
        run.map_err(|e| (1, e))
    });
    let code = run.unwrap_or_else(|(code, e)| {
        eprintln!("{mode}: {e}");
        code
    });
    std::process::exit(code);
}

// ----------------------------------------------------------------- flags

/// Flags of both modes: those that take a value, and those that do not.
const VALUED: &[&str] = &["--dir", "--workers", "--steps", "--seed", "--preset", "--base-ms"];
const BARE: &[&str] = &["--trace", "--telemetry"];

/// One mode's command line: every token accounted for, every value checked.
struct Flags {
    dir: PathBuf,
    tag: Option<String>,
    workers: usize,
    steps: usize,
    seed: u64,
    preset: String,
    /// Commit-protocol pacing. `base` also derives the heartbeat
    /// interval and the death threshold (see `RetryPolicy`), so one
    /// knob scales the whole failure-detection stack.
    pol: RetryPolicy,
    traced: bool,
    telemetry: bool,
    metrics_addr: Option<String>,
    kill: Option<(usize, usize)>,
    /// The tokens both modes take, as given: what `launch` hands its
    /// workers, whose defaults are this parser's too.
    shared: Vec<String>,
}

impl Flags {
    fn parse(args: &[String], launching: bool) -> Result<Flags, String> {
        let mode_valued: &[&str] =
            if launching { &["--kill-rank", "--kill-step", "--metrics-addr"] } else { &["--tag"] };
        // Each flag given and its value ("" for a flag that takes none).
        let mut given: Vec<(&str, &str)> = Vec::new();
        let mut shared: Vec<String> = Vec::new();
        let mut tokens = args.iter().map(String::as_str);
        while let Some(tok) = tokens.next() {
            let value = if BARE.contains(&tok) {
                None
            } else if VALUED.contains(&tok) || mode_valued.contains(&tok) {
                Some(tokens.next().ok_or_else(|| format!("{tok}: needs a value"))?)
            } else {
                // A typo must not silently train the default.
                return Err(format!("{tok}: unknown flag"));
            };
            if !mode_valued.contains(&tok) {
                shared.extend(std::iter::once(tok).chain(value).map(str::to_string));
            }
            given.push((tok, value.unwrap_or("")));
        }
        fn get<'a>(given: &[(&str, &'a str)], key: &str) -> Option<&'a str> {
            given.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
        }
        fn num<T: FromStr>(given: &[(&str, &str)], key: &str) -> Result<Option<T>, String> {
            let bad = |v| format!("{key}: {v:?} is not a non-negative integer");
            get(given, key).map(|v| v.parse().map_err(|_| bad(v))).transpose()
        }

        let workers: usize = num(&given, "--workers")?.unwrap_or(4);
        // Every frame's `from` field carries ranks as u16, and the
        // coordinator signs as `workers`.
        if workers == 0 || workers > u16::MAX as usize {
            return Err(format!("--workers: {workers} is outside 1..={}", u16::MAX));
        }
        let steps: usize = num(&given, "--steps")?.unwrap_or(8);
        if steps == 0 {
            return Err("--steps: must be at least 1".into());
        }
        let preset = get(&given, "--preset").unwrap_or("tiny");
        if !preset_names().contains(&preset) {
            return Err(format!(
                "--preset: unknown preset {preset:?} (expected {})",
                preset_names().join("|")
            ));
        }
        let kill_rank = num(&given, "--kill-rank")?;
        let kill = match (kill_rank, num(&given, "--kill-step")?) {
            (Some(r), Some(s)) if r >= workers || s >= steps => {
                return Err(format!("--kill-rank: rank {r} step {s} is outside the run"))
            }
            (Some(r), Some(s)) => Some((r, s)),
            (None, None) => None,
            _ => return Err("--kill-rank: goes together with --kill-step".into()),
        };
        let base_ms: u64 = num(&given, "--base-ms")?.unwrap_or(25);
        // The heartbeat interval and the death threshold derive from it:
        // at 0 every peer is dead before it is heard.
        if base_ms == 0 {
            return Err("--base-ms: must be at least 1".into());
        }
        let metrics_addr = get(&given, "--metrics-addr").map(str::to_string);
        Ok(Flags {
            dir: get(&given, "--dir").map(PathBuf::from).ok_or("--dir: is required")?,
            tag: get(&given, "--tag").map(str::to_string),
            workers,
            steps,
            seed: num(&given, "--seed")?.unwrap_or(42),
            preset: preset.to_string(),
            pol: RetryPolicy {
                base: Duration::from_millis(base_ms),
                factor: 2,
                max_attempts: 6,
                tick: Duration::from_millis(2),
            },
            traced: get(&given, "--trace").is_some(),
            // A scrape endpoint is useless without the plane feeding
            // it, so --metrics-addr implies --telemetry.
            telemetry: get(&given, "--telemetry").is_some() || metrics_addr.is_some(),
            metrics_addr,
            kill,
            shared,
        })
    }
}

// ---------------------------------------------------------------- launch

/// The spawned workers (`.0[i]` has tag `i`; ranks go by arrival, so a
/// rank finds its process through its hello's pid). Dropping the brood
/// kills and reaps whoever still runs: no error path leaves a worker.
struct Brood(Vec<Child>);

impl Drop for Brood {
    fn drop(&mut self) {
        for c in &mut self.0 {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

fn launch(flags: &Flags) -> Result<i32, String> {
    let Flags { dir, workers, pol, .. } = flags;
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let rdzv = Rendezvous::bind(dir).map_err(|e| format!("cannot bind rendezvous socket: {e}"))?;

    // Spawn the workers as copies of this binary.
    let exe = std::env::current_exe().expect("own executable path"); // lint: allow(unwrap): no portable fallback exists for self-spawning
    let mut brood = Brood(Vec::with_capacity(*workers));
    for i in 0..*workers {
        let mut cmd = Command::new(&exe);
        cmd.arg("worker").args(&flags.shared).args(["--tag", &i.to_string()]).stdin(Stdio::null());
        if flags.telemetry {
            cmd.arg("--telemetry"); // implied by --metrics-addr, which a worker does not take
        }
        brood.0.push(cmd.spawn().map_err(|e| format!("spawning worker {i} failed: {e}"))?);
    }

    let mut telem = flags.telemetry.then(|| TelemetryPlane::new(dir, pol.heartbeat_interval()));
    let server = (telem.as_ref().zip(flags.metrics_addr.as_ref()))
        .map(|(t, addr)| serve_metrics(addr, dir, Arc::clone(&t.view)))
        .transpose()
        .map_err(|e| format!("metrics endpoint: {e}"))?;

    let result = coordinate(&rdzv, flags, &mut brood.0, telem.as_mut());

    // One last flush so post-mortems see the final cluster state even
    // when the run ended badly.
    if let Some(t) = &mut telem {
        t.write_summary();
    }
    if let Some(s) = server {
        s.shutdown();
    }
    let dead_pids = result?;

    if flags.traced {
        match merge_traces(dir, *workers) {
            Ok(n) => println!("launch: merged {n} worker trace lanes into trace_merged.json"),
            Err(e) => eprintln!("launch: trace merge failed: {e}"),
        }
    }

    // Reap everything; a SIGKILLed child's status is expected to be
    // signal-terminated, anyone else must have exited cleanly.
    let mut exit = 0;
    for (i, c) in brood.0.iter_mut().enumerate() {
        match c.wait() {
            Ok(status) if !status.success() && !dead_pids.contains(&c.id()) && exit == 0 => {
                eprintln!("launch: worker process {i} exited with {status}");
                exit = 1;
            }
            Ok(_) => {}
            Err(e) => {
                eprintln!("launch: waiting on worker {i}: {e}");
                exit = 1;
            }
        }
    }
    Ok(exit)
}

/// Rendezvous, then the commit coordinator's event loop over the
/// workers' control connections. Returns the pids of the ranks that
/// died (their signal exits are expected when reaping).
fn coordinate(
    rdzv: &Rendezvous,
    flags: &Flags,
    children: &mut [Child],
    telem: Option<&mut TelemetryPlane>,
) -> Result<Vec<u32>, String> {
    let Flags { dir, workers, pol, .. } = flags;
    let me = *workers; // no worker's id; nothing routes on it
    let joined = rdzv.assemble(*workers).map_err(|e| format!("rendezvous failed: {e}"))?;
    let inbox = Inbox::sockets();
    let mut conns: Vec<Option<PeerConn>> = Vec::with_capacity(*workers);
    let mut pids: Vec<u32> = Vec::with_capacity(*workers);
    for (rank, (hello, stream)) in joined.into_iter().enumerate() {
        if !children.iter().any(|c| c.id() == hello.pid) {
            return Err(format!("rank {rank} announced unknown pid {}", hello.pid));
        }
        conns.push(Some(
            PeerConn::solo_into(rank, me, stream, Some(*pol), &inbox)
                .map_err(|e| format!("control conn for rank {rank}: {e}"))?,
        ));
        pids.push(hello.pid);
    }

    let kill = flags.kill.map(|(rank, step)| (rank, step as u32));
    let mut machine = Coordinator::new(*workers, kill);
    let mut shell = Processes { pids: &pids, children, telem };
    commit::coordinate(&mut machine, &inbox, &conns, pol, &mut shell)?;

    let survivors = machine.survivors();
    if survivors.is_empty() {
        return Err("every worker died".into());
    }
    write_atomic(dir, "summary.json", &machine.summary_json())
        .map_err(|e| format!("writing summary: {e}"))?;
    Ok((0..*workers).filter(|r| !survivors.contains(r)).map(|r| pids[r]).collect())
}

/// The coordinator's side of a launch besides the control connections:
/// each rank's process, and the telemetry plane a death's flight record
/// goes to.
struct Processes<'a> {
    pids: &'a [u32],
    children: &'a mut [Child],
    telem: Option<&'a mut TelemetryPlane>,
}

impl Shell for Processes<'_> {
    fn kill(&mut self, rank: usize) {
        if let Some(c) = self.children.iter_mut().find(|c| c.id() == self.pids[rank]) {
            let _ = c.kill();
        }
    }

    fn dead(&mut self, rank: usize) {
        if let Some(t) = self.telem.as_deref_mut() {
            t.flight_dump(rank);
        }
    }

    fn telemetry(&mut self, frame: &Frame) {
        if let Some(t) = self.telem.as_deref_mut() {
            t.ingest(frame);
        }
    }
}

// ------------------------------------------------------------- telemetry

/// Coordinator-side half of the telemetry plane: the shared
/// [`ClusterView`] every scrape reads, plus the wall-clock cadence of
/// `cluster_summary.json`. Ingest happens on the coordinator thread;
/// the HTTP thread only ever takes the lock to render.
struct TelemetryPlane {
    view: Arc<Mutex<ClusterView>>,
    dir: PathBuf,
    /// Least wall-clock time between two summaries written on ingest.
    cadence: Duration,
    summary_due: Instant,
}

impl TelemetryPlane {
    fn new(dir: &Path, cadence: Duration) -> Self {
        TelemetryPlane {
            view: Arc::new(Mutex::new(ClusterView::new(StragglerPolicy::default()))),
            dir: dir.to_path_buf(),
            cadence,
            summary_due: Instant::now(),
        }
    }

    /// Lock the view, riding out poison: a panicked scrape thread must
    /// not take the training run down with it.
    fn lock(&self) -> MutexGuard<'_, ClusterView> {
        self.view.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Decode and fold one wire snapshot; a straggler edge-crossing
    /// gets one log line, not one per scrape. The summary file follows
    /// the wall clock, not the step rate.
    fn ingest(&mut self, f: &Frame) {
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
        if Instant::now() >= self.summary_due {
            self.write_summary();
        }
    }

    /// Mark `rank` dead, emit its crash flight record — the last-known
    /// spans, step, and counters that rode telemetry frames before the
    /// process vanished — and record the shrunken world.
    fn flight_dump(&mut self, rank: usize) {
        let mut view = self.lock();
        view.mark_dead(rank as u16);
        if let Some(doc) = view.flight_json(rank as u16) {
            if let Err(e) = write_atomic(&self.dir, &format!("flight_{rank}.json"), &doc) {
                eprintln!("launch: writing flight_{rank}.json: {e}");
            }
        }
        drop(view);
        self.write_summary();
    }

    fn write_summary(&mut self) {
        let doc = self.lock().summary_json();
        if let Err(e) = write_atomic(&self.dir, "cluster_summary.json", &doc) {
            eprintln!("launch: writing cluster_summary.json: {e}");
        }
        self.summary_due = Instant::now() + self.cadence;
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
    let stopped = Arc::clone(&stop);
    let scrape_loop = move || {
        for mut stream in listener.incoming().flatten() {
            if stopped.load(Ordering::Acquire) {
                break;
            }
            let _ = serve_one(&mut stream, &view);
        }
    };
    let handle = std::thread::Builder::new()
        .name("metrics-http".into())
        .spawn(scrape_loop)
        .map_err(|e| format!("spawning scrape thread: {e}"))?;
    Ok(MetricsServer { addr: bound, stop, handle })
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

// ---------------------------------------------------------------- worker

fn worker(flags: &Flags) -> Result<i32, String> {
    let Flags { dir, workers, steps, pol, .. } = flags;
    let tag = flags.tag.as_deref().ok_or("--tag: is required")?;
    let clock = FaultClock::real();

    let joined = join(dir, tag, pol, &clock).map_err(|e| format!("rendezvous join: {e}"))?;
    let rank = joined.rank;
    let (mesh, ctl) = joined.build_mesh(*pol, &clock).map_err(|e| format!("mesh build: {e}"))?;
    let session = flags.traced.then(|| Arc::new(TraceSession::new()));
    // Telemetry rides the control conn only — data wires stay
    // byte-identical with or without the plane — and the rank body is
    // its only sender. Its flight recorder is the tail of the rank's
    // compute lane: the trace session's, or a private one just long
    // enough to ship.
    let mut tel = flags.telemetry.then(|| {
        let lane = match &session {
            Some(s) => compute_lane(&s.recorder, rank),
            None => compute_lane(&TraceRecorder::with_capacity(FLIGHT_CAPACITY), rank),
        };
        WorkerTelemetry::new(rank as u16, lane)
    });
    commit::join_barrier(&ctl, pol, rank)?;

    let mut cfg = preset(&flags.preset, *workers, *steps, flags.seed);
    cfg.trace = session.clone();
    let outcome =
        run_worker(&cfg, &mesh, &ctl, *pol, tel.as_mut(), None).map_err(|e| e.to_string())?;
    let mut params = Vec::with_capacity(outcome.final_params.len() * 4);
    for &p in &outcome.final_params {
        params.extend_from_slice(&p.to_le_bytes());
    }
    std::fs::write(dir.join(format!("result_r{rank}.json")), outcome.result_json())
        .and_then(|()| std::fs::write(dir.join(format!("params_r{rank}.bin")), params))
        .map_err(|e| format!("writing results: {e}"))?;
    if let Some(s) = &session {
        std::fs::write(dir.join(format!("trace_r{rank}.json")), s.recorder.to_chrome_json())
            .map_err(|e| format!("writing trace: {e}"))?;
    }
    commit::report_finished(&ctl, rank, *steps)?;
    Ok(0)
}
