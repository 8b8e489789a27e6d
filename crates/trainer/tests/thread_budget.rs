//! The thread budget of a launch, read from `/proc/<pid>/task` while a
//! `dist_train launch` trains, at 2 and at 4 workers. The transport
//! runs no thread: every wait on a connection polls, reads and beacons
//! all of its owner's connections. So the launcher runs main alone, and
//! each worker runs main and the shared core pool's helpers — one per
//! lane past the first, so `available_parallelism() - 1` of them: 2
//! threads a worker on a 2-core machine, 4 on a 4-core one, 1 on one
//! core. No thread is a heartbeat (`hb-*`) or a dedicated reader
//! (`rx-*`).
//!
//! An in-process run (`try_train`) takes the same socket control
//! streams, a `socketpair` per rank, with no beacon: read from
//! `/proc/self`, it adds no `hb-*` thread and leaves no descriptor open.

use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use trainer::real::train::try_train;
use trainer::real::worker::preset;

/// One test at a time: spawning the launcher opens descriptors in this
/// process for a moment, which the in-process test would count.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// How many of a process's threads are heartbeats, core-pool helpers,
/// readers, and anything else (the main thread).
#[derive(Debug, PartialEq)]
struct Budget {
    heartbeats: usize,
    pool_helpers: usize,
    readers: usize,
    other: usize,
}

impl Budget {
    fn of(names: &[String]) -> Budget {
        let count = |prefix: &str| names.iter().filter(|n| n.starts_with(prefix)).count();
        let (heartbeats, pool_helpers, readers) = (count("hb-"), count("core-pool-"), count("rx-"));
        Budget {
            heartbeats,
            pool_helpers,
            readers,
            other: names.len() - heartbeats - pool_helpers - readers,
        }
    }
}

const LAUNCHER: Budget = Budget { heartbeats: 0, pool_helpers: 0, readers: 0, other: 1 };

/// A worker's budget: its shared core pool has a lane per available
/// core, the calling thread being the first.
fn worker_budget() -> Budget {
    let pool_helpers = collectives::pool::lanes() - 1;
    Budget { heartbeats: 0, pool_helpers, readers: 0, other: 1 }
}

/// Names of `pid`'s threads; `None` once it has exited.
fn threads(pid: u32) -> Option<Vec<String>> {
    let tasks = std::fs::read_dir(format!("/proc/{pid}/task")).ok()?;
    let names = tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("comm")).ok())
        .map(|name| name.trim_end().to_string())
        .collect();
    Some(names)
}

/// Pids whose parent is `pid`.
fn children(pid: u32) -> Vec<u32> {
    let Ok(proc_dir) = std::fs::read_dir("/proc") else { return Vec::new() };
    proc_dir
        .flatten()
        .filter_map(|e| std::fs::read_to_string(e.path().join("stat")).ok())
        .filter_map(|stat| {
            // `pid (comm) state ppid ...`; comm may hold spaces.
            let (head, tail) = stat.rsplit_once(')')?;
            let ppid: u32 = tail.split_whitespace().nth(1)?.parse().ok()?;
            let child: u32 = head.split_whitespace().next()?.parse().ok()?;
            (ppid == pid).then_some(child)
        })
        .collect()
}

/// SIGKILLs the launcher and its workers however the test ends.
struct Launch {
    launcher: Child,
    workers: Vec<u32>,
}

impl Drop for Launch {
    fn drop(&mut self) {
        for pid in &self.workers {
            let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
        }
        let _ = self.launcher.kill();
        let _ = self.launcher.wait();
    }
}

/// Launch `workers` workers on the quick preset and, once every one is
/// training, check every process's threads twenty times over: the
/// launcher's against [`LAUNCHER`], each worker's against
/// [`worker_budget`].
fn check_launch(workers: usize) {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let dir = std::env::temp_dir().join(format!("seg_threads_{workers}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let launcher = Command::new(env!("CARGO_BIN_EXE_dist_train"))
        .arg("launch")
        .args(["--dir", &dir.to_string_lossy()])
        .args(["--workers", &workers.to_string(), "--steps", "100000", "--preset", "quick"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("launching dist_train");
    let pid = launcher.id();
    let mut launch = Launch { launcher, workers: Vec::new() };

    // Training is under way once every worker has fanned out onto the
    // shared core pool (which has no helper to wait for on a single
    // core).
    let worker = worker_budget();
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        launch.workers = children(pid);
        let training = launch.workers.len() == workers
            && launch.workers.iter().all(|&w| {
                threads(w).is_some_and(|t| Budget::of(&t).pool_helpers == worker.pool_helpers)
            });
        if training {
            break;
        }
        assert!(Instant::now() < deadline, "no {workers} training workers under launcher {pid}");
        std::thread::sleep(Duration::from_millis(5));
    }

    for _ in 0..20 {
        let mut seen = vec![("launcher", pid, &LAUNCHER)];
        seen.extend(launch.workers.iter().map(|&w| ("worker", w, &worker)));
        let mut total = 0;
        for (role, p, want) in seen {
            let names = threads(p).unwrap_or_else(|| panic!("{role} {p} exited mid-run"));
            assert_eq!(&Budget::of(&names), want, "{role} {p} threads: {names:?}");
            total += names.len();
        }
        assert_eq!(total, 1 + workers * collectives::pool::lanes(), "threads in the launch");
        std::thread::sleep(Duration::from_millis(10));
    }
    drop(launch);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn two_worker_launch_runs_main_and_pool_helpers_only() {
    check_launch(2);
}

/// 9 threads on a 2-core machine.
#[test]
fn four_worker_launch_runs_main_and_pool_helpers_only() {
    check_launch(4);
}

/// This process's open descriptors, each with what it points at.
fn open_fds() -> Vec<(String, String)> {
    let mut fds: Vec<(String, String)> = std::fs::read_dir("/proc/self/fd")
        .expect("/proc/self/fd")
        .flatten()
        .map(|e| {
            let target = std::fs::read_link(e.path()).unwrap_or_default();
            (e.file_name().to_string_lossy().into_owned(), target.to_string_lossy().into_owned())
        })
        .collect();
    fds.sort();
    fds
}

#[test]
fn in_process_run_adds_no_heartbeat_and_leaves_no_descriptor() {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let me = std::process::id();
    let heartbeats = || {
        let names = threads(me).expect("own threads");
        names.into_iter().filter(|n| n.starts_with("hb-")).collect::<Vec<_>>()
    };
    let (hb_before, fds_before) = (heartbeats(), open_fds());
    let result = try_train(&preset("tiny", 3, 12, 42)).expect("in-process run");
    assert_eq!(result.step_losses.len(), 12);
    assert_eq!(heartbeats(), hb_before, "no heartbeat thread");
    assert_eq!(open_fds(), fds_before, "every control stream closed");
}
