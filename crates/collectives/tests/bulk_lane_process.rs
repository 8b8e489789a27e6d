//! The bulk lane across a real process boundary. The test binary
//! re-spawns itself as rank 1, its end of a socketpair as the child's
//! stdin: the segment each side sends through is a `memfd` passed to
//! the other over that socket, so this is the path `dist_train`'s
//! workers take. Bulk allreduces (2 MiB frames) between the two
//! processes are bit-exact and every data frame rides the lane; then
//! the child is SIGKILLed with a slot half written. Rank 0 sees the
//! death as `PeerDead` well within the death threshold, applies nothing
//! (no descriptor ever named that slot), and no shared-memory object is
//! left in `/dev/shm`.

use std::io::{BufRead, BufReader, Write};
use std::os::fd::{AsFd, OwnedFd};
use std::os::unix::net::UnixStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use collectives::{Algorithm, CtlSignal, PeerExecError, PeerExecutor, ReduceOp, Schedule};
use faults::RetryPolicy;
use transport::{Lease, SocketMesh, Wire};

const ELEMS: usize = 1 << 20;
const STEPS: usize = 4;
/// The child's role, set in its environment.
const CHILD_ENV: &str = "BULK_LANE_PROCESS_CHILD";
/// What the child writes into the slot it is killed in the middle of:
/// a NaN no input or sum here can produce.
const POISON: u32 = 0x7fc0_dead;
/// The child's line once its slot is half written.
const HALF: &str = "rank 1: slot half written";

fn policy() -> RetryPolicy {
    RetryPolicy {
        base: Duration::from_millis(50),
        factor: 2,
        max_attempts: 6,
        tick: Duration::from_millis(1),
    }
}

fn input(rank: usize, step: usize, i: usize) -> f32 {
    ((step * 13 + i * (rank + 3)) % 2048) as f32 * 0.5
}

/// One bulk allreduce of `step`'s inputs, checked bit for bit.
fn step_checked(exec: &mut PeerExecutor, schedule: &Schedule, rank: usize, step: usize) {
    let mut buf: Vec<f32> = (0..ELEMS).map(|i| input(rank, step, i)).collect();
    exec.begin_step(step);
    exec.allreduce(schedule, &mut buf, ReduceOp::Sum, &[0, 1], &mut || CtlSignal::Continue)
        .unwrap_or_else(|e| panic!("rank {rank} step {step}: {e}"));
    for (i, x) in buf.iter().enumerate() {
        let want = input(0, step, i) + input(1, step, i);
        assert_eq!(x.to_bits(), want.to_bits(), "rank {rank} step {step} elem {i}");
    }
}

fn dev_shm() -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir("/dev/shm")
        .map(|d| d.filter_map(|e| e.ok()).map(|e| e.file_name().to_string_lossy().into()).collect())
        .unwrap_or_default();
    names.sort();
    names
}

/// Rank 1: the same steps, then a slot half written and no doorbell —
/// where the SIGKILL finds it.
fn child() {
    let fd: OwnedFd = std::io::stdin().as_fd().try_clone_to_owned().expect("stdin is the socket");
    let mesh = SocketMesh::new(1, vec![0, 1], vec![(0, UnixStream::from(fd))], policy())
        .expect("mesh rank 1");
    let schedule = Algorithm::Ring.build(2, ELEMS);
    let mut exec = PeerExecutor::new(&mesh, policy());
    for step in 0..STEPS {
        step_checked(&mut exec, &schedule, 1, step);
    }
    let mut lease = mesh.lease(0, ELEMS * 2);
    assert!(matches!(lease, Lease::Slot(_)), "a 2 MiB payload leases a slot");
    let half = ELEMS * 2 / 2;
    for word in lease.bytes_mut()[..half].chunks_exact_mut(4) {
        word.copy_from_slice(&POISON.to_le_bytes());
    }
    println!("{HALF}");
    std::io::stdout().flush().expect("stdout");
    // The parent kills us here; a parent that failed first is not
    // waited for forever.
    std::thread::sleep(Duration::from_secs(60));
    std::process::exit(3);
}

/// Kills the child however the test ends.
struct Reaper(Child);

impl Drop for Reaper {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn bulk_lane_crosses_processes_and_a_sigkill_applies_nothing() {
    if std::env::var_os(CHILD_ENV).is_some() {
        return child();
    }
    let shm_before = dev_shm();
    let (ours, theirs) = UnixStream::pair().expect("socketpair");
    let exe = std::env::current_exe().expect("test binary");
    let child = Command::new(exe)
        .args(["bulk_lane_crosses_processes_and_a_sigkill_applies_nothing", "--exact"])
        .args(["--nocapture", "--test-threads=1"])
        .env(CHILD_ENV, "1")
        .stdin(Stdio::from(OwnedFd::from(theirs)))
        .stdout(Stdio::piped())
        .spawn()
        .expect("re-spawn as rank 1");
    let mut reaper = Reaper(child);
    let mut child_out = BufReader::new(reaper.0.stdout.take().expect("piped stdout"));

    let mesh = SocketMesh::new(0, vec![0, 1], vec![(1, ours)], policy()).expect("mesh rank 0");
    let schedule = Algorithm::Ring.build(2, ELEMS);
    schedule.verify_allreduce().expect("ring schedule verifies");
    let mut exec = PeerExecutor::new(&mesh, policy());
    for step in 0..STEPS {
        step_checked(&mut exec, &schedule, 0, step);
    }
    let stats = exec.stats();
    assert_eq!(stats.data_frames, 2 * STEPS as u64);
    assert_eq!(stats.lane_frames, stats.data_frames, "every data frame rode the lane");

    // The next step, against a peer that dies mid-write.
    let inputs: Vec<f32> = (0..ELEMS).map(|i| input(0, STEPS, i)).collect();
    let mut buf = inputs.clone();
    let (outcome, killed_at) = std::thread::scope(|scope| {
        let killer = scope.spawn(|| {
            // libtest's own "test … " may open the line.
            let mut line = String::new();
            while !line.trim_end().ends_with(HALF) {
                line.clear();
                let n = child_out.read_line(&mut line).expect("child stdout");
                assert!(n > 0, "the child ended before its half-written slot");
            }
            reaper.0.kill().expect("SIGKILL rank 1");
            Instant::now()
        });
        exec.begin_step(STEPS);
        let outcome = exec
            .allreduce(&schedule, &mut buf, ReduceOp::Sum, &[0, 1], &mut || CtlSignal::Continue);
        (outcome, killer.join().expect("killer thread"))
    });
    let noticed = killed_at.elapsed();
    assert_eq!(outcome, Err(PeerExecError::PeerDead { dead: vec![1] }));
    assert!(
        noticed < policy().death_threshold(),
        "death noticed {noticed:?} after the kill; threshold {:?}",
        policy().death_threshold()
    );
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&buf), bits(&inputs), "nothing of the dead peer's was applied");
    assert!(buf.iter().all(|x| x.to_bits() != POISON), "the unannounced slot was never read");

    drop(reaper);
    drop(exec);
    drop(mesh);
    assert_eq!(dev_shm(), shm_before, "no shared-memory object is left behind");
}
