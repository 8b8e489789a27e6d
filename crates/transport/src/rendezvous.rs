//! Rendezvous: how N freshly-spawned worker processes find each other
//! and become a [`SocketMesh`].
//!
//! The launcher binds `<dir>/coord.sock` and waits. Each worker binds
//! its own listener socket *first*, then dials the coordinator (with
//! [`connect_with_backoff`] — everything starts concurrently) and sends
//! a [`WorkerHello`] naming its pid and listener path. The coordinator
//! assigns ranks in arrival order and answers each worker with a
//! [`Welcome`] carrying its rank and every peer's listener path. The
//! Hello stream stays open as the worker's *control* connection: the
//! commit/degrade protocol and the Ready→Start barrier run over it, and
//! its EOF is the coordinator's fast-path death signal for that worker.
//!
//! Mesh wiring is deadlock-free by construction: rank `r` dials every
//! rank below it (prefixing the stream with a bare `Hello` frame whose
//! `from` field names the dialer) and accepts from every rank above it.
//! Listener backlogs absorb the races — a dial succeeds as soon as the
//! peer's listener is bound, which happens before its Hello.

use std::io;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};

use faults::{FaultClock, RetryPolicy};

use crate::conn::{connect_with_backoff, read_frame_blocking, write_frame_blocking, PeerConn};
use crate::frame::{Frame, FrameKind};
use crate::mesh::SocketMesh;

/// Name of the coordinator's listening socket inside the rendezvous dir.
pub const COORD_SOCK: &str = "coord.sock";

fn bad_data(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// A worker's introduction to the coordinator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerHello {
    /// OS pid of the worker process — the coordinator's kill handle.
    pub pid: u32,
    /// Filesystem path of the worker's own listener socket.
    pub listen_path: String,
}

impl WorkerHello {
    pub fn to_frame(&self) -> Frame {
        let mut f = Frame::control(FrameKind::Hello, 0, 0, 0);
        f.payload = format!("{}\n{}", self.pid, self.listen_path).into_bytes();
        f
    }

    pub fn from_frame(f: &Frame) -> io::Result<Self> {
        if f.kind != FrameKind::Hello {
            return Err(bad_data(format!("expected Hello, got {:?}", f.kind)));
        }
        let text = std::str::from_utf8(&f.payload).map_err(|_| bad_data("hello not utf-8"))?;
        let mut lines = text.lines();
        let pid = lines
            .next()
            .and_then(|l| l.parse().ok())
            .ok_or_else(|| bad_data("hello missing pid"))?;
        let listen_path = lines.next().ok_or_else(|| bad_data("hello missing path"))?.to_string();
        Ok(WorkerHello { pid, listen_path })
    }
}

/// The coordinator's answer: your rank, and where everyone listens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Welcome {
    pub rank: usize,
    /// Listener paths indexed by rank.
    pub world_paths: Vec<String>,
}

impl Welcome {
    pub fn to_frame(&self) -> Frame {
        let mut f = Frame::control(FrameKind::Welcome, 0, 0, 0);
        let mut text = self.rank.to_string();
        for p in &self.world_paths {
            text.push('\n');
            text.push_str(p);
        }
        f.payload = text.into_bytes();
        f
    }

    pub fn from_frame(f: &Frame) -> io::Result<Self> {
        if f.kind != FrameKind::Welcome {
            return Err(bad_data(format!("expected Welcome, got {:?}", f.kind)));
        }
        let text = std::str::from_utf8(&f.payload).map_err(|_| bad_data("welcome not utf-8"))?;
        let mut lines = text.lines();
        let rank = lines
            .next()
            .and_then(|l| l.parse().ok())
            .ok_or_else(|| bad_data("welcome missing rank"))?;
        let world_paths: Vec<String> = lines.map(str::to_string).collect();
        if rank >= world_paths.len() {
            return Err(bad_data("welcome rank outside world"));
        }
        Ok(Welcome { rank, world_paths })
    }
}

/// Coordinator side of the rendezvous: a bound listener on
/// `<dir>/coord.sock`.
#[derive(Debug)]
pub struct Rendezvous {
    listener: UnixListener,
    path: PathBuf,
}

impl Rendezvous {
    pub fn coord_path(dir: &Path) -> PathBuf {
        dir.join(COORD_SOCK)
    }

    pub fn bind(dir: &Path) -> io::Result<Self> {
        let path = Self::coord_path(dir);
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path)?;
        Ok(Rendezvous { listener, path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Accept `n` workers, assign ranks in arrival order, and answer
    /// each with its [`Welcome`]. Returns, indexed by rank, each
    /// worker's hello and its still-open control stream.
    pub fn assemble(&self, n: usize) -> io::Result<Vec<(WorkerHello, UnixStream)>> {
        let mut joined: Vec<(WorkerHello, UnixStream)> = Vec::with_capacity(n);
        for _ in 0..n {
            let (mut stream, _) = self.listener.accept()?;
            let hello = WorkerHello::from_frame(&read_frame_blocking(&mut stream)?)?;
            joined.push((hello, stream));
        }
        let world_paths: Vec<String> = joined.iter().map(|(h, _)| h.listen_path.clone()).collect();
        for (rank, (_, stream)) in joined.iter_mut().enumerate() {
            let welcome = Welcome { rank, world_paths: world_paths.clone() };
            write_frame_blocking(stream, &welcome.to_frame())?;
        }
        Ok(joined)
    }
}

/// Worker side mid-rendezvous: welcomed, not yet meshed.
#[derive(Debug)]
pub struct Joined {
    pub rank: usize,
    pub world_paths: Vec<String>,
    /// The control stream to the coordinator (the Hello connection).
    pub ctl: UnixStream,
    listener: UnixListener,
}

/// Join the rendezvous at `dir`. `tag` must be unique per worker within
/// the dir (the launcher uses the worker index) — it names this
/// worker's listener socket, which is bound *before* the Hello so peers
/// can dial it the moment they learn the path.
pub fn join(dir: &Path, tag: &str, policy: &RetryPolicy, clock: &FaultClock) -> io::Result<Joined> {
    let listen_path = dir.join(format!("w-{tag}.sock"));
    let _ = std::fs::remove_file(&listen_path);
    let listener = UnixListener::bind(&listen_path)?;
    let mut ctl = connect_with_backoff(&Rendezvous::coord_path(dir), policy, clock)?;
    let hello = WorkerHello {
        pid: std::process::id(),
        listen_path: listen_path.to_string_lossy().into_owned(),
    };
    write_frame_blocking(&mut ctl, &hello.to_frame())?;
    let welcome = Welcome::from_frame(&read_frame_blocking(&mut ctl)?)?;
    Ok(Joined { rank: welcome.rank, world_paths: welcome.world_paths, ctl, listener })
}

impl Joined {
    /// Wire the full mesh (dial lower ranks, accept higher ranks) and
    /// hand back the [`SocketMesh`] plus the control connection to the
    /// coordinator, whose id is the world size. The control connection
    /// is a member of the mesh's set: waiting on either progresses both.
    pub fn build_mesh(
        self,
        policy: RetryPolicy,
        clock: &FaultClock,
    ) -> io::Result<(SocketMesh, PeerConn)> {
        let rank = self.rank;
        let world: Vec<usize> = (0..self.world_paths.len()).collect();
        let mut streams: Vec<(usize, UnixStream)> = Vec::with_capacity(world.len() - 1);
        for peer in 0..rank {
            let mut s = connect_with_backoff(Path::new(&self.world_paths[peer]), &policy, clock)?;
            write_frame_blocking(&mut s, &Frame::control(FrameKind::Hello, rank as u16, 0, 0))?;
            streams.push((peer, s));
        }
        for _ in rank + 1..world.len() {
            let (mut s, _) = self.listener.accept()?;
            let f = read_frame_blocking(&mut s)?;
            if f.kind != FrameKind::Hello {
                return Err(bad_data(format!("mesh dial sent {:?}, not Hello", f.kind)));
            }
            let peer = f.from as usize;
            if peer >= world.len() || peer <= rank {
                return Err(bad_data(format!("mesh Hello from impossible rank {peer}")));
            }
            streams.push((peer, s));
        }
        let mesh = SocketMesh::new(rank, world, streams, policy)?;
        let ctl = mesh.adopt(self.world_paths.len(), self.ctl, policy)?;
        Ok((mesh, ctl))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    fn fast() -> RetryPolicy {
        RetryPolicy {
            base: Duration::from_millis(10),
            factor: 2,
            max_attempts: 6,
            tick: Duration::from_millis(1),
        }
    }

    fn scratch_dir() -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "rdzv-test-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn hello_and_welcome_roundtrip_through_frames() {
        let h = WorkerHello { pid: 4242, listen_path: "/tmp/w-0.sock".into() };
        assert_eq!(WorkerHello::from_frame(&h.to_frame()).unwrap(), h);
        let w = Welcome { rank: 2, world_paths: vec!["a".into(), "b".into(), "c".into()] };
        assert_eq!(Welcome::from_frame(&w.to_frame()).unwrap(), w);
        // Kind confusion is rejected, not misparsed.
        assert!(WorkerHello::from_frame(&w.to_frame()).is_err());
        assert!(Welcome::from_frame(&h.to_frame()).is_err());
    }

    /// Full in-process rendezvous: a coordinator thread and three worker
    /// threads assemble, barrier on Start, then pass a token around the
    /// ring to prove every mesh link is live and correctly addressed.
    #[test]
    fn three_workers_rendezvous_and_ring_a_token() {
        let dir = scratch_dir();
        let n = 3;

        let coord_dir = dir.clone();
        let coord = std::thread::spawn(move || {
            let rdzv = Rendezvous::bind(&coord_dir).unwrap();
            let mut joined = rdzv.assemble(n).unwrap();
            // Ready → Start barrier over the control streams.
            for (_, stream) in joined.iter_mut() {
                let f = read_frame_blocking(stream).unwrap();
                assert_eq!(f.kind, FrameKind::Ready);
            }
            for (_, stream) in joined.iter_mut() {
                write_frame_blocking(stream, &Frame::control(FrameKind::Start, 0, 0, 0)).unwrap();
            }
            joined.iter().map(|(h, _)| h.pid).collect::<Vec<_>>()
        });

        let workers: Vec<_> = (0..n)
            .map(|i| {
                let dir = dir.clone();
                std::thread::spawn(move || {
                    let clock = FaultClock::real();
                    let joined = join(&dir, &format!("t{i}"), &fast(), &clock).unwrap();
                    let rank = joined.rank;
                    let (mesh, ctl) = joined.build_mesh(fast(), &clock).unwrap();
                    assert_eq!(ctl.peer(), n, "the coordinator's id is the world size");
                    ctl.send(&Frame::control(FrameKind::Ready, rank as u16, 0, 0)).unwrap();
                    let start = ctl.recv_timeout(Duration::from_secs(5)).unwrap();
                    assert_eq!(start.kind, FrameKind::Start);

                    use crate::Wire;
                    let next = (rank + 1) % n;
                    let prev = (rank + n - 1) % n;
                    let mut f = Frame::control(FrameKind::Data, rank as u16, 0, 0);
                    f.payload = vec![rank as u8; 8];
                    mesh.send(next, &f).unwrap();
                    let got = mesh.recv_timeout(prev, Duration::from_secs(5)).unwrap();
                    assert_eq!(got.from as usize, prev);
                    assert_eq!(got.payload, vec![prev as u8; 8]);
                    mesh.release(got.payload);
                    rank
                })
            })
            .collect();

        let pids = coord.join().unwrap();
        assert_eq!(pids, vec![std::process::id(); n]);
        let mut ranks: Vec<usize> = workers.into_iter().map(|w| w.join().unwrap()).collect();
        ranks.sort_unstable();
        assert_eq!(ranks, vec![0, 1, 2]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
