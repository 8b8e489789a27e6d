//! Ranks that write before they read. Each test has every rank of a
//! `SocketMesh` send frames far larger than a socket buffer before it
//! receives one, so no write can finish unless someone reads what is
//! arriving while the writers wait. Both rely on the progress rule: a
//! blocked writer reads every connection of its mesh while it waits.
//! Two ranks crossing need only the socket each writes to; a ring of
//! three needs the others, since each blocked writer's own socket
//! brings nothing. Both run a patient policy, so no beacon is ever due
//! and no timer helps. Without the progress each test relies on, it
//! hangs, and CI runs them under a timeout. Every payload byte is
//! checked on arrival.

use std::os::unix::net::UnixStream;
use std::time::Duration;

use faults::RetryPolicy;
use transport::{Frame, FrameKind, SocketMesh, Wire};

/// Frames each rank sends before it reads.
const FRAMES: usize = 3;

/// Long enough that a lost progress path shows as a hang, not a
/// timeout error: CI's wall-clock limit is what fails it.
const PATIENCE: Duration = Duration::from_secs(600);

/// No beacon ever falls due: only a blocked writer's own reads help.
fn heartless() -> RetryPolicy {
    RetryPolicy { tick: Duration::from_millis(1), ..RetryPolicy::patient() }
}

/// The bytes rank `from` sends as its `i`-th frame: a hash of position,
/// frame and sender, so a shifted, swapped or mixed-up payload differs.
fn payload(from: usize, i: usize, len: usize) -> Vec<u8> {
    let seed = (from as u64) << 40 | (i as u64) << 32;
    (0..len as u64).map(|b| ((b ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8).collect()
}

/// Send `FRAMES` frames of `len` bytes to `to`, then receive as many
/// from `from` and check every byte.
fn write_then_read(mesh: &SocketMesh, to: usize, from: usize, len: usize) {
    let me = mesh.rank();
    for i in 0..FRAMES {
        let mut f = Frame::control(FrameKind::Data, me as u16, 0, i as u32);
        f.seq = i as u64;
        f.payload = payload(me, i, len);
        mesh.send(to, &f).expect("send");
    }
    for i in 0..FRAMES {
        let got = mesh.recv_timeout(from, PATIENCE).expect("receive");
        assert_eq!((got.from as usize, got.seq), (from, i as u64), "rank {me}: frames in order");
        assert!(got.slot.is_none(), "a Vec payload travels inline");
        assert!(got.payload == payload(from, i, len), "rank {me}: frame {i} from {from} intact");
        mesh.release(got.payload);
    }
}

/// Both ends write three 8 MiB frames — above the bulk lane's largest
/// slot, so inline — before either reads.
#[test]
fn two_ranks_crossing_inline_frames_both_get_through() {
    let len = 8 << 20;
    assert!(len > transport::lane::SLOT_MAX);
    let (a, b) = UnixStream::pair().expect("socketpair");
    let meshes = [
        SocketMesh::new(0, vec![0, 1], vec![(1, a)], heartless()).expect("mesh 0"),
        SocketMesh::new(1, vec![0, 1], vec![(0, b)], heartless()).expect("mesh 1"),
    ];
    std::thread::scope(|s| {
        for (rank, mesh) in meshes.iter().enumerate() {
            s.spawn(move || write_then_read(mesh, 1 - rank, 1 - rank, len));
        }
    });
}

/// Three ranks in a ring, each writing to its successor before reading
/// from its predecessor: a blocked writer's own socket brings nothing,
/// so the ring turns only as each blocked writer reads what its
/// predecessor wrote, on the other connection of its mesh.
#[test]
fn a_ring_of_writers_turns_on_the_blocked_writers_reads() {
    let len = 1 << 20;
    let (n, mut ends): (usize, Vec<Vec<(usize, UnixStream)>>) = (3, vec![vec![], vec![], vec![]]);
    for r in 0..n {
        for q in r + 1..n {
            let (x, y) = UnixStream::pair().expect("socketpair");
            ends[r].push((q, x));
            ends[q].push((r, y));
        }
    }
    let meshes: Vec<SocketMesh> = ends
        .into_iter()
        .enumerate()
        .map(|(r, streams)| {
            SocketMesh::new(r, (0..n).collect(), streams, heartless()).expect("mesh")
        })
        .collect();
    std::thread::scope(|s| {
        for (r, mesh) in meshes.iter().enumerate() {
            s.spawn(move || write_then_read(mesh, (r + 1) % n, (r + n - 1) % n, len));
        }
    });
}
