//! An inbox whose `poll` fails for good ends its connections instead of
//! spinning. The test lowers this process's soft `RLIMIT_NOFILE` below
//! the size of the inbox's poll set, which makes every `poll` over it
//! fail with `EINVAL` until the limit is restored. Each connection must
//! then hand out the frame already in its socket, then its EOF, at
//! once: a receive that retried the failing `poll` would spin a core
//! until its deadline and then report nothing. The limit is
//! process-wide, so this is the only test in its binary.

use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

use transport::{Frame, FrameKind, Inbox, PeerConn};

const RLIMIT_NOFILE: i32 = 7;

#[repr(C)]
#[derive(Clone, Copy)]
struct RLimit {
    cur: u64,
    max: u64,
}

extern "C" {
    fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
    fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
}

/// The soft descriptor limit lowered to `soft` while this lives, and
/// put back however the test ends.
struct LoweredNofile(RLimit);

impl LoweredNofile {
    fn to(soft: u64) -> LoweredNofile {
        let mut old = RLimit { cur: 0, max: 0 };
        // SAFETY: `old` is a live, writable `struct rlimit`.
        assert_eq!(unsafe { getrlimit(RLIMIT_NOFILE, &mut old) }, 0, "getrlimit");
        let low = RLimit { cur: soft, ..old };
        // SAFETY: `low` is a live `struct rlimit`; lowering the soft
        // limit below the hard one needs no privilege.
        assert_eq!(unsafe { setrlimit(RLIMIT_NOFILE, &low) }, 0, "setrlimit");
        LoweredNofile(old)
    }
}

impl Drop for LoweredNofile {
    fn drop(&mut self) {
        // SAFETY: `self.0` is the limit `getrlimit` returned.
        unsafe { setrlimit(RLIMIT_NOFILE, &self.0) };
    }
}

#[test]
fn a_failing_poll_ends_every_connection_behind_its_frames() {
    const PEERS: usize = 3;
    let inbox = Inbox::sockets();
    let mut conns = Vec::new();
    let mut far_ends = Vec::new();
    for peer in 0..PEERS {
        let (near, far) = UnixStream::pair().expect("socketpair");
        conns.push(PeerConn::solo_into(peer, 9, near, None, &inbox).expect("inbox conn"));
        let far = PeerConn::solo(9, peer, far, None).expect("far end");
        let mut f = Frame::control(FrameKind::Data, peer as u16, 0, 1);
        f.payload = vec![peer as u8; 3];
        far.send(&f).expect("send");
        far_ends.push(far);
    }

    let timeout = Duration::from_secs(20);
    let started = Instant::now();
    let mut seen: Vec<Vec<Option<Frame>>> = vec![Vec::new(); PEERS];
    {
        let _low = LoweredNofile::to(PEERS as u64 - 1);
        for _ in 0..2 * PEERS {
            let (peer, arrival) = inbox.recv_timeout(timeout).expect("an arrival, not a timeout");
            seen[peer].push(arrival);
        }
    }
    let took = started.elapsed();
    assert!(took < timeout / 10, "arrivals took {took:?} of a {timeout:?} timeout");
    for (peer, arrivals) in seen.iter().enumerate() {
        let payloads: Vec<Option<&[u8]>> =
            arrivals.iter().map(|a| a.as_ref().map(|f| &f.payload[..])).collect();
        assert_eq!(payloads, [Some(&[peer as u8; 3][..]), None], "peer {peer}: frame, then EOF");
    }
    // Every connection is over: nothing more arrives.
    assert_eq!(inbox.recv_timeout(Duration::from_millis(20)), None);
}
