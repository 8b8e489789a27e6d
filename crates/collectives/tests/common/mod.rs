//! Helpers shared by the integration suites that run over real sockets.

use std::os::unix::net::UnixStream;

use faults::RetryPolicy;
use transport::SocketMesh;

/// A full socket mesh over `n` ranks from `UnixStream::pair()`s, every
/// connection paced by `policy`.
pub fn socket_mesh(n: usize, policy: RetryPolicy) -> Vec<SocketMesh> {
    let mut streams: Vec<Vec<(usize, UnixStream)>> = (0..n).map(|_| Vec::new()).collect();
    for a in 0..n {
        for b in a + 1..n {
            let (sa, sb) = UnixStream::pair().expect("socketpair");
            streams[a].push((b, sa));
            streams[b].push((a, sb));
        }
    }
    streams
        .into_iter()
        .enumerate()
        .map(|(rank, s)| SocketMesh::new(rank, (0..n).collect(), s, policy).expect("mesh"))
        .collect()
}
