//! Counting-allocator proof for the socket transport: once a
//! [`SocketMesh`] is warmed up, a steady-state allreduce step over real
//! Unix-domain sockets allocates nothing — payload buffers recycle
//! through the connection pool (a CRC-rejected frame's included), the
//! receive halves keep their buffers, sends borrow their payload, and the
//! executor's working state is reused; at 2 MiB frames the payloads
//! ride the bulk lane's shared-memory slots, which are reclaimed and
//! reused instead. The socket backend may allocate only at connection
//! setup/teardown.
//!
//! The in-process channel backend's zero-alloc story is covered by the
//! executor proofs; this test pins the harder claim for the byte-stream
//! path, where serialization buffers could easily regress into per-step
//! allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use collectives::{Algorithm, CtlSignal, PeerExecutor, ReduceOp};
use faults::RetryPolicy;
use transport::{encode, Frame, FrameKind, SocketMesh};

struct CountingAlloc;

static ALLOC_EVENTS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The counter is process-wide, so the two proofs must not overlap:
/// one's setup (or a failing one's backtrace) would land in the
/// other's measured region.
static ONE_AT_A_TIME: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Minimum allocation count over three runs of `f`: ambient one-time
/// noise (libtest thread parking, lazy TLS) cannot recur in all three,
/// while anything `f` itself allocates does.
fn count_allocs(mut f: impl FnMut()) -> usize {
    (0..3)
        .map(|_| {
            let before = ALLOC_EVENTS.load(Ordering::Relaxed);
            f();
            ALLOC_EVENTS.load(Ordering::Relaxed) - before
        })
        .min()
        .unwrap_or(0)
}

fn policy() -> RetryPolicy {
    RetryPolicy {
        base: Duration::from_millis(50),
        factor: 2,
        max_attempts: 6,
        tick: Duration::from_millis(1),
    }
}

const N_ELEMS: usize = 1024;
const WARMUP: usize = 5;
const MEASURED: usize = 3; // count_allocs runs the step closure 3 times
const TOTAL: usize = WARMUP + MEASURED;
const REJECTS_PER_STEP: usize = 16;

#[test]
fn steady_state_socket_allreduce_is_allocation_free() {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let (a, b) = UnixStream::pair().expect("socketpair");
    let pol = policy();
    let schedule = Algorithm::Ring.build(2, N_ELEMS);
    schedule.verify_allreduce().expect("ring schedule verifies");

    // A second handle on rank 1's end of the socket: bytes written to
    // it reach rank 0's receive exactly like rank 1's own frames.
    // Every measured step opens with a burst of data-sized frames, each
    // with a bit flipped in flight. Rank 0's reader must reject every
    // one on its CRC *and keep the pooled buffer it was read into*: a
    // reject that dropped its buffer would drain the pool — the burst
    // outnumbers any surplus this exchange can have built up — and the
    // good frames behind it would have to allocate.
    let mut raw = b.try_clone().expect("clone rank 1's stream");
    let mut corrupt = Frame::control(FrameKind::Data, 1, 0, 0);
    corrupt.payload = vec![0x5A; N_ELEMS / 2 * 4];
    let mut corrupt = encode(&corrupt);
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0x04;

    // Two rendezvous per step fence a window in which neither rank is
    // mid-allreduce (every send of the step before has been written
    // and acked), so the injected bytes land on a frame boundary.
    // Heartbeats still flow, but a 36-byte beacon and a 2 KiB frame are
    // one small `write` each and cannot interleave.
    let fence = Arc::new(Barrier::new(2));

    // Rank 1 runs lockstep on its own thread; both sides step together
    // through the synchronous allreduce, so the measured region covers
    // the full two-rank exchange.
    let peer_schedule = schedule.clone();
    let peer_fence = Arc::clone(&fence);
    let peer = std::thread::spawn(move || {
        let mesh = SocketMesh::new(1, vec![0, 1], vec![(0, b)], policy()).expect("mesh rank 1");
        let mut exec = PeerExecutor::new(&mesh, policy());
        let mut buf = vec![0.0f32; N_ELEMS];
        for step in 0..TOTAL {
            for (i, x) in buf.iter_mut().enumerate() {
                *x = (step * N_ELEMS + i) as f32 * 0.5 + 1.0;
            }
            peer_fence.wait();
            peer_fence.wait();
            exec.begin_step(step);
            exec.allreduce(&peer_schedule, &mut buf, ReduceOp::Sum, &[0, 1], &mut || {
                CtlSignal::Continue
            })
            .expect("rank 1 allreduce");
        }
        buf
    });

    let mesh = SocketMesh::new(0, vec![0, 1], vec![(1, a)], pol).expect("mesh rank 0");
    let mut exec = PeerExecutor::new(&mesh, pol);
    let mut buf = vec![0.0f32; N_ELEMS];
    let mut step = 0usize;
    let mut one_step = |exec: &mut PeerExecutor, buf: &mut Vec<f32>| {
        for (i, x) in buf.iter_mut().enumerate() {
            *x = (step * N_ELEMS + i) as f32 * 0.25 - 3.0;
        }
        fence.wait();
        if step >= WARMUP {
            for _ in 0..REJECTS_PER_STEP {
                raw.write_all(&corrupt).expect("inject a corrupted frame");
            }
        }
        fence.wait();
        exec.begin_step(step);
        exec.allreduce(&schedule, buf, ReduceOp::Sum, &[0, 1], &mut || CtlSignal::Continue)
            .expect("rank 0 allreduce");
        step += 1;
    };

    for _ in 0..WARMUP {
        one_step(&mut exec, &mut buf);
    }

    let n = count_allocs(|| one_step(&mut exec, &mut buf));
    assert_eq!(
        n, 0,
        "steady-state socket allreduce allocated {n} times; the wire path must recycle \
         every buffer after warmup"
    );

    // The math still holds on the measured steps — every good frame
    // behind a rejected one was delivered: both ranks computed the same
    // final sum.
    let peer_buf = peer.join().expect("rank 1 thread");
    let last = TOTAL - 1;
    for (i, (&mine, &theirs)) in buf.iter().zip(&peer_buf).enumerate() {
        assert_eq!(mine.to_bits(), theirs.to_bits(), "elem {i} disagrees across ranks");
        let want =
            (last * N_ELEMS + i) as f32 * 0.5 + 1.0 + ((last * N_ELEMS + i) as f32 * 0.25 - 3.0);
        assert_eq!(mine.to_bits(), want.to_bits(), "elem {i} has the wrong sum");
    }
}

/// The bulk lane makes the same promise at 2 MiB frames: once warm,
/// every data frame's payload is encoded straight into a slot of the
/// sender's shared segment, checked and applied where it lies, and the
/// slot reclaimed for a later step — no buffer is allocated for it on
/// either side, and every data frame of the measured steps rode the
/// lane (by `WireStats::lane_frames`). The 1 024-element proof above
/// is the inline path.
#[test]
fn steady_state_bulk_lane_allreduce_is_allocation_free() {
    const ELEMS: usize = 1 << 20;
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let (a, b) = UnixStream::pair().expect("socketpair");
    let schedule = Algorithm::Ring.build(2, ELEMS);
    schedule.verify_allreduce().expect("ring schedule verifies");
    let input = |rank: usize, step: usize, i: usize| ((step * 7 + i * (rank + 1)) % 1024) as f32;
    let fence = Arc::new(Barrier::new(2));

    let peer_schedule = schedule.clone();
    let peer_fence = Arc::clone(&fence);
    let peer = std::thread::spawn(move || {
        let mesh = SocketMesh::new(1, vec![0, 1], vec![(0, b)], policy()).expect("mesh rank 1");
        let mut exec = PeerExecutor::new(&mesh, policy());
        let mut buf = vec![0.0f32; ELEMS];
        let mut warm = exec.stats();
        for step in 0..TOTAL {
            if step == WARMUP {
                warm = exec.stats();
            }
            for (i, x) in buf.iter_mut().enumerate() {
                *x = input(1, step, i);
            }
            peer_fence.wait();
            exec.begin_step(step);
            exec.allreduce(&peer_schedule, &mut buf, ReduceOp::Sum, &[0, 1], &mut || {
                CtlSignal::Continue
            })
            .expect("rank 1 allreduce");
        }
        let done = exec.stats();
        (buf, done.data_frames - warm.data_frames, done.lane_frames - warm.lane_frames)
    });

    let mesh = SocketMesh::new(0, vec![0, 1], vec![(1, a)], policy()).expect("mesh rank 0");
    let mut exec = PeerExecutor::new(&mesh, policy());
    let mut buf = vec![0.0f32; ELEMS];
    let mut step = 0usize;
    let mut one_step = |exec: &mut PeerExecutor, buf: &mut Vec<f32>| {
        for (i, x) in buf.iter_mut().enumerate() {
            *x = input(0, step, i);
        }
        fence.wait();
        exec.begin_step(step);
        exec.allreduce(&schedule, buf, ReduceOp::Sum, &[0, 1], &mut || CtlSignal::Continue)
            .expect("rank 0 allreduce");
        step += 1;
    };
    for _ in 0..WARMUP {
        one_step(&mut exec, &mut buf);
    }
    let warm = exec.stats();
    let n = count_allocs(|| one_step(&mut exec, &mut buf));
    assert_eq!(n, 0, "steady-state bulk-lane allreduce allocated {n} times after warmup");

    let (peer_buf, peer_frames, peer_lane) = peer.join().expect("rank 1 thread");
    let done = exec.stats();
    let (frames, lane) = (done.data_frames - warm.data_frames, done.lane_frames - warm.lane_frames);
    assert_eq!(frames, 2 * MEASURED as u64, "one reduce-scatter and one allgather frame a step");
    assert_eq!(lane, frames, "rank 0: every measured data frame rode the lane");
    assert_eq!((peer_frames, peer_lane), (frames, frames), "rank 1: every one rode the lane");
    let last = TOTAL - 1;
    for (i, (&mine, &theirs)) in buf.iter().zip(&peer_buf).enumerate() {
        assert_eq!(mine.to_bits(), theirs.to_bits(), "elem {i} disagrees across ranks");
        let want = input(0, last, i) + input(1, last, i);
        assert_eq!(mine.to_bits(), want.to_bits(), "elem {i} has the wrong sum");
    }
}

/// The telemetry plane makes the same promise as the gradient path: a
/// warmed worker records its spans on the compute lane whose tail is
/// the flight recorder, builds its metric values, encodes the snapshot
/// and ships it down a real socket without a single allocation.
/// Mirrors `run_worker`'s send at every step begin: record → value
/// array → `encode_into` → payload into the frame → `PeerConn::send`,
/// the one vectored write of `[len + header] [payload] [crc]` that
/// borrows the payload where it lies → payload back.
#[test]
fn steady_state_telemetry_encode_and_ship_is_allocation_free() {
    use std::io::Read;
    use trace::telemetry::{metric, WorkerTelemetry, FLIGHT_CAPACITY};
    use trace::TraceRecorder;
    use transport::PeerConn;

    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let (tx, mut rx) = UnixStream::pair().expect("socketpair");
    let sink = std::thread::spawn(move || {
        let mut buf = [0u8; 4096];
        let mut total = 0usize;
        loop {
            match rx.read(&mut buf) {
                Ok(0) | Err(_) => return total,
                Ok(n) => total += n,
            }
        }
    });

    // The worker's control stream, seen as `run_worker` sees it.
    let ctl = PeerConn::solo(1, 0, tx, None).expect("control conn");
    let lane = TraceRecorder::with_capacity(FLIGHT_CAPACITY).lane(0, 0, "rank 0", "compute");
    let mut tel = WorkerTelemetry::new(0, lane);
    let mut payload: Vec<u8> = Vec::new();
    let mut step = 0u32;
    let mut one_step = || {
        let (lane, s) = (tel.lane(), step as u64);
        lane.record_args("STEP", "begin", lane.now_us(), 0.0, s, 0);
        lane.record_args("BACKWARD", "grad_compute", lane.now_us(), 500.0, s, 1);
        lane.record_args("MPI_ALLREDUCE", "exchange", lane.now_us(), 900.0, s, 0);
        let mut values = [0u64; metric::COUNT];
        values[metric::STEPS_BEGUN as usize] = s + 1;
        values[metric::STEPS_COMMITTED as usize] = s;
        values[metric::WIRE_BYTES as usize] = 4096 * s;
        values[metric::STEP_LATENCY_US as usize] = 1234;
        let seq = tel.encode_into(step, &values, &mut payload);
        let mut frame = Frame::control(FrameKind::Telemetry, 0, 0, step);
        frame.seq = seq;
        frame.payload = std::mem::take(&mut payload);
        ctl.send(&frame).expect("ship telemetry");
        payload = frame.payload;
        step += 1;
    };

    // Warm until the lane has wrapped (capacity 32, 3 spans per step):
    // once the tail is full the payload size is steady, so the encode
    // buffer stops growing.
    for _ in 0..16 {
        one_step();
    }

    let n = count_allocs(&mut one_step);
    assert_eq!(
        n, 0,
        "steady-state telemetry encode+ship allocated {n} times; snapshots must reuse \
         the payload buffer and borrow it into the write after warmup"
    );

    drop(ctl);
    let total = sink.join().expect("sink thread");
    assert!(total > 0, "the sink must have received the telemetry bytes");
}
