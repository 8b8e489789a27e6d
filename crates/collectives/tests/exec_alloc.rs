//! Counting-allocator proof for the threaded executor: once an
//! [`ExecContext`] is warm, running the schedule allocates nothing. The
//! mesh's channels, the wire's payload pool, each rank's queues, resend
//! buffers, codec scratch and outcome slot — and the pool threads the
//! rank bodies run on — are all parked in the context between calls,
//! whether a call moves 4 KiB or 1 MiB, with or without a codec, and
//! the pre-flight verdict on the schedule is memoized by fingerprint.
//!
//! Same method as `socket_zero_alloc.rs`, counting bytes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use collectives::{Algorithm, CodecKind, ExecContext, ReduceOp};

struct CountingAlloc;

static ALLOC_BYTES: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_BYTES.fetch_add(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const RANKS: usize = 4;
const WARMUP: usize = 5;
const MEASURED: usize = 20;

fn bytes_allocated(f: impl FnOnce()) -> usize {
    let before = ALLOC_BYTES.load(Ordering::Relaxed);
    f();
    ALLOC_BYTES.load(Ordering::Relaxed) - before
}

/// Bytes one warm call allocates: the minimum over [`MEASURED`] calls.
/// Anything the call path itself allocates recurs in every call and
/// survives the minimum; what does not recur is excluded — a channel
/// growing its queue by a block every few dozen frames, and the pools'
/// high-water marks, which depend on how far the rank threads drift
/// apart and keep creeping up for a while (the ring's segments differ
/// by one element, so a recycled buffer can be a word short once).
fn warm_call_bytes(n_elems: usize, codec: CodecKind) -> usize {
    let schedule = Algorithm::Ring.build(RANKS, n_elems);
    let ctx = ExecContext::for_schedule(&schedule).expect("ring schedule verifies");
    let mut bufs: Vec<Vec<f32>> = (0..RANKS).map(|r| vec![r as f32 + 0.5; n_elems]).collect();
    let mut call = || {
        bytes_allocated(|| {
            ctx.allreduce_compressed(&schedule, &mut bufs, ReduceOp::Sum, codec)
                .expect("allreduce");
        })
    };
    for _ in 0..WARMUP {
        call();
    }
    (0..MEASURED).map(|_| call()).min().unwrap_or(0)
}

#[test]
fn warm_calls_allocate_nothing_whatever_the_payload() {
    for codec in [CodecKind::None, CodecKind::Int8] {
        for n_elems in [1 << 10, 1 << 18] {
            let bytes = warm_call_bytes(n_elems, codec);
            assert_eq!(bytes, 0, "{codec}: a warm call allocated {bytes} B at {n_elems} elements");
        }
    }
}
