//! Counting-allocator proof for the threaded executor: once an
//! [`ExecContext`] is warm, nothing on its per-call path scales with
//! the payload. The mesh's channels, the wire's payload pool, each
//! rank's queues, resend buffers and codec scratch are all parked in
//! the context between calls; what a call still allocates — the rank
//! threads it spawns, their outcome slots — is the same whether it
//! moves 4 KiB or 1 MiB, with or without a codec.
//!
//! Same method as `socket_zero_alloc.rs`, counting bytes instead of
//! events, since "the same" rather than "none" is the claim.

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

/// Nine ranks keep a 2^18-element ring's segments (29 127 or 29 128
/// elements) under the reduction kernel's parallel threshold: the
/// helper threads that kernel spawns for larger segments are its own
/// business, not the executor's.
const RANKS: usize = 9;
const WARMUP: usize = 5;
const MEASURED: usize = 20;

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
        let before = ALLOC_BYTES.load(Ordering::Relaxed);
        ctx.allreduce_compressed(&schedule, &mut bufs, ReduceOp::Sum, codec).expect("allreduce");
        ALLOC_BYTES.load(Ordering::Relaxed) - before
    };
    for _ in 0..WARMUP {
        call();
    }
    (0..MEASURED).map(|_| call()).min().unwrap_or(0)
}

#[test]
fn warm_calls_allocate_the_same_bytes_whatever_the_payload() {
    for codec in [CodecKind::None, CodecKind::Int8] {
        let small = warm_call_bytes(1 << 10, codec);
        let large = warm_call_bytes(1 << 18, codec);
        assert_eq!(
            small, large,
            "{codec}: a warm call allocated {small} B at 2^10 elements but {large} B at 2^18; \
             something on the per-call path scales with the payload"
        );
    }
}
