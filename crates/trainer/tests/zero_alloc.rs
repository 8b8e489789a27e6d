//! Counting-allocator proof that the hot gradient path performs zero
//! heap allocation once the workspaces exist.
//!
//! A `#[global_allocator]` wrapper counts every `alloc`/`realloc`; the
//! assertions run in one `#[test]` so no sibling test's allocations can
//! interleave with the counted regions.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use collectives::CodecKind;
use trainer::real::net::{BatchWorkspace, NetConfig, SegNet, Workspace};
use trainer::real::pipeline::PipelineExecutor;
use trainer::real::segdata::{generate_batch, DataConfig};
use trainer::real::sgd::{LrSchedule, MomentumSgd};

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

/// Run `f` and return how many allocation events it triggered.
///
/// Minimum over three runs: the counting allocator is process-global,
/// and libtest's harness thread can lazily initialize its
/// channel-parking context (two Arc allocations inside
/// `Receiver::recv`) while a region is being counted — one-time
/// ambient noise, not hot-path allocation. Anything the region itself
/// allocates recurs every run and survives the min.
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

#[test]
fn hot_gradient_path_is_allocation_free() {
    let data = DataConfig::default();
    let cfg = NetConfig {
        height: data.height,
        width: data.width,
        cin: data.channels,
        n_classes: data.n_classes,
        ..NetConfig::default()
    };
    let net = SegNet::new(cfg, 42);
    let batch = generate_batch(&data, 42, 0, 16);

    // --- per-sample path: strictly zero allocations, always ---------
    let mut ws = Workspace::new(&cfg);
    let mut grad = vec![0.0f32; net.n_params()];
    // Warm-up (first touch of lazily-initialized TLS etc. must not count).
    let mut loss = net.loss_grad_acc(&batch[0], &mut ws, &mut grad);
    let n = count_allocs(|| {
        for s in &batch {
            grad.fill(0.0);
            loss += net.loss_grad_acc(s, &mut ws, &mut grad);
        }
    });
    assert!(loss.is_finite());
    assert_eq!(n, 0, "loss_grad_acc allocated {n} times over 16 samples");

    // --- enabled trace recorder + metrics on the hot path -----------
    // The observability layer must not reintroduce allocation: lanes
    // record into preallocated ring buffers, metric cells are resolved
    // up front and updated with atomics.
    let session = trace::TraceSession::new();
    let lane = session.recorder.lane(0, 0, "rank 0", "compute");
    let steps = session.registry.counter("train_steps_committed_total");
    let hist = session.registry.histogram("train_step_seconds");
    // Warm-up creates nothing lazily, but keep symmetry with the rest.
    lane.record_args("BACKWARD", "forward+backward", lane.now_us(), 1.0, 0, 1);
    let n = count_allocs(|| {
        for s in &batch {
            let t0 = lane.now_us();
            grad.fill(0.0);
            loss += net.loss_grad_acc(s, &mut ws, &mut grad);
            lane.record_args("BACKWARD", "forward+backward", t0, lane.now_us() - t0, 0, 1);
            hist.observe(1e-3);
            steps.inc();
        }
    });
    assert_eq!(n, 0, "recording spans+metrics allocated {n} times over 16 samples");
    assert!(lane.recorded() >= batch.len(), "spans actually landed in the ring");
    // count_allocs runs the region three times; every pass must land.
    assert_eq!(steps.get(), 3 * batch.len() as u64);

    // --- pipelined executor, every gradient codec -------------------
    // The whole pipelined step — work-stealing dispatch, per-layer tile
    // reductions, the codec encode/decode (fused fp16 and the pooled
    // int8/int4/top-k paths, with and without error feedback), and the
    // optimizer updates — must stay allocation-free once the executor
    // exists. Helper threads share the global counting allocator, so an
    // allocation on *any* pool lane would fail the assertion.
    {
        let replicas = 2;
        let mut exec = PipelineExecutor::new(&cfg, replicas, 4, 1, 2);
        let lr = LrSchedule {
            base_lr: 0.1,
            scale: 1.0,
            warmup_steps: 2,
            total_steps: 8,
            poly_power: 0.9,
        };
        let mut nets: Vec<SegNet> = (0..replicas).map(|_| SegNet::new(cfg, 7)).collect();
        let mut opts: Vec<MomentumSgd> =
            (0..replicas).map(|_| MomentumSgd::new(lr, 0.9, net.n_params())).collect();
        let shards: Vec<Vec<_>> =
            (0..replicas).map(|r| generate_batch(&data, 42, (r * 4) as u64, 4)).collect();
        for (codec, ef) in [
            (CodecKind::None, false),
            (CodecKind::Fp16, false),
            (CodecKind::Fp16, true),
            (CodecKind::Int8, true),
            (CodecKind::Int4, true),
            (CodecKind::TopK, true),
        ] {
            // Warm-up: the first step with a codec may touch
            // lazily-created thread state and grows the per-tile
            // EncodeScratch to its steady-state capacity.
            let _ = exec.step(nets.iter_mut().zip(opts.iter_mut()), &shards, codec, ef);
            let mut sum = 0.0f64;
            let n = count_allocs(|| {
                for _ in 0..4 {
                    sum += exec.step(nets.iter_mut().zip(opts.iter_mut()), &shards, codec, ef);
                }
            });
            assert!(sum.is_finite());
            assert_eq!(n, 0, "pipelined {codec} (ef={ef}) step allocated {n} times over 4 steps");
        }
    }

    // --- batch path -------------------------------------------------
    let mut bw = BatchWorkspace::new(&cfg);
    let _ = net.batch_loss_grad_ws(&batch, &mut bw);
    // Warm (the call above started the shared pool), a call fans out
    // over parked helpers: strictly zero at any core count.
    let n = count_allocs(|| {
        let _ = net.batch_loss_grad_ws(&batch, &mut bw);
    });
    assert_eq!(
        n,
        0,
        "batch_loss_grad_ws allocated {n} times on {} lanes",
        collectives::pool::lanes()
    );
}
