//! BENCH_step: measures training-step throughput and tracks it across
//! PRs in `BENCH_step.json`.
//!
//! Three variant families run in one process:
//!
//! * `naive_reference` — the retained pre-optimization per-sample path
//!   (allocates, scalar).
//! * `optimized_workspace` — the zero-allocation single-thread batch
//!   path over the SIMD kernels. This is the key the regression gate
//!   compares across runs.
//! * `pipeline_{n}w` — the full pipelined step (work-stealing pool,
//!   per-layer tile allreduce, optimizer update) at 1/2/4 workers, the
//!   per-core scaling curve. Worker counts above the machine's core
//!   count are skipped (timesharing would only measure noise); the
//!   recorded `cores` field says why a curve is short.
//!
//! The JSON keeps the perf trajectory: the newest run always sits at
//! the stable `latest` key and every previous `latest` is appended to
//! the `history` array (a pre-history flat-format file becomes the
//! first history entry).
//!
//! Run with:
//!
//! ```text
//! cargo run -p bench --bin bench_step --release [-- --quick] [-- --check]
//! ```
//!
//! `--quick` shrinks warmup/measure step counts for CI smoke runs;
//! `--check` fails (exit 1) if `optimized_workspace` regressed by more
//! than 20% against the committed `BENCH_step.json` baseline.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use bench::header;
use bench::json::{array_items, compact_json, extract_value, number_after, today_utc};
use collectives::CodecKind;
use trainer::real::net::{BatchWorkspace, NetConfig, SegNet};
use trainer::real::pipeline::PipelineExecutor;
use trainer::real::segdata::{generate_batch, DataConfig, Sample};
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

const BATCH: usize = 8;
/// Pipelined variants: replicas × batch-per-replica = BATCH samples per
/// step, so images/s is directly comparable across variant families.
const REPLICAS: usize = 2;
const SCALING_WORKERS: [usize; 3] = [1, 2, 4];
/// The regression gate: `--check` fails beyond this slowdown.
const REGRESSION_LIMIT: f64 = 1.20;

struct Measurement {
    name: String,
    ns_per_step: f64,
    imgs_per_s: f64,
    allocs_per_step: f64,
}

fn measure(
    name: impl Into<String>,
    warmup: usize,
    steps: usize,
    mut step: impl FnMut() -> f64,
) -> Measurement {
    let mut sink = 0.0;
    for _ in 0..warmup {
        sink += step();
    }
    let allocs_before = ALLOC_EVENTS.load(Ordering::Relaxed);
    let t0 = Instant::now();
    for _ in 0..steps {
        sink += step();
    }
    let elapsed = t0.elapsed();
    let allocs = ALLOC_EVENTS.load(Ordering::Relaxed) - allocs_before;
    assert!(sink.is_finite(), "loss diverged during benchmark");
    let ns_per_step = elapsed.as_nanos() as f64 / steps as f64;
    Measurement {
        name: name.into(),
        ns_per_step,
        imgs_per_s: BATCH as f64 / (ns_per_step * 1e-9),
        allocs_per_step: allocs as f64 / steps as f64,
    }
}

fn reference_step(net: &SegNet, batch: &[Sample]) -> f64 {
    // The pre-optimization step: allocate per sample, average by hand.
    let mut grad = vec![0.0f32; net.n_params()];
    let mut loss = 0.0;
    for s in batch {
        let (l, g) = net.reference_loss_grad(s);
        loss += l;
        for (acc, gi) in grad.iter_mut().zip(&g) {
            *acc += gi;
        }
    }
    let inv = 1.0 / batch.len() as f32;
    for g in &mut grad {
        *g *= inv;
    }
    loss / batch.len() as f64
}

/// `ns_per_step` of `variant` — first occurrence wins, and `latest`
/// precedes `history` in the current layout, so this reads the newest
/// number from either format.
fn extract_ns_per_step(src: &str, variant: &str) -> Option<f64> {
    number_after(src, &format!("\"{variant}\""), "ns_per_step")
}

/// Normalize one history entry to the current schema: pre-history
/// entries (the folded flat-format file) lack `date` and `cores`, which
/// would make them silently unusable to any consumer that keys on
/// those. Inject explicit unknown markers so every entry parses the
/// same way; returns whether the entry needed fixing.
fn normalize_history_entry(entry: &str) -> (String, bool) {
    let mut e = entry.trim().to_string();
    if !e.starts_with('{') {
        return (e, false);
    }
    let mut fixed = false;
    // Insert in reverse order so both end up at the front.
    for (key, inject) in [("cores", "\"cores\":0,"), ("date", "\"date\":\"unknown\",")] {
        if !e.contains(&format!("\"{key}\"")) {
            e.insert_str(1, inject);
            fixed = true;
        }
    }
    (e, fixed)
}

fn json_entry(m: &Measurement) -> String {
    format!(
        "      {{\"variant\": \"{}\", \"imgs_per_s\": {:.1}, \"ns_per_step\": {:.0}, \
         \"allocs_per_step\": {:.1}}}",
        m.name, m.imgs_per_s, m.ns_per_step, m.allocs_per_step
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let check = args.iter().any(|a| a == "--check");
    let (warmup, steps) = if quick { (2, 12) } else { (5, 60) };

    header(
        "BENCH_step",
        "step throughput: naive vs optimized vs pipelined, with scaling curve",
        "the perf trajectory across PRs, gated against >20% regression",
    );

    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let previous = std::fs::read_to_string("BENCH_step.json").ok();
    let baseline_ns =
        previous.as_deref().and_then(|s| extract_ns_per_step(s, "optimized_workspace"));

    let data = DataConfig::default();
    let cfg = NetConfig {
        height: data.height,
        width: data.width,
        cin: data.channels,
        n_classes: data.n_classes,
        ..NetConfig::default()
    };
    let net = SegNet::new(cfg, 42);
    let batch = generate_batch(&data, 42, 0, BATCH);
    let mut bw = BatchWorkspace::new(&cfg);

    let optimized =
        measure("optimized_workspace", warmup, steps, || net.batch_loss_grad_ws(&batch, &mut bw));
    let reference = measure("naive_reference", warmup, steps, || reference_step(&net, &batch));
    let speedup = optimized.imgs_per_s / reference.imgs_per_s;

    // Per-core scaling: the identical pipelined step (compute + tile
    // allreduce + update) at increasing worker counts.
    let shards: Vec<Vec<Sample>> = (0..REPLICAS)
        .map(|r| generate_batch(&data, 42, (r * (BATCH / REPLICAS)) as u64, BATCH / REPLICAS))
        .collect();
    let lr = LrSchedule::constant(0.01, usize::MAX);
    let mut scaling: Vec<Measurement> = Vec::new();
    for workers in SCALING_WORKERS {
        if workers > 1 && workers > cores {
            println!("  pipeline_{workers}w       skipped ({cores} core(s) available)");
            continue;
        }
        let mut exec = PipelineExecutor::new(&cfg, REPLICAS, BATCH / REPLICAS, 1, workers);
        let mut nets: Vec<SegNet> = (0..REPLICAS).map(|_| SegNet::new(cfg, 7)).collect();
        let mut opts: Vec<MomentumSgd> =
            (0..REPLICAS).map(|_| MomentumSgd::new(lr, 0.9, net.n_params())).collect();
        scaling.push(measure(format!("pipeline_{workers}w"), warmup, steps, || {
            exec.step(nets.iter_mut().zip(opts.iter_mut()), &shards, CodecKind::None, false)
        }));
    }

    for m in [&optimized, &reference].into_iter().chain(&scaling) {
        println!(
            "  {:<22} {:>10.1} imgs/s  {:>12.0} ns/step  {:>7.1} allocs/step",
            m.name, m.imgs_per_s, m.ns_per_step, m.allocs_per_step
        );
    }
    println!("  speedup (optimized / reference): {speedup:.2}x");
    if let Some(base) = scaling.first() {
        for m in &scaling[1..] {
            println!(
                "  scaling {}: {:.2}x over pipeline_1w",
                m.name,
                base.ns_per_step / m.ns_per_step
            );
        }
    }

    // Fold the previous run into history: a prior `latest` moves to the
    // end of `history`; a pre-history flat file becomes the first entry.
    // Every entry is normalized to the current schema on the way in.
    let mut history: Vec<String> = Vec::new();
    let mut normalized = 0usize;
    if let Some(prev) = &previous {
        if let Some(h) = extract_value(prev, "history") {
            history.extend(array_items(h).iter().map(|s| s.to_string()));
        }
        if let Some(latest) = extract_value(prev, "latest") {
            history.push(compact_json(latest));
        } else if prev.contains("\"variants\"") {
            history.push(compact_json(prev));
        }
    }
    for h in history.iter_mut() {
        let (fixed, did) = normalize_history_entry(h);
        if did {
            *h = fixed;
            normalized += 1;
        }
    }
    if normalized > 0 {
        eprintln!(
            "  warning: normalized {normalized} pre-schema history entr{} (injected \
             date/cores markers)",
            if normalized == 1 { "y" } else { "ies" }
        );
    }

    let variants: Vec<String> =
        [&optimized, &reference].into_iter().chain(&scaling).map(json_entry).collect();
    let scaling_json: Vec<String> = scaling
        .iter()
        .map(|m| {
            let workers: usize = m
                .name
                .trim_start_matches("pipeline_")
                .trim_end_matches('w')
                .parse()
                .expect("variant name encodes the worker count");
            format!(
                "      {{\"workers\": {workers}, \"ns_per_step\": {:.0}, \"imgs_per_s\": {:.1}, \
                 \"speedup_vs_1w\": {:.3}}}",
                m.ns_per_step,
                m.imgs_per_s,
                scaling[0].ns_per_step / m.ns_per_step
            )
        })
        .collect();
    let latest = format!(
        "{{\n    \"date\": \"{}\",\n    \"batch\": {BATCH},\n    \"steps\": {steps},\n    \
         \"threads\": {},\n    \"cores\": {cores},\n    \"variants\": [\n{}\n    ],\n    \
         \"scaling\": [\n{}\n    ],\n    \"speedup\": {speedup:.3}\n  }}",
        today_utc(),
        collectives::pool::lanes(),
        variants.join(",\n"),
        scaling_json.join(",\n"),
    );
    let history_json = if history.is_empty() {
        String::new()
    } else {
        format!("\n    {}\n  ", history.join(",\n    "))
    };
    let json = format!(
        "{{\n  \"bench\": \"BENCH_step\",\n  \"latest\": {latest},\n  \"history\": \
         [{history_json}]\n}}\n"
    );
    std::fs::write("BENCH_step.json", &json).expect("write BENCH_step.json");
    println!("  wrote BENCH_step.json ({} history entries)", history.len());

    assert!(
        speedup >= 2.0,
        "perf target missed: optimized path is only {speedup:.2}x the reference (target 2.0x)"
    );
    // The 4-worker scaling target only means something on hardware that
    // can actually run 4 lanes at once.
    if cores >= 4 {
        if let Some(m4) = scaling.iter().find(|m| m.name == "pipeline_4w") {
            let s = scaling[0].ns_per_step / m4.ns_per_step;
            assert!(s >= 3.0, "scaling target missed: pipeline_4w is only {s:.2}x pipeline_1w");
        }
    }
    if check {
        match baseline_ns {
            Some(base) => {
                let ratio = optimized.ns_per_step / base;
                println!(
                    "  regression check: {:.0} ns vs baseline {base:.0} ns ({ratio:.3}x, limit \
                     {REGRESSION_LIMIT:.2}x)",
                    optimized.ns_per_step
                );
                if ratio > REGRESSION_LIMIT {
                    eprintln!(
                        "  REGRESSION: optimized_workspace {ratio:.2}x slower than the committed \
                         baseline"
                    );
                    std::process::exit(1);
                }
            }
            None => eprintln!(
                "  warning: regression check SKIPPED — no parsable \
                 optimized_workspace baseline in BENCH_step.json"
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LEGACY: &str = r#"{
  "bench": "BENCH_step",
  "batch": 8,
  "variants": [
    {"variant": "optimized_workspace", "imgs_per_s": 2941.9, "ns_per_step": 2719350, "allocs_per_step": 0.0},
    {"variant": "naive_reference", "imgs_per_s": 540.0, "ns_per_step": 14814426, "allocs_per_step": 65.0}
  ],
  "speedup": 5.448
}"#;

    #[test]
    fn normalizes_legacy_history_entries() {
        let legacy = compact_json(LEGACY);
        assert!(!legacy.contains("\"date\"") && !legacy.contains("\"cores\""));
        let (fixed, did) = normalize_history_entry(&legacy);
        assert!(did);
        assert!(fixed.starts_with("{\"date\":\"unknown\",\"cores\":0,"), "{fixed}");
        // The payload survives and the baseline stays readable.
        assert_eq!(extract_ns_per_step(&fixed, "optimized_workspace"), Some(2719350.0));
        // Idempotent: a conforming entry passes through untouched.
        let (again, did2) = normalize_history_entry(&fixed);
        assert!(!did2);
        assert_eq!(again, fixed);
    }

    #[test]
    fn reads_baseline_from_legacy_and_current_formats() {
        assert_eq!(extract_ns_per_step(LEGACY, "optimized_workspace"), Some(2719350.0));
        assert_eq!(extract_ns_per_step(LEGACY, "naive_reference"), Some(14814426.0));
        // Current format: `latest` precedes `history`, so the first
        // occurrence is the newest number.
        let current = format!(
            "{{\"bench\": \"BENCH_step\", \"latest\": {{\"variants\": [{{\"variant\": \
             \"optimized_workspace\", \"ns_per_step\": 1300000}}]}}, \"history\": [{}]}}",
            compact_json(LEGACY)
        );
        assert_eq!(extract_ns_per_step(&current, "optimized_workspace"), Some(1300000.0));
    }
}
