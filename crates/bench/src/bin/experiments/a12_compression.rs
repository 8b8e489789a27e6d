//! A12 — gradient compression codecs: wire formats, accuracy cost and
//! timing effect.
//!
//! A thin driver over [`collectives::compression`], where the codecs
//! live. It checks that every codec's *measured* wire bytes match its
//! declared format exactly; trains the F8 run (4 workers, 160 steps)
//! once per codec — lossy ones with error feedback — and gates int8 at
//! ≥ 3.5× fewer wire bytes for ≤ 0.5 pt of mIoU; shows what each codec
//! buys per MPI backend at the paper's scale; and sweeps GPU counts to
//! find where compression overtakes the paper's fusion-tuning-only
//! approach.

use std::sync::Arc;

use bench::{header, paper_model, v100, BATCH_PER_GPU, SEED, SIM_STEPS};
use collectives::compression::{codec_for, CodecKind, EncodeScratch};
use horovod::{HorovodConfig, StepSim};
use mpi_profiles::Backend;
use summit_metrics::rng::splitmix64;
use summit_metrics::Table;
use summit_sim::{Machine, MachineConfig};
use trace::TraceSession;
use trainer::real::{train, TrainConfig};

use crate::f8_miou;

/// Int8 + error feedback must shrink the wire at least this much …
const INT8_RATIO_FLOOR: f64 = 3.5;
/// … at no more than this much mIoU (0.5 pt) against fp32.
const INT8_MIOU_LIMIT: f64 = 0.005;

/// A deterministic gradient-like buffer (mixed magnitudes, both signs).
fn gradient(n: usize) -> Vec<f32> {
    (0..n as u64)
        .map(|i| {
            let h = splitmix64(SEED ^ i);
            let mag = 10f32.powi((h % 5) as i32 - 4); // 1e-4 ..= 1
            let frac = ((h >> 8) % 20011) as f32 / 20011.0 - 0.5;
            mag * frac
        })
        .collect()
}

/// Real training per codec: encoded bytes (`encoded_len` of every
/// payload) from the trainer's own metrics registry against the
/// accuracy cost, fp32 as the baseline. Lossy
/// codecs run with error feedback — the configuration the convergence
/// argument (DESIGN.md §5g) is made for.
fn accuracy_table() {
    let plan = [
        (CodecKind::None, false),
        (CodecKind::Fp16, false),
        (CodecKind::Int8, true),
        (CodecKind::Int4, true),
        (CodecKind::TopK, true),
    ];
    let mut t = Table::new(
        "real training per codec (the F8 run: 4 workers, ring allreduce, 160 steps)",
        &["codec", "encoded ratio", "encoded MB", "mIoU", "Δ mIoU vs fp32", "tail loss"],
    );
    let mut fp32_miou = 0.0;
    for (codec, error_feedback) in plan {
        let session = Arc::new(TraceSession::new());
        let cfg = TrainConfig {
            codec,
            error_feedback,
            trace: Some(session.clone()),
            ..f8_miou::config(4, 2)
        };
        let r = train(&cfg);
        let encoded = session.registry.counter("train_encoded_bytes_total").get() as f64;
        let ratio = session.registry.counter("train_raw_bytes_total").get() as f64 / encoded;
        if codec == CodecKind::None {
            fp32_miou = r.final_miou;
        }
        let delta = r.final_miou - fp32_miou;
        let tail = &r.step_losses[r.step_losses.len().saturating_sub(10)..];
        t.row(&[
            format!("{codec}{}", if error_feedback { "+ef" } else { "" }),
            format!("{ratio:.4}x"),
            format!("{:.2}", encoded / 1e6),
            format!("{:.4}", r.final_miou),
            format!("{delta:+.4}"),
            format!("{:.4}", tail.iter().sum::<f64>() / tail.len() as f64),
        ]);
        if codec == CodecKind::Int8 {
            assert!(
                ratio >= INT8_RATIO_FLOOR,
                "int8 encoded-byte reduction {ratio:.2}x is below the {INT8_RATIO_FLOOR}x floor"
            );
            assert!(
                delta.abs() <= INT8_MIOU_LIMIT,
                "int8+ef mIoU {:.4} vs fp32 {fp32_miou:.4}: over the {INT8_MIOU_LIMIT} limit",
                r.final_miou
            );
        }
    }
    t.print();
    println!(
        "Gate passed: int8+ef cuts encoded bytes >= {INT8_RATIO_FLOOR}x at <= {:.1} pt of mIoU.\n",
        INT8_MIOU_LIMIT * 100.0
    );
}

pub const TITLE: &str = "gradient compression: wire formats and timing";

pub fn run() {
    header("A12", TITLE, "extension study");

    // --- measured vs declared wire format ---------------------------
    // Whole chunks (exact bytes/elem) and a ragged tail (encoded_len
    // still exact): the bench asserts, not just prints.
    let mut t = Table::new(
        "codec wire formats (measured on a 64Ki-element gradient)",
        &["codec", "declared B/elem", "measured B/elem", "ratio", "max |err|"],
    );
    let mut scratch = EncodeScratch::new();
    let mut out = Vec::new();
    for kind in CodecKind::ALL {
        let codec = codec_for(kind);
        for n in [1usize << 16, 100_003] {
            let src = gradient(n);
            codec.encode(&src, &mut out, &mut scratch);
            assert_eq!(
                out.len(),
                kind.encoded_len(n),
                "{kind}: encoded {} B, declared {} B for n={n}",
                out.len(),
                kind.encoded_len(n),
            );
        }
        // Whole-chunk case: measured bytes/elem must equal the declared
        // nominal exactly.
        let n = 1usize << 16;
        let src = gradient(n);
        codec.encode(&src, &mut out, &mut scratch);
        let measured = out.len() as f64 / n as f64;
        assert!(
            (measured - kind.bytes_per_element()).abs() < 1e-12,
            "{kind}: measured {measured} B/elem vs declared {}",
            kind.bytes_per_element(),
        );
        let mut dec = vec![0.0f32; n];
        codec.decode(&out, &mut dec, &mut scratch);
        let max_err = src.iter().zip(&dec).map(|(a, b)| (a - b).abs()).fold(0.0f32, f32::max);
        t.row(&[
            kind.name().into(),
            format!("{:.6}", kind.bytes_per_element()),
            format!("{measured:.6}"),
            format!("{:.2}x", kind.ratio()),
            format!("{max_err:.2e}"),
        ]);
    }
    t.print();

    accuracy_table();

    // --- simulated throughput per backend at the paper's scale ------
    let machine = Machine::new(MachineConfig::summit_for_gpus(132));
    let model = paper_model();
    let gpu = v100();
    let sim = |machine: &Machine, backend: Backend, cfg: HorovodConfig, gpus: usize| {
        StepSim::new(machine, backend.profile(), cfg, &model, &gpu, BATCH_PER_GPU, gpus, SEED)
            .simulate_training(SIM_STEPS)
            .throughput
    };
    let mut t = Table::new(
        "simulated throughput at 96 GPUs, batch 1/GPU",
        &["backend", "fp32", "fp16", "int8", "int4", "topk"],
    );
    for backend in Backend::all() {
        let mut row = vec![backend.profile().name.to_string()];
        let fp32 = sim(&machine, backend, HorovodConfig::default(), 96);
        row.push(format!("{fp32:.1}"));
        for c in [CodecKind::Fp16, CodecKind::Int8, CodecKind::Int4, CodecKind::TopK] {
            let x = sim(&machine, backend, HorovodConfig::default().with_compression(c), 96);
            row.push(format!("{x:.1} ({:+.0}%)", (x / fp32 - 1.0) * 100.0));
        }
        t.row(&row);
    }
    t.print();

    // --- codec vs fusion tuning across scale ------------------------
    // The paper's recipe is tuning-only (fusion threshold sweep, no
    // compression). Where does int8/top-k over *default* knobs beat the
    // *best-tuned* fp32 configuration?
    let thresholds: [u64; 5] = [0, 8 << 20, 16 << 20, 64 << 20, 256 << 20];
    let backend = Backend::SpectrumDefault;
    let mut t = Table::new(
        "best-tuned fp32 fusion vs untuned codecs (spectrum default backend)",
        &["GPUs", "fp32 tuned", "int8 default", "topk default", "int8/tuned"],
    );
    let mut crossover = None;
    for gpus in [6usize, 12, 24, 48, 96, 132, 264, 528] {
        let m = Machine::new(MachineConfig::summit_for_gpus(gpus));
        let tuned = thresholds
            .iter()
            .map(|&th| sim(&m, backend, HorovodConfig::default().with_fusion(th), gpus))
            .fold(0.0f64, f64::max);
        let int8 =
            sim(&m, backend, HorovodConfig::default().with_compression(CodecKind::Int8), gpus);
        let topk =
            sim(&m, backend, HorovodConfig::default().with_compression(CodecKind::TopK), gpus);
        if int8 > tuned && crossover.is_none() {
            crossover = Some(gpus);
        }
        t.row(&[
            gpus.to_string(),
            format!("{tuned:.1}"),
            format!("{int8:.1}"),
            format!("{topk:.1}"),
            format!("{:.2}x", int8 / tuned),
        ]);
    }
    t.print();
    match crossover {
        Some(g) => println!(
            "Finding: untuned int8 compression overtakes the best-tuned fp32\n\
             configuration at {g} GPUs — past that scale the wire is the\n\
             bottleneck and no fusion threshold can buy back a 3.9x payload."
        ),
        None => println!(
            "Finding: fusion tuning stays ahead of untuned int8 at every scale\n\
             tested — compression overhead dominates in this regime."
        ),
    }
}
