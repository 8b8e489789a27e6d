//! T1 — single-GPU training throughput (claim C1).
//!
//! Paper: "we observed just 6.7 images/second on a single Volta GPU for
//! training DeepLab-v3+ ... a Volta GPU can process 300 images/second for
//! training ResNet-50".

use bench::{compare, header, v100};
use dlmodels::{deeplab_paper, resnet50};
use summit_metrics::Table;

pub const TITLE: &str = "Single-V100 training throughput";

pub fn run() {
    header("T1", TITLE, "abstract claim C1 (6.7 vs 300 img/s)");
    let gpu = v100();
    let dl = deeplab_paper();
    let rn = resnet50(224);

    let mut t = Table::new(
        "Model inventory",
        &["model", "input", "params (M)", "fwd GFLOPs", "grad payload", "tensors"],
    );
    for m in [&dl, &rn] {
        t.row(&[
            m.name.clone(),
            format!("{}x{}", m.input.0, m.input.1),
            format!("{:.1}", m.total_params() as f64 / 1e6),
            format!("{:.1}", m.total_fwd_flops() as f64 / 1e9),
            summit_metrics::fmt_bytes(m.gradient_bytes()),
            m.n_grad_tensors().to_string(),
        ]);
    }
    t.print();

    let mut t = Table::new(
        "Throughput vs per-GPU batch size (img/s)",
        &["batch", "DLv3+ (513x513)", "ResNet-50 (224x224)"],
    );
    for bs in [1usize, 2, 4, 8, 16, 32] {
        t.row(&[
            bs.to_string(),
            format!("{:.2}", gpu.throughput(&dl, bs)),
            format!("{:.1}", gpu.throughput(&rn, bs)),
        ]);
    }
    t.print();

    println!("Paper-vs-measured (batch 8 / 32):");
    compare("DLv3+ single-V100 throughput", 6.7, gpu.throughput(&dl, 8), "img/s");
    compare("ResNet-50 single-V100 throughput", 300.0, gpu.throughput(&rn, 32), "img/s");
    compare(
        "throughput gap (ResNet-50 / DLv3+)",
        300.0 / 6.7,
        gpu.throughput(&rn, 32) / gpu.throughput(&dl, 8),
        "x",
    );
}
