//! The net's scalar conv twins, run the way a machine without AVX2
//! would run them: through the dispatchers, with every SIMD predicate
//! forced off.
//!
//! `simd::force_scalar_for_testing` is irreversible for the process, so
//! this pass is a test binary of its own; the in-module suite in
//! `src/real/net.rs` calls each instantiation directly against its
//! twin. Here the whole optimized gradient — the rows-form twin for the
//! forward and the ReLU-gated input gradient, the dot-form twin for the
//! weight gradient, each a direct loop over every tap's valid rows and
//! columns — is checked against the naive reference network, to the
//! tolerances `optimized_matches_reference_loss_grad` uses with
//! dispatch active.

use trainer::real::net::{NetConfig, SegNet};
use trainer::real::segdata::{generate, DataConfig};

#[test]
fn loss_grad_on_the_scalar_twins_matches_the_reference() {
    simd::force_scalar_for_testing();
    assert!(!simd::have_avx512f() && !simd::have_avx2_fma(), "dispatch must now be scalar");

    // Wider than the tiny unit-test net so both the four-row blocks and
    // the leftover rows of the twins run (hidden sizes 6 and 5), on a
    // non-square map.
    let cfg = NetConfig { height: 7, width: 9, cin: 3, hidden1: 6, hidden2: 5, n_classes: 4, k: 3 };
    let dc = DataConfig { height: 7, width: 9, ..DataConfig::default() };
    let net = SegNet::new(cfg, 9);
    for index in 0..3 {
        let sample = generate(&dc, 4, index);
        let (lo, go) = net.loss_grad(&sample);
        let (lr, gr) = net.reference_loss_grad(&sample);
        assert!((lo - lr).abs() < 1e-6, "loss {lo} vs reference {lr}");
        for (i, (a, b)) in go.iter().zip(&gr).enumerate() {
            assert!((a - b).abs() < 1e-4, "grad[{i}]: scalar twins {a} vs reference {b}");
        }
    }
}
