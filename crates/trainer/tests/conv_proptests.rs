//! Property-tested equivalence of the optimized implicit-GEMM conv
//! kernels (tap-masked rows and dot tiles, whichever instantiation the
//! CPU dispatches to) against the retained naive `reference_*`
//! implementations, within 1e-4: random shapes with k up to 7,
//! non-square h×w, maps narrower than the kernel, and widths around one
//! and two pixel tiles of either vector width (15–17, 23–25, 31, 33).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use trainer::real::net::{
    conv_backward, conv_forward, dw_panel_len, reference_conv_backward, reference_conv_forward,
    BatchWorkspace, NetConfig, SegNet, Taps,
};
use trainer::real::segdata::Sample;

/// Mixed absolute/relative tolerance: the optimized kernels reassociate
/// float sums (8-lane dots, tiled accumulation), so results differ from
/// the naive sequential order in the last bits only.
fn close(a: f32, b: f32, tol: f32) -> bool {
    (a - b).abs() <= tol * (1.0 + b.abs().max(a.abs()))
}

fn assert_all_close(got: &[f32], want: &[f32], tol: f32, what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.len(), want.len(), "{}: length mismatch", what);
    for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
        prop_assert!(close(g, w, tol), "{}[{}]: optimized {} vs reference {}", what, i, g, w);
    }
    Ok(())
}

fn fill(rng: &mut StdRng, n: usize) -> Vec<f32> {
    (0..n).map(|_| rng.gen::<f32>() * 2.0 - 1.0).collect()
}

/// Random conv shape: kernel in {1, 3, 5, 7}, deliberately non-square
/// h×w most of the time — down to one pixel, so a map can be narrower
/// than the kernel or than its half-width — with widths around the
/// 16- and 32-pixel tiles too, channel counts small enough to keep
/// cases fast.
fn shape_strategy() -> impl Strategy<Value = (usize, usize, usize, usize, usize, u64)> {
    let width = prop_oneof![1usize..=9, prop::sample::select(vec![15, 16, 17, 23, 24, 25, 31, 33])];
    (1usize..=9, width, 1usize..=4, 1usize..=5, 0usize..4, 0u64..1 << 48)
        .prop_map(|(h, w, cin, cout, ki, seed)| (h, w, cin, cout, [1, 3, 5, 7][ki], seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn forward_matches_reference((h, w, cin, cout, k, seed) in shape_strategy()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let npix = h * w;
        let input = fill(&mut rng, cin * npix);
        let weights = fill(&mut rng, cout * cin * k * k);
        let bias = fill(&mut rng, cout);

        let mut want = vec![0.0f32; cout * npix];
        reference_conv_forward(&input, cin, h, w, &weights, &bias, k, cout, &mut want);

        let taps = Taps::new(h, w, k);
        let mut got = vec![0.0f32; cout * npix];
        conv_forward(&input, cin, &taps, &weights, &bias, cout, false, &mut got);
        assert_all_close(&got, &want, 1e-4, "out")?;

        // Fused ReLU must equal a separate max(0, ·) pass.
        let mut relu_got = vec![0.0f32; cout * npix];
        conv_forward(&input, cin, &taps, &weights, &bias, cout, true, &mut relu_got);
        let relu_want: Vec<f32> = want.iter().map(|&x| x.max(0.0)).collect();
        assert_all_close(&relu_got, &relu_want, 1e-4, "relu out")?;
    }

    #[test]
    fn backward_matches_reference((h, w, cin, cout, k, seed) in shape_strategy()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let npix = h * w;
        let input = fill(&mut rng, cin * npix);
        let weights = fill(&mut rng, cout * cin * k * k);
        let dout = fill(&mut rng, cout * npix);
        // Start the weight accumulators non-zero: both kernels must *accumulate*.
        let dw0 = fill(&mut rng, weights.len());
        let db0 = fill(&mut rng, cout);

        let (mut dw_want, mut db_want, mut din_want) =
            (dw0.clone(), db0.clone(), vec![0.0f32; input.len()]);
        reference_conv_backward(
            &input, cin, h, w, &weights, k, cout, &dout,
            &mut dw_want, &mut db_want, Some(&mut din_want),
        );

        // The input gradient is written, not accumulated: start it stale.
        let (taps, mut panel) = (Taps::new(h, w, k), vec![f32::NAN; dw_panel_len(npix)]);
        let (mut dw, mut db, mut din) = (dw0, db0, vec![f32::NAN; input.len()]);
        conv_backward(
            &input, cin, &taps, &weights, cout, &dout,
            &mut dw, &mut db, Some(&mut din), false, &mut panel,
        );
        assert_all_close(&dw, &dw_want, 1e-4, "dw")?;
        assert_all_close(&db, &db_want, 1e-4, "db")?;
        assert_all_close(&din, &din_want, 1e-4, "dinput")?;

        // The fused ReLU backward must equal masking afterwards.
        let mut relu_din = vec![f32::NAN; input.len()];
        conv_backward(
            &input, cin, &taps, &weights, cout, &dout,
            &mut dw, &mut db, Some(&mut relu_din), true, &mut panel,
        );
        let relu_want: Vec<f32> =
            din_want.iter().zip(&input).map(|(&d, &x)| if x <= 0.0 { 0.0 } else { d }).collect();
        assert_all_close(&relu_din, &relu_want, 1e-4, "relu dinput")?;
    }
}

/// Build a random batch of samples for a config.
fn random_batch(cfg: &NetConfig, rng: &mut StdRng, n: usize) -> Vec<Sample> {
    (0..n)
        .map(|_| {
            let npix = cfg.height * cfg.width;
            Sample {
                pixels: fill(rng, cfg.cin * npix),
                labels: (0..npix).map(|_| rng.gen_range(0..cfg.n_classes) as u8).collect(),
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The workspace-reusing batch path equals the per-sample naive
    /// reference averaged by hand, across random (non-square) configs.
    #[test]
    fn batch_loss_grad_ws_matches_reference(
        (h, w, seed) in (4usize..=8, 4usize..=8, 0u64..1 << 48),
        batch_n in 1usize..=5,
        n_classes in 2usize..=4,
    ) {
        let cfg = NetConfig {
            height: h,
            width: w,
            cin: 2,
            hidden1: 3,
            hidden2: 4,
            n_classes,
            k: 3,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let net = SegNet::new(cfg, seed ^ 0x5eed);
        let batch = random_batch(&cfg, &mut rng, batch_n);

        let mut want_grad = vec![0.0f32; net.n_params()];
        let mut want_loss = 0.0f64;
        for s in &batch {
            let (l, g) = net.reference_loss_grad(s);
            want_loss += l;
            for (acc, gi) in want_grad.iter_mut().zip(&g) {
                *acc += gi;
            }
        }
        want_loss /= batch.len() as f64;
        for g in &mut want_grad {
            *g /= batch.len() as f32;
        }

        let mut bw = BatchWorkspace::new(&cfg);
        let loss = net.batch_loss_grad_ws(&batch, &mut bw);
        prop_assert!(
            (loss - want_loss).abs() <= 1e-4 * (1.0 + want_loss.abs()),
            "loss: workspace {} vs reference {}", loss, want_loss
        );
        assert_all_close(&bw.grad, &want_grad, 1e-4, "grad")?;
    }
}
