//! A from-scratch convolutional segmentation network with manual
//! backpropagation — the numerical stand-in for DLv3+ in the accuracy
//! experiment.
//!
//! Architecture (all stride 1, same padding):
//! `conv k×k (cin→h1) → ReLU → conv k×k (h1→h2) → ReLU → conv 1×1
//! (h2→classes) → per-pixel softmax cross-entropy`
//! — a miniature encoder/classifier head that must combine local color
//! and neighborhood structure, like a segmentation model in the small.
//!
//! ## Hot-path layout
//!
//! Parameters live in **one flat `Vec<f32>`** (`[w1|b1|w2|b2|w3|b3]`,
//! see [`Layout`]); [`SegNet::params`] / [`SegNet::params_mut`] are
//! borrows, so the optimizer and the gradient allreduce operate on the
//! storage in place, with no gather/scatter copies per step.
//!
//! Convolutions run as **im2col + register-tiled matmul** ([`im2col`],
//! `matmul_bias` / `matmul_dw` / `matmul_t_acc`): im2col hoists the
//! boundary handling out of the inner loops, and each matmul is one
//! register-tile body written against `simd::lanes::Isa` and
//! instantiated per ISA — a *rows* tile (12 rows × 32 pixels on
//! AVX-512F, 4 × 16 on AVX2+FMA) that the forward and the transposed
//! product share through row/reduction strides, and a *dot* tile (4 × 4
//! and 2 × 4 vector accumulators) for the weight gradient, which
//! contracts over the contiguous pixel axis. Lane masks cover the one
//! edge tile of a pixel row; dispatch is by cached `cpuid`, AVX-512F →
//! AVX2+FMA → the scalar twins (four output rows per pass over a
//! `PIXEL_TILE`, written so the compiler autovectorizes them). The
//! original naive loops are retained as [`reference_conv_forward`] /
//! [`reference_conv_backward`] and property-tested equivalent (see
//! `conv_proptests`).
//!
//! All per-sample scratch (activations, gradients, im2col matrices)
//! lives in a reusable, cache-line-aligned [`Workspace`];
//! [`SegNet::loss_grad_acc`] performs **zero heap allocations**, and
//! [`SegNet::batch_loss_grad_ws`] folds a batch into per-thread
//! workspaces ([`BatchWorkspace`]) so the steady-state training step
//! never touches the allocator in the gradient path (asserted by
//! `tests/zero_alloc.rs`).
//!
//! Gradients are verified against finite differences in the tests.

use std::ops::Range;

use collectives::pool;
use rand::Rng;
#[cfg(target_arch = "x86_64")]
use simd::lanes::{Avx2, Avx512, Isa};
use summit_metrics::rng::rng_for;

use super::segdata::Sample;

/// Network shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetConfig {
    pub height: usize,
    pub width: usize,
    pub cin: usize,
    pub hidden1: usize,
    pub hidden2: usize,
    pub n_classes: usize,
    /// Kernel size of the two hidden convolutions (odd).
    pub k: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig { height: 24, width: 24, cin: 3, hidden1: 8, hidden2: 16, n_classes: 4, k: 3 }
    }
}

impl NetConfig {
    fn conv_params(k: usize, cin: usize, cout: usize) -> usize {
        k * k * cin * cout + cout
    }

    pub fn n_params(&self) -> usize {
        Self::conv_params(self.k, self.cin, self.hidden1)
            + Self::conv_params(self.k, self.hidden1, self.hidden2)
            + Self::conv_params(1, self.hidden2, self.n_classes)
    }
}

/// Offsets of the six parameter blocks inside the flat vector, in the
/// fixed order `[w1, b1, w2, b2, w3, b3]`.
#[derive(Debug, Clone, Copy)]
struct Layout {
    ends: [usize; 6],
}

impl Layout {
    fn new(cfg: &NetConfig) -> Self {
        let k2 = cfg.k * cfg.k;
        let sizes = [
            k2 * cfg.cin * cfg.hidden1,
            cfg.hidden1,
            k2 * cfg.hidden1 * cfg.hidden2,
            cfg.hidden2,
            cfg.hidden2 * cfg.n_classes,
            cfg.n_classes,
        ];
        let mut ends = [0usize; 6];
        let mut off = 0;
        for (e, s) in ends.iter_mut().zip(sizes) {
            off += s;
            *e = off;
        }
        Layout { ends }
    }

    fn range(&self, i: usize) -> Range<usize> {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        start..self.ends[i]
    }

    fn n_params(&self) -> usize {
        self.ends[5]
    }

    /// Borrow the six blocks of a flat parameter/gradient vector.
    fn split<'a>(&self, flat: &'a [f32]) -> [&'a [f32]; 6] {
        debug_assert_eq!(flat.len(), self.n_params());
        let (w1, rest) = flat.split_at(self.ends[0]);
        let (b1, rest) = rest.split_at(self.ends[1] - self.ends[0]);
        let (w2, rest) = rest.split_at(self.ends[2] - self.ends[1]);
        let (b2, rest) = rest.split_at(self.ends[3] - self.ends[2]);
        let (w3, b3) = rest.split_at(self.ends[4] - self.ends[3]);
        [w1, b1, w2, b2, w3, b3]
    }

    /// Mutably borrow the six blocks of a flat gradient vector at once.
    fn split_mut<'a>(&self, flat: &'a mut [f32]) -> [&'a mut [f32]; 6] {
        debug_assert_eq!(flat.len(), self.n_params());
        let (w1, rest) = flat.split_at_mut(self.ends[0]);
        let (b1, rest) = rest.split_at_mut(self.ends[1] - self.ends[0]);
        let (w2, rest) = rest.split_at_mut(self.ends[2] - self.ends[1]);
        let (b2, rest) = rest.split_at_mut(self.ends[3] - self.ends[2]);
        let (w3, b3) = rest.split_at_mut(self.ends[4] - self.ends[3]);
        [w1, b1, w2, b2, w3, b3]
    }
}

/// The network: three convolution layers in one flat parameter vector.
#[derive(Debug, Clone)]
pub struct SegNet {
    pub cfg: NetConfig,
    layout: Layout,
    params: Vec<f32>,
}

// --------------------------------------------------------------- reference
// The original naive kernels, kept as the correctness oracle for the
// optimized path (property tests + bench baselines).

/// `out[o, y, x] = b[o] + Σ_{i, dy, dx} w[o, i, dy, dx]·in[i, y+dy-p, x+dx-p]`
///
/// Naive loop nest with boundary clamping — the reference
/// implementation the optimized [`conv_forward`] is tested against.
#[allow(clippy::too_many_arguments)] // a conv is a conv
pub fn reference_conv_forward(
    input: &[f32],
    cin: usize,
    h: usize,
    w: usize,
    weights: &[f32],
    bias: &[f32],
    k: usize,
    cout: usize,
    out: &mut [f32],
) {
    debug_assert_eq!(input.len(), cin * h * w);
    debug_assert_eq!(weights.len(), k * k * cin * cout);
    debug_assert_eq!(out.len(), cout * h * w);
    let p = k / 2;
    for o in 0..cout {
        let wo = &weights[o * cin * k * k..(o + 1) * cin * k * k];
        let out_o = &mut out[o * h * w..(o + 1) * h * w];
        out_o.fill(bias[o]);
        for i in 0..cin {
            let in_i = &input[i * h * w..(i + 1) * h * w];
            let wi = &wo[i * k * k..(i + 1) * k * k];
            for dy in 0..k {
                for dx in 0..k {
                    let wv = wi[dy * k + dx];
                    if wv == 0.0 {
                        continue;
                    }
                    let oy = dy as isize - p as isize;
                    let ox = dx as isize - p as isize;
                    let y0 = (-oy).max(0) as usize;
                    let y1 = (h as isize - oy).clamp(0, h as isize) as usize;
                    let x0 = (-ox).max(0) as usize;
                    let x1 = (w as isize - ox).clamp(0, w as isize) as usize;
                    for y in y0..y1 {
                        let src = ((y as isize + oy) as usize) * w;
                        let dst = y * w;
                        for x in x0..x1 {
                            out_o[dst + x] += wv * in_i[src + (x as isize + ox) as usize];
                        }
                    }
                }
            }
        }
    }
}

/// Backward of [`reference_conv_forward`]: accumulate `dw`, `db`, and
/// (if `dinput` is `Some`) the input gradient.
#[allow(clippy::too_many_arguments)]
pub fn reference_conv_backward(
    input: &[f32],
    cin: usize,
    h: usize,
    w: usize,
    weights: &[f32],
    k: usize,
    cout: usize,
    dout: &[f32],
    dw: &mut [f32],
    db: &mut [f32],
    mut dinput: Option<&mut [f32]>,
) {
    let p = k / 2;
    for o in 0..cout {
        let dout_o = &dout[o * h * w..(o + 1) * h * w];
        db[o] += dout_o.iter().sum::<f32>();
        for i in 0..cin {
            let in_i = &input[i * h * w..(i + 1) * h * w];
            let dw_oi = &mut dw[(o * cin + i) * k * k..(o * cin + i + 1) * k * k];
            let w_oi = &weights[(o * cin + i) * k * k..(o * cin + i + 1) * k * k];
            for dy in 0..k {
                for dx in 0..k {
                    let oy = dy as isize - p as isize;
                    let ox = dx as isize - p as isize;
                    let y0 = (-oy).max(0) as usize;
                    let y1 = (h as isize - oy).clamp(0, h as isize) as usize;
                    let x0 = (-ox).max(0) as usize;
                    let x1 = (w as isize - ox).clamp(0, w as isize) as usize;
                    let mut acc = 0.0f32;
                    for y in y0..y1 {
                        let src = ((y as isize + oy) as usize) * w;
                        let dst = y * w;
                        for x in x0..x1 {
                            acc += dout_o[dst + x] * in_i[src + (x as isize + ox) as usize];
                        }
                    }
                    dw_oi[dy * k + dx] += acc;
                    if let Some(din) = dinput.as_deref_mut() {
                        let din_i = &mut din[i * h * w..(i + 1) * h * w];
                        let wv = w_oi[dy * k + dx];
                        for y in y0..y1 {
                            let src = ((y as isize + oy) as usize) * w;
                            let dst = y * w;
                            for x in x0..x1 {
                                din_i[src + (x as isize + ox) as usize] += wv * dout_o[dst + x];
                            }
                        }
                    }
                }
            }
        }
    }
}

// --------------------------------------------------------------- optimized
// im2col + register-tiled matmul kernels. Shapes: `cols` is the
// unrolled-patch matrix, `rdim = cin·k²` rows of `npix = h·w` pixels.

/// Pixel-tile width of the scalar matmul twins: one 2 KiB cols/dout row
/// segment plus four output-row segments stay resident in L1 while the
/// reduction dimension streams past.
const PIXEL_TILE: usize = 512;

/// Length of the im2col matrix for a `cin`-channel, `k×k` convolution
/// over `npix` pixels.
pub fn im2col_len(cin: usize, k: usize, npix: usize) -> usize {
    cin * k * k * npix
}

/// Unroll same-padded `k×k` patches: `cols[(i·k+dy)·k+dx, y·w+x] =
/// input[i, y+dy-p, x+dx-p]` (zero outside the image). Row-shifted
/// memcpys, so the matmul kernels never see a boundary branch.
// lint: hot-path
// lint: no-f64
pub fn im2col(input: &[f32], cin: usize, h: usize, w: usize, k: usize, cols: &mut [f32]) {
    let npix = h * w;
    debug_assert_eq!(input.len(), cin * npix);
    debug_assert_eq!(cols.len(), im2col_len(cin, k, npix));
    let p = k / 2;
    let mut rows = cols.chunks_exact_mut(npix);
    for i in 0..cin {
        let chan = &input[i * npix..(i + 1) * npix];
        for dy in 0..k {
            let oy = dy as isize - p as isize;
            for dx in 0..k {
                let ox = dx as isize - p as isize;
                // A shift of the whole width or more leaves only padding.
                let shift = ox.unsigned_abs().min(w);
                let n = w - shift;
                let row = rows.next().expect("cols row per (i, dy, dx)"); // lint: allow(unwrap): chunks_exact_mut yields ci*k*k rows
                for y in 0..h {
                    let dst = &mut row[y * w..(y + 1) * w];
                    let sy = y as isize + oy;
                    if sy < 0 || sy >= h as isize {
                        dst.fill(0.0);
                        continue;
                    }
                    let src = &chan[(sy as usize) * w..(sy as usize + 1) * w];
                    if ox >= 0 {
                        dst[..n].copy_from_slice(&src[shift..]);
                        dst[n..].fill(0.0);
                    } else {
                        dst[..shift].fill(0.0);
                        dst[shift..].copy_from_slice(&src[..n]);
                    }
                }
            }
        }
    }
}

/// Inverse scatter of [`im2col`]: `dinput[i, y+dy-p, x+dx-p] +=
/// dcols[(i·k+dy)·k+dx, y·w+x]`, accumulating into `dinput`.
// lint: hot-path
// lint: no-f64
pub fn col2im_acc(dcols: &[f32], cin: usize, h: usize, w: usize, k: usize, dinput: &mut [f32]) {
    let npix = h * w;
    debug_assert_eq!(dinput.len(), cin * npix);
    debug_assert_eq!(dcols.len(), im2col_len(cin, k, npix));
    let p = k / 2;
    let mut rows = dcols.chunks_exact(npix);
    for i in 0..cin {
        let chan = &mut dinput[i * npix..(i + 1) * npix];
        for dy in 0..k {
            let oy = dy as isize - p as isize;
            for dx in 0..k {
                let ox = dx as isize - p as isize;
                // As in `im2col`: nothing lands inside the row once |ox| ≥ w.
                let shift = ox.unsigned_abs().min(w);
                let n = w - shift;
                let row = rows.next().expect("dcols row per (i, dy, dx)"); // lint: allow(unwrap): chunks_exact yields ci*k*k rows
                for y in 0..h {
                    let sy = y as isize + oy;
                    if sy < 0 || sy >= h as isize {
                        continue;
                    }
                    let src = &row[y * w..(y + 1) * w];
                    let dst = &mut chan[(sy as usize) * w..(sy as usize + 1) * w];
                    let (dst, src) = if ox >= 0 {
                        (&mut dst[shift..], &src[..n])
                    } else {
                        (&mut dst[..n], &src[shift..])
                    };
                    for (d, s) in dst.iter_mut().zip(src) {
                        *d += *s;
                    }
                }
            }
        }
    }
}

/// Four disjoint `npix`-wide rows of `buf` starting at row `o`.
// lint: hot-path
// lint: no-f64
#[inline]
fn four_rows(buf: &mut [f32], npix: usize, o: usize) -> [&mut [f32]; 4] {
    let rest = &mut buf[o * npix..];
    let (r0, rest) = rest.split_at_mut(npix);
    let (r1, rest) = rest.split_at_mut(npix);
    let (r2, rest) = rest.split_at_mut(npix);
    let (r3, _) = rest.split_at_mut(npix);
    [r0, r1, r2, r3]
}

/// `out[o, p] = bias[o] + Σ_r w[o, r]·cols[r, p]` (then optional ReLU)
/// — the forward matmul, scalar twin of [`matmul_bias_avx512`] /
/// [`matmul_bias_avx2`].
///
/// Blocked two ways: pixel tiles of [`PIXEL_TILE`] keep the working set
/// in L1, and four output rows advance together so each cols element
/// loaded feeds four FMAs.
// lint: hot-path
// lint: no-f64
#[allow(clippy::too_many_arguments)]
fn matmul_bias_scalar(
    w: &[f32],
    cols: &[f32],
    rdim: usize,
    npix: usize,
    cout: usize,
    bias: &[f32],
    relu: bool,
    out: &mut [f32],
) {
    debug_assert_eq!(w.len(), cout * rdim);
    debug_assert_eq!(cols.len(), rdim * npix);
    debug_assert_eq!(out.len(), cout * npix);
    debug_assert_eq!(bias.len(), cout);
    for (o, row) in out.chunks_exact_mut(npix).enumerate() {
        row.fill(bias[o]);
    }
    let mut p0 = 0;
    while p0 < npix {
        let pt = PIXEL_TILE.min(npix - p0);
        let mut o = 0;
        while o + 4 <= cout {
            let [r0, r1, r2, r3] = four_rows(out, npix, o);
            let (t0, t1, t2, t3) = (
                &mut r0[p0..p0 + pt],
                &mut r1[p0..p0 + pt],
                &mut r2[p0..p0 + pt],
                &mut r3[p0..p0 + pt],
            );
            for r in 0..rdim {
                let c = &cols[r * npix + p0..r * npix + p0 + pt];
                let w0 = w[o * rdim + r];
                let w1 = w[(o + 1) * rdim + r];
                let w2 = w[(o + 2) * rdim + r];
                let w3 = w[(o + 3) * rdim + r];
                for p in 0..pt {
                    let cv = c[p];
                    t0[p] += w0 * cv;
                    t1[p] += w1 * cv;
                    t2[p] += w2 * cv;
                    t3[p] += w3 * cv;
                }
            }
            o += 4;
        }
        while o < cout {
            let t = &mut out[o * npix + p0..o * npix + p0 + pt];
            for r in 0..rdim {
                let c = &cols[r * npix + p0..r * npix + p0 + pt];
                let wv = w[o * rdim + r];
                for p in 0..pt {
                    t[p] += wv * c[p];
                }
            }
            o += 1;
        }
        p0 += pt;
    }
    if relu {
        out.iter_mut().for_each(|x| *x = x.max(0.0));
    }
}

/// Eight-lane dot product: independent partial sums so the reduction
/// autovectorizes (a strict sequential sum cannot be reassociated).
// lint: hot-path
// lint: no-f64
#[inline]
fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut lanes = [0.0f32; 8];
    for (ca, cb) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
        for l in 0..8 {
            lanes[l] += ca[l] * cb[l];
        }
    }
    let rem = a.len() - a.len() % 8;
    let mut tail = 0.0f32;
    for (x, y) in a[rem..].iter().zip(&b[rem..]) {
        tail += x * y;
    }
    lanes.iter().sum::<f32>() + tail
}

/// `dw[o, r] += Σ_p dout[o, p]·cols[r, p]` — the weight-gradient
/// matmul, scalar twin of [`matmul_dw_avx512`] / [`matmul_dw_avx2`].
///
/// Loop order keeps each cols row L1-hot across all `cout` dot products.
// lint: hot-path
// lint: no-f64
fn matmul_dw_scalar(
    dout: &[f32],
    cols: &[f32],
    rdim: usize,
    npix: usize,
    cout: usize,
    dw: &mut [f32],
) {
    debug_assert_eq!(dw.len(), cout * rdim);
    debug_assert_eq!(cols.len(), rdim * npix);
    debug_assert_eq!(dout.len(), cout * npix);
    for r in 0..rdim {
        let c = &cols[r * npix..(r + 1) * npix];
        for o in 0..cout {
            dw[o * rdim + r] += dot(&dout[o * npix..(o + 1) * npix], c);
        }
    }
}

/// `dcols[r, p] (+)= Σ_o w[o, r]·dout[o, p]` — the input-gradient
/// (transposed) matmul, same tiling as [`matmul_bias_scalar`] with the
/// roles of output channels and cols rows swapped. `acc` selects `+=`;
/// without it `dcols` is overwritten and need not be initialised.
/// Scalar twin of [`matmul_t_acc_avx512`] / [`matmul_t_acc_avx2`].
// lint: hot-path
// lint: no-f64
fn matmul_t_acc_scalar(
    w: &[f32],
    dout: &[f32],
    rdim: usize,
    npix: usize,
    cout: usize,
    acc: bool,
    dcols: &mut [f32],
) {
    debug_assert_eq!(w.len(), cout * rdim);
    debug_assert_eq!(dcols.len(), rdim * npix);
    debug_assert_eq!(dout.len(), cout * npix);
    if !acc {
        dcols.fill(0.0);
    }
    let mut p0 = 0;
    while p0 < npix {
        let pt = PIXEL_TILE.min(npix - p0);
        let mut r = 0;
        while r + 4 <= rdim {
            let [t0, t1, t2, t3] = four_rows(dcols, npix, r);
            let (t0, t1, t2, t3) = (
                &mut t0[p0..p0 + pt],
                &mut t1[p0..p0 + pt],
                &mut t2[p0..p0 + pt],
                &mut t3[p0..p0 + pt],
            );
            for o in 0..cout {
                let d = &dout[o * npix + p0..o * npix + p0 + pt];
                let w0 = w[o * rdim + r];
                let w1 = w[o * rdim + r + 1];
                let w2 = w[o * rdim + r + 2];
                let w3 = w[o * rdim + r + 3];
                for p in 0..pt {
                    let dv = d[p];
                    t0[p] += w0 * dv;
                    t1[p] += w1 * dv;
                    t2[p] += w2 * dv;
                    t3[p] += w3 * dv;
                }
            }
            r += 4;
        }
        while r < rdim {
            let t = &mut dcols[r * npix + p0..r * npix + p0 + pt];
            for o in 0..cout {
                let d = &dout[o * npix + p0..o * npix + p0 + pt];
                let wv = w[o * rdim + r];
                for p in 0..pt {
                    t[p] += wv * d[p];
                }
            }
            r += 1;
        }
        p0 += pt;
    }
}

// ---- rows form: out[row, p] (= bias | = 0 | +=) Σ_k a[row, k]·b[k, p] ----
// The forward product (rows = output channels, k = cols rows) and the
// transposed one (rows = cols rows, k = output channels) are the same
// tile walked with different strides through the same weight matrix.

/// What a rows-form accumulator starts from.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
enum Init<'a> {
    /// `out[row, ·] = bias[row] + Σ`.
    Bias(&'a [f32]),
    /// `out = Σ`: whatever `out` held is overwritten, not read.
    Zero,
    /// `out += Σ`.
    Acc,
}

/// One rows-form product: `out[i, p] = init + Σ_k a[i·ars + k·aks]·b[k·npix + p]`
/// for `i < nrows`, `k < kdim`, `p < npix`, then an optional ReLU.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct Rows<'a> {
    a: &'a [f32],
    ars: usize,
    aks: usize,
    b: &'a [f32],
    nrows: usize,
    kdim: usize,
    npix: usize,
    init: Init<'a>,
    relu: bool,
}

#[cfg(target_arch = "x86_64")]
impl<'a> Rows<'a> {
    /// [`matmul_bias_scalar`]'s product: rows are output channels.
    fn forward(
        w: &'a [f32],
        cols: &'a [f32],
        rdim: usize,
        npix: usize,
        cout: usize,
        bias: &'a [f32],
        relu: bool,
    ) -> Self {
        let init = Init::Bias(bias);
        Rows { a: w, ars: rdim, aks: 1, b: cols, nrows: cout, kdim: rdim, npix, init, relu }
    }

    /// [`matmul_t_acc_scalar`]'s product: rows are cols rows, read down
    /// the columns of `w`.
    fn transposed(
        w: &'a [f32],
        dout: &'a [f32],
        rdim: usize,
        npix: usize,
        cout: usize,
        acc: bool,
    ) -> Self {
        let init = if acc { Init::Acc } else { Init::Zero };
        Rows { a: w, ars: 1, aks: rdim, b: dout, nrows: rdim, kdim: cout, npix, init, relu: false }
    }
}

/// One vector at `q`: a plain load in a `FULL` tile, through the lane
/// mask `m` in an edge tile. (A function, not a closure, like every
/// helper of the tile bodies: only `#[inline(always)]` guarantees it is
/// compiled with the caller's target features.)
///
/// # Safety
/// As [`Isa::load`] / [`Isa::load_m`].
// lint: hot-path
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn vec_ld<L: Isa, const FULL: bool>(q: *const f32, m: L::M) -> L::V {
    if FULL {
        L::load(q)
    } else {
        L::load_m(q, m)
    }
}

/// The two vectors of a rows-form pixel tile at `q`. The edge tile's
/// second vector may start past the buffer; it is then fully masked
/// and never dereferenced, hence `wrapping_add`.
///
/// # Safety
/// As [`vec_ld`] for both vectors.
// lint: hot-path
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn vec_ld2<L: Isa, const FULL: bool>(q: *const f32, m: [L::M; 2]) -> [L::V; 2] {
    [vec_ld::<L, FULL>(q, m[0]), vec_ld::<L, FULL>(q.wrapping_add(L::LANES), m[1])]
}

/// The rows-form register tile: `MR` rows × two vectors of pixels, every
/// output one FMA chain over `k` in index order — so the result does
/// not depend on the lane count or on where the tile sits. `FULL`
/// tiles use plain loads and stores; the one edge tile of a pixel row
/// goes through the lane masks `m` instead of a narrower copy of the
/// loop.
///
/// # Safety
/// As [`Isa`]; `g`'s slices and `out` have the lengths [`rows_gemm`]
/// checks, `r + MR ≤ g.nrows`, and the pixels `m` selects (all
/// `2·LANES` when `FULL`) start at `p` inside a row.
// lint: hot-path
// lint: no-f64
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn rows_tile<L: Isa, const MR: usize, const FULL: bool>(
    g: &Rows,
    out: *mut f32,
    r: usize,
    p: usize,
    m: [L::M; 2],
) {
    let a = g.a.as_ptr().add(r * g.ars);
    let b = g.b.as_ptr().add(p);
    let o = out.add(r * g.npix + p);
    let zero = L::splat(0.0);
    let mut acc = [[zero; 2]; MR];
    for (i, row) in acc.iter_mut().enumerate() {
        match g.init {
            Init::Bias(bias) => *row = [L::splat(*bias.get_unchecked(r + i)); 2],
            Init::Zero => {}
            Init::Acc => *row = vec_ld2::<L, FULL>(o.add(i * g.npix), m),
        }
    }
    for k in 0..g.kdim {
        let bk = vec_ld2::<L, FULL>(b.add(k * g.npix), m);
        for (i, row) in acc.iter_mut().enumerate() {
            let av = L::splat(*a.add(i * g.ars + k * g.aks));
            *row = [L::fma(av, bk[0], row[0]), L::fma(av, bk[1], row[1])];
        }
    }
    for (i, row) in acc.iter().enumerate() {
        for (j, &v) in row.iter().enumerate() {
            let v = if g.relu { L::max(v, zero) } else { v };
            let q = o.add(i * g.npix).wrapping_add(j * L::LANES);
            if FULL {
                L::store(q, v)
            } else {
                L::store_m(q, m[j], v)
            }
        }
    }
}

/// Reduction-chunk length of the rows form: at most this many rows of
/// `b` are live per pass, so a pixel tile's slab of them (two cache
/// lines a row, rows a whole image row apart) stays within the ways of
/// an L1 set even when the row stride is a multiple of a large power of
/// two.
#[cfg(target_arch = "x86_64")]
const K_CHUNK: usize = 128;

/// The rows-form loop nest. Inside a reduction chunk the pixel tile is
/// the outer loop: its `K_CHUNK × 2·LANES` slab of `b` is fetched once
/// and then read from L1 by every row block, while `a` (the weights) is
/// the small operand that streams. Later chunks accumulate onto the
/// first through `out`, which keeps every output one FMA chain over
/// `k`. A last block of fewer than `MR` rows runs the same tile body at
/// its own height.
///
/// # Safety
/// As [`Isa`].
// lint: hot-path
// lint: no-f64
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn rows_gemm<L: Isa, const MR: usize>(g: &Rows, out: &mut [f32]) {
    assert!(MR <= 12, "the tile match below covers heights 1..=12");
    assert_eq!(g.a.len(), g.nrows * g.kdim);
    assert_eq!(g.b.len(), g.kdim * g.npix);
    assert_eq!(out.len(), g.nrows * g.npix);
    if let Init::Bias(bias) = g.init {
        assert_eq!(bias.len(), g.nrows);
    }
    let out = out.as_mut_ptr();
    let mut k0 = 0;
    loop {
        let kc = K_CHUNK.min(g.kdim - k0);
        let chunk = Rows {
            a: &g.a[k0 * g.aks..],
            b: &g.b[k0 * g.npix..],
            kdim: kc,
            init: if k0 == 0 { g.init } else { Init::Acc },
            relu: g.relu && k0 + kc == g.kdim,
            ..*g
        };
        let mut p = 0;
        while p < g.npix {
            let left = g.npix - p;
            let m = [L::mask(left), L::mask(left.saturating_sub(L::LANES))];
            let mut r = 0;
            while r < g.nrows {
                let mr = MR.min(g.nrows - r);
                macro_rules! tile {
                    ($($n:literal)+) => {
                        match (mr, left >= 2 * L::LANES) {
                            $(($n, true) => rows_tile::<L, $n, true>(&chunk, out, r, p, m),
                            ($n, false) => rows_tile::<L, $n, false>(&chunk, out, r, p, m),)+
                            _ => unreachable!("mr is in 1..=MR"),
                        }
                    };
                }
                tile!(1 2 3 4 5 6 7 8 9 10 11 12);
                r += mr;
            }
            p += 2 * L::LANES;
        }
        k0 += kc;
        if k0 >= g.kdim {
            return;
        }
    }
}

/// AVX-512F instantiation of the rows form: 16 lanes, 12-row tile (24
/// accumulators of the 32 registers). Shared by [`matmul_bias_avx512`]
/// and [`matmul_t_acc_avx512`].
///
/// # Safety
/// Caller must ensure AVX-512F is available ([`simd::have_avx512f`]).
// lint: hot-path
// lint: no-f64
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2,fma")]
unsafe fn matmul_rows_avx512(g: &Rows, out: &mut [f32]) {
    rows_gemm::<Avx512, 12>(g, out)
}

/// AVX2+FMA instantiation of the rows form: 8 lanes, 4-row tile (8
/// accumulators of the 16 registers). Shared by [`matmul_bias_avx2`]
/// and [`matmul_t_acc_avx2`].
///
/// # Safety
/// Caller must ensure AVX2 and FMA are available
/// ([`simd::have_avx2_fma`]).
// lint: hot-path
// lint: no-f64
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn matmul_rows_avx2(g: &Rows, out: &mut [f32]) {
    rows_gemm::<Avx2, 4>(g, out)
}

// ---- dot form: dw[o, r] += Σ_p dout[o, p]·cols[r, p] ----
// The weight gradient contracts over the contiguous pixel axis, so its
// tile keeps vectors of per-lane partial sums and pays one horizontal
// reduction per output instead of a broadcast per FMA.

/// One pixel vector of the dot tile: `acc[i][j] += d[i][p..]·c[j][p..]`
/// lane by lane.
///
/// # Safety
/// As [`dot_tile`], with the lanes `m` selects (all when `FULL`) at
/// pixel `p` inside the rows.
// lint: hot-path
// lint: no-f64
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn dot_step<L: Isa, const DM: usize, const FULL: bool>(
    acc: &mut [[L::V; 4]; DM],
    d: &[*const f32; DM],
    c: &[*const f32; 4],
    p: usize,
    m: L::M,
) {
    let cv = [
        vec_ld::<L, FULL>(c[0].add(p), m),
        vec_ld::<L, FULL>(c[1].add(p), m),
        vec_ld::<L, FULL>(c[2].add(p), m),
        vec_ld::<L, FULL>(c[3].add(p), m),
    ];
    for (row, &di) in acc.iter_mut().zip(d) {
        let dv = vec_ld::<L, FULL>(di.add(p), m);
        for (a, &cj) in row.iter_mut().zip(&cv) {
            *a = L::fma(dv, cj, *a);
        }
    }
}

/// The dot-form register tile: `DM` dout rows × 4 cols rows of vector
/// accumulators over the whole pixel axis (the tail through a lane
/// mask), reduced by [`Isa::hsum4`] into `dw[i, 0..4]` per dout row.
/// Rows past an edge are passed as repeats of the last valid row and
/// dropped on the way out: only `mo × nr` results are added to `dw`.
///
/// # Safety
/// As [`Isa`]; every pointer in `d` and `c` heads `npix` readable
/// floats, and `dw[i·rdim + j]` is writable for `i < mo`, `j < nr`.
// lint: hot-path
// lint: no-f64
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn dot_tile<L: Isa, const DM: usize>(
    d: [*const f32; DM],
    c: [*const f32; 4],
    npix: usize,
    mo: usize,
    nr: usize,
    dw: *mut f32,
    rdim: usize,
) {
    use std::arch::x86_64::*;
    let mut acc = [[L::splat(0.0); 4]; DM];
    let mut p = 0;
    while p + L::LANES <= npix {
        dot_step::<L, DM, true>(&mut acc, &d, &c, p, L::mask(0));
        p += L::LANES;
    }
    if p < npix {
        dot_step::<L, DM, false>(&mut acc, &d, &c, p, L::mask(npix - p));
    }
    let keep = _mm_cmpgt_epi32(_mm_set1_epi32(nr as i32), _mm_setr_epi32(0, 1, 2, 3));
    for (i, &row) in acc.iter().enumerate().take(mo) {
        let q = dw.add(i * rdim);
        _mm_maskstore_ps(q, keep, _mm_add_ps(_mm_maskload_ps(q, keep), L::hsum4(row)));
    }
}

/// The dot-form loop nest: four cols rows stay in L1 while the dout
/// rows stream past `DM` at a time — the tile's shorter side streams.
///
/// # Safety
/// As [`Isa`].
// lint: hot-path
// lint: no-f64
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn dot_gemm<L: Isa, const DM: usize>(
    dout: &[f32],
    cols: &[f32],
    rdim: usize,
    npix: usize,
    cout: usize,
    dw: &mut [f32],
) {
    assert_eq!(dw.len(), cout * rdim);
    assert_eq!(cols.len(), rdim * npix);
    assert_eq!(dout.len(), cout * npix);
    for r in (0..rdim).step_by(4) {
        let c: [*const f32; 4] =
            std::array::from_fn(|j| cols.as_ptr().add((r + j).min(rdim - 1) * npix));
        for o in (0..cout).step_by(DM) {
            let d: [*const f32; DM] =
                std::array::from_fn(|i| dout.as_ptr().add((o + i).min(cout - 1) * npix));
            let (mo, nr) = (DM.min(cout - o), 4.min(rdim - r));
            dot_tile::<L, DM>(d, c, npix, mo, nr, dw.as_mut_ptr().add(o * rdim + r), rdim);
        }
    }
}

// ---- the instantiations: one `#[target_feature]` entry per matmul and
// ISA, each with the signature of its scalar twin.

/// AVX-512F twin of [`matmul_bias_scalar`]: the bias seeds the
/// accumulators and the ReLU is applied in-register before the single
/// store of each output.
///
/// # Safety
/// Caller must ensure AVX-512F is available ([`simd::have_avx512f`]).
// lint: hot-path
// lint: no-f64
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn matmul_bias_avx512(
    w: &[f32],
    cols: &[f32],
    rdim: usize,
    npix: usize,
    cout: usize,
    bias: &[f32],
    relu: bool,
    out: &mut [f32],
) {
    matmul_rows_avx512(&Rows::forward(w, cols, rdim, npix, cout, bias, relu), out)
}

/// AVX2+FMA twin of [`matmul_bias_scalar`], as [`matmul_bias_avx512`].
///
/// # Safety
/// Caller must ensure AVX2 and FMA are available
/// ([`simd::have_avx2_fma`]).
// lint: hot-path
// lint: no-f64
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn matmul_bias_avx2(
    w: &[f32],
    cols: &[f32],
    rdim: usize,
    npix: usize,
    cout: usize,
    bias: &[f32],
    relu: bool,
    out: &mut [f32],
) {
    matmul_rows_avx2(&Rows::forward(w, cols, rdim, npix, cout, bias, relu), out)
}

/// AVX-512F twin of [`matmul_t_acc_scalar`]: with `acc` the
/// accumulators are loaded from `dcols`, without it they start at zero
/// and `dcols` is only written.
///
/// # Safety
/// Caller must ensure AVX-512F is available ([`simd::have_avx512f`]).
// lint: hot-path
// lint: no-f64
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2,fma")]
unsafe fn matmul_t_acc_avx512(
    w: &[f32],
    dout: &[f32],
    rdim: usize,
    npix: usize,
    cout: usize,
    acc: bool,
    dcols: &mut [f32],
) {
    matmul_rows_avx512(&Rows::transposed(w, dout, rdim, npix, cout, acc), dcols)
}

/// AVX2+FMA twin of [`matmul_t_acc_scalar`], as
/// [`matmul_t_acc_avx512`].
///
/// # Safety
/// Caller must ensure AVX2 and FMA are available
/// ([`simd::have_avx2_fma`]).
// lint: hot-path
// lint: no-f64
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn matmul_t_acc_avx2(
    w: &[f32],
    dout: &[f32],
    rdim: usize,
    npix: usize,
    cout: usize,
    acc: bool,
    dcols: &mut [f32],
) {
    matmul_rows_avx2(&Rows::transposed(w, dout, rdim, npix, cout, acc), dcols)
}

/// AVX-512F twin of [`matmul_dw_scalar`]: 4 × 4 dot tile (16
/// accumulators, 4 cols vectors and 1 dout vector of the 32 registers).
///
/// # Safety
/// Caller must ensure AVX-512F is available ([`simd::have_avx512f`]).
// lint: hot-path
// lint: no-f64
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2,fma")]
unsafe fn matmul_dw_avx512(
    dout: &[f32],
    cols: &[f32],
    rdim: usize,
    npix: usize,
    cout: usize,
    dw: &mut [f32],
) {
    dot_gemm::<Avx512, 4>(dout, cols, rdim, npix, cout, dw)
}

/// AVX2+FMA twin of [`matmul_dw_scalar`]: 2 × 4 dot tile (8
/// accumulators, 4 cols vectors and 1 dout vector of the 16 registers).
///
/// # Safety
/// Caller must ensure AVX2 and FMA are available
/// ([`simd::have_avx2_fma`]).
// lint: hot-path
// lint: no-f64
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn matmul_dw_avx2(
    dout: &[f32],
    cols: &[f32],
    rdim: usize,
    npix: usize,
    cout: usize,
    dw: &mut [f32],
) {
    dot_gemm::<Avx2, 2>(dout, cols, rdim, npix, cout, dw)
}

// ---- dispatch: the widest instantiation the CPU has, by cached cpuid.

/// [`matmul_bias_avx512`] → [`matmul_bias_avx2`] →
/// [`matmul_bias_scalar`]. `relu` fuses the activation into the same
/// pass (one store per output element instead of a second sweep).
// lint: hot-path
// lint: no-f64
#[allow(clippy::too_many_arguments)]
fn matmul_bias(
    w: &[f32],
    cols: &[f32],
    rdim: usize,
    npix: usize,
    cout: usize,
    bias: &[f32],
    relu: bool,
    out: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    if simd::have_avx512f() {
        // SAFETY: the dispatch predicate just confirmed AVX-512F (and with it AVX2+FMA).
        unsafe { matmul_bias_avx512(w, cols, rdim, npix, cout, bias, relu, out) };
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if simd::have_avx2_fma() {
        // SAFETY: the dispatch predicate just confirmed AVX2+FMA.
        unsafe { matmul_bias_avx2(w, cols, rdim, npix, cout, bias, relu, out) };
        return;
    }
    matmul_bias_scalar(w, cols, rdim, npix, cout, bias, relu, out);
}

/// [`matmul_dw_avx512`] → [`matmul_dw_avx2`] → [`matmul_dw_scalar`].
// lint: hot-path
// lint: no-f64
fn matmul_dw(dout: &[f32], cols: &[f32], rdim: usize, npix: usize, cout: usize, dw: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if simd::have_avx512f() {
        // SAFETY: the dispatch predicate just confirmed AVX-512F (and with it AVX2+FMA).
        unsafe { matmul_dw_avx512(dout, cols, rdim, npix, cout, dw) };
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if simd::have_avx2_fma() {
        // SAFETY: the dispatch predicate just confirmed AVX2+FMA.
        unsafe { matmul_dw_avx2(dout, cols, rdim, npix, cout, dw) };
        return;
    }
    matmul_dw_scalar(dout, cols, rdim, npix, cout, dw);
}

/// [`matmul_t_acc_avx512`] → [`matmul_t_acc_avx2`] →
/// [`matmul_t_acc_scalar`].
// lint: hot-path
// lint: no-f64
fn matmul_t_acc(
    w: &[f32],
    dout: &[f32],
    rdim: usize,
    npix: usize,
    cout: usize,
    acc: bool,
    dcols: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    if simd::have_avx512f() {
        // SAFETY: the dispatch predicate just confirmed AVX-512F (and with it AVX2+FMA).
        unsafe { matmul_t_acc_avx512(w, dout, rdim, npix, cout, acc, dcols) };
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if simd::have_avx2_fma() {
        // SAFETY: the dispatch predicate just confirmed AVX2+FMA.
        unsafe { matmul_t_acc_avx2(w, dout, rdim, npix, cout, acc, dcols) };
        return;
    }
    matmul_t_acc_scalar(w, dout, rdim, npix, cout, acc, dcols);
}

/// Optimized convolution forward: im2col into `cols` (caller-provided,
/// [`im2col_len`]-sized; unused for `k == 1`), then blocked matmul.
/// `relu` fuses `max(0, ·)` into the matmul's output store.
/// Numerically equivalent to [`reference_conv_forward`] (plus a ReLU
/// pass when requested) up to float summation order.
// lint: hot-path
// lint: no-f64
#[allow(clippy::too_many_arguments)]
pub fn conv_forward(
    input: &[f32],
    cin: usize,
    h: usize,
    w: usize,
    weights: &[f32],
    bias: &[f32],
    k: usize,
    cout: usize,
    relu: bool,
    cols: &mut [f32],
    out: &mut [f32],
) {
    let npix = h * w;
    let rdim = cin * k * k;
    if k == 1 {
        // 1×1 convolution: the input already is the cols matrix.
        matmul_bias(weights, input, rdim, npix, cout, bias, relu, out);
        return;
    }
    im2col(input, cin, h, w, k, cols);
    matmul_bias(weights, cols, rdim, npix, cout, bias, relu, out);
}

/// Optimized convolution backward. `cols` must hold the im2col of the
/// layer input (left over from [`conv_forward`], ignored for `k == 1`);
/// `dcols` is scratch for the input gradient (ignored when `dinput` is
/// `None` or `k == 1`; overwritten, so it need not be cleared).
/// Accumulates into `dw` / `db` / `dinput` like the reference.
// lint: hot-path
// lint: no-f64
#[allow(clippy::too_many_arguments)]
pub fn conv_backward(
    input: &[f32],
    cin: usize,
    h: usize,
    w: usize,
    weights: &[f32],
    k: usize,
    cout: usize,
    dout: &[f32],
    cols: &[f32],
    dcols: &mut [f32],
    dw: &mut [f32],
    db: &mut [f32],
    dinput: Option<&mut [f32]>,
) {
    let npix = h * w;
    let rdim = cin * k * k;
    for (o, bo) in db.iter_mut().enumerate() {
        let row = &dout[o * npix..(o + 1) * npix];
        // Eight-lane sum, same reassociation as `dot`.
        let mut lanes = [0.0f32; 8];
        for ch in row.chunks_exact(8) {
            for l in 0..8 {
                lanes[l] += ch[l];
            }
        }
        let rem = row.len() - row.len() % 8;
        *bo += lanes.iter().sum::<f32>() + row[rem..].iter().sum::<f32>();
    }
    let cols = if k == 1 { input } else { cols };
    matmul_dw(dout, cols, rdim, npix, cout, dw);
    if let Some(din) = dinput {
        if k == 1 {
            matmul_t_acc(weights, dout, rdim, npix, cout, true, din);
        } else {
            matmul_t_acc(weights, dout, rdim, npix, cout, false, dcols);
            col2im_acc(dcols, cin, h, w, k, din);
        }
    }
}

// --------------------------------------------------------------- workspace

/// A zero-initialised `f32` buffer whose first element sits on a
/// cache-line boundary. With `npix` a multiple of 16 every matrix row
/// in it is line-aligned too, and a vector load of the dot-form tile —
/// eight per sixteen FMAs — never straddles two lines, which on a
/// plain `Vec<f32>` (16-byte-aligned by the allocator) every 64-byte
/// load does. Over-allocates by one line and skips to the boundary, so
/// the storage still comes from `alloc_zeroed` and pages no phase
/// touches are never made resident.
#[derive(Debug)]
struct Buf {
    store: Vec<f32>,
    skip: usize,
    len: usize,
}

impl Buf {
    fn new(len: usize) -> Self {
        let store = vec![0.0f32; len + 15];
        // Bytes up to the next multiple of 64; a multiple of 4 because
        // the allocation is `f32`-aligned.
        let skip = (store.as_ptr() as usize).wrapping_neg() % 64 / 4;
        Buf { store, skip, len }
    }
}

impl Clone for Buf {
    /// A copy of `store` would land at another offset from a line.
    fn clone(&self) -> Self {
        let mut copy = Buf::new(self.len);
        copy.copy_from_slice(self);
        copy
    }
}

impl std::ops::Deref for Buf {
    type Target = [f32];
    fn deref(&self) -> &[f32] {
        &self.store[self.skip..self.skip + self.len]
    }
}

impl std::ops::DerefMut for Buf {
    fn deref_mut(&mut self) -> &mut [f32] {
        &mut self.store[self.skip..self.skip + self.len]
    }
}

/// Reusable per-sample scratch for [`SegNet::loss_grad_acc`]: forward
/// activations, backward gradients, and the im2col matrices of both
/// k×k layers. Constructing one allocates everything the hot path
/// needs; using it allocates nothing.
#[derive(Debug, Clone)]
pub struct Workspace {
    a1: Buf,
    a2: Buf,
    /// Logits on the way forward, `dlogits` after the softmax backward.
    dlogits: Buf,
    da1: Buf,
    da2: Buf,
    cols1: Buf,
    cols2: Buf,
    dcols: Buf,
}

impl Workspace {
    pub fn new(cfg: &NetConfig) -> Self {
        let npix = cfg.height * cfg.width;
        Workspace {
            a1: Buf::new(cfg.hidden1 * npix),
            a2: Buf::new(cfg.hidden2 * npix),
            dlogits: Buf::new(cfg.n_classes * npix),
            da1: Buf::new(cfg.hidden1 * npix),
            da2: Buf::new(cfg.hidden2 * npix),
            cols1: Buf::new(im2col_len(cfg.cin, cfg.k, npix)),
            cols2: Buf::new(im2col_len(cfg.hidden1, cfg.k, npix)),
            dcols: Buf::new(im2col_len(cfg.hidden1, cfg.k, npix)),
        }
    }
}

/// Per-lane state for [`SegNet::batch_loss_grad_ws`]: one
/// ([`Workspace`], gradient accumulator) slot per lane of the shared
/// core pool, plus the combined mean gradient. Construct once, reuse
/// every step.
#[derive(Debug)]
pub struct BatchWorkspace {
    slots: Vec<Slot>,
    /// Mean gradient of the last [`SegNet::batch_loss_grad_ws`] call.
    pub grad: Vec<f32>,
}

#[derive(Debug)]
struct Slot {
    ws: Workspace,
    grad: Vec<f32>,
    loss: f64,
}

impl BatchWorkspace {
    pub fn new(cfg: &NetConfig) -> Self {
        let n_params = cfg.n_params();
        let slots = (0..pool::lanes())
            .map(|_| Slot { ws: Workspace::new(cfg), grad: vec![0.0; n_params], loss: 0.0 })
            .collect();
        BatchWorkspace { slots, grad: vec![0.0; n_params] }
    }
}

impl SegNet {
    /// He-initialized network, deterministic in `seed`.
    pub fn new(cfg: NetConfig, seed: u64) -> Self {
        assert!(cfg.k % 2 == 1, "kernel must be odd for same padding");
        let layout = Layout::new(&cfg);
        let mut params = vec![0.0f32; layout.n_params()];
        let mut rng = rng_for(seed, "segnet-init");
        let k2 = cfg.k * cfg.k;
        // Weight blocks in declaration order (w1, w2, w3) so the RNG
        // stream matches the historical per-field initialization.
        for (block, fan_in) in [(0, k2 * cfg.cin), (2, k2 * cfg.hidden1), (4, cfg.hidden2)] {
            let scale = (2.0 / fan_in as f32).sqrt();
            for v in &mut params[layout.range(block)] {
                *v = (rng.gen::<f32>() * 2.0 - 1.0) * scale;
            }
        }
        SegNet { cfg, layout, params }
    }

    pub fn n_params(&self) -> usize {
        self.cfg.n_params()
    }

    /// The flat parameter vector (fixed order `[w1|b1|w2|b2|w3|b3]`),
    /// borrowed — no copy.
    pub fn params(&self) -> &[f32] {
        &self.params
    }

    /// Mutable borrow of the flat parameter vector: the optimizer
    /// updates the network storage in place.
    pub fn params_mut(&mut self) -> &mut [f32] {
        &mut self.params
    }

    pub fn set_params(&mut self, flat: &[f32]) {
        assert_eq!(flat.len(), self.n_params(), "parameter vector length");
        self.params.copy_from_slice(flat);
    }

    /// Forward pass to per-pixel logits (`classes × h × w`).
    pub fn forward_logits(&self, pixels: &[f32]) -> Vec<f32> {
        let c = &self.cfg;
        let npix = c.height * c.width;
        let mut ws = Workspace::new(c);
        self.forward_ws(pixels, &mut ws);
        let mut logits = vec![0.0; c.n_classes * npix];
        logits.copy_from_slice(&ws.dlogits);
        logits
    }

    /// Forward through the workspace; logits end up in `ws.dlogits`.
    fn forward_ws(&self, pixels: &[f32], ws: &mut Workspace) {
        let c = &self.cfg;
        let (h, w) = (c.height, c.width);
        let [w1, b1, w2, b2, w3, b3] = self.layout.split(&self.params);
        // ReLU is fused into the matmul's output store (`relu: true`).
        conv_forward(pixels, c.cin, h, w, w1, b1, c.k, c.hidden1, true, &mut ws.cols1, &mut ws.a1);
        conv_forward(
            &ws.a1,
            c.hidden1,
            h,
            w,
            w2,
            b2,
            c.k,
            c.hidden2,
            true,
            &mut ws.cols2,
            &mut ws.a2,
        );
        conv_forward(
            &ws.a2,
            c.hidden2,
            h,
            w,
            w3,
            b3,
            1,
            c.n_classes,
            false,
            &mut ws.dcols,
            &mut ws.dlogits,
        );
    }

    /// Argmax class map.
    pub fn predict(&self, pixels: &[f32]) -> Vec<u8> {
        let c = &self.cfg;
        let (h, w) = (c.height, c.width);
        let logits = self.forward_logits(pixels);
        (0..h * w)
            .map(|i| {
                (0..c.n_classes)
                    .max_by(|&a, &b| logits[a * h * w + i].total_cmp(&logits[b * h * w + i]))
                    .expect("at least one class") as u8 // lint: allow(unwrap): n_classes >= 1 is validated at construction
            })
            .collect()
    }

    /// Parameter ranges of the six blocks, in the fixed flat order
    /// `[w1, b1, w2, b2, w3, b3]` — what the pipelined step executor
    /// uses to address gradient tiles inside a flat vector.
    pub fn block_ranges(&self) -> [Range<usize>; 6] {
        [
            self.layout.range(0),
            self.layout.range(1),
            self.layout.range(2),
            self.layout.range(3),
            self.layout.range(4),
            self.layout.range(5),
        ]
    }

    /// Cross-entropy loss for one sample, **accumulating** the flat
    /// parameter gradient into `grad_acc` (`+=`). Performs zero heap
    /// allocations: all scratch comes from `ws`.
    ///
    /// The body is the four pipeline phases run back to back; the
    /// pipelined executor calls them individually so each layer's
    /// gradient tile can be reduced as soon as its phase completes.
    // lint: hot-path
    pub fn loss_grad_acc(&self, sample: &Sample, ws: &mut Workspace, grad_acc: &mut [f32]) -> f64 {
        assert_eq!(grad_acc.len(), self.n_params(), "gradient vector length");
        let [gw1, gb1, gw2, gb2, gw3, gb3] = self.layout.split_mut(grad_acc);
        let loss = self.phase_forward_softmax(sample, ws);
        self.phase_backward_head(ws, gw3, gb3);
        self.phase_backward_mid(ws, gw2, gb2);
        self.phase_backward_input(sample, ws, gw1, gb1);
        loss
    }

    /// Pipeline phase 1: forward pass plus per-pixel softmax
    /// cross-entropy backward. Leaves the loss gradient w.r.t. the
    /// logits in `ws.dlogits`; returns the sample's mean pixel loss.
    // lint: hot-path
    pub fn phase_forward_softmax(&self, sample: &Sample, ws: &mut Workspace) -> f64 {
        let c = &self.cfg;
        let npix = c.height * c.width;
        self.forward_ws(&sample.pixels, ws);

        // Per-pixel softmax cross-entropy; dlogits in place. (ReLU
        // masks are implicit: post-ReLU activation > 0 ⇔ pre-activation
        // > 0, so `a1`/`a2` double as their own masks.)
        let mut loss = 0.0f64;
        let dlogits = &mut ws.dlogits;
        for i in 0..npix {
            let mut maxv = f32::NEG_INFINITY;
            for cl in 0..c.n_classes {
                maxv = maxv.max(dlogits[cl * npix + i]);
            }
            let target = sample.labels[i] as usize;
            let logit_t = dlogits[target * npix + i];
            // Single-exp formulation: stash e^(x-max) in place on the
            // accumulation pass, then normalize — same `e / denom`
            // division as the reference, so the result is bit-identical
            // while halving the (dominant) exp count.
            let mut denom = 0.0f32;
            for cl in 0..c.n_classes {
                let e = (dlogits[cl * npix + i] - maxv).exp();
                denom += e;
                dlogits[cl * npix + i] = e;
            }
            loss += f64::from(denom.ln() + maxv - logit_t);
            for cl in 0..c.n_classes {
                let p = dlogits[cl * npix + i] / denom;
                dlogits[cl * npix + i] = (p - f32::from(u8::from(cl == target))) / npix as f32;
            }
        }
        loss / npix as f64
    }

    /// Pipeline phase 2: 1×1 head backward. Accumulates into the
    /// `w3`/`b3` gradient blocks and leaves the ReLU-masked activation
    /// gradient in `ws.da2`. Requires phase 1's workspace state.
    // lint: hot-path
    pub fn phase_backward_head(&self, ws: &mut Workspace, gw3: &mut [f32], gb3: &mut [f32]) {
        let c = &self.cfg;
        let (h, w) = (c.height, c.width);
        let [_, _, _, _, w3, _] = self.layout.split(&self.params);
        let (a2, dlogits) = (&ws.a2, &ws.dlogits);
        conv_backward(
            a2,
            c.hidden2,
            h,
            w,
            w3,
            1,
            c.n_classes,
            dlogits,
            &[],
            &mut [],
            gw3,
            gb3,
            None,
        );
        // A 1×1 layer's input gradient is the transposed product itself:
        // written rather than accumulated, so `da2` needs no zero fill.
        matmul_t_acc(w3, dlogits, c.hidden2, h * w, c.n_classes, false, &mut ws.da2);
        for (d, &a) in ws.da2.iter_mut().zip(ws.a2.iter()) {
            if a <= 0.0 {
                *d = 0.0;
            }
        }
    }

    /// Pipeline phase 3: middle k×k layer backward. Accumulates into
    /// `w2`/`b2` and leaves the ReLU-masked `ws.da1`. Requires phase 2.
    // lint: hot-path
    pub fn phase_backward_mid(&self, ws: &mut Workspace, gw2: &mut [f32], gb2: &mut [f32]) {
        let c = &self.cfg;
        let (h, w) = (c.height, c.width);
        let [_, _, w2, _, _, _] = self.layout.split(&self.params);
        ws.da1.fill(0.0);
        conv_backward(
            &ws.a1,
            c.hidden1,
            h,
            w,
            w2,
            c.k,
            c.hidden2,
            &ws.da2,
            &ws.cols2,
            &mut ws.dcols,
            gw2,
            gb2,
            Some(&mut ws.da1),
        );
        for (d, &a) in ws.da1.iter_mut().zip(ws.a1.iter()) {
            if a <= 0.0 {
                *d = 0.0;
            }
        }
    }

    /// Pipeline phase 4: input k×k layer backward. Accumulates into
    /// `w1`/`b1`; no further input gradient. Requires phase 3.
    // lint: hot-path
    pub fn phase_backward_input(
        &self,
        sample: &Sample,
        ws: &mut Workspace,
        gw1: &mut [f32],
        gb1: &mut [f32],
    ) {
        let c = &self.cfg;
        let (h, w) = (c.height, c.width);
        let [w1, _, _, _, _, _] = self.layout.split(&self.params);
        conv_backward(
            &sample.pixels,
            c.cin,
            h,
            w,
            w1,
            c.k,
            c.hidden1,
            &ws.da1,
            &ws.cols1,
            &mut [],
            gw1,
            gb1,
            None,
        );
    }

    /// Cross-entropy loss and flat parameter gradient for one sample
    /// (allocating convenience wrapper over [`SegNet::loss_grad_acc`]).
    pub fn loss_grad(&self, sample: &Sample) -> (f64, Vec<f32>) {
        let mut ws = Workspace::new(&self.cfg);
        let mut grad = vec![0.0f32; self.n_params()];
        let loss = self.loss_grad_acc(sample, &mut ws, &mut grad);
        (loss, grad)
    }

    /// The naive-kernel twin of [`SegNet::loss_grad`]: allocates fresh
    /// buffers and runs [`reference_conv_forward`] /
    /// [`reference_conv_backward`] end to end. Retained as the
    /// correctness oracle and the bench baseline the optimized path is
    /// measured against.
    pub fn reference_loss_grad(&self, sample: &Sample) -> (f64, Vec<f32>) {
        let c = &self.cfg;
        let (h, w, npix) = (c.height, c.width, c.height * c.width);
        let [w1, b1, w2, b2, w3, b3] = self.layout.split(&self.params);
        // Forward, keeping activations.
        let mut a1 = vec![0.0; c.hidden1 * h * w];
        reference_conv_forward(&sample.pixels, c.cin, h, w, w1, b1, c.k, c.hidden1, &mut a1);
        let z1_mask: Vec<bool> = a1.iter().map(|&x| x > 0.0).collect();
        a1.iter_mut().for_each(|x| *x = x.max(0.0));
        let mut a2 = vec![0.0; c.hidden2 * h * w];
        reference_conv_forward(&a1, c.hidden1, h, w, w2, b2, c.k, c.hidden2, &mut a2);
        let z2_mask: Vec<bool> = a2.iter().map(|&x| x > 0.0).collect();
        a2.iter_mut().for_each(|x| *x = x.max(0.0));
        let mut logits = vec![0.0; c.n_classes * h * w];
        reference_conv_forward(&a2, c.hidden2, h, w, w3, b3, 1, c.n_classes, &mut logits);

        // Per-pixel softmax cross-entropy; dlogits in place.
        let mut loss = 0.0f64;
        let mut dlogits = logits;
        for i in 0..npix {
            let mut maxv = f32::NEG_INFINITY;
            for cl in 0..c.n_classes {
                maxv = maxv.max(dlogits[cl * npix + i]);
            }
            let mut denom = 0.0f32;
            for cl in 0..c.n_classes {
                denom += (dlogits[cl * npix + i] - maxv).exp();
            }
            let target = sample.labels[i] as usize;
            let logit_t = dlogits[target * npix + i];
            loss += f64::from(denom.ln() + maxv - logit_t);
            for cl in 0..c.n_classes {
                let p = (dlogits[cl * npix + i] - maxv).exp() / denom;
                dlogits[cl * npix + i] = (p - f32::from(u8::from(cl == target))) / npix as f32;
            }
        }
        loss /= npix as f64;

        // Backward.
        let mut grad = vec![0.0f32; self.n_params()];
        let [gw1, gb1, gw2, gb2, gw3, gb3] = self.layout.split_mut(&mut grad);
        let mut da2 = vec![0.0; a2.len()];
        reference_conv_backward(
            &a2,
            c.hidden2,
            h,
            w,
            w3,
            1,
            c.n_classes,
            &dlogits,
            gw3,
            gb3,
            Some(&mut da2),
        );
        for (d, &m) in da2.iter_mut().zip(&z2_mask) {
            if !m {
                *d = 0.0;
            }
        }
        let mut da1 = vec![0.0; a1.len()];
        reference_conv_backward(
            &a1,
            c.hidden1,
            h,
            w,
            w2,
            c.k,
            c.hidden2,
            &da2,
            gw2,
            gb2,
            Some(&mut da1),
        );
        for (d, &m) in da1.iter_mut().zip(&z1_mask) {
            if !m {
                *d = 0.0;
            }
        }
        reference_conv_backward(
            &sample.pixels,
            c.cin,
            h,
            w,
            w1,
            c.k,
            c.hidden1,
            &da1,
            gw1,
            gb1,
            None,
        );
        (loss, grad)
    }

    /// Mean loss and gradient over a batch, written into `bw.grad`.
    /// Zero heap allocations after `bw` is constructed: each slot folds
    /// its contiguous shard of the batch into its own workspace and
    /// accumulator — on a pool lane, or one after the other when this
    /// call is itself inside a fan-out — and the partials combine in
    /// fixed slot order (deterministic for a given lane count).
    // lint: hot-path
    pub fn batch_loss_grad_ws(&self, batch: &[Sample], bw: &mut BatchWorkspace) -> f64 {
        assert!(!batch.is_empty());
        let n = bw.slots.len().min(batch.len());
        pool::for_each_mut(&mut bw.slots[..n], |c, slot| {
            slot.loss = 0.0;
            slot.grad.fill(0.0);
            for s in &batch[pool::chunk_range(batch.len(), n, c)] {
                slot.loss += self.loss_grad_acc(s, &mut slot.ws, &mut slot.grad);
            }
        });
        bw.grad.fill(0.0);
        let mut loss = 0.0f64;
        for slot in &bw.slots[..n] {
            loss += slot.loss;
            for (g, s) in bw.grad.iter_mut().zip(&slot.grad) {
                *g += *s;
            }
        }
        let inv = 1.0 / batch.len() as f32;
        bw.grad.iter_mut().for_each(|g| *g *= inv);
        loss / batch.len() as f64
    }

    /// Mean loss and mean gradient over a batch (allocating convenience
    /// wrapper over [`SegNet::batch_loss_grad_ws`]).
    pub fn batch_loss_grad(&self, batch: &[Sample]) -> (f64, Vec<f32>) {
        let mut bw = BatchWorkspace::new(&self.cfg);
        let loss = self.batch_loss_grad_ws(batch, &mut bw);
        (loss, bw.grad)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::real::segdata::{generate, DataConfig};
    use std::hint::black_box;

    fn tiny_cfg() -> NetConfig {
        NetConfig { height: 8, width: 8, cin: 3, hidden1: 4, hidden2: 5, n_classes: 4, k: 3 }
    }

    fn tiny_sample(seed: u64) -> Sample {
        let dc = DataConfig { height: 8, width: 8, ..DataConfig::default() };
        generate(&dc, seed, 0)
    }

    #[test]
    fn shapes_and_param_count() {
        let cfg = tiny_cfg();
        let net = SegNet::new(cfg, 1);
        assert_eq!(net.n_params(), cfg.n_params());
        assert_eq!(net.params().len(), net.n_params());
        let s = tiny_sample(2);
        assert_eq!(net.forward_logits(&s.pixels).len(), 4 * 64);
        assert_eq!(net.predict(&s.pixels).len(), 64);
    }

    #[test]
    fn params_roundtrip() {
        let cfg = tiny_cfg();
        let a = SegNet::new(cfg, 1);
        let mut b = SegNet::new(cfg, 2);
        assert_ne!(a.params(), b.params());
        b.set_params(a.params());
        assert_eq!(a.params(), b.params());
    }

    #[test]
    fn params_mut_is_the_storage() {
        let cfg = tiny_cfg();
        let mut net = SegNet::new(cfg, 1);
        net.params_mut()[0] = 42.0;
        assert_eq!(net.params()[0], 42.0);
    }

    #[test]
    fn layout_blocks_partition_the_vector() {
        let cfg = tiny_cfg();
        let layout = Layout::new(&cfg);
        assert_eq!(layout.n_params(), cfg.n_params());
        let flat = vec![0.0f32; cfg.n_params()];
        let parts = layout.split(&flat);
        assert_eq!(parts.iter().map(|p| p.len()).sum::<usize>(), cfg.n_params());
        assert_eq!(parts[0].len(), 9 * 3 * 4);
        assert_eq!(parts[1].len(), 4);
        assert_eq!(parts[4].len(), 5 * 4);
        assert_eq!(parts[5].len(), 4);
    }

    #[test]
    fn loss_is_log_nclasses_at_uniform_logits() {
        let cfg = tiny_cfg();
        let mut net = SegNet::new(cfg, 1);
        net.set_params(&vec![0.0; net.n_params()]);
        let (loss, _) = net.loss_grad(&tiny_sample(3));
        assert!((loss - (4.0f64).ln()).abs() < 1e-5, "loss {loss} vs ln 4");
    }

    /// The load-bearing test: analytic gradients match finite differences.
    #[test]
    fn gradient_check() {
        let cfg =
            NetConfig { height: 5, width: 5, cin: 3, hidden1: 3, hidden2: 3, n_classes: 4, k: 3 };
        let dc = DataConfig { height: 5, width: 5, ..DataConfig::default() };
        let sample = generate(&dc, 11, 0);
        // Seed chosen so no ReLU pre-activation sits within eps of its
        // kink: finite differences across a kink disagree with the
        // (one-sided) analytic gradient no matter how eps is tuned.
        let net = SegNet::new(cfg, 1);
        let (_, grad) = net.loss_grad(&sample);
        let params = net.params().to_vec();
        let eps = 3e-3f32;
        let mut checked = 0;
        // Check a spread of parameter indices across all layers.
        for idx in (0..net.n_params()).step_by(net.n_params() / 40 + 1) {
            let mut plus = net.clone();
            let mut p = params.clone();
            p[idx] += eps;
            plus.set_params(&p);
            let (lp, _) = plus.loss_grad(&sample);
            let mut minus = net.clone();
            p[idx] -= 2.0 * eps;
            minus.set_params(&p);
            let (lm, _) = minus.loss_grad(&sample);
            let numeric = ((lp - lm) / (2.0 * f64::from(eps))) as f32;
            let analytic = grad[idx];
            let denom = numeric.abs().max(analytic.abs()).max(1e-4);
            assert!(
                (numeric - analytic).abs() / denom < 0.08,
                "param {idx}: numeric {numeric} vs analytic {analytic}"
            );
            checked += 1;
        }
        assert!(checked >= 30);
    }

    #[test]
    fn optimized_matches_reference_loss_grad() {
        let cfg = tiny_cfg();
        let net = SegNet::new(cfg, 9);
        let s = tiny_sample(4);
        let (lo, go) = net.loss_grad(&s);
        let (lr, gr) = net.reference_loss_grad(&s);
        assert!((lo - lr).abs() < 1e-6, "loss {lo} vs reference {lr}");
        for (i, (a, b)) in go.iter().zip(&gr).enumerate() {
            assert!((a - b).abs() < 1e-4, "grad[{i}]: optimized {a} vs reference {b}");
        }
    }

    #[test]
    fn workspace_reuse_is_identical() {
        // The same workspace reused across samples must give bitwise
        // identical results to a fresh one (no state leaks between
        // calls).
        let cfg = tiny_cfg();
        let net = SegNet::new(cfg, 9);
        let (s1, s2) = (tiny_sample(4), tiny_sample(5));
        let mut ws = Workspace::new(&cfg);
        let mut g_reused = vec![0.0f32; net.n_params()];
        net.loss_grad_acc(&s1, &mut ws, &mut g_reused);
        g_reused.fill(0.0);
        let l_reused = net.loss_grad_acc(&s2, &mut ws, &mut g_reused);
        let (l_fresh, g_fresh) = net.loss_grad(&s2);
        assert_eq!(l_reused, l_fresh);
        assert_eq!(g_reused, g_fresh);
    }

    #[test]
    fn batch_gradient_is_mean_of_samples() {
        let cfg = tiny_cfg();
        let net = SegNet::new(cfg, 1);
        let s1 = tiny_sample(5);
        let s2 = tiny_sample(6);
        let (l1, g1) = net.loss_grad(&s1);
        let (l2, g2) = net.loss_grad(&s2);
        let (lb, gb) = net.batch_loss_grad(&[s1, s2]);
        assert!((lb - (l1 + l2) / 2.0).abs() < 1e-9);
        for i in 0..gb.len() {
            assert!((gb[i] - (g1[i] + g2[i]) / 2.0).abs() < 1e-5);
        }
    }

    #[test]
    fn batch_workspace_reuse_is_deterministic() {
        let cfg = tiny_cfg();
        let net = SegNet::new(cfg, 1);
        let batch: Vec<Sample> = (0..5).map(tiny_sample).collect();
        let mut bw = BatchWorkspace::new(&cfg);
        let l1 = net.batch_loss_grad_ws(&batch, &mut bw);
        let g1 = bw.grad.clone();
        let l2 = net.batch_loss_grad_ws(&batch, &mut bw);
        assert_eq!(l1, l2);
        assert_eq!(g1, bw.grad);
    }

    #[test]
    fn one_sgd_step_reduces_loss() {
        let cfg = tiny_cfg();
        let mut net = SegNet::new(cfg, 1);
        let s = tiny_sample(8);
        let (l0, g) = net.loss_grad(&s);
        for (pi, gi) in net.params_mut().iter_mut().zip(&g) {
            *pi -= 2.0 * gi;
        }
        let (l1, _) = net.loss_grad(&s);
        assert!(l1 < l0, "loss must drop: {l0} -> {l1}");
    }

    #[test]
    fn init_is_deterministic_per_seed() {
        let cfg = tiny_cfg();
        assert_eq!(SegNet::new(cfg, 3).params(), SegNet::new(cfg, 3).params());
        assert_ne!(SegNet::new(cfg, 3).params(), SegNet::new(cfg, 4).params());
    }

    #[test]
    fn workspace_buffers_start_on_a_cache_line() {
        let ws = Workspace::new(&NetConfig::default());
        for buf in [&ws.a1, &ws.a2, &ws.dlogits, &ws.da1, &ws.da2, &ws.cols1, &ws.cols2, &ws.dcols]
        {
            assert_eq!(buf.as_ptr() as usize % 64, 0);
        }
        assert_eq!(ws.a1.len(), 8 * 24 * 24);
        assert!(Buf::new(0).is_empty());
        let mut odd = Buf::new(17);
        odd[16] = 3.0;
        let copy = odd.clone();
        assert_eq!((copy.len(), copy[16], copy.as_ptr() as usize % 64), (17, 3.0, 0));
    }

    /// A map narrower than the kernel's half-width: every column shift
    /// of the outer taps is pure padding (`w - ox` used to underflow).
    #[test]
    fn im2col_on_a_map_narrower_than_the_kernel() {
        let (cin, h, w, k) = (1, 4, 1, 5);
        let input = [1.0, 2.0, 3.0, 4.0];
        let mut cols = vec![f32::NAN; im2col_len(cin, k, h * w)];
        im2col(&input, cin, h, w, k, &mut cols);
        let weights = vec![1.0; k * k];
        let (mut want, mut got) = (vec![0.0; 4], vec![0.0; 4]);
        reference_conv_forward(&input, cin, h, w, &weights, &[0.0], k, 1, &mut want);
        conv_forward(&input, cin, h, w, &weights, &[0.0], k, 1, false, &mut cols, &mut got);
        assert_eq!(got, want);
        let mut back = vec![0.0; 4];
        col2im_acc(&cols, cin, h, w, k, &mut back);
        // Only the centre column's five vertical taps see the image.
        assert_eq!(back, [3.0, 8.0, 12.0, 12.0]);
    }

    // ---- the SIMD instantiations against their scalar twins ----

    /// Uniform in [-1, 1), from a splitmix-style counter.
    fn noise(seed: &mut u64, n: usize) -> Vec<f32> {
        (0..n)
            .map(|_| {
                *seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (*seed >> 40) as f32 / (1u64 << 23) as f32 - 1.0
            })
            .collect()
    }

    /// The tolerance `tests/conv_proptests.rs` allows between summation
    /// orders (the twins multiply then add, the tiles fuse).
    fn close(a: f32, b: f32) -> bool {
        (a - b).abs() <= 1e-4 * (1.0 + a.abs().max(b.abs()))
    }

    const CANARY: f32 = -7.5e8;
    const GUARD: usize = 40;

    /// Run `kernel` on a copy of `init` with [`GUARD`] canaries on both
    /// sides, and return the output once the canaries are seen intact.
    /// Together with the element-wise comparison this covers every row
    /// edge: a store past row `i`'s masked tail lands on the head of
    /// row `i + 1`, which the edge tile never rewrites, so it shows up
    /// as a mismatch there — and past the last row, here.
    fn guarded(init: &[f32], what: &str, kernel: impl Fn(&mut [f32])) -> Vec<f32> {
        let mut buf = vec![CANARY; init.len() + 2 * GUARD];
        buf[GUARD..GUARD + init.len()].copy_from_slice(init);
        kernel(&mut buf[GUARD..GUARD + init.len()]);
        let intact = |g: &[f32]| g.iter().all(|&x| x == CANARY);
        assert!(intact(&buf[..GUARD]) && intact(&buf[GUARD + init.len()..]), "{what}: canary");
        buf[GUARD..GUARD + init.len()].to_vec()
    }

    fn assert_close(got: &[f32], want: &[f32], what: &str) {
        for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
            assert!(close(g, w), "{what} [{i}]: {g} vs scalar twin {w}");
        }
    }

    /// Which instantiations this CPU can execute; prints the ones it
    /// cannot so a narrower CI runner is visible in the log.
    #[cfg(target_arch = "x86_64")]
    fn runnable() -> (bool, bool) {
        let have = (simd::have_avx512f(), simd::have_avx2_fma());
        println!("net kernels: avx512 {}, avx2 {}", have.0, have.1);
        if !have.0 {
            println!("SKIP avx512 instantiations: CPU lacks AVX-512F");
        }
        if !have.1 {
            println!("SKIP avx2 instantiations: CPU lacks AVX2+FMA");
        }
        have
    }

    /// One kernel call writing its output in place.
    type Run<'a> = &'a dyn Fn(&mut [f32]);

    /// Run the AVX-512 and AVX2 instantiations this CPU has (`have`,
    /// from [`runnable`]) from `start`, each against the scalar twin's
    /// `want`; `bit_equal` additionally holds the two to identical bits.
    fn check_instantiations(
        what: &str,
        (start, want): (&[f32], &[f32]),
        bit_equal: bool,
        have: (bool, bool),
        [wide, narrow]: [Run; 2],
    ) {
        let wide = have.0.then(|| guarded(start, what, wide));
        let narrow = have.1.then(|| guarded(start, what, narrow));
        for got in wide.iter().chain(&narrow) {
            assert_close(got, want, what);
        }
        if let (true, Some(a), Some(b)) = (bit_equal, &wide, &narrow) {
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(a), bits(b), "{what}: one FMA chain per output, whatever the lanes");
        }
    }

    /// Every instantiation called directly — not through the
    /// dispatchers, which only ever take one branch per machine — over
    /// shapes that put every tile edge in play: pixel counts around one
    /// and two vectors of either width, row counts around both tile
    /// heights, odd reduction lengths on both sides of [`K_CHUNK`].
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn simd_instantiations_match_scalar_twins() {
        // SAFETY (every `unsafe` below): `check_instantiations` runs a
        // kernel only when its predicate, read here, reported the ISA.
        let have = runnable();
        let mut seed = 0x5eed;
        for npix in [1, 7, 15, 16, 17, 31, 33, 100, 576] {
            for rows in [1, 3, 4, 5, 11, 12, 13, 64] {
                for k in [1, 5, 27, 131] {
                    // Forward: `rows` output channels, reduction `k`.
                    let (w, cols) = (noise(&mut seed, rows * k), noise(&mut seed, k * npix));
                    let bias = noise(&mut seed, rows);
                    for relu in [false, true] {
                        let what = format!("bias npix {npix} cout {rows} rdim {k} relu {relu}");
                        let stale = vec![f32::NAN; rows * npix];
                        let mut want = stale.clone();
                        matmul_bias_scalar(&w, &cols, k, npix, rows, &bias, relu, &mut want);
                        let kernels: [Run; 2] = [
                            &|out| unsafe {
                                matmul_bias_avx512(&w, &cols, k, npix, rows, &bias, relu, out)
                            },
                            &|out| unsafe {
                                matmul_bias_avx2(&w, &cols, k, npix, rows, &bias, relu, out)
                            },
                        ];
                        check_instantiations(&what, (&stale, &want), true, have, kernels);
                    }

                    // Transposed: `rows` cols rows, reduction over `k` channels.
                    let (w, dout) = (noise(&mut seed, k * rows), noise(&mut seed, k * npix));
                    for acc in [false, true] {
                        let what = format!("t_acc npix {npix} rdim {rows} cout {k} acc {acc}");
                        // `=` must not read what it overwrites; `+=` must.
                        let start = if acc {
                            noise(&mut seed, rows * npix)
                        } else {
                            vec![f32::NAN; rows * npix]
                        };
                        let mut want = start.clone();
                        matmul_t_acc_scalar(&w, &dout, rows, npix, k, acc, &mut want);
                        let kernels: [Run; 2] = [
                            &|out| unsafe {
                                matmul_t_acc_avx512(&w, &dout, rows, npix, k, acc, out)
                            },
                            &|out| unsafe { matmul_t_acc_avx2(&w, &dout, rows, npix, k, acc, out) },
                        ];
                        check_instantiations(&what, (&start, &want), true, have, kernels);
                    }

                    // Weight gradient: `rows` channels × `k` cols rows, always
                    // `+=`; its summation order follows the lane count.
                    let (dout, cols) = (noise(&mut seed, rows * npix), noise(&mut seed, k * npix));
                    let what = format!("dw npix {npix} cout {rows} rdim {k}");
                    let start = noise(&mut seed, rows * k);
                    let mut want = start.clone();
                    matmul_dw_scalar(&dout, &cols, k, npix, rows, &mut want);
                    let kernels: [Run; 2] = [
                        &|dw| unsafe { matmul_dw_avx512(&dout, &cols, k, npix, rows, dw) },
                        &|dw| unsafe { matmul_dw_avx2(&dout, &cols, k, npix, rows, dw) },
                    ];
                    check_instantiations(&what, (&start, &want), false, have, kernels);
                }
            }
        }
    }

    // ---- ROADMAP 1(d): the kernels against what this machine can do ----

    /// Seconds per call, best of five timed loops of `reps` calls.
    fn best_secs(reps: usize, mut f: impl FnMut()) -> f64 {
        (0..5)
            .map(|_| {
                let t = std::time::Instant::now();
                (0..reps).for_each(|_| f());
                t.elapsed().as_secs_f64() / reps as f64
            })
            .fold(f64::INFINITY, f64::min)
    }

    /// Floats per array of the bandwidth triad: three of them are
    /// 768 KiB, L2-resident like the im2col matrices the copy kernels
    /// stream.
    const TRIAD_LEN: usize = 1 << 16;

    /// (GFLOP/s of twelve independent FMA chains — two ports × four
    /// cycles of latency need eight — , GB/s of `a = b + s·c`). The
    /// timed loops are written out rather than passed to [`best_secs`]:
    /// a closure would not inherit the caller's target features.
    ///
    /// # Safety
    /// As [`Isa`].
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    unsafe fn roofs<L: Isa>() -> (f64, f64) {
        let (x, y) = (L::splat(black_box(1.0 + 1e-7)), L::splat(black_box(1.0 - 1e-7)));
        let mut acc = [L::splat(0.0); 12];
        let iters = 1 << 16;
        let mut fma_secs = f64::INFINITY;
        for _ in 0..5 {
            let t = std::time::Instant::now();
            for _ in 0..iters {
                for v in &mut acc {
                    *v = L::fma(x, y, *v);
                }
            }
            fma_secs = fma_secs.min(t.elapsed().as_secs_f64());
        }
        let mut sink = [0.0f32; 16];
        for &v in &acc {
            L::store_m(sink.as_mut_ptr(), L::mask(L::LANES), v);
            black_box(&sink);
        }

        let (mut a, b, c) = (Buf::new(TRIAD_LEN), Buf::new(TRIAD_LEN), Buf::new(TRIAD_LEN));
        let s = L::splat(black_box(0.5));
        let passes = 64;
        let mut triad_secs = f64::INFINITY;
        for _ in 0..5 {
            let t = std::time::Instant::now();
            for _ in 0..passes {
                for i in (0..TRIAD_LEN).step_by(L::LANES) {
                    let v = L::fma(s, L::load(c.as_ptr().add(i)), L::load(b.as_ptr().add(i)));
                    L::store(a.as_mut_ptr().add(i), v);
                }
                black_box(a.as_ptr());
            }
            triad_secs = triad_secs.min(t.elapsed().as_secs_f64() / passes as f64);
        }
        (
            (iters * 12 * 2 * L::LANES) as f64 / fma_secs / 1e9,
            (3 * 4 * TRIAD_LEN) as f64 / triad_secs / 1e9,
        )
    }

    /// # Safety
    /// Caller must ensure AVX-512F is available.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx2,fma")]
    unsafe fn roofs_avx512() -> (f64, f64) {
        roofs::<Avx512>()
    }

    /// # Safety
    /// Caller must ensure AVX2 and FMA are available.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn roofs_avx2() -> (f64, f64) {
        roofs::<Avx2>()
    }

    /// What the scalar twins are written against: multiply then add on
    /// whatever the baseline target autovectorizes to.
    fn roofs_scalar() -> (f64, f64) {
        let (x, y) = (black_box(1.0f32 + 1e-7), black_box(1.0f32 - 1e-7));
        let mut acc = [0.0f32; 48];
        let iters = 1 << 16;
        let secs = best_secs(1, || {
            for _ in 0..iters {
                for v in &mut acc {
                    *v += x * y;
                }
            }
        });
        black_box(acc);
        let (mut a, b, c) = (Buf::new(TRIAD_LEN), Buf::new(TRIAD_LEN), Buf::new(TRIAD_LEN));
        let s = black_box(0.5f32);
        let triad = best_secs(64, || {
            for ((a, b), c) in a.iter_mut().zip(b.iter()).zip(c.iter()) {
                *a = b + s * c;
            }
            black_box(a.as_ptr());
        });
        ((iters * 48 * 2) as f64 / secs / 1e9, (3 * 4 * TRIAD_LEN) as f64 / triad / 1e9)
    }

    /// `cargo test -p trainer --release --lib kernel_roofline -- --ignored --nocapture`
    ///
    /// Prints, per instantiation this CPU can run, the FMA and L2-triad
    /// roofs and each kernel at the six layer shapes of the wide and
    /// quick nets as a share of them — one core, workspace-aligned
    /// buffers, best of five. The tables go into EXPERIMENTS.md.
    #[cfg(target_arch = "x86_64")]
    #[test]
    #[ignore = "timing report, not a check"]
    fn kernel_roofline_report() {
        type Bias = unsafe fn(&[f32], &[f32], usize, usize, usize, &[f32], bool, &mut [f32]);
        type Dw = unsafe fn(&[f32], &[f32], usize, usize, usize, &mut [f32]);
        type TAcc = unsafe fn(&[f32], &[f32], usize, usize, usize, bool, &mut [f32]);
        let (avx512, avx2) = runnable();
        /// Name, (FMA GFLOP/s, triad GB/s), the three matmuls.
        type Instantiation = (&'static str, (f64, f64), Bias, Dw, TAcc);
        let mut isas: Vec<Instantiation> = Vec::new();
        if avx512 {
            // SAFETY: gated on the predicate, here and for the kernels below.
            let roofs = unsafe { roofs_avx512() };
            isas.push(("avx512", roofs, matmul_bias_avx512, matmul_dw_avx512, matmul_t_acc_avx512));
        }
        if avx2 {
            let roofs = unsafe { roofs_avx2() };
            isas.push(("avx2", roofs, matmul_bias_avx2, matmul_dw_avx2, matmul_t_acc_avx2));
        }
        let twins = (matmul_bias_scalar, matmul_dw_scalar, matmul_t_acc_scalar);
        isas.push(("scalar", roofs_scalar(), twins.0, twins.1, twins.2));

        println!("| ISA | FMA peak GFLOP/s | L2 triad GB/s |\n|---|---|---|");
        for (isa, (gflops, gbs), ..) in &isas {
            println!("| {isa} | {gflops:.0} | {gbs:.0} |");
        }
        let triad = isas.iter().map(|i| i.1 .1).fold(0.0, f64::max);

        println!(
            "\n| layer (cout × rdim × npix) | kernel | ISA | µs | GFLOP/s or GB/s | % of roof |"
        );
        println!("|---|---|---|---|---|---|");
        let mut seed = 1;
        for (net, h1, h2) in [("wide", 32, 64), ("quick", 8, 16)] {
            let (cin, classes, k, side) = (3, 4, 3, 24);
            let npix = side * side;
            let layers =
                [("input", h1, cin, k), ("middle", h2, h1, k), ("head", classes, h2, 1usize)];
            for (layer, cout, lcin, lk) in layers {
                let rdim = lcin * lk * lk;
                let shape = format!("{net} {layer} ({cout} × {rdim} × {npix})");
                let fill = |seed: &mut u64, n: usize| {
                    let mut b = Buf::new(n);
                    b.copy_from_slice(&noise(seed, n));
                    b
                };
                let (w, bias) = (noise(&mut seed, cout * rdim), noise(&mut seed, cout));
                let (cols, dout) = (fill(&mut seed, rdim * npix), fill(&mut seed, cout * npix));
                let (mut out, mut dcols) = (Buf::new(cout * npix), Buf::new(rdim * npix));
                let mut dw = vec![0.0f32; cout * rdim];
                let flop = (2 * cout * rdim * npix) as f64;
                let reps = ((2e7 / flop) as usize).clamp(4, 2000);
                for &(isa, (peak, _), bias_k, dw_k, t_k) in &isas {
                    // SAFETY: `isas` holds only what `runnable` reported.
                    let timed: [(&str, f64); 3] = unsafe {
                        [
                            (
                                "matmul_bias",
                                best_secs(reps, || {
                                    bias_k(&w, &cols, rdim, npix, cout, &bias, true, &mut out)
                                }),
                            ),
                            (
                                "matmul_dw",
                                best_secs(reps, || dw_k(&dout, &cols, rdim, npix, cout, &mut dw)),
                            ),
                            (
                                "matmul_t_acc",
                                best_secs(reps, || {
                                    t_k(&w, &dout, rdim, npix, cout, false, &mut dcols)
                                }),
                            ),
                        ]
                    };
                    for (kernel, secs) in timed {
                        let gflops = flop / secs / 1e9;
                        println!(
                            "| {shape} | {kernel} | {isa} | {:.1} | {gflops:.1} | {:.0} % |",
                            secs * 1e6,
                            100.0 * gflops / peak
                        );
                    }
                }
                if lk > 1 {
                    let input = noise(&mut seed, lcin * npix);
                    let mut cols = Buf::new(rdim * npix);
                    let mut din = Buf::new(lcin * npix);
                    let copies = [
                        (
                            "im2col",
                            (lcin + rdim) * npix * 4,
                            best_secs(reps, || im2col(&input, lcin, side, side, lk, &mut cols)),
                        ),
                        (
                            "col2im_acc",
                            (rdim + 2 * lcin) * npix * 4,
                            best_secs(reps, || col2im_acc(&dcols, lcin, side, side, lk, &mut din)),
                        ),
                    ];
                    for (kernel, bytes, secs) in copies {
                        let gbs = bytes as f64 / secs / 1e9;
                        println!(
                            "| {shape} | {kernel} | any | {:.1} | {gbs:.1} GB/s | {:.0} % |",
                            secs * 1e6,
                            100.0 * gbs / triad
                        );
                    }
                }
            }
        }
    }
}
