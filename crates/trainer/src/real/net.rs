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
//! Convolutions are **implicit GEMMs**: a k×k convolution is a reduction
//! over (channel, tap) pairs whose operand rows are the maps themselves,
//! read at each tap's flat offset. A [`Taps`] plan per layer shape holds
//! those offsets and, per tap, a bitmap of the pixels whose read lands
//! inside the map, so a read that would leave it is a masked lane and no
//! unrolled patch matrix is ever built. Two register-tile bodies written
//! against `simd::lanes::Isa` and instantiated per ISA do the work: a
//! *rows* tile (12 rows × 32 pixels on AVX-512F, 4 × 16 on AVX2+FMA)
//! that serves the forward (rows = output channels) and the input
//! gradient (rows = input channels, taps flipped, the ReLU backward
//! fused into its store), and a *dot* tile (4 × 4 and 2 × 4 vector
//! accumulators) for the weight gradient, which contracts over the
//! contiguous pixel axis and reads its four tap-shifted rows from an
//! aligned panel gathered once per block. A 1×1 layer is the one-tap
//! case of the same kernels. Dispatch is by cached `cpuid`, AVX-512F →
//! AVX2+FMA → the scalar twins (direct loops over each tap's valid rows
//! and columns, written so the compiler autovectorizes them). The
//! original naive loops are retained as [`reference_conv_forward`] /
//! [`reference_conv_backward`] and property-tested equivalent (see
//! `conv_proptests`).
//!
//! All per-sample scratch (activations, gradients, the weight
//! gradient's panel) lives in a reusable, cache-line-aligned
//! [`Workspace`];
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
    /// The tap plans of the two k×k layers and of the 1×1 head.
    taps: [Taps; 2],
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
// Implicit-GEMM kernels: a k×k convolution is a reduction over
// (channel, tap) pairs whose operand rows are the maps themselves, read
// at each tap's flat offset with the reads that leave the map masked.

/// Where each tap of a same-padded `k×k` convolution over an `h×w` map
/// reads, in the two orders the kernels walk the taps: forward (tap `t`
/// of pixel `q` reads `q + off[t]`) and flipped (the input gradient's,
/// reading `q − off[t]`). Per walk and tap: the flat offset, and a
/// bitmap of the pixels whose read lands inside the map — the two lane
/// tests, flat index in `[0, npix)` and column valid for the tap's `kx`,
/// folded into one bit per pixel. Built once per layer shape.
#[derive(Debug, Clone)]
pub struct Taps {
    h: usize,
    w: usize,
    k: usize,
    /// Bytes per bitmap: whole 32-pixel tiles, so a tile's masks are in
    /// bounds wherever it sits.
    stride: usize,
    /// `[forward | flipped]`, `k²` taps each.
    off: Vec<isize>,
    bits: Vec<u8>,
}

impl Taps {
    pub fn new(h: usize, w: usize, k: usize) -> Self {
        assert!(k % 2 == 1, "kernel must be odd for same padding");
        let (k2, stride) = (k * k, (h * w).div_ceil(32) * 4);
        let mut taps = Taps { h, w, k, stride, off: Vec::new(), bits: vec![0; 2 * k2 * stride] };
        for n in 0..2 * k2 {
            let (off, ys, xs) = taps.span(n % k2, n >= k2);
            taps.off.push(off);
            let map = &mut taps.bits[n * stride..(n + 1) * stride];
            for q in ys.flat_map(|y| y * w + xs.start..y * w + xs.end) {
                map[q / 8] |= 1 << (q % 8);
            }
        }
        taps
    }

    fn npix(&self) -> usize {
        self.h * self.w
    }

    fn k2(&self) -> usize {
        self.k * self.k
    }

    /// Tap `t` of the walk `flip` selects: its flat offset, and the rows
    /// and columns of the pixels whose read lands inside the map (both
    /// empty when either is).
    fn span(&self, t: usize, flip: bool) -> (isize, Range<usize>, Range<usize>) {
        let (r, s) = ((self.k / 2) as isize, if flip { -1 } else { 1 });
        let (dy, dx) = (s * ((t / self.k) as isize - r), s * ((t % self.k) as isize - r));
        let valid = |d: isize, n: usize| {
            let n = n as isize;
            (-d).clamp(0, n) as usize..(n - d).clamp(0, n) as usize
        };
        let (ys, xs) = (valid(dy, self.h), valid(dx, self.w));
        let (ys, xs) = if ys.is_empty() || xs.is_empty() { (0..0, 0..0) } else { (ys, xs) };
        (dy * self.w as isize + dx, ys, xs)
    }

    /// The offsets and bitmaps of one walk.
    fn walk(&self, flip: bool) -> (&[isize], &[u8]) {
        let (k2, n) = (self.k2(), usize::from(flip));
        (
            &self.off[n * k2..(n + 1) * k2],
            &self.bits[n * k2 * self.stride..(n + 1) * k2 * self.stride],
        )
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

// ---- rows form: out[i, q] = init + Σ_{j, t} a[i, j, t]·b[j, q ± off[t]] ----
// The forward conv (rows = output channels, j = input channels) and the
// input gradient (rows = input channels, j = output channels, taps
// flipped) are the same walk with different strides through the same
// weight tensor.

/// What a rows-form accumulator starts from.
#[derive(Clone, Copy)]
enum Init<'a> {
    /// `out[row, ·] = bias[row] + Σ`.
    Bias(&'a [f32]),
    /// `out = Σ`: whatever `out` held is overwritten, not read.
    Zero,
    /// `out += Σ`: a later reduction chunk.
    Acc,
}

/// What a rows-form output passes through on its way to memory.
#[derive(Clone, Copy)]
enum Post<'a> {
    Store,
    /// `max(0, ·)`: the forward ReLU.
    Relu,
    /// `0` wherever `x[row, q] ≤ 0`: the backward of the ReLU whose
    /// output `x` is.
    ReluBack(&'a [f32]),
}

/// One rows-form product: `out[i, q] = init + Σ a[i·ars + j·ajs + t]·
/// b[j·npix + q ± off[t]]` for `i < nrows` over the channels `j < nj`
/// and the taps `t` whose read at `q` lands in the map, then `post`.
#[derive(Clone, Copy)]
struct Rows<'a> {
    a: &'a [f32],
    ars: usize,
    ajs: usize,
    b: &'a [f32],
    taps: &'a Taps,
    flip: bool,
    nrows: usize,
    nj: usize,
    init: Init<'a>,
    post: Post<'a>,
}

impl<'a> Rows<'a> {
    /// The forward product: `cin` input maps into `cout` outputs.
    fn forward(
        taps: &'a Taps,
        input: &'a [f32],
        cin: usize,
        weights: &'a [f32],
        cout: usize,
        bias: &'a [f32],
        relu: bool,
    ) -> Self {
        let (k2, post) = (taps.k2(), if relu { Post::Relu } else { Post::Store });
        let (a, b, init) = (weights, input, Init::Bias(bias));
        Rows { a, ars: cin * k2, ajs: k2, b, taps, flip: false, nrows: cout, nj: cin, init, post }
    }

    /// The input gradient: `cout` output gradients back onto `cin` maps
    /// through the flipped taps, read down `w[o, c, ·]`, written rather
    /// than accumulated; `relu_out` gates it by the ReLU it passes back
    /// through.
    fn input_grad(
        taps: &'a Taps,
        dout: &'a [f32],
        cout: usize,
        weights: &'a [f32],
        cin: usize,
        relu_out: Option<&'a [f32]>,
    ) -> Self {
        let (k2, post) = (taps.k2(), relu_out.map_or(Post::Store, Post::ReluBack));
        let (a, b, init) = (weights, dout, Init::Zero);
        Rows { a, ars: k2, ajs: cin * k2, b, taps, flip: true, nrows: cin, nj: cout, init, post }
    }

    /// The lengths every instantiation relies on.
    fn check(&self, out: &[f32]) {
        let npix = self.taps.npix();
        assert_eq!(self.a.len(), self.nrows * self.nj * self.taps.k2());
        assert_eq!(self.b.len(), self.nj * npix);
        assert_eq!(out.len(), self.nrows * npix);
        if let Init::Bias(bias) = self.init {
            assert_eq!(bias.len(), self.nrows);
        }
        if let Post::ReluBack(x) = self.post {
            assert_eq!(x.len(), out.len());
        }
    }
}

/// Scalar twin of [`conv_rows_avx512`] / [`conv_rows_avx2`]: direct
/// loops over each tap's valid rows and columns, no masks. Four output
/// rows advance per pass over a source row segment, so each element
/// loaded feeds four multiply-adds.
// lint: hot-path
// lint: no-f64
fn conv_rows_scalar(g: &Rows, out: &mut [f32]) {
    g.check(out);
    let (w, npix) = (g.taps.w, g.taps.npix());
    for (i, row) in out.chunks_exact_mut(npix).enumerate() {
        match g.init {
            Init::Bias(bias) => row.fill(bias[i]),
            Init::Zero => row.fill(0.0),
            Init::Acc => {}
        }
    }
    for t in 0..g.taps.k2() {
        let (off, ys, xs) = g.taps.span(t, g.flip);
        let n = xs.len();
        for at in ys.map(|y| y * w + xs.start) {
            for j in 0..g.nj {
                let src = &g.b[(j * npix + at).wrapping_add_signed(off)..][..n];
                let wt = |i: usize| g.a[i * g.ars + j * g.ajs + t];
                let mut i = 0;
                while i + 4 <= g.nrows {
                    let [r0, r1, r2, r3] = four_rows(out, npix, i);
                    let (t0, t1, t2, t3) = (
                        &mut r0[at..at + n],
                        &mut r1[at..at + n],
                        &mut r2[at..at + n],
                        &mut r3[at..at + n],
                    );
                    let (w0, w1, w2, w3) = (wt(i), wt(i + 1), wt(i + 2), wt(i + 3));
                    for x in 0..n {
                        let s = src[x];
                        t0[x] += w0 * s;
                        t1[x] += w1 * s;
                        t2[x] += w2 * s;
                        t3[x] += w3 * s;
                    }
                    i += 4;
                }
                for i in i..g.nrows {
                    let wv = wt(i);
                    for (d, &s) in out[i * npix + at..][..n].iter_mut().zip(src) {
                        *d += wv * s;
                    }
                }
            }
        }
    }
    match g.post {
        Post::Store => {}
        Post::Relu => out.iter_mut().for_each(|v| *v = v.max(0.0)),
        // A select, not a branch: the signs of `x` are data.
        Post::ReluBack(x) => {
            out.iter_mut().zip(x).for_each(|(v, &x)| *v = if x <= 0.0 { 0.0 } else { *v })
        }
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

/// The rows-form register tile: `MR` rows × two vectors of pixels from
/// `p`, every output one FMA chain over `(j, t)` in index order — so
/// the result does not depend on the lane count or on where the tile
/// sits. Source rows are read at the tap's offset through its bitmap:
/// a read that would leave the map is a masked lane, never
/// dereferenced, its pointer formed by wrapping arithmetic. `FULL`
/// tiles store (and load `init` / `post` operands) plainly; the one
/// edge tile of the map goes through the lane masks `m`.
///
/// # Safety
/// As [`Isa`]; `g` passed [`Rows::check`] against `out`, `r + MR ≤
/// g.nrows`, `p < npix` is a multiple of `2·LANES`, and `m` selects the
/// pixels from `p` inside the map (all `2·LANES` when `FULL`).
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
    let npix = g.taps.npix();
    let (offs, bits) = g.taps.walk(g.flip);
    let a = g.a.as_ptr().add(r * g.ars);
    let o = out.add(r * npix + p);
    let zero = L::splat(0.0);
    let mut acc = [[zero; 2]; MR];
    // Each `match` outside its row loop, so every row loop is small
    // enough to unroll and `acc` stays in registers.
    match g.init {
        Init::Bias(bias) => {
            for (i, row) in acc.iter_mut().enumerate() {
                *row = [L::splat(*bias.get_unchecked(r + i)); 2];
            }
        }
        Init::Zero => {}
        Init::Acc => {
            for (i, row) in acc.iter_mut().enumerate() {
                *row = vec_ld2::<L, FULL>(o.add(i * npix), m);
            }
        }
    }
    let mut aj = a;
    let mut bj = g.b.as_ptr().add(p);
    for _ in 0..g.nj {
        let mut map = bits.as_ptr();
        for (t, &off) in offs.iter().enumerate() {
            let q = bj.wrapping_offset(off);
            let bk = [
                L::load_m(q, L::mask_at(map, p)),
                L::load_m(q.wrapping_add(L::LANES), L::mask_at(map, p + L::LANES)),
            ];
            let at = aj.add(t);
            for (i, row) in acc.iter_mut().enumerate() {
                let av = L::splat(*at.add(i * g.ars));
                *row = [L::fma(av, bk[0], row[0]), L::fma(av, bk[1], row[1])];
            }
            map = map.add(g.taps.stride);
        }
        aj = aj.wrapping_add(g.ajs);
        bj = bj.wrapping_add(npix);
    }
    match g.post {
        Post::Store => {}
        Post::Relu => {
            for row in &mut acc {
                *row = [L::max(row[0], zero), L::max(row[1], zero)];
            }
        }
        Post::ReluBack(x) => {
            for (i, row) in acc.iter_mut().enumerate() {
                let x = vec_ld2::<L, FULL>(x.as_ptr().add((r + i) * npix + p), m);
                *row = [L::relu_back(x[0], row[0]), L::relu_back(x[1], row[1])];
            }
        }
    }
    for (i, row) in acc.iter().enumerate() {
        let q = o.add(i * npix);
        if FULL {
            L::store(q, row[0]);
            L::store(q.add(L::LANES), row[1]);
        } else {
            L::store_m(q, m[0], row[0]);
            L::store_m(q.wrapping_add(L::LANES), m[1], row[1]);
        }
    }
}

/// Reduction-chunk length of the rows form, in (channel, tap) pairs,
/// rounded down to whole channels: at most this many source rows are
/// live per pass, so a pixel tile's slab of them stays in L1.
#[cfg(target_arch = "x86_64")]
const K_CHUNK: usize = 128;

/// The rows-form loop nest. Inside a reduction chunk the pixel tile is
/// the outer loop: its slab of `b` is fetched once and then read from
/// L1 by every row block, while `a` (the weights) is the small operand
/// that streams. Later chunks accumulate onto the first through `out`,
/// which keeps every output one FMA chain over `(j, t)`. A last block of
/// fewer than `MR` rows runs the same tile body at its own height.
///
/// # Safety
/// As [`Isa`].
// lint: hot-path
// lint: no-f64
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn rows_gemm<L: Isa, const MR: usize>(g: &Rows, out: &mut [f32]) {
    assert!(MR <= 12, "the tile match below covers heights 1..=12");
    g.check(out);
    let npix = g.taps.npix();
    let jc = (K_CHUNK / g.taps.k2()).max(1);
    let out = out.as_mut_ptr();
    let mut j0 = 0;
    loop {
        let nj = jc.min(g.nj - j0);
        let last = j0 + nj == g.nj;
        let chunk = Rows {
            a: &g.a[j0 * g.ajs..],
            b: &g.b[j0 * npix..],
            nj,
            init: if j0 == 0 { g.init } else { Init::Acc },
            post: if last { g.post } else { Post::Store },
            ..*g
        };
        let mut p = 0;
        while p < npix {
            let left = npix - p;
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
        j0 += nj;
        if last {
            return;
        }
    }
}

// ---- dot form: dw[o, j, t] += Σ_q dout[o, q]·input[j, q + off[t]] ----
// The weight gradient contracts over the contiguous pixel axis, so its
// tile keeps vectors of per-lane partial sums and pays one horizontal
// reduction per output instead of a broadcast per FMA. Its four map
// rows are read by every dout row, so they are gathered once into an
// aligned panel rather than through a mask per load.

/// Scalar twin of [`conv_dw_avx512`] / [`conv_dw_avx2`]: per input map
/// and tap, one eight-lane [`dot`] per valid row segment and output
/// channel, the map L1-hot across all `cout` of them. Needs no panel.
// lint: hot-path
// lint: no-f64
fn conv_dw_scalar(
    taps: &Taps,
    input: &[f32],
    cin: usize,
    dout: &[f32],
    cout: usize,
    dw: &mut [f32],
) {
    let (w, npix, k2) = (taps.w, taps.npix(), taps.k2());
    assert_eq!((input.len(), dout.len(), dw.len()), (cin * npix, cout * npix, cout * cin * k2));
    for (j, map) in input.chunks_exact(npix).enumerate() {
        for t in 0..k2 {
            let (off, ys, xs) = taps.span(t, false);
            for (o, d) in dout.chunks_exact(npix).enumerate() {
                let mut s = 0.0f32;
                for y in ys.start..ys.end {
                    let at = y * w + xs.start;
                    s += dot(&d[at..][..xs.len()], &map[at.wrapping_add_signed(off)..][..xs.len()]);
                }
                dw[(o * cin + j) * k2 + t] += s;
            }
        }
    }
}

/// One pixel vector of the dot tile: `acc[i][j] += d[i][p..]·c[j][p..]`
/// lane by lane, plain loads in a `FULL` step, through the tail mask `m`
/// in the last.
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

/// The dot-form register tile: `DM` dout rows × 4 panel rows of vector
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
    (d, c): ([*const f32; DM], [*const f32; 4]),
    npix: usize,
    (mo, nr): (usize, usize),
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

/// The dot-form loop nest. Per block of four reduction rows `(j, t)`:
/// gather map `j` read at tap `t`'s offset into a line-aligned panel row
/// — the reads that leave the map are masked lanes, never dereferenced,
/// and land as `+0.0` — then stream the dout rows past the four panel
/// rows `DM` at a time while those stay in L1.
///
/// # Safety
/// As [`Isa`].
// lint: hot-path
// lint: no-f64
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn dot_gemm<L: Isa, const DM: usize>(
    taps: &Taps,
    input: &[f32],
    cin: usize,
    dout: &[f32],
    cout: usize,
    dw: &mut [f32],
    panel: &mut [f32],
) {
    let (npix, k2) = (taps.npix(), taps.k2());
    let (rdim, row) = (cin * k2, npix.next_multiple_of(16));
    assert_eq!((input.len(), dout.len(), dw.len()), (cin * npix, cout * npix, cout * rdim));
    assert!(panel.len() >= 4 * row, "the panel holds four rows of whole vectors");
    let (offs, bits) = taps.walk(false);
    let (mut j, mut t) = (0, 0);
    for r in (0..rdim).step_by(4) {
        let nr = 4.min(rdim - r);
        for n in 0..nr {
            let src = input.as_ptr().add(j * npix).wrapping_offset(offs[t]);
            let (map, dst) = (bits.as_ptr().add(t * taps.stride), panel.as_mut_ptr().add(n * row));
            for p in (0..npix).step_by(L::LANES) {
                L::store(dst.add(p), L::load_m(src.wrapping_add(p), L::mask_at(map, p)));
            }
            (j, t) = if t + 1 == k2 { (j + 1, 0) } else { (j, t + 1) };
        }
        let c: [*const f32; 4] = std::array::from_fn(|n| panel.as_ptr().add(n.min(nr - 1) * row));
        for o in (0..cout).step_by(DM) {
            let d: [*const f32; DM] =
                std::array::from_fn(|i| dout.as_ptr().add((o + i).min(cout - 1) * npix));
            let at = dw.as_mut_ptr().add(o * rdim + r);
            dot_tile::<L, DM>((d, c), npix, (DM.min(cout - o), nr), at, rdim);
        }
    }
}

// ---- the instantiations: one `#[target_feature]` entry per form and
// ISA.

/// AVX-512F instantiation of the rows form: 16 lanes, 12-row tile (24
/// accumulators of the 32 registers).
///
/// # Safety
/// Caller must ensure AVX-512F is available ([`simd::have_avx512f`]).
// lint: hot-path
// lint: no-f64
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2,fma")]
unsafe fn conv_rows_avx512(g: &Rows, out: &mut [f32]) {
    rows_gemm::<Avx512, 12>(g, out)
}

/// AVX2+FMA instantiation of the rows form: 8 lanes, 4-row tile (8
/// accumulators of the 16 registers).
///
/// # Safety
/// Caller must ensure AVX2 and FMA are available
/// ([`simd::have_avx2_fma`]).
// lint: hot-path
// lint: no-f64
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn conv_rows_avx2(g: &Rows, out: &mut [f32]) {
    rows_gemm::<Avx2, 4>(g, out)
}

/// AVX-512F instantiation of the dot form: 4 × 4 tile (16 accumulators,
/// 4 panel vectors and 1 dout vector of the 32 registers).
///
/// # Safety
/// Caller must ensure AVX-512F is available ([`simd::have_avx512f`]).
// lint: hot-path
// lint: no-f64
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2,fma")]
unsafe fn conv_dw_avx512(
    taps: &Taps,
    input: &[f32],
    cin: usize,
    dout: &[f32],
    cout: usize,
    dw: &mut [f32],
    panel: &mut [f32],
) {
    dot_gemm::<Avx512, 4>(taps, input, cin, dout, cout, dw, panel)
}

/// AVX2+FMA instantiation of the dot form: 2 × 4 tile (8 accumulators, 4
/// panel vectors and 1 dout vector of the 16 registers).
///
/// # Safety
/// Caller must ensure AVX2 and FMA are available
/// ([`simd::have_avx2_fma`]).
// lint: hot-path
// lint: no-f64
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn conv_dw_avx2(
    taps: &Taps,
    input: &[f32],
    cin: usize,
    dout: &[f32],
    cout: usize,
    dw: &mut [f32],
    panel: &mut [f32],
) {
    dot_gemm::<Avx2, 2>(taps, input, cin, dout, cout, dw, panel)
}

// ---- dispatch: the widest instantiation the CPU has, by cached cpuid.

/// [`conv_rows_avx512`] → [`conv_rows_avx2`] → [`conv_rows_scalar`].
// lint: hot-path
// lint: no-f64
fn conv_rows(g: &Rows, out: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if simd::have_avx512f() {
        // SAFETY: the dispatch predicate just confirmed AVX-512F (and with it AVX2+FMA).
        unsafe { conv_rows_avx512(g, out) };
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if simd::have_avx2_fma() {
        // SAFETY: the dispatch predicate just confirmed AVX2+FMA.
        unsafe { conv_rows_avx2(g, out) };
        return;
    }
    conv_rows_scalar(g, out);
}

/// [`conv_dw_avx512`] → [`conv_dw_avx2`] → [`conv_dw_scalar`].
// lint: hot-path
// lint: no-f64
fn conv_dw(
    taps: &Taps,
    input: &[f32],
    cin: usize,
    dout: &[f32],
    cout: usize,
    dw: &mut [f32],
    panel: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    if simd::have_avx512f() {
        // SAFETY: the dispatch predicate just confirmed AVX-512F (and with it AVX2+FMA).
        unsafe { conv_dw_avx512(taps, input, cin, dout, cout, dw, panel) };
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if simd::have_avx2_fma() {
        // SAFETY: the dispatch predicate just confirmed AVX2+FMA.
        unsafe { conv_dw_avx2(taps, input, cin, dout, cout, dw, panel) };
        return;
    }
    conv_dw_scalar(taps, input, cin, dout, cout, dw);
}

/// Length of the scratch [`conv_backward`] gathers the weight
/// gradient's tap-shifted rows into, for an `npix`-pixel map: four rows
/// of whole 16-lane vectors.
pub fn dw_panel_len(npix: usize) -> usize {
    4 * npix.next_multiple_of(16)
}

/// Optimized convolution forward over the map and kernel `taps`
/// describes: the rows form, with `relu` fusing `max(0, ·)` into the
/// store. Numerically equivalent to [`reference_conv_forward`] (plus a
/// ReLU pass when requested) up to float summation order.
// lint: hot-path
// lint: no-f64
#[allow(clippy::too_many_arguments)]
pub fn conv_forward(
    input: &[f32],
    cin: usize,
    taps: &Taps,
    weights: &[f32],
    bias: &[f32],
    cout: usize,
    relu: bool,
    out: &mut [f32],
) {
    conv_rows(&Rows::forward(taps, input, cin, weights, cout, bias, relu), out);
}

/// Optimized convolution backward. Accumulates into `dw` / `db` like the
/// reference; *writes* the input gradient into `dinput`, which need not
/// be cleared. With `relu_input` the input is a ReLU's output, and
/// `dinput` leaves already passed back through that ReLU: zero wherever
/// the input is `≤ 0`, in the same store. `panel` is scratch of at least
/// [`dw_panel_len`] floats.
// lint: hot-path
// lint: no-f64
#[allow(clippy::too_many_arguments)]
pub fn conv_backward(
    input: &[f32],
    cin: usize,
    taps: &Taps,
    weights: &[f32],
    cout: usize,
    dout: &[f32],
    dw: &mut [f32],
    db: &mut [f32],
    dinput: Option<&mut [f32]>,
    relu_input: bool,
    panel: &mut [f32],
) {
    let npix = taps.npix();
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
    conv_dw(taps, input, cin, dout, cout, dw, panel);
    if let Some(din) = dinput {
        let gate = relu_input.then_some(input);
        conv_rows(&Rows::input_grad(taps, dout, cout, weights, cin, gate), din);
    }
}

// --------------------------------------------------------------- workspace

/// A zero-initialised `f32` buffer whose first element sits on a
/// cache-line boundary. With `npix` a multiple of 16 every map in it is
/// line-aligned too, and so is every panel row, so a vector load of the
/// dot-form tile — eight per sixteen FMAs, half from dout, half from the
/// panel — never straddles two lines, which on a plain `Vec<f32>`
/// (16-byte-aligned by the allocator) every 64-byte load does.
/// Over-allocates by one line and skips to the boundary, so the storage
/// still comes from `alloc_zeroed` and pages no phase touches are never
/// made resident.
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
/// activations, backward gradients and the weight gradient's four-row
/// panel — the kernels read the maps in place, so nothing larger is
/// staged. Constructing one allocates everything the hot path needs;
/// using it allocates nothing.
#[derive(Debug, Clone)]
pub struct Workspace {
    a1: Buf,
    a2: Buf,
    /// Logits on the way forward, `dlogits` after the softmax backward.
    dlogits: Buf,
    da1: Buf,
    da2: Buf,
    /// The weight gradient's gathered rows ([`dw_panel_len`]).
    panel: Buf,
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
            panel: Buf::new(dw_panel_len(npix)),
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
        let taps = [Taps::new(cfg.height, cfg.width, cfg.k), Taps::new(cfg.height, cfg.width, 1)];
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
        SegNet { cfg, layout, params, taps }
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
        let (c, [kxk, head]) = (&self.cfg, &self.taps);
        let [w1, b1, w2, b2, w3, b3] = self.layout.split(&self.params);
        // ReLU is fused into the kernel's output store (`relu: true`).
        conv_forward(pixels, c.cin, kxk, w1, b1, c.hidden1, true, &mut ws.a1);
        conv_forward(&ws.a1, c.hidden1, kxk, w2, b2, c.hidden2, true, &mut ws.a2);
        conv_forward(&ws.a2, c.hidden2, head, w3, b3, c.n_classes, false, &mut ws.dlogits);
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
    /// `w3`/`b3` gradient blocks and writes the ReLU-masked activation
    /// gradient into `ws.da2`. Requires phase 1's workspace state.
    // lint: hot-path
    pub fn phase_backward_head(&self, ws: &mut Workspace, gw3: &mut [f32], gb3: &mut [f32]) {
        let (c, head) = (&self.cfg, &self.taps[1]);
        let [_, _, _, _, w3, _] = self.layout.split(&self.params);
        let (a2, dlogits, da2) = (&ws.a2, &ws.dlogits, Some(&mut *ws.da2));
        conv_backward(
            a2,
            c.hidden2,
            head,
            w3,
            c.n_classes,
            dlogits,
            gw3,
            gb3,
            da2,
            true,
            &mut ws.panel,
        );
    }

    /// Pipeline phase 3: middle k×k layer backward. Accumulates into
    /// `w2`/`b2` and writes the ReLU-masked `ws.da1`. Requires phase 2.
    // lint: hot-path
    pub fn phase_backward_mid(&self, ws: &mut Workspace, gw2: &mut [f32], gb2: &mut [f32]) {
        let (c, kxk) = (&self.cfg, &self.taps[0]);
        let [_, _, w2, _, _, _] = self.layout.split(&self.params);
        let (a1, da2, da1) = (&ws.a1, &ws.da2, Some(&mut *ws.da1));
        conv_backward(a1, c.hidden1, kxk, w2, c.hidden2, da2, gw2, gb2, da1, true, &mut ws.panel);
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
        let (c, kxk) = (&self.cfg, &self.taps[0]);
        let [w1, _, _, _, _, _] = self.layout.split(&self.params);
        let (pixels, da1) = (&sample.pixels, &ws.da1);
        conv_backward(pixels, c.cin, kxk, w1, c.hidden1, da1, gw1, gb1, None, false, &mut ws.panel);
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
        for buf in [&ws.a1, &ws.a2, &ws.dlogits, &ws.da1, &ws.da2, &ws.panel] {
            assert_eq!(buf.as_ptr() as usize % 64, 0);
        }
        assert_eq!(ws.a1.len(), 8 * 24 * 24);
        assert!(Buf::new(0).is_empty());
        let mut odd = Buf::new(17);
        odd[16] = 3.0;
        let copy = odd.clone();
        assert_eq!((copy.len(), copy[16], copy.as_ptr() as usize % 64), (17, 3.0, 0));
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

    /// An input the kernels read, between [`GUARD`] NaN canaries: a read
    /// that leaves the map through a lane that should have been masked
    /// turns its output into NaN (or, inside the map, into a mismatch).
    struct Fenced(Vec<f32>);

    impl Fenced {
        fn new(data: Vec<f32>) -> Self {
            let mut buf = vec![f32::NAN; data.len() + 2 * GUARD];
            buf[GUARD..GUARD + data.len()].copy_from_slice(&data);
            Fenced(buf)
        }

        fn get(&self) -> &[f32] {
            &self.0[GUARD..self.0.len() - GUARD]
        }
    }

    fn assert_close(got: &[f32], want: &[f32], what: &str) {
        for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
            assert!(g.is_finite() && close(g, w), "{what} [{i}]: {g} vs {w}");
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

    /// The three conv kernels of one layer — `rows` output channels of
    /// the forward, `nj` maps into it, `k×k` over `h×w` — every
    /// instantiation against the scalar twins, which `oracle` also holds
    /// against the naive `reference_*` kernels. Every input is
    /// [`Fenced`]; what a kernel overwrites starts as NaN.
    #[cfg(target_arch = "x86_64")]
    fn check_layer(
        have: (bool, bool),
        seed: &mut u64,
        (h, w, k): (usize, usize, usize),
        (rows, nj): (usize, usize),
        oracle: bool,
    ) {
        // SAFETY (every `unsafe` below): `check_instantiations` runs a
        // kernel only when its predicate, read by `runnable`, reported
        // the ISA.
        let (taps, npix, k2) = (Taps::new(h, w, k), h * w, k * k);
        let shape = format!("{h}×{w} k {k} rows {rows} maps {nj}");
        let (input, weights, bias) =
            (Fenced::new(noise(seed, nj * npix)), noise(seed, rows * nj * k2), noise(seed, rows));
        let (dout, relu_out) = (Fenced::new(noise(seed, rows * npix)), noise(seed, nj * npix));
        let stale = |n: usize| vec![f32::NAN; n];
        let (mut dw_ref, mut db_ref, mut din_ref) =
            (vec![0.0; rows * nj * k2], vec![0.0; rows], vec![0.0; nj * npix]);
        if oracle {
            reference_conv_backward(
                input.get(),
                nj,
                h,
                w,
                &weights,
                k,
                rows,
                dout.get(),
                &mut dw_ref,
                &mut db_ref,
                Some(&mut din_ref),
            );
        }

        for relu in [false, true] {
            let g = Rows::forward(&taps, input.get(), nj, &weights, rows, &bias, relu);
            let what = format!("forward {shape} relu {relu}");
            let mut want = stale(rows * npix);
            conv_rows_scalar(&g, &mut want);
            if oracle {
                let mut naive = vec![0.0; rows * npix];
                reference_conv_forward(input.get(), nj, h, w, &weights, &bias, k, rows, &mut naive);
                if relu {
                    naive.iter_mut().for_each(|v| *v = v.max(0.0));
                }
                assert_close(&want, &naive, &format!("{what}: scalar twin vs reference"));
            }
            let kernels: [Run; 2] = [&|out| unsafe { conv_rows_avx512(&g, out) }, &|out| unsafe {
                conv_rows_avx2(&g, out)
            }];
            check_instantiations(&what, (&stale(rows * npix), &want), true, have, kernels);
        }

        for gate in [None, Some(&relu_out[..])] {
            let g = Rows::input_grad(&taps, dout.get(), rows, &weights, nj, gate);
            let what = format!("dX {shape} relu {}", gate.is_some());
            let mut want = stale(nj * npix);
            conv_rows_scalar(&g, &mut want);
            if oracle {
                let mut naive = din_ref.clone();
                let dead = |i: usize| gate.is_some_and(|x| x[i] <= 0.0);
                (0..naive.len()).filter(|&i| dead(i)).for_each(|i| naive[i] = 0.0);
                assert_close(&want, &naive, &format!("{what}: scalar twin vs reference"));
            }
            let kernels: [Run; 2] = [&|out| unsafe { conv_rows_avx512(&g, out) }, &|out| unsafe {
                conv_rows_avx2(&g, out)
            }];
            check_instantiations(&what, (&stale(nj * npix), &want), true, have, kernels);
        }

        // Always `+=`; its summation order follows the lane count.
        let what = format!("dW {shape}");
        let start = noise(seed, rows * nj * k2);
        let mut want = start.clone();
        conv_dw_scalar(&taps, input.get(), nj, dout.get(), rows, &mut want);
        if oracle {
            let naive: Vec<f32> = start.iter().zip(&dw_ref).map(|(a, b)| a + b).collect();
            assert_close(&want, &naive, &format!("{what}: scalar twin vs reference"));
        }
        let (map, d, panel) = (input.get(), dout.get(), || vec![f32::NAN; dw_panel_len(npix)]);
        let kernels: [Run; 2] = [
            &|dw| unsafe { conv_dw_avx512(&taps, map, nj, d, rows, dw, &mut panel()) },
            &|dw| unsafe { conv_dw_avx2(&taps, map, nj, d, rows, dw, &mut panel()) },
        ];
        check_instantiations(&what, (&start, &want), false, have, kernels);
    }

    /// Every instantiation called directly — not through the
    /// dispatchers, which only ever take one branch per machine — over
    /// shapes that put every tile edge in play: pixel counts around one
    /// and two vectors of either width, row counts around both tile
    /// heights, channel counts on both sides of a [`K_CHUNK`] boundary.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn simd_instantiations_match_scalar_twins() {
        let have = runnable();
        let mut seed = 0x5eed;
        let maps = [(1, 1), (1, 7), (3, 5), (2, 8), (1, 17), (1, 31), (3, 11), (4, 25), (24, 24)];
        for (h, w) in maps {
            for rows in [1, 3, 4, 5, 11, 12, 13, 64] {
                for (k, nj) in [(1, 1), (1, 5), (1, 131), (3, 1), (3, 3), (3, 15), (5, 2), (5, 6)] {
                    check_layer(have, &mut seed, (h, w, k), (rows, nj), false);
                }
            }
        }
    }

    /// Maps every tap reaches past — a side of 1, 2, `k/2` or `k − 1` —
    /// on every instantiation with NaN around every input: outputs
    /// finite, SIMD within tolerance of the scalar twins, the twins
    /// within tolerance of the naive reference.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn masked_lanes_stay_masked() {
        let have = runnable();
        let mut seed = 0xfe7ce;
        for k in [1, 3, 5, 7] {
            let mut sides: Vec<usize> =
                [1, 2, k / 2, k - 1].into_iter().filter(|&s| s > 0).collect();
            sides.dedup();
            for &h in &sides {
                for &w in &sides {
                    check_layer(have, &mut seed, (h, w, k), (5, 3), true);
                }
            }
        }
    }

    // ---- the kernels against what this machine can do ----

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

    /// GFLOP/s of twelve independent FMA chains (two ports × four cycles
    /// of latency need eight). The timed loop is written out rather than
    /// passed to [`best_secs`]: a closure would not inherit the caller's
    /// target features.
    ///
    /// # Safety
    /// As [`Isa`].
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    unsafe fn roof<L: Isa>() -> f64 {
        let (x, y) = (L::splat(black_box(1.0 + 1e-7)), L::splat(black_box(1.0 - 1e-7)));
        let mut acc = [L::splat(0.0); 12];
        let iters = 1 << 16;
        let mut secs = f64::INFINITY;
        for _ in 0..5 {
            let t = std::time::Instant::now();
            for _ in 0..iters {
                for v in &mut acc {
                    *v = L::fma(x, y, *v);
                }
            }
            secs = secs.min(t.elapsed().as_secs_f64());
        }
        let mut sink = [0.0f32; 16];
        for &v in &acc {
            L::store_m(sink.as_mut_ptr(), L::mask(L::LANES), v);
            black_box(&sink);
        }
        (iters * 12 * 2 * L::LANES) as f64 / secs / 1e9
    }

    /// # Safety
    /// Caller must ensure AVX-512F is available.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx2,fma")]
    unsafe fn roof_avx512() -> f64 {
        roof::<Avx512>()
    }

    /// # Safety
    /// Caller must ensure AVX2 and FMA are available.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn roof_avx2() -> f64 {
        roof::<Avx2>()
    }

    /// What the scalar twins are written against: multiply then add on
    /// whatever the baseline target autovectorizes to.
    fn roof_scalar() -> f64 {
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
        (iters * 48 * 2) as f64 / secs / 1e9
    }

    /// `cargo test -p trainer --release --lib kernel_roofline -- --ignored --nocapture`
    ///
    /// Prints, per instantiation this CPU can run, the FMA roof and each
    /// conv kernel — forward, weight gradient, ReLU-gated input gradient
    /// — at the six layer shapes of the wide and quick nets as a share of
    /// it (one core, workspace-aligned buffers, best of five, FLOPs
    /// counted over every tap as a dense GEMM would), then the
    /// `Workspace` bytes per sample of both nets. The tables go into
    /// EXPERIMENTS.md.
    #[cfg(target_arch = "x86_64")]
    #[test]
    #[ignore = "timing report, not a check"]
    fn kernel_roofline_report() {
        type RowsK = unsafe fn(&Rows, &mut [f32]);
        type DwK = unsafe fn(&Taps, &[f32], usize, &[f32], usize, &mut [f32], &mut [f32]);
        let (avx512, avx2) = runnable();
        let mut isas: Vec<(&str, f64, RowsK, DwK)> = Vec::new();
        if avx512 {
            // SAFETY: gated on the predicate, here and for the kernels below.
            isas.push(("avx512", unsafe { roof_avx512() }, conv_rows_avx512, conv_dw_avx512));
        }
        if avx2 {
            isas.push(("avx2", unsafe { roof_avx2() }, conv_rows_avx2, conv_dw_avx2));
        }
        let dw_scalar: DwK = |t, i, ci, d, co, dw, _| conv_dw_scalar(t, i, ci, d, co, dw);
        isas.push(("scalar", roof_scalar(), conv_rows_scalar, dw_scalar));

        println!("| ISA | FMA peak GFLOP/s |\n|---|---|");
        for (isa, gflops, ..) in &isas {
            println!("| {isa} | {gflops:.0} |");
        }
        println!("\n| layer (cout × cin·k² × npix) | kernel | ISA | µs | GFLOP/s | % of roof |");
        println!("|---|---|---|---|---|---|");
        let mut seed = 1;
        let mut footprints = Vec::new();
        for (net, h1, h2) in [("wide", 32, 64), ("quick", 8, 16)] {
            let (cin, n_classes, k, side) = (3, 4, 3, 24);
            let cfg = NetConfig {
                height: side,
                width: side,
                cin,
                hidden1: h1,
                hidden2: h2,
                n_classes,
                k,
            };
            let ws = Workspace::new(&cfg);
            let bufs = [&ws.a1, &ws.a2, &ws.dlogits, &ws.da1, &ws.da2, &ws.panel];
            footprints.push((net, bufs.iter().map(|b| b.len() * 4).sum::<usize>()));
            let npix = side * side;
            let layers = [("input", h1, cin, k), ("middle", h2, h1, k), ("head", n_classes, h2, 1)];
            for (layer, cout, lcin, lk) in layers {
                let (taps, k2) = (Taps::new(side, side, lk), lk * lk);
                let shape = format!("{net} {layer} ({cout} × {} × {npix})", lcin * k2);
                let fill = |seed: &mut u64, n: usize| {
                    let mut b = Buf::new(n);
                    b.copy_from_slice(&noise(seed, n));
                    b
                };
                let (w, bias) = (noise(&mut seed, cout * lcin * k2), noise(&mut seed, cout));
                let (input, relu_out) =
                    (fill(&mut seed, lcin * npix), fill(&mut seed, lcin * npix));
                let dout = fill(&mut seed, cout * npix);
                let (mut out, mut din) = (Buf::new(cout * npix), Buf::new(lcin * npix));
                let (mut dw, mut panel) =
                    (vec![0.0f32; cout * lcin * k2], Buf::new(dw_panel_len(npix)));
                let fwd = Rows::forward(&taps, &input, lcin, &w, cout, &bias, true);
                let dx = Rows::input_grad(&taps, &dout, cout, &w, lcin, Some(&relu_out));
                let flop = (2 * cout * lcin * k2 * npix) as f64;
                let reps = ((2e7 / flop) as usize).clamp(4, 2000);
                for &(isa, peak, rows_k, dw_k) in &isas {
                    // SAFETY: `isas` holds only what `runnable` reported.
                    let timed = unsafe {
                        [
                            ("forward", best_secs(reps, || rows_k(&fwd, &mut out))),
                            (
                                "dW",
                                best_secs(reps, || {
                                    dw_k(&taps, &input, lcin, &dout, cout, &mut dw, &mut panel)
                                }),
                            ),
                            ("dX", best_secs(reps, || rows_k(&dx, &mut din))),
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
            }
        }
        println!("\n| net | Workspace bytes per sample |\n|---|---|");
        for (net, bytes) in footprints {
            println!("| {net} | {bytes} ({:.2} MiB) |", bytes as f64 / (1 << 20) as f64);
        }
    }
}
