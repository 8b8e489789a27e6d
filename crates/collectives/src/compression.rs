//! Gradient compression codecs for the allreduce wire path.
//!
//! Horovod's headline bandwidth lever is fp16 compression; DisTrO-style
//! systems push further with int8/int4 quantization and top-k
//! sparsification, kept convergent by an fp32 error-feedback residual.
//! This module is that layer for our stack: a [`Codec`] trait with four
//! lossy implementations plus the identity, one shared wire format per
//! codec, and an [`ErrorFeedback`] accumulator.
//!
//! Design rules:
//!
//! * **Exact wire accounting.** `encoded_len(n)` is the *exact* byte
//!   length `encode` produces for `n` elements — the simulator, the
//!   metrics registry, and the benches all bill from it, and every test
//!   asserts `out.len() == encoded_len(n)`.
//! * **Zero hot-path allocation.** All intermediates live in an
//!   [`EncodeScratch`] owned by the caller (the executor pools them);
//!   once a scratch has seen its working size, encode/decode/roundtrip
//!   never touch the allocator (proven per codec in
//!   `trainer/tests/zero_alloc.rs`).
//! * **CPU-independent bytes.** The quantize inner loops dispatch to
//!   AVX2/F16C kernels in `crates/simd` whose scalar twins are
//!   bit-identical on non-NaN input, so the compressed bytes do not
//!   depend on the host (and compressed allreduce stays deterministic).
//! * **Determinism.** Ties in top-k selection break toward the lower
//!   index; chunk boundaries are fixed; no codec consults anything but
//!   the input slice.
//!
//! Wire formats (all little-endian):
//!
//! | codec | layout | bytes/elem |
//! |-------|--------|-----------|
//! | `none` | `n × f32` | 4 |
//! | `fp16` | `n × u16` (IEEE binary16, RNE) | 2 |
//! | `int8` | per 256-chunk: `f32` scale + `len × i8` | 1.015625 |
//! | `int4` | per 256-chunk: `f32` scale + `⌈len/2⌉` nibble bytes | 0.515625 |
//! | `topk` | `⌈n/8⌉ × (u32 index, f32 value)` | 1 |

use simd::{fp16, quant};

/// Chunk width of the per-chunk-scale quantizers. One f32 scale per
/// chunk: small enough to track local gradient magnitude, large enough
/// that the scale overhead stays under 2%.
pub const QUANT_CHUNK: usize = 256;

/// Largest magnitude the int4 quantizer emits (symmetric nibbles).
const Q4_MAX: f32 = 7.0;

/// Fraction denominator of the top-k sparsifier: keep ⌈n/8⌉ elements,
/// which at 8 bytes per (index, value) pair is 1 byte per element.
const TOPK_DIV: usize = 8;

/// The available gradient codecs, as a plain value the configuration
/// layers (trainer config, tuner knob space, benches) pass around.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CodecKind {
    /// Identity: f32 straight onto the wire.
    #[default]
    None,
    /// IEEE binary16 round-to-nearest-even, bit-identical to the
    /// trainer's historical fp16 path ([`simd::fp16`]).
    Fp16,
    /// Symmetric int8 with a per-256-chunk f32 scale (absmax / 127).
    Int8,
    /// Symmetric int4 (packed nibbles) with a per-256-chunk f32 scale.
    Int4,
    /// Magnitude top-k sparsification, keeping ⌈n/8⌉ (index, value)
    /// pairs; ties break toward the lower index.
    TopK,
}

impl CodecKind {
    /// Every codec, identity first.
    pub const ALL: [CodecKind; 5] =
        [CodecKind::None, CodecKind::Fp16, CodecKind::Int8, CodecKind::Int4, CodecKind::TopK];

    /// Stable lower-case name (config files, bench JSON, CLI flags).
    pub fn name(self) -> &'static str {
        match self {
            CodecKind::None => "none",
            CodecKind::Fp16 => "fp16",
            CodecKind::Int8 => "int8",
            CodecKind::Int4 => "int4",
            CodecKind::TopK => "topk",
        }
    }

    /// Inverse of [`CodecKind::name`].
    pub fn parse(s: &str) -> Option<CodecKind> {
        CodecKind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Exact wire bytes for `n` elements (see [`Codec::encoded_len`]).
    pub fn encoded_len(self, n: usize) -> usize {
        codec_for(self).encoded_len(n)
    }

    /// Nominal wire bytes per element (exact for whole chunks).
    pub fn bytes_per_element(self) -> f64 {
        codec_for(self).bytes_per_element()
    }

    /// Wire-byte reduction factor vs raw f32.
    pub fn ratio(self) -> f64 {
        4.0 / self.bytes_per_element()
    }

    /// True for every codec that loses information.
    pub fn is_lossy(self) -> bool {
        self != CodecKind::None
    }
}

impl std::fmt::Display for CodecKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Reusable intermediate buffers for encode/decode. Owned by the
/// caller (the executors pool them across steps): after the first
/// call at a given size every buffer has its high-water capacity and
/// the codecs stop allocating.
#[derive(Debug, Default)]
pub struct EncodeScratch {
    /// f16 bit patterns (fp16 codec).
    h: Vec<u16>,
    /// Quantized bytes (int8/int4 codecs).
    q: Vec<i8>,
    /// |x| working copy for top-k threshold selection.
    tmp: Vec<f32>,
    /// Internal wire buffer for [`roundtrip`] (not used by encode/decode).
    buf: Vec<u8>,
}

impl EncodeScratch {
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-size every buffer `kind` will touch for inputs up to `n`
    /// elements, so later encode/decode calls are allocation-free.
    pub fn reserve(&mut self, kind: CodecKind, n: usize) {
        match kind {
            CodecKind::None => {}
            CodecKind::Fp16 => self.h.reserve(n.saturating_sub(self.h.capacity())),
            CodecKind::Int8 | CodecKind::Int4 => {
                self.q.reserve(QUANT_CHUNK.saturating_sub(self.q.capacity()))
            }
            CodecKind::TopK => self.tmp.reserve(n.saturating_sub(self.tmp.capacity())),
        }
        let wire = kind.encoded_len(n);
        self.buf.reserve(wire.saturating_sub(self.buf.capacity()));
    }
}

/// A gradient codec: exact wire-length accounting plus encode/decode
/// into caller-owned buffers. Implementations are stateless (error
/// feedback is layered on top, see [`ErrorFeedback`]); `encode` clears
/// `out` and fills it with exactly [`Codec::encoded_len`] bytes.
pub trait Codec: Send + Sync {
    fn kind(&self) -> CodecKind;

    /// Exact encoded byte length for `n` input elements.
    fn encoded_len(&self, n: usize) -> usize;

    /// Nominal wire bytes per element (exact when `n` is a multiple of
    /// the codec's chunking; `encoded_len` is always exact).
    fn bytes_per_element(&self) -> f64;

    /// Encode `src` into `out` (cleared first). Allocation-free once
    /// `out` and `scratch` have their working capacity.
    fn encode(&self, src: &[f32], out: &mut Vec<u8>, scratch: &mut EncodeScratch);

    /// Decode `buf` (a full `encode` output for `dst.len()` elements)
    /// into `dst`, overwriting it entirely.
    fn decode(&self, buf: &[u8], dst: &mut [f32], scratch: &mut EncodeScratch);
}

/// The static codec instance for `kind` (codecs are stateless).
pub fn codec_for(kind: CodecKind) -> &'static dyn Codec {
    match kind {
        CodecKind::None => &NoCodec,
        CodecKind::Fp16 => &Fp16Codec,
        CodecKind::Int8 => &Int8Codec,
        CodecKind::Int4 => &Int4Codec,
        CodecKind::TopK => &TopKCodec,
    }
}

/// Apply exactly the codec's wire loss in place: encode into the
/// scratch's internal buffer, decode back over `xs`. The worker-side
/// compression path (classic trainer, pipelined tile reduction) uses
/// this — the reduction itself stays in f32.
// lint: hot-path
pub fn roundtrip(kind: CodecKind, xs: &mut [f32], scratch: &mut EncodeScratch) {
    if kind == CodecKind::None {
        return;
    }
    if kind == CodecKind::Fp16 {
        // Same bits as encode→decode, without materializing the wire.
        fp16::roundtrip_slice(xs);
        return;
    }
    let codec = codec_for(kind);
    let mut buf = std::mem::take(&mut scratch.buf);
    codec.encode(xs, &mut buf, scratch);
    codec.decode(&buf, xs, scratch);
    scratch.buf = buf;
}

/// Error-feedback compensated roundtrip with an explicit residual
/// slice: `xs += residual`, apply the codec's wire loss to `xs`, then
/// `residual = compensated − lossy`. The residual slice doubles as the
/// snapshot of the compensated gradient, so no extra buffer is needed.
///
/// The residual stays in fp32 (the `Fp32GradientAccumulator` idiom):
/// whatever a lossy codec dropped this step is re-injected next step,
/// which is what lets int4/top-k training converge to the fp32
/// baseline.
// lint: hot-path
// lint: no-f64
pub fn ef_roundtrip(
    kind: CodecKind,
    xs: &mut [f32],
    residual: &mut [f32],
    scratch: &mut EncodeScratch,
) {
    assert_eq!(xs.len(), residual.len(), "residual length mismatch");
    for (x, r) in xs.iter_mut().zip(residual.iter_mut()) {
        *x += *r;
        *r = *x;
    }
    roundtrip(kind, xs, scratch);
    for (x, r) in xs.iter().zip(residual.iter_mut()) {
        *r -= *x;
    }
}

/// Persistent fp32 residual accumulator for one gradient buffer.
///
/// Invariants: `residual` always equals the running sum of everything
/// the codec has dropped so far (bounded for quantizers: at most half a
/// quantization step per element per round, which the compensation
/// feeds back); resetting it is only sound when the optimizer state is
/// reset too.
#[derive(Debug, Clone)]
pub struct ErrorFeedback {
    residual: Vec<f32>,
}

impl ErrorFeedback {
    /// A zeroed residual for an `n`-element gradient buffer.
    pub fn new(n: usize) -> Self {
        ErrorFeedback { residual: vec![0.0f32; n] }
    }

    /// The current residual (what the codec has dropped, cumulatively).
    pub fn residual(&self) -> &[f32] {
        &self.residual
    }

    /// Forget the accumulated residual.
    pub fn reset(&mut self) {
        self.residual.fill(0.0);
    }

    /// Compensated roundtrip of the whole buffer (see [`ef_roundtrip`]).
    // lint: hot-path
    pub fn roundtrip(&mut self, kind: CodecKind, xs: &mut [f32], scratch: &mut EncodeScratch) {
        assert_eq!(xs.len(), self.residual.len(), "buffer/residual length mismatch");
        ef_roundtrip(kind, xs, &mut self.residual, scratch);
    }
}

/// Reinterpret quantized bytes (i8 and u8 have identical layout).
fn i8_as_u8(q: &[i8]) -> &[u8] {
    // SAFETY: i8 and u8 have the same size, alignment, and validity.
    unsafe { std::slice::from_raw_parts(q.as_ptr() as *const u8, q.len()) }
}

fn u8_as_i8(b: &[u8]) -> &[i8] {
    // SAFETY: i8 and u8 have the same size, alignment, and validity.
    unsafe { std::slice::from_raw_parts(b.as_ptr() as *const i8, b.len()) }
}

/// Identity codec: f32 bits straight onto the wire.
pub struct NoCodec;

impl Codec for NoCodec {
    fn kind(&self) -> CodecKind {
        CodecKind::None
    }

    fn encoded_len(&self, n: usize) -> usize {
        4 * n
    }

    fn bytes_per_element(&self) -> f64 {
        4.0
    }

    // lint: hot-path
    fn encode(&self, src: &[f32], out: &mut Vec<u8>, _scratch: &mut EncodeScratch) {
        out.clear();
        out.resize(4 * src.len(), 0);
        for (o, s) in out.chunks_exact_mut(4).zip(src) {
            o.copy_from_slice(&s.to_le_bytes());
        }
    }

    // lint: hot-path
    fn decode(&self, buf: &[u8], dst: &mut [f32], _scratch: &mut EncodeScratch) {
        assert_eq!(buf.len(), 4 * dst.len(), "wire length mismatch");
        for (d, b) in dst.iter_mut().zip(buf.chunks_exact(4)) {
            *d = f32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        }
    }
}

/// IEEE binary16 codec — the wire form of the trainer's historical
/// fp16 path, bit-identical to [`simd::fp16::roundtrip`] per element.
pub struct Fp16Codec;

impl Codec for Fp16Codec {
    fn kind(&self) -> CodecKind {
        CodecKind::Fp16
    }

    fn encoded_len(&self, n: usize) -> usize {
        2 * n
    }

    fn bytes_per_element(&self) -> f64 {
        2.0
    }

    // lint: hot-path
    fn encode(&self, src: &[f32], out: &mut Vec<u8>, scratch: &mut EncodeScratch) {
        scratch.h.resize(src.len(), 0);
        fp16::pack_slice(src, &mut scratch.h);
        out.clear();
        out.resize(2 * src.len(), 0);
        for (o, h) in out.chunks_exact_mut(2).zip(&scratch.h) {
            o.copy_from_slice(&h.to_le_bytes());
        }
    }

    // lint: hot-path
    fn decode(&self, buf: &[u8], dst: &mut [f32], scratch: &mut EncodeScratch) {
        assert_eq!(buf.len(), 2 * dst.len(), "wire length mismatch");
        scratch.h.resize(dst.len(), 0);
        for (h, b) in scratch.h.iter_mut().zip(buf.chunks_exact(2)) {
            *h = u16::from_le_bytes([b[0], b[1]]);
        }
        fp16::unpack_slice(&scratch.h, dst);
    }
}

/// Per-chunk scale for a symmetric quantizer with max level `q_max`:
/// `(scale, inv_scale)`, both zero for an all-zero chunk.
// lint: hot-path
// lint: no-f64
fn chunk_scale(chunk: &[f32], q_max: f32) -> (f32, f32) {
    let m = quant::abs_max(chunk);
    if m > 0.0 {
        (m / q_max, q_max / m)
    } else {
        (0.0, 0.0)
    }
}

/// Symmetric int8 with a per-256-chunk f32 scale.
pub struct Int8Codec;

impl Codec for Int8Codec {
    fn kind(&self) -> CodecKind {
        CodecKind::Int8
    }

    fn encoded_len(&self, n: usize) -> usize {
        n + 4 * n.div_ceil(QUANT_CHUNK)
    }

    fn bytes_per_element(&self) -> f64 {
        (QUANT_CHUNK + 4) as f64 / QUANT_CHUNK as f64
    }

    // lint: hot-path
    fn encode(&self, src: &[f32], out: &mut Vec<u8>, scratch: &mut EncodeScratch) {
        out.clear();
        for chunk in src.chunks(QUANT_CHUNK) {
            let (scale, inv) = chunk_scale(chunk, quant::Q8_MAX);
            out.extend_from_slice(&scale.to_le_bytes());
            scratch.q.resize(chunk.len(), 0);
            quant::quant8(chunk, inv, &mut scratch.q);
            out.extend_from_slice(i8_as_u8(&scratch.q));
        }
    }

    // lint: hot-path
    fn decode(&self, buf: &[u8], dst: &mut [f32], scratch: &mut EncodeScratch) {
        assert_eq!(buf.len(), self.encoded_len(dst.len()), "wire length mismatch");
        let _ = scratch;
        let mut pos = 0usize;
        for chunk in dst.chunks_mut(QUANT_CHUNK) {
            let scale = f32::from_le_bytes([buf[pos], buf[pos + 1], buf[pos + 2], buf[pos + 3]]);
            pos += 4;
            quant::dequant8(u8_as_i8(&buf[pos..pos + chunk.len()]), scale, chunk);
            pos += chunk.len();
        }
    }
}

/// Symmetric int4 (packed nibbles, bias +8) with a per-256-chunk scale.
pub struct Int4Codec;

impl Codec for Int4Codec {
    fn kind(&self) -> CodecKind {
        CodecKind::Int4
    }

    fn encoded_len(&self, n: usize) -> usize {
        let full = n / QUANT_CHUNK;
        let tail = n % QUANT_CHUNK;
        let mut len = full * (4 + QUANT_CHUNK / 2);
        if tail > 0 {
            len += 4 + tail.div_ceil(2);
        }
        len
    }

    fn bytes_per_element(&self) -> f64 {
        (QUANT_CHUNK / 2 + 4) as f64 / QUANT_CHUNK as f64
    }

    // lint: hot-path
    fn encode(&self, src: &[f32], out: &mut Vec<u8>, scratch: &mut EncodeScratch) {
        out.clear();
        for chunk in src.chunks(QUANT_CHUNK) {
            let (scale, inv) = chunk_scale(chunk, Q4_MAX);
            out.extend_from_slice(&scale.to_le_bytes());
            scratch.q.resize(chunk.len(), 0);
            // The int8 kernel with the int4 inverse scale lands every
            // level in [-7, 7]; only the nibble packing is scalar.
            quant::quant8(chunk, inv, &mut scratch.q);
            let mut pairs = scratch.q.chunks_exact(2);
            for p in &mut pairs {
                out.push(((p[0] + 8) as u8) | (((p[1] + 8) as u8) << 4));
            }
            if let [last] = pairs.remainder() {
                out.push((last + 8) as u8 | 0x80); // high nibble = level 0
            }
        }
    }

    // lint: hot-path
    fn decode(&self, buf: &[u8], dst: &mut [f32], scratch: &mut EncodeScratch) {
        assert_eq!(buf.len(), self.encoded_len(dst.len()), "wire length mismatch");
        let mut pos = 0usize;
        for chunk in dst.chunks_mut(QUANT_CHUNK) {
            let scale = f32::from_le_bytes([buf[pos], buf[pos + 1], buf[pos + 2], buf[pos + 3]]);
            pos += 4;
            let nbytes = chunk.len().div_ceil(2);
            scratch.q.resize(chunk.len(), 0);
            for (i, &b) in buf[pos..pos + nbytes].iter().enumerate() {
                scratch.q[2 * i] = (b & 0x0f) as i8 - 8;
                if 2 * i + 1 < chunk.len() {
                    scratch.q[2 * i + 1] = (b >> 4) as i8 - 8;
                }
            }
            pos += nbytes;
            quant::dequant8(&scratch.q, scale, chunk);
        }
    }
}

/// Magnitude top-k sparsification: keep the ⌈n/8⌉ largest |x| as
/// (u32 index, f32 value) pairs; everything else decodes to zero.
/// Ties at the threshold magnitude break toward the lower index, so
/// the selection (and the wire bytes) are fully deterministic.
pub struct TopKCodec;

impl TopKCodec {
    /// Elements kept for an `n`-element input.
    pub fn kept(n: usize) -> usize {
        n.div_ceil(TOPK_DIV)
    }
}

impl Codec for TopKCodec {
    fn kind(&self) -> CodecKind {
        CodecKind::TopK
    }

    fn encoded_len(&self, n: usize) -> usize {
        8 * Self::kept(n)
    }

    fn bytes_per_element(&self) -> f64 {
        8.0 / TOPK_DIV as f64
    }

    // lint: hot-path
    fn encode(&self, src: &[f32], out: &mut Vec<u8>, scratch: &mut EncodeScratch) {
        out.clear();
        if src.is_empty() {
            return;
        }
        let n = src.len();
        let k = Self::kept(n);
        scratch.tmp.resize(n, 0.0);
        for (t, s) in scratch.tmp.iter_mut().zip(src) {
            *t = s.abs();
        }
        // k-th largest magnitude = element n-k of the ascending order.
        let thr = if k >= n {
            0.0
        } else {
            let (_, thr, _) = scratch.tmp.select_nth_unstable_by(n - k, f32::total_cmp);
            *thr
        };
        // Strictly-greater elements always make the cut; ties at the
        // threshold fill the remaining slots in index order.
        let greater = src.iter().filter(|x| x.abs() > thr).count();
        let mut ties_left = k - greater;
        let mut taken = 0usize;
        for (i, &x) in src.iter().enumerate() {
            let a = x.abs();
            let keep = a > thr || (a == thr && ties_left > 0);
            if keep {
                if a == thr {
                    ties_left -= 1;
                }
                out.extend_from_slice(&(i as u32).to_le_bytes());
                out.extend_from_slice(&x.to_le_bytes());
                taken += 1;
                if taken == k {
                    break;
                }
            }
        }
        debug_assert_eq!(taken, k, "top-k selection must fill exactly k slots");
    }

    // lint: hot-path
    fn decode(&self, buf: &[u8], dst: &mut [f32], scratch: &mut EncodeScratch) {
        assert_eq!(buf.len(), self.encoded_len(dst.len()), "wire length mismatch");
        let _ = scratch;
        dst.fill(0.0);
        for pair in buf.chunks_exact(8) {
            let i = u32::from_le_bytes([pair[0], pair[1], pair[2], pair[3]]) as usize;
            dst[i] = f32::from_le_bytes([pair[4], pair[5], pair[6], pair[7]]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn enc(kind: CodecKind, src: &[f32]) -> Vec<u8> {
        let mut out = Vec::new();
        let mut scratch = EncodeScratch::new();
        codec_for(kind).encode(src, &mut out, &mut scratch);
        assert_eq!(out.len(), kind.encoded_len(src.len()), "{kind}: encoded_len must be exact");
        out
    }

    fn dec(kind: CodecKind, buf: &[u8], n: usize) -> Vec<f32> {
        let mut dst = vec![0.0f32; n];
        let mut scratch = EncodeScratch::new();
        codec_for(kind).decode(buf, &mut dst, &mut scratch);
        dst
    }

    fn stress(i: usize) -> f32 {
        match i % 6 {
            0 => (i as f32 * 0.31).sin() * 2.0,
            1 => -(i as f32) * 1e-3,
            2 => (i as f32).cos() * 40.0,
            3 => 0.0,
            4 => 1e-6 * (i as f32 + 1.0),
            _ => f32::from_bits((i as u32).wrapping_mul(0x9e37_79b9) & 0x3eff_ffff),
        }
    }

    #[test]
    fn names_parse_back() {
        for k in CodecKind::ALL {
            assert_eq!(CodecKind::parse(k.name()), Some(k));
        }
        assert_eq!(CodecKind::parse("gzip"), None);
    }

    #[test]
    fn none_is_lossless() {
        let src: Vec<f32> = (0..777).map(stress).collect();
        let bytes = enc(CodecKind::None, &src);
        assert_eq!(dec(CodecKind::None, &bytes, src.len()), src);
    }

    #[test]
    fn fp16_wire_matches_roundtrip_path_bitwise() {
        let src: Vec<f32> = (0..1000).map(stress).collect();
        let bytes = enc(CodecKind::Fp16, &src);
        let got = dec(CodecKind::Fp16, &bytes, src.len());
        let want: Vec<f32> = src.iter().map(|&x| fp16::roundtrip(x)).collect();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want), "fp16 codec must equal the fp16.rs path");
    }

    #[test]
    fn int8_error_bounded_by_half_step_per_chunk() {
        let src: Vec<f32> = (0..1000).map(stress).collect();
        let bytes = enc(CodecKind::Int8, &src);
        let got = dec(CodecKind::Int8, &bytes, src.len());
        for (c, (orig, dec)) in src.chunks(QUANT_CHUNK).zip(got.chunks(QUANT_CHUNK)).enumerate() {
            let step = quant::abs_max(orig) / quant::Q8_MAX;
            for (i, (o, d)) in orig.iter().zip(dec).enumerate() {
                assert!(
                    (o - d).abs() <= 0.5001 * step + 1e-7,
                    "chunk {c} elem {i}: {o} -> {d}, step {step}"
                );
            }
        }
    }

    #[test]
    fn int4_error_bounded_by_half_step_per_chunk() {
        let src: Vec<f32> = (0..700).map(stress).collect();
        let bytes = enc(CodecKind::Int4, &src);
        let got = dec(CodecKind::Int4, &bytes, src.len());
        for (orig, dec) in src.chunks(QUANT_CHUNK).zip(got.chunks(QUANT_CHUNK)) {
            let step = quant::abs_max(orig) / Q4_MAX;
            for (o, d) in orig.iter().zip(dec) {
                assert!((o - d).abs() <= 0.5001 * step + 1e-7, "{o} -> {d}, step {step}");
            }
        }
    }

    #[test]
    fn topk_keeps_exactly_the_largest_magnitudes() {
        let src: Vec<f32> = (0..640).map(stress).collect();
        let bytes = enc(CodecKind::TopK, &src);
        let got = dec(CodecKind::TopK, &bytes, src.len());
        let k = TopKCodec::kept(src.len());
        let kept: Vec<usize> =
            got.iter().enumerate().filter(|(_, x)| **x != 0.0).map(|(i, _)| i).collect();
        assert!(kept.len() <= k, "{} kept, at most {k} allowed", kept.len());
        // Every kept value is bit-exact and at least as large as every
        // dropped value.
        let min_kept = kept.iter().map(|&i| src[i].abs()).fold(f32::INFINITY, f32::min);
        for (i, (&o, &d)) in src.iter().zip(&got).enumerate() {
            if d != 0.0 {
                assert_eq!(o.to_bits(), d.to_bits(), "kept value {i} must be exact");
            } else {
                assert!(o.abs() <= min_kept, "dropped {i} (|{o}|) outranks a kept value");
            }
        }
    }

    #[test]
    fn topk_tie_break_is_deterministic_toward_low_index() {
        // All-equal magnitudes: the first k indices win, always.
        let src = vec![1.0f32; 16];
        let bytes = enc(CodecKind::TopK, &src);
        let got = dec(CodecKind::TopK, &bytes, 16);
        let k = TopKCodec::kept(16);
        for (i, &v) in got.iter().enumerate() {
            assert_eq!(v != 0.0, i < k, "tie-break at index {i}");
        }
        // And all-zero input encodes without panicking.
        let z = vec![0.0f32; 40];
        let bytes = enc(CodecKind::TopK, &z);
        assert_eq!(dec(CodecKind::TopK, &bytes, 40), z);
    }

    #[test]
    fn roundtrip_equals_encode_decode_for_every_codec() {
        let src: Vec<f32> = (0..600).map(stress).collect();
        for kind in CodecKind::ALL {
            let via_wire = dec(kind, &enc(kind, &src), src.len());
            let mut in_place = src.clone();
            let mut scratch = EncodeScratch::new();
            roundtrip(kind, &mut in_place, &mut scratch);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&in_place), bits(&via_wire), "{kind}: roundtrip diverges from wire");
        }
    }

    #[test]
    fn encode_is_deterministic() {
        let src: Vec<f32> = (0..500).map(stress).collect();
        for kind in CodecKind::ALL {
            assert_eq!(enc(kind, &src), enc(kind, &src), "{kind}");
        }
    }

    #[test]
    fn declared_ratio_is_exact_on_whole_chunks() {
        // 2048 elements: a multiple of both QUANT_CHUNK and TOPK_DIV,
        // so the nominal bytes/element is exact for every codec.
        let n = 2048usize;
        for kind in CodecKind::ALL {
            let measured = kind.encoded_len(n) as f64 / n as f64;
            assert!(
                (measured - kind.bytes_per_element()).abs() < 1e-12,
                "{kind}: measured {measured} vs declared {}",
                kind.bytes_per_element()
            );
        }
    }

    #[test]
    fn error_feedback_recovers_dropped_mass() {
        // Feed the same gradient through a lossy codec T times with EF:
        // the *running mean* of the decoded outputs must converge to the
        // true gradient (the classic error-feedback telescoping sum),
        // even for int4 and top-k where a single pass is very lossy.
        let truth: Vec<f32> = (0..512).map(|i| stress(i) * 0.1).collect();
        for kind in [CodecKind::Int8, CodecKind::Int4, CodecKind::TopK] {
            let mut ef = ErrorFeedback::new(truth.len());
            let mut scratch = EncodeScratch::new();
            let mut sum = vec![0.0f64; truth.len()];
            let rounds = 64;
            for _ in 0..rounds {
                let mut g = truth.clone();
                ef.roundtrip(kind, &mut g, &mut scratch);
                for (s, v) in sum.iter_mut().zip(&g) {
                    *s += f64::from(*v);
                }
            }
            let scale_bound = truth.iter().fold(0.0f32, |m, x| m.max(x.abs()));
            for (i, (s, t)) in sum.iter().zip(&truth).enumerate() {
                let mean = s / f64::from(rounds as u32);
                // Telescoping: |mean - truth| <= residual_bound / rounds.
                let tol = f64::from(scale_bound) * 2.0 / f64::from(rounds as u32) + 1e-6;
                assert!(
                    (mean - f64::from(*t)).abs() <= tol,
                    "{kind} elem {i}: mean {mean} vs truth {t} (tol {tol})"
                );
            }
        }
    }

    #[test]
    fn scratch_reaches_steady_state_capacity() {
        // After one encode+decode at size n, a second pass must not grow
        // any scratch buffer (capacity check stands in for the counting
        // allocator, which lives in the trainer's zero_alloc proof).
        let src: Vec<f32> = (0..4096).map(stress).collect();
        for kind in CodecKind::ALL {
            let mut scratch = EncodeScratch::new();
            scratch.reserve(kind, src.len());
            let mut out = Vec::with_capacity(kind.encoded_len(src.len()));
            let mut dst = vec![0.0f32; src.len()];
            codec_for(kind).encode(&src, &mut out, &mut scratch);
            codec_for(kind).decode(&out, &mut dst, &mut scratch);
            let caps = (
                scratch.h.capacity(),
                scratch.q.capacity(),
                scratch.tmp.capacity(),
                out.capacity(),
            );
            codec_for(kind).encode(&src, &mut out, &mut scratch);
            codec_for(kind).decode(&out, &mut dst, &mut scratch);
            let after = (
                scratch.h.capacity(),
                scratch.q.capacity(),
                scratch.tmp.capacity(),
                out.capacity(),
            );
            assert_eq!(caps, after, "{kind}: scratch grew after warm-up");
        }
    }

    proptest! {
        /// Differential property: decode(encode(x)) stays within each
        /// codec's declared tolerance of a scalar reference model.
        #[test]
        fn codecs_respect_their_error_model(
            src in proptest::collection::vec(-50.0f32..50.0, 1..700)
        ) {
            // fp16: bit-exact vs the scalar conversion.
            let got = dec(CodecKind::Fp16, &enc(CodecKind::Fp16, &src), src.len());
            for (o, d) in src.iter().zip(&got) {
                prop_assert_eq!(fp16::roundtrip(*o).to_bits(), d.to_bits());
            }
            // int8/int4: half-step error bound per chunk.
            for (kind, qmax) in [(CodecKind::Int8, quant::Q8_MAX), (CodecKind::Int4, Q4_MAX)] {
                let got = dec(kind, &enc(kind, &src), src.len());
                for (orig, dec) in src.chunks(QUANT_CHUNK).zip(got.chunks(QUANT_CHUNK)) {
                    let step = quant::abs_max(orig) / qmax;
                    for (o, d) in orig.iter().zip(dec) {
                        prop_assert!((o - d).abs() <= 0.5001 * step + 1e-6);
                    }
                }
            }
            // topk: kept values exact, dropped values dominated.
            let got = dec(CodecKind::TopK, &enc(CodecKind::TopK, &src), src.len());
            let min_kept = got
                .iter()
                .zip(&src)
                .filter(|(d, _)| **d != 0.0)
                .map(|(_, o)| o.abs())
                .fold(f32::INFINITY, f32::min);
            for (o, d) in src.iter().zip(&got) {
                if *d != 0.0 {
                    prop_assert_eq!(o.to_bits(), d.to_bits());
                } else {
                    prop_assert!(o.abs() <= min_kept);
                }
            }
        }

        /// Error feedback never lets the residual run away: after any
        /// number of rounds over random gradients, the residual stays
        /// bounded by a small multiple of the largest gradient scale.
        #[test]
        fn residual_stays_bounded(
            base in proptest::collection::vec(-2.0f32..2.0, 64..300),
            rounds in 1usize..12
        ) {
            for kind in [CodecKind::Int8, CodecKind::Int4, CodecKind::TopK] {
                let mut ef = ErrorFeedback::new(base.len());
                let mut scratch = EncodeScratch::new();
                for r in 0..rounds {
                    let mut g: Vec<f32> =
                        base.iter().map(|x| x * (1.0 + 0.1 * r as f32)).collect();
                    ef.roundtrip(kind, &mut g, &mut scratch);
                }
                let bound = 8.0 * 2.0 * (1.0 + 0.1 * rounds as f32);
                for r in ef.residual() {
                    prop_assert!(r.abs() <= bound, "{} residual {} exceeds {}", kind, r, bound);
                }
            }
        }
    }
}
