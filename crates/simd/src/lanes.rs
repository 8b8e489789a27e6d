//! One x86-64 vector unit as a generic register-tile body sees it.
//!
//! A kernel written once against [`Isa`] — `trainer::real::net`'s GEMM
//! tiles — is instantiated per ISA by naming the implementing type in a
//! `#[target_feature]` function: every method here is
//! `#[inline(always)]`, so the intrinsics land in that function and are
//! compiled with its features. An instantiation differs in its lane
//! type, its lane count and the tile shape its register file affords,
//! nothing else. (Helpers between the `#[target_feature]` function and
//! these methods must be `#[inline(always)]` functions too, not
//! closures: a closure that fails to inline is compiled without the
//! features and turns every intrinsic into a call.)

use std::arch::x86_64::*;

/// The operations a tile body needs from a vector unit.
///
/// # Safety
/// Every method requires the CPU features of the implementing ISA (the
/// callers are `#[target_feature]` functions reached through the
/// crate's `have_*` predicates); the pointer methods additionally
/// require the `LANES` floats at `p` — only those `m` selects, for the
/// masked pair — to be in bounds.
#[allow(clippy::missing_safety_doc)] // one contract for all eleven methods, stated above
pub trait Isa {
    type V: Copy;
    /// Lane mask of an edge tile.
    type M: Copy;
    const LANES: usize;
    unsafe fn splat(x: f32) -> Self::V;
    unsafe fn load(p: *const f32) -> Self::V;
    unsafe fn store(p: *mut f32, v: Self::V);
    /// Selects the first `n.min(LANES)` lanes.
    unsafe fn mask(n: usize) -> Self::M;
    /// The lanes of pixels `p..p + LANES` (`p` a multiple of `LANES`)
    /// that a one-bit-per-pixel bitmap selects: bit `i` of byte `j` is
    /// pixel `8j + i`. Reads the bitmap's bytes `p / 8..(p + LANES) / 8`.
    unsafe fn mask_at(bits: *const u8, p: usize) -> Self::M;
    /// Unselected lanes read as zero and are not touched in memory.
    unsafe fn load_m(p: *const f32, m: Self::M) -> Self::V;
    unsafe fn store_m(p: *mut f32, m: Self::M, v: Self::V);
    /// `a·b + c`, one rounding.
    unsafe fn fma(a: Self::V, b: Self::V, c: Self::V) -> Self::V;
    unsafe fn max(a: Self::V, b: Self::V) -> Self::V;
    /// A ReLU's backward through its output `x`: `g` where `x` is not
    /// `≤ 0`, `+0.0` where it is.
    unsafe fn relu_back(x: Self::V, g: Self::V) -> Self::V;
    /// The lane sums of four vectors, in order.
    unsafe fn hsum4(v: [Self::V; 4]) -> __m128;
}

/// AVX2+FMA: eight lanes, sixteen registers ([`crate::have_avx2_fma`]).
pub struct Avx2;

/// [`Isa::mask_at`] for eight lanes: entry `b` selects lane `i` iff bit
/// `i` of `b` is set — one load instead of a broadcast, an and and a
/// compare.
static BYTE_MASKS: [[i32; 8]; 256] = {
    let mut t = [[0; 8]; 256];
    let mut b = 0;
    while b < 256 {
        let mut i = 0;
        while i < 8 {
            t[b][i] = -((b as i32 >> i) & 1);
            i += 1;
        }
        b += 1;
    }
    t
};

/// AVX-512F: sixteen lanes, thirty-two registers, native lane masks
/// ([`crate::have_avx512f`]).
pub struct Avx512;

impl Isa for Avx2 {
    type V = __m256;
    type M = __m256i;
    const LANES: usize = 8;
    #[inline(always)]
    unsafe fn splat(x: f32) -> __m256 {
        _mm256_set1_ps(x)
    }
    #[inline(always)]
    unsafe fn load(p: *const f32) -> __m256 {
        _mm256_loadu_ps(p)
    }
    #[inline(always)]
    unsafe fn store(p: *mut f32, v: __m256) {
        _mm256_storeu_ps(p, v)
    }
    #[inline(always)]
    unsafe fn mask(n: usize) -> __m256i {
        let lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        _mm256_cmpgt_epi32(_mm256_set1_epi32(n.min(8) as i32), lane)
    }
    #[inline(always)]
    unsafe fn mask_at(bits: *const u8, p: usize) -> __m256i {
        _mm256_loadu_si256(BYTE_MASKS[*bits.add(p / 8) as usize].as_ptr().cast())
    }
    #[inline(always)]
    unsafe fn load_m(p: *const f32, m: __m256i) -> __m256 {
        _mm256_maskload_ps(p, m)
    }
    #[inline(always)]
    unsafe fn store_m(p: *mut f32, m: __m256i, v: __m256) {
        _mm256_maskstore_ps(p, m, v)
    }
    #[inline(always)]
    unsafe fn fma(a: __m256, b: __m256, c: __m256) -> __m256 {
        _mm256_fmadd_ps(a, b, c)
    }
    #[inline(always)]
    unsafe fn max(a: __m256, b: __m256) -> __m256 {
        _mm256_max_ps(a, b)
    }
    #[inline(always)]
    unsafe fn relu_back(x: __m256, g: __m256) -> __m256 {
        _mm256_and_ps(_mm256_cmp_ps(x, _mm256_setzero_ps(), _CMP_NLE_UQ), g)
    }
    #[inline(always)]
    unsafe fn hsum4(v: [__m256; 4]) -> __m128 {
        let s = _mm256_hadd_ps(_mm256_hadd_ps(v[0], v[1]), _mm256_hadd_ps(v[2], v[3]));
        _mm_add_ps(_mm256_castps256_ps128(s), _mm256_extractf128_ps(s, 1))
    }
}

impl Isa for Avx512 {
    type V = __m512;
    type M = __mmask16;
    const LANES: usize = 16;
    #[inline(always)]
    unsafe fn splat(x: f32) -> __m512 {
        _mm512_set1_ps(x)
    }
    #[inline(always)]
    unsafe fn load(p: *const f32) -> __m512 {
        _mm512_loadu_ps(p)
    }
    #[inline(always)]
    unsafe fn store(p: *mut f32, v: __m512) {
        _mm512_storeu_ps(p, v)
    }
    #[inline(always)]
    unsafe fn mask(n: usize) -> __mmask16 {
        ((1u32 << n.min(16)) - 1) as __mmask16
    }
    #[inline(always)]
    unsafe fn mask_at(bits: *const u8, p: usize) -> __mmask16 {
        bits.add(p / 8).cast::<u16>().read_unaligned()
    }
    #[inline(always)]
    unsafe fn load_m(p: *const f32, m: __mmask16) -> __m512 {
        _mm512_maskz_loadu_ps(m, p)
    }
    #[inline(always)]
    unsafe fn store_m(p: *mut f32, m: __mmask16, v: __m512) {
        _mm512_mask_storeu_ps(p, m, v)
    }
    #[inline(always)]
    unsafe fn fma(a: __m512, b: __m512, c: __m512) -> __m512 {
        _mm512_fmadd_ps(a, b, c)
    }
    #[inline(always)]
    unsafe fn max(a: __m512, b: __m512) -> __m512 {
        _mm512_max_ps(a, b)
    }
    #[inline(always)]
    unsafe fn relu_back(x: __m512, g: __m512) -> __m512 {
        _mm512_maskz_mov_ps(_mm512_cmp_ps_mask(x, _mm512_setzero_ps(), _CMP_NLE_UQ), g)
    }
    #[inline(always)]
    unsafe fn hsum4(v: [__m512; 4]) -> __m128 {
        /// The upper half of the register folded onto the lower.
        #[inline(always)]
        unsafe fn fold(x: __m512) -> __m256 {
            let hi = _mm256_castpd_ps(_mm512_extractf64x4_pd(_mm512_castps_pd(x), 1));
            _mm256_add_ps(_mm512_castps512_ps256(x), hi)
        }
        Avx2::hsum4([fold(v[0]), fold(v[1]), fold(v[2]), fold(v[3])])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 4 × 16 floats in, per prefix length `n` in `0..=LANES + 1`:
    /// `max(fma(2, load_m(x, n), 1), 0.5)` stored through the same mask
    /// over a `-1` background, then the four lane sums of the rows, a
    /// plain store, loads through [`BITS`] and the ReLU backward gated
    /// by signed values and by NaN.
    #[inline(always)]
    unsafe fn probe<L: Isa>(x: &[f32; 64]) -> Vec<f32> {
        let mut seen = Vec::new();
        for n in 0..=L::LANES + 1 {
            let m = L::mask(n);
            let v = L::fma(L::splat(2.0), L::load_m(x.as_ptr(), m), L::splat(1.0));
            let mut out = [-1.0f32; 16];
            L::store_m(out.as_mut_ptr(), m, L::max(v, L::splat(0.5)));
            seen.extend_from_slice(&out[..L::LANES]);
        }
        let rows = [0, 16, 32, 48].map(|r| L::load(x.as_ptr().add(r)));
        let mut sums = [0.0f32; 4];
        _mm_storeu_ps(sums.as_mut_ptr(), L::hsum4(rows));
        seen.extend_from_slice(&sums);
        let mut copy = [0.0f32; 16];
        L::store(copy.as_mut_ptr(), rows[1]);
        seen.extend_from_slice(&copy[..L::LANES]);
        for p in (0..48).step_by(L::LANES) {
            let v = L::load_m(x.as_ptr().add(p), L::mask_at(BITS.as_ptr(), p));
            L::store(copy.as_mut_ptr(), v);
            seen.extend_from_slice(&copy[..L::LANES]);
        }
        for gate in [L::load(x.as_ptr().add(16)), L::splat(f32::NAN)] {
            L::store(copy.as_mut_ptr(), L::relu_back(gate, L::splat(3.0)));
            seen.extend_from_slice(&copy[..L::LANES]);
        }
        seen
    }

    /// The pixel bitmap [`probe`] reads through `mask_at`.
    const BITS: [u8; 6] = [0b1010_0110, 0x3c, 0xff, 0x00, 0x81, 0x5a];

    #[target_feature(enable = "avx512f,avx2,fma")]
    unsafe fn probe_avx512(x: &[f32; 64]) -> Vec<f32> {
        probe::<Avx512>(x)
    }

    #[target_feature(enable = "avx2,fma")]
    unsafe fn probe_avx2(x: &[f32; 64]) -> Vec<f32> {
        probe::<Avx2>(x)
    }

    /// What [`probe`] must return at `lanes` lanes, in plain Rust.
    fn probe_scalar(x: &[f32; 64], lanes: usize) -> Vec<f32> {
        let mut want = Vec::new();
        for n in 0..=lanes + 1 {
            want.extend((0..lanes).map(|i| if i < n { (2.0 * x[i] + 1.0).max(0.5) } else { -1.0 }));
        }
        want.extend([0, 16, 32, 48].map(|r| x[r..r + lanes].iter().sum::<f32>()));
        want.extend_from_slice(&x[16..16 + lanes]);
        for p in (0..48).step_by(lanes) {
            let on = |q: usize| BITS[q / 8] >> (q % 8) & 1 == 1;
            want.extend((p..p + lanes).map(|q| if on(q) { x[q] } else { 0.0 }));
        }
        want.extend((16..16 + lanes).map(|q| if x[q] > 0.0 { 3.0 } else { 0.0 }));
        want.extend((0..lanes).map(|_| 3.0));
        want
    }

    #[test]
    fn every_isa_method_matches_plain_arithmetic() {
        // Small integers and halves: every sum below is exact in any order.
        let x: [f32; 64] = std::array::from_fn(|i| (i as f32 - 20.0) * 0.5);
        if crate::have_avx512f() {
            // SAFETY: the predicate just confirmed AVX-512F.
            assert_eq!(unsafe { probe_avx512(&x) }, probe_scalar(&x, 16));
        } else {
            println!("SKIP Avx512 lanes: CPU lacks AVX-512F");
        }
        if crate::have_avx2_fma() {
            // SAFETY: the predicate just confirmed AVX2+FMA.
            assert_eq!(unsafe { probe_avx2(&x) }, probe_scalar(&x, 8));
        } else {
            println!("SKIP Avx2 lanes: CPU lacks AVX2+FMA");
        }
    }
}
