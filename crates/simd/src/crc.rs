//! CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320): the checksum
//! that tails every wire frame and every checkpoint file.
//!
//! Two twins behind one dispatcher, both incremental — a running
//! [`Crc32`] hashes a frame's header and payload where they lie, with
//! no staging copy:
//!
//! * [`update_scalar`] — portable slice-by-16: sixteen 256-entry
//!   tables (built at compile time) consume 16 input bytes per
//!   iteration with independent lookups. Also the path for inputs
//!   shorter than one fold block and for every tail.
//! * [`update_pclmul`] — carry-less-multiply folding (Gopal et al.,
//!   "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ",
//!   Intel 2009): four 128-bit lanes each fold 64 bytes ahead per
//!   iteration, then collapse to one lane; the surviving 16 bytes and
//!   the tail finish through the scalar twin, which *is* the reduction
//!   modulo the polynomial.
//!
//! Both compute the same function on every input, so neither the wire
//! format nor a checkpoint depends on the host CPU (differential suite
//! below, forced-scalar pass in `tests/crc_forced_scalar.rs`).

/// The reflected generator polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Slice-by-16 tables: `TABLES[k][b]` is the register after byte `b`
/// followed by `k` zero bytes.
const TABLES: [[u32; 256]; 16] = {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// Advance the raw register `crc` over `data`, 16 bytes per iteration;
/// scalar twin of [`update_pclmul`].
// lint: hot-path
fn update_scalar(mut crc: u32, data: &[u8]) -> u32 {
    let mut blocks = data.chunks_exact(16);
    for block in &mut blocks {
        let reg = crc.to_le_bytes();
        crc = 0;
        for (i, &byte) in block.iter().enumerate() {
            let x = if i < 4 { byte ^ reg[i] } else { byte };
            crc ^= TABLES[15 - i][x as usize];
        }
    }
    for &byte in blocks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ byte as u32) & 0xFF) as usize];
    }
    crc
}

/// Folding constants: `(x^n mod P)` bit-reflected and shifted left by
/// one, for a lane folding `n - 32` (low half) or `n + 32` (high half)
/// bits ahead. `folding_constants_derive_from_the_polynomial` recomputes
/// them.
#[cfg(target_arch = "x86_64")]
mod fold {
    /// n = 4·128 + 32 and 4·128 − 32: four lanes, 64 bytes ahead.
    pub const BY_4: (u64, u64) = (0x1_5444_2bd4, 0x1_c6e4_1596);
    /// n = 128 + 32 and 128 − 32: one lane, 16 bytes ahead.
    pub const BY_1: (u64, u64) = (0x1_7519_97d0, 0x0_ccaa_009e);
}

/// PCLMULQDQ twin of [`update_scalar`]; `data` must hold at least one
/// 64-byte fold block.
///
/// # Safety
/// Caller must ensure PCLMULQDQ is available (dispatch through
/// [`crate::have_pclmul`]).
// lint: hot-path
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "pclmulqdq")]
unsafe fn update_pclmul(crc: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::*;
    assert!(data.len() >= 64, "one fold block is the minimum input");
    let p = data.as_ptr();
    let n = data.len();
    // SAFETY (every `load` below): callers pass `at + 16 <= n`.
    let load = |at: usize| _mm_loadu_si128(p.add(at) as *const __m128i);
    // One fold step: carry `lane` ahead by the distance baked into `k`
    // and absorb the data that lies there.
    let fold = |lane: __m128i, k: __m128i, ahead: __m128i| {
        let lo = _mm_clmulepi64_si128::<0x00>(lane, k);
        let hi = _mm_clmulepi64_si128::<0x11>(lane, k);
        _mm_xor_si128(_mm_xor_si128(lo, hi), ahead)
    };

    let k = _mm_set_epi64x(fold::BY_4.1 as i64, fold::BY_4.0 as i64);
    let mut x0 = _mm_xor_si128(load(0), _mm_cvtsi32_si128(crc as i32));
    let (mut x1, mut x2, mut x3) = (load(16), load(32), load(48));
    let mut at = 64;
    while at + 64 <= n {
        x0 = fold(x0, k, load(at));
        x1 = fold(x1, k, load(at + 16));
        x2 = fold(x2, k, load(at + 32));
        x3 = fold(x3, k, load(at + 48));
        at += 64;
    }
    let k = _mm_set_epi64x(fold::BY_1.1 as i64, fold::BY_1.0 as i64);
    let mut x = fold(x0, k, x1);
    x = fold(x, k, x2);
    x = fold(x, k, x3);
    while at + 16 <= n {
        x = fold(x, k, load(at));
        at += 16;
    }
    // The lane is congruent to everything consumed so far; feeding its
    // 16 bytes to the table walk from a zero register reduces it.
    let mut lane = [0u8; 16];
    _mm_storeu_si128(lane.as_mut_ptr() as *mut __m128i, x);
    update_scalar(update_scalar(0, &lane), &data[at..])
}

/// Advance the raw register with runtime dispatch over the twins.
// lint: hot-path
#[inline]
fn update(crc: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= 64 && crate::have_pclmul() {
        // SAFETY: the dispatch predicate just confirmed PCLMULQDQ, and
        // the length check covers the kernel's one-block minimum.
        return unsafe { update_pclmul(crc, data) };
    }
    update_scalar(crc, data)
}

/// A running CRC32: `new`, any number of `update`s over consecutive
/// pieces, `finish`. Hashing `a` then `b` equals hashing `a‖b`.
#[derive(Debug, Clone, Copy)]
pub struct Crc32(u32);

impl Crc32 {
    pub fn new() -> Self {
        Crc32(!0)
    }

    // lint: hot-path
    #[inline]
    pub fn update(&mut self, data: &[u8]) {
        self.0 = update(self.0, data);
    }

    pub fn finish(self) -> u32 {
        !self.0
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

/// CRC32 of one contiguous buffer.
// lint: hot-path
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(data);
    crc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time table walk every faster path must agree with.
    fn update_reference(mut crc: u32, data: &[u8]) -> u32 {
        for &b in data {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        crc
    }

    type Update = fn(u32, &[u8]) -> u32;

    /// The PCLMULQDQ twin called directly wherever its precondition
    /// holds (shorter inputs are the scalar twin's by construction).
    fn update_pclmul_direct(crc: u32, data: &[u8]) -> u32 {
        #[cfg(target_arch = "x86_64")]
        if data.len() >= 64 {
            // SAFETY: `paths()` only lists this entry when the CPU has PCLMULQDQ.
            return unsafe { update_pclmul(crc, data) };
        }
        update_scalar(crc, data)
    }

    /// Every path under test: both twins called directly, and the
    /// dispatcher (whichever twin this CPU selects).
    fn paths() -> Vec<(&'static str, Update)> {
        let mut paths: Vec<(&'static str, Update)> =
            vec![("scalar", update_scalar), ("dispatch", update)];
        if crate::have_pclmul() {
            paths.push(("pclmul", update_pclmul_direct));
        }
        paths
    }

    /// Deterministic filler (xorshift64*), independent of `rand`.
    fn fill(seed: u64, out: &mut [u8]) {
        let mut s = seed | 1;
        for b in out {
            s ^= s >> 12;
            s ^= s << 25;
            s ^= s >> 27;
            *b = (s.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8;
        }
    }

    #[test]
    fn known_vectors() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        for (name, update) in paths() {
            assert_eq!(!update(!0, b"123456789"), 0xCBF4_3926, "{name}");
            assert_eq!(!update(!0, b""), 0, "{name}");
        }
    }

    #[test]
    fn every_length_at_every_alignment() {
        let mut backing = vec![0u8; 512 + 16];
        fill(1, &mut backing);
        for (name, update) in paths() {
            for align in 0..16 {
                for len in 0..=512 {
                    let data = &backing[align..align + len];
                    assert_eq!(
                        update(0x1234_5678, data),
                        update_reference(0x1234_5678, data),
                        "{name}: len {len} at alignment {align}"
                    );
                }
            }
        }
    }

    #[test]
    fn random_buffers_up_to_a_mebibyte() {
        let mut buf = vec![0u8; 1 << 20];
        fill(2, &mut buf);
        let mut lens = vec![63usize, 64, 65, 127, 128, 129, 4095, 4096, 5840, 65_537, 1 << 20];
        let mut s = 0x9E37_79B9u64;
        for _ in 0..24 {
            s = s.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            lens.push((s >> 44) as usize % (1 << 20));
        }
        for (name, update) in paths() {
            for &len in &lens {
                let start = len % 7; // vary the start alignment too
                let data = &buf[start..len.max(start)];
                assert_eq!(update(!0, data), update_reference(!0, data), "{name}: len {len}");
            }
        }
    }

    #[test]
    fn update_composes_at_every_split() {
        let mut buf = [0u8; 300];
        fill(3, &mut buf);
        for (name, update) in paths() {
            let whole = update(!0, &buf);
            assert_eq!(whole, update_reference(!0, &buf), "{name}");
            for split in 0..=buf.len() {
                let (a, b) = buf.split_at(split);
                assert_eq!(update(update(!0, a), b), whole, "{name}: split at {split}");
            }
        }
        // And through the public incremental form.
        for split in 0..=buf.len() {
            let mut crc = Crc32::new();
            crc.update(&buf[..split]);
            crc.update(&buf[split..]);
            assert_eq!(crc.finish(), crc32(&buf), "Crc32 split at {split}");
        }
    }

    #[test]
    fn single_bit_flips_in_a_frame_sized_buffer_are_detected() {
        let mut buf = vec![0u8; 2 << 20];
        fill(4, &mut buf);
        let n_bits = buf.len() * 8;
        let clean = update_reference(!0, &buf);
        // First, last, and a stride of interior bit positions.
        let sampled = (0..32).map(|i| i * (n_bits / 32) + i % 8);
        for bit in [0, n_bits - 1].into_iter().chain(sampled) {
            buf[bit / 8] ^= 1 << (bit % 8);
            let flipped = update_reference(!0, &buf);
            assert_ne!(flipped, clean, "flip of bit {bit} undetected");
            for (name, update) in paths() {
                assert_eq!(update(!0, &buf), flipped, "{name}: bit {bit}");
            }
            buf[bit / 8] ^= 1 << (bit % 8);
        }
    }

    /// `(x^n mod P)`, bit-reflected into the low 32 bits, shifted left
    /// by one — the form the folding multiplies expect.
    #[cfg(target_arch = "x86_64")]
    fn fold_constant(n: u32) -> u64 {
        // Reflected arithmetic: bit 31 is x^0, multiplying by x shifts right.
        let mut r: u32 = 1 << 31;
        for _ in 0..n {
            r = if r & 1 != 0 { (r >> 1) ^ POLY } else { r >> 1 };
        }
        (r as u64) << 1
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn folding_constants_derive_from_the_polynomial() {
        assert_eq!(fold::BY_4, (fold_constant(4 * 128 + 32), fold_constant(4 * 128 - 32)));
        assert_eq!(fold::BY_1, (fold_constant(128 + 32), fold_constant(128 - 32)));
    }
}
