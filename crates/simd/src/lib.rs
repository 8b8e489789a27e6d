//! Runtime CPU-feature dispatch for the vectorized hot-path kernels.
//!
//! The SIMD kernels in `trainer::real::net`, `trainer::real::fp16`,
//! `collectives::reduce`, and [`crc`] are written against `std::arch`
//! x86-64 intrinsics and guarded by the predicates here: every
//! `#[target_feature]` function has a same-module scalar twin, and every
//! call site dispatches through [`have_avx512f`] / [`have_avx2_fma`] /
//! [`have_f16c`] / [`have_pclmul`] (enforced by the `simd-fallback` rule
//! of `cargo run -p xtask -- lint`).
//!
//! Detection is cached in a relaxed atomic after the first query, so the
//! per-call cost on the hot path is one load and one predictable branch —
//! and, crucially, the cached query performs **zero heap allocations**
//! (the zero-alloc proofs in `trainer/tests/zero_alloc.rs` run with
//! dispatch active).
//!
//! On non-x86-64 targets every predicate is a compile-time `false` and
//! the scalar twins are the only code path.

use std::sync::atomic::{AtomicU8, Ordering};

pub mod crc;
pub mod fp16;
#[cfg(target_arch = "x86_64")]
pub mod lanes;
pub mod quant;

/// Cached detection state: 0 = unknown, 1 = absent, 2 = present.
struct Cached(AtomicU8);

impl Cached {
    const fn new() -> Self {
        Cached(AtomicU8::new(0))
    }

    #[inline]
    fn get(&self, detect: impl FnOnce() -> bool) -> bool {
        let state = self.0.load(Ordering::Relaxed); // lint: allow(relaxed): idempotent cpuid cache
        match state {
            2 => true,
            1 => false,
            _ => {
                let present = detect();
                self.0.store(if present { 2 } else { 1 }, Ordering::Relaxed); // lint: allow(relaxed): cpuid cache; detect() is pure so duplicate fills agree
                present
            }
        }
    }
}

static AVX512F: Cached = Cached::new();
static AVX2_FMA: Cached = Cached::new();
static F16C: Cached = Cached::new();
static PCLMUL: Cached = Cached::new();

/// True when the CPU supports AVX-512F on top of AVX2+FMA — the widest
/// instantiation of the GEMM tiles in `trainer::real::net`; a kernel
/// that has one tries it before [`have_avx2_fma`].
// lint: hot-path
#[inline]
pub fn have_avx512f() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        AVX512F.get(|| have_avx2_fma() && std::arch::is_x86_feature_detected!("avx512f"))
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// True when the CPU supports AVX2 **and** FMA — the feature pair every
/// vectorized f32 kernel in this workspace is compiled against.
// lint: hot-path
#[inline]
pub fn have_avx2_fma() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        AVX2_FMA.get(|| {
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// True when the CPU supports F16C (hardware fp16 pack/unpack) on top of
/// AVX2 — the gate for the fused fp16 reduction kernels.
// lint: hot-path
#[inline]
pub fn have_f16c() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        F16C.get(|| have_avx2_fma() && std::arch::is_x86_feature_detected!("f16c"))
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// True when the CPU supports PCLMULQDQ (carry-less multiply) — the
/// gate for the folding CRC32 kernel.
// lint: hot-path
#[inline]
pub fn have_pclmul() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        PCLMUL.get(|| std::arch::is_x86_feature_detected!("pclmulqdq"))
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Force-disable every SIMD path for the rest of the process — the
/// differential tests use this to run the scalar twins on hardware that
/// would otherwise dispatch to the vector kernels. Irreversible by
/// design (the caches never re-detect), so call it only from test
/// binaries.
pub fn force_scalar_for_testing() {
    AVX512F.0.store(1, Ordering::Relaxed); // lint: allow(relaxed): cpuid cache; detect() is pure so duplicate fills agree
    AVX2_FMA.0.store(1, Ordering::Relaxed); // lint: allow(relaxed): cpuid cache; detect() is pure so duplicate fills agree
    F16C.0.store(1, Ordering::Relaxed); // lint: allow(relaxed): cpuid cache; detect() is pure so duplicate fills agree
    PCLMUL.0.store(1, Ordering::Relaxed); // lint: allow(relaxed): cpuid cache; detect() is pure so duplicate fills agree
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_is_stable_and_consistent() {
        let a = have_avx2_fma();
        assert_eq!(a, have_avx2_fma(), "cached result must not flip");
        // F16C and AVX-512F imply the AVX2+FMA baseline by construction.
        if have_f16c() || have_avx512f() {
            assert!(have_avx2_fma());
        }
    }
}
