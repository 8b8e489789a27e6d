//! The CRC differential suite with dispatch forced to the scalar twin.
//!
//! `simd::force_scalar_for_testing` is irreversible for the process, so
//! this pass is a test binary of its own; the in-module suite in
//! `src/crc.rs` covers both twins called directly and the dispatcher as
//! this CPU selects it. Here the public entry points — everything the
//! wire and the checkpoint files call — are checked against a bit-at-a-
//! time oracle once the dispatcher can only take the portable path.

use simd::crc::{crc32, Crc32};

/// CRC32 straight from the polynomial: no tables, one bit per step.
fn oracle(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &byte in data {
        crc ^= byte as u32;
        for _ in 0..8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
        }
    }
    !crc
}

/// Deterministic filler (xorshift64*).
fn fill(seed: u64, out: &mut [u8]) {
    let mut s = seed | 1;
    for b in out {
        s ^= s >> 12;
        s ^= s << 25;
        s ^= s >> 27;
        *b = (s.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8;
    }
}

fn force_scalar() {
    simd::force_scalar_for_testing();
    assert!(!simd::have_pclmul(), "the dispatcher must now refuse the PCLMULQDQ twin");
}

#[test]
fn known_vectors() {
    force_scalar();
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(crc32(b""), 0);
}

#[test]
fn every_length_at_every_alignment() {
    force_scalar();
    let mut backing = vec![0u8; 512 + 16];
    fill(1, &mut backing);
    for align in 0..16 {
        for len in 0..=512 {
            let data = &backing[align..align + len];
            assert_eq!(crc32(data), oracle(data), "len {len} at alignment {align}");
        }
    }
}

#[test]
fn random_buffers_up_to_a_mebibyte() {
    force_scalar();
    let mut buf = vec![0u8; 1 << 20];
    fill(2, &mut buf);
    let mut s = 0x9E37_79B9u64;
    for len in [63usize, 64, 65, 4096, 5840, 65_537, 1 << 20].into_iter().chain((0..8).map(|_| {
        s = s.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        (s >> 44) as usize % (1 << 20)
    })) {
        let data = &buf[len % 7..len.max(len % 7)];
        assert_eq!(crc32(data), oracle(data), "len {len}");
    }
}

#[test]
fn update_composes_at_every_split() {
    force_scalar();
    let mut buf = [0u8; 300];
    fill(3, &mut buf);
    let whole = oracle(&buf);
    for split in 0..=buf.len() {
        let mut crc = Crc32::new();
        crc.update(&buf[..split]);
        crc.update(&buf[split..]);
        assert_eq!(crc.finish(), whole, "split at {split}");
    }
}

#[test]
fn single_bit_flips_in_a_frame_sized_buffer_are_detected() {
    force_scalar();
    let mut buf = vec![0u8; 2 << 20];
    fill(4, &mut buf);
    let n_bits = buf.len() * 8;
    let clean = crc32(&buf);
    assert_eq!(clean, oracle(&buf));
    for bit in [0, n_bits - 1].into_iter().chain((0..8).map(|i| i * (n_bits / 8) + i)) {
        buf[bit / 8] ^= 1 << (bit % 8);
        let flipped = crc32(&buf);
        assert_ne!(flipped, clean, "flip of bit {bit} undetected");
        assert_eq!(flipped, oracle(&buf), "bit {bit}");
        buf[bit / 8] ^= 1 << (bit % 8);
    }
}
