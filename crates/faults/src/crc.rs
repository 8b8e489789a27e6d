//! CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320) checksums.
//!
//! The transport tails every frame with the checksum of its header and
//! payload; a bit-flip in flight — injected or real — makes the
//! decoder's recomputation disagree, the frame is dropped, and the
//! reliability protocol resends it instead of silently averaging
//! garbage into the gradients. The kernels (PCLMULQDQ folding, with a
//! portable slice-by-16 twin) live in [`simd::crc`]; this module is
//! the name the rest of the stack knows them by.

/// A running CRC32 (`new` / `update` / `finish`) for checksumming
/// pieces that do not lie contiguously — a frame's header and payload.
pub use simd::crc::Crc32;

/// CRC32 of raw bytes.
pub fn crc32_bytes(data: &[u8]) -> u32 {
    simd::crc::crc32(data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard CRC32 check value for "123456789".
        assert_eq!(crc32_bytes(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytes(b""), 0);
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        let clean = vec![0x3Eu8; 256];
        let base = crc32_bytes(&clean);
        for byte in [0usize, 70, 255] {
            for bit in [0u32, 5, 7] {
                let mut bad = clean.clone();
                bad[byte] ^= 1 << bit;
                assert_ne!(crc32_bytes(&bad), base, "flip byte {byte} bit {bit} undetected");
            }
        }
    }
}
