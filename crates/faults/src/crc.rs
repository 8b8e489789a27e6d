//! CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320) checksums.
//!
//! The transport tails every frame with the checksum of its header and
//! payload; a bit-flip in flight — injected or real — makes the
//! decoder's recomputation disagree, the frame is dropped, and the
//! reliability protocol resends it instead of silently averaging
//! garbage into the gradients. The table is built at compile time — no
//! lazy init on the message path.

/// The 256-entry lookup table, computed in a `const` context.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC32 of raw bytes.
pub fn crc32_bytes(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
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
