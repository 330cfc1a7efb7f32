//! CRC32 (IEEE 802.3, reflected) for the envelope's integrity trailer.
//!
//! Every frame and every trace record ends with a 4-byte little-endian CRC32
//! of its payload (magic byte through the last body byte), so that a flipped
//! bit inside a body is caught at the receiver instead of silently
//! corrupting a decoded value whose varint happens to stay parseable. The polynomial is
//! the standard reflected `0xEDB88320` used by zlib, Ethernet and PNG, so
//! captures of the stream can be checked with off-the-shelf tooling.
//!
//! The byte-at-a-time table is built at compile time; the hot path is one
//! table lookup and one xor per byte, which is noise next to the socket I/O
//! that surrounds it.

/// Builds the reflected CRC32 lookup table at compile time.
const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

const TABLE: [u32; 256] = build_table();

/// Computes the CRC32 (IEEE, reflected, init/xorout `0xFFFFFFFF`) of `bytes`.
///
/// ```
/// // The canonical check value for this CRC variant.
/// assert_eq!(topk_wire::crc32::crc32(b"123456789"), 0xCBF4_3926);
/// ```
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn single_bit_flips_change_the_checksum() {
        let base = b"frame payload bytes".to_vec();
        let reference = crc32(&base);
        for i in 0..base.len() {
            for bit in 0..8 {
                let mut corrupted = base.clone();
                corrupted[i] ^= 1 << bit;
                assert_ne!(crc32(&corrupted), reference, "byte {i} bit {bit}");
            }
        }
    }
}
