//! LEB128 variable-length integers — the only scalar primitive on the wire.
//!
//! Every number in the wire format (values, node ids, counts, rounds) is an
//! unsigned LEB128 varint: 7 payload bits per byte, high bit = continuation.
//! Small numbers — the common case everywhere in the model, where a message
//! carries `O(log(n·Δ))` bits by design — cost one byte; a full `u64` costs
//! at most ten. Signed values never appear in the model (`v ∈ ℕ`), so there
//! is no zig-zag variant.

use crate::codec::Reader;
use crate::error::WireError;

/// Maximum number of bytes a `u64` varint can occupy (`⌈64 / 7⌉`).
pub const MAX_VARINT_LEN: usize = 10;

/// Appends `v` to `buf` as a LEB128 varint (1–10 bytes).
pub fn write_u64(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Number of bytes [`write_u64`] spends on `v` (1–10), without encoding it.
pub fn encoded_len(v: u64) -> usize {
    let bits = 64 - (v | 1).leading_zeros() as usize;
    bits.div_ceil(7)
}

/// Reads a LEB128 varint from `r`.
///
/// # Errors
///
/// [`WireError::Truncated`] if the input ends mid-varint,
/// [`WireError::VarintOverflow`] if the encoding runs past 10 bytes or sets
/// bits above the 64th (non-canonical overlong encodings of in-range values
/// are accepted, matching LEB128 practice).
pub fn read_u64(r: &mut Reader<'_>) -> Result<u64, WireError> {
    let mut value: u64 = 0;
    for i in 0..MAX_VARINT_LEN {
        let byte = r.u8("varint")?;
        let payload = u64::from(byte & 0x7f);
        // The 10th byte may only contribute the single bit that completes 64.
        if i == MAX_VARINT_LEN - 1 && payload > 1 {
            return Err(WireError::VarintOverflow);
        }
        value |= payload << (7 * i);
        if byte & 0x80 == 0 {
            return Ok(value);
        }
    }
    Err(WireError::VarintOverflow)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: u64) -> usize {
        let mut buf = Vec::new();
        write_u64(&mut buf, v);
        let mut r = Reader::new(&buf);
        assert_eq!(read_u64(&mut r).unwrap(), v);
        assert!(r.is_empty());
        assert_eq!(encoded_len(v), buf.len(), "encoded_len({v})");
        buf.len()
    }

    #[test]
    fn encoded_len_matches_the_encoder_at_every_width() {
        for shift in 0..64 {
            let v = 1u64 << shift;
            roundtrip(v - 1);
            roundtrip(v);
            roundtrip(v | (v >> 1));
        }
    }

    #[test]
    fn boundary_values_roundtrip_at_expected_lengths() {
        assert_eq!(roundtrip(0), 1);
        assert_eq!(roundtrip(127), 1);
        assert_eq!(roundtrip(128), 2);
        assert_eq!(roundtrip(16_383), 2);
        assert_eq!(roundtrip(16_384), 3);
        assert_eq!(roundtrip(u64::from(u32::MAX)), 5);
        assert_eq!(roundtrip(u64::MAX), 10);
    }

    #[test]
    fn truncated_varint_is_detected() {
        let mut buf = Vec::new();
        write_u64(&mut buf, u64::MAX);
        for cut in 0..buf.len() {
            let mut r = Reader::new(&buf[..cut]);
            assert!(matches!(read_u64(&mut r), Err(WireError::Truncated { .. })));
        }
    }

    #[test]
    fn overlong_and_overflowing_varints_are_rejected() {
        // Eleven continuation bytes: too long for any u64.
        let mut r = Reader::new(&[0x80; 11]);
        assert!(matches!(read_u64(&mut r), Err(WireError::VarintOverflow)));
        // Ten bytes whose last byte sets bits above the 64th.
        let mut bytes = [0x80u8; 10];
        bytes[9] = 0x02;
        let mut r = Reader::new(&bytes);
        assert!(matches!(read_u64(&mut r), Err(WireError::VarintOverflow)));
        // u64::MAX itself still decodes (last byte is exactly 0x01).
        let mut buf = Vec::new();
        write_u64(&mut buf, u64::MAX);
        assert_eq!(buf.len(), 10);
        assert_eq!(buf[9], 0x01);
    }
}
