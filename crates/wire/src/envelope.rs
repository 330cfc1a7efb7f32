//! The envelope every protocol frame and every trace record travels in.
//!
//! ```text
//! ┌────────────┬──────────┬────────────┬─────────────┬──────────────┐
//! │ len u32 LE │ magic u8 │ version u8 │ body …      │ crc32 u32 LE │
//! └────────────┴──────────┴────────────┴─────────────┴──────────────┘
//!              └──────────────────── len bytes ─────────────────────┘
//! ```
//!
//! `len` counts the payload, magic through trailer, and never exceeds
//! [`MAX_FRAME_LEN`]. The CRC32 ([`crate::crc32`]) covers the magic byte
//! through the last body byte. Frames ([`crate::frame`], magic `0xC5`) and
//! trace records ([`crate::trace`], magic `0xC7`) differ only in their magic
//! byte, their version byte and what the body holds, so neither format has
//! envelope checks of its own: [`seal`] builds an envelope, and
//! [`payload_len`] and [`open`] check one on the way in.

use crate::crc32::crc32;
use crate::error::WireError;
use crate::frame::MAX_FRAME_LEN;

/// Magic, version, one tag byte and the trailer: the shortest payload either
/// format can hold.
const MIN_PAYLOAD_LEN: usize = 7;

/// Seals the body `encode` appends into complete wire bytes: length prefix,
/// `magic`, `version`, body, CRC32 trailer.
///
/// # Errors
///
/// [`WireError::FrameTooLarge`] if the payload exceeds [`MAX_FRAME_LEN`], so
/// an oversized envelope is refused before the caller writes any byte.
pub(crate) fn seal(
    magic: u8,
    version: u8,
    encode: impl FnOnce(&mut Vec<u8>),
) -> Result<Vec<u8>, WireError> {
    let mut wire = vec![0, 0, 0, 0, magic, version];
    encode(&mut wire);
    let crc = crc32(&wire[4..]);
    wire.extend_from_slice(&crc.to_le_bytes());
    let len = wire.len() - 4;
    if len > MAX_FRAME_LEN {
        return Err(WireError::FrameTooLarge { len: len as u64 });
    }
    let len = u32::try_from(len).expect("MAX_FRAME_LEN fits u32");
    wire[..4].copy_from_slice(&len.to_le_bytes());
    Ok(wire)
}

/// Reads a length prefix, refusing one above [`MAX_FRAME_LEN`] before the
/// caller allocates for the payload.
///
/// # Errors
///
/// [`WireError::FrameTooLarge`] for an oversized prefix.
pub(crate) fn payload_len(prefix: [u8; 4]) -> Result<usize, WireError> {
    let len = u32::from_le_bytes(prefix) as usize;
    if len > MAX_FRAME_LEN {
        return Err(WireError::FrameTooLarge { len: len as u64 });
    }
    Ok(len)
}

/// Opens a payload (the `len` bytes after the prefix) and returns its body:
/// the bytes between the version byte and the trailer.
///
/// The header is checked first, so a payload from another format or
/// version is named as such even when it is too short to be this one.
///
/// # Errors
///
/// [`WireError::BadMagic`] and [`WireError::UnsupportedVersion`] for a
/// header other than `magic`/`version`; [`WireError::Truncated`] for a
/// payload too short to hold magic, version, a tag and the trailer;
/// [`WireError::ChecksumMismatch`] when the trailer disagrees with the bytes
/// it covers.
pub(crate) fn open(payload: &[u8], magic: u8, version: u8) -> Result<&[u8], WireError> {
    match *payload {
        [found, ..] if found != magic => return Err(WireError::BadMagic { found }),
        [_, found, ..] if found != version => return Err(WireError::UnsupportedVersion { found }),
        _ if payload.len() < MIN_PAYLOAD_LEN => {
            return Err(WireError::Truncated {
                what: "envelope header and trailer",
            })
        }
        _ => {}
    }
    let split = payload.len() - 4;
    let found = u32::from_le_bytes(payload[split..].try_into().expect("4 bytes"));
    let expected = crc32(&payload[..split]);
    if found != expected {
        return Err(WireError::ChecksumMismatch { expected, found });
    }
    Ok(&payload[2..split])
}
