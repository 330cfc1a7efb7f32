//! Decoding and framing errors.
//!
//! Every way a byte stream can fail to parse maps to one [`WireError`]
//! variant; decoding never panics on untrusted input. The differential and
//! round-trip test batteries assert the *specific* variant, so error paths
//! are part of the wire contract, not an afterthought.

use std::fmt;
use std::io;

/// Everything that can go wrong while decoding wire bytes or reading frames.
#[derive(Debug)]
pub enum WireError {
    /// The input ended in the middle of a field or frame.
    Truncated {
        /// What was being decoded when the bytes ran out.
        what: &'static str,
    },
    /// An enum tag byte holds a value outside the tag table.
    BadTag {
        /// The type whose tag table was violated.
        what: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// The payload does not start with the expected magic byte:
    /// [`crate::frame::MAGIC`] for a frame, [`crate::TRACE_MAGIC`] for a
    /// trace record.
    BadMagic {
        /// The byte found where the magic byte belongs.
        found: u8,
    },
    /// The version byte is not the one version this build speaks
    /// ([`crate::WIRE_VERSION`] for a frame, [`crate::TRACE_VERSION`] for a
    /// trace record; see the versioning rules in `docs/WIRE.md`).
    UnsupportedVersion {
        /// The version byte found in the frame.
        found: u8,
    },
    /// A value decoded fine but left undecoded bytes behind — the encoding
    /// is self-delimiting, so trailing garbage means a framing bug.
    TrailingBytes {
        /// Number of bytes left unconsumed.
        remaining: usize,
    },
    /// A varint ran longer than the 10 bytes a `u64` can need.
    VarintOverflow,
    /// A length prefix exceeds [`crate::frame::MAX_FRAME_LEN`]
    /// (refused *before* allocating, so a corrupt prefix cannot trigger a
    /// multi-gigabyte allocation).
    FrameTooLarge {
        /// The declared payload length.
        len: u64,
    },
    /// The CRC32 trailer of a frame or trace record does not match its
    /// payload — some byte between the magic and the trailer was corrupted.
    ChecksumMismatch {
        /// The CRC32 recomputed over the received payload.
        expected: u32,
        /// The CRC32 carried in the frame trailer.
        found: u32,
    },
    /// The underlying transport failed.
    Io(io::Error),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { what } => write!(f, "input truncated while decoding {what}"),
            WireError::BadTag { what, tag } => write!(f, "invalid tag {tag:#04x} for {what}"),
            WireError::BadMagic { found } => {
                write!(
                    f,
                    "frame does not start with the magic byte (found {found:#04x})"
                )
            }
            WireError::UnsupportedVersion { found } => {
                write!(f, "unsupported wire format version {found}")
            }
            WireError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing byte(s) after a complete value")
            }
            WireError::VarintOverflow => write!(f, "varint longer than 10 bytes (u64 overflow)"),
            WireError::FrameTooLarge { len } => write!(
                f,
                "frame length {len} exceeds the {} byte limit",
                crate::frame::MAX_FRAME_LEN
            ),
            WireError::ChecksumMismatch { expected, found } => write!(
                f,
                "frame checksum mismatch: computed {expected:#010x}, trailer says {found:#010x}"
            ),
            WireError::Io(e) => write!(f, "transport i/o error: {e}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let cases: Vec<(WireError, &str)> = vec![
            (WireError::Truncated { what: "Filter" }, "Filter"),
            (
                WireError::BadTag {
                    what: "NodeGroup",
                    tag: 9,
                },
                "0x09",
            ),
            (WireError::BadMagic { found: 0x00 }, "magic"),
            (WireError::UnsupportedVersion { found: 7 }, "version 7"),
            (WireError::TrailingBytes { remaining: 3 }, "3 trailing"),
            (WireError::VarintOverflow, "varint"),
            (WireError::FrameTooLarge { len: 1 << 40 }, "limit"),
            (
                WireError::ChecksumMismatch {
                    expected: 0xDEAD_BEEF,
                    found: 0,
                },
                "0xdeadbeef",
            ),
            (
                WireError::Io(io::Error::new(io::ErrorKind::BrokenPipe, "gone")),
                "gone",
            ),
        ];
        for (err, needle) in cases {
            let s = err.to_string();
            assert!(s.contains(needle), "{s:?} should mention {needle:?}");
        }
    }

    #[test]
    fn io_errors_keep_their_source() {
        let err = WireError::from(io::Error::new(io::ErrorKind::UnexpectedEof, "eof"));
        assert!(std::error::Error::source(&err).is_some());
        assert!(std::error::Error::source(&WireError::VarintOverflow).is_none());
    }
}
