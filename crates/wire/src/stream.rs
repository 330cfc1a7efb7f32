//! Resumable frame reading for sockets with read timeouts.
//!
//! A reader that gives up on a read timeout mid-frame *loses* the bytes
//! already consumed and permanently desynchronises the stream. The retrying
//! coordinator needs to time out waiting for a reply, send a poll, and then
//! keep reading the *same* stream — which requires a reader that can park a
//! partial frame across timeouts.
//!
//! [`FrameAccumulator`] is that reader: it buffers whatever bytes have
//! arrived, returns `Ok(None)` when the transport reports
//! [`WouldBlock`](std::io::ErrorKind::WouldBlock) /
//! [`TimedOut`](std::io::ErrorKind::TimedOut), and resumes exactly where it
//! left off on the next call. [`read_frame`](crate::read_frame) is this
//! reader run to completion on a blocking stream, so the two share every
//! check: the length bound, magic, version and CRC32 of the envelope
//! (`envelope.rs`), then the strict body decode.

use crate::codec::from_bytes;
use crate::envelope::{open, payload_len};
use crate::error::WireError;
use crate::frame::{Frame, MAGIC, WIRE_VERSION};
use std::io::{ErrorKind, Read};

/// Incremental frame reader that survives read timeouts (see module docs).
#[derive(Debug, Default)]
pub struct FrameAccumulator {
    /// Bytes of the in-progress frame: length prefix, then payload.
    buf: Vec<u8>,
    /// Bytes of `buf` filled so far.
    filled: usize,
}

impl FrameAccumulator {
    /// Creates an empty accumulator.
    pub fn new() -> FrameAccumulator {
        FrameAccumulator::default()
    }

    /// Reads from `r` until one complete frame is available or the transport
    /// blocks. Returns the frame and its total wire size (including the
    /// 4-byte length prefix), or `Ok(None)` if `r` reported a timeout
    /// ([`WouldBlock`](ErrorKind::WouldBlock) / [`TimedOut`](ErrorKind::TimedOut))
    /// before the frame completed — call again later to resume; no bytes are
    /// lost. [`Interrupted`](ErrorKind::Interrupted) reads are retried
    /// internally.
    ///
    /// # Errors
    ///
    /// [`WireError::FrameTooLarge`] for an oversized length prefix,
    /// [`WireError::Truncated`] for a payload too short to hold a frame,
    /// [`WireError::BadMagic`] / [`WireError::UnsupportedVersion`] for a
    /// header other than [`MAGIC`] / [`WIRE_VERSION`],
    /// [`WireError::ChecksumMismatch`] for a payload its trailer disagrees
    /// with, any decoding error for a corrupt body, and [`WireError::Io`]
    /// with [`UnexpectedEof`](ErrorKind::UnexpectedEof) if the stream ends
    /// (cleanly or mid-frame).
    pub fn read_frame(&mut self, r: &mut impl Read) -> Result<Option<(Frame, usize)>, WireError> {
        // Phase 1: the 4-byte length prefix.
        if self.filled < 4 {
            self.buf.resize(4, 0);
            if !self.fill(r, 4)? {
                return Ok(None);
            }
            let len = payload_len(self.buf[..4].try_into().expect("4 bytes"))?;
            self.buf.resize(4 + len, 0);
        }
        // Phase 2: the payload (possibly too short to open — then `open`
        // refuses it as truncated).
        let total = self.buf.len();
        if !self.fill(r, total)? {
            return Ok(None);
        }
        let frame = open(&self.buf[4..], MAGIC, WIRE_VERSION).and_then(from_bytes::<Frame>);
        self.buf.clear();
        self.filled = 0;
        frame.map(|f| Some((f, total)))
    }

    /// Fills `buf` up to `target` bytes. Returns `false` if the transport
    /// blocked first (partial progress is kept in `filled`).
    fn fill(&mut self, r: &mut impl Read, target: usize) -> Result<bool, WireError> {
        while self.filled < target {
            match r.read(&mut self.buf[self.filled..target]) {
                Ok(0) => {
                    return Err(WireError::Io(std::io::Error::new(
                        ErrorKind::UnexpectedEof,
                        if self.filled == 0 {
                            "stream closed between frames"
                        } else {
                            "stream closed mid-frame"
                        },
                    )))
                }
                Ok(n) => self.filled += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    return Ok(false)
                }
                Err(e) => return Err(WireError::Io(e)),
            }
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::write_frame;
    use std::io;

    /// A reader that hands out its bytes in `chunk`-sized dribbles and
    /// reports a timeout between chunks, like a socket with a short read
    /// timeout receiving a slowly-arriving frame.
    struct Dribble {
        data: Vec<u8>,
        pos: usize,
        chunk: usize,
        ready: bool,
    }

    impl Read for Dribble {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            if !self.ready {
                self.ready = true;
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "not yet"));
            }
            self.ready = false;
            let n = self.chunk.min(out.len()).min(self.data.len() - self.pos);
            if n == 0 {
                return Ok(0);
            }
            out[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    fn sample_frames() -> (Vec<Frame>, Vec<u8>) {
        let frames = vec![
            Frame::Join { shard: 3 },
            Frame::Poll { seq: 41 },
            Frame::Replies {
                seq: 41,
                replies: Vec::new(),
                idle: true,
            },
            Frame::Shutdown,
        ];
        let mut wire = Vec::new();
        for f in &frames {
            write_frame(&mut wire, f).unwrap();
        }
        (frames, wire)
    }

    #[test]
    fn accumulator_reassembles_dribbled_frames_across_timeouts() {
        let (frames, wire) = sample_frames();
        for chunk in [1, 2, 3, 7, 64] {
            let mut r = Dribble {
                data: wire.clone(),
                pos: 0,
                chunk,
                ready: false,
            };
            let mut acc = FrameAccumulator::new();
            let mut got = Vec::new();
            let mut timeouts = 0u32;
            while got.len() < frames.len() {
                match acc.read_frame(&mut r).unwrap() {
                    Some((frame, size)) => {
                        assert!(size >= 4 + 3, "wire size includes the prefix");
                        got.push(frame);
                    }
                    None => timeouts += 1,
                }
                assert!(timeouts < 10_000, "no forward progress");
            }
            assert_eq!(got, frames, "chunk size {chunk}");
            assert!(timeouts > 0, "the dribbler must have blocked at least once");
        }
    }

    #[test]
    fn accumulator_matches_blocking_reader_on_whole_streams() {
        let (frames, wire) = sample_frames();
        let mut cursor = &wire[..];
        let mut acc = FrameAccumulator::new();
        for expected in &frames {
            let (frame, size) = acc.read_frame(&mut cursor).unwrap().unwrap();
            assert_eq!(&frame, expected);
            let mut check = &wire[wire.len() - cursor.len() - size..];
            let (again, again_size) = crate::read_frame(&mut check).unwrap();
            assert_eq!(again, frame);
            assert_eq!(again_size, size);
        }
    }

    #[test]
    fn eof_mid_frame_is_an_error_not_a_timeout() {
        let (_, wire) = sample_frames();
        let mut cursor = &wire[..6]; // prefix + 2 payload bytes
        let mut acc = FrameAccumulator::new();
        match acc.read_frame(&mut cursor) {
            Err(WireError::Io(e)) => assert_eq!(e.kind(), ErrorKind::UnexpectedEof),
            other => panic!("expected mid-frame EOF error, got {other:?}"),
        }
    }

    #[test]
    fn oversized_prefix_is_refused_without_buffering_the_body() {
        let mut wire = (u32::MAX).to_le_bytes().to_vec();
        wire.extend_from_slice(&[0; 8]);
        let mut acc = FrameAccumulator::new();
        assert!(matches!(
            acc.read_frame(&mut &wire[..]),
            Err(WireError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn corrupt_payloads_fail_like_the_blocking_reader() {
        let (_, mut wire) = sample_frames();
        wire[4] = 0x00; // first frame's magic byte
        let mut acc = FrameAccumulator::new();
        assert!(matches!(
            acc.read_frame(&mut &wire[..]),
            Err(WireError::BadMagic { found: 0x00 })
        ));
    }
}
