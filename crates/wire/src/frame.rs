//! The transport frame: length prefix, header, batched messages.
//!
//! A frame is the unit one socket write/read moves:
//!
//! ```text
//! ┌────────────┬──────────┬────────────┬─────────┬────────┬──────────────┐
//! │ len u32 LE │ magic u8 │ version u8 │ kind u8 │ body … │ crc32 u32 LE │
//! └────────────┴──────────┴────────────┴─────────┴────────┴──────────────┘
//!              └─────────────────────── len bytes ───────────────────────┘
//! ```
//!
//! Every frame travels in the envelope that trace records share
//! (`envelope.rs`): `len` counts the payload, magic through trailer, and is
//! bounded by [`MAX_FRAME_LEN`] so a corrupt prefix can never trigger an
//! absurd allocation; the magic byte catches stream desynchronisation
//! immediately; the CRC32 trailer ([`crate::crc32`]) catches a flipped bit
//! anywhere from the magic byte to the last body byte. The version byte is
//! always [`WIRE_VERSION`]: both ends of a connection are built from the same
//! source, so there is nothing to negotiate, and a frame at any other
//! version is refused with [`WireError::UnsupportedVersion`] (see the
//! versioning rules in `docs/WIRE.md`).
//!
//! One frame batches many model messages: an observation row for a whole
//! node range, a broadcast plus the round schedule, or all replies of an
//! existence round travel as a single frame. The *model* cost accounting is
//! untouched by batching — it is charged by the server per model message,
//! exactly as the in-process engines charge it.
//!
//! Frame kinds (tag byte after the version):
//!
//! | tag | frame | direction | body |
//! |-----|-------|-----------|------|
//! | 0 | [`Frame::Join`] | node → server | shard index |
//! | 1 | [`Frame::Batch`] | server → node | flags (bit 0 = reply wanted), seq, op count, [`ServerOp`]s |
//! | 2 | [`Frame::Replies`] | node → server | seq, reply count, [`NodeMessage`]s, idle byte when set |
//! | 3 | [`Frame::Shutdown`] | server → node | empty |
//! | 4 | [`Frame::Poll`] | server → node | seq |
//! | 5 | [`Frame::Leave`] | node → server | shard index |
//!
//! The `seq` number pairs each reply with the `wants_reply` batch that asked
//! for it, which is what makes retries safe on a lossy transport: if a
//! `Replies` frame is lost, the server re-requests it with a [`Frame::Poll`]
//! carrying the same `seq`, and a duplicate answer (original and poll answer
//! both arriving) is recognised by its stale `seq` and discarded instead of
//! being mistaken for the answer to the *next* round.
//!
//! A [`Frame::Replies`] may carry the *idle signal*: the batch was an
//! existence round and none of the shard's nodes satisfies its predicate.
//! It is one trailing byte (`1`) after the replies, written only when the
//! signal is set. Both sides are strict: a trailing byte other than `1`, or
//! the signal on a non-empty reply, is a typed [`WireError`] from the decoder
//! and is refused by [`write_frame`] before any byte is written. The
//! coordinator uses the signal to skip idle shards for the rest of an
//! existence run (`docs/WIRE.md`, "Idle shards").
//!
//! [`ServerOp`] tags: 0 `ObserveRow`, 1 `ObserveSparse`, 2 `Unicast`,
//! 3 `Broadcast`, 4 `Membership`.
//!
//! [`NodeMessage`]: topk_model::message::NodeMessage

use crate::codec::{Reader, WireDecode, WireEncode};
use crate::envelope::seal;
use crate::error::WireError;
use crate::stream::FrameAccumulator;
use crate::varint;
use std::io::{ErrorKind, Read, Write};
use topk_model::prelude::*;

/// First payload byte of every frame; catches desynchronised streams.
pub const MAGIC: u8 = 0xC5;

/// The wire format version: the only one this build writes or reads. Bump
/// on any change to the frame layout, a field or a tag table (`docs/WIRE.md`,
/// "Versioning rules").
pub const WIRE_VERSION: u8 = 6;

/// Upper bound on the payload length of a single frame or trace record
/// (16 MiB).
///
/// A dense observation row for 10⁶ nodes of near-maximal values is ~10 MB,
/// so this accommodates every frame the engines produce while keeping the
/// damage of a corrupt length prefix bounded.
pub const MAX_FRAME_LEN: usize = 16 << 20;

/// One batched operation inside a [`Frame::Batch`].
///
/// The observation variants exist because delivering a time step as `n`
/// individual `Unicast` messages would be absurd on a real transport — the
/// model treats observations as local and free, so the transport ships them
/// as bulk payloads. The unicast/broadcast variants carry exactly the model
/// messages of [`ServerMessage`], one model cost unit each (charged by the
/// server, not by this crate).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerOp {
    /// Dense observation delivery: `values[i]` is the new value of node
    /// `start + i`. Used by `advance_time` for each shard's contiguous range.
    ObserveRow {
        /// First node id of the contiguous range.
        start: NodeId,
        /// One value per node in the range.
        values: Vec<Value>,
    },
    /// Sparse observation delivery: only the listed nodes observe new values.
    ObserveSparse {
        /// `(node, value)` pairs, in ascending node order.
        changes: Vec<(NodeId, Value)>,
    },
    /// A server → single-node model message (1 downstream-unicast cost unit).
    Unicast {
        /// The receiving node.
        node: NodeId,
        /// The message payload.
        msg: ServerMessage,
    },
    /// A server → all-nodes model message (1 broadcast cost unit; existence
    /// rounds ride this variant and are charged per the Lemma 3.1 schedule).
    Broadcast {
        /// The message payload, delivered to every node of the shard.
        msg: ServerMessage,
    },
    /// Population churn delivery: the membership events of one step, applied
    /// by the shard client to the slots it hosts. Free at the model layer —
    /// only the recovery replay a `Join` triggers is charged, and the server
    /// charges it, exactly as the in-process engines do.
    Membership {
        /// The events, applied in order.
        events: Vec<MembershipEvent>,
    },
}

impl WireEncode for ServerOp {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            ServerOp::ObserveRow { start, values } => {
                buf.push(0);
                start.encode(buf);
                varint::write_u64(buf, values.len() as u64);
                for &v in values {
                    varint::write_u64(buf, v);
                }
            }
            ServerOp::ObserveSparse { changes } => {
                buf.push(1);
                varint::write_u64(buf, changes.len() as u64);
                for &(node, v) in changes {
                    node.encode(buf);
                    varint::write_u64(buf, v);
                }
            }
            ServerOp::Unicast { node, msg } => {
                buf.push(2);
                node.encode(buf);
                msg.encode(buf);
            }
            ServerOp::Broadcast { msg } => {
                buf.push(3);
                msg.encode(buf);
            }
            ServerOp::Membership { events } => {
                buf.push(4);
                varint::write_u64(buf, events.len() as u64);
                for event in events {
                    event.encode(buf);
                }
            }
        }
    }
}

/// Reads an element count, refusing counts that cannot possibly fit in the
/// remaining input (each element is at least one byte) — so a corrupt count
/// fails fast instead of driving a huge allocation.
fn read_count(r: &mut Reader<'_>, what: &'static str) -> Result<usize, WireError> {
    let count = r.u64()?;
    let count = usize::try_from(count).map_err(|_| WireError::Truncated { what })?;
    if count > r.remaining() {
        return Err(WireError::Truncated { what });
    }
    Ok(count)
}

impl WireDecode for ServerOp {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8("ServerOp")? {
            0 => {
                let start = NodeId::decode(r)?;
                let count = read_count(r, "ObserveRow values")?;
                let mut values = Vec::with_capacity(count);
                for _ in 0..count {
                    values.push(r.u64()?);
                }
                Ok(ServerOp::ObserveRow { start, values })
            }
            1 => {
                let count = read_count(r, "ObserveSparse changes")?;
                let mut changes = Vec::with_capacity(count);
                for _ in 0..count {
                    changes.push((NodeId::decode(r)?, r.u64()?));
                }
                Ok(ServerOp::ObserveSparse { changes })
            }
            2 => Ok(ServerOp::Unicast {
                node: NodeId::decode(r)?,
                msg: ServerMessage::decode(r)?,
            }),
            3 => Ok(ServerOp::Broadcast {
                msg: ServerMessage::decode(r)?,
            }),
            4 => {
                let count = read_count(r, "Membership events")?;
                let mut events = Vec::with_capacity(count);
                for _ in 0..count {
                    events.push(MembershipEvent::decode(r)?);
                }
                Ok(ServerOp::Membership { events })
            }
            tag => Err(WireError::BadTag {
                what: "ServerOp",
                tag,
            }),
        }
    }
}

/// A complete transport frame (see the module docs for the layout).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Client handshake: "I host shard `shard`". Sent once per connection,
    /// immediately after connecting, so the server can map accepted
    /// connections to node ranges regardless of accept order.
    Join {
        /// The shard index this connection hosts.
        shard: u32,
    },
    /// A batch of server operations for one shard.
    Batch {
        /// Whether the server will block for a [`Frame::Replies`] answer.
        /// Pure command batches (filter updates, observations) are
        /// fire-and-forget — TCP ordering guarantees nodes process them
        /// before any later round.
        wants_reply: bool,
        /// Request sequence number echoed by the matching [`Frame::Replies`].
        /// Strictly increasing per connection for `wants_reply` batches;
        /// fire-and-forget batches carry 0.
        seq: u64,
        /// The operations, applied in order.
        ops: Vec<ServerOp>,
    },
    /// The upstream answer to a `wants_reply` batch: every model message the
    /// shard's nodes produced, in ascending node-id order. May be empty — an
    /// empty reply frame is how a silent existence round looks on the wire.
    Replies {
        /// The `seq` of the [`Frame::Batch`] this answers. Lets the server
        /// discard duplicate answers after a [`Frame::Poll`] retry.
        seq: u64,
        /// The node messages, in ascending node-id order.
        replies: Vec<NodeMessage>,
        /// The idle signal: the batch was an existence round and *no* node
        /// of the shard satisfies its predicate, so none replied and none
        /// drew randomness. Always `false` with replies present.
        idle: bool,
    },
    /// Orderly connection shutdown (server → node).
    Shutdown,
    /// Retry request (server → node): "re-send the [`Frame::Replies`] for
    /// `seq`". Sent when the answer to a `wants_reply` batch did not arrive
    /// within the server's deadline; the client answers from its retained
    /// copy of the last reply. One model downstream-unicast cost unit,
    /// charged by the server under the recovery label.
    Poll {
        /// The sequence number of the missing reply.
        seq: u64,
    },
    /// Orderly departure announcement (node → server): the shard client is
    /// closing its connection on purpose. Lets the server tell a deliberate
    /// goodbye from a crashed connection — only the latter is eligible for
    /// the reconnect/backoff path.
    Leave {
        /// The shard index that is departing.
        shard: u32,
    },
}

impl WireEncode for Frame {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Frame::Join { shard } => {
                buf.push(0);
                varint::write_u64(buf, u64::from(*shard));
            }
            Frame::Batch {
                wants_reply,
                seq,
                ops,
            } => {
                buf.push(1);
                buf.push(u8::from(*wants_reply));
                varint::write_u64(buf, *seq);
                varint::write_u64(buf, ops.len() as u64);
                for op in ops {
                    op.encode(buf);
                }
            }
            Frame::Replies { seq, replies, idle } => {
                buf.push(2);
                varint::write_u64(buf, *seq);
                varint::write_u64(buf, replies.len() as u64);
                for reply in replies {
                    reply.encode(buf);
                }
                // Absent unless set: a frame without the signal ends after
                // its replies.
                if *idle {
                    buf.push(1);
                }
            }
            Frame::Shutdown => buf.push(3),
            Frame::Poll { seq } => {
                buf.push(4);
                varint::write_u64(buf, *seq);
            }
            Frame::Leave { shard } => {
                buf.push(5);
                varint::write_u64(buf, u64::from(*shard));
            }
        }
    }
}

impl WireDecode for Frame {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8("Frame")? {
            0 => {
                let shard = r.u64()?;
                u32::try_from(shard)
                    .map(|shard| Frame::Join { shard })
                    .map_err(|_| WireError::BadTag {
                        what: "Frame::Join shard (exceeds u32)",
                        tag: 0,
                    })
            }
            1 => {
                let flags = r.u8("Frame::Batch flags")?;
                if flags > 1 {
                    return Err(WireError::BadTag {
                        what: "Frame::Batch flags",
                        tag: flags,
                    });
                }
                let seq = r.u64()?;
                let count = read_count(r, "Frame::Batch ops")?;
                let mut ops = Vec::with_capacity(count);
                for _ in 0..count {
                    ops.push(ServerOp::decode(r)?);
                }
                Ok(Frame::Batch {
                    wants_reply: flags == 1,
                    seq,
                    ops,
                })
            }
            2 => {
                let seq = r.u64()?;
                let count = read_count(r, "Frame::Replies")?;
                let mut replies = Vec::with_capacity(count);
                for _ in 0..count {
                    replies.push(NodeMessage::decode(r)?);
                }
                // The frame length prefix delimits the body, so the idle
                // byte's absence is unambiguous.
                let idle = r.remaining() > 0;
                if idle {
                    let flag = r.u8("Frame::Replies idle flag")?;
                    if flag != 1 {
                        return Err(WireError::BadTag {
                            what: "Frame::Replies idle flag",
                            tag: flag,
                        });
                    }
                    if !replies.is_empty() {
                        return Err(IDLE_WITH_REPLIES);
                    }
                }
                Ok(Frame::Replies { seq, replies, idle })
            }
            3 => Ok(Frame::Shutdown),
            4 => Ok(Frame::Poll { seq: r.u64()? }),
            5 => {
                let shard = r.u64()?;
                u32::try_from(shard)
                    .map(|shard| Frame::Leave { shard })
                    .map_err(|_| WireError::BadTag {
                        what: "Frame::Leave shard (exceeds u32)",
                        tag: 5,
                    })
            }
            tag => Err(WireError::BadTag { what: "Frame", tag }),
        }
    }
}

/// The idle signal on a reply that carries messages: refused by the decoder
/// and, before any byte is written, by [`write_frame`].
const IDLE_WITH_REPLIES: WireError = WireError::BadTag {
    what: "Frame::Replies idle flag on a non-empty reply",
    tag: 1,
};

/// Writes one frame (length prefix, header, body, CRC32 trailer) at
/// [`WIRE_VERSION`] and flushes.
///
/// Returns the total number of bytes put on the wire, including the length
/// prefix — the quantity the throughput harness's bytes-per-step metric
/// sums.
///
/// # Errors
///
/// Refused before any byte hits the wire, so the failure surfaces here as a
/// typed error rather than as a bogus corrupt-stream diagnostic on the
/// receiving peer: [`WireError::FrameTooLarge`] if the encoded payload
/// exceeds [`MAX_FRAME_LEN`], and [`WireError::BadTag`] for a frame the
/// decoder would refuse (the idle signal on a non-empty reply). Otherwise
/// propagates transport errors from the writer.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> Result<usize, WireError> {
    if matches!(frame, Frame::Replies { idle: true, replies, .. } if !replies.is_empty()) {
        return Err(IDLE_WITH_REPLIES);
    }
    let wire = seal(MAGIC, WIRE_VERSION, |buf| frame.encode(buf))?;
    w.write_all(&wire)?;
    w.flush()?;
    Ok(wire.len())
}

/// Reads one complete frame from a blocking reader: a [`FrameAccumulator`]
/// run to completion, so both readers share every check.
///
/// Returns the frame and the total bytes consumed (including the prefix).
///
/// # Errors
///
/// The errors of [`FrameAccumulator::read_frame`]; a reader that times out
/// before the frame completes is [`WireError::Io`] with
/// [`TimedOut`](ErrorKind::TimedOut), and the partial frame is lost — use a
/// [`FrameAccumulator`] to survive timeouts.
pub fn read_frame(r: &mut impl Read) -> Result<(Frame, usize), WireError> {
    FrameAccumulator::new().read_frame(r)?.ok_or_else(|| {
        WireError::Io(std::io::Error::new(
            ErrorKind::TimedOut,
            "read timed out before the frame completed",
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crc32::crc32;
    use proptest::prelude::*;
    use topk_model::message::ExistencePredicate;

    fn roundtrip_frame(frame: &Frame) {
        let mut wire = Vec::new();
        let written = write_frame(&mut wire, frame).unwrap();
        assert_eq!(written, wire.len());
        let mut cursor = &wire[..];
        let (back, consumed) = read_frame(&mut cursor).unwrap();
        assert_eq!(&back, frame);
        assert_eq!(consumed, written);
        assert!(cursor.is_empty());
        // Every strict prefix of the wire bytes fails (EOF or truncation).
        for cut in 0..wire.len() {
            let mut cursor = &wire[..cut];
            assert!(read_frame(&mut cursor).is_err(), "prefix {cut} decoded");
        }
    }

    fn sample_ops(x: u64, y: u64) -> Vec<ServerOp> {
        vec![
            ServerOp::ObserveRow {
                start: NodeId((x % 1000) as usize),
                values: vec![x, y, x ^ y, 0, u64::MAX],
            },
            ServerOp::ObserveSparse {
                changes: vec![(NodeId(1), x), (NodeId((y % 100) as usize), y)],
            },
            ServerOp::Unicast {
                node: NodeId(3),
                msg: ServerMessage::Probe,
            },
            ServerOp::Unicast {
                node: NodeId(5),
                msg: ServerMessage::AssignQueryFilter {
                    query: QueryId((x % 128) as u32),
                    filter: Filter::at_least(y),
                },
            },
            ServerOp::Broadcast {
                msg: ServerMessage::ExistenceRound {
                    round: (x % 33) as u32,
                    population: (y % 1_000_000) as u32,
                    predicate: ExistencePredicate::GreaterThan(x),
                },
            },
            ServerOp::Membership {
                events: vec![
                    MembershipEvent::Leave(NodeId((x % 64) as usize)),
                    MembershipEvent::Join(NodeId((y % 64) as usize)),
                ],
            },
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Frames of every kind survive the write → read loop and reject all
        /// strict byte prefixes; the one frame the decoder refuses is refused
        /// by the writer too.
        #[test]
        fn frames_roundtrip(x in 0u64..u64::MAX, y in 0u64..u64::MAX, shard in 0u32..4096) {
            roundtrip_frame(&Frame::Join { shard });
            roundtrip_frame(&Frame::Leave { shard });
            roundtrip_frame(&Frame::Shutdown);
            roundtrip_frame(&Frame::Poll { seq: x });
            roundtrip_frame(&Frame::Batch { wants_reply: x % 2 == 0, seq: y, ops: sample_ops(x, y) });
            roundtrip_frame(&Frame::Batch { wants_reply: true, seq: 0, ops: Vec::new() });
            roundtrip_frame(&Frame::Replies { seq: x, replies: vec![
                NodeMessage::ValueReport { node: NodeId((x % 9999) as usize), value: y },
                NodeMessage::ViolationReport {
                    node: NodeId(0),
                    value: x,
                    direction: Violation::FromAbove,
                },
            ], idle: false });
            roundtrip_frame(&Frame::Replies { seq: u64::MAX, replies: Vec::new(), idle: false });
            roundtrip_frame(&Frame::Replies { seq: y, replies: Vec::new(), idle: true });
            // The idle signal on a reply that carries a message.
            let idle_with_reply = Frame::Replies {
                seq: y,
                replies: vec![NodeMessage::ExistenceResponse { node: NodeId((x % 9999) as usize), value: x }],
                idle: true,
            };
            let mut wire = Vec::new();
            prop_assert!(matches!(
                write_frame(&mut wire, &idle_with_reply),
                Err(WireError::BadTag { .. })
            ));
            prop_assert!(wire.is_empty(), "no bytes may precede the error");
        }

        /// Any single corrupt byte of an idle reply after the header trips
        /// the checksum — the signal is covered like every other body byte.
        #[test]
        fn corrupted_idle_replies_trip_the_checksum(seq in 0u64..u64::MAX, mask in 1u32..256) {
            let mut wire = Vec::new();
            write_frame(&mut wire, &Frame::Replies { seq, replies: Vec::new(), idle: true }).unwrap();
            for i in 6..wire.len() {
                let mut corrupted = wire.clone();
                corrupted[i] ^= mask as u8;
                prop_assert!(
                    matches!(read_frame(&mut &corrupted[..]), Err(WireError::ChecksumMismatch { .. })),
                    "byte {} xor {:#04x} must trip the checksum", i, mask
                );
            }
        }
    }

    /// Frames a hand-built body at `version` with a valid trailer, so the
    /// decoder's own checks — not the checksum — have to refuse it. Built
    /// byte by byte, independently of the writer, so byte-exact tests pin
    /// the layout rather than the writer's agreement with itself.
    fn framed(version: u8, body: &[u8]) -> Vec<u8> {
        let mut payload = vec![MAGIC, version];
        payload.extend_from_slice(body);
        let crc = crc32(&payload);
        payload.extend_from_slice(&crc.to_le_bytes());
        let mut wire = (payload.len() as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(&payload);
        wire
    }

    #[test]
    fn replies_without_the_signal_keep_their_pre_v5_bytes() {
        // Tag 2, seq 9, zero replies, then the idle byte only when set.
        for (idle, body) in [(false, &[2u8, 9, 0][..]), (true, &[2, 9, 0, 1])] {
            let mut wire = Vec::new();
            let frame = Frame::Replies {
                seq: 9,
                replies: Vec::new(),
                idle,
            };
            write_frame(&mut wire, &frame).unwrap();
            assert_eq!(wire, framed(WIRE_VERSION, body), "idle {idle}");
        }
    }

    #[test]
    fn join_encoding_is_byte_exact() {
        // Tag 0, then the shard index.
        let mut wire = Vec::new();
        write_frame(&mut wire, &Frame::Join { shard: 7 }).unwrap();
        assert_eq!(wire, framed(WIRE_VERSION, &[0, 7]));
        // Nothing may follow the shard index: a trailing byte is refused,
        // not read as an extension of the handshake.
        assert!(matches!(
            read_frame(&mut &framed(WIRE_VERSION, &[0, 7, WIRE_VERSION])[..]),
            Err(WireError::TrailingBytes { remaining: 1 })
        ));
    }

    #[test]
    fn every_other_version_byte_is_refused() {
        // A Poll for seq 7, sealed with a valid trailer at each version byte
        // but the current one: the version check, not the checksum, has to
        // refuse it, on the blocking reader and on the accumulator alike.
        for version in (0..=u8::MAX).filter(|&v| v != WIRE_VERSION) {
            let wire = framed(version, &[4, 7]);
            assert!(
                matches!(
                    read_frame(&mut &wire[..]),
                    Err(WireError::UnsupportedVersion { found }) if found == version
                ),
                "read_frame accepted version {version}"
            );
            assert!(
                matches!(
                    FrameAccumulator::new().read_frame(&mut &wire[..]),
                    Err(WireError::UnsupportedVersion { found }) if found == version
                ),
                "FrameAccumulator accepted version {version}"
            );
        }
        let (frame, _) = read_frame(&mut &framed(WIRE_VERSION, &[4, 7])[..]).unwrap();
        assert_eq!(frame, Frame::Poll { seq: 7 });
    }

    #[test]
    fn trace_records_are_refused_by_their_magic() {
        use crate::trace::{write_record, TraceRecord, TraceStep, TRACE_MAGIC};
        // The same envelope with the trace magic: the frame readers refuse
        // it on its first payload byte.
        let mut wire = Vec::new();
        let record = TraceRecord::Step(TraceStep {
            step: 0,
            events: Vec::new(),
            row: vec![3, 1, 4],
            output: vec![NodeId(2)],
            valid: true,
            messages_total: 5,
        });
        write_record(&mut wire, &record).unwrap();
        assert!(matches!(
            read_frame(&mut &wire[..]),
            Err(WireError::BadMagic { found: TRACE_MAGIC })
        ));
        assert!(matches!(
            FrameAccumulator::new().read_frame(&mut &wire[..]),
            Err(WireError::BadMagic { found: TRACE_MAGIC })
        ));
    }

    #[test]
    fn malformed_idle_signals_are_typed_errors() {
        // A flag byte other than 1.
        for flag in [0u8, 2, 0xFF] {
            assert!(matches!(
                read_frame(&mut &framed(WIRE_VERSION, &[2, 9, 0, flag])[..]),
                Err(WireError::BadTag { tag, .. }) if tag == flag
            ));
        }
        // The signal on a reply that carries a message.
        let mut body = vec![2u8, 9, 1];
        NodeMessage::ExistenceResponse {
            node: NodeId(3),
            value: 5,
        }
        .encode(&mut body);
        body.push(1);
        assert!(matches!(
            read_frame(&mut &framed(WIRE_VERSION, &body)[..]),
            Err(WireError::BadTag { .. })
        ));
        // Two trailing bytes: the flag, then garbage.
        assert!(matches!(
            read_frame(&mut &framed(WIRE_VERSION, &[2, 9, 0, 1, 1])[..]),
            Err(WireError::TrailingBytes { remaining: 1 })
        ));
    }

    #[test]
    fn oversized_frames_are_refused_at_the_send_site() {
        // ~20 MB of maximal varints exceeds the 16 MiB payload bound; the
        // writer must refuse with a typed error and put nothing on the wire.
        let frame = Frame::Batch {
            wants_reply: false,
            seq: 0,
            ops: vec![ServerOp::ObserveRow {
                start: NodeId(0),
                values: vec![u64::MAX; 2_000_000],
            }],
        };
        let mut wire = Vec::new();
        assert!(matches!(
            write_frame(&mut wire, &frame),
            Err(WireError::FrameTooLarge { .. })
        ));
        assert!(wire.is_empty(), "no bytes may precede the error");
    }

    #[test]
    fn oversized_length_prefix_is_refused_before_allocating() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(u32::MAX).to_le_bytes());
        wire.extend_from_slice(&[0u8; 64]);
        let mut cursor = &wire[..];
        assert!(matches!(
            read_frame(&mut cursor),
            Err(WireError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn bad_magic_and_version_are_refused() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &Frame::Shutdown).unwrap();
        let mut corrupted = wire.clone();
        corrupted[4] = 0x00; // magic byte
        assert!(matches!(
            read_frame(&mut &corrupted[..]),
            Err(WireError::BadMagic { found: 0x00 })
        ));
        let mut corrupted = wire.clone();
        corrupted[5] = WIRE_VERSION + 1;
        assert!(matches!(
            read_frame(&mut &corrupted[..]),
            Err(WireError::UnsupportedVersion { .. })
        ));
    }

    #[test]
    fn trailing_garbage_inside_a_frame_is_refused() {
        // A stray byte after a complete body, sealed under a valid trailer:
        // the body decoder notices the unconsumed byte.
        assert!(matches!(
            read_frame(&mut &framed(WIRE_VERSION, &[3, 0xAB])[..]),
            Err(WireError::TrailingBytes { remaining: 1 })
        ));
        // Appended after the trailer instead (the declared length grown by
        // one): the stray byte shifts the trailer window, so the checksum
        // catches it first.
        let mut wire = Vec::new();
        write_frame(&mut wire, &Frame::Shutdown).unwrap();
        let len = u32::from_le_bytes(wire[..4].try_into().unwrap());
        wire[..4].copy_from_slice(&(len + 1).to_le_bytes());
        wire.push(0xAB);
        assert!(matches!(
            read_frame(&mut &wire[..]),
            Err(WireError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn undersized_frames_are_refused() {
        // Declared length 2 cannot hold magic + version + tag + trailer.
        let mut wire = Vec::new();
        wire.extend_from_slice(&2u32.to_le_bytes());
        wire.extend_from_slice(&[MAGIC, WIRE_VERSION]);
        assert!(matches!(
            read_frame(&mut &wire[..]),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn corrupt_counts_fail_fast() {
        // A Replies frame claiming 2^40 replies in a 16-byte body must fail
        // on the count check, not attempt the allocation — even when its
        // checksum trailer is valid, so corruption *hidden from* the CRC
        // (a malicious peer) still cannot drive an allocation.
        let mut body = vec![2u8]; // Replies tag
        varint::write_u64(&mut body, 7); // seq
        varint::write_u64(&mut body, 1 << 40);
        assert!(matches!(
            read_frame(&mut &framed(WIRE_VERSION, &body)[..]),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn corrupt_trailer_or_body_is_refused_with_a_checksum_error() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &Frame::Poll { seq: 0xDEAD }).unwrap();
        // Every byte after magic and version is covered: body bytes because
        // the CRC is computed over them, trailer bytes because they *are*
        // the CRC. Flip each in turn.
        for i in 6..wire.len() {
            let mut corrupted = wire.clone();
            corrupted[i] ^= 0x40;
            assert!(
                matches!(
                    read_frame(&mut &corrupted[..]),
                    Err(WireError::ChecksumMismatch { .. })
                ),
                "flipping byte {i} must trip the checksum"
            );
        }
    }

    proptest! {
        /// Any single-byte corruption anywhere in a frame payload is refused
        /// — magic and version corruption by the header checks, everything
        /// else by the CRC32 trailer. Truncating the trailer itself is
        /// refused too, never decoded as a shorter body.
        #[test]
        fn corrupted_v3_frames_never_decode(seq in 0u64..u64::MAX, mask in 1u32..256) {
            let mask = mask as u8;
            let mut wire = Vec::new();
            write_frame(&mut wire, &Frame::Poll { seq }).unwrap();
            for i in 4..wire.len() {
                let mut corrupted = wire.clone();
                corrupted[i] ^= mask;
                prop_assert!(
                    read_frame(&mut &corrupted[..]).is_err(),
                    "payload byte {i} xor {mask:#04x} decoded"
                );
            }
            // A frame whose trailer is cut off mid-way: shrink the declared
            // length by two so the payload ends inside the CRC.
            let mut truncated = wire.clone();
            let len = u32::from_le_bytes(truncated[..4].try_into().unwrap());
            truncated[..4].copy_from_slice(&(len - 2).to_le_bytes());
            truncated.truncate(truncated.len() - 2);
            prop_assert!(read_frame(&mut &truncated[..]).is_err());
        }
    }
}
