//! The transport frame: length prefix, header, batched messages.
//!
//! A frame is the unit one socket write/read moves:
//!
//! ```text
//! ┌────────────┬──────────┬───────────┬──────────┬─────────────────┐
//! │ len u32 LE │ magic u8 │ version u8│ kind u8  │ body …          │
//! └────────────┴──────────┴───────────┴──────────┴─────────────────┘
//!               └────────────── len bytes ───────────────────────┘
//! ```
//!
//! `len` counts the payload (magic byte onward) and is bounded by
//! [`MAX_FRAME_LEN`] so a corrupt prefix can never trigger an absurd
//! allocation. The magic byte catches stream desynchronisation immediately;
//! the version byte pins the tag tables (see the versioning rules in
//! `docs/WIRE.md`: tags are append-only within a version, any removal or
//! renumbering bumps [`WIRE_VERSION`], and peers refuse versions they do not
//! speak rather than guessing).
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
//! | 0 | [`Frame::Join`] | node → server | shard index, optional max-version byte |
//! | 1 | [`Frame::Batch`] | server → node | flags (bit 0 = reply wanted), seq, op count, [`ServerOp`]s |
//! | 2 | [`Frame::Replies`] | node → server | seq, reply count, [`NodeMessage`]s, optional idle byte (v5) |
//! | 3 | [`Frame::Shutdown`] | server → node | empty |
//! | 4 | [`Frame::Poll`] | server → node | seq |
//! | 5 | [`Frame::Leave`] | node → server | shard index |
//!
//! The `seq` number pairs each reply with the `wants_reply` batch that asked
//! for it, which is what makes retries safe on a lossy transport: if a
//! `Replies` frame is lost, the server re-requests it with a [`Frame::Poll`]
//! carrying the same `seq`, and a duplicate answer (original and poll answer
//! both arriving) is recognised by its stale `seq` and discarded instead of
//! being mistaken for the answer to the *next* round. Version 1 had no
//! sequence numbers; the layout change is why version 2 exists.
//!
//! Version 3 appends a little-endian CRC32 trailer ([`crate::crc32`]) to
//! every frame payload, covering the magic byte through the last body byte,
//! and adds the [`Frame::Leave`] departure frame plus the
//! [`ServerOp::Membership`] churn op. The trailer is *negotiated*, not
//! assumed: a client advertises its best version in the [`Frame::Join`]
//! handshake (a trailing byte that version-2 encoders simply never wrote —
//! its absence identifies a legacy peer), the server answers every later
//! frame at `min(server, client)`, and the client adopts the version of the
//! first server frame it reads. A version-2 peer on either end therefore
//! keeps working, just without trailers; see `docs/WIRE.md`.
//!
//! Version 4 adds the query-scoped filter assignment
//! (`ServerMessage::AssignQueryFilter`, carrying a `QueryId` varint) used by
//! the multi-query layer. The frame layout is unchanged from version 3 —
//! same CRC32 trailer, same negotiation — and a server only emits the new
//! message tag to peers that negotiated version 4, downgrading to a plain
//! `AssignFilter` otherwise.
//!
//! Version 5 adds the *idle signal* to [`Frame::Replies`]: a shard that
//! answers an existence round also says whether none of its nodes satisfies
//! the round's predicate. It is one trailing byte (`1`) after the replies,
//! written only when the signal is set — the same trick as the `Join`
//! version byte — so every frame without it, and so every v2–v4 frame, is
//! byte-identical to its older encoding. The decoder is strict: a trailing
//! byte other than `1`, the signal on a non-empty reply, or the signal in a
//! frame framed below version 5 is a typed [`WireError`]. The coordinator
//! uses the signal to skip idle shards for the rest of an existence run
//! (`docs/WIRE.md`, "Idle shards").
//!
//! [`ServerOp`] tags: 0 `ObserveRow`, 1 `ObserveSparse`, 2 `Unicast`,
//! 3 `Broadcast`, 4 `Membership`.
//!
//! [`NodeMessage`]: topk_model::message::NodeMessage

use crate::codec::{from_bytes, Reader, WireDecode, WireEncode};
use crate::crc32::crc32;
use crate::error::WireError;
use crate::varint;
use std::io::{Read, Write};
use topk_model::prelude::*;

/// First payload byte of every frame; catches desynchronised streams.
pub const MAGIC: u8 = 0xC5;

/// Current wire format version. Bump on any change to the frame layout or
/// the tag tables that is not a pure append. Version 2 added reply sequence
/// numbers and the [`Frame::Poll`] retry frame; version 3 added the CRC32
/// payload trailer, [`Frame::Leave`] and [`ServerOp::Membership`]; version 4
/// added the query-scoped filter assignment (`AssignQueryFilter` with its
/// `QueryId` varint); version 5 added the idle signal on [`Frame::Replies`].
pub const WIRE_VERSION: u8 = 5;

/// First version that appends the CRC32 payload trailer. Versions 3 to 5
/// share the trailered layout; version 2 is trailerless.
pub const CRC_WIRE_VERSION: u8 = 3;

/// First version that understands the query-scoped filter assignment
/// (`ServerMessage::AssignQueryFilter`). A server downgrades the message to
/// a plain `AssignFilter` for peers that negotiated anything older.
pub const QUERY_WIRE_VERSION: u8 = 4;

/// First version whose [`Frame::Replies`] may carry the idle signal. Peers
/// that negotiated anything older never send it and are never skipped.
pub const IDLE_WIRE_VERSION: u8 = 5;

/// Oldest version this build still decodes and can be asked to encode.
/// Version-2 frames are identical to version-3 frames minus the CRC32
/// trailer (the version-3 tag additions are pure appends), so supporting
/// both costs one branch in the payload codec.
pub const LEGACY_WIRE_VERSION: u8 = 2;

/// Upper bound on the payload length of a single frame (16 MiB).
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
    /// Population churn delivery (version 3): the membership events of one
    /// step, applied by the shard client to the slots it hosts. Free at the
    /// model layer — only the recovery replay a `Join` triggers is charged,
    /// and the server charges it, exactly as the in-process engines do.
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
    /// Client handshake: "I host shard `shard`, and I speak up to
    /// `max_version`". Sent once per connection, immediately after
    /// connecting, so the server can map accepted connections to node ranges
    /// regardless of accept order. Always framed at
    /// [`LEGACY_WIRE_VERSION`] (the pre-negotiation format every peer
    /// reads); the version byte it carries is what upgrades the rest of the
    /// conversation.
    Join {
        /// The shard index this connection hosts.
        shard: u32,
        /// Best wire version the client speaks. Encoded as a trailing byte
        /// that version-2 encoders never wrote, so its absence marks a
        /// legacy peer and decodes as 2; encoding `2` omits the byte,
        /// keeping the frame byte-identical to a genuine version-2 `Join`.
        max_version: u8,
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
        /// The idle signal (version 5): the batch was an existence round and
        /// *no* node of the shard satisfies its predicate, so none replied
        /// and none drew randomness. Always `false` with replies present and
        /// in frames framed below [`IDLE_WIRE_VERSION`].
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
    /// Orderly departure announcement (node → server, version 3): the shard
    /// client is closing its connection on purpose. Lets the server tell a
    /// deliberate goodbye from a crashed connection — only the latter is
    /// eligible for the reconnect/backoff path.
    Leave {
        /// The shard index that is departing.
        shard: u32,
    },
}

impl WireEncode for Frame {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Frame::Join { shard, max_version } => {
                buf.push(0);
                varint::write_u64(buf, u64::from(*shard));
                if *max_version != LEGACY_WIRE_VERSION {
                    buf.push(*max_version);
                }
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
                // Absent unless set, so a frame without the signal keeps its
                // pre-v5 bytes.
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
                let shard = u32::try_from(shard).map_err(|_| WireError::BadTag {
                    what: "Frame::Join shard (exceeds u32)",
                    tag: 0,
                })?;
                // The trailing version byte arrived with version 3; a
                // version-2 peer's Join simply ends after the shard index.
                // The frame length prefix delimits the body, so absence is
                // unambiguous.
                let max_version = if r.remaining() > 0 {
                    let v = r.u8("Frame::Join max_version")?;
                    if v < LEGACY_WIRE_VERSION {
                        return Err(WireError::BadTag {
                            what: "Frame::Join max_version",
                            tag: v,
                        });
                    }
                    v
                } else {
                    LEGACY_WIRE_VERSION
                };
                Ok(Frame::Join { shard, max_version })
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
                // The idle byte arrived with version 5; the frame length
                // prefix delimits the body, so its absence is unambiguous.
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
                        return Err(WireError::BadTag {
                            what: "Frame::Replies idle flag on a non-empty reply",
                            tag: flag,
                        });
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

/// Writes one frame (length prefix + header + body) at [`WIRE_VERSION`],
/// with the CRC32 trailer, and flushes.
///
/// Returns the total number of bytes put on the wire, including the length
/// prefix — the quantity the throughput harness's bytes/message metric sums.
///
/// # Errors
///
/// [`WireError::FrameTooLarge`] if the encoded payload exceeds
/// [`MAX_FRAME_LEN`] — refused at the send site, *before* any bytes hit the
/// wire, so an oversized batch surfaces as a typed error here rather than as
/// a bogus corrupt-stream diagnostic on the receiving peer. Otherwise
/// propagates transport errors from the writer.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> Result<usize, WireError> {
    write_frame_versioned(w, frame, WIRE_VERSION)
}

/// Writes one frame at an explicit wire version — any of
/// [`LEGACY_WIRE_VERSION`]`..=`[`WIRE_VERSION`], as negotiated in the
/// [`Frame::Join`] handshake. Versions from [`CRC_WIRE_VERSION`] on carry
/// the CRC32 trailer; version 2 is trailerless.
///
/// # Errors
///
/// [`WireError::UnsupportedVersion`] for a version this build does not
/// encode; otherwise the same errors as [`write_frame`].
pub fn write_frame_versioned(
    w: &mut impl Write,
    frame: &Frame,
    version: u8,
) -> Result<usize, WireError> {
    if !(LEGACY_WIRE_VERSION..=WIRE_VERSION).contains(&version) {
        return Err(WireError::UnsupportedVersion { found: version });
    }
    check_frame_version(frame, version)?;
    let mut payload = Vec::with_capacity(16);
    payload.push(MAGIC);
    payload.push(version);
    frame.encode(&mut payload);
    if version >= CRC_WIRE_VERSION {
        let crc = crc32(&payload);
        payload.extend_from_slice(&crc.to_le_bytes());
    }
    if payload.len() > MAX_FRAME_LEN {
        return Err(WireError::FrameTooLarge {
            len: payload.len() as u64,
        });
    }
    let len = u32::try_from(payload.len()).expect("MAX_FRAME_LEN fits u32");
    w.write_all(&len.to_le_bytes())?;
    w.write_all(&payload)?;
    w.flush()?;
    Ok(4 + payload.len())
}

/// Reads one complete frame, validating length bound, magic and version.
///
/// Returns the frame and the total bytes consumed (including the prefix).
///
/// # Errors
///
/// [`WireError::FrameTooLarge`] for an oversized length prefix,
/// [`WireError::BadMagic`] / [`WireError::UnsupportedVersion`] for a bad
/// header, any decoding error for a corrupt body, and
/// [`WireError::Io`] (typically `UnexpectedEof`) if the stream ends.
pub fn read_frame(r: &mut impl Read) -> Result<(Frame, usize), WireError> {
    read_frame_versioned(r).map(|(frame, bytes, _)| (frame, bytes))
}

/// Like [`read_frame`], but also returns the frame's version byte — the
/// signal a client uses to adopt the version the server negotiated from its
/// `Join` advertisement.
///
/// # Errors
///
/// The same errors as [`read_frame`].
pub fn read_frame_versioned(r: &mut impl Read) -> Result<(Frame, usize, u8), WireError> {
    let mut prefix = [0u8; 4];
    r.read_exact(&mut prefix)?;
    let len = u32::from_le_bytes(prefix) as usize;
    if len > MAX_FRAME_LEN {
        return Err(WireError::FrameTooLarge { len: len as u64 });
    }
    if len < 3 {
        // magic + version + frame tag are mandatory
        return Err(WireError::Truncated {
            what: "frame header",
        });
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    let version = payload[1];
    let frame = decode_payload(&payload)?;
    Ok((frame, 4 + len, version))
}

/// Decodes a complete frame payload (the `len` bytes after the length
/// prefix): validates magic, version and — for version-3+ frames — the
/// CRC32 trailer, then decodes the frame body. Shared by [`read_frame`] and
/// the resumable [`FrameAccumulator`](crate::stream::FrameAccumulator).
///
/// Versions 2 through [`WIRE_VERSION`] are accepted; the version byte
/// decides whether the last four bytes are a checksum trailer or body.
///
/// # Errors
///
/// [`WireError::BadMagic`] / [`WireError::UnsupportedVersion`] for a bad
/// header, [`WireError::Truncated`] for a payload too short to hold one,
/// [`WireError::ChecksumMismatch`] for a version-3+ payload whose trailer
/// disagrees with its bytes, and any decoding error for a corrupt body.
pub(crate) fn decode_payload(payload: &[u8]) -> Result<Frame, WireError> {
    if payload.len() < 3 {
        // magic + version + frame tag are mandatory
        return Err(WireError::Truncated {
            what: "frame header",
        });
    }
    let magic = payload[0];
    if magic != MAGIC {
        return Err(WireError::BadMagic { found: magic });
    }
    let version = payload[1];
    let body = match version {
        LEGACY_WIRE_VERSION => &payload[2..],
        v if (CRC_WIRE_VERSION..=WIRE_VERSION).contains(&v) => {
            // magic + version + tag + 4-byte trailer is the minimum.
            if payload.len() < 7 {
                return Err(WireError::Truncated {
                    what: "frame checksum trailer",
                });
            }
            let split = payload.len() - 4;
            let found = u32::from_le_bytes(payload[split..].try_into().expect("4 bytes"));
            let expected = crc32(&payload[..split]);
            if found != expected {
                return Err(WireError::ChecksumMismatch { expected, found });
            }
            &payload[2..split]
        }
        _ => return Err(WireError::UnsupportedVersion { found: version }),
    };
    let frame = from_bytes::<Frame>(body)?;
    check_frame_version(&frame, version)?;
    Ok(frame)
}

/// Refuses a frame whose content its version cannot carry: the idle signal
/// exists from [`IDLE_WIRE_VERSION`] on. Checked on both sides, so neither
/// an encoder nor a decoder ever lets a v5 signal into an older frame.
fn check_frame_version(frame: &Frame, version: u8) -> Result<(), WireError> {
    match frame {
        Frame::Replies { idle: true, .. } if version < IDLE_WIRE_VERSION => {
            Err(WireError::BadTag {
                what: "Frame::Replies idle flag below wire v5",
                tag: version,
            })
        }
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use topk_model::message::ExistencePredicate;

    fn roundtrip_frame(frame: &Frame) {
        // Every negotiable version must carry every pre-v5 frame; versions 3
        // and up grow a 4-byte trailer, version 2 is the legacy layout.
        roundtrip_frame_at(frame, LEGACY_WIRE_VERSION..=WIRE_VERSION);
    }

    fn roundtrip_frame_at(frame: &Frame, versions: std::ops::RangeInclusive<u8>) {
        for version in versions {
            let mut wire = Vec::new();
            let written = write_frame_versioned(&mut wire, frame, version).unwrap();
            assert_eq!(written, wire.len());
            let mut cursor = &wire[..];
            let (back, consumed) = read_frame(&mut cursor).unwrap();
            assert_eq!(&back, frame);
            assert_eq!(consumed, written);
            assert!(cursor.is_empty());
            // Every strict prefix of the wire bytes fails (EOF or truncation).
            for cut in 0..wire.len() {
                let mut cursor = &wire[..cut];
                assert!(
                    read_frame(&mut cursor).is_err(),
                    "prefix {cut} decoded (version {version})"
                );
            }
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
        /// strict byte prefixes.
        #[test]
        fn frames_roundtrip(x in 0u64..u64::MAX, y in 0u64..u64::MAX, shard in 0u32..4096) {
            roundtrip_frame(&Frame::Join { shard, max_version: LEGACY_WIRE_VERSION });
            roundtrip_frame(&Frame::Join { shard, max_version: CRC_WIRE_VERSION });
            roundtrip_frame(&Frame::Join { shard, max_version: WIRE_VERSION });
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
            // The idle signal exists from v5 on, and only there.
            let idle = Frame::Replies { seq: y, replies: Vec::new(), idle: true };
            roundtrip_frame_at(&idle, IDLE_WIRE_VERSION..=WIRE_VERSION);
            for version in LEGACY_WIRE_VERSION..IDLE_WIRE_VERSION {
                let mut wire = Vec::new();
                prop_assert!(matches!(
                    write_frame_versioned(&mut wire, &idle, version),
                    Err(WireError::BadTag { .. })
                ));
                prop_assert!(wire.is_empty(), "no bytes may precede the error");
            }
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
    /// decoder's own checks — not the checksum — have to refuse it.
    fn framed(version: u8, body: &[u8]) -> Vec<u8> {
        let mut payload = vec![MAGIC, version];
        payload.extend_from_slice(body);
        if version >= CRC_WIRE_VERSION {
            let crc = crc32(&payload);
            payload.extend_from_slice(&crc.to_le_bytes());
        }
        let mut wire = (payload.len() as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(&payload);
        wire
    }

    #[test]
    fn replies_without_the_signal_keep_their_pre_v5_bytes() {
        // Tag 2, seq 9, zero replies: the v2–v4 body, and the v5 body too
        // whenever the signal is clear.
        for version in LEGACY_WIRE_VERSION..=WIRE_VERSION {
            let mut wire = Vec::new();
            let frame = Frame::Replies {
                seq: 9,
                replies: Vec::new(),
                idle: false,
            };
            write_frame_versioned(&mut wire, &frame, version).unwrap();
            assert_eq!(wire, framed(version, &[2, 9, 0]), "version {version}");
        }
        let mut wire = Vec::new();
        let idle = Frame::Replies {
            seq: 9,
            replies: Vec::new(),
            idle: true,
        };
        write_frame(&mut wire, &idle).unwrap();
        assert_eq!(wire, framed(WIRE_VERSION, &[2, 9, 0, 1]));
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
        // The signal in a frame framed below v5, checksum and all valid.
        for version in LEGACY_WIRE_VERSION..IDLE_WIRE_VERSION {
            assert!(matches!(
                read_frame(&mut &framed(version, &[2, 9, 0, 1])[..]),
                Err(WireError::BadTag { .. })
            ));
        }
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
        // Grow the declared length by one and append a stray byte. On a
        // legacy frame the body decoder notices the unconsumed byte; on a
        // version-3 frame the stray byte shifts the trailer window, so the
        // checksum catches it first. Either way the frame is refused.
        let mut wire = Vec::new();
        write_frame_versioned(&mut wire, &Frame::Shutdown, LEGACY_WIRE_VERSION).unwrap();
        let len = u32::from_le_bytes(wire[..4].try_into().unwrap());
        wire[..4].copy_from_slice(&(len + 1).to_le_bytes());
        wire.push(0xAB);
        assert!(matches!(
            read_frame(&mut &wire[..]),
            Err(WireError::TrailingBytes { remaining: 1 })
        ));
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
        // Declared length 2 cannot hold magic + version + tag.
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
        let mut payload = vec![MAGIC, WIRE_VERSION];
        payload.extend_from_slice(&body);
        let crc = crc32(&payload);
        payload.extend_from_slice(&crc.to_le_bytes());
        let mut wire = (payload.len() as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(&payload);
        assert!(matches!(
            read_frame(&mut &wire[..]),
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
        /// Any single-byte corruption anywhere in a version-3 payload is
        /// refused — magic and version corruption by the header checks,
        /// everything else by the CRC32 trailer. Truncating the trailer
        /// itself is refused as a truncation, not decoded as a shorter body.
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
            // A v3 frame whose trailer is cut off mid-way: shrink the
            // declared length by two so the payload ends inside the CRC.
            let mut truncated = wire.clone();
            let len = u32::from_le_bytes(truncated[..4].try_into().unwrap());
            truncated[..4].copy_from_slice(&(len - 2).to_le_bytes());
            truncated.truncate(truncated.len() - 2);
            prop_assert!(read_frame(&mut &truncated[..]).is_err());
        }
    }

    #[test]
    fn legacy_join_encoding_is_byte_identical() {
        // A Join advertising only version 2 must be indistinguishable from a
        // genuine version-2 peer's handshake: same trailerless framing, no
        // version byte in the body.
        let mut ours = Vec::new();
        write_frame_versioned(
            &mut ours,
            &Frame::Join {
                shard: 7,
                max_version: LEGACY_WIRE_VERSION,
            },
            LEGACY_WIRE_VERSION,
        )
        .unwrap();
        let legacy_payload = vec![MAGIC, LEGACY_WIRE_VERSION, 0u8, 7u8];
        let mut legacy = (legacy_payload.len() as u32).to_le_bytes().to_vec();
        legacy.extend_from_slice(&legacy_payload);
        assert_eq!(ours, legacy);
    }

    #[test]
    fn join_negotiation_byte_upgrades_and_its_absence_means_legacy() {
        // A v3 client frames its Join at the legacy version (so any server
        // reads it) but advertises 3 in the body.
        let mut wire = Vec::new();
        write_frame_versioned(
            &mut wire,
            &Frame::Join {
                shard: 2,
                max_version: WIRE_VERSION,
            },
            LEGACY_WIRE_VERSION,
        )
        .unwrap();
        let (frame, _) = read_frame(&mut &wire[..]).unwrap();
        assert_eq!(
            frame,
            Frame::Join {
                shard: 2,
                max_version: WIRE_VERSION
            }
        );
        // A hand-built legacy Join (no version byte) decodes as version 2.
        let payload = vec![MAGIC, LEGACY_WIRE_VERSION, 0u8, 2u8];
        let mut legacy = (payload.len() as u32).to_le_bytes().to_vec();
        legacy.extend_from_slice(&payload);
        let (frame, _) = read_frame(&mut &legacy[..]).unwrap();
        assert_eq!(
            frame,
            Frame::Join {
                shard: 2,
                max_version: LEGACY_WIRE_VERSION
            }
        );
    }

    #[test]
    fn unknown_write_versions_are_refused() {
        let mut wire = Vec::new();
        assert!(matches!(
            write_frame_versioned(&mut wire, &Frame::Shutdown, WIRE_VERSION + 1),
            Err(WireError::UnsupportedVersion { .. })
        ));
        assert!(wire.is_empty());
    }
}
