//! # topk-wire
//!
//! Compact binary wire format for every protocol message of the top-k
//! monitoring model, plus the length-prefixed frame codec the TCP transport
//! (`topk_net`'s `RemoteEngine`) speaks.
//!
//! The paper charges algorithms one unit per *model* message — probe, filter
//! update, violation report, existence response. The in-process engines
//! exchange those messages as function calls; this crate gives them a real
//! byte representation so the same protocols can cross a socket. The format
//! is designed around the model's `O(log(n·Δ))`-bit message bound: every
//! scalar is a LEB128 varint ([`varint`]), so a message naming a node id and
//! a value costs bytes proportional to their magnitudes, not to the maximum
//! the types could hold.
//!
//! The crate has three layers (documented in detail in `docs/WIRE.md`):
//!
//! * [`varint`] — LEB128 encoding of `u64`, the only scalar primitive;
//! * [`codec`] — [`WireEncode`]/[`WireDecode`] implementations with a stable
//!   one-byte tag per enum variant, for [`ServerMessage`], [`NodeMessage`]
//!   and every payload type they embed ([`Filter`], [`FilterParams`],
//!   [`NodeGroup`], [`Violation`], [`ExistencePredicate`]);
//! * [`frame`] — the transport unit: a little-endian `u32` length prefix,
//!   then a payload of magic byte, version byte, frame tag, body and a CRC32
//!   integrity trailer ([`crc32`]). A [`Frame`] batches many model messages
//!   (an observation row, the replies of an existence round) into one socket
//!   write. Reply-bearing frames carry a sequence number so a lossy
//!   transport can re-request a missing answer ([`Frame::Poll`]) and
//!   recognise duplicates, and a reply may carry an idle signal (no node of
//!   the shard satisfies the existence round's predicate) that lets the
//!   coordinator skip the shard for the rest of the run. There is one wire
//!   version, [`WIRE_VERSION`]; a frame at any other is refused.
//!   [`stream::FrameAccumulator`] is the timeout-surviving reader the
//!   retrying coordinator uses, and [`read_frame`] is the same reader run to
//!   completion.
//!
//! A fourth layer, [`trace`], stores a monitored run step by step in files
//! instead of sockets: the storage format of the golden-trace regression
//! corpus under `tests/traces/` and of `experiments --record`/`--replay`.
//! Its records travel in the frame envelope — length prefix, magic byte,
//! version byte, body, CRC32 trailer — with their own magic (`0xC7`) and
//! version byte ([`TRACE_VERSION`]). One private module seals and opens that
//! envelope for frames and records alike, so the length bound, magic,
//! version and checksum checks exist once. The schema is documented in
//! `docs/SCENARIOS.md`.
//!
//! Decoding is strict: unknown tags, truncated input, oversized frames and
//! trailing bytes are all [`WireError`]s, never panics — a corrupt or
//! malicious peer cannot take the server down. The round-trip property
//! (`decode(encode(m)) == m` for every message, and `Err` for every strict
//! prefix) is enforced by proptests in [`codec`] and [`frame`].
//!
//! [`ServerMessage`]: topk_model::message::ServerMessage
//! [`NodeMessage`]: topk_model::message::NodeMessage
//! [`Filter`]: topk_model::filter::Filter
//! [`FilterParams`]: topk_model::rule::FilterParams
//! [`NodeGroup`]: topk_model::rule::NodeGroup
//! [`Violation`]: topk_model::filter::Violation
//! [`ExistencePredicate`]: topk_model::message::ExistencePredicate

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod codec;
pub mod crc32;
mod envelope;
pub mod error;
pub mod frame;
pub mod stream;
pub mod trace;
pub mod varint;

pub use codec::{from_bytes, to_bytes, Reader, WireDecode, WireEncode};
pub use error::WireError;
pub use frame::{read_frame, write_frame, Frame, ServerOp, MAX_FRAME_LEN, WIRE_VERSION};
pub use stream::FrameAccumulator;
pub use trace::{
    read_all_records, read_record, write_record, TraceEnd, TraceHeader, TraceRecord, TraceStep,
    TRACE_MAGIC, TRACE_VERSION,
};
