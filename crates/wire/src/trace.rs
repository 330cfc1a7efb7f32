//! Versioned record-stream codec for captured runs ("traces").
//!
//! A trace is the byte-level replay input of one monitored run: everything a
//! driver fed into an engine (observed rows, membership events) together with
//! everything the engine answered (outputs, validity verdicts, cumulative
//! message counts) and the final state the run ended in. Re-driving the same
//! rows and events through any engine must reproduce the recorded answers
//! bit-for-bit — `topk_bench::replay` builds that differential on top of this
//! codec, and `tests/traces/` commits a golden corpus of such streams.
//!
//! ## Stream layout
//!
//! A trace file is a flat sequence of records; each record travels in the
//! same envelope as a protocol frame (`envelope.rs`, `docs/WIRE.md`), with
//! its own magic byte and version:
//!
//! ```text
//! | len: u32 LE | payload (len bytes) |
//!   payload = magic 0xC7 | version | record tag | body… | CRC32 LE |
//! ```
//!
//! The CRC32 covers the magic byte through the last body byte, and `len` is
//! bounded by [`MAX_FRAME_LEN`](crate::MAX_FRAME_LEN). [`read_record`]
//! returns `Ok(None)` only on a clean end of stream — EOF *between* records;
//! EOF anywhere inside a record is an error, so a truncated capture can never
//! pass for a complete one.
//!
//! ## Record tags (append-only across versions)
//!
//! | tag | record | body |
//! |-----|--------|------|
//! | 0 | [`TraceHeader`] | protocol name, `n`, `k`, ε, engine seed, optional [`FaultSpec`], free-form label |
//! | 1 | [`TraceStep`] | step index, membership events, observed row, output, validity, cumulative messages |
//! | 2 | [`TraceEnd`] | final run report counters, [`CommStats`], filters, last observed row |
//!
//! A well-formed trace is `Header (Step)* End`; that ordering is the replay
//! layer's contract to enforce, not this codec's — the codec only guarantees
//! each record is internally valid.
//!
//! Scalars are LEB128 varints and composite bodies concatenate fields in
//! declaration order, like [`crate::codec`]. The [`CommStats`] body requires
//! its `(label, kind)` entries in strictly ascending order — the order its
//! `BTreeMap` iterates in — so every value has exactly one encoding and
//! re-encoding a decoded trace is byte-identical.

use std::io::{Read, Write};

use crate::codec::{from_bytes, Reader, WireDecode, WireEncode};
use crate::envelope::{open, payload_len, seal};
use crate::error::WireError;
use crate::varint;
use topk_model::prelude::*;

/// First payload byte of every trace record; distinct from the protocol
/// frame magic (`0xC5`) so a trace file read as a socket stream (or vice
/// versa) fails immediately with [`WireError::BadMagic`].
pub const TRACE_MAGIC: u8 = 0xC7;

/// Current trace format version. Bump on any layout change; readers reject
/// other versions with [`WireError::UnsupportedVersion`] rather than guess.
pub const TRACE_VERSION: u8 = 1;

/// The opening record of a trace: everything needed to rebuild the monitor
/// and engine that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceHeader {
    /// Protocol under test, by its campaign name (e.g. `"dense"`).
    pub protocol: String,
    /// Number of monitored nodes.
    pub n: u64,
    /// Top-`k` size.
    pub k: u64,
    /// Approximation parameter the monitor ran with.
    pub eps: Epsilon,
    /// Seed the engine (and any fault plan RNG) was constructed with.
    pub seed: u64,
    /// Fault plan the run's transport applied, if any.
    pub fault: Option<FaultSpec>,
    /// Free-form scenario label (file name or grid cell id).
    pub label: String,
}

/// One observed step: the driver's inputs and the engine's answers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceStep {
    /// Zero-based step index.
    pub step: u64,
    /// Membership events applied *before* this step's row was delivered.
    pub events: Vec<MembershipEvent>,
    /// The observed row, masked for dead slots exactly as delivered.
    pub row: Vec<Value>,
    /// The monitor's output set after processing the row.
    pub output: Vec<NodeId>,
    /// Whether the output was ε-valid against the row.
    pub valid: bool,
    /// Cumulative message count after this step (per-step deltas are the
    /// differences of consecutive records).
    pub messages_total: u64,
}

/// The closing record: final counters and state for bit-for-bit diffing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEnd {
    /// Total steps driven.
    pub steps: u64,
    /// Steps whose output failed ε-validation.
    pub invalid_steps: u64,
    /// Steps whose output was valid but not exactly the true top-k.
    pub inexact_steps: u64,
    /// Final communication counters.
    pub stats: CommStats,
    /// Final per-node filters, in node order.
    pub filters: Vec<Filter>,
    /// The last observed row (the run's final value state).
    pub values: Vec<Value>,
}

/// One record of a trace stream.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceRecord {
    /// Run metadata; must come first.
    Header(TraceHeader),
    /// One observed step.
    Step(TraceStep),
    /// Final counters and state; must come last.
    End(TraceEnd),
}

// ---------------------------------------------------------------------------
// Field helpers
// ---------------------------------------------------------------------------

/// Reads a varint element/byte count, refusing counts larger than the bytes
/// left — every element is at least one byte, so a huge count in a corrupt
/// record fails here instead of attempting a huge allocation.
fn read_count(r: &mut Reader<'_>, what: &'static str) -> Result<usize, WireError> {
    let raw = r.u64()?;
    let count = usize::try_from(raw).map_err(|_| WireError::FrameTooLarge { len: raw })?;
    if count > r.remaining() {
        return Err(WireError::Truncated { what });
    }
    Ok(count)
}

fn write_u32(buf: &mut Vec<u8>, v: u32) {
    varint::write_u64(buf, u64::from(v));
}

fn read_u32(r: &mut Reader<'_>, what: &'static str) -> Result<u32, WireError> {
    u32::try_from(r.u64()?).map_err(|_| WireError::BadTag { what, tag: 0xff })
}

fn write_bool(buf: &mut Vec<u8>, v: bool) {
    buf.push(u8::from(v));
}

fn read_bool(r: &mut Reader<'_>, what: &'static str) -> Result<bool, WireError> {
    match r.u8(what)? {
        0 => Ok(false),
        1 => Ok(true),
        tag => Err(WireError::BadTag { what, tag }),
    }
}

fn write_str(buf: &mut Vec<u8>, s: &str) {
    varint::write_u64(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

fn read_str(r: &mut Reader<'_>, what: &'static str) -> Result<String, WireError> {
    let len = read_count(r, what)?;
    let mut bytes = Vec::with_capacity(len);
    for _ in 0..len {
        bytes.push(r.u8(what)?);
    }
    String::from_utf8(bytes).map_err(|_| WireError::BadTag { what, tag: 0xff })
}

fn write_seq<T: WireEncode>(buf: &mut Vec<u8>, items: &[T]) {
    varint::write_u64(buf, items.len() as u64);
    for item in items {
        item.encode(buf);
    }
}

fn read_seq<T: WireDecode>(r: &mut Reader<'_>, what: &'static str) -> Result<Vec<T>, WireError> {
    let count = read_count(r, what)?;
    let mut items = Vec::with_capacity(count);
    for _ in 0..count {
        items.push(T::decode(r)?);
    }
    Ok(items)
}

// ---------------------------------------------------------------------------
// Model types that only the trace layer ships
// ---------------------------------------------------------------------------

impl WireEncode for Epsilon {
    fn encode(&self, buf: &mut Vec<u8>) {
        write_u32(buf, self.numerator());
        write_u32(buf, self.denominator());
    }
}

impl WireDecode for Epsilon {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let num = read_u32(r, "Epsilon numerator")?;
        let den = read_u32(r, "Epsilon denominator")?;
        Epsilon::new(num, den).map_err(|_| WireError::BadTag {
            what: "Epsilon (not in (0, 1))",
            tag: 0xff,
        })
    }
}

impl WireEncode for MessageKind {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(match self {
            MessageKind::Upstream => 0,
            MessageKind::DownstreamUnicast => 1,
            MessageKind::Broadcast => 2,
        });
    }
}

impl WireDecode for MessageKind {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8("MessageKind")? {
            0 => Ok(MessageKind::Upstream),
            1 => Ok(MessageKind::DownstreamUnicast),
            2 => Ok(MessageKind::Broadcast),
            tag => Err(WireError::BadTag {
                what: "MessageKind",
                tag,
            }),
        }
    }
}

/// [`ProtocolLabel`] tags, in declaration order. Append-only: a new label
/// gets the next tag, existing tags never move.
const PROTOCOL_LABELS: [ProtocolLabel; 14] = [
    ProtocolLabel::Init,
    ProtocolLabel::Existence,
    ProtocolLabel::Maximum,
    ProtocolLabel::ExactTopK,
    ProtocolLabel::TopKPhase1,
    ProtocolLabel::TopKPhase2,
    ProtocolLabel::TopKPhase3,
    ProtocolLabel::TopKPhase4,
    ProtocolLabel::Dense,
    ProtocolLabel::Sub,
    ProtocolLabel::HalfEps,
    ProtocolLabel::Recovery,
    ProtocolLabel::Offline,
    ProtocolLabel::Other,
];

impl WireEncode for ProtocolLabel {
    fn encode(&self, buf: &mut Vec<u8>) {
        let tag = PROTOCOL_LABELS
            .iter()
            .position(|l| l == self)
            .expect("every label is in the tag table");
        buf.push(tag as u8);
    }
}

impl WireDecode for ProtocolLabel {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let tag = r.u8("ProtocolLabel")?;
        PROTOCOL_LABELS
            .get(usize::from(tag))
            .copied()
            .ok_or(WireError::BadTag {
                what: "ProtocolLabel",
                tag,
            })
    }
}

impl WireEncode for CommStats {
    fn encode(&self, buf: &mut Vec<u8>) {
        varint::write_u64(buf, self.rounds);
        varint::write_u64(buf, self.time_steps);
        varint::write_u64(buf, self.by_label_kind.len() as u64);
        // BTreeMap iterates in ascending key order; the decoder enforces it,
        // which makes the encoding canonical (one byte string per value).
        for (&(label, kind), &count) in &self.by_label_kind {
            label.encode(buf);
            kind.encode(buf);
            varint::write_u64(buf, count);
        }
    }
}

impl WireDecode for CommStats {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let rounds = r.u64()?;
        let time_steps = r.u64()?;
        let entries = read_count(r, "CommStats entries")?;
        let mut stats = CommStats {
            rounds,
            time_steps,
            ..CommStats::default()
        };
        let mut last: Option<(ProtocolLabel, MessageKind)> = None;
        for _ in 0..entries {
            let label = ProtocolLabel::decode(r)?;
            let kind = MessageKind::decode(r)?;
            let count = r.u64()?;
            let key = (label, kind);
            if last.is_some_and(|prev| prev >= key) {
                return Err(WireError::BadTag {
                    what: "CommStats entries (not strictly ascending)",
                    tag: 0xff,
                });
            }
            last = Some(key);
            stats.by_label_kind.insert(key, count);
        }
        Ok(stats)
    }
}

impl WireEncode for LatencySpec {
    fn encode(&self, buf: &mut Vec<u8>) {
        match *self {
            LatencySpec::Immediate => buf.push(0),
            LatencySpec::Fixed(rounds) => {
                buf.push(1);
                write_u32(buf, rounds);
            }
            LatencySpec::Uniform { lo, hi } => {
                buf.push(2);
                write_u32(buf, lo);
                write_u32(buf, hi);
            }
        }
    }
}

impl WireDecode for LatencySpec {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8("LatencySpec")? {
            0 => Ok(LatencySpec::Immediate),
            1 => Ok(LatencySpec::Fixed(read_u32(r, "LatencySpec::Fixed")?)),
            2 => Ok(LatencySpec::Uniform {
                lo: read_u32(r, "LatencySpec::Uniform lo")?,
                hi: read_u32(r, "LatencySpec::Uniform hi")?,
            }),
            tag => Err(WireError::BadTag {
                what: "LatencySpec",
                tag,
            }),
        }
    }
}

impl WireEncode for CrashSpec {
    fn encode(&self, buf: &mut Vec<u8>) {
        write_u32(buf, self.crash_permille);
        varint::write_u64(buf, self.down_steps);
        varint::write_u64(buf, self.max_down as u64);
    }
}

impl WireDecode for CrashSpec {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(CrashSpec {
            crash_permille: read_u32(r, "CrashSpec crash_permille")?,
            down_steps: r.u64()?,
            max_down: usize::try_from(r.u64()?).map_err(|_| WireError::BadTag {
                what: "CrashSpec max_down (exceeds usize)",
                tag: 0xff,
            })?,
        })
    }
}

impl WireEncode for FaultSpec {
    fn encode(&self, buf: &mut Vec<u8>) {
        varint::write_u64(buf, self.seed);
        write_u32(buf, self.drop_upstream_permille);
        write_u32(buf, self.drop_downstream_permille);
        write_u32(buf, self.reorder_permille);
        self.latency.encode(buf);
        match self.crash {
            None => buf.push(0),
            Some(crash) => {
                buf.push(1);
                crash.encode(buf);
            }
        }
    }
}

impl WireDecode for FaultSpec {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let seed = r.u64()?;
        let drop_upstream_permille = read_u32(r, "FaultSpec drop_upstream_permille")?;
        let drop_downstream_permille = read_u32(r, "FaultSpec drop_downstream_permille")?;
        let reorder_permille = read_u32(r, "FaultSpec reorder_permille")?;
        let latency = LatencySpec::decode(r)?;
        let crash = match r.u8("FaultSpec crash presence byte")? {
            0 => None,
            1 => Some(CrashSpec::decode(r)?),
            tag => Err(WireError::BadTag {
                what: "FaultSpec crash presence byte",
                tag,
            })?,
        };
        Ok(FaultSpec {
            seed,
            drop_upstream_permille,
            drop_downstream_permille,
            reorder_permille,
            latency,
            crash,
        })
    }
}

// ---------------------------------------------------------------------------
// Record bodies
// ---------------------------------------------------------------------------

impl WireEncode for TraceHeader {
    fn encode(&self, buf: &mut Vec<u8>) {
        write_str(buf, &self.protocol);
        varint::write_u64(buf, self.n);
        varint::write_u64(buf, self.k);
        self.eps.encode(buf);
        varint::write_u64(buf, self.seed);
        match self.fault {
            None => buf.push(0),
            Some(fault) => {
                buf.push(1);
                fault.encode(buf);
            }
        }
        write_str(buf, &self.label);
    }
}

impl WireDecode for TraceHeader {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let protocol = read_str(r, "TraceHeader protocol")?;
        let n = r.u64()?;
        let k = r.u64()?;
        let eps = Epsilon::decode(r)?;
        let seed = r.u64()?;
        let fault = match r.u8("TraceHeader fault presence byte")? {
            0 => None,
            1 => Some(FaultSpec::decode(r)?),
            tag => Err(WireError::BadTag {
                what: "TraceHeader fault presence byte",
                tag,
            })?,
        };
        let label = read_str(r, "TraceHeader label")?;
        Ok(TraceHeader {
            protocol,
            n,
            k,
            eps,
            seed,
            fault,
            label,
        })
    }
}

impl WireEncode for TraceStep {
    fn encode(&self, buf: &mut Vec<u8>) {
        varint::write_u64(buf, self.step);
        write_seq(buf, &self.events);
        write_seq(buf, &self.row);
        write_seq(buf, &self.output);
        write_bool(buf, self.valid);
        varint::write_u64(buf, self.messages_total);
    }
}

impl WireDecode for TraceStep {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(TraceStep {
            step: r.u64()?,
            events: read_seq(r, "TraceStep events")?,
            row: read_seq(r, "TraceStep row")?,
            output: read_seq(r, "TraceStep output")?,
            valid: read_bool(r, "TraceStep valid flag")?,
            messages_total: r.u64()?,
        })
    }
}

impl WireEncode for TraceEnd {
    fn encode(&self, buf: &mut Vec<u8>) {
        varint::write_u64(buf, self.steps);
        varint::write_u64(buf, self.invalid_steps);
        varint::write_u64(buf, self.inexact_steps);
        self.stats.encode(buf);
        write_seq(buf, &self.filters);
        write_seq(buf, &self.values);
    }
}

impl WireDecode for TraceEnd {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(TraceEnd {
            steps: r.u64()?,
            invalid_steps: r.u64()?,
            inexact_steps: r.u64()?,
            stats: CommStats::decode(r)?,
            filters: read_seq(r, "TraceEnd filters")?,
            values: read_seq(r, "TraceEnd values")?,
        })
    }
}

impl WireEncode for TraceRecord {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            TraceRecord::Header(header) => {
                buf.push(0);
                header.encode(buf);
            }
            TraceRecord::Step(step) => {
                buf.push(1);
                step.encode(buf);
            }
            TraceRecord::End(end) => {
                buf.push(2);
                end.encode(buf);
            }
        }
    }
}

impl WireDecode for TraceRecord {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8("TraceRecord")? {
            0 => Ok(TraceRecord::Header(TraceHeader::decode(r)?)),
            1 => Ok(TraceRecord::Step(TraceStep::decode(r)?)),
            2 => Ok(TraceRecord::End(TraceEnd::decode(r)?)),
            tag => Err(WireError::BadTag {
                what: "TraceRecord",
                tag,
            }),
        }
    }
}

// ---------------------------------------------------------------------------
// Stream I/O
// ---------------------------------------------------------------------------

/// Writes one record (length prefix + payload + CRC trailer) to the stream.
///
/// Returns the total bytes written, including the 4-byte prefix.
///
/// # Errors
///
/// [`WireError::FrameTooLarge`] if the encoded payload exceeds
/// [`MAX_FRAME_LEN`](crate::MAX_FRAME_LEN) — refused before any bytes are
/// written — and [`WireError::Io`] for writer failures.
pub fn write_record(w: &mut impl Write, record: &TraceRecord) -> Result<usize, WireError> {
    let wire = seal(TRACE_MAGIC, TRACE_VERSION, |buf| record.encode(buf))?;
    w.write_all(&wire)?;
    Ok(wire.len())
}

/// Reads the next record, or `Ok(None)` on a clean end of stream.
///
/// "Clean" means EOF *before* the first length byte; EOF anywhere later is
/// an error, so a truncated capture is always a typed error rather than a
/// silently shorter trace.
///
/// # Errors
///
/// [`WireError::FrameTooLarge`] for an oversized length prefix,
/// [`WireError::Truncated`] for a record cut off inside its prefix or too
/// short to hold a record, [`WireError::BadMagic`] /
/// [`WireError::UnsupportedVersion`] for a header other than
/// [`TRACE_MAGIC`] / [`TRACE_VERSION`], [`WireError::ChecksumMismatch`] for
/// a corrupted payload, any decoding error for a corrupt body, and
/// [`WireError::Io`] for reader failures.
pub fn read_record(r: &mut impl Read) -> Result<Option<(TraceRecord, usize)>, WireError> {
    let mut prefix = [0u8; 4];
    let mut got = 0;
    while got < prefix.len() {
        match r.read(&mut prefix[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(WireError::Truncated {
                    what: "trace record length prefix",
                })
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    let len = payload_len(prefix)?;
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    let record = from_bytes::<TraceRecord>(open(&payload, TRACE_MAGIC, TRACE_VERSION)?)?;
    Ok(Some((record, 4 + len)))
}

/// Reads an entire stream into a record list (convenience for tests and the
/// replay driver).
///
/// # Errors
///
/// The same errors as [`read_record`].
pub fn read_all_records(r: &mut impl Read) -> Result<Vec<TraceRecord>, WireError> {
    let mut records = Vec::new();
    while let Some((record, _)) = read_record(r)? {
        records.push(record);
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crc32::crc32;
    use proptest::prelude::*;

    /// Deterministic derivation of each record family from a few integers,
    /// sweeping every variant, presence flag and container length.
    fn header_from(x: u64, y: u64) -> TraceHeader {
        TraceHeader {
            protocol: ["exact_topk", "dense", "combined"][(x % 3) as usize].to_string(),
            n: x % 10_000,
            k: y % 64,
            eps: Epsilon::new((x % 9 + 1) as u32, 10).unwrap(),
            seed: x ^ y,
            fault: (x % 3 == 0).then(|| fault_from(x, y)),
            label: format!("cell-{}", y % 100),
        }
    }

    fn fault_from(x: u64, y: u64) -> FaultSpec {
        let mut spec = FaultSpec::none();
        spec.seed = x.wrapping_mul(31).wrapping_add(y);
        spec.drop_upstream_permille = (x % 1000) as u32;
        spec.drop_downstream_permille = (y % 1000) as u32;
        spec.reorder_permille = ((x ^ y) % 1000) as u32;
        spec.latency = match y % 3 {
            0 => LatencySpec::Immediate,
            1 => LatencySpec::Fixed((x % 5) as u32),
            _ => LatencySpec::Uniform {
                lo: (x % 3) as u32,
                hi: (x % 3 + y % 4) as u32,
            },
        };
        spec.crash = (y % 2 == 0).then_some(CrashSpec {
            crash_permille: (x % 200) as u32,
            down_steps: y % 20 + 1,
            max_down: (x % 8) as usize,
        });
        spec
    }

    fn step_from(x: u64, y: u64) -> TraceStep {
        let n = (x % 6 + 1) as usize;
        TraceStep {
            step: x,
            events: (0..y % 3)
                .map(|i| {
                    if (x + i) % 2 == 0 {
                        MembershipEvent::Leave(NodeId((i % n as u64) as usize))
                    } else {
                        MembershipEvent::Join(NodeId((i % n as u64) as usize))
                    }
                })
                .collect(),
            row: (0..n as u64).map(|i| i.wrapping_mul(x) ^ y).collect(),
            output: (0..(y % n as u64)).map(|i| NodeId(i as usize)).collect(),
            valid: x % 2 == 0,
            messages_total: x.wrapping_add(y),
        }
    }

    fn stats_from(x: u64, y: u64) -> CommStats {
        let mut stats = CommStats {
            rounds: x % 500,
            time_steps: y % 500,
            ..CommStats::default()
        };
        for (i, label) in PROTOCOL_LABELS.iter().enumerate() {
            if (x >> i) & 1 == 1 {
                let kind = MessageKind::ALL[(y as usize + i) % 3];
                stats.by_label_kind.insert((*label, kind), x ^ (i as u64));
            }
        }
        stats
    }

    fn end_from(x: u64, y: u64) -> TraceEnd {
        let n = (x % 6 + 1) as usize;
        TraceEnd {
            steps: x % 1000,
            invalid_steps: y % 10,
            inexact_steps: x % 10,
            stats: stats_from(x, y),
            filters: (0..n as u64)
                .map(|i| match (x + i) % 3 {
                    0 => Filter::at_least(i * 100),
                    1 => Filter::at_most(i * 100 + 7),
                    _ => Filter::bounded(i, i + y % 1000).unwrap(),
                })
                .collect(),
            values: (0..n as u64).map(|i| i.wrapping_mul(y)).collect(),
        }
    }

    fn record_from(sel: u8, x: u64, y: u64) -> TraceRecord {
        match sel % 3 {
            0 => TraceRecord::Header(header_from(x, y)),
            1 => TraceRecord::Step(step_from(x, y)),
            _ => TraceRecord::End(end_from(x, y)),
        }
    }

    /// Writes a record, reads it back, and asserts every strict prefix of
    /// the wire bytes fails — the same battery the frame codec runs.
    fn roundtrip_record(record: &TraceRecord) {
        let mut wire = Vec::new();
        let written = write_record(&mut wire, record).unwrap();
        assert_eq!(written, wire.len());
        let mut cursor = &wire[..];
        let (back, consumed) = read_record(&mut cursor).unwrap().expect("one record");
        assert_eq!(&back, record);
        assert_eq!(consumed, written);
        assert!(cursor.is_empty());
        for cut in 1..wire.len() {
            let mut cursor = &wire[..cut];
            assert!(
                read_record(&mut cursor).is_err(),
                "strict prefix of length {cut} decoded for {record:?}"
            );
        }
        // The empty prefix is the one legal truncation: a clean end of stream.
        let mut cursor = &wire[..0];
        assert!(matches!(read_record(&mut cursor), Ok(None)));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Arbitrary record → write → read == original; strict prefixes fail.
        #[test]
        fn records_roundtrip(sel in 0u8..255, x in 0u64..u64::MAX, y in 0u64..u64::MAX) {
            roundtrip_record(&record_from(sel, x, y));
        }

        /// Flipping any payload byte (via an arbitrary xor mask) never
        /// decodes: the CRC trailer catches body corruption, and corruption
        /// of the trailer itself disagrees with the recomputed CRC.
        #[test]
        fn corrupted_records_never_decode(
            sel in 0u8..255,
            x in 0u64..u64::MAX,
            y in 0u64..u64::MAX,
            mask in 1u32..256,
        ) {
            let record = record_from(sel, x, y);
            let mut wire = Vec::new();
            write_record(&mut wire, &record).unwrap();
            for i in 4..wire.len() {
                let mut corrupt = wire.clone();
                corrupt[i] ^= mask as u8;
                let mut cursor = &corrupt[..];
                prop_assert!(
                    read_record(&mut cursor).is_err(),
                    "xor {mask:#x} at payload byte {} decoded",
                    i - 4
                );
            }
        }

        /// Multi-record streams (the actual trace file shape) round-trip and
        /// preserve order.
        #[test]
        fn streams_roundtrip(x in 0u64..u64::MAX, y in 0u64..u64::MAX, steps in 0u64..6) {
            let mut records = vec![TraceRecord::Header(header_from(x, y))];
            for s in 0..steps {
                records.push(TraceRecord::Step(step_from(x.wrapping_add(s), y)));
            }
            records.push(TraceRecord::End(end_from(x, y)));
            let mut wire = Vec::new();
            for record in &records {
                write_record(&mut wire, record).unwrap();
            }
            let back = read_all_records(&mut &wire[..]).unwrap();
            prop_assert_eq!(back, records);
        }
    }

    #[test]
    fn version_skew_is_a_typed_error() {
        let mut wire = Vec::new();
        write_record(&mut wire, &TraceRecord::Header(header_from(1, 2))).unwrap();
        // Bump the version byte and re-seal the CRC so only the version is
        // wrong — the reader must reject it as skew, not as corruption.
        wire[5] = TRACE_VERSION + 1;
        let split = wire.len() - 4;
        let crc = crc32(&wire[4..split]).to_le_bytes();
        wire[split..].copy_from_slice(&crc);
        let mut cursor = &wire[..];
        assert!(matches!(
            read_record(&mut cursor),
            Err(WireError::UnsupportedVersion { found }) if found == TRACE_VERSION + 1
        ));
    }

    #[test]
    fn frame_magic_is_rejected() {
        let mut wire = Vec::new();
        write_record(&mut wire, &TraceRecord::Header(header_from(1, 2))).unwrap();
        wire[4] = crate::frame::MAGIC;
        let split = wire.len() - 4;
        let crc = crc32(&wire[4..split]).to_le_bytes();
        wire[split..].copy_from_slice(&crc);
        let mut cursor = &wire[..];
        assert!(matches!(
            read_record(&mut cursor),
            Err(WireError::BadMagic { found }) if found == crate::frame::MAGIC
        ));
    }

    #[test]
    fn trailing_garbage_inside_a_record_is_rejected() {
        let record = TraceRecord::Step(step_from(3, 4));
        let mut wire = Vec::new();
        write_record(&mut wire, &record).unwrap();
        // Splice one extra byte between body and trailer, grow the declared
        // length, and re-seal the CRC: the only defect left is the stray byte.
        let split = wire.len() - 4;
        wire.insert(split, 0xAB);
        let len = (wire.len() - 4) as u32;
        wire[..4].copy_from_slice(&len.to_le_bytes());
        let split = wire.len() - 4;
        let crc = crc32(&wire[4..split]).to_le_bytes();
        wire[split..].copy_from_slice(&crc);
        let mut cursor = &wire[..];
        assert!(matches!(
            read_record(&mut cursor),
            Err(WireError::TrailingBytes { remaining: 1 })
        ));
    }

    #[test]
    fn oversized_length_prefix_is_refused_before_allocating() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(u32::MAX).to_le_bytes());
        wire.extend_from_slice(&[0u8; 16]);
        let mut cursor = &wire[..];
        assert!(matches!(
            read_record(&mut cursor),
            Err(WireError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn undersized_records_are_refused() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&6u32.to_le_bytes());
        wire.extend_from_slice(&[TRACE_MAGIC, TRACE_VERSION, 0, 0, 0, 0]);
        let mut cursor = &wire[..];
        assert!(matches!(
            read_record(&mut cursor),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn corrupt_counts_fail_fast_with_a_valid_crc() {
        // A huge row count with a correct CRC must be refused by the count
        // guard (Truncated), not by an allocation attempt.
        let mut payload = vec![TRACE_MAGIC, TRACE_VERSION, 1]; // Step tag
        varint::write_u64(&mut payload, 0); // step
        varint::write_u64(&mut payload, 0); // no events
        varint::write_u64(&mut payload, u64::MAX); // absurd row count
        let crc = crc32(&payload);
        payload.extend_from_slice(&crc.to_le_bytes());
        let mut wire = (payload.len() as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(&payload);
        let mut cursor = &wire[..];
        assert!(matches!(
            read_record(&mut cursor),
            Err(WireError::FrameTooLarge { .. }) | Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn commstats_require_canonical_entry_order() {
        let mut stats = CommStats::default();
        stats
            .by_label_kind
            .insert((ProtocolLabel::Dense, MessageKind::Upstream), 5);
        stats
            .by_label_kind
            .insert((ProtocolLabel::Init, MessageKind::Broadcast), 3);
        let bytes = crate::codec::to_bytes(&stats);
        assert_eq!(
            crate::codec::from_bytes::<CommStats>(&bytes).unwrap(),
            stats
        );
        // Hand-build the same entries in descending order: rejected.
        let mut swapped = Vec::new();
        varint::write_u64(&mut swapped, stats.rounds);
        varint::write_u64(&mut swapped, stats.time_steps);
        varint::write_u64(&mut swapped, 2);
        for (label, kind, count) in [
            (ProtocolLabel::Dense, MessageKind::Upstream, 5u64),
            (ProtocolLabel::Init, MessageKind::Broadcast, 3),
        ] {
            label.encode(&mut swapped);
            kind.encode(&mut swapped);
            varint::write_u64(&mut swapped, count);
        }
        assert!(matches!(
            crate::codec::from_bytes::<CommStats>(&swapped),
            Err(WireError::BadTag { what, .. }) if what.contains("ascending")
        ));
    }
}
