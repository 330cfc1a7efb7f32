//! Trace record/replay: re-driving a recorded run through any engine.
//!
//! [`record_run`] drives one scenario (a [`ScenarioFile`] cell, optionally
//! under its fault and membership companions) and captures the complete
//! step-by-step record as [`TraceRecord`]s — the header naming the protocol
//! and its parameters, one [`TraceStep`] per observation (the masked row, the
//! membership events applied before it, the monitor's reply, the validity
//! verdict and the cumulative message count), and a [`TraceEnd`] with the
//! final [`CommStats`], filter assignment and value vector.
//!
//! [`replay_trace`] is the other direction: it rebuilds the monitor from the
//! header as a [`QuerySet`] of one full-population query and re-drives the
//! recorded rows and events through a *fresh* engine of any [`EngineKind`]
//! with [`run_query_set_observed`], the driver the repository benchmark
//! times. It diffs everything the trace asserts — per-step replies,
//! validity, message counters, and the final stats/filters/values — bit for
//! bit. Recordings and replays run the same step loop, so a replay on the
//! recording engine reproduces the run exactly, and a replay on any other
//! engine pins that engine to the recording byte for byte. An empty
//! [`ReplayOutcome::mismatches`] means the engine reproduced the recorded run
//! exactly; anything else names the first divergences in human-readable
//! form. The golden corpus under `tests/traces/` runs every trace through all
//! four engines this way on every CI run.
//!
//! Traces are stored in the `topk-wire` [`trace`](topk_wire::trace) format
//! (length-prefixed, versioned, CRC-trailered records); [`save_trace`] and
//! [`load_trace`] are the file endpoints `experiments --record`/`--replay`
//! use.

use crate::campaign::{drive, ProtocolKind};
use crate::scenario::ScenarioFile;
use std::fmt;
use std::path::Path;
use topk_core::queryset::{run_query_set_observed, QuerySet, QuerySetReport};
use topk_model::prelude::*;
use topk_wire::{
    read_all_records, write_record, TraceEnd, TraceHeader, TraceRecord, TraceStep, WireError,
};

pub use topk_net::{build_engine, EngineKind};

/// A trace that cannot be replayed at all (as opposed to one that replays
/// but diverges — that is a [`ReplayOutcome`] with mismatches).
#[derive(Debug)]
pub enum ReplayError {
    /// The record sequence is not `Header, Step*, End`.
    Malformed {
        /// What is wrong with the sequence.
        message: String,
    },
    /// The header names a protocol this build does not know.
    UnknownProtocol {
        /// The unknown protocol name.
        name: String,
    },
    /// The trace file could not be read or decoded.
    Wire(WireError),
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::Malformed { message } => write!(f, "malformed trace: {message}"),
            ReplayError::UnknownProtocol { name } => write!(f, "unknown protocol `{name}`"),
            ReplayError::Wire(e) => write!(f, "trace codec error: {e}"),
        }
    }
}

impl std::error::Error for ReplayError {}

impl From<WireError> for ReplayError {
    fn from(e: WireError) -> Self {
        ReplayError::Wire(e)
    }
}

/// Result of replaying one trace through one engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayOutcome {
    /// The engine the trace was replayed through.
    pub engine: &'static str,
    /// The trace's label (scenario name).
    pub label: String,
    /// Steps re-driven.
    pub steps: u64,
    /// Every observed divergence from the recording (empty = bit-identical).
    pub mismatches: Vec<String>,
}

impl ReplayOutcome {
    /// True when the replay reproduced the recording exactly.
    pub fn is_identical(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// Records one full run of `file` under `protocol` on the indexed engine
/// (wrapped in a [`FaultyTransport`](topk_net::FaultyTransport) when the
/// scenario carries a fault plan) — the same driver the campaign cells run
/// through — returning the driver's report and the complete record stream.
pub fn record_run(
    file: &ScenarioFile,
    protocol: ProtocolKind,
) -> (QuerySetReport, Vec<TraceRecord>) {
    let spec = &file.spec;
    let mut net = build_engine(EngineKind::Indexed, spec.n, spec.seed, file.fault.as_ref());
    let mut records = vec![TraceRecord::Header(TraceHeader {
        protocol: protocol.name().to_string(),
        n: spec.n as u64,
        k: spec.k as u64,
        eps: spec.eps,
        seed: spec.seed,
        fault: file.fault,
        label: file.name.clone(),
    })];
    let report = drive(file, protocol, net.as_mut(), |obs| {
        records.push(TraceRecord::Step(TraceStep {
            step: obs.step,
            events: obs.events.to_vec(),
            row: obs.row.to_vec(),
            output: obs.outputs[0].clone(),
            valid: obs.valid[0],
            messages_total: obs.messages_total,
        }));
    });
    let solo = &report.per_query[0];
    records.push(TraceRecord::End(TraceEnd {
        steps: report.steps,
        invalid_steps: solo.invalid_steps,
        inexact_steps: solo.inexact_steps,
        stats: report.stats.clone(),
        filters: net.peek_filters(),
        values: net.peek_values(),
    }));
    (report, records)
}

/// Splits a record stream into its `Header, Step*, End` parts, validating
/// the order and the step numbering.
fn dissect(
    records: &[TraceRecord],
) -> Result<(&TraceHeader, Vec<&TraceStep>, &TraceEnd), ReplayError> {
    let malformed = |message: String| ReplayError::Malformed { message };
    let Some((TraceRecord::Header(header), rest)) = records.split_first() else {
        return Err(malformed("the first record must be a header".into()));
    };
    let Some((TraceRecord::End(end), middle)) = rest.split_last() else {
        return Err(malformed("the last record must be an end marker".into()));
    };
    let mut steps = Vec::with_capacity(middle.len());
    for (i, record) in middle.iter().enumerate() {
        match record {
            TraceRecord::Step(step) if step.step == i as u64 => steps.push(step),
            TraceRecord::Step(step) => {
                return Err(malformed(format!(
                    "step records must be consecutive from 0 (found step {} at position {i})",
                    step.step
                )))
            }
            _ => {
                return Err(malformed(format!(
                    "record {i} between header and end is not a step"
                )))
            }
        }
    }
    if end.steps != steps.len() as u64 {
        return Err(malformed(format!(
            "end marker claims {} steps but {} were recorded",
            end.steps,
            steps.len()
        )));
    }
    Ok((header, steps, end))
}

/// Replays `records` through a [`QuerySet`] of one full-population query on a
/// fresh engine of the given kind and diffs every recorded quantity bit for
/// bit.
///
/// # Errors
///
/// [`ReplayError`] when the trace cannot be driven at all (malformed record
/// sequence, unknown protocol). Divergence from the recording is *not* an
/// error — it is reported through [`ReplayOutcome::mismatches`].
pub fn replay_trace(
    records: &[TraceRecord],
    kind: EngineKind,
) -> Result<ReplayOutcome, ReplayError> {
    let (header, steps, end) = dissect(records)?;
    let Some(protocol) = ProtocolKind::from_name(&header.protocol) else {
        return Err(ReplayError::UnknownProtocol {
            name: header.protocol.clone(),
        });
    };
    let n = usize::try_from(header.n).map_err(|_| ReplayError::Malformed {
        message: format!("n = {} exceeds this platform's usize", header.n),
    })?;
    let k = usize::try_from(header.k).map_err(|_| ReplayError::Malformed {
        message: format!("k = {} exceeds this platform's usize", header.k),
    })?;
    let mut set = QuerySet::new(n);
    set.register(
        QuerySpec::new(k, header.eps, protocol.name()),
        protocol.build_monitor(k, header.eps),
    );
    let mut net = build_engine(kind, n, header.seed, header.fault.as_ref());
    // Cap the noise: after this many divergences the engines have clearly
    // forked and further diffs repeat the same story.
    const MAX_MISMATCHES: usize = 8;
    let mut mismatches: Vec<String> = Vec::new();
    let mut cursor = 0usize;
    let report = run_query_set_observed(
        &mut set,
        net.as_mut(),
        |_filters| {
            let row = steps.get(cursor).map(|s| s.row.clone());
            cursor += 1;
            row
        },
        |step| steps[step as usize].events.clone(),
        |obs| {
            if mismatches.len() >= MAX_MISMATCHES {
                return;
            }
            let recorded = steps[obs.step as usize];
            if obs.outputs[0] != recorded.output {
                mismatches.push(format!(
                    "step {}: output {:?} != recorded {:?}",
                    obs.step, obs.outputs[0], recorded.output
                ));
            }
            if obs.valid[0] != recorded.valid {
                mismatches.push(format!(
                    "step {}: validity {} != recorded {}",
                    obs.step, obs.valid[0], recorded.valid
                ));
            }
            if obs.messages_total != recorded.messages_total {
                mismatches.push(format!(
                    "step {}: cumulative messages {} != recorded {}",
                    obs.step, obs.messages_total, recorded.messages_total
                ));
            }
            if obs.row != recorded.row.as_slice() {
                mismatches.push(format!(
                    "step {}: the driver re-masked the row differently",
                    obs.step
                ));
            }
        },
    );
    let solo = &report.per_query[0];
    if report.steps != end.steps {
        mismatches.push(format!(
            "run ended after {} steps, recording has {}",
            report.steps, end.steps
        ));
    }
    if solo.invalid_steps != end.invalid_steps {
        mismatches.push(format!(
            "invalid steps {} != recorded {}",
            solo.invalid_steps, end.invalid_steps
        ));
    }
    if solo.inexact_steps != end.inexact_steps {
        mismatches.push(format!(
            "inexact steps {} != recorded {}",
            solo.inexact_steps, end.inexact_steps
        ));
    }
    if report.stats != end.stats {
        mismatches.push("final CommStats differ from the recording".to_string());
    }
    if net.peek_filters() != end.filters {
        mismatches.push("final filter assignment differs from the recording".to_string());
    }
    if net.peek_values() != end.values {
        mismatches.push("final value vector differs from the recording".to_string());
    }
    Ok(ReplayOutcome {
        engine: kind.name(),
        label: header.label.clone(),
        steps: report.steps,
        mismatches,
    })
}

/// Writes a record stream to a trace file.
///
/// # Errors
///
/// Any I/O or encoding error from the trace codec.
pub fn save_trace(path: &Path, records: &[TraceRecord]) -> Result<(), WireError> {
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    for record in records {
        write_record(&mut file, record)?;
    }
    use std::io::Write as _;
    file.flush()?;
    Ok(())
}

/// Reads a complete trace file back into records.
///
/// # Errors
///
/// Any I/O or decoding error (truncation, bad magic, version skew, CRC
/// mismatch) from the trace codec.
pub fn load_trace(path: &Path) -> Result<Vec<TraceRecord>, WireError> {
    let mut file = std::io::BufReader::new(std::fs::File::open(path)?);
    read_all_records(&mut file)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{GeneratorSpec, MembershipPlanSpec, ScenarioSpec};
    use crate::scenario::committed_library;

    fn small_cell() -> ScenarioFile {
        ScenarioFile {
            name: "replay-smoke".to_string(),
            spec: ScenarioSpec {
                generator: GeneratorSpec::Noise {
                    sigma: 6,
                    z: 1 << 16,
                },
                n: 16,
                k: 4,
                eps: Epsilon::TENTH,
                steps: 12,
                seed: 0xD1CE,
            },
            fault: None,
            membership: None,
            queries: None,
            floors: None,
        }
    }

    #[test]
    fn a_recording_replays_identically_on_the_recording_engine() {
        for protocol in ProtocolKind::ALL {
            let (report, records) = record_run(&small_cell(), protocol);
            assert_eq!(report.steps, 12);
            assert_eq!(records.len(), 14, "header + 12 steps + end");
            let outcome =
                replay_trace(&records, EngineKind::Indexed).expect("trace is well-formed");
            assert!(
                outcome.is_identical(),
                "{}: {:?}",
                protocol.name(),
                outcome.mismatches
            );
            assert_eq!(outcome.steps, 12);
            assert_eq!(outcome.label, "replay-smoke");
        }
    }

    #[test]
    fn recordings_survive_the_file_round_trip() {
        let (_, records) = record_run(&small_cell(), ProtocolKind::Dense);
        let path = std::env::temp_dir().join(format!("topk-replay-{}.trace", std::process::id()));
        save_trace(&path, &records).expect("write must succeed");
        let back = load_trace(&path).expect("read must succeed");
        assert_eq!(back, records);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_tampered_step_is_reported_as_a_mismatch_not_an_error() {
        let (_, mut records) = record_run(&small_cell(), ProtocolKind::ExactTopK);
        let last_step = records.len() - 2;
        if let TraceRecord::Step(step) = &mut records[last_step] {
            step.messages_total += 1;
        } else {
            panic!("expected a step record before the end marker");
        }
        let outcome = replay_trace(&records, EngineKind::Indexed).unwrap();
        assert!(!outcome.is_identical());
        assert!(
            outcome
                .mismatches
                .iter()
                .any(|m| m.contains("cumulative messages")),
            "{:?}",
            outcome.mismatches
        );
    }

    #[test]
    fn malformed_record_orders_are_typed_errors() {
        let (_, records) = record_run(&small_cell(), ProtocolKind::HalfEps);
        // Missing header.
        assert!(matches!(
            replay_trace(&records[1..], EngineKind::Indexed),
            Err(ReplayError::Malformed { .. })
        ));
        // Missing end marker.
        assert!(matches!(
            replay_trace(&records[..records.len() - 1], EngineKind::Indexed),
            Err(ReplayError::Malformed { .. })
        ));
        // A hole in the step numbering.
        let mut holey = records.clone();
        holey.remove(3);
        assert!(matches!(
            replay_trace(&holey, EngineKind::Indexed),
            Err(ReplayError::Malformed { .. })
        ));
    }

    #[test]
    fn membership_recordings_replay_with_their_events() {
        let mut file = small_cell();
        file.membership = Some(MembershipPlanSpec {
            seed: 0xAB,
            leave_permille: 120,
            downtime: 2,
            min_live: 8,
        });
        let (report, records) = record_run(&file, ProtocolKind::Combined);
        assert_eq!(report.steps, 12);
        let recorded_events: usize = records
            .iter()
            .filter_map(|r| match r {
                TraceRecord::Step(s) => Some(s.events.len()),
                _ => None,
            })
            .sum();
        assert!(recorded_events > 0, "the churn plan must actually churn");
        let outcome = replay_trace(&records, EngineKind::Deterministic).unwrap();
        assert!(outcome.is_identical(), "{:?}", outcome.mismatches);
    }

    #[test]
    fn example_scenarios_record_and_replay() {
        let mut file = committed_library()
            .into_iter()
            .find(|f| f.name == "sensor_noise")
            .expect("the sensor_noise example is committed");
        file.spec.steps = 10;
        let (_, records) = record_run(&file, ProtocolKind::Dense);
        let outcome = replay_trace(&records, EngineKind::Indexed).unwrap();
        assert!(outcome.is_identical(), "{:?}", outcome.mismatches);
    }
}
