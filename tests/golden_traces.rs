//! The golden-trace regression corpus.
//!
//! `tests/traces/` holds one small recorded run per workload family, plus one
//! fault-injected and one membership-churn run. Two properties are enforced
//! on every CI run:
//!
//! 1. **Currency** — re-recording each corpus cell today produces the exact
//!    bytes committed under `tests/traces/`. Any change to a protocol, an
//!    engine, a generator or the trace codec that alters observable behaviour
//!    flips at least one golden byte and fails here, pointing at the first
//!    divergent trace. After an *intended* behaviour change, regenerate with
//!    `GOLDEN_TRACES_REGEN=1 cargo test --test golden_traces` and commit the
//!    diff — the diff itself is the review artifact.
//!
//! 2. **Replay agreement** — each committed trace, re-driven through all four
//!    engines (`topk_bench::replay::EngineKind::ALL`), reproduces every
//!    recorded reply, validity verdict, cumulative message count and the
//!    final `CommStats`/filter/value state bit for bit. Replay drives a
//!    `QuerySet` of one full-population query while the recordings come from
//!    the single-monitor driver, so the same check pins the query-set
//!    driver's solo path to the legacy monitor runs byte for byte.
//!
//! The corpus cells are deliberately tiny (n = 24, 12 steps) so the whole
//! battery stays a sub-second affair per engine; the point is behavioural
//! pinning, not load.

use std::path::PathBuf;
use topk_repro::bench::campaign::{GeneratorSpec, MembershipPlanSpec, ProtocolKind, ScenarioSpec};
use topk_repro::bench::replay::{load_trace, record_run, replay_trace, EngineKind};
use topk_repro::bench::scenario::ScenarioFile;
use topk_repro::model::prelude::*;
use topk_repro::wire::write_record;

fn traces_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/traces")
}

fn cell(
    name: &str,
    generator: GeneratorSpec,
    protocol: ProtocolKind,
) -> (ScenarioFile, ProtocolKind) {
    (
        ScenarioFile {
            name: name.to_string(),
            spec: ScenarioSpec {
                generator,
                n: 24,
                k: 4,
                eps: Epsilon::TENTH,
                steps: 12,
                seed: 0x601D,
            },
            fault: None,
            membership: None,
            queries: None,
            floors: None,
        },
        protocol,
    )
}

/// The corpus: every generator family once (each under a protocol that
/// exercises a different monitor), plus one fault and one membership run.
fn corpus() -> Vec<(ScenarioFile, ProtocolKind)> {
    let mut cells = vec![
        cell(
            "zipf",
            GeneratorSpec::Zipf { peak_load: 10_000 },
            ProtocolKind::ExactTopK,
        ),
        cell(
            "noise",
            GeneratorSpec::Noise {
                sigma: 8,
                z: 1 << 16,
            },
            ProtocolKind::Dense,
        ),
        cell(
            "random-walk",
            GeneratorSpec::RandomWalk {
                delta: 1 << 16,
                max_step: 1 << 8,
                move_permille: 300,
            },
            ProtocolKind::TopKProtocol,
        ),
        cell(
            "gap",
            GeneratorSpec::Gap { high_base: 1 << 16 },
            ProtocolKind::TopKProtocol,
        ),
        cell(
            "adversarial",
            GeneratorSpec::Adversarial {
                sigma: 12,
                y0: 1 << 16,
            },
            ProtocolKind::TopKProtocol,
        ),
        cell(
            "regime-switch",
            GeneratorSpec::RegimeSwitch {
                sigma: 8,
                z: 1 << 16,
                segment_len: 4,
            },
            ProtocolKind::Combined,
        ),
        cell(
            "correlated-burst",
            GeneratorSpec::CorrelatedBurst {
                base_load: 1000,
                factor: 8,
                group: 6,
                burst_permille: 100,
            },
            ProtocolKind::HalfEps,
        ),
        cell(
            "churn",
            GeneratorSpec::Churn {
                z: 1 << 16,
                churn_permille: 80,
            },
            ProtocolKind::TopKProtocol,
        ),
        cell(
            "zipf-web",
            GeneratorSpec::ZipfWeb {
                peak_load: 10_000,
                period: 6,
            },
            ProtocolKind::TopKProtocol,
        ),
        cell(
            "noise-field",
            GeneratorSpec::NoiseField {
                high: 4,
                sigma: 8,
                z: 1 << 16,
            },
            ProtocolKind::Dense,
        ),
    ];
    let (mut fault_cell, protocol) = cell(
        "fault-crash",
        GeneratorSpec::Noise {
            sigma: 8,
            z: 1 << 16,
        },
        ProtocolKind::TopKProtocol,
    );
    fault_cell.fault = Some(FaultSpec::crash_rejoin(0xFA57, 40, 3, 6));
    cells.push((fault_cell, protocol));
    let (mut member_cell, protocol) = cell(
        "member-churn",
        GeneratorSpec::Noise {
            sigma: 8,
            z: 1 << 16,
        },
        ProtocolKind::TopKProtocol,
    );
    member_cell.membership = Some(MembershipPlanSpec {
        seed: 0xC0FE,
        leave_permille: 150,
        downtime: 2,
        min_live: 12,
    });
    cells.push((member_cell, protocol));
    cells
}

fn record_bytes(file: &ScenarioFile, protocol: ProtocolKind) -> Vec<u8> {
    let (_, records) = record_run(file, protocol);
    let mut bytes = Vec::new();
    for record in &records {
        write_record(&mut bytes, record).expect("encoding a fresh recording cannot fail");
    }
    bytes
}

#[test]
fn golden_traces_are_current() {
    let dir = traces_dir();
    let regen = std::env::var_os("GOLDEN_TRACES_REGEN").is_some();
    if regen {
        std::fs::create_dir_all(&dir).expect("create tests/traces");
    }
    let mut stale = Vec::new();
    for (file, protocol) in corpus() {
        let path = dir.join(format!("{}.trace", file.name));
        let fresh = record_bytes(&file, protocol);
        if regen {
            std::fs::write(&path, &fresh).expect("write golden trace");
            continue;
        }
        match std::fs::read(&path) {
            Ok(committed) if committed == fresh => {}
            Ok(_) => stale.push(format!("{}: bytes differ", path.display())),
            Err(e) => stale.push(format!("{}: {e}", path.display())),
        }
    }
    assert!(
        stale.is_empty(),
        "golden traces are stale — if the behaviour change is intended, regenerate with \
         GOLDEN_TRACES_REGEN=1 cargo test --test golden_traces\n{}",
        stale.join("\n")
    );
}

#[test]
fn golden_traces_replay_bit_identically_on_every_engine() {
    let dir = traces_dir();
    for (file, _) in corpus() {
        let path = dir.join(format!("{}.trace", file.name));
        let records = load_trace(&path)
            .unwrap_or_else(|e| panic!("cannot load golden trace {}: {e}", path.display()));
        for kind in EngineKind::ALL {
            let outcome = replay_trace(&records, kind).unwrap_or_else(|e| {
                panic!("{}: replay through {} failed: {e}", file.name, kind.name())
            });
            assert!(
                outcome.is_identical(),
                "{} diverged on the {} engine:\n{}",
                file.name,
                kind.name(),
                outcome.mismatches.join("\n")
            );
        }
    }
}

#[test]
fn the_corpus_covers_every_family_and_both_companions() {
    let corpus = corpus();
    let families: std::collections::BTreeSet<&str> = corpus
        .iter()
        .map(|(f, _)| f.spec.generator.family())
        .collect();
    assert_eq!(families.len(), 10, "one trace per generator family");
    assert_eq!(corpus.iter().filter(|(f, _)| f.fault.is_some()).count(), 1);
    assert_eq!(
        corpus
            .iter()
            .filter(|(f, _)| f.membership.is_some())
            .count(),
        1
    );
}
