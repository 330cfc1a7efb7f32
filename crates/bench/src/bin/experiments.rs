//! Experiment harness binary.
//!
//! ```text
//! cargo run -p topk-bench --bin experiments --release            # all experiments, full scale
//! cargo run -p topk-bench --bin experiments --release -- e1 e5   # a subset
//! cargo run -p topk-bench --bin experiments --release -- --small # quick smoke run
//! cargo run -p topk-bench --bin experiments --release -- --json results/
//! cargo run -p topk-bench --bin experiments --release -- --throughput               # engine bench
//! cargo run -p topk-bench --bin experiments --release -- --throughput --quick       # CI smoke
//! cargo run -p topk-bench --bin experiments --release -- --check-floors FILE.json   # validate only
//! cargo run -p topk-bench --bin experiments --release -- --campaign                 # scenarios/ library
//! cargo run -p topk-bench --bin experiments --release -- --campaign --quick         # CI ratchet
//! cargo run -p topk-bench --bin experiments --release -- --check-competitive-floors FILE.json
//! cargo run -p topk-bench --bin experiments --release -- --scenario FILE.json       # one file
//! ```
//!
//! Prints one aligned table per experiment (the tables quoted in
//! EXPERIMENTS.md) and optionally writes each as JSON into a directory.
//!
//! `--throughput` runs the engine throughput benchmark instead (see
//! `topk_bench::throughput`): the deterministic, indexed, sharded and remote
//! engines across the generator × n × delivery matrix — steps/s, model
//! messages, and the wire frames and bytes per step the TCP-loopback remote
//! engine moves — plus the sharded engine's multi-core scaling curve. It
//! writes one report, `BENCH_throughput.json` (`BENCH_throughput_quick.json`
//! with `--quick`; path overridable with `--out FILE`), and exits non-zero if
//! the report misses a bar of the floor table. `--check-floors FILE`
//! re-validates an existing full-scale report with the same checker — CI uses
//! it to hold the *committed* `BENCH_throughput.json` to the `n = 10⁶` floors,
//! the full scaling curve and the silent-step frame bar without re-measuring
//! on shared runners.
//!
//! `--campaign` runs the scenario campaign (see `topk_bench::campaign`): every
//! file of the `scenarios/` library — read from the working directory, so run
//! it from the repository root — under every protocol, with empirical
//! competitive ratios against OPT, written to `BENCH_competitive.json`
//! (overridable with `--out`) and checked by the one campaign checker.
//! `--quick` runs only the files with at most 1024 nodes, each at its full
//! length, written to `BENCH_competitive_quick.json` by default.
//! `--baseline COMMITTED.json` additionally holds every freshly measured cell
//! to the ceilings committed for the same (file, protocol) key — the CI
//! ratchet. `--check-competitive-floors FILE` re-validates a committed
//! full-scale report against the library without re-measuring: a missing,
//! extra or stale cell fails it. All numeric bars of both check modes live
//! in `topk_bench::floors::FloorTable`.
//!
//! `--scenario FILE` runs one scenario file (schema in `docs/SCENARIOS.md`,
//! loader in `topk_bench::scenario`) through the same runner and checker:
//! every protocol, or its query plan, with its fault and membership plans.
//!
//! The *trace* modes record and re-drive full runs (`topk_bench::replay`,
//! wire format in `topk_wire::trace`): `--scenario FILE --record OUT.trace`
//! records the run (protocol selectable with `--protocol NAME`), and
//! `--replay FILE.trace` re-drives the recording through all four engines —
//! or one, with `--engine NAME` — and exits non-zero unless every reply,
//! message counter and the final filter/value state match bit for bit.

use std::path::{Path, PathBuf};
use topk_bench::experiments::{self, Scale};
use topk_bench::{campaign, replay, scenario, throughput, EngineKind, ExperimentTable, FloorTable};
use topk_offline::PhaseSolver;

fn report_floors(report: &throughput::ThroughputReport) -> ! {
    let failures = throughput::check_floors(report);
    if failures.is_empty() {
        let floors = FloorTable::STANDARD.throughput;
        println!(
            "floors ok: indexed >= {}x deterministic (and >= {} steps/s) at n=1e5, sharded ({} workers) >= {}x indexed at n=1e6 (or >= {}x at n=1e5 for quick runs), noise/dense; scaling curve >= {} worker counts with parallel efficiency >= {} (>= {} quick); <= {} frames per occupied shard per step on every remote row with 0 model messages",
            floors.indexed_speedup,
            floors.indexed_absolute_steps_per_sec,
            floors.sharded_floor_workers,
            floors.sharded_speedup_full,
            floors.sharded_speedup_quick,
            floors.scaling_min_worker_counts,
            floors.scaling_efficiency_full,
            floors.scaling_efficiency_quick,
            FloorTable::STANDARD.remote.max_silent_frames_per_shard_step,
        );
        std::process::exit(0);
    }
    for f in &failures {
        eprintln!("FLOOR REGRESSION: {f}");
    }
    std::process::exit(1);
}

/// The report a measuring mode writes when `--out` is not given: a quick run
/// gets its own `*_quick.json`, so it never overwrites the committed
/// full-scale report.
fn default_out(stem: &str, quick: bool) -> PathBuf {
    PathBuf::from(if quick {
        format!("{stem}_quick.json")
    } else {
        format!("{stem}.json")
    })
}

/// The campaign's scenario library, relative to the working directory.
const LIBRARY: &str = "scenarios";

fn load_library_or_exit() -> Vec<scenario::ScenarioFile> {
    match scenario::load_scenario_dir(Path::new(LIBRARY)) {
        Ok(files) if !files.is_empty() => files,
        Ok(_) => {
            eprintln!("{LIBRARY}: no scenario files found (run from the repository root)");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("invalid scenario library: {e}");
            std::process::exit(1);
        }
    }
}

fn read_report_or_exit(path: &Path) -> campaign::CompetitiveReport {
    let json = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    serde_json::from_str(&json).unwrap_or_else(|e| panic!("cannot parse {}: {e}", path.display()))
}

fn report_competitive_floors(
    report: &campaign::CompetitiveReport,
    library: &[scenario::ScenarioFile],
) -> ! {
    let failures = campaign::check_competitive_floors(report, library);
    if failures.is_empty() {
        let floors = FloorTable::STANDARD.competitive;
        println!(
            "competitive floors ok: {} cells of the {} selection of {} scenario files, >= {} protocols x >= {} families, >= {} fault families, >= {} churn plans, every invalid-step bar held, every ratio within its ceiling",
            report.cells.len(),
            report.scale,
            library.len(),
            floors.min_protocols,
            floors.min_generators,
            floors.min_fault_families,
            floors.min_membership_plans,
        );
        std::process::exit(0);
    }
    for f in &failures {
        eprintln!("COMPETITIVE FLOOR REGRESSION: {f}");
    }
    std::process::exit(1);
}

fn run_campaign_bench(quick: bool, out: PathBuf, baseline: Option<PathBuf>) -> ! {
    let library = load_library_or_exit();
    let report = campaign::run_campaign(&library, quick, |line| eprintln!("{line}"));
    std::fs::write(&out, campaign::to_json(&report)).expect("write campaign json");
    eprintln!("wrote {}", out.display());
    if let Some(path) = baseline {
        // The ratchet: hold the freshly measured cells to the ceilings
        // committed for the same (file, protocol) keys.
        let committed = read_report_or_exit(&path);
        let failures = campaign::check_against_baseline(&report, &committed);
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("COMPETITIVE FLOOR REGRESSION: {f}");
            }
            std::process::exit(1);
        }
        eprintln!(
            "baseline ok: all {} measured cells within the ceilings committed in {}",
            report.cells.len(),
            path.display()
        );
    }
    report_competitive_floors(&report, &library)
}

fn check_competitive_floors_only(path: PathBuf) -> ! {
    let report = read_report_or_exit(&path);
    eprintln!(
        "checking competitive floors of {} ({} scale, {} cells)",
        path.display(),
        report.scale,
        report.cells.len()
    );
    // The committed report this mode guards must be a full-scale run — a
    // quick-scale file leaves out the large-n probes.
    if report.scale != "full" {
        eprintln!(
            "COMPETITIVE FLOOR REGRESSION: {} is a '{}'-scale report; the committed report must be full-scale",
            path.display(),
            report.scale
        );
        std::process::exit(1);
    }
    report_competitive_floors(&report, &load_library_or_exit())
}

fn run_throughput_bench(quick: bool, out: PathBuf) -> ! {
    let report = throughput::run_throughput(quick, |line| eprintln!("{line}"));
    std::fs::write(&out, throughput::to_json(&report)).expect("write throughput json");
    eprintln!("wrote {}", out.display());
    print_speedups(&report.rows);
    report_floors(&report)
}

/// Prints, per (generator, n), the dense-delivery steps/s ratio of the
/// indexed engine over the deterministic one and of the sharded engine over
/// the indexed one.
fn print_speedups(rows: &[throughput::ThroughputRow]) {
    for (engine, reference) in [
        (EngineKind::Indexed, EngineKind::Deterministic),
        (EngineKind::Sharded, EngineKind::Indexed),
    ] {
        let dense = |kind: EngineKind| {
            rows.iter()
                .filter(move |r| r.engine == kind.name() && r.mode == "dense")
        };
        for row in dense(engine) {
            if let Some(base) =
                dense(reference).find(|r| r.generator == row.generator && r.n == row.n)
            {
                println!(
                    "speedup {:>12} n={:>8}: {:>8.1}x ({engine} vs {reference}, dense delivery)",
                    row.generator,
                    row.n,
                    row.steps_per_sec / base.steps_per_sec
                );
            }
        }
    }
}

fn check_floors_only(path: PathBuf) -> ! {
    let json = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let report: throughput::ThroughputReport = serde_json::from_str(&json)
        .unwrap_or_else(|e| panic!("cannot parse {}: {e}", path.display()));
    eprintln!(
        "checking floors of {} ({} scale, {} rows)",
        path.display(),
        report.scale,
        report.rows.len()
    );
    // The committed report this mode guards must be a full-scale run — a
    // quick-scale file would only ever be held to the loose smoke floors.
    if report.scale != "full" {
        eprintln!(
            "FLOOR REGRESSION: {} is a '{}'-scale report; the committed benchmark must be full-scale",
            path.display(),
            report.scale
        );
        std::process::exit(1);
    }
    report_floors(&report)
}

fn load_scenario_or_exit(path: &Path) -> scenario::ScenarioFile {
    match scenario::load_scenario(path) {
        Ok(file) => file,
        Err(e) => {
            eprintln!("invalid scenario: {e}");
            std::process::exit(1);
        }
    }
}

fn run_record(scenario_path: PathBuf, out: PathBuf, protocol_name: Option<String>) -> ! {
    let file = load_scenario_or_exit(&scenario_path);
    if file.queries.is_some() {
        eprintln!("--record takes a single-query scenario (traces record one monitor's run)");
        std::process::exit(2);
    }
    let name = protocol_name.unwrap_or_else(|| "topk_protocol".to_string());
    let Some(protocol) = campaign::ProtocolKind::from_name(&name) else {
        eprintln!(
            "--protocol: unknown protocol `{name}` (one of: {})",
            campaign::ProtocolKind::ALL.map(|p| p.name()).join(", ")
        );
        std::process::exit(2);
    };
    let (report, records) = replay::record_run(&file, protocol);
    if let Err(e) = replay::save_trace(&out, &records) {
        eprintln!("cannot write trace {}: {e}", out.display());
        std::process::exit(1);
    }
    println!(
        "recorded {}: {} under {} — {} steps, {} messages, {} records -> {}",
        file.name,
        scenario_path.display(),
        protocol.name(),
        report.steps,
        report.messages(),
        records.len(),
        out.display()
    );
    std::process::exit(0);
}

fn run_scenario(path: PathBuf) -> ! {
    let file = load_scenario_or_exit(&path);
    let cells = campaign::run_file(&file, &mut PhaseSolver::new());
    for cell in &cells {
        println!("{cell}");
    }
    let failures = campaign::check_cells(&cells, std::slice::from_ref(&file));
    if failures.is_empty() {
        println!(
            "scenario ok: {} cells of {}, every bar held",
            cells.len(),
            file.name
        );
        std::process::exit(0);
    }
    for f in &failures {
        eprintln!("SCENARIO FAILURE: {f}");
    }
    std::process::exit(1);
}

fn run_replay(path: PathBuf, engine_name: Option<String>) -> ! {
    let records = match replay::load_trace(&path) {
        Ok(records) => records,
        Err(e) => {
            eprintln!("cannot read trace {}: {e}", path.display());
            std::process::exit(1);
        }
    };
    let kinds: Vec<replay::EngineKind> = match &engine_name {
        None => replay::EngineKind::ALL.to_vec(),
        Some(name) => {
            let Some(kind) = replay::EngineKind::ALL
                .into_iter()
                .find(|k| k.name() == *name)
            else {
                eprintln!(
                    "--engine: unknown engine `{name}` (one of: {})",
                    replay::EngineKind::ALL.map(|k| k.name()).join(", ")
                );
                std::process::exit(2);
            };
            vec![kind]
        }
    };
    let mut diverged = false;
    for kind in kinds {
        match replay::replay_trace(&records, kind) {
            Ok(outcome) if outcome.is_identical() => {
                println!(
                    "replay {:>13} ok: {} — {} steps bit-identical",
                    outcome.engine, outcome.label, outcome.steps
                );
            }
            Ok(outcome) => {
                diverged = true;
                for m in &outcome.mismatches {
                    eprintln!("REPLAY DIVERGENCE [{}]: {m}", outcome.engine);
                }
            }
            Err(e) => {
                eprintln!("replay through {} failed: {e}", kind.name());
                std::process::exit(1);
            }
        }
    }
    std::process::exit(i32::from(diverged));
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Full;
    let mut json_dir: Option<PathBuf> = None;
    let mut wanted: Vec<String> = Vec::new();
    let mut throughput_mode = false;
    let mut campaign_mode = false;
    let mut quick = false;
    let mut out: Option<PathBuf> = None;
    let mut check_floors_path: Option<PathBuf> = None;
    let mut check_competitive_path: Option<PathBuf> = None;
    let mut baseline_path: Option<PathBuf> = None;
    let mut scenario_path: Option<PathBuf> = None;
    let mut record_path: Option<PathBuf> = None;
    let mut replay_path: Option<PathBuf> = None;
    let mut protocol_name: Option<String> = None;
    let mut engine_name: Option<String> = None;
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--small" => scale = Scale::Small,
            "--throughput" => throughput_mode = true,
            "--campaign" => campaign_mode = true,
            "--quick" => quick = true,
            "--check-floors" => {
                let Some(path) = iter.next() else {
                    eprintln!("--check-floors requires a json file argument");
                    std::process::exit(2);
                };
                check_floors_path = Some(PathBuf::from(path));
            }
            "--check-competitive-floors" => {
                let Some(path) = iter.next() else {
                    eprintln!("--check-competitive-floors requires a json file argument");
                    std::process::exit(2);
                };
                check_competitive_path = Some(PathBuf::from(path));
            }
            "--baseline" => {
                let Some(path) = iter.next() else {
                    eprintln!("--baseline requires a json file argument");
                    std::process::exit(2);
                };
                baseline_path = Some(PathBuf::from(path));
            }
            "--out" => {
                let Some(path) = iter.next() else {
                    eprintln!("--out requires a file argument");
                    std::process::exit(2);
                };
                out = Some(PathBuf::from(path));
            }
            "--scenario" => {
                let Some(path) = iter.next() else {
                    eprintln!("--scenario requires a scenario json file argument");
                    std::process::exit(2);
                };
                scenario_path = Some(PathBuf::from(path));
            }
            "--record" => {
                let Some(path) = iter.next() else {
                    eprintln!("--record requires an output trace file argument");
                    std::process::exit(2);
                };
                record_path = Some(PathBuf::from(path));
            }
            "--replay" => {
                let Some(path) = iter.next() else {
                    eprintln!("--replay requires a trace file argument");
                    std::process::exit(2);
                };
                replay_path = Some(PathBuf::from(path));
            }
            "--protocol" => {
                let Some(name) = iter.next() else {
                    eprintln!("--protocol requires a protocol name argument");
                    std::process::exit(2);
                };
                protocol_name = Some(name);
            }
            "--engine" => {
                let Some(name) = iter.next() else {
                    eprintln!("--engine requires an engine name argument");
                    std::process::exit(2);
                };
                engine_name = Some(name);
            }
            "--json" => {
                json_dir = iter.next().map(PathBuf::from);
                if json_dir.is_none() {
                    eprintln!("--json requires a directory argument");
                    std::process::exit(2);
                }
            }
            "--help" | "-h" => {
                println!(
                    "usage: experiments [--small] [--json DIR] [e1 e2 ... e8]\n       experiments --throughput [--quick] [--out FILE]\n       experiments --campaign [--quick] [--out FILE] [--baseline COMMITTED.json]\n       experiments --check-floors FILE.json\n       experiments --check-competitive-floors FILE.json\n       experiments --scenario FILE.json\n       experiments --scenario FILE.json --record OUT.trace [--protocol NAME]\n       experiments --replay FILE.trace [--engine NAME]"
                );
                return;
            }
            // A retired option must fail loudly, not run as an experiment id.
            other if other.starts_with("--") => {
                eprintln!("unknown option {other} (see --help)");
                std::process::exit(2);
            }
            other => wanted.push(other.to_lowercase()),
        }
    }
    if let Some(path) = check_floors_path {
        if throughput_mode
            || campaign_mode
            || scale == Scale::Small
            || json_dir.is_some()
            || !wanted.is_empty()
            || quick
            || out.is_some()
            || check_competitive_path.is_some()
            || baseline_path.is_some()
            || scenario_path.is_some()
            || record_path.is_some()
            || replay_path.is_some()
            || protocol_name.is_some()
            || engine_name.is_some()
        {
            eprintln!("--check-floors does not combine with other modes or flags");
            std::process::exit(2);
        }
        check_floors_only(path);
    }
    if let Some(path) = check_competitive_path {
        if throughput_mode
            || campaign_mode
            || scale == Scale::Small
            || json_dir.is_some()
            || !wanted.is_empty()
            || quick
            || out.is_some()
            || baseline_path.is_some()
            || scenario_path.is_some()
            || record_path.is_some()
            || replay_path.is_some()
            || protocol_name.is_some()
            || engine_name.is_some()
        {
            eprintln!("--check-competitive-floors does not combine with other modes or flags");
            std::process::exit(2);
        }
        check_competitive_floors_only(path);
    }
    let scenario_mode = scenario_path.is_some() || record_path.is_some() || replay_path.is_some();
    if scenario_mode {
        if throughput_mode
            || campaign_mode
            || scale == Scale::Small
            || json_dir.is_some()
            || !wanted.is_empty()
            || baseline_path.is_some()
            || out.is_some()
            || quick
        {
            eprintln!(
                "the scenario/trace modes do not combine with the benchmark modes or their flags"
            );
            std::process::exit(2);
        }
        if protocol_name.is_some() && record_path.is_none() {
            eprintln!("--protocol only applies to --record");
            std::process::exit(2);
        }
        if engine_name.is_some() && replay_path.is_none() {
            eprintln!("--engine only applies to --replay");
            std::process::exit(2);
        }
        if let Some(path) = replay_path {
            if scenario_path.is_some() || record_path.is_some() {
                eprintln!("--replay only combines with --engine");
                std::process::exit(2);
            }
            run_replay(path, engine_name);
        }
        if let Some(out_path) = record_path {
            let Some(path) = scenario_path else {
                eprintln!("--record needs --scenario FILE to know what to run");
                std::process::exit(2);
            };
            run_record(path, out_path, protocol_name);
        }
        if let Some(path) = scenario_path {
            run_scenario(path);
        }
        unreachable!("every scenario mode dispatches above");
    }
    if protocol_name.is_some() || engine_name.is_some() {
        eprintln!("--protocol/--engine only apply to the scenario/trace modes");
        std::process::exit(2);
    }
    if campaign_mode {
        if throughput_mode || scale == Scale::Small || json_dir.is_some() || !wanted.is_empty() {
            eprintln!("--campaign does not combine with --throughput/--small/--json/experiment ids (use --quick, --out and --baseline)");
            std::process::exit(2);
        }
        let out = out.unwrap_or_else(|| default_out("BENCH_competitive", quick));
        run_campaign_bench(quick, out, baseline_path);
    }
    if baseline_path.is_some() {
        eprintln!("--baseline only applies to --campaign");
        std::process::exit(2);
    }
    if throughput_mode {
        if scale == Scale::Small || json_dir.is_some() || !wanted.is_empty() {
            eprintln!("--throughput does not combine with --small/--json/experiment ids (use --quick and --out instead)");
            std::process::exit(2);
        }
        run_throughput_bench(
            quick,
            out.unwrap_or_else(|| default_out("BENCH_throughput", quick)),
        );
    }
    if quick || out.is_some() {
        eprintln!(
            "--quick/--out only apply to --throughput/--campaign (did you mean --small/--json?)"
        );
        std::process::exit(2);
    }

    let run = |id: &str| wanted.is_empty() || wanted.iter().any(|w| w == id);
    let mut tables: Vec<ExperimentTable> = Vec::new();
    if run("e1") {
        tables.push(experiments::e1_existence(scale));
    }
    if run("e2") {
        tables.push(experiments::e2_maximum(scale));
    }
    if run("e3") {
        tables.push(experiments::e3_exact_topk(scale));
    }
    if run("e4") {
        tables.push(experiments::e4_topk_protocol(scale));
    }
    if run("e5") {
        tables.push(experiments::e5_lower_bound(scale));
    }
    if run("e6") {
        tables.push(experiments::e6_dense(scale));
    }
    if run("e7") {
        tables.push(experiments::e7_half_eps(scale));
    }
    if run("e8") {
        tables.push(experiments::e8_crossover(scale));
    }

    for table in &tables {
        println!("{table}");
    }
    if let Some(dir) = json_dir {
        std::fs::create_dir_all(&dir).expect("create json output directory");
        for table in &tables {
            let path = dir.join(format!("{}.json", table.id.to_lowercase()));
            std::fs::write(&path, table.to_json()).expect("write json table");
            eprintln!("wrote {}", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_quick_run_defaults_to_its_own_report() {
        for stem in ["BENCH_throughput", "BENCH_competitive"] {
            assert_eq!(
                default_out(stem, false),
                PathBuf::from(format!("{stem}.json"))
            );
            assert_eq!(
                default_out(stem, true),
                PathBuf::from(format!("{stem}_quick.json"))
            );
        }
    }
}
