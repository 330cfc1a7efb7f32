//! Command-line contract of the `experiments` binary: flag combinations a
//! mode cannot honour are usage errors (exit status 2) before any work runs,
//! never silently ignored, and an invalid scenario file fails validation
//! (exit status 1) instead of panicking.

use std::path::PathBuf;
use std::process::{Command, Output};
use std::time::{Duration, Instant};

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("the experiments binary runs")
}

fn assert_usage_error(args: &[&str]) -> String {
    let out = experiments(args);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    stderr
}

#[test]
fn check_floors_rejects_trace_flags() {
    assert_usage_error(&[
        "--check-floors",
        "BENCH_throughput.json",
        "--replay",
        "/nonexistent.trace",
    ]);
}

#[test]
fn check_competitive_floors_rejects_trace_flags() {
    assert_usage_error(&[
        "--check-competitive-floors",
        "BENCH_competitive.json",
        "--engine",
        "threaded",
    ]);
}

#[test]
fn replay_names_the_four_engines_for_an_unknown_engine() {
    let trace = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/traces/noise.trace");
    let trace = trace.to_str().expect("the repository path is UTF-8");
    let stderr = assert_usage_error(&["--replay", trace, "--engine", "threaded"]);
    assert!(
        stderr.contains("one of: deterministic, indexed, sharded, remote"),
        "{stderr}"
    );
}

#[test]
fn retired_measuring_flags_are_usage_errors() {
    // `--throughput` is the one measuring mode: the scaling curve and the
    // remote rows are part of its report, on a fixed worker count.
    for args in [
        &["--scaling", "--quick"][..],
        &["--remote", "2"],
        &["--throughput", "--sharded", "4"],
    ] {
        let stderr = assert_usage_error(args);
        assert!(stderr.contains("unknown option"), "{args:?}: {stderr}");
    }
}

#[test]
fn check_floors_passes_the_committed_report() {
    let report = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_throughput.json");
    let started = Instant::now();
    let out = experiments(&["--check-floors", report.to_str().expect("UTF-8 path")]);
    let elapsed = started.elapsed();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stdout}{stderr}");
    assert!(stdout.starts_with("floors ok: "), "{stdout}");
    // It re-validates the committed numbers; it measures nothing.
    assert!(elapsed < Duration::from_secs(1), "took {elapsed:?}");
}

/// Runs `--scenario` on a temporary file holding `text` and returns the
/// output.
fn run_scenario_text(name: &str, text: &str) -> Output {
    let path = std::env::temp_dir().join(format!("{name}-{}.json", std::process::id()));
    std::fs::write(&path, text).expect("the temp dir is writable");
    let out = experiments(&["--scenario", path.to_str().expect("temp path is UTF-8")]);
    std::fs::remove_file(&path).expect("the temp file is removable");
    out
}

fn assert_invalid_scenario(out: &Output) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("invalid scenario: "), "{stderr}");
}

#[test]
fn a_scenario_with_k_equal_to_n_fails_validation() {
    let out = run_scenario_text(
        "k-equals-n",
        r#"{"schema": "topk-scenario/v2", "name": "k-equals-n",
            "generator": {"family": "zipf", "peak_load": 1000},
            "n": 4, "k": 4, "eps": {"num": 1, "den": 10}, "steps": 10, "seed": 1}"#,
    );
    assert_invalid_scenario(&out);
}

#[test]
fn a_query_with_k_equal_to_its_subset_fails_validation() {
    let out = run_scenario_text(
        "k-equals-subset",
        r#"{"schema": "topk-scenario/v2", "name": "k-equals-subset",
            "generator": {"family": "zipf", "peak_load": 1000},
            "n": 8, "k": 2, "eps": {"num": 1, "den": 10}, "steps": 10, "seed": 1,
            "queries": [{"k": 4, "eps": {"num": 1, "den": 10},
                         "protocol": "topk_protocol", "subset": [0, 1, 2, 3]}]}"#,
    );
    assert_invalid_scenario(&out);
}
