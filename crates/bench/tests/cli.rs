//! Command-line contract of the `experiments` binary: flag combinations a
//! mode cannot honour are usage errors (exit status 2) before any work runs,
//! never silently ignored.

use std::path::PathBuf;
use std::process::{Command, Output};

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
