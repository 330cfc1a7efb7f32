//! # topk-bench
//!
//! Experiment harness regenerating every result of the paper.
//!
//! The paper is purely analytical — its "evaluation" is the set of theorems
//! R1–R7 listed in DESIGN.md. Each experiment below measures the empirical
//! quantity the corresponding theorem bounds and reports it next to the
//! theoretical prediction, so the *shape* of every result can be checked:
//!
//! | experiment | reproduces | measured quantity |
//! |------------|-----------|-------------------|
//! | [`experiments::e1_existence`] | Lemma 3.1 | expected messages of the existence protocol vs `n` and the number of ones `b` |
//! | [`experiments::e2_maximum`] | Lemma 2.6 | expected messages to find the maximum vs `n` |
//! | [`experiments::e3_exact_topk`] | Corollary 3.3 | messages / competitive ratio of the exact monitor vs `Δ`, `k` |
//! | [`experiments::e4_topk_protocol`] | Theorem 4.5 | messages / competitive ratio of `TopKProtocol` vs `Δ`, `ε` |
//! | [`experiments::e5_lower_bound`] | Theorem 5.1 | forced online messages vs the `(k+1)`-per-phase offline cost on the adversarial instance |
//! | [`experiments::e6_dense`] | Theorem 5.8 | messages / competitive ratio of `DenseProtocol` (and the combined algorithm) vs `σ` |
//! | [`experiments::e7_half_eps`] | Corollary 5.9 | messages / competitive ratio of the ε/2-gap algorithm vs `σ` |
//! | [`experiments::e8_crossover`] | Cor. 3.3 vs Thm. 4.5 | exact-midpoint vs `TopKProtocol` message counts as `Δ` grows |
//!
//! The `experiments` binary (`cargo run -p topk-bench --bin experiments --release`)
//! prints the tables.
//!
//! [`throughput`] is the engine-throughput benchmark (`experiments
//! --throughput`): simulated steps per second, model messages and wire
//! frames and bytes per step of the deterministic, indexed, sharded and
//! remote engines across workloads and population sizes (up to 10⁷ nodes),
//! plus the sharded engine's scaling curve, in one report,
//! `BENCH_throughput.json`, held by one checker.
//!
//! [`campaign`] is the scenario campaign (`experiments --campaign`): every
//! file of the `scenarios/` library ([`scenario`]) run under every protocol
//! through one cell runner, with empirical competitive ratios against the
//! `topk-offline` OPT written to `BENCH_competitive.json` — one cell per
//! (file name, protocol) — and held by one checker
//! (`--check-competitive-floors`) and the `--baseline` ratchet. [`floors`] is
//! the single serialised table of every numeric bar both check modes
//! enforce.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod experiments;
pub mod floors;
pub mod replay;
pub mod scenario;
pub mod table;
pub mod throughput;

pub use campaign::{run_campaign, CompetitiveReport};
pub use experiments::*;
pub use floors::FloorTable;
pub use replay::{record_run, replay_trace, EngineKind, ReplayOutcome};
pub use scenario::{
    load_scenario, load_scenario_dir, parse_scenario, scenario_to_json, ScenarioError,
    ScenarioFile, SCENARIO_SCHEMA,
};
pub use table::ExperimentTable;
pub use throughput::{run_throughput, ThroughputReport};
