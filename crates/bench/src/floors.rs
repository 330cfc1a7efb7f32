//! The regression-floor table — every numeric bar CI holds a benchmark to.
//!
//! Historically the throughput floors lived as loose `pub const`s whose values
//! were duplicated between doc comments, CI comments and the check code, and
//! drifted. This module hoists them into one serialisable table,
//! [`FloorTable::STANDARD`], shared by both gate modes of the `experiments`
//! binary:
//!
//! * `--check-floors` (and every `--throughput` run) validates a throughput
//!   report against [`ThroughputFloors`] (speedup, absolute steps/sec and
//!   scaling-efficiency bars) and [`RemoteFloors`] (wire frames per silent
//!   step on the report's remote rows);
//! * `--check-competitive-floors` validates a campaign report against
//!   [`CompetitiveFloors`] (coverage, correctness, per-cell ratio ceilings).
//!
//! Campaign reports embed the competitive half of the table, so a committed
//! `BENCH_competitive.json` documents the exact gate it was held to — and the
//! checker rejects reports generated against a different table, which makes
//! relaxing a floor an explicit, reviewable diff of this file rather than a
//! silent edit of a JSON artifact.

use serde::{Deserialize, Serialize};

/// Floors for the engine throughput benchmark (`--check-floors`).
///
/// All speedups are steps/sec ratios on the noise generator with dense
/// delivery — the workload/mode cell every engine must populate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThroughputFloors {
    /// Indexed-over-baseline speedup floor at `n = 10⁵`.
    pub indexed_speedup: f64,
    /// Absolute indexed steps/sec sanity floor at `n = 10⁵` (conservative:
    /// release builds measure orders of magnitude more).
    pub indexed_absolute_steps_per_sec: f64,
    /// Sharded-over-indexed floor at `n = 10⁶`, applied to full-scale reports
    /// (i.e. the committed `BENCH_throughput.json`).
    pub sharded_speedup_full: f64,
    /// Sharded-over-indexed floor at `n = 10⁵`, applied to quick-scale (CI
    /// smoke) reports. Deliberately loose: at quick scale the per-step work is
    /// small enough that pool synchronisation and measurement noise eat into
    /// the ratio; the real bar is `sharded_speedup_full` on the committed
    /// report.
    pub sharded_speedup_quick: f64,
    /// Worker count the full-scale sharded floor is stated for. A committed
    /// report whose sharded rows were measured with a different worker count
    /// must not satisfy the gate.
    pub sharded_floor_workers: u64,
    /// Minimum number of distinct worker counts a full-scale report's scaling
    /// curve must cover (quick smoke curves need only 2).
    pub scaling_min_worker_counts: usize,
    /// Parallel-efficiency floor — `(steps/sec ratio over workers = 1) /
    /// min(workers, cores)` — every multi-worker point of a full-scale
    /// scaling curve must clear. On a many-core machine this demands real
    /// speedup; on a 1-core runner it bounds the sharding *overhead* (a
    /// worker-pool layout must not halve single-core throughput).
    pub scaling_efficiency_full: f64,
    /// Parallel-efficiency floor for quick-scale (CI smoke) curves. Looser:
    /// at `n = 10⁵` the per-step work is small enough that pool
    /// synchronisation and measurement noise eat into the ratio.
    pub scaling_efficiency_quick: f64,
}

/// Floors for the remote rows of a throughput report (`--check-floors` and
/// the live `--throughput` run).
///
/// A count, not a timing: on a reliable transport the frames a step moves are
/// deterministic, so the bar holds on any machine.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RemoteFloors {
    /// Most wire frames per occupied shard per step on a row with no model
    /// messages: at most one observation frame, plus the round-0 query and
    /// its reply, which carries the wire's idle signal so the other rounds
    /// of the silent existence run skip the shard. Without the signal a
    /// shard pays `1 + 2·(⌈log₂ n⌉ + 1)` frames per silent step.
    pub max_silent_frames_per_shard_step: u64,
}

/// Floors for the scenario campaign (`--check-competitive-floors`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CompetitiveFloors {
    /// Minimum number of distinct protocols the report must cover.
    pub min_protocols: usize,
    /// Minimum number of distinct generator families the report must cover.
    pub min_generators: usize,
    /// Maximum tolerated invalid output steps per cell (0: the ε-top-k
    /// definition must hold at *every* step of *every* cell).
    pub max_invalid_steps: u64,
    /// Headroom written into each cell's ratio ceiling at generation time, in
    /// permille of the measured ratio (300 = the ceiling is 1.3 × ratio plus
    /// the absolute slack below).
    pub ceiling_headroom_permille: u64,
    /// Absolute slack added to every ceiling, in thousandths of a ratio unit
    /// (absorbs the quantisation of tiny OPT lower bounds).
    pub ceiling_slack_permille: u64,
    /// Hard upper bound on any cell's message count as a multiple of naive
    /// per-step polling (`n × steps` messages). Filters exist to beat polling;
    /// a protocol that exceeds this factor has regressed catastrophically no
    /// matter what ceiling a freshly regenerated report would launder in.
    /// (The bar is well above 1 because on dense-σ and heavy-churn inputs at
    /// small `n` the protocols legitimately approach — the combined monitor on
    /// the 8 %-churn cell slightly exceeds 2× — polling cost; the paper
    /// promises them nothing there.)
    pub max_poll_factor: f64,
    /// Minimum number of distinct fault families the report's fault-plan
    /// cells must cover (the degradation study needs latency, drop and crash
    /// at least).
    pub min_fault_families: usize,
    /// Maximum tolerated invalid output steps in a cell whose scenario has a
    /// fault plan (with or without a membership plan), in permille
    /// of the cell's steps. Unlike the fault-free bar (`max_invalid_steps`,
    /// which stays 0), faults legitimately break the ε-top-k guarantee — a
    /// crashed node cannot report, a dropped report is information the server
    /// never had. The bar documents how much breakage the injected fault
    /// magnitudes are *allowed* to cause; more indicates the recovery
    /// machinery regressed.
    pub fault_invalid_fraction_permille: u64,
    /// `max_poll_factor` analogue for fault cells: recovery traffic (rejoin
    /// replays) and fault-driven violation churn may cost more than the
    /// fault-free protocols, but staying within a constant factor of naive
    /// polling is still the point of the filter approach.
    pub fault_poll_factor: f64,
    /// Minimum number of distinct membership churn plans the report's
    /// membership-plan cells must cover (a mild and an aggressive plan at least —
    /// one intensity cannot show whether recovery cost scales with churn).
    pub min_membership_plans: usize,
    /// Maximum tolerated invalid output steps in a *membership* cell, in
    /// permille of the cell's steps. Both driver and engines validate against
    /// the masked row (dead slots pinned to 0), so unlike faults the
    /// churn itself never excuses an invalid output — the small bar only
    /// absorbs the single-step re-resolution transient when a top-k member
    /// departs and the violation machinery replaces it.
    pub membership_invalid_fraction_permille: u64,
    /// `max_poll_factor` analogue for membership cells: every join replays
    /// the leaver's group and filter under the `Recovery` label and the
    /// protocols re-resolve the vacated ranks, but the total must still stay
    /// within a constant factor of naive polling.
    pub membership_poll_factor: f64,
    /// Minimum number of query-plan cells the report must cover (the twin /
    /// overlapping / disjoint plan shapes at least — sharing, partial sharing
    /// and isolation are three different claims).
    pub min_multiquery_cells: usize,
    /// Maximum tolerated invalid output steps in a *multi-query* cell, in
    /// permille of the cell's per-query step total. Every query is validated
    /// against its own subset-restricted row, so sharing a transport never
    /// excuses an invalid output; the bar only absorbs the same single-step
    /// re-resolution transients the single-query battery tolerates.
    pub multiquery_invalid_fraction_permille: u64,
}

impl CompetitiveFloors {
    /// The ratio ceiling recorded for a cell that measured `ratio`.
    pub fn ceiling(&self, ratio: f64) -> f64 {
        ratio * (1.0 + self.ceiling_headroom_permille as f64 / 1000.0)
            + self.ceiling_slack_permille as f64 / 1000.0
    }
}

/// The complete floor table CI enforces.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FloorTable {
    /// Engine throughput floors (`--check-floors`).
    pub throughput: ThroughputFloors,
    /// Remote-transport floors (`--check-floors`, on the remote rows).
    pub remote: RemoteFloors,
    /// Campaign floors (`--check-competitive-floors`).
    pub competitive: CompetitiveFloors,
}

impl FloorTable {
    /// The table in force. Changing a bar means changing this constant — a
    /// reviewable source diff, never a JSON edit.
    pub const STANDARD: FloorTable = FloorTable {
        throughput: ThroughputFloors {
            indexed_speedup: 10.0,
            indexed_absolute_steps_per_sec: 50.0,
            sharded_speedup_full: 2.0,
            sharded_speedup_quick: 1.2,
            sharded_floor_workers: 4,
            scaling_min_worker_counts: 3,
            scaling_efficiency_full: 0.5,
            scaling_efficiency_quick: 0.35,
        },
        remote: RemoteFloors {
            max_silent_frames_per_shard_step: 3,
        },
        competitive: CompetitiveFloors {
            min_protocols: 5,
            min_generators: 7,
            max_invalid_steps: 0,
            ceiling_headroom_permille: 300,
            ceiling_slack_permille: 500,
            max_poll_factor: 3.0,
            min_fault_families: 3,
            fault_invalid_fraction_permille: 250,
            fault_poll_factor: 4.0,
            min_membership_plans: 2,
            membership_invalid_fraction_permille: 100,
            membership_poll_factor: 4.0,
            min_multiquery_cells: 3,
            multiquery_invalid_fraction_permille: 0,
        },
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceiling_applies_headroom_and_slack() {
        let f = FloorTable::STANDARD.competitive;
        let c = f.ceiling(10.0);
        assert!((c - 13.5).abs() < 1e-9, "ceiling(10) = {c}");
        // Zero-message cells still get a positive ceiling from the slack.
        assert!(f.ceiling(0.0) > 0.0);
    }

    #[test]
    fn table_round_trips_through_json() {
        let json = serde_json::to_string_pretty(&FloorTable::STANDARD).unwrap();
        let back: FloorTable = serde_json::from_str(&json).unwrap();
        assert_eq!(back, FloorTable::STANDARD);
    }

    #[test]
    fn standard_table_is_coherent() {
        let t = FloorTable::STANDARD;
        assert!(t.throughput.sharded_speedup_quick <= t.throughput.sharded_speedup_full);
        assert!(t.throughput.indexed_speedup > 1.0);
        assert!(t.throughput.scaling_min_worker_counts >= 3);
        assert!(t.throughput.scaling_efficiency_quick <= t.throughput.scaling_efficiency_full);
        assert!(t.throughput.scaling_efficiency_quick > 0.0);
        // Efficiency is normalised by min(workers, cores), so > 1.0 would be
        // demanding super-linear scaling.
        assert!(t.throughput.scaling_efficiency_full <= 1.0);
        // One observation frame plus the round-0 round trip every run
        // makes: no lower bar is reachable, and a looser one would let the
        // per-round trips come back unnoticed.
        assert_eq!(t.remote.max_silent_frames_per_shard_step, 3);
        assert!(t.competitive.min_protocols >= 5);
        assert!(t.competitive.min_generators >= 7);
        assert_eq!(t.competitive.max_invalid_steps, 0);
        // Faults relax the *fault-axis* bars only; the fault-free bars above
        // must never loosen to accommodate them.
        assert!(t.competitive.min_fault_families >= 3);
        assert!(t.competitive.fault_invalid_fraction_permille < 1000);
        assert!(t.competitive.fault_poll_factor >= t.competitive.max_poll_factor);
        // The membership axis validates against masked rows, so its invalid
        // bar must be strictly tighter than the fault axis's.
        assert!(t.competitive.min_membership_plans >= 2);
        assert!(
            t.competitive.membership_invalid_fraction_permille
                < t.competitive.fault_invalid_fraction_permille
        );
        assert!(t.competitive.membership_poll_factor >= t.competitive.max_poll_factor);
        // The multi-query axis shares a clean transport, so its invalid bar
        // must be at least as tight as the membership axis's.
        assert!(t.competitive.min_multiquery_cells >= 3);
        assert!(
            t.competitive.multiquery_invalid_fraction_permille
                <= t.competitive.membership_invalid_fraction_permille
        );
    }
}
