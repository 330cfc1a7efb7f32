//! The multi-query acceptance battery.
//!
//! Three properties pin the `QuerySet` layer to its contract:
//!
//! 1. **Single-query equivalence** — a `QuerySet` of one full-population
//!    query reproduces the legacy single-monitor run bit for bit (same
//!    `CommStats`, same per-node filters and values, same validity counters)
//!    on all four engines under every protocol. The golden-trace corpus
//!    enforces the same property against committed recordings; this battery
//!    enforces it live.
//! 2. **Subset isolation** (proptest) — queries over disjoint node subsets
//!    never receive each other's violation reports: every entry of the
//!    delivery audit trail lands inside the receiving query's subset.
//! 3. **Split-charge partition** (proptest) — the per-query attribution
//!    ledger is an exact partition of the wire total: the per-query units sum
//!    to `SPLIT_SCALE ×` the engine's message count, with no message dropped
//!    or double-charged.

use proptest::prelude::*;
use topk_core::monitor::run_on_rows;
use topk_core::queryset::{run_query_set, QuerySet, QuerySetReport};
use topk_model::prelude::*;
use topk_net::{build_engine, DeterministicEngine, EngineKind};
use topk_repro::bench::campaign::ProtocolKind;

/// A workload with regular lead changes so filters keep moving and
/// violations actually occur.
fn ramp_rows(n: usize, steps: usize) -> Vec<Vec<Value>> {
    (0..steps)
        .map(|t| {
            (0..n)
                .map(|i| 1000 + ((i * 13 + t * 29) % 97) as Value)
                .collect()
        })
        .collect()
}

#[test]
fn a_query_set_of_one_matches_the_legacy_run_on_every_engine() {
    let n = 16;
    let k = 4;
    let eps = Epsilon::TENTH;
    let seed = 0x5EED;
    let rows = ramp_rows(n, 24);
    for kind in EngineKind::ALL {
        for protocol in ProtocolKind::ALL {
            let mut legacy_monitor = protocol.build_monitor(k, eps);
            let mut legacy_net = build_engine(kind, n, seed, None);
            let legacy = run_on_rows(
                legacy_monitor.as_mut(),
                legacy_net.as_mut(),
                rows.iter().cloned(),
                eps,
            );

            let mut set = QuerySet::new(n);
            set.register(
                QuerySpec::new(k, eps, protocol.name()),
                protocol.build_monitor(k, eps),
            );
            assert!(set.is_solo());
            let mut net = build_engine(kind, n, seed, None);
            let report = run_query_set(&mut set, net.as_mut(), rows.iter().cloned());

            let ctx = format!("{} on {}", protocol.name(), kind.name());
            assert_eq!(report.steps, legacy.steps, "{ctx}: steps");
            assert_eq!(report.stats, legacy.stats, "{ctx}: CommStats");
            assert_eq!(report.delta, legacy.delta, "{ctx}: delta");
            assert_eq!(
                report.per_query[0].invalid_steps, legacy.invalid_steps,
                "{ctx}: invalid steps"
            );
            assert_eq!(
                report.per_query[0].inexact_steps, legacy.inexact_steps,
                "{ctx}: inexact steps"
            );
            assert_eq!(
                report.per_query[0].units,
                legacy.stats.total_messages() * SPLIT_SCALE,
                "{ctx}: a solo query is charged the whole wire total"
            );
            assert_eq!(
                net.peek_filters(),
                legacy_net.peek_filters(),
                "{ctx}: final filters"
            );
            assert_eq!(
                net.peek_values(),
                legacy_net.peek_values(),
                "{ctx}: final values"
            );
        }
    }
}

/// Builds a query set from `(k, eps, protocol, subset)` tuples and runs it
/// over `rows` on a fresh deterministic engine.
fn run_specs(
    n: usize,
    seed: u64,
    specs: &[(usize, Epsilon, ProtocolKind, NodeSubset)],
    rows: &[Vec<Value>],
) -> (QuerySet, QuerySetReport) {
    let mut set = QuerySet::new(n);
    for (k, eps, protocol, subset) in specs {
        set.register(
            QuerySpec::new(*k, *eps, protocol.name()).with_subset(subset.clone()),
            protocol.build_monitor(*k, *eps),
        );
    }
    let mut net = DeterministicEngine::new(n, seed);
    let report = run_query_set(&mut set, &mut net, rows.iter().cloned());
    (set, report)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Two queries over disjoint subsets never cross-receive reports: every
    /// delivery in the audit trail lies inside the receiving query's subset,
    /// and the attribution still partitions the wire total exactly.
    #[test]
    fn disjoint_subset_queries_never_cross_receive(
        rows in proptest::collection::vec(
            proptest::collection::vec(1u64..50_000, 12),
            4..24,
        ),
        split in 4usize..9,
        k_seed in 1usize..8,
        p_left in 0usize..5,
        p_right in 0usize..5,
        seed in 0u64..1000,
    ) {
        let n = 12;
        let eps = Epsilon::TENTH;
        let left = NodeSubset::range(0, split);
        let right = NodeSubset::range(split, n - split);
        // Strictly below the subset size: the combined protocol's dispatch
        // probes the top-(k+1), so k = |subset| is out of its domain (as in
        // the legacy single-query world, where it needs k < n).
        let k_left = 1 + k_seed % (split - 1).min(3);
        let k_right = 1 + k_seed % (n - split - 1).min(3);
        let specs = [
            (k_left, eps, ProtocolKind::ALL[p_left], left),
            (k_right, eps, ProtocolKind::ALL[p_right], right),
        ];
        let (set, report) = run_specs(n, seed, &specs, &rows);
        for &(q, node) in &report.deliveries {
            prop_assert!(
                set.subset(q).contains(&node),
                "{q} received a report from {node} outside its subset {:?}",
                set.subset(q)
            );
        }
        prop_assert_eq!(report.total_units(), report.messages() * SPLIT_SCALE);
    }

    /// The split-charge ledger is an exact partition of the wire total for
    /// arbitrary overlapping (or nested, or identical) query subsets.
    #[test]
    fn split_charged_units_partition_the_wire_total(
        rows in proptest::collection::vec(
            proptest::collection::vec(1u64..50_000, 10),
            4..20,
        ),
        sizes in proptest::collection::vec((4usize..11, 0usize..7), 2..4),
        k_seed in 1usize..4,
        p_seed in 0usize..5,
        seed in 0u64..1000,
    ) {
        let n = 10;
        let eps = Epsilon::TENTH;
        let specs: Vec<(usize, Epsilon, ProtocolKind, NodeSubset)> = sizes
            .iter()
            .enumerate()
            .map(|(i, &(size, start))| {
                let start = start.min(n - size);
                let protocol = ProtocolKind::ALL[(p_seed + i) % ProtocolKind::ALL.len()];
                // k strictly below the subset size — see the note in the
                // disjoint-subset test.
                (1 + k_seed % (size - 1).min(4), eps, protocol, NodeSubset::range(start, size))
            })
            .collect();
        let (set, report) = run_specs(n, seed, &specs, &rows);
        prop_assert_eq!(set.len(), report.per_query.len());
        let summed: u64 = report.per_query.iter().map(|r| r.units).sum();
        prop_assert_eq!(summed, report.total_units());
        prop_assert_eq!(
            summed,
            report.messages() * SPLIT_SCALE,
            "per-query units must sum to SPLIT_SCALE x the engine's message total"
        );
        // Deliveries always respect subsets, overlapping or not.
        for &(q, node) in &report.deliveries {
            prop_assert!(set.subset(q).contains(&node));
        }
    }
}
