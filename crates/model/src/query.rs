//! Multi-query vocabulary: query identities, specifications and the
//! split-charge cost ledger.
//!
//! A deployment serves many concurrent top-k queries over one shared node
//! population. Each query is registered under a [`QueryId`] with a
//! [`QuerySpec`] describing its `k`, its `ε`, the protocol it runs and the
//! subset of nodes it monitors. The server keeps one *effective* filter per
//! node — the intersection of the bands all covering queries assigned to that
//! node (see [`crate::Filter::intersect`]) — so a node stays a single-filter
//! device no matter how many queries watch it.
//!
//! Message cost is attributed per query through a [`QueryCostLedger`]:
//! messages sent on behalf of exactly one query are charged to it in full,
//! while messages whose payload several queries consume (e.g. one violation
//! report that resolves a violation for two queries) are *split-charged* in
//! fixed-point units of [`SPLIT_SCALE`] per message. The ledger guarantees
//! that the per-query totals always sum to `SPLIT_SCALE ×` the number of
//! attributed wire messages — nothing is double-charged and nothing leaks.

use crate::epsilon::Epsilon;
use crate::types::NodeId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identity of a registered query — its 0-based registration rank.
///
/// `QueryId`s are dense: the i-th `register` call on a query set yields
/// `QueryId(i)`. The id travels on the wire as a varint so that a remote
/// node's traffic can be attributed without the server re-deriving it.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct QueryId(pub u32);

impl QueryId {
    /// The id as a `usize` index (its registration rank).
    #[inline]
    pub fn index(&self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for QueryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// The set of nodes a query monitors.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeSubset {
    /// The query monitors every node of the population.
    #[default]
    All,
    /// The query monitors an explicit set of nodes (stored sorted and
    /// deduplicated by [`NodeSubset::resolve`]).
    Nodes(Vec<NodeId>),
}

impl NodeSubset {
    /// A contiguous range `[start, start + count)` of node ids.
    pub fn range(start: usize, count: usize) -> NodeSubset {
        NodeSubset::Nodes((start..start + count).map(NodeId).collect())
    }

    /// The subset as a sorted, deduplicated list of node ids, all `< n`.
    ///
    /// # Panics
    ///
    /// Panics if an explicit subset names a node `≥ n` — a query must not
    /// silently monitor fewer nodes than it asked for.
    pub fn resolve(&self, n: usize) -> Vec<NodeId> {
        match self {
            NodeSubset::All => (0..n).map(NodeId).collect(),
            NodeSubset::Nodes(nodes) => {
                let mut out = nodes.clone();
                out.sort_unstable();
                out.dedup();
                if let Some(&bad) = out.iter().find(|id| id.index() >= n) {
                    panic!("query subset names {bad} but the population has only {n} nodes");
                }
                out
            }
        }
    }

    /// Whether the subset covers the full population of `n` nodes.
    pub fn is_all(&self, n: usize) -> bool {
        match self {
            NodeSubset::All => true,
            NodeSubset::Nodes(_) => self.resolve(n).len() == n,
        }
    }
}

/// Specification of one registered query.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuerySpec {
    /// The monitored `k` (number of top positions).
    pub k: usize,
    /// The approximation error the query tolerates.
    pub eps: Epsilon,
    /// Name of the protocol the query runs (resolved by the bench layer's
    /// `ProtocolKind::from_name`; kept as a string here so the model crate
    /// stays protocol-agnostic).
    pub protocol: String,
    /// The nodes the query monitors.
    pub subset: NodeSubset,
}

impl QuerySpec {
    /// A full-population query with the given `k`, `ε` and protocol name.
    pub fn new(k: usize, eps: Epsilon, protocol: impl Into<String>) -> QuerySpec {
        QuerySpec {
            k,
            eps,
            protocol: protocol.into(),
            subset: NodeSubset::All,
        }
    }

    /// Restricts the query to an explicit node subset (builder style).
    pub fn with_subset(mut self, subset: NodeSubset) -> QuerySpec {
        self.subset = subset;
        self
    }
}

/// Fixed-point units one wire message is worth in the split-charge ledger.
///
/// A message consumed by `s` queries is split as `SPLIT_SCALE / s` units per
/// query, with the first `SPLIT_SCALE mod s` sharers (in registration order)
/// receiving one extra unit — so every message contributes *exactly*
/// `SPLIT_SCALE` units, and per-query totals sum to `SPLIT_SCALE ×` the wire
/// total by construction.
pub const SPLIT_SCALE: u64 = 1000;

/// Per-query attribution of wire messages, with split-charging for messages
/// shared between queries.
///
/// Usage protocol (driven by the query-set step loop):
///
/// 1. [`QueryCostLedger::charge_exclusive`] for messages that belong to one
///    query outright (filter assignments, probes, a query's own broadcasts).
/// 2. [`QueryCostLedger::open_shared`] when a shareable message is elicited
///    (e.g. a violation report served from the shared report pool); further
///    consumers are appended with [`QueryCostLedger::add_sharer`].
/// 3. [`QueryCostLedger::settle_step`] at the end of each observation step
///    splits every open shared message among its sharers and folds the units
///    into the per-query totals.
#[derive(Debug, Clone, Default)]
pub struct QueryCostLedger {
    /// Settled units per query (registration rank as index).
    units: Vec<u64>,
    /// Open shared messages of the current step: the sharer ranks of each.
    open: Vec<Vec<u32>>,
}

impl QueryCostLedger {
    /// A ledger for `queries` registered queries, all totals zero.
    pub fn new(queries: usize) -> QueryCostLedger {
        QueryCostLedger {
            units: vec![0; queries],
            open: Vec::new(),
        }
    }

    /// Number of registered queries.
    pub fn queries(&self) -> usize {
        self.units.len()
    }

    /// Charges `messages` whole wire messages exclusively to `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn charge_exclusive(&mut self, q: QueryId, messages: u64) {
        self.units[q.index()] += messages * SPLIT_SCALE;
    }

    /// Opens a shared message with `q` as its first sharer and returns the
    /// entry handle (valid until the next [`QueryCostLedger::settle_step`]).
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn open_shared(&mut self, q: QueryId) -> usize {
        assert!(q.index() < self.units.len(), "unregistered {q}");
        self.open.push(vec![q.0]);
        self.open.len() - 1
    }

    /// Opens a shared message that no query has consumed yet. It contributes
    /// nothing unless a sharer is added before the step settles (matching a
    /// message whose wire charge was retracted pending a consumer).
    pub fn open_unconsumed(&mut self) -> usize {
        self.open.push(Vec::new());
        self.open.len() - 1
    }

    /// Adds `q` as a sharer of the open entry `entry` (idempotent per query).
    ///
    /// # Panics
    ///
    /// Panics if `entry` is not an open entry of the current step or `q` is
    /// out of range.
    pub fn add_sharer(&mut self, entry: usize, q: QueryId) {
        assert!(q.index() < self.units.len(), "unregistered {q}");
        let sharers = &mut self.open[entry];
        if !sharers.contains(&q.0) {
            sharers.push(q.0);
        }
    }

    /// Whether the open entry `entry` already lists `q` as a sharer.
    pub fn is_sharer(&self, entry: usize, q: QueryId) -> bool {
        self.open[entry].contains(&q.0)
    }

    /// Splits every open shared message among its sharers and folds the units
    /// into the per-query totals. Entries with no sharer are dropped without
    /// charge (their wire charge was retracted, so the sum invariant holds).
    pub fn settle_step(&mut self) {
        for mut sharers in self.open.drain(..) {
            let s = sharers.len() as u64;
            if s == 0 {
                continue;
            }
            sharers.sort_unstable();
            let per = SPLIT_SCALE / s;
            let rem = (SPLIT_SCALE % s) as usize;
            for (rank, &q) in sharers.iter().enumerate() {
                self.units[q as usize] += per + u64::from(rank < rem);
            }
        }
    }

    /// Settled units attributed to `q` so far.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn units(&self, q: QueryId) -> u64 {
        self.units[q.index()]
    }

    /// Settled units per query, in registration order.
    pub fn per_query_units(&self) -> &[u64] {
        &self.units
    }

    /// Sum of all settled units. After every step settles, this equals
    /// `SPLIT_SCALE ×` the number of attributed wire messages.
    pub fn total_units(&self) -> u64 {
        self.units.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_id_display_and_index() {
        assert_eq!(QueryId(3).to_string(), "q3");
        assert_eq!(QueryId(3).index(), 3);
        assert!(QueryId(1) < QueryId(2));
    }

    #[test]
    fn subset_resolution() {
        assert_eq!(
            NodeSubset::All.resolve(3),
            vec![NodeId(0), NodeId(1), NodeId(2)]
        );
        let s = NodeSubset::Nodes(vec![NodeId(2), NodeId(0), NodeId(2)]);
        assert_eq!(s.resolve(3), vec![NodeId(0), NodeId(2)]);
        assert!(NodeSubset::All.is_all(5));
        assert!(NodeSubset::range(0, 4).is_all(4));
        assert!(!NodeSubset::range(0, 3).is_all(4));
        assert_eq!(
            NodeSubset::range(2, 2).resolve(5),
            vec![NodeId(2), NodeId(3)]
        );
    }

    #[test]
    #[should_panic(expected = "only 2 nodes")]
    fn subset_rejects_out_of_range_nodes() {
        NodeSubset::Nodes(vec![NodeId(5)]).resolve(2);
    }

    #[test]
    fn spec_builders() {
        let spec = QuerySpec::new(4, Epsilon::HALF, "topk").with_subset(NodeSubset::range(0, 2));
        assert_eq!(spec.k, 4);
        assert_eq!(spec.protocol, "topk");
        assert_eq!(spec.subset.resolve(8).len(), 2);
        assert_eq!(NodeSubset::default(), NodeSubset::All);
    }

    #[test]
    fn exclusive_charges_accumulate() {
        let mut ledger = QueryCostLedger::new(2);
        ledger.charge_exclusive(QueryId(0), 3);
        ledger.charge_exclusive(QueryId(1), 1);
        ledger.charge_exclusive(QueryId(0), 2);
        assert_eq!(ledger.units(QueryId(0)), 5 * SPLIT_SCALE);
        assert_eq!(ledger.units(QueryId(1)), SPLIT_SCALE);
        assert_eq!(ledger.total_units(), 6 * SPLIT_SCALE);
        assert_eq!(ledger.queries(), 2);
    }

    #[test]
    fn shared_messages_split_exactly() {
        let mut ledger = QueryCostLedger::new(3);
        let e = ledger.open_shared(QueryId(1));
        ledger.add_sharer(e, QueryId(0));
        ledger.add_sharer(e, QueryId(2));
        ledger.add_sharer(e, QueryId(0)); // idempotent
        assert!(ledger.is_sharer(e, QueryId(2)));
        ledger.settle_step();
        // 1000 / 3 = 333 each; the first 1000 mod 3 = 1 sharer (q0) gets +1.
        assert_eq!(ledger.units(QueryId(0)), 334);
        assert_eq!(ledger.units(QueryId(1)), 333);
        assert_eq!(ledger.units(QueryId(2)), 333);
        assert_eq!(ledger.total_units(), SPLIT_SCALE);
    }

    #[test]
    fn unconsumed_entries_cost_nothing() {
        let mut ledger = QueryCostLedger::new(2);
        ledger.open_unconsumed();
        let e = ledger.open_unconsumed();
        ledger.add_sharer(e, QueryId(1));
        ledger.settle_step();
        assert_eq!(ledger.units(QueryId(0)), 0);
        assert_eq!(ledger.units(QueryId(1)), SPLIT_SCALE);
        assert_eq!(ledger.total_units(), SPLIT_SCALE);
    }

    #[test]
    fn settle_clears_open_entries() {
        let mut ledger = QueryCostLedger::new(1);
        ledger.open_shared(QueryId(0));
        ledger.settle_step();
        ledger.settle_step(); // no double-charge
        assert_eq!(ledger.total_units(), SPLIT_SCALE);
    }
}
