//! Indexed deterministic engine: O(active)-time simulation.
//!
//! [`IndexedEngine`] produces *bit-identical* behaviour to
//! [`DeterministicEngine`](crate::DeterministicEngine) — the same replies, the
//! same message counts, the same filters — while doing work proportional to
//! the nodes that actually participate instead of sweeping all `n` nodes on
//! every round of every existence run.
//!
//! ## Why the baseline is Θ(n · log n) per time step
//!
//! The protocols check for filter violations after every observation by running
//! the Lemma 3.1 existence protocol, which uses up to `⌈log₂ n⌉ + 1` rounds.
//! The baseline engine delivers each round to all `n` nodes, so even a
//! perfectly *silent* step — the overwhelmingly common case on quiet streams,
//! and the case the paper's communication bounds are built around — costs
//! `Θ(n log n)` node invocations although zero messages flow.
//!
//! ## How the indexed engine gets to O(active)
//!
//! Node state lives in a struct-of-arrays layout
//! ([`NodeStateSoA`](topk_model::soa::NodeStateSoA)) and the engine maintains
//! two indexes over it:
//!
//! * a **pending-violation set** (ordered ids), updated whenever an observation
//!   or a filter change flips a node's violation status — so a
//!   `PendingViolation` round touches exactly the violating nodes;
//! * a **radix value index** ([`ValueIndex`](crate::ValueIndex)): ids bucketed
//!   by a monotone compression of the value domain, maintained
//!   *incrementally* — one `O(1)` bucket move per changed observation — once
//!   the first threshold/rank round warms it. While no such round has run (the common case on pure
//!   violation-detection workloads) the index stays cold and observations pay
//!   a single branch, nothing more.
//!
//! A round visits only the nodes its predicate selects: `O(active)` coin
//! flips instead of `O(n)` deliveries. The state, the per-node random
//! streams and both indexes live in one node table (`crate::node_table`),
//! shared with the sharded engine's shards, whose kernel collects a run's
//! active ids once — a bitmap-guided bucket walk or a pending-set scan in
//! the run's first round — and reuses them until the predicate changes or a
//! mutator writes node state (`NodeStateSoA::writes`). The streams sit in a
//! struct-of-arrays keystream table (`crate::keystream`) that refills the
//! exhausted streams of a round four ChaCha8 blocks at a time, straight
//! from and into each stream's own rows, and draws exactly the words each
//! node's `ChaCha8Rng` would.
//!
//! ## Why skipping inactive nodes is exact, not approximate
//!
//! A `SimNode` draws from its RNG in exactly one place: the
//! `node::Coin` flip, and only *after* its predicate evaluated to true. A
//! node whose predicate is false returns without touching its RNG, so not
//! visiting it at all leaves its random stream — and therefore every
//! future decision — bit-for-bit unchanged. The indexed engine flips the
//! identical coin (one `u64` draw against the round's threshold
//! `⌈N·2⁶⁴/P⌉`, which equals `gen_ratio(N, P)` draw for draw; see `Coin`) on
//! the same per-node stream seeded by `node::node_seed`, for the identical
//! set of nodes, which is why `tests/indexed_differential.rs` can assert full
//! `CommStats` equality against the baseline over randomized schedules.

use crate::network::Network;
use crate::node::Coin;
use crate::node_table::NodeTable;
use topk_model::message::ExistencePredicate;
use topk_model::prelude::*;

/// Indexed single-threaded engine (see module documentation).
#[derive(Debug, Clone)]
pub struct IndexedEngine {
    /// Every node, with the pending set, value index and round kernel.
    table: NodeTable,
    /// Last broadcast parameters. `SimNode` stores these per node, but they are
    /// only ever set by a broadcast, so one shared copy is exactly equivalent.
    params: Option<FilterParams>,
    meter: CostMeter,
    /// Retained for reseeding joining nodes from `(master seed, id, generation)`.
    master_seed: u64,
    population: Population,
}

impl IndexedEngine {
    /// Creates an engine with `n` nodes whose random streams are derived
    /// from `master_seed` exactly like the other engines'.
    ///
    /// ```
    /// use topk_net::{DeterministicEngine, IndexedEngine, Network};
    ///
    /// // Same seed ⇒ bit-identical behaviour, O(active) instead of Θ(n).
    /// let mut fast = IndexedEngine::new(64, 7);
    /// let mut reference = DeterministicEngine::new(64, 7);
    /// let row: Vec<u64> = (0..64).collect();
    /// fast.advance_time(&row);
    /// reference.advance_time(&row);
    /// assert_eq!(fast.stats(), reference.stats());
    /// ```
    pub fn new(n: usize, master_seed: u64) -> IndexedEngine {
        IndexedEngine {
            table: NodeTable::new(0, n, master_seed),
            params: None,
            meter: CostMeter::new(),
            master_seed,
            population: Population::new(n),
        }
    }

    /// Number of nodes whose value currently violates their filter (free
    /// inspection, useful for harnesses and tests).
    pub fn pending_count(&self) -> usize {
        self.table.pending.len()
    }

    /// Number of full value-index builds so far. A threshold/rank round warms
    /// the index at most once per active-set collection; repeated rounds
    /// without intervening bulk invalidation reuse the warm index, so this
    /// counter should climb far slower than the round count.
    pub fn index_rebuilds(&self) -> u64 {
        self.table.index_rebuilds
    }
}

impl Network for IndexedEngine {
    fn n(&self) -> usize {
        self.table.len()
    }

    fn advance_time(&mut self, values: &[Value]) {
        assert_eq!(
            values.len(),
            self.table.len(),
            "one observation per node required"
        );
        for (i, &v) in values.iter().enumerate() {
            // Dead slots stop receiving workload observations (they hold 0, so
            // the masked value never differs and the slot is simply skipped).
            let v = if self.population.is_live(NodeId(i)) {
                v
            } else {
                0
            };
            self.table.observe(i as u32, v);
        }
        self.meter.record_time_step();
    }

    fn advance_time_sparse(&mut self, changes: &[(NodeId, Value)]) {
        for &(node, v) in changes {
            let v = if self.population.is_live(node) { v } else { 0 };
            self.table.observe(node.index() as u32, v);
        }
        self.meter.record_time_step();
    }

    fn apply_membership(&mut self, events: &[MembershipEvent]) {
        for &event in events {
            match event {
                MembershipEvent::Leave(node) => {
                    self.population.apply(event);
                    // The leaver observes 0; skipping the write when the value
                    // is already 0 leaves the pending invariant untouched.
                    self.table.observe(node.index() as u32, 0);
                }
                MembershipEvent::Join(node) => {
                    let generation = self.population.apply(event);
                    let i = node.index();
                    let group = self.table.state.group(i);
                    let filter = self.table.state.filter(i);
                    self.table.rejoin(i as u32, self.master_seed, generation);
                    // Recovery replay of the slot's current group and filter,
                    // exactly as the baseline engine charges it.
                    self.meter.push_label(ProtocolLabel::Recovery);
                    self.assign_group(node, group);
                    self.assign_filter(node, filter);
                    self.meter.pop_label();
                }
            }
        }
    }

    fn broadcast_params(&mut self, params: FilterParams) {
        self.meter.record(MessageKind::Broadcast);
        self.params = Some(params);
        self.table.broadcast(None, Some(params));
    }

    fn assign_group(&mut self, node: NodeId, group: NodeGroup) {
        self.meter.record(MessageKind::DownstreamUnicast);
        self.table
            .assign_group(node.index() as u32, group, self.params);
    }

    fn broadcast_group(&mut self, group: NodeGroup) {
        self.meter.record(MessageKind::Broadcast);
        self.table.broadcast(Some(group), self.params);
    }

    fn assign_filter(&mut self, node: NodeId, filter: Filter) {
        self.meter.record(MessageKind::DownstreamUnicast);
        self.table.apply_filter(node.index() as u32, filter);
    }

    fn probe(&mut self, node: NodeId) -> Value {
        self.meter.record(MessageKind::DownstreamUnicast);
        self.meter.record(MessageKind::Upstream);
        self.table.state.value(node.index())
    }

    fn existence_round_into(
        &mut self,
        round: u32,
        population: u32,
        predicate: ExistencePredicate,
        replies: &mut Vec<NodeMessage>,
    ) {
        self.meter.record_round();
        self.table
            .round_into(Coin::new(round, population), predicate, replies);
        self.meter
            .record_many(MessageKind::Upstream, replies.len() as u64);
    }

    fn end_existence_run(&mut self) {
        // Nodes hold no per-run state (the round schedule is predetermined), so
        // only the broadcast is charged — same as the baseline, where every
        // node's handler is a no-op for this message.
        self.meter.record(MessageKind::Broadcast);
    }

    fn meter(&mut self) -> &mut CostMeter {
        &mut self.meter
    }

    fn stats(&self) -> CommStats {
        self.meter.snapshot()
    }

    fn peek_value(&self, node: NodeId) -> Value {
        self.table.state.value(node.index())
    }

    fn peek_filter(&self, node: NodeId) -> Filter {
        self.table.state.filter(node.index())
    }

    fn peek_group(&self, node: NodeId) -> NodeGroup {
        self.table.state.group(node.index())
    }

    fn peek_filters_into(&self, out: &mut Vec<Filter>) {
        out.clear();
        out.extend(self.table.state.filters().map(|(_, f)| f));
    }

    fn peek_values_into(&self, out: &mut Vec<Value>) {
        out.clear();
        out.extend_from_slice(self.table.state.values());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DeterministicEngine;

    #[test]
    fn basic_flow_matches_baseline_semantics() {
        let mut net = IndexedEngine::new(5, 1);
        net.advance_time(&[10, 20, 30, 40, 50]);
        net.broadcast_params(FilterParams::Separator { lo: 25, hi: 25 });
        net.assign_filter(NodeId(0), Filter::at_least(40));
        net.assign_group(NodeId(1), NodeGroup::Upper);
        assert_eq!(net.probe(NodeId(4)), 50);
        let stats = net.stats();
        assert_eq!(stats.messages_of_kind(MessageKind::Broadcast), 1);
        assert_eq!(stats.messages_of_kind(MessageKind::DownstreamUnicast), 3);
        assert_eq!(stats.messages_of_kind(MessageKind::Upstream), 1);
        assert_eq!(stats.time_steps, 1);
        // Node 1 became Upper under the separator rule: filter [25, ∞).
        assert_eq!(net.peek_filter(NodeId(1)), Filter::at_least(25));
        assert_eq!(net.peek_filter(NodeId(2)), Filter::at_most(25));
    }

    #[test]
    fn pending_index_tracks_violations() {
        let mut net = IndexedEngine::new(4, 9);
        net.advance_time(&[10, 20, 30, 40]);
        assert_eq!(net.pending_count(), 0);
        net.assign_filter(NodeId(3), Filter::at_most(35));
        net.assign_filter(NodeId(0), Filter::at_least(15));
        assert_eq!(net.pending_count(), 2);
        let replies = net.existence_round(10, 4, ExistencePredicate::PendingViolation);
        assert_eq!(replies.len(), 2);
        assert_eq!(replies[0].sender(), NodeId(0)); // id order
        assert_eq!(replies[1].sender(), NodeId(3));
        net.assign_filter(NodeId(0), Filter::FULL);
        net.advance_time(&[10, 20, 30, 20]);
        assert_eq!(net.pending_count(), 0);
        assert!(net
            .existence_round(10, 4, ExistencePredicate::PendingViolation)
            .is_empty());
    }

    #[test]
    fn threshold_predicates_use_the_value_index() {
        let mut net = IndexedEngine::new(6, 3);
        net.advance_time(&[5, 40, 40, 10, 99, 40]);
        let ids = |replies: Vec<NodeMessage>| -> Vec<usize> {
            replies.iter().map(|r| r.sender().index()).collect()
        };
        // Probability-1 rounds (2^round >= population).
        let r = net.existence_round(10, 6, ExistencePredicate::GreaterThan(40));
        assert_eq!(ids(r), vec![4]);
        let r = net.existence_round(10, 6, ExistencePredicate::AtLeast(40));
        assert_eq!(ids(r), vec![1, 2, 4, 5]);
        let r = net.existence_round(10, 6, ExistencePredicate::LessThan(10));
        assert_eq!(ids(r), vec![0]);
        // Rank window strictly between (10, #3) and (40, #1): nodes holding 40
        // with id > 1 (smaller id = higher rank, so #2 and #5 rank below #1).
        let r = net.existence_round(
            10,
            6,
            ExistencePredicate::RankWindow {
                above: Some((10, NodeId(3))),
                below: Some((40, NodeId(1))),
            },
        );
        assert_eq!(ids(r), vec![2, 5]);
        // Inverted window selects nothing (and must not panic).
        let r = net.existence_round(
            10,
            6,
            ExistencePredicate::RankWindow {
                above: Some((99, NodeId(4))),
                below: Some((5, NodeId(0))),
            },
        );
        assert!(r.is_empty());
    }

    #[test]
    fn value_index_is_rebuilt_after_observations() {
        let mut net = IndexedEngine::new(3, 3);
        net.advance_time(&[1, 2, 3]);
        assert_eq!(
            net.existence_round(10, 3, ExistencePredicate::GreaterThan(2))
                .len(),
            1
        );
        net.advance_time(&[4, 5, 0]);
        let r = net.existence_round(10, 3, ExistencePredicate::GreaterThan(2));
        let mut ids: Vec<usize> = r.iter().map(|m| m.sender().index()).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1]);
    }

    #[test]
    fn one_round_never_rebuilds_the_index_twice() {
        let mut net = IndexedEngine::new(16, 5);
        net.advance_time(&(0..16).map(|i| i * 3).collect::<Vec<_>>());
        assert_eq!(net.index_rebuilds(), 0, "cold until a threshold round");
        // A violation-detection round must not warm the index at all.
        net.existence_round(10, 16, ExistencePredicate::PendingViolation);
        assert_eq!(net.index_rebuilds(), 0);
        // The first threshold round warms it exactly once, even though the
        // dispatch serves four different predicate shapes.
        net.existence_round(10, 16, ExistencePredicate::GreaterThan(20));
        assert_eq!(net.index_rebuilds(), 1);
        // Further rounds of every shape reuse the warm index: no rebuild.
        net.existence_round(10, 16, ExistencePredicate::AtLeast(9));
        net.existence_round(10, 16, ExistencePredicate::LessThan(30));
        net.existence_round(
            10,
            16,
            ExistencePredicate::RankWindow {
                above: Some((6, NodeId(2))),
                below: None,
            },
        );
        assert_eq!(net.index_rebuilds(), 1);
        // Observations update the warm index incrementally — still no rebuild.
        net.advance_time(&(0..16).map(|i| i * 5).collect::<Vec<_>>());
        net.existence_round(10, 16, ExistencePredicate::GreaterThan(20));
        assert_eq!(net.index_rebuilds(), 1);
    }

    #[test]
    fn interleaved_queries_and_observations_match_baseline() {
        // Warm/cold transitions and incremental maintenance under an
        // adversarial interleaving must stay bit-identical to the baseline.
        let mut base = DeterministicEngine::new(40, 77);
        let mut indexed = IndexedEngine::new(40, 77);
        let mut x = 1u64;
        for step in 0..60u64 {
            x = x.wrapping_mul(2862933555777941757).wrapping_add(step);
            let row: Vec<u64> = (0..40).map(|i| (x >> (i % 13)) % 500).collect();
            base.advance_time(&row);
            indexed.advance_time(&row);
            let predicate = match step % 5 {
                0 => ExistencePredicate::PendingViolation,
                1 => ExistencePredicate::GreaterThan(x % 500),
                2 => ExistencePredicate::AtLeast(x % 500),
                3 => ExistencePredicate::LessThan(x % 500),
                _ => ExistencePredicate::RankWindow {
                    above: Some((x % 500, NodeId((x % 40) as usize))),
                    below: None,
                },
            };
            let a = base.existence_round(10, 40, predicate);
            let b = indexed.existence_round(10, 40, predicate);
            assert_eq!(a, b, "step {step}");
        }
        assert_eq!(base.stats(), indexed.stats());
        assert_eq!(base.peek_values(), indexed.peek_values());
    }

    #[test]
    fn sparse_advance_equals_dense_advance() {
        let mut dense = IndexedEngine::new(4, 7);
        let mut sparse = IndexedEngine::new(4, 7);
        dense.advance_time(&[1, 2, 3, 4]);
        sparse.advance_time(&[1, 2, 3, 4]);
        dense.advance_time(&[1, 9, 3, 0]);
        sparse.advance_time_sparse(&[(NodeId(1), 9), (NodeId(3), 0)]);
        assert_eq!(dense.peek_values(), sparse.peek_values());
        assert_eq!(dense.stats(), sparse.stats());
        let a = dense.existence_round(10, 4, ExistencePredicate::GreaterThan(2));
        let b = sparse.existence_round(10, 4, ExistencePredicate::GreaterThan(2));
        assert_eq!(a, b);
    }

    #[test]
    fn matches_baseline_on_a_scripted_run() {
        let script = |net: &mut dyn Network| {
            net.advance_time(&[3, 1, 4, 1, 5, 9, 2, 6]);
            net.assign_group(NodeId(5), NodeGroup::Upper);
            net.broadcast_params(FilterParams::Separator { lo: 5, hi: 5 });
            let mut found = Vec::new();
            for round in 0..=3 {
                let r = net.existence_round(round, 8, ExistencePredicate::PendingViolation);
                if !r.is_empty() {
                    found = r;
                    net.end_existence_run();
                    break;
                }
            }
            net.advance_time(&[3, 1, 4, 1, 5, 9, 2, 4]);
            let max = net.existence_round(10, 8, ExistencePredicate::AtLeast(9));
            (found, max, net.stats())
        };
        let mut base = DeterministicEngine::new(8, 1234);
        let mut indexed = IndexedEngine::new(8, 1234);
        let (f_base, m_base, s_base) = script(&mut base);
        let (f_idx, m_idx, s_idx) = script(&mut indexed);
        assert_eq!(f_base, f_idx);
        assert_eq!(m_base, m_idx);
        assert_eq!(s_base, s_idx);
        assert_eq!(base.peek_filters(), indexed.peek_filters());
        assert_eq!(base.peek_values(), indexed.peek_values());
    }
}
