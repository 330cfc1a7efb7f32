//! In-process, deterministic simulation engine.
//!
//! [`DeterministicEngine`] drives all [`SimNode`] state machines by direct
//! function calls in node-id order. Given the same master seed and the same
//! sequence of transport calls it produces bit-identical node decisions and
//! therefore bit-identical message counts — the property the competitive-ratio
//! experiments rely on.

use crate::network::Network;
use crate::node::{Coin, SimNode};
use topk_model::message::ExistencePredicate;
use topk_model::prelude::*;

/// Deterministic single-threaded engine (see module documentation).
#[derive(Debug, Clone)]
pub struct DeterministicEngine {
    nodes: Vec<SimNode>,
    meter: CostMeter,
    /// Retained for reseeding joining nodes from `(master seed, id, generation)`.
    master_seed: u64,
    population: Population,
}

impl DeterministicEngine {
    /// Creates an engine with `n` nodes whose RNGs are derived from `master_seed`.
    ///
    /// ```
    /// use topk_net::{DeterministicEngine, Network};
    /// use topk_model::NodeId;
    ///
    /// let mut net = DeterministicEngine::new(3, 42);
    /// net.advance_time(&[10, 20, 30]);
    /// assert_eq!(net.probe(NodeId(2)), 30);
    /// assert_eq!(net.stats().total_messages(), 2); // 1 probe + 1 reply
    /// ```
    pub fn new(n: usize, master_seed: u64) -> DeterministicEngine {
        DeterministicEngine {
            nodes: NodeId::all(n)
                .map(|id| SimNode::new(id, master_seed))
                .collect(),
            meter: CostMeter::new(),
            master_seed,
            population: Population::new(n),
        }
    }

    fn deliver_unicast(&mut self, node: NodeId, msg: &ServerMessage) -> Option<NodeMessage> {
        self.meter.record(MessageKind::DownstreamUnicast);
        let reply = self.nodes[node.index()].handle(msg);
        if reply.is_some() {
            self.meter.record(MessageKind::Upstream);
        }
        reply
    }
}

impl Network for DeterministicEngine {
    fn n(&self) -> usize {
        self.nodes.len()
    }

    fn advance_time(&mut self, values: &[Value]) {
        assert_eq!(
            values.len(),
            self.nodes.len(),
            "one observation per node required"
        );
        for (i, (node, &v)) in self.nodes.iter_mut().zip(values).enumerate() {
            // Dead slots stop receiving workload observations: they observe 0.
            node.observe(if self.population.is_live(NodeId(i)) {
                v
            } else {
                0
            });
        }
        self.meter.record_time_step();
    }

    fn advance_time_sparse(&mut self, changes: &[(NodeId, Value)]) {
        // Unchanged nodes re-observing their previous value is a no-op (same
        // value, same filter, same pending flag), so only the changed nodes need
        // a call.
        for &(node, v) in changes {
            let v = if self.population.is_live(node) { v } else { 0 };
            self.nodes[node.index()].observe(v);
        }
        self.meter.record_time_step();
    }

    fn apply_membership(&mut self, events: &[MembershipEvent]) {
        for &event in events {
            match event {
                MembershipEvent::Leave(node) => {
                    self.population.apply(event);
                    // The leaver's stream ends: it observes 0, which trips its
                    // filter if the slot held a top-k position (free — the
                    // violation traffic that follows is charged normally).
                    self.nodes[node.index()].observe(0);
                }
                MembershipEvent::Join(node) => {
                    let generation = self.population.apply(event);
                    let i = node.index();
                    let group = self.nodes[i].group();
                    let filter = self.nodes[i].filter();
                    self.nodes[i].rejoin_generation(self.master_seed, generation);
                    // Bring the joiner up to date: replay the slot's current
                    // group and filter under the Recovery label (2 unicasts),
                    // mirroring the crash-rejoin replay of FaultyTransport.
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
        let msg = ServerMessage::BroadcastParams(params);
        for node in &mut self.nodes {
            let reply = node.handle(&msg);
            debug_assert!(reply.is_none(), "parameter broadcasts are not answered");
        }
    }

    fn assign_group(&mut self, node: NodeId, group: NodeGroup) {
        let reply = self.deliver_unicast(node, &ServerMessage::AssignGroup(group));
        debug_assert!(reply.is_none());
    }

    fn broadcast_group(&mut self, group: NodeGroup) {
        self.meter.record(MessageKind::Broadcast);
        let msg = ServerMessage::BroadcastGroup(group);
        for node in &mut self.nodes {
            let reply = node.handle(&msg);
            debug_assert!(reply.is_none(), "group broadcasts are not answered");
        }
    }

    fn assign_filter(&mut self, node: NodeId, filter: Filter) {
        let reply = self.deliver_unicast(node, &ServerMessage::AssignFilter(filter));
        debug_assert!(reply.is_none());
    }

    fn probe(&mut self, node: NodeId) -> Value {
        match self.deliver_unicast(node, &ServerMessage::Probe) {
            Some(NodeMessage::ValueReport { value, .. }) => value,
            other => unreachable!("probe must be answered with a value report, got {other:?}"),
        }
    }

    fn existence_round_into(
        &mut self,
        round: u32,
        population: u32,
        predicate: ExistencePredicate,
        replies: &mut Vec<NodeMessage>,
    ) {
        self.meter.record_round();
        let coin = Coin::new(round, population);
        replies.clear();
        for node in &mut self.nodes {
            if let Some(reply) = node.existence_round(coin, predicate) {
                self.meter.record(MessageKind::Upstream);
                replies.push(reply);
            }
        }
    }

    fn end_existence_run(&mut self) {
        self.meter.record(MessageKind::Broadcast);
        let msg = ServerMessage::EndExistenceRun;
        for node in &mut self.nodes {
            let reply = node.handle(&msg);
            debug_assert!(reply.is_none());
        }
    }

    fn meter(&mut self) -> &mut CostMeter {
        &mut self.meter
    }

    fn stats(&self) -> CommStats {
        self.meter.snapshot()
    }

    fn peek_value(&self, node: NodeId) -> Value {
        self.nodes[node.index()].value()
    }

    fn peek_filter(&self, node: NodeId) -> Filter {
        self.nodes[node.index()].filter()
    }

    fn peek_group(&self, node: NodeId) -> NodeGroup {
        self.nodes[node.index()].group()
    }

    fn peek_filters_into(&self, out: &mut Vec<Filter>) {
        out.clear();
        out.extend(self.nodes.iter().map(SimNode::filter));
    }

    fn peek_values_into(&self, out: &mut Vec<Value>) {
        out.clear();
        out.extend(self.nodes.iter().map(SimNode::value));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_broadcasts_and_unicasts() {
        let mut net = DeterministicEngine::new(5, 1);
        net.advance_time(&[10, 20, 30, 40, 50]);
        net.broadcast_params(FilterParams::Separator { lo: 25, hi: 25 });
        net.assign_filter(NodeId(0), Filter::at_least(40));
        net.assign_group(NodeId(1), NodeGroup::Upper);
        let v = net.probe(NodeId(4));
        assert_eq!(v, 50);
        let stats = net.stats();
        assert_eq!(stats.messages_of_kind(MessageKind::Broadcast), 1);
        assert_eq!(stats.messages_of_kind(MessageKind::DownstreamUnicast), 3);
        assert_eq!(stats.messages_of_kind(MessageKind::Upstream), 1);
        assert_eq!(stats.time_steps, 1);
    }

    #[test]
    fn broadcast_updates_every_node_filter() {
        let mut net = DeterministicEngine::new(3, 1);
        net.advance_time(&[1, 2, 3]);
        net.assign_group(NodeId(0), NodeGroup::Upper);
        net.broadcast_params(FilterParams::Separator { lo: 2, hi: 2 });
        assert_eq!(net.peek_filter(NodeId(0)), Filter::at_least(2));
        assert_eq!(net.peek_filter(NodeId(1)), Filter::at_most(2));
        assert_eq!(net.peek_filter(NodeId(2)), Filter::at_most(2));
    }

    #[test]
    fn existence_round_charges_only_responders() {
        let mut net = DeterministicEngine::new(8, 1);
        net.advance_time(&[0, 0, 0, 0, 0, 0, 0, 100]);
        // Round with probability 1 (2^round >= population): exactly the single
        // node with value > 50 responds.
        let replies = net.existence_round(10, 8, ExistencePredicate::GreaterThan(50));
        assert_eq!(replies.len(), 1);
        assert_eq!(replies[0].sender(), NodeId(7));
        let stats = net.stats();
        assert_eq!(stats.messages_of_kind(MessageKind::Upstream), 1);
        assert_eq!(stats.rounds, 1);
        // No responders → no cost.
        let replies = net.existence_round(10, 8, ExistencePredicate::GreaterThan(1000));
        assert!(replies.is_empty());
        assert_eq!(net.stats().messages_of_kind(MessageKind::Upstream), 1);
    }

    #[test]
    fn pending_violations_survive_until_new_filter() {
        let mut net = DeterministicEngine::new(2, 1);
        net.advance_time(&[10, 20]);
        net.assign_filter(NodeId(1), Filter::at_most(15));
        // Node 1 violates immediately (invalid filter is allowed by the model).
        let replies = net.existence_round(10, 2, ExistencePredicate::PendingViolation);
        assert_eq!(replies.len(), 1);
        match replies[0] {
            NodeMessage::ViolationReport {
                node,
                value,
                direction,
            } => {
                assert_eq!(node, NodeId(1));
                assert_eq!(value, 20);
                assert_eq!(direction, Violation::FromBelow);
            }
            ref other => panic!("expected violation report, got {other:?}"),
        }
        // Fixing the filter clears the pending violation.
        net.assign_filter(NodeId(1), Filter::at_most(30));
        let replies = net.existence_round(10, 2, ExistencePredicate::PendingViolation);
        assert!(replies.is_empty());
    }

    #[test]
    fn same_seed_same_counts() {
        let run = |seed: u64| {
            let mut net = DeterministicEngine::new(16, seed);
            net.advance_time(&(0..16).map(|i| i * 10).collect::<Vec<_>>());
            let mut responses = 0;
            for round in 0..5 {
                responses += net
                    .existence_round(round, 16, ExistencePredicate::GreaterThan(0))
                    .len();
            }
            (responses, net.stats().total_messages())
        };
        assert_eq!(run(99), run(99));
    }

    #[test]
    #[should_panic]
    fn advance_time_checks_length() {
        let mut net = DeterministicEngine::new(3, 1);
        net.advance_time(&[1, 2]);
    }
}
