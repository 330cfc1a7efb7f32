//! The [`Network`] trait — the transport API the online protocols program against.
//!
//! Protocols in `topk-core` are written once against this trait and can then run
//! on any of the four engines: the deterministic reference, the indexed and
//! sharded engines (the same algorithm at scale), or the remote engine (real
//! message passing over TCP) — or on any future transport.

use topk_model::message::ExistencePredicate;
use topk_model::prelude::*;

/// Transport and accounting interface between the server-side protocols and the
/// simulated distributed nodes.
///
/// All methods that move a message charge the engine's [`CostMeter`]; the
/// `peek_*` methods are free and exist only for validation, experiment
/// harnesses and adaptive adversaries — protocol implementations must never use
/// them to make decisions (that would be cheating the model, and the test suite
/// asserts protocols behave identically when peeks are disabled).
pub trait Network {
    /// Number of nodes `n`.
    fn n(&self) -> usize;

    /// Delivers the next observation to every node (index = node id).
    ///
    /// Observations are local and free; the engine also records one time step on
    /// the meter.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != self.n()`.
    fn advance_time(&mut self, values: &[Value]);

    /// Delivers observations to a *subset* of nodes; every node not listed in
    /// `changes` keeps (and conceptually re-observes) its previous value.
    ///
    /// Semantically identical to [`Network::advance_time`] with a full row in
    /// which the unlisted entries repeat the previous step — including the one
    /// recorded time step — but engines may implement it in `O(|changes|)`
    /// instead of `O(n)`. If a node appears more than once, the last entry wins.
    ///
    /// # Panics
    ///
    /// Panics if a changed node id is out of range.
    fn advance_time_sparse(&mut self, changes: &[(NodeId, Value)]) {
        let mut values = self.peek_values();
        for &(node, v) in changes {
            values[node.index()] = v;
        }
        self.advance_time(&values);
    }

    /// Applies a batch of membership events, in order (see
    /// `topk_model::membership` and the normative section of `docs/FAULTS.md`).
    ///
    /// * [`MembershipEvent::Leave`] — the slot's value collapses to `0` (as if
    ///   the node observed `0`) and the slot stops receiving workload
    ///   observations; dead slots answer probes with `0` and keep flipping
    ///   their existence coins, so RNG streams stay engine-independent. The
    ///   event itself is free: if the leaver held a top-k position, the value
    ///   drop trips its filter and the ordinary violation traffic (charged to
    ///   the protocol that resolves it) re-establishes a correct output.
    /// * [`MembershipEvent::Join`] — the slot's generation increments, its RNG
    ///   is reseeded from `(master seed, id, generation)` and its monitoring
    ///   state resets to fresh (last broadcast parameters retained); the
    ///   engine then immediately replays the slot's current group and filter
    ///   through the ordinary assignment paths under the `Recovery` label
    ///   (exactly 2 downstream unicasts per join).
    ///
    /// Every engine implements this bit-identically.
    ///
    /// # Panics
    ///
    /// Panics on a malformed schedule: joining a live slot, a dead slot
    /// leaving, or a slot id out of range.
    fn apply_membership(&mut self, events: &[MembershipEvent]);

    /// Broadcasts new filter parameters to all nodes (cost: 1 broadcast).
    fn broadcast_params(&mut self, params: FilterParams);

    /// Assigns a group to one node (cost: 1 downstream unicast). The node
    /// re-derives its filter from the group and the last broadcast parameters.
    fn assign_group(&mut self, node: NodeId, group: NodeGroup);

    /// Assigns the same group to every node (cost: 1 broadcast). Used at phase
    /// starts to reset the partition before unicasting the few exceptions.
    fn broadcast_group(&mut self, group: NodeGroup);

    /// Assigns an explicit filter to one node (cost: 1 downstream unicast).
    fn assign_filter(&mut self, node: NodeId, filter: Filter);

    /// Assigns a filter to one node *on behalf of a query* (cost: 1 downstream
    /// unicast, charged exactly like [`Network::assign_filter`]).
    ///
    /// `filter` is the node's new **effective** filter — the intersection of
    /// the bands of every query covering the node, computed by the caller
    /// (see `topk_model::Filter::intersect`). The [`QueryId`] tags the
    /// message for per-query cost attribution; the node-side semantics are
    /// identical to a plain assignment, and the default implementation *is*
    /// the plain assignment. Engines with a wire format (the remote engine)
    /// override this to put the tag on the wire, so all engines stay
    /// bit-identical in state and cost.
    fn assign_query_filter(&mut self, query: QueryId, node: NodeId, filter: Filter) {
        let _ = query;
        self.assign_filter(node, filter);
    }

    /// Pushes already-announced effective filters to nodes **free of charge**.
    ///
    /// The multi-query layer charges one unicast per *changed band* through
    /// [`Network::assign_query_filter`]; when one query's band change also
    /// shifts the effective (intersection) filter of nodes whose own bands
    /// did not change, the node can recompute the intersection locally from
    /// what it already heard — this call models that recomputation, so it
    /// moves state but records no message. The default implementation routes
    /// each pair through [`Network::assign_filter`] and retracts the charge,
    /// which keeps node-side state transitions (and RNG streams) identical
    /// on every engine.
    fn load_query_filters(&mut self, filters: &[(NodeId, Filter)]) {
        for &(node, filter) in filters {
            self.assign_filter(node, filter);
            self.meter().retract(MessageKind::DownstreamUnicast, 1);
        }
    }

    /// Probes one node for its current value (cost: 1 downstream + 1 upstream).
    fn probe(&mut self, node: NodeId) -> Value;

    /// Runs one round of the existence protocol: every node for which
    /// `predicate` holds sends a response with probability
    /// `min(1, 2^round / population)`.
    ///
    /// Cost: 1 upstream message per responding node; the round itself is
    /// accounted as one protocol round but carries no broadcast cost because the
    /// round schedule is predetermined (see the crate-level documentation).
    ///
    /// Convenience wrapper around [`Network::existence_round_into`] that
    /// allocates a fresh reply vector. Hot loops (one violation check per time
    /// step, `⌈log₂ n⌉ + 1` rounds each) should call the `_into` variant with a
    /// reused scratch buffer instead.
    fn existence_round(
        &mut self,
        round: u32,
        population: u32,
        predicate: ExistencePredicate,
    ) -> Vec<NodeMessage> {
        let mut replies = Vec::new();
        self.existence_round_into(round, population, predicate, &mut replies);
        replies
    }

    /// Allocation-free variant of [`Network::existence_round`]: clears `replies`
    /// and fills it with the responses of this round, in node-id order.
    ///
    /// Silent rounds leave `replies` empty and perform no allocation, which is
    /// what makes a violation-free time step cheap — the engine runs
    /// `⌈log₂ n⌉ + 1` such rounds per step.
    fn existence_round_into(
        &mut self,
        round: u32,
        population: u32,
        predicate: ExistencePredicate,
        replies: &mut Vec<NodeMessage>,
    );

    /// Announces the end of an existence run that produced at least one response
    /// (cost: 1 broadcast). Runs that stay silent need no announcement.
    fn end_existence_run(&mut self);

    /// Mutable access to the engine's cost meter (for protocol-phase labels).
    fn meter(&mut self) -> &mut CostMeter;

    /// Snapshot of the accumulated communication statistics.
    fn stats(&self) -> CommStats;

    /// Inspection: the value node `node` currently observes (free, not part of
    /// the model — for validation and adversaries only).
    fn peek_value(&self, node: NodeId) -> Value;

    /// Inspection: the filter node `node` currently uses (free).
    fn peek_filter(&self, node: NodeId) -> Filter;

    /// Inspection: the group node `node` currently has (free).
    fn peek_group(&self, node: NodeId) -> NodeGroup;

    /// Inspection: all filters, indexed by node id (free).
    fn peek_filters(&self) -> Vec<Filter> {
        let mut out = Vec::new();
        self.peek_filters_into(&mut out);
        out
    }

    /// Inspection: all current values, indexed by node id (free).
    fn peek_values(&self) -> Vec<Value> {
        let mut out = Vec::new();
        self.peek_values_into(&mut out);
        out
    }

    /// Borrowed-buffer variant of [`Network::peek_filters`]: clears `out` and
    /// fills it with all filters, indexed by node id. Drivers that peek every
    /// time step reuse one buffer instead of allocating per step.
    fn peek_filters_into(&self, out: &mut Vec<Filter>) {
        out.clear();
        out.extend((0..self.n()).map(|i| self.peek_filter(NodeId(i))));
    }

    /// Borrowed-buffer variant of [`Network::peek_values`]: clears `out` and
    /// fills it with all current values, indexed by node id.
    fn peek_values_into(&self, out: &mut Vec<Value>) {
        out.clear();
        out.extend((0..self.n()).map(|i| self.peek_value(NodeId(i))));
    }
}

/// Blanket helpers available on every [`Network`].
pub trait NetworkExt: Network {
    /// Assigns the same group to a list of nodes, one unicast each.
    fn assign_groups(&mut self, nodes: &[NodeId], group: NodeGroup) {
        for &node in nodes {
            self.assign_group(node, group);
        }
    }

    /// Total messages sent so far (convenience around [`Network::stats`]).
    fn total_messages(&self) -> u64 {
        self.stats().total_messages()
    }
}

impl<T: Network + ?Sized> NetworkExt for T {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DeterministicEngine;

    #[test]
    fn sparse_advance_and_buffered_peeks() {
        let mut net = DeterministicEngine::new(3, 5);
        net.advance_time(&[10, 20, 30]);
        net.advance_time_sparse(&[(NodeId(2), 99)]);
        assert_eq!(net.peek_values(), vec![10, 20, 99]);
        assert_eq!(net.stats().time_steps, 2);
        let mut values = vec![0; 17]; // stale contents must be replaced
        net.peek_values_into(&mut values);
        assert_eq!(values, vec![10, 20, 99]);
        let mut filters = Vec::new();
        net.peek_filters_into(&mut filters);
        assert_eq!(filters, vec![Filter::FULL; 3]);
        // The allocating existence_round wrapper delegates to the _into form.
        let replies = net.existence_round(
            10,
            3,
            topk_model::message::ExistencePredicate::GreaterThan(50),
        );
        assert_eq!(replies.len(), 1);
        assert_eq!(replies[0].sender(), NodeId(2));
    }

    #[test]
    fn network_ext_helpers() {
        let mut net = DeterministicEngine::new(4, 1);
        net.advance_time(&[1, 2, 3, 4]);
        net.assign_groups(&[NodeId(0), NodeId(1)], NodeGroup::Upper);
        assert_eq!(net.peek_group(NodeId(0)), NodeGroup::Upper);
        assert_eq!(net.peek_group(NodeId(1)), NodeGroup::Upper);
        assert_eq!(net.peek_group(NodeId(2)), NodeGroup::Lower);
        assert_eq!(net.total_messages(), 2);
        assert_eq!(net.peek_values(), vec![1, 2, 3, 4]);
        assert_eq!(net.peek_filters().len(), 4);
    }
}
