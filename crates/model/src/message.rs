//! Wire messages exchanged between the server and the nodes.
//!
//! The model allows three physical message classes, each of unit cost:
//! node → server unicast, server → node unicast and server → all broadcast.
//! The enums below describe the *payloads*; the cost class is determined by the
//! transport primitive used in `topk-net` (and accounted by
//! [`crate::cost::CostMeter`]).
//!
//! Payload sizes respect the model's `O(log(n·Δ))`-bit bound: every variant
//! carries at most a couple of values and identifiers.

use crate::filter::{Filter, Violation};
use crate::query::QueryId;
use crate::rule::{FilterParams, NodeGroup};
use crate::types::{NodeId, Value};
use serde::{Deserialize, Serialize};

/// Predicate a node evaluates locally when asked to participate in an
/// existence-protocol round (Sect. 3 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ExistencePredicate {
    /// "Did you observe a filter violation at the current time step?"
    PendingViolation,
    /// "Is your current value strictly greater than the threshold?"
    GreaterThan(Value),
    /// "Is your current value at least the threshold?"
    AtLeast(Value),
    /// "Is your current value strictly smaller than the threshold?"
    LessThan(Value),
    /// "Is your `(value, id)` rank strictly between the two bounds?"
    ///
    /// Ranks compare by [`crate::types::value_order`]; `None` means unbounded on
    /// that side. This is the query the maximum protocol (Lemma 2.6) uses to find
    /// the largest value below an already-known rank while excluding already
    /// identified nodes — both bounds together stay within the `O(log(n·Δ))`-bit
    /// message budget.
    RankWindow {
        /// Exclusive lower bound on the rank, or `None` for no lower bound.
        above: Option<(Value, NodeId)>,
        /// Exclusive upper bound on the rank, or `None` for no upper bound.
        below: Option<(Value, NodeId)>,
    },
}

impl ExistencePredicate {
    /// Evaluates the predicate against a node's identity, current value and
    /// pending violation state.
    pub fn evaluate(
        &self,
        node: NodeId,
        value: Value,
        pending_violation: Option<Violation>,
    ) -> bool {
        use std::cmp::Ordering;
        match *self {
            ExistencePredicate::PendingViolation => pending_violation.is_some(),
            ExistencePredicate::GreaterThan(t) => value > t,
            ExistencePredicate::AtLeast(t) => value >= t,
            ExistencePredicate::LessThan(t) => value < t,
            ExistencePredicate::RankWindow { above, below } => {
                let me = (value, node);
                let above_ok = above.map_or(true, |bound| {
                    crate::types::value_order(me, bound) == Ordering::Greater
                });
                let below_ok = below.map_or(true, |bound| {
                    crate::types::value_order(me, bound) == Ordering::Less
                });
                above_ok && below_ok
            }
        }
    }
}

/// Messages sent by the server (unicast or broadcast).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ServerMessage {
    /// Assign an explicit filter to the receiving node (unicast).
    AssignFilter(Filter),
    /// Assign a group to the receiving node (unicast). The node's filter is then
    /// derived from the last broadcast [`FilterParams`] via
    /// [`crate::rule::filter_for`].
    AssignGroup(NodeGroup),
    /// Assign the same group to every node (broadcast). Typically followed by a
    /// handful of unicast [`ServerMessage::AssignGroup`] corrections — this is
    /// how a phase start re-partitions all `n` nodes with `O(k)` messages.
    BroadcastGroup(NodeGroup),
    /// Broadcast new filter parameters; every node re-derives its filter.
    BroadcastParams(FilterParams),
    /// Ask the receiving node to report its current value (unicast probe).
    Probe,
    /// Start round `round` of the existence protocol for the given predicate.
    /// Nodes for which the predicate holds reply independently with probability
    /// `2^round / n_active_hint` (see `topk-core::existence`).
    ExistenceRound {
        /// Round index `r = 0, 1, …, ⌈log₂ n⌉`.
        round: u32,
        /// The number of nodes `n` used in the probability `p_r = 2^r / n`.
        population: u32,
        /// The predicate deciding whether a node is active in this protocol run.
        predicate: ExistencePredicate,
    },
    /// Tell all nodes that the current existence run is over (the server heard
    /// enough); nodes reset their per-run state. Carried on the broadcast channel
    /// piggy-backed with the next payload, hence free of charge in the
    /// accounting (see `CostMeter::note_free_control`).
    EndExistenceRun,
    /// Assign a filter on behalf of a specific query (unicast).
    ///
    /// The carried filter is the node's new *effective* filter — the
    /// intersection of the bands of every query covering the node, computed
    /// server-side — and the node applies it exactly like
    /// [`ServerMessage::AssignFilter`]. The [`QueryId`] tags the message for
    /// per-query cost attribution only; nodes keep no per-query state.
    AssignQueryFilter {
        /// The query on whose behalf the assignment is charged.
        query: QueryId,
        /// The node's new effective filter.
        filter: Filter,
    },
}

/// Messages sent by a node to the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeMessage {
    /// Reply to a [`ServerMessage::Probe`] with the node's current value.
    ValueReport {
        /// Sender.
        node: NodeId,
        /// Current value of the sender.
        value: Value,
    },
    /// Spontaneous or existence-triggered report of a filter violation. Carries
    /// the violating value and the direction so the server can react without a
    /// follow-up probe.
    ViolationReport {
        /// Sender.
        node: NodeId,
        /// The value that violated the filter.
        value: Value,
        /// Violation direction.
        direction: Violation,
    },
    /// Positive answer in an existence round (the node's predicate holds and its
    /// coin flip succeeded). Carries the current value: the protocols always use
    /// the responder's value right away.
    ExistenceResponse {
        /// Sender.
        node: NodeId,
        /// Current value of the sender.
        value: Value,
    },
}

impl NodeMessage {
    /// The sender of this message.
    pub fn sender(&self) -> NodeId {
        match *self {
            NodeMessage::ValueReport { node, .. }
            | NodeMessage::ViolationReport { node, .. }
            | NodeMessage::ExistenceResponse { node, .. } => node,
        }
    }

    /// The value carried by this message.
    pub fn value(&self) -> Value {
        match *self {
            NodeMessage::ValueReport { value, .. }
            | NodeMessage::ViolationReport { value, .. }
            | NodeMessage::ExistenceResponse { value, .. } => value,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicate_evaluation() {
        let id = NodeId(0);
        assert!(ExistencePredicate::PendingViolation.evaluate(id, 5, Some(Violation::FromBelow)));
        assert!(!ExistencePredicate::PendingViolation.evaluate(id, 5, None));
        assert!(ExistencePredicate::GreaterThan(10).evaluate(id, 11, None));
        assert!(!ExistencePredicate::GreaterThan(10).evaluate(id, 10, None));
        assert!(ExistencePredicate::AtLeast(10).evaluate(id, 10, None));
        assert!(!ExistencePredicate::AtLeast(10).evaluate(id, 9, None));
        assert!(ExistencePredicate::LessThan(10).evaluate(id, 9, None));
        assert!(!ExistencePredicate::LessThan(10).evaluate(id, 10, None));
    }

    #[test]
    fn rank_window_predicate() {
        // Window strictly between (10, node#5) and (20, node#1).
        let pred = ExistencePredicate::RankWindow {
            above: Some((10, NodeId(5))),
            below: Some((20, NodeId(1))),
        };
        // Clearly inside.
        assert!(pred.evaluate(NodeId(3), 15, None));
        // Below the lower bound.
        assert!(!pred.evaluate(NodeId(3), 9, None));
        // Above the upper bound.
        assert!(!pred.evaluate(NodeId(3), 21, None));
        // Equal value to lower bound: rank decided by id (smaller id = higher rank).
        assert!(pred.evaluate(NodeId(2), 10, None));
        assert!(!pred.evaluate(NodeId(7), 10, None));
        // Equal value to upper bound: only ids larger than 1 are below it.
        assert!(pred.evaluate(NodeId(2), 20, None));
        assert!(!pred.evaluate(NodeId(0), 20, None));
        // Unbounded window accepts everything.
        let all = ExistencePredicate::RankWindow {
            above: None,
            below: None,
        };
        assert!(all.evaluate(NodeId(9), 0, None));
    }

    #[test]
    fn node_message_accessors() {
        let m = NodeMessage::ValueReport {
            node: NodeId(3),
            value: 42,
        };
        assert_eq!(m.sender(), NodeId(3));
        assert_eq!(m.value(), 42);
        let m = NodeMessage::ViolationReport {
            node: NodeId(1),
            value: 7,
            direction: Violation::FromAbove,
        };
        assert_eq!(m.sender(), NodeId(1));
        assert_eq!(m.value(), 7);
        let m = NodeMessage::ExistenceResponse {
            node: NodeId(2),
            value: 9,
        };
        assert_eq!(m.sender(), NodeId(2));
        assert_eq!(m.value(), 9);
    }

    #[test]
    fn messages_serialize_roundtrip() {
        let msgs = vec![
            ServerMessage::AssignFilter(Filter::at_least(5)),
            ServerMessage::AssignGroup(NodeGroup::V1),
            ServerMessage::BroadcastGroup(NodeGroup::Lower),
            ServerMessage::BroadcastParams(FilterParams::Separator { lo: 1, hi: 2 }),
            ServerMessage::Probe,
            ServerMessage::ExistenceRound {
                round: 3,
                population: 16,
                predicate: ExistencePredicate::GreaterThan(7),
            },
            ServerMessage::EndExistenceRun,
            ServerMessage::AssignQueryFilter {
                query: QueryId(9),
                filter: Filter::bounded(2, 4).unwrap(),
            },
        ];
        for m in msgs {
            let s = serde_json::to_string(&m).unwrap();
            let back: ServerMessage = serde_json::from_str(&s).unwrap();
            assert_eq!(m, back);
        }
    }
}
