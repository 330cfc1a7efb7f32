//! # topk-model
//!
//! Execution-model substrate for *(approximate) Top-k-Position Monitoring of
//! Distributed Streams* (Mäcker, Malatyali, Meyer auf der Heide, 2016).
//!
//! The crate contains every type that the simulation runtime (`topk-net`), the
//! workload generators (`topk-gen`), the offline baselines (`topk-offline`) and
//! the online protocols (`topk-core`) agree on:
//!
//! * [`Value`], [`NodeId`] and [`TimeStep`] — the raw vocabulary of the
//!   continuous distributed monitoring model,
//! * [`Epsilon`] — the approximation error `ε ∈ (0, 1)` represented as an exact
//!   rational so that all neighbourhood comparisons are integer-exact,
//! * [`Filter`] and [`FilterSet`] — the intervals the server assigns to nodes and
//!   the validity condition of Observation 2.2 of the paper,
//! * [`NodeGroup`], [`FilterParams`] and [`filter_for`] — the compact broadcast
//!   representation of filter assignments used by the protocols,
//! * [`topk`] — the semantics of the (ε-approximate) top-k-position set:
//!   `π(k,t)`, `E(t)`, `A(t)`, `K(t)`, `σ(t)` and output validation,
//! * [`membership`] — dynamic population churn: [`MembershipEvent`] and the
//!   live/generation map [`Population`],
//! * [`message`] — the wire messages exchanged between server and nodes,
//! * [`cost`] — message/round accounting used for competitive-ratio measurements.
//!
//! The crate is intentionally free of any runtime or randomness so that it can be
//! used from deterministic tests, every engine and the offline solvers alike.
//!
//! ## Model recap
//!
//! `n` nodes each observe a private stream of natural numbers. Between two
//! consecutive observations an interactive protocol of polylogarithmically many
//! rounds may run. Nodes send unicast messages to the server; the server sends
//! unicast messages to single nodes or uses a broadcast channel (one message,
//! received by all nodes). Every message costs one unit. The server must know, at
//! every time step, a set `F(t)` of `k` nodes containing every node whose value is
//! clearly above the k-th largest value and no node whose value is clearly below
//! it, where "clearly" is controlled by `ε`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cost;
pub mod epsilon;
pub mod error;
pub mod fault;
pub mod filter;
pub mod membership;
pub mod message;
pub mod query;
pub mod rule;
pub mod soa;
pub mod topk;
pub mod types;

pub use cost::{CommStats, CostMeter, MessageKind, ProtocolLabel};
pub use epsilon::Epsilon;
pub use error::ModelError;
pub use fault::{CrashSpec, FaultSpec, FaultStats, LatencySpec};
pub use filter::{Filter, FilterSet, Violation};
pub use membership::{MembershipEvent, Population};
pub use message::{NodeMessage, ServerMessage};
pub use query::{NodeSubset, QueryCostLedger, QueryId, QuerySpec, SPLIT_SCALE};
pub use rule::{filter_for, FilterParams, NodeGroup};
pub use soa::NodeStateSoA;
pub use topk::{OutputValidity, TopKView};
pub use types::{NodeId, TimeStep, Value, INFINITY_VALUE};

/// Convenience prelude re-exporting the types used by virtually every consumer.
pub mod prelude {
    pub use crate::cost::{CommStats, CostMeter, MessageKind, ProtocolLabel};
    pub use crate::epsilon::Epsilon;
    pub use crate::error::ModelError;
    pub use crate::fault::{CrashSpec, FaultSpec, FaultStats, LatencySpec};
    pub use crate::filter::{Filter, FilterSet, Violation};
    pub use crate::membership::{MembershipEvent, Population};
    pub use crate::message::{NodeMessage, ServerMessage};
    pub use crate::query::{NodeSubset, QueryCostLedger, QueryId, QuerySpec, SPLIT_SCALE};
    pub use crate::rule::{filter_for, FilterParams, NodeGroup};
    pub use crate::topk::{OutputValidity, TopKView};
    pub use crate::types::{NodeId, TimeStep, Value};
}
