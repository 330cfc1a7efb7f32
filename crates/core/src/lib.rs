//! # topk-core
//!
//! Competitive filter-based online algorithms for (approximate) Top-k-Position
//! Monitoring of distributed streams — the primary contribution of the paper by
//! Mäcker, Malatyali and Meyer auf der Heide (2016).
//!
//! All algorithms are written against the [`topk_net::Network`] transport trait
//! and therefore run unchanged on every engine — the deterministic reference,
//! the indexed and sharded engines, and the TCP-backed remote engine.
//!
//! | module | paper result | what it implements |
//! |--------|--------------|--------------------|
//! | [`existence`] | Lemma 3.1, Corollary 3.2 | the O(1)-expected-messages distributed OR (existence protocol) and violation detection built on it |
//! | [`maximum`] | Lemma 2.6 | computing the node with the maximum value / the nodes with the `m` largest values, O(log n) expected messages per rank |
//! | [`exact_topk`] | Corollary 3.3 | the exact top-k monitor with the generic midpoint halving framework, O(k log n + log Δ)-competitive |
//! | [`topk_protocol`] | Theorem 4.5 | `TopKProtocol` with phases P1–P4 (algorithms A1, A2, A3), O(k log n + log log Δ + log 1/ε)-competitive vs an exact adversary |
//! | [`dense`] | Theorem 5.8 (Lemmas 5.2–5.7) | `DenseProtocol` and `SubProtocol` for inputs with a dense ε-neighbourhood |
//! | [`combined`] | Theorem 5.8 | the dispatcher that runs `TopKProtocol` when the output is unique and `DenseProtocol` otherwise |
//! | [`half_eps`] | Corollary 5.9 | the cheaper algorithm that is competitive against an adversary with error ε' ≤ ε/2 |
//! | [`monitor`] | — | the common `Monitor` trait and the single-monitor drivers used by examples and tests |
//! | [`queryset`] | — | many concurrent queries over one population, and the one step loop every driver runs |
//!
//! ## Quick start
//!
//! ```
//! use topk_core::monitor::{run_on_rows, Monitor};
//! use topk_core::topk_protocol::TopKMonitor;
//! use topk_model::Epsilon;
//! use topk_net::DeterministicEngine;
//!
//! // Three nodes, monitor the top-1 with ε = 1/2.
//! let rows = vec![
//!     vec![100, 40, 10],
//!     vec![102, 41, 10],
//!     vec![101, 45, 11],
//!     vec![30, 46, 12], // leadership change
//!     vec![31, 47, 12],
//! ];
//! let mut net = DeterministicEngine::new(3, 7);
//! let mut monitor = TopKMonitor::new(1, Epsilon::HALF);
//! let report = run_on_rows(&mut monitor, &mut net, rows.iter().cloned(), Epsilon::HALF);
//! assert_eq!(report.steps, 5);
//! assert_eq!(report.invalid_steps, 0, "output must be a valid ε-top-1 at every step");
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod combined;
pub mod dense;
pub mod exact_topk;
pub mod existence;
pub mod half_eps;
pub mod maximum;
pub mod monitor;
pub mod queryset;
pub mod topk_protocol;

pub use combined::CombinedMonitor;
pub use dense::DenseMonitor;
pub use exact_topk::ExactTopKMonitor;
pub use half_eps::HalfEpsMonitor;
pub use monitor::{run_adaptive, run_on_rows, run_with_membership, Monitor, RunReport};
pub use queryset::{
    run_query_set, run_query_set_observed, QueryRunReport, QuerySet, QuerySetReport,
    QueryStepObservation,
};
pub use topk_protocol::TopKMonitor;
