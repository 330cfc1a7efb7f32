//! # topk-repro
//!
//! Umbrella crate for the reproduction of *On Competitive Algorithms for
//! Approximations of Top-k-Position Monitoring of Distributed Streams*
//! (Mäcker, Malatyali, Meyer auf der Heide, 2016).
//!
//! It re-exports the workspace crates so that the examples under `examples/` and
//! the integration tests under `tests/` can reach every public API through a
//! single dependency:
//!
//! * [`model`] — execution-model substrate (values, filters, ε, cost accounting),
//! * [`wire`] — the binary wire format and the trace record/replay codec,
//! * [`net`] — the four transport engines (deterministic, indexed, sharded,
//!   remote) and the fault-injection wrapper,
//! * [`gen`] — workload generators,
//! * [`offline`] — optimal offline (OPT) baselines,
//! * [`core`] — the paper's online protocols,
//! * [`mod@bench`] — the experiment harness, scenario files and trace replay.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub use topk_bench as bench;
pub use topk_core as core;
pub use topk_gen as gen;
pub use topk_model as model;
pub use topk_net as net;
pub use topk_offline as offline;
pub use topk_wire as wire;

/// The curated single-import surface: `use topk_repro::prelude::*;` brings in
/// everything a typical monitoring program needs — the model vocabulary
/// (values, filters, ε, cost accounting, query specs), the engine factory, the
/// four [`net::Network`] engines behind it and the fault wrapper, the paper's
/// monitors, the single-query and multi-query run drivers, and the
/// scenario/trace entry points of the experiment harness.
///
/// ```
/// use topk_repro::prelude::*;
///
/// let mut net = build_engine(EngineKind::Deterministic, 3, 7, None);
/// let mut monitor = TopKMonitor::new(1, Epsilon::HALF);
/// let rows = vec![vec![100, 40, 10], vec![30, 46, 12]];
/// let report = run_on_rows(&mut monitor, net.as_mut(), rows.iter().cloned(), Epsilon::HALF);
/// assert_eq!(report.invalid_steps, 0);
/// ```
pub mod prelude {
    pub use topk_core::monitor::{
        run_adaptive, run_on_rows, run_with_membership, Monitor, RunReport,
    };
    pub use topk_core::queryset::{run_query_set, QueryRunReport, QuerySet, QuerySetReport};
    pub use topk_core::{
        CombinedMonitor, DenseMonitor, ExactTopKMonitor, HalfEpsMonitor, TopKMonitor,
    };
    pub use topk_model::prelude::*;
    pub use topk_net::{
        build_engine, DeterministicEngine, EngineKind, FaultyTransport, IndexedEngine, Network,
        RemoteEngine, ShardedEngine,
    };

    pub use topk_bench::campaign::ProtocolKind;
    pub use topk_bench::replay::{load_trace, record_run, replay_trace, save_trace};
    pub use topk_bench::scenario::{load_scenario_dir, ScenarioFile};
}
