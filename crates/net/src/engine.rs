//! [`EngineKind`] and [`build_engine`] — the one place an engine is chosen.
//!
//! Four interchangeable [`Network`] implementations exist (see the crate
//! docs); before this module every harness that wanted "all of them" —
//! trace replay, the experiments CLI, the differential battery, the
//! examples — hand-rolled its own constructor `match`. [`build_engine`]
//! is the canonical factory: it fixes the configuration the differential
//! battery holds bit-identical (4 parallel shards for the sharded engine,
//! 3 TCP shard servers for the remote engine) so every caller exercises
//! the *same* four engines, not four similar ones. Faults are not an engine
//! kind: a fault plan wraps whichever kind is built.

use crate::fault::FaultyTransport;
use crate::network::Network;
use crate::sharded::Dispatch;
use crate::{DeterministicEngine, IndexedEngine, RemoteEngine, ShardedEngine};
use topk_model::prelude::*;

/// The engine implementations the differential battery holds bit-identical —
/// the same four every trace can be replayed through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// The reference `O(n)`-per-step engine.
    Deterministic,
    /// The value-indexed engine (the single-threaded engine for large `n`).
    Indexed,
    /// The work-stealing sharded engine (4 shards, parallel dispatch).
    Sharded,
    /// The TCP-backed remote engine (3 shard servers over loopback).
    Remote,
}

impl EngineKind {
    /// Every kind, in battery order.
    pub const ALL: [EngineKind; 4] = [
        EngineKind::Deterministic,
        EngineKind::Indexed,
        EngineKind::Sharded,
        EngineKind::Remote,
    ];

    /// Stable name used in reports and mismatch messages.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Deterministic => "deterministic",
            EngineKind::Indexed => "indexed",
            EngineKind::Sharded => "sharded",
            EngineKind::Remote => "remote",
        }
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Builds a fresh engine of `kind` for `n` nodes seeded with `seed`.
///
/// A fault plan wraps *every* kind in a [`FaultyTransport`] executing it —
/// fault decisions are functions of the spec's own seed and the message
/// sequence, which the differential battery holds identical across engines.
/// `Some(&FaultSpec::none())` gives the bit-transparent wrapper.
pub fn build_engine(
    kind: EngineKind,
    n: usize,
    seed: u64,
    fault: Option<&FaultSpec>,
) -> Box<dyn Network> {
    fn wrap<E: Network + 'static>(engine: E, fault: Option<&FaultSpec>) -> Box<dyn Network> {
        match fault {
            Some(spec) => Box::new(FaultyTransport::new(engine, *spec)),
            None => Box::new(engine),
        }
    }
    match kind {
        EngineKind::Deterministic => wrap(DeterministicEngine::new(n, seed), fault),
        EngineKind::Indexed => wrap(IndexedEngine::new(n, seed), fault),
        EngineKind::Sharded => wrap(
            ShardedEngine::with_dispatch(n, seed, 4, Dispatch::Parallel),
            fault,
        ),
        EngineKind::Remote => wrap(RemoteEngine::with_shards(n, seed, 3), fault),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topk_model::message::ExistencePredicate;

    #[test]
    fn every_kind_builds_and_advances() {
        for kind in EngineKind::ALL {
            let mut net = build_engine(kind, 4, 7, None);
            assert_eq!(net.n(), 4, "{kind}");
            net.advance_time(&[1, 2, 3, 4]);
            assert_eq!(net.peek_values(), vec![1, 2, 3, 4], "{kind}");
            assert_eq!(net.stats().time_steps, 1, "{kind}");
        }
    }

    #[test]
    fn fault_plan_wraps_every_kind() {
        // A plan that drops every upstream reply: a bare engine delivers the
        // round's replies, a wrapped one loses all of them. Both are charged
        // for every reply sent, so only the wrapper can explain the silence.
        let spec = FaultSpec::drop_upstream(1, 1000);
        let mut replies = Vec::new();
        for kind in EngineKind::ALL {
            for (fault, delivered) in [(None, 3), (Some(&spec), 0)] {
                let mut net = build_engine(kind, 3, 1, fault);
                net.advance_time(&[5, 5, 5]);
                net.existence_round_into(8, 3, ExistencePredicate::AtLeast(0), &mut replies);
                let ctx = format!("{kind}, fault plan {fault:?}");
                assert_eq!(replies.len(), delivered, "{ctx}");
                assert_eq!(
                    net.stats().messages_of_kind(MessageKind::Upstream),
                    3,
                    "{ctx}"
                );
            }
        }
    }

    #[test]
    fn names_are_stable() {
        let names: Vec<&str> = EngineKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names, ["deterministic", "indexed", "sharded", "remote"]);
    }
}
