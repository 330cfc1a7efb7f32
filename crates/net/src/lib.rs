//! # topk-net
//!
//! Simulation runtimes for the continuous distributed monitoring model used by
//! the paper *On Competitive Algorithms for Approximations of Top-k-Position
//! Monitoring of Distributed Streams*.
//!
//! The crate provides four interchangeable engines behind the [`Network`] trait
//! (`docs/ARCHITECTURE.md` has a which-engine-when decision guide):
//!
//! * [`DeterministicEngine`] — executes all node logic in-process and in a fixed
//!   order. Message counts are exactly reproducible for a given seed, which is
//!   what the competitive-ratio experiments need. Reference semantics, Θ(n)
//!   work per existence round.
//! * [`IndexedEngine`] — same bit-identical behaviour as the deterministic
//!   engine (same replies, same counts, same RNG streams), but stores node
//!   state as struct-of-arrays and maintains incremental active-set indexes so
//!   an existence round costs O(active) instead of Θ(n). This is the
//!   single-threaded reference for large `n`; see `crates/net/src/indexed.rs`
//!   for the argument why skipping inactive nodes is exact.
//! * [`ShardedEngine`] — the indexed engine's algorithm partitioned into
//!   contiguous node-range shards on a fixed worker pool, with per-shard reply
//!   buffers merged in node-id order. Bit-identical to the baseline for any
//!   shard count (the differential suite asserts it), with a tuned bulk
//!   observation path; this is the engine for production-scale populations.
//! * [`RemoteEngine`] — the server coordinator in this process, the node
//!   population as shard *client connections* over loopback TCP, every
//!   interaction encoded in the `topk-wire` binary format (`docs/WIRE.md`).
//!   Still bit-identical to the baseline — replies, `CommStats` and node
//!   state — while the messages genuinely cross a socket; exposes wire-level
//!   [`TransportStats`] (frames/bytes) for the throughput harness's
//!   `--remote` axis.
//!
//! Orthogonally to the engine choice, [`FaultyTransport`] wraps any of the
//! four behind the same [`Network`] trait and executes a deterministic
//! seed-driven fault plan ([`topk_model::FaultSpec`]) — message drop, latency,
//! reply reordering and node crash/rejoin with recovery replay. With
//! `FaultSpec::none()` the wrapper is bit-transparent; `docs/FAULTS.md` has
//! the full semantics and determinism contract.
//!
//! ## Cost accounting
//!
//! Every transport primitive charges the [`topk_model::CostMeter`] owned by the
//! engine:
//!
//! | primitive | cost |
//! |-----------|------|
//! | [`Network::broadcast_params`] | 1 broadcast |
//! | [`Network::assign_group`], [`Network::assign_filter`] | 1 downstream unicast |
//! | [`Network::probe`] | 1 downstream unicast + 1 upstream |
//! | [`Network::existence_round`] | 1 upstream per responding node (the round schedule itself is predetermined and therefore free), 1 protocol round |
//! | [`Network::end_existence_run`] | 1 broadcast |
//! | [`Network::advance_time`] | free (observations are local to the nodes) |
//!
//! The "predetermined schedule" accounting of existence rounds follows the
//! analysis of Lemma 3.1: the nodes know that round `r` of an existence run takes
//! place in the r-th communication round after the observation, so the server
//! does not need to announce rounds; it only announces the *end* of a run that
//! produced a response (one broadcast), which keeps the expected message count
//! per run constant.

// Denied, not forbidden: `keystream.rs` allows it on `refill_avx2`, the
// row-wise AVX2 refill kernel (an `unsafe fn`, which `#[target_feature]`
// requires on Rust 1.75), and on its one call, the only `unsafe` block in
// the crate.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod deterministic;
pub mod engine;
pub mod fault;
pub mod indexed;
mod keystream;
pub mod network;
pub mod node;
mod node_table;
mod partition;
pub mod remote;
pub mod sharded;
pub mod value_index;

pub use deterministic::DeterministicEngine;
pub use engine::{build_engine, EngineKind};
pub use fault::{FaultyTransport, PROBE_ATTEMPTS};
pub use indexed::IndexedEngine;
pub use network::Network;
pub use node::SimNode;
pub use remote::{RemoteEngine, TransportStats};
pub use sharded::{Dispatch, ShardedEngine};
pub use value_index::ValueIndex;
