//! The node table behind every O(active) engine, and the shard that wraps it.
//!
//! [`NodeTable`] is one contiguous id range of nodes with the indexes that
//! make an existence round cost O(active): struct-of-arrays node state
//! ([`NodeStateSoA`]), every node's `ChaCha8` stream in a keystream table
//! ([`Keystream`]), the ordered pending-violation set and the radix value
//! index. It has three holders. `IndexedEngine` owns a single table over all
//! `n` nodes. Each worker shard of the sharded engine and each TCP shard
//! client of the remote engine owns a [`Shard`]: one table over its id range
//! plus the zone-map dense delivery, the sparse delivery and the staging
//! buffers that range needs when it is driven as a unit. All of them answer
//! every round with the same collect-and-flip kernel,
//! [`NodeTable::round_into`]: collect the active ids, then draw one `u64` per
//! active node from the keystream table (which refills the exhausted streams
//! four at a time) and compare it against the round's [`Coin`].
//!
//! ## One collection per run
//!
//! A round's active set is a pure function of its predicate and the node
//! state: whether an [`ExistencePredicate`] holds depends only on a node's
//! id, value and pending flag. The rounds of one existence run repeat the
//! same predicate, and no node state changes between them, so the kernel
//! collects the active ids in a run's first round and reuses them in the
//! rounds that follow. The reuse is keyed on `(predicate,
//! NodeStateSoA::writes())`: it ends as soon as a round asks a different
//! predicate or any mutator writes node state (an observation, a filter,
//! group or parameter assignment, a membership change). The mutators bump
//! the write count themselves, so no engine path can forget to end it.
//!
//! Reuse changes no random bit: the reused ids are the set a fresh
//! collection would return, and each node draws from its own stream, so
//! which ids flip — not in which order — is all that matters.

use crate::keystream::Keystream;
use crate::node::{node_seed, node_seed_gen, Coin};
use crate::value_index::ValueIndex;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeSet;
use std::ops::Range;
use topk_model::message::ExistencePredicate;
use topk_model::prelude::*;
use topk_model::rule::filter_for;
use topk_model::soa::NodeStateSoA;

/// A contiguous range of nodes with its O(active) indexes (see module docs).
#[derive(Debug, Clone)]
pub(crate) struct NodeTable {
    /// Global id of local node 0.
    offset: usize,
    pub(crate) state: NodeStateSoA,
    /// Every node's ChaCha8 stream, indexed by local id.
    keystream: Keystream,
    /// Local ids with a pending violation, ascending (= ascending global id,
    /// the reply order of the baseline engine).
    pub(crate) pending: BTreeSet<u32>,
    /// Radix value index for threshold/rank predicates: warmed by the first
    /// such round, then maintained per observation (see `crate::value_index`).
    pub(crate) index: ValueIndex,
    /// Number of full index builds so far (see
    /// [`IndexedEngine::index_rebuilds`](crate::IndexedEngine::index_rebuilds)).
    pub(crate) index_rebuilds: u64,
    /// Scratch: the local ids whose pending flag a bulk pass flipped.
    transitions: Vec<u32>,
    /// Local ids satisfying the predicate in `active_for`.
    active: Vec<u32>,
    /// Scratch: the local ids whose coin came up in the last round.
    winners: Vec<u32>,
    /// The predicate `active` was collected for and the state's write count
    /// at that moment; `None` until the first round.
    active_for: Option<(ExistencePredicate, u64)>,
}

impl NodeTable {
    /// Fresh nodes with global ids `offset..offset + len`, their streams
    /// seeded from `(master_seed, id)` like every other engine's RNGs.
    pub(crate) fn new(offset: usize, len: usize, master_seed: u64) -> NodeTable {
        NodeTable {
            offset,
            state: NodeStateSoA::new(len),
            keystream: Keystream::new(
                (offset..offset + len)
                    .map(|id| ChaCha8Rng::seed_from_u64(node_seed(master_seed, NodeId(id)))),
            ),
            pending: BTreeSet::new(),
            index: ValueIndex::new(offset, len),
            index_rebuilds: 0,
            transitions: Vec::new(),
            active: Vec::new(),
            winners: Vec::new(),
            active_for: None,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.state.len()
    }

    /// Global ids of the table's nodes.
    pub(crate) fn ids(&self) -> Range<usize> {
        self.offset..self.offset + self.len()
    }

    /// Updates the pending set entry of local node `i` after a mutation
    /// whose before/after flags are known. The set is only touched on a
    /// transition — the hot path (a value churns but stays inside its
    /// filter) costs two array reads, no tree operation.
    #[inline]
    fn note_pending(&mut self, i: u32, was: bool, now: bool) {
        if was != now {
            if now {
                self.pending.insert(i);
            } else {
                self.pending.remove(&i);
            }
        }
    }

    /// Brings the pending set up to date with the local ids whose flag the
    /// last bulk pass reported in `transitions` as flipped.
    fn note_transitions(&mut self) {
        for &i in &self.transitions {
            if self.state.pending(i as usize).is_some() {
                self.pending.insert(i);
            } else {
                self.pending.remove(&i);
            }
        }
    }

    /// Records a new observation for local node `i` and maintains the
    /// pending set and (when warm) the value index.
    #[inline]
    pub(crate) fn apply_value(&mut self, i: u32, v: Value) {
        let was = self.state.pending(i as usize).is_some();
        let now = self.state.set_value(i as usize, v).is_some();
        self.note_pending(i, was, now);
        self.index.note_update(i, v);
    }

    /// Records `v` for local node `i` unless it already holds it: an
    /// unchanged value writes nothing.
    #[inline]
    pub(crate) fn observe(&mut self, i: u32, v: Value) {
        if self.state.value(i as usize) != v {
            self.apply_value(i, v);
        }
    }

    /// Applies a filter to local node `i` and maintains the pending set.
    pub(crate) fn apply_filter(&mut self, i: u32, filter: Filter) {
        let was = self.state.pending(i as usize).is_some();
        let now = self.state.set_filter(i as usize, filter).is_some();
        self.note_pending(i, was, now);
    }

    /// Assigns a group to local node `i` and re-derives its filter from the
    /// last broadcast parameters (the `SimNode` group/params rule). Without
    /// parameters the filter — and so the violation status — is unchanged.
    pub(crate) fn assign_group(&mut self, i: u32, group: NodeGroup, params: Option<FilterParams>) {
        self.state.set_group(i as usize, group);
        if let Some(p) = params {
            self.apply_filter(i, filter_for(group, &p));
        }
    }

    /// A broadcast to every node in one pass over the columns: new
    /// parameters (`broadcast(None, Some(p))`) re-derive every filter from
    /// its node's group, and a group (`broadcast(Some(g), last)`) goes to
    /// every node under the last broadcast parameters. See
    /// `NodeStateSoA::broadcast`; the pending set follows the flags it
    /// reports as flipped.
    pub(crate) fn broadcast(&mut self, group: Option<NodeGroup>, params: Option<FilterParams>) {
        self.state.broadcast(group, params, &mut self.transitions);
        self.note_transitions();
    }

    /// Re-derives the pending flags after a batch of
    /// `NodeStateSoA::set_value_deferred` writes, and the pending set with
    /// them.
    pub(crate) fn refresh_after_deferred(&mut self) {
        self.state.refresh_pending_bulk(&mut self.transitions);
        self.note_transitions();
    }

    /// Re-creates local node `i` as the generation-`generation` joiner of its
    /// slot: fresh state and a stream reseeded from `(master_seed, id,
    /// generation)`, exactly as `SimNode::rejoin_generation` reseeds its
    /// RNG. The caller replays the slot's group and filter.
    pub(crate) fn rejoin(&mut self, i: u32, master_seed: u64, generation: u32) {
        let local = i as usize;
        let was = self.state.pending(local).is_some();
        // `reset_node` bypasses `apply_value`, so the value index learns
        // about the slot's reset-to-0 here.
        if self.state.value(local) != 0 {
            self.index.note_update(i, 0);
        }
        self.state.reset_node(local);
        self.note_pending(i, was, false);
        let id = NodeId(self.offset + local);
        let rng = ChaCha8Rng::seed_from_u64(node_seed_gen(master_seed, id, generation));
        self.keystream.reseed(local, &rng);
    }

    /// The collect-and-flip kernel: one existence round over this table.
    ///
    /// Every node whose predicate holds draws one `u64` from its own stream
    /// and flips `coin` on it; the winners' replies land in `replies`
    /// (cleared first) in ascending id order. The active ids are collected
    /// once per run and reused while the predicate and the state's write
    /// count stay the same (module docs).
    ///
    /// Returns whether the run's collected active set is empty: no node
    /// satisfies `predicate`, so none drew and none can reply until node
    /// state changes.
    pub(crate) fn round_into(
        &mut self,
        coin: Coin,
        predicate: ExistencePredicate,
        replies: &mut Vec<NodeMessage>,
    ) -> bool {
        let key = (predicate, self.state.writes());
        if self.active_for != Some(key) {
            self.collect_active(predicate);
            self.active_for = Some(key);
        }
        // The draw pass only gathers the winners' ids, so its per-draw body
        // stays a compare; the replies are built from them afterwards.
        let winners = &mut self.winners;
        winners.clear();
        self.keystream.draw_each(&self.active, |i, draw| {
            if coin.accepts(draw) {
                winners.push(i);
            }
        });
        replies.clear();
        replies.extend(winners.iter().map(|&i| {
            let i = i as usize;
            let node = NodeId(self.offset + i);
            let value = self.state.value(i);
            match (predicate, self.state.pending(i)) {
                (ExistencePredicate::PendingViolation, Some(direction)) => {
                    NodeMessage::ViolationReport {
                        node,
                        value,
                        direction,
                    }
                }
                _ => NodeMessage::ExistenceResponse { node, value },
            }
        }));
        // Threshold/rank actives may come in radix-bucket order; replies must
        // come out in id order (the baseline's). Per-node streams are
        // independent, so the draw order itself does not matter.
        if !matches!(predicate, ExistencePredicate::PendingViolation) {
            replies.sort_unstable_by_key(NodeMessage::sender);
        }
        self.active.is_empty()
    }

    /// Fills `active` with the local ids of all nodes satisfying `predicate`.
    ///
    /// `PendingViolation` ids come out in ascending id order; threshold/rank
    /// ids in bucket order. The index warm-up is hoisted to this single
    /// dispatch point — one collection warms the index at most once, and
    /// `index_rebuilds` counts the builds so a test can pin that.
    fn collect_active(&mut self, predicate: ExistencePredicate) {
        self.active.clear();
        if !matches!(predicate, ExistencePredicate::PendingViolation)
            && self.index.ensure_warm(self.state.values())
        {
            self.index_rebuilds += 1;
        }
        let values = self.state.values();
        match predicate {
            ExistencePredicate::PendingViolation => {
                self.active.extend(self.pending.iter().copied());
            }
            ExistencePredicate::GreaterThan(t) => {
                self.index.collect_greater_than(t, values, &mut self.active);
            }
            ExistencePredicate::AtLeast(t) => {
                self.index.collect_at_least(t, values, &mut self.active);
            }
            ExistencePredicate::LessThan(t) => {
                self.index.collect_less_than(t, values, &mut self.active);
            }
            ExistencePredicate::RankWindow { above, below } => {
                self.index
                    .collect_rank_window(above, below, values, &mut self.active);
            }
        }
    }
}

/// One id range driven as a unit: a [`NodeTable`] plus its delivery paths
/// and staging buffers. A worker of the sharded engine's pool and a TCP
/// shard client of the remote engine each hold one.
pub(crate) struct Shard {
    pub(crate) table: NodeTable,
    /// Scratch: value-changed ids reported by `advance_row_tracked` when the
    /// warm index is maintained across a dense row.
    changed_ids: Vec<u32>,
    /// Reply buffer of the last round, in ascending id order.
    pub(crate) replies: Vec<NodeMessage>,
    /// Staging buffer for the dense row when a pool worker runs the shard.
    pub(crate) row: Vec<Value>,
    /// Staging buffer for sparse changes (local id, value).
    pub(crate) sparse: Vec<(u32, Value)>,
    /// Regime estimate for `NodeStateSoA::advance_row`: whether the last
    /// dense row changed at least 1/64 of the shard (see `DENSE_BIAS_SHIFT`).
    dense_biased: bool,
}

/// A shard is *dense-biased* while at least `len >> DENSE_BIAS_SHIFT` of its
/// nodes changed in the previous dense row (1/64: roughly where the cost of
/// an unpredictable skip branch overtakes the cost of unconditional stores).
const DENSE_BIAS_SHIFT: u32 = 6;

impl Shard {
    /// Fresh nodes with global ids `offset..offset + len` (see
    /// [`NodeTable::new`]).
    pub(crate) fn new(offset: usize, len: usize, master_seed: u64) -> Shard {
        Shard {
            table: NodeTable::new(offset, len, master_seed),
            changed_ids: Vec::new(),
            replies: Vec::new(),
            row: Vec::new(),
            sparse: Vec::new(),
            // Runs start with calibration rows that change everything.
            dense_biased: true,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.table.len()
    }

    /// Dense observation delivery of one value per node of the shard.
    ///
    /// Index policy: in the quiet regime a warm value index is kept warm —
    /// `advance_row_tracked` reports exactly the changed ids and each one is
    /// an `O(1)` bucket move. In the dense regime (≥ 1/64 of the shard
    /// changing per step) per-id maintenance would approach the cost of a
    /// full rebuild while forfeiting the vectorised dense kernel, so the
    /// index is dropped cold instead and the next threshold round rebuilds
    /// it once.
    pub(crate) fn advance_dense(&mut self, row: &[Value]) {
        let table = &mut self.table;
        let changed = if table.index.is_warm() && !self.dense_biased {
            let changed =
                table
                    .state
                    .advance_row_tracked(row, &mut table.transitions, &mut self.changed_ids);
            for &i in &self.changed_ids {
                table.index.note_update(i, table.state.value(i as usize));
            }
            changed
        } else {
            let changed = table
                .state
                .advance_row(row, &mut table.transitions, self.dense_biased);
            if changed > 0 {
                table.index.invalidate();
            }
            changed
        };
        table.note_transitions();
        // Feed the observed change rate back as the next step's loop hint
        // (workload regimes are temporally correlated).
        self.dense_biased = changed >= (self.len() >> DENSE_BIAS_SHIFT).max(1);
    }

    /// Applies the staged sparse changes in order (last entry per node wins).
    ///
    /// Short change lists go through the per-node path (touching only the
    /// changed nodes). A list covering a sizeable fraction of the shard is a
    /// dense step in disguise: values are applied with the invariant deferred,
    /// then one zipped pass re-establishes every pending flag — the same
    /// column traffic as a dense advance instead of one scattered filter
    /// lookup per change. Both paths produce identical state (the bulk pass
    /// nets out intermediate transitions; the final flags and pending set are
    /// a pure function of the final values).
    pub(crate) fn advance_sparse(&mut self) {
        let table = &mut self.table;
        if self.sparse.len() * 4 >= table.len() {
            let mut changed = false;
            for &(i, v) in &self.sparse {
                if table.state.value(i as usize) != v {
                    table.state.set_value_deferred(i as usize, v);
                    changed = true;
                }
            }
            if changed {
                // Deferred writes bypass `apply_value`, so the index cannot
                // be maintained per id here; drop it cold.
                table.index.invalidate();
            }
            table.refresh_after_deferred();
        } else {
            for &(i, v) in &self.sparse {
                table.observe(i, v);
            }
        }
        self.sparse.clear();
    }
}
