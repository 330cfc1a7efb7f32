//! The node table behind both O(active) engines.
//!
//! [`NodeTable`] is one contiguous id range of nodes with the indexes that
//! make an existence round cost O(active): struct-of-arrays node state
//! ([`NodeStateSoA`]), every node's `ChaCha8` stream in a keystream table
//! ([`Keystream`]), the ordered pending-violation set and the radix value
//! index. `IndexedEngine` owns a single table over all `n` nodes; each shard
//! of the sharded engine owns one over its slice. Both answer every round
//! with the same collect-and-flip kernel, [`NodeTable::round_into`]: collect
//! the active ids, then draw one `u64` per active node from the keystream
//! table (which refills the exhausted streams four at a time) and compare
//! it against the round's [`Coin`].
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
    /// Local ids satisfying the predicate in `active_for`.
    active: Vec<u32>,
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
            active: Vec::new(),
            active_for: None,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.state.len()
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

    /// Brings the pending set up to date with the local ids whose flag a
    /// bulk pass reported as flipped.
    pub(crate) fn note_transitions(&mut self, transitions: &[u32]) {
        for &i in transitions {
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

    /// Re-derives every node's filter from new broadcast parameters.
    pub(crate) fn set_params(&mut self, params: FilterParams) {
        for i in 0..self.len() as u32 {
            let f = filter_for(self.state.group(i as usize), &params);
            self.apply_filter(i, f);
        }
    }

    /// Assigns `group` to every node.
    pub(crate) fn set_group_all(&mut self, group: NodeGroup, params: Option<FilterParams>) {
        for i in 0..self.len() as u32 {
            self.assign_group(i, group, params);
        }
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
    pub(crate) fn round_into(
        &mut self,
        coin: Coin,
        predicate: ExistencePredicate,
        replies: &mut Vec<NodeMessage>,
    ) {
        let key = (predicate, self.state.writes());
        if self.active_for != Some(key) {
            self.collect_active(predicate);
            self.active_for = Some(key);
        }
        replies.clear();
        let (offset, state) = (self.offset, &self.state);
        self.keystream.draw_each(&self.active, |i, draw| {
            if !coin.accepts(draw) {
                return;
            }
            let i = i as usize;
            let node = NodeId(offset + i);
            let value = state.value(i);
            replies.push(match (predicate, state.pending(i)) {
                (ExistencePredicate::PendingViolation, Some(direction)) => {
                    NodeMessage::ViolationReport {
                        node,
                        value,
                        direction,
                    }
                }
                _ => NodeMessage::ExistenceResponse { node, value },
            });
        });
        // Threshold/rank actives come in radix-bucket order; replies must
        // come out in id order (the baseline's). Per-node streams are
        // independent, so the draw order itself does not matter.
        if !matches!(predicate, ExistencePredicate::PendingViolation) {
            replies.sort_unstable_by_key(NodeMessage::sender);
        }
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
