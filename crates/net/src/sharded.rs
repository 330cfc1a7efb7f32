//! Sharded parallel engine: the indexed engine's O(active) algorithm, split
//! across a fixed worker pool.
//!
//! [`ShardedEngine`] partitions the node population into `W` contiguous id
//! ranges (*shards*). Each shard is a `Shard` (`crate::node_table`, the type
//! the remote engine's TCP shard clients hold too): a node table over its
//! range — its slice of the struct-of-arrays node state
//! ([`NodeStateSoA`](topk_model::soa::NodeStateSoA)), the keystream table of
//! its nodes' random streams, a pending-violation set and a warm/cold radix
//! value index, the same structures
//! [`IndexedEngine`](crate::IndexedEngine) keeps in its one table — plus its
//! dense and sparse delivery paths, and it is permanently affined to one
//! worker thread of a fixed pool. Every table engine runs one
//! collect-and-flip kernel: a shard collects its part of a run's active set
//! in the run's first round and reuses it until the predicate changes or a
//! mutator writes the shard's node state. This module keeps the pool, the
//! routing and the merge: the server side (the [`Network`] implementation)
//! routes each operation to the shards it involves and merges their
//! per-shard reply buffers.
//!
//! ## Why the merge is bit-identical to the baseline
//!
//! Three facts combine to make the engine's observable behaviour — replies,
//! [`CommStats`], node state, every per-node RNG stream — equal to
//! [`DeterministicEngine`](crate::DeterministicEngine) for *any* shard count:
//!
//! 1. **RNG streams are per node.** A node's `ChaCha8` stream is seeded from
//!    `(master seed, node id)` and advanced only by the round's `node::Coin`
//!    flip (one `u64` draw against the threshold `⌈N·2⁶⁴/P⌉`, exactly
//!    `gen_ratio(N, P)`; the server builds the coin once per round and ships
//!    it to every involved shard), which happens only when the node's
//!    predicate holds. The shard's keystream table draws the words the
//!    node's `ChaCha8Rng` would, however its refills are batched. Which
//!    *thread* flips the coin, and in which order relative to other nodes,
//!    cannot matter — the streams are independent. (The argument that
//!    makes skipping inactive nodes exact applies here to partitioning
//!    instead of filtering.)
//! 2. **Shards are contiguous and ordered.** Shard `s` holds ids
//!    `bounds[s]..bounds[s+1]`. Every shard produces its replies in ascending
//!    node-id order (the pending set iterates in id order; threshold replies
//!    are sorted by sender per shard), so concatenating the per-shard buffers
//!    in shard order yields the global id order — exactly the reply order of
//!    the baseline engine, with no global sort.
//! 3. **The active set is a disjoint union.** A predicate's active set within
//!    a shard depends only on that shard's node state, and the union over
//!    shards equals the global active set the indexed engine computes.
//!    Skipping a shard whose pending set is empty therefore skips only nodes
//!    that would not have been visited anyway — no RNG stream moves.
//!
//! ## Execution model
//!
//! State lives *at home* in the engine between operations (free `peek_*`
//! inspection needs no synchronisation). For an operation that involves
//! several shards, each involved shard is moved to its affined worker through
//! a channel, processed, and moved back; single-shard operations and runs on
//! machines without usable parallelism execute inline on the caller thread.
//! Both paths run the same `Shard` methods, so dispatch placement can never
//! change behaviour — a unit test drives both paths through the same script
//! and asserts equality.
//!
//! A violation-free time step stays allocation-free and dispatch-free: each
//! of the `⌈log₂ n⌉ + 1` existence rounds sees every pending set empty and
//! reduces to one meter update — the same O(1)-per-silent-round property the
//! indexed engine has, now independent of the worker count.
//!
//! Dense observation delivery depends on the placement: a parallel engine
//! stages each shard's slice of the row into that shard's own buffer and
//! fans the scan out to the pool (the staging copies total exactly one row —
//! the same bytes a single shared-row copy would move — and give every
//! worker a contiguous, privately owned slice, so workers never share a
//! cache line); an inline engine skips staging entirely and each shard reads
//! the caller's row directly. Either way the per-shard scan is the zone-map
//! bulk pass of
//! [`NodeStateSoA::advance_row`](topk_model::soa::NodeStateSoA::advance_row).

use crate::network::Network;
use crate::node::Coin;
use crate::node_table::Shard;
use crate::partition;
use crossbeam_channel::{unbounded, Receiver, Sender};
use std::fmt;
use std::thread::JoinHandle;
use topk_model::message::ExistencePredicate;
use topk_model::prelude::*;

/// Where multi-shard operations execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dispatch {
    /// Decide at construction: use the worker pool iff the engine has more
    /// than one shard *and* the machine reports more than one usable CPU.
    Auto,
    /// Always execute on the caller thread (no worker pool is spawned).
    Inline,
    /// Always move involved shards to their workers (even on one CPU) — used
    /// by the differential tests to exercise the channel path everywhere.
    Parallel,
}

/// One operation shipped to a shard's worker. Inputs that vary per shard
/// (dense rows, sparse change lists) are staged in the shard's own scratch
/// buffers before dispatch, so the op itself stays `Copy`.
#[derive(Debug, Clone, Copy)]
enum ShardOp {
    /// Deliver the dense row staged in `Shard::row`.
    AdvanceDense,
    /// Apply the sparse changes staged in `Shard::sparse`.
    AdvanceSparse,
    /// Run one existence round and stage replies in `Shard::replies`.
    Round {
        coin: Coin,
        predicate: ExistencePredicate,
    },
    /// A broadcast to every node: a group if given, then filters from the
    /// parameters if given (see `NodeTable::broadcast`).
    Broadcast(Option<NodeGroup>, Option<FilterParams>),
}

impl ShardOp {
    /// Runs the op on `shard` — on a pool worker or inline, the same code.
    fn execute(self, shard: &mut Shard) {
        match self {
            ShardOp::AdvanceDense => {
                let row = std::mem::take(&mut shard.row);
                shard.advance_dense(&row);
                shard.row = row;
            }
            ShardOp::AdvanceSparse => shard.advance_sparse(),
            ShardOp::Round { coin, predicate } => {
                shard.table.round_into(coin, predicate, &mut shard.replies);
            }
            ShardOp::Broadcast(group, params) => shard.table.broadcast(group, params),
        }
    }
}

/// Fixed pool of worker threads, one per shard (shard `s` is always processed
/// by worker `s` — shard affinity keeps each shard's columns warm in one
/// worker's cache).
struct WorkerPool {
    job_txs: Vec<Sender<(Box<Shard>, ShardOp)>>,
    done_rx: Receiver<(usize, Box<Shard>)>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    fn spawn(workers: usize) -> WorkerPool {
        let (done_tx, done_rx) = unbounded::<(usize, Box<Shard>)>();
        let mut job_txs = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let (tx, rx) = unbounded::<(Box<Shard>, ShardOp)>();
            let done_tx = done_tx.clone();
            let handle = std::thread::Builder::new()
                .name(format!("topk-shard-{w}"))
                .spawn(move || {
                    for (mut shard, op) in rx.iter() {
                        op.execute(&mut shard);
                        if done_tx.send((w, shard)).is_err() {
                            break;
                        }
                    }
                })
                .expect("failed to spawn shard worker");
            job_txs.push(tx);
            handles.push(handle);
        }
        WorkerPool {
            job_txs,
            done_rx,
            handles,
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.job_txs.clear(); // closes the job channels; workers exit
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Sharded parallel engine (see module documentation).
pub struct ShardedEngine {
    n: usize,
    /// Home slots; a slot is `None` only while its shard is at a worker.
    shards: Vec<Option<Box<Shard>>>,
    /// Shard boundaries: shard `s` holds global ids `bounds[s]..bounds[s+1]`.
    bounds: Vec<usize>,
    pool: Option<WorkerPool>,
    /// Whether multi-shard operations go to the pool.
    parallel: bool,
    /// Last broadcast parameters (one shared copy, like the indexed engine).
    params: Option<FilterParams>,
    /// Scratch: indices of the shards involved in the current operation.
    involved: Vec<usize>,
    meter: CostMeter,
    /// Retained for reseeding joining nodes from `(master seed, id, generation)`.
    master_seed: u64,
    population: Population,
    /// Scratch row for masking dead slots out of dense observation delivery
    /// (untouched — and unallocated — while the full population is live).
    masked_row: Vec<Value>,
}

impl ShardedEngine {
    /// Creates an engine with `n` nodes split over `workers` shards, with
    /// [`Dispatch::Auto`] placement. RNG seeding matches the other engines.
    ///
    /// ```
    /// use topk_net::{Network, ShardedEngine};
    ///
    /// // Any shard count is bit-identical to the single-threaded engines.
    /// let mut net = ShardedEngine::new(100, 3, 4);
    /// net.advance_time(&vec![5; 100]);
    /// assert_eq!(net.n(), 100);
    /// assert_eq!(net.peek_value(topk_model::NodeId(99)), 5);
    /// ```
    pub fn new(n: usize, master_seed: u64, workers: usize) -> ShardedEngine {
        ShardedEngine::with_dispatch(n, master_seed, workers, Dispatch::Auto)
    }

    /// [`ShardedEngine::new`] with explicit dispatch placement.
    pub fn with_dispatch(
        n: usize,
        master_seed: u64,
        workers: usize,
        dispatch: Dispatch,
    ) -> ShardedEngine {
        let workers = workers.max(1);
        let bounds = partition::shard_bounds(n, workers);
        let shards: Vec<Option<Box<Shard>>> = (0..workers)
            .map(|s| {
                Some(Box::new(Shard::new(
                    bounds[s],
                    bounds[s + 1] - bounds[s],
                    master_seed,
                )))
            })
            .collect();
        let parallel = workers > 1
            && match dispatch {
                Dispatch::Inline => false,
                Dispatch::Parallel => true,
                Dispatch::Auto => std::thread::available_parallelism()
                    .map(|p| p.get() > 1)
                    .unwrap_or(false),
            };
        ShardedEngine {
            n,
            shards,
            bounds,
            pool: parallel.then(|| WorkerPool::spawn(workers)),
            parallel,
            params: None,
            involved: Vec::new(),
            meter: CostMeter::new(),
            master_seed,
            population: Population::new(n),
            masked_row: Vec::new(),
        }
    }

    /// Number of shards (= workers) the population is split over.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Whether multi-shard operations are dispatched to the worker pool.
    pub fn is_parallel(&self) -> bool {
        self.parallel
    }

    /// Number of nodes whose value currently violates their filter (free
    /// inspection, useful for harnesses and tests).
    pub fn pending_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.as_ref().expect("shard at home").table.pending.len())
            .sum()
    }

    /// The shard owning `node` (O(1) — see [`crate::partition::shard_of`]).
    fn shard_of(&self, node: usize) -> usize {
        assert!(
            node < self.n,
            "node id {node} out of range (n = {})",
            self.n
        );
        partition::shard_of(self.n, self.shards.len(), node)
    }

    /// Resolves a global node id to `(owning shard, local index)`.
    fn locate(&self, node: NodeId) -> (usize, usize) {
        let s = self.shard_of(node.index());
        (s, node.index() - self.bounds[s])
    }

    fn shard_mut(&mut self, s: usize) -> &mut Shard {
        self.shards[s].as_mut().expect("shard at home")
    }

    fn shard_ref(&self, s: usize) -> &Shard {
        self.shards[s].as_ref().expect("shard at home")
    }

    /// Runs `op` on the shards listed in `self.involved` — inline on the
    /// caller thread, or on the pool when parallel dispatch is on and more
    /// than one shard is involved. Both paths execute the same shard code.
    fn run_involved(&mut self, op: ShardOp) {
        if self.involved.len() <= 1 || !self.parallel {
            for idx in 0..self.involved.len() {
                let s = self.involved[idx];
                op.execute(self.shards[s].as_mut().expect("shard at home"));
            }
            return;
        }
        let pool = self.pool.as_ref().expect("parallel engines have a pool");
        for &s in &self.involved {
            let shard = self.shards[s].take().expect("shard already in flight");
            pool.job_txs[s].send((shard, op)).expect("worker hung up");
        }
        for _ in 0..self.involved.len() {
            let (s, shard) = pool.done_rx.recv().expect("worker hung up");
            self.shards[s] = Some(shard);
        }
    }

    /// Dense observation delivery of an (already masked) full row: stages each
    /// shard's slice and fans out, or lets each shard read the row inline.
    fn deliver_row(&mut self, values: &[Value]) {
        if self.parallel {
            // Stage each shard's slice, then fan out.
            for s in 0..self.shards.len() {
                let range = self.bounds[s]..self.bounds[s + 1];
                let shard = self.shard_mut(s);
                shard.row.clear();
                shard.row.extend_from_slice(&values[range]);
            }
            self.involve_all();
            self.run_involved(ShardOp::AdvanceDense);
        } else {
            // Inline delivery needs no staging copy: each shard reads its
            // slice of the caller's row directly.
            for s in 0..self.shards.len() {
                let range = self.bounds[s]..self.bounds[s + 1];
                self.shards[s]
                    .as_mut()
                    .expect("shard at home")
                    .advance_dense(&values[range]);
            }
        }
    }

    /// Stages `self.involved = all non-empty shards`.
    fn involve_all(&mut self) {
        self.involved.clear();
        for s in 0..self.shards.len() {
            if self.bounds[s + 1] > self.bounds[s] {
                self.involved.push(s);
            }
        }
    }
}

impl fmt::Debug for ShardedEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedEngine")
            .field("n", &self.n)
            .field("shards", &self.shards.len())
            .field("parallel", &self.parallel)
            .finish_non_exhaustive()
    }
}

impl Network for ShardedEngine {
    fn n(&self) -> usize {
        self.n
    }

    fn advance_time(&mut self, values: &[Value]) {
        assert_eq!(values.len(), self.n, "one observation per node required");
        if self.population.live_count() != self.n {
            // Dead slots stop receiving workload observations: mask the row
            // into a scratch copy (only ever paid while churn is active).
            let mut row = std::mem::take(&mut self.masked_row);
            row.clear();
            row.extend_from_slice(values);
            self.population.mask_row(&mut row);
            self.deliver_row(&row);
            self.masked_row = row;
        } else {
            self.deliver_row(values);
        }
        self.meter.record_time_step();
    }

    fn advance_time_sparse(&mut self, changes: &[(NodeId, Value)]) {
        if !self.parallel && changes.len() * 4 >= self.n.max(1) {
            // Inline bulk: a change list covering a sizeable fraction of the
            // population is a dense step in disguise. Apply the values
            // straight to the owning shards (no staging buffers), then
            // re-establish each touched shard's pending invariant with one
            // zone-mapped bulk pass.
            for &(node, v) in changes {
                let (s, local) = self.locate(node);
                let v = if self.population.is_live(node) { v } else { 0 };
                let shard = self.shards[s].as_mut().expect("shard at home");
                if shard.table.state.value(local) != v {
                    shard.table.state.set_value_deferred(local, v);
                    shard.table.index.invalidate();
                    shard.touched = true;
                }
            }
            for s in 0..self.shards.len() {
                let shard = self.shards[s].as_mut().expect("shard at home");
                if shard.touched {
                    shard.touched = false;
                    shard.table.refresh_after_deferred();
                }
            }
            self.meter.record_time_step();
            return;
        }
        for &(node, v) in changes {
            let (s, local) = self.locate(node);
            let v = if self.population.is_live(node) { v } else { 0 };
            self.shard_mut(s).sparse.push((local as u32, v));
        }
        self.involved.clear();
        for s in 0..self.shards.len() {
            if !self.shard_ref(s).sparse.is_empty() {
                self.involved.push(s);
            }
        }
        self.run_involved(ShardOp::AdvanceSparse);
        self.meter.record_time_step();
    }

    fn apply_membership(&mut self, events: &[MembershipEvent]) {
        for &event in events {
            match event {
                MembershipEvent::Leave(node) => {
                    self.population.apply(event);
                    let (s, local) = self.locate(node);
                    self.shard_mut(s).table.observe(local as u32, 0);
                }
                MembershipEvent::Join(node) => {
                    let generation = self.population.apply(event);
                    let master_seed = self.master_seed;
                    let (s, local) = self.locate(node);
                    let table = &mut self.shard_mut(s).table;
                    let group = table.state.group(local);
                    let filter = table.state.filter(local);
                    table.rejoin(local as u32, master_seed, generation);
                    // Recovery replay of the slot's current group and filter,
                    // exactly as the baseline engine charges it.
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
        self.params = Some(params);
        self.involve_all();
        self.run_involved(ShardOp::Broadcast(None, Some(params)));
    }

    fn assign_group(&mut self, node: NodeId, group: NodeGroup) {
        self.meter.record(MessageKind::DownstreamUnicast);
        let (s, local) = self.locate(node);
        let params = self.params;
        self.shard_mut(s)
            .table
            .assign_group(local as u32, group, params);
    }

    fn broadcast_group(&mut self, group: NodeGroup) {
        self.meter.record(MessageKind::Broadcast);
        let params = self.params;
        self.involve_all();
        self.run_involved(ShardOp::Broadcast(Some(group), params));
    }

    fn assign_filter(&mut self, node: NodeId, filter: Filter) {
        self.meter.record(MessageKind::DownstreamUnicast);
        let (s, local) = self.locate(node);
        self.shard_mut(s).table.apply_filter(local as u32, filter);
    }

    fn probe(&mut self, node: NodeId) -> Value {
        self.meter.record(MessageKind::DownstreamUnicast);
        self.meter.record(MessageKind::Upstream);
        let (s, local) = self.locate(node);
        self.shard_ref(s).table.state.value(local)
    }

    fn existence_round_into(
        &mut self,
        round: u32,
        population: u32,
        predicate: ExistencePredicate,
        replies: &mut Vec<NodeMessage>,
    ) {
        self.meter.record_round();
        // Only shards that can contribute are involved. For the violation
        // check this prunes to the shards with non-empty pending sets —
        // skipping a shard skips only predicate-false nodes, which consume no
        // randomness, so the streams stay bit-identical (see module docs).
        self.involved.clear();
        for s in 0..self.shards.len() {
            let shard = self.shard_ref(s);
            if shard.len() == 0 {
                continue;
            }
            if matches!(predicate, ExistencePredicate::PendingViolation)
                && shard.table.pending.is_empty()
            {
                continue;
            }
            self.involved.push(s);
        }
        replies.clear();
        if self.involved.is_empty() {
            // Silent round: one meter update, no dispatch, no allocation.
            return;
        }
        self.run_involved(ShardOp::Round {
            coin: Coin::new(round, population),
            predicate,
        });
        // `involved` is ascending and shards are contiguous ascending id
        // ranges, so concatenation yields global id order.
        for idx in 0..self.involved.len() {
            let s = self.involved[idx];
            replies.extend_from_slice(&self.shard_ref(s).replies);
        }
        self.meter
            .record_many(MessageKind::Upstream, replies.len() as u64);
    }

    fn end_existence_run(&mut self) {
        // Nodes hold no per-run state (the round schedule is predetermined),
        // so only the broadcast is charged — same as the other engines.
        self.meter.record(MessageKind::Broadcast);
    }

    fn meter(&mut self) -> &mut CostMeter {
        &mut self.meter
    }

    fn stats(&self) -> CommStats {
        self.meter.snapshot()
    }

    fn peek_value(&self, node: NodeId) -> Value {
        let (s, local) = self.locate(node);
        self.shard_ref(s).table.state.value(local)
    }

    fn peek_filter(&self, node: NodeId) -> Filter {
        let (s, local) = self.locate(node);
        self.shard_ref(s).table.state.filter(local)
    }

    fn peek_group(&self, node: NodeId) -> NodeGroup {
        let (s, local) = self.locate(node);
        self.shard_ref(s).table.state.group(local)
    }

    fn peek_filters_into(&self, out: &mut Vec<Filter>) {
        out.clear();
        for s in 0..self.shards.len() {
            out.extend(self.shard_ref(s).table.state.filters().map(|(_, f)| f));
        }
    }

    fn peek_values_into(&self, out: &mut Vec<Value>) {
        out.clear();
        for s in 0..self.shards.len() {
            out.extend_from_slice(self.shard_ref(s).table.state.values());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DeterministicEngine;

    /// A mixed script that exercises every transport primitive.
    fn script(net: &mut dyn Network) -> (Vec<NodeMessage>, Vec<NodeMessage>, CommStats) {
        net.advance_time(&[3, 1, 4, 1, 5, 9, 2, 6]);
        net.assign_group(NodeId(5), NodeGroup::Upper);
        net.broadcast_params(FilterParams::Separator { lo: 5, hi: 5 });
        let mut found = Vec::new();
        for round in 0..=3 {
            let r = net.existence_round(round, 8, ExistencePredicate::PendingViolation);
            if !r.is_empty() {
                found = r;
                net.end_existence_run();
                break;
            }
        }
        net.advance_time_sparse(&[(NodeId(7), 4), (NodeId(0), 8)]);
        let max = net.existence_round(10, 8, ExistencePredicate::AtLeast(9));
        net.assign_filter(NodeId(2), Filter::at_most(3));
        // Pending now: node 0 (sparse advance pushed it past its [0,5] filter)
        // and node 2 (the filter just assigned excludes its value 4).
        let viol = net.existence_round(10, 8, ExistencePredicate::PendingViolation);
        assert_eq!(viol.len(), 2);
        assert_eq!(viol[0].sender(), NodeId(0));
        assert_eq!(viol[1].sender(), NodeId(2));
        net.probe(NodeId(3));
        (found, max, net.stats())
    }

    #[test]
    fn matches_baseline_for_every_shard_count() {
        let mut base = DeterministicEngine::new(8, 1234);
        let expected = script(&mut base);
        for workers in [1, 2, 3, 5, 8, 13] {
            let mut sharded = ShardedEngine::new(8, 1234, workers);
            let got = script(&mut sharded);
            assert_eq!(expected, got, "diverged at {workers} shards");
            assert_eq!(base.peek_filters(), sharded.peek_filters());
            assert_eq!(base.peek_values(), sharded.peek_values());
            for i in 0..8 {
                assert_eq!(base.peek_group(NodeId(i)), sharded.peek_group(NodeId(i)));
            }
        }
    }

    #[test]
    fn inline_and_parallel_dispatch_agree() {
        let mut inline = ShardedEngine::with_dispatch(8, 77, 3, Dispatch::Inline);
        let mut parallel = ShardedEngine::with_dispatch(8, 77, 3, Dispatch::Parallel);
        assert!(!inline.is_parallel());
        assert!(parallel.is_parallel());
        let a = script(&mut inline);
        let b = script(&mut parallel);
        assert_eq!(a, b);
        assert_eq!(inline.peek_filters(), parallel.peek_filters());
        assert_eq!(inline.peek_values(), parallel.peek_values());
    }

    #[test]
    fn more_shards_than_nodes_leaves_empty_shards_idle() {
        let mut net = ShardedEngine::with_dispatch(3, 9, 8, Dispatch::Parallel);
        assert_eq!(net.shard_count(), 8);
        net.advance_time(&[10, 20, 30]);
        net.assign_filter(NodeId(2), Filter::at_most(25));
        assert_eq!(net.pending_count(), 1);
        let replies = net.existence_round(10, 3, ExistencePredicate::PendingViolation);
        assert_eq!(replies.len(), 1);
        assert_eq!(replies[0].sender(), NodeId(2));
        assert_eq!(net.peek_values(), vec![10, 20, 30]);
    }

    #[test]
    fn silent_rounds_do_not_dispatch_or_allocate() {
        let mut net = ShardedEngine::with_dispatch(16, 5, 4, Dispatch::Parallel);
        net.advance_time(&(0..16).map(|i| i * 10).collect::<Vec<_>>());
        let mut replies = Vec::new();
        // No filters assigned: nothing can be pending; the buffer must stay
        // at capacity 0 because the silent path never touches the shards.
        for round in 0..5 {
            net.existence_round_into(
                round,
                16,
                ExistencePredicate::PendingViolation,
                &mut replies,
            );
            assert!(replies.is_empty());
            assert_eq!(replies.capacity(), 0);
        }
        assert_eq!(net.stats().rounds, 5);
    }

    #[test]
    fn sparse_advance_routes_to_owning_shards() {
        let mut dense = ShardedEngine::with_dispatch(9, 7, 3, Dispatch::Parallel);
        let mut sparse = ShardedEngine::with_dispatch(9, 7, 3, Dispatch::Parallel);
        let row: Vec<Value> = (0..9).map(|i| i + 1).collect();
        dense.advance_time(&row);
        sparse.advance_time(&row);
        let mut row2 = row.clone();
        row2[0] = 99; // shard 0
        row2[4] = 0; // shard 1
        row2[8] = 42; // shard 2, twice (last wins)
        dense.advance_time(&row2);
        sparse.advance_time_sparse(&[
            (NodeId(0), 99),
            (NodeId(4), 0),
            (NodeId(8), 17),
            (NodeId(8), 42),
        ]);
        assert_eq!(dense.peek_values(), sparse.peek_values());
        assert_eq!(dense.stats(), sparse.stats());
        let a = dense.existence_round(10, 9, ExistencePredicate::GreaterThan(5));
        let b = sparse.existence_round(10, 9, ExistencePredicate::GreaterThan(5));
        assert_eq!(a, b);
    }

    #[test]
    fn drop_joins_worker_threads() {
        let net = ShardedEngine::with_dispatch(32, 3, 4, Dispatch::Parallel);
        drop(net); // must not hang or panic
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_node_panics() {
        let mut net = ShardedEngine::new(4, 1, 2);
        net.advance_time_sparse(&[(NodeId(4), 1)]);
    }

    #[test]
    fn closed_form_shard_routing_matches_the_boundaries() {
        for n in 1..40 {
            for workers in 1..12 {
                let net = ShardedEngine::with_dispatch(n, 0, workers, Dispatch::Inline);
                for node in 0..n {
                    let s = net.shard_of(node);
                    assert!(
                        net.bounds[s] <= node && node < net.bounds[s + 1],
                        "n={n} workers={workers}: node {node} routed to shard {s} [{}, {})",
                        net.bounds[s],
                        net.bounds[s + 1]
                    );
                }
            }
        }
    }

    #[test]
    fn bulk_and_per_node_sparse_paths_agree() {
        // A change list covering most of one shard takes the bulk pending
        // refresh; the same values delivered one step at a time take the
        // per-node path. Final state must be identical.
        let mut bulk = ShardedEngine::with_dispatch(8, 3, 2, Dispatch::Inline);
        let mut scalar = ShardedEngine::with_dispatch(8, 3, 2, Dispatch::Inline);
        for net in [&mut bulk, &mut scalar] {
            net.advance_time(&[10, 20, 30, 40, 50, 60, 70, 80]);
            net.broadcast_params(FilterParams::Separator { lo: 45, hi: 45 });
        }
        // All four nodes of shard 0 change at once (bulk), shard 1 untouched.
        let changes = [
            (NodeId(0), 50u64),
            (NodeId(1), 5),
            (NodeId(2), 46),
            (NodeId(3), 44),
        ];
        bulk.advance_time_sparse(&changes);
        for c in changes {
            scalar.advance_time_sparse(&[c]);
        }
        assert_eq!(bulk.peek_values(), scalar.peek_values());
        assert_eq!(bulk.pending_count(), scalar.pending_count());
        let a = bulk.existence_round(10, 8, ExistencePredicate::PendingViolation);
        let b = scalar.existence_round(10, 8, ExistencePredicate::PendingViolation);
        assert_eq!(a, b);
    }
}
