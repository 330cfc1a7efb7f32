//! Channel-based, multi-threaded simulation engine.
//!
//! [`ThreadedEngine`] hosts the node population on a fixed pool of *shard
//! threads*: each thread owns a contiguous range of [`SimNode`]s (the same
//! node state machine the deterministic engine drives) and processes commands
//! for its whole range. Every interaction crosses a `crossbeam` channel: the
//! server pushes [`ServerMessage`]s (wrapped in the private `ShardCommand`
//! envelope) into per-shard command channels, and shards answer over a shared
//! reply channel. Each command is acknowledged with exactly one `Ack` per
//! involved shard (possibly carrying no replies), which is how the engine
//! realises the synchronous rounds of the model on top of asynchronous
//! channels. The acknowledgement itself is *not* a model message and is never
//! charged.
//!
//! Each shard iterates its nodes in ascending id order, so an `Ack`'s reply
//! buffer is id-sorted; the server slots acknowledgements by their shard index
//! and concatenates the buffers in shard order, which — shards being
//! contiguous ascending id ranges — reproduces the global node-id reply order
//! of the deterministic engine without a sort. (The engine's previous design
//! spawned one OS thread per node and re-sorted the ack stream; hosting nodes
//! on shards is what lets it scale past a few thousand nodes.)
//!
//! The node logic and the per-node RNG seeding are identical to the other
//! engines', so message counts agree run for run; integration tests assert
//! this.

use crate::network::Network;
use crate::node::{Coin, SimNode};
use crate::partition;
use crossbeam_channel::{unbounded, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use topk_model::message::ExistencePredicate;
use topk_model::prelude::*;
use topk_model::rule::filter_for;

/// Command sent from the engine to a shard thread.
#[derive(Debug, Clone)]
enum ShardCommand {
    /// Deliver the next observation row; the shard reads its own id range
    /// (free of communication cost).
    Observe(Arc<Vec<Value>>),
    /// Deliver observations to the listed nodes of this shard only
    /// (`(local index, value)` pairs, already routed by the server).
    ObserveSparse(Vec<(usize, Value)>),
    /// Deliver a server message to every node of the shard (charged by the
    /// caller as one broadcast).
    Server(ServerMessage),
    /// Deliver a server message to a single node (`local index`).
    ServerOne(usize, ServerMessage),
    /// Reset node `local index` as the generation-`u32` joiner of its slot
    /// (state reset + RNG reseed; see `SimNode::rejoin_generation`).
    Rejoin(usize, u32),
    /// Terminate the shard thread.
    Shutdown,
}

/// Acknowledgement sent from a shard thread back to the engine: the shard's
/// index (used to merge replies in shard = node-id order) and the replies its
/// nodes produced, in ascending node-id order.
#[derive(Debug)]
struct Ack {
    shard: usize,
    replies: Vec<NodeMessage>,
}

/// Multi-threaded engine (see module documentation).
pub struct ThreadedEngine {
    senders: Vec<Sender<ShardCommand>>,
    reply_rx: Receiver<Ack>,
    handles: Vec<JoinHandle<()>>,
    /// Shard boundaries: shard `s` hosts node ids `bounds[s]..bounds[s + 1]`.
    bounds: Vec<usize>,
    n: usize,
    meter: CostMeter,
    // Server-side mirrors used only by the free inspection API. They are updated
    // from the very messages the server sends, so they can never disagree with
    // the node-side state (filters are a pure function of group + params).
    mirror_values: Vec<Value>,
    mirror_groups: Vec<NodeGroup>,
    mirror_filters: Vec<Filter>,
    mirror_params: Option<FilterParams>,
    /// Scratch: per-shard reply slots for merging acknowledgements.
    slots: Vec<Vec<NodeMessage>>,
    population: Population,
}

impl ThreadedEngine {
    /// Spawns the default shard-thread pool — `min(n, available CPUs)`
    /// threads — hosting `n` nodes whose RNGs are derived from `master_seed`.
    ///
    /// ```
    /// use topk_net::{Network, ThreadedEngine};
    /// use topk_model::NodeId;
    ///
    /// let mut net = ThreadedEngine::new(4, 11);
    /// net.advance_time(&[1, 2, 3, 4]);
    /// assert_eq!(net.probe(NodeId(3)), 4); // a real channel round-trip
    /// ```
    pub fn new(n: usize, master_seed: u64) -> ThreadedEngine {
        let default_workers = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        ThreadedEngine::with_workers(n, master_seed, default_workers)
    }

    /// [`ThreadedEngine::new`] with an explicit shard-thread count (clamped to
    /// `1..=n` so no thread is idle by construction).
    pub fn with_workers(n: usize, master_seed: u64, workers: usize) -> ThreadedEngine {
        let workers = workers.clamp(1, n.max(1));
        let bounds = partition::shard_bounds(n, workers);
        let (reply_tx, reply_rx) = unbounded::<Ack>();
        let mut senders = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for s in 0..workers {
            let (tx, rx) = unbounded::<ShardCommand>();
            let reply_tx = reply_tx.clone();
            let offset = bounds[s];
            let mut nodes: Vec<SimNode> = (offset..bounds[s + 1])
                .map(|id| SimNode::new(NodeId(id), master_seed))
                .collect();
            let handle = std::thread::Builder::new()
                .name(format!("topk-nodes-{s}"))
                .spawn(move || loop {
                    let mut replies = Vec::new();
                    match rx.recv() {
                        Ok(ShardCommand::Observe(row)) => {
                            for (i, node) in nodes.iter_mut().enumerate() {
                                node.observe(row[offset + i]);
                            }
                        }
                        Ok(ShardCommand::ObserveSparse(changes)) => {
                            for (i, v) in changes {
                                nodes[i].observe(v);
                            }
                        }
                        Ok(ShardCommand::Server(ServerMessage::ExistenceRound {
                            round,
                            population,
                            predicate,
                        })) => {
                            // One coin per round, shared by the shard's nodes.
                            let coin = Coin::new(round, population);
                            replies.extend(
                                nodes
                                    .iter_mut()
                                    .filter_map(|n| n.existence_round(coin, predicate).flatten()),
                            );
                        }
                        Ok(ShardCommand::Server(msg)) => {
                            // Ascending id order keeps the ack buffer sorted.
                            replies.extend(nodes.iter_mut().filter_map(|n| n.handle(&msg)));
                        }
                        Ok(ShardCommand::ServerOne(i, msg)) => {
                            replies.extend(nodes[i].handle(&msg));
                        }
                        Ok(ShardCommand::Rejoin(i, generation)) => {
                            nodes[i].rejoin_generation(master_seed, generation);
                        }
                        Ok(ShardCommand::Shutdown) | Err(_) => break,
                    }
                    if reply_tx.send(Ack { shard: s, replies }).is_err() {
                        break;
                    }
                })
                .expect("failed to spawn shard thread");
            senders.push(tx);
            handles.push(handle);
        }
        ThreadedEngine {
            senders,
            reply_rx,
            handles,
            bounds,
            n,
            meter: CostMeter::new(),
            mirror_values: vec![0; n],
            mirror_groups: vec![NodeGroup::Lower; n],
            mirror_filters: vec![Filter::FULL; n],
            mirror_params: None,
            slots: (0..workers).map(|_| Vec::new()).collect(),
            population: Population::new(n),
        }
    }

    /// Number of shard threads hosting the nodes.
    pub fn worker_count(&self) -> usize {
        self.senders.len()
    }

    /// The shard hosting global node id `node` (O(1) — see
    /// [`crate::partition::shard_of`]).
    fn shard_of(&self, node: usize) -> usize {
        assert!(
            node < self.n,
            "node id {node} out of range (n = {})",
            self.n
        );
        partition::shard_of(self.n, self.senders.len(), node)
    }

    /// Sends a command to every shard and waits for all acknowledgements,
    /// merging the per-shard reply buffers in shard (= node-id) order into a
    /// caller-provided buffer (cleared first).
    fn broadcast_command_into(&mut self, cmd: ShardCommand, replies: &mut Vec<NodeMessage>) {
        for tx in &self.senders {
            tx.send(cmd.clone()).expect("shard thread hung up");
        }
        for _ in 0..self.senders.len() {
            let ack = self.reply_rx.recv().expect("shard thread hung up");
            self.slots[ack.shard] = ack.replies;
        }
        replies.clear();
        for slot in &mut self.slots {
            replies.append(slot);
        }
    }

    /// [`ThreadedEngine::broadcast_command_into`] with a fresh reply vector.
    fn broadcast_command(&mut self, cmd: ShardCommand) -> Vec<NodeMessage> {
        let mut replies = Vec::new();
        self.broadcast_command_into(cmd, &mut replies);
        replies
    }

    /// Sends a command to a single node's shard and waits for its
    /// acknowledgement.
    fn unicast_command(&mut self, node: NodeId, msg: ServerMessage) -> Option<NodeMessage> {
        let s = self.shard_of(node.index());
        let local = node.index() - self.bounds[s];
        self.senders[s]
            .send(ShardCommand::ServerOne(local, msg))
            .expect("shard thread hung up");
        let ack = self.reply_rx.recv().expect("shard thread hung up");
        debug_assert_eq!(ack.shard, s);
        ack.replies.into_iter().next()
    }
}

impl Drop for ThreadedEngine {
    fn drop(&mut self) {
        for tx in &self.senders {
            let _ = tx.send(ShardCommand::Shutdown);
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Network for ThreadedEngine {
    fn n(&self) -> usize {
        self.n
    }

    fn advance_time(&mut self, values: &[Value]) {
        assert_eq!(values.len(), self.n(), "one observation per node required");
        // Dead slots stop receiving workload observations: mask the row once,
        // then both the mirror and the shards see the masked copy.
        let mut row = values.to_vec();
        self.population.mask_row(&mut row);
        self.mirror_values.copy_from_slice(&row);
        let replies = self.broadcast_command(ShardCommand::Observe(Arc::new(row)));
        debug_assert!(replies.is_empty());
        self.meter.record_time_step();
    }

    fn advance_time_sparse(&mut self, changes: &[(NodeId, Value)]) {
        // Only the shards hosting changed nodes get a command: re-observing
        // the previous value would leave node state untouched anyway.
        let mut routed: Vec<Vec<(usize, Value)>> = vec![Vec::new(); self.senders.len()];
        for &(node, v) in changes {
            let v = if self.population.is_live(node) { v } else { 0 };
            let s = self.shard_of(node.index());
            self.mirror_values[node.index()] = v;
            routed[s].push((node.index() - self.bounds[s], v));
        }
        let mut involved = 0;
        for (s, shard_changes) in routed.into_iter().enumerate() {
            if !shard_changes.is_empty() {
                self.senders[s]
                    .send(ShardCommand::ObserveSparse(shard_changes))
                    .expect("shard thread hung up");
                involved += 1;
            }
        }
        for _ in 0..involved {
            let ack = self.reply_rx.recv().expect("shard thread hung up");
            debug_assert!(ack.replies.is_empty());
        }
        self.meter.record_time_step();
    }

    fn apply_membership(&mut self, events: &[MembershipEvent]) {
        for &event in events {
            match event {
                MembershipEvent::Leave(node) => {
                    self.population.apply(event);
                    let i = node.index();
                    self.mirror_values[i] = 0;
                    // The leaver observes 0 — node-side this is exactly a
                    // sparse observation, so the command is reused (not a
                    // model message; nothing is charged).
                    let s = self.shard_of(i);
                    let local = i - self.bounds[s];
                    self.senders[s]
                        .send(ShardCommand::ObserveSparse(vec![(local, 0)]))
                        .expect("shard thread hung up");
                    let ack = self.reply_rx.recv().expect("shard thread hung up");
                    debug_assert!(ack.replies.is_empty());
                }
                MembershipEvent::Join(node) => {
                    let generation = self.population.apply(event);
                    let i = node.index();
                    let group = self.mirror_groups[i];
                    let filter = self.mirror_filters[i];
                    self.mirror_values[i] = 0;
                    let s = self.shard_of(i);
                    let local = i - self.bounds[s];
                    self.senders[s]
                        .send(ShardCommand::Rejoin(local, generation))
                        .expect("shard thread hung up");
                    let ack = self.reply_rx.recv().expect("shard thread hung up");
                    debug_assert!(ack.replies.is_empty());
                    // Recovery replay of the slot's current group and filter,
                    // exactly as the in-process engines charge it.
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
        self.mirror_params = Some(params);
        for i in 0..self.n() {
            self.mirror_filters[i] = filter_for(self.mirror_groups[i], &params);
        }
        let replies =
            self.broadcast_command(ShardCommand::Server(ServerMessage::BroadcastParams(params)));
        debug_assert!(replies.is_empty());
    }

    fn assign_group(&mut self, node: NodeId, group: NodeGroup) {
        self.meter.record(MessageKind::DownstreamUnicast);
        self.mirror_groups[node.index()] = group;
        if let Some(p) = self.mirror_params {
            self.mirror_filters[node.index()] = filter_for(group, &p);
        }
        let reply = self.unicast_command(node, ServerMessage::AssignGroup(group));
        debug_assert!(reply.is_none());
    }

    fn broadcast_group(&mut self, group: NodeGroup) {
        self.meter.record(MessageKind::Broadcast);
        for i in 0..self.n() {
            self.mirror_groups[i] = group;
            if let Some(p) = self.mirror_params {
                self.mirror_filters[i] = filter_for(group, &p);
            }
        }
        let replies =
            self.broadcast_command(ShardCommand::Server(ServerMessage::BroadcastGroup(group)));
        debug_assert!(replies.is_empty());
    }

    fn assign_filter(&mut self, node: NodeId, filter: Filter) {
        self.meter.record(MessageKind::DownstreamUnicast);
        self.mirror_filters[node.index()] = filter;
        let reply = self.unicast_command(node, ServerMessage::AssignFilter(filter));
        debug_assert!(reply.is_none());
    }

    fn probe(&mut self, node: NodeId) -> Value {
        self.meter.record(MessageKind::DownstreamUnicast);
        let reply = self.unicast_command(node, ServerMessage::Probe);
        self.meter.record(MessageKind::Upstream);
        match reply {
            Some(NodeMessage::ValueReport { value, .. }) => value,
            other => unreachable!("probe must be answered with a value report, got {other:?}"),
        }
    }

    fn existence_round_into(
        &mut self,
        round: u32,
        population: u32,
        predicate: ExistencePredicate,
        replies: &mut Vec<NodeMessage>,
    ) {
        self.meter.record_round();
        self.broadcast_command_into(
            ShardCommand::Server(ServerMessage::ExistenceRound {
                round,
                population,
                predicate,
            }),
            replies,
        );
        self.meter
            .record_many(MessageKind::Upstream, replies.len() as u64);
    }

    fn end_existence_run(&mut self) {
        self.meter.record(MessageKind::Broadcast);
        let replies = self.broadcast_command(ShardCommand::Server(ServerMessage::EndExistenceRun));
        debug_assert!(replies.is_empty());
    }

    fn meter(&mut self) -> &mut CostMeter {
        &mut self.meter
    }

    fn stats(&self) -> CommStats {
        self.meter.snapshot()
    }

    fn peek_value(&self, node: NodeId) -> Value {
        self.mirror_values[node.index()]
    }

    fn peek_filter(&self, node: NodeId) -> Filter {
        self.mirror_filters[node.index()]
    }

    fn peek_group(&self, node: NodeId) -> NodeGroup {
        self.mirror_groups[node.index()]
    }

    fn peek_filters_into(&self, out: &mut Vec<Filter>) {
        out.clear();
        out.extend_from_slice(&self.mirror_filters);
    }

    fn peek_values_into(&self, out: &mut Vec<Value>) {
        out.clear();
        out.extend_from_slice(&self.mirror_values);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DeterministicEngine;

    #[test]
    fn threaded_engine_basic_flow() {
        let mut net = ThreadedEngine::new(4, 7);
        net.advance_time(&[5, 10, 15, 20]);
        assert_eq!(net.probe(NodeId(2)), 15);
        net.assign_group(NodeId(3), NodeGroup::Upper);
        net.broadcast_params(FilterParams::Separator { lo: 12, hi: 12 });
        assert_eq!(net.peek_filter(NodeId(3)), Filter::at_least(12));
        assert_eq!(net.peek_filter(NodeId(0)), Filter::at_most(12));
        let stats = net.stats();
        assert_eq!(stats.messages_of_kind(MessageKind::Broadcast), 1);
        assert_eq!(stats.messages_of_kind(MessageKind::DownstreamUnicast), 2);
        assert_eq!(stats.messages_of_kind(MessageKind::Upstream), 1);
    }

    #[test]
    fn violation_detection_over_channels() {
        let mut net = ThreadedEngine::new(3, 7);
        net.advance_time(&[10, 20, 30]);
        net.assign_filter(NodeId(2), Filter::at_most(25));
        let replies = net.existence_round(8, 3, ExistencePredicate::PendingViolation);
        assert_eq!(replies.len(), 1);
        assert_eq!(replies[0].sender(), NodeId(2));
        assert_eq!(replies[0].value(), 30);
    }

    #[test]
    fn threaded_matches_deterministic_counts() {
        // Drive the exact same call sequence through both engines with the same
        // seed and compare the resulting statistics.
        let script = |net: &mut dyn Network| {
            net.advance_time(&[3, 1, 4, 1, 5, 9, 2, 6]);
            net.assign_group(NodeId(5), NodeGroup::Upper);
            net.broadcast_params(FilterParams::Separator { lo: 5, hi: 5 });
            // Node 7 (value 6) violates [0,5] from below; find it.
            let mut found = Vec::new();
            for round in 0..=3 {
                let r = net.existence_round(round, 8, ExistencePredicate::PendingViolation);
                if !r.is_empty() {
                    found = r;
                    net.end_existence_run();
                    break;
                }
            }
            (found, net.stats())
        };
        let mut det = DeterministicEngine::new(8, 1234);
        let (found_det, stats_det) = script(&mut det);
        // Shard counts around the population size must all agree.
        for workers in [1, 2, 3, 8, 12] {
            let mut thr = ThreadedEngine::with_workers(8, 1234, workers);
            assert!(thr.worker_count() <= 8);
            let (found_thr, stats_thr) = script(&mut thr);
            assert_eq!(found_det, found_thr, "replies diverge at {workers} workers");
            assert_eq!(stats_det.total_messages(), stats_thr.total_messages());
            assert_eq!(stats_det.rounds, stats_thr.rounds);
        }
    }

    #[test]
    fn sparse_advance_only_wakes_involved_shards() {
        let mut net = ThreadedEngine::with_workers(8, 3, 4);
        net.advance_time(&[1, 2, 3, 4, 5, 6, 7, 8]);
        net.advance_time_sparse(&[(NodeId(0), 10), (NodeId(7), 80), (NodeId(7), 90)]);
        assert_eq!(net.peek_value(NodeId(0)), 10);
        assert_eq!(net.peek_value(NodeId(7)), 90);
        assert_eq!(net.probe(NodeId(7)), 90); // node-side state agrees
        assert_eq!(net.stats().time_steps, 2);
    }

    #[test]
    fn drop_joins_shard_threads() {
        let net = ThreadedEngine::new(16, 3);
        drop(net); // must not hang or panic
    }
}
