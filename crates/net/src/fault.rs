//! Fault-injection transport: any engine, wrapped in a deterministic
//! unreliable network.
//!
//! [`FaultyTransport`] implements [`Network`] over any inner engine and
//! executes a [`FaultSpec`] — seed-driven message drop, per-round latency,
//! reply reordering, and node crash/rejoin — at the `Network` API boundary.
//! Because every engine behind that boundary is bit-identical, the fault
//! layer composes with all of them: the same spec over
//! [`DeterministicEngine`](crate::DeterministicEngine) and over
//! [`IndexedEngine`](crate::IndexedEngine) produces identical replies,
//! identical `CommStats` and identical [`FaultStats`]
//! (`tests/indexed_differential.rs` proves it over random schedules).
//!
//! ## The two hard contracts
//!
//! **Zero-fault transparency.** With [`FaultSpec::none`] every method is a
//! verbatim forward that consumes no randomness, so a wrapped engine stays
//! bit-identical to the unwrapped engine — the fault layer cannot fork the
//! bit-identity battery.
//!
//! **Determinism under faults.** All fault decisions come from one dedicated
//! ChaCha8 stream seeded from [`FaultSpec::seed`], disjoint from the per-node
//! protocol streams. Same spec + same engine seed + same schedule ⇒ same run,
//! bit for bit. Faults are experiments, not flakiness.
//!
//! ## Fault semantics (normative text in `docs/FAULTS.md`)
//!
//! * The broadcast channel is reliable; a rejoining node replays missed
//!   broadcasts, so parameter/group broadcasts are never stale. Only per-node
//!   unicast state (filters and groups assigned while a node was down) can
//!   rot — and the rejoin handshake re-syncs exactly that.
//! * Lost messages are charged: the model pays for "sent", not for
//!   "delivered". The single exception is a *crashed* node's would-be
//!   existence replies — a down node sends nothing, so the wrapper retracts
//!   the inner engine's charge for them ([`CostMeter::retract`]).
//! * Delayed existence replies surface in a later round of the *same* run;
//!   leftovers are discarded (and counted) when the run ends, so a reply can
//!   never answer a predicate the server is no longer asking about.
//! * A crashed node observes nothing: its last delivered value freezes, and
//!   the values it missed are re-delivered as one catch-up observation when
//!   it rejoins — after the recovery replay of group and filter, so a
//!   rejoined node can never report a violation against a stale filter.
//! * Probes retry up to [`PROBE_ATTEMPTS`] times (each attempt charged),
//!   then deterministically fall back to the server's last known value —
//!   a dropped reply degrades to a stale read, never a hang.

use crate::network::Network;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use topk_model::message::ExistencePredicate;
use topk_model::prelude::*;
use topk_model::rule::filter_for;
use topk_model::soa::NodeStateSoA;

/// How often the server sends a probe before giving up and falling back to
/// its last known value for the node. Every attempt is charged one
/// downstream unicast (plus one upstream if the node answered and the reply
/// was lost), so the fallback is visible in the degradation measurements.
pub const PROBE_ATTEMPTS: u32 = 3;

/// Sentinel outage length for scripted crashes ([`FaultyTransport::force_crash`]):
/// the node stays down until [`FaultyTransport::force_rejoin`].
const SCRIPTED: u64 = u64::MAX;

/// A [`Network`] wrapper executing a deterministic fault plan
/// (see the module docs).
pub struct FaultyTransport<N: Network> {
    inner: N,
    spec: FaultSpec,
    /// The fault-plan RNG stream; never touched when the plan is inactive.
    rng: ChaCha8Rng,
    /// Whether any fault machinery is engaged (non-identity spec, or a
    /// scripted crash was injected). Inactive ⇒ every call is a pure forward.
    active: bool,
    /// Server-intent mirror of filters/groups — what each node *should* have,
    /// i.e. the rejoin replay target. Tracked even while inactive so scripted
    /// churn can engage mid-run.
    mirror: NodeStateSoA,
    params: Option<FilterParams>,
    /// Scratch: the mirror flags a broadcast flipped (unread: the mirror is
    /// a replay target, not a violation source).
    flipped: Vec<u32>,
    /// The value each node should currently observe (crashes freeze the
    /// node's real value below this).
    intended: Vec<Value>,
    /// Remaining down-steps per node; `None` = up.
    down: Vec<Option<u64>>,
    down_count: usize,
    /// Nodes that rejoined since the last observation was delivered; they
    /// need a catch-up delivery of their intended value.
    rejoined_pending: Vec<usize>,
    /// Existence-run tracking: the last round seen (a non-increasing round
    /// starts a new run) and the delayed replies of the current run as
    /// `(due_round, reply)` in send order.
    last_round: Option<u32>,
    delayed: Vec<(u32, NodeMessage)>,
    stats: FaultStats,
    scratch_row: Vec<Value>,
}

impl<N: Network> FaultyTransport<N> {
    /// Wraps `inner` under the fault plan `spec`.
    ///
    /// # Panics
    ///
    /// Panics if the spec is malformed (see [`FaultSpec::validate`]).
    pub fn new(inner: N, spec: FaultSpec) -> FaultyTransport<N> {
        spec.validate();
        let n = inner.n();
        let active = !spec.is_none();
        let mut t = FaultyTransport {
            rng: ChaCha8Rng::seed_from_u64(spec.seed),
            active,
            mirror: NodeStateSoA::new(n),
            params: None,
            flipped: Vec::new(),
            intended: Vec::new(),
            down: vec![None; n],
            down_count: 0,
            rejoined_pending: Vec::new(),
            last_round: None,
            delayed: Vec::new(),
            stats: FaultStats::default(),
            scratch_row: Vec::new(),
            inner,
            spec,
        };
        if active {
            t.intended = t.inner.peek_values();
        }
        t
    }

    /// The fault plan in force.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// Counters of what the plan actually did so far.
    pub fn fault_stats(&self) -> FaultStats {
        self.stats
    }

    /// Whether `node` is currently crashed.
    pub fn is_down(&self, node: NodeId) -> bool {
        self.down[node.index()].is_some()
    }

    /// Read access to the wrapped engine (tests inspect real node state
    /// through this, as opposed to the server-intent `peek_*` mirror).
    pub fn inner(&self) -> &N {
        &self.inner
    }

    /// Mutable access to the wrapped engine.
    pub fn inner_mut(&mut self) -> &mut N {
        &mut self.inner
    }

    /// Unwraps the transport, returning the inner engine.
    pub fn into_inner(self) -> N {
        self.inner
    }

    /// Scripted churn: crashes `node` immediately, with no automatic rejoin —
    /// the node stays down until [`FaultyTransport::force_rejoin`]. Engages
    /// the fault machinery even under [`FaultSpec::none`] (unit tests script
    /// exact crash/rejoin sequences this way; the seeded plan drives the same
    /// code paths probabilistically).
    ///
    /// # Panics
    ///
    /// Panics if the node is already down.
    pub fn force_crash(&mut self, node: NodeId) {
        self.engage();
        let i = node.index();
        assert!(self.down[i].is_none(), "node {node} is already down");
        self.down[i] = Some(SCRIPTED);
        self.down_count += 1;
        self.stats.crashes += 1;
    }

    /// Scripted churn: rejoins `node` immediately, replaying its group and
    /// filter (charged under [`ProtocolLabel::Recovery`]). Its catch-up
    /// observation is delivered with the next `advance_time*` call.
    ///
    /// # Panics
    ///
    /// Panics if the node is not down.
    pub fn force_rejoin(&mut self, node: NodeId) {
        let i = node.index();
        assert!(self.down[i].is_some(), "node {node} is not down");
        self.rejoin_node(i);
    }

    /// Engages the fault machinery mid-run (scripted churn on a `none` spec).
    fn engage(&mut self) {
        if !self.active {
            self.active = true;
            self.intended = self.inner.peek_values();
        }
    }

    /// One fault coin: true with probability `permille / 1000`. Consumes no
    /// randomness when the probability is 0 — a mechanism that is off leaves
    /// the fault stream untouched, so plans compose predictably.
    fn coin(&mut self, permille: u32) -> bool {
        permille > 0 && self.rng.gen_ratio(permille.min(1000), 1000)
    }

    /// Brings node `i` back up: recovery replay of the server-intent group
    /// and filter (only what actually diverged — the handshake stands in for
    /// a state-version exchange), charged as `Recovery` downstream unicasts.
    fn rejoin_node(&mut self, i: usize) {
        self.down[i] = None;
        self.down_count -= 1;
        self.stats.rejoins += 1;
        self.rejoined_pending.push(i);
        let node = NodeId(i);
        // A crashed node lost its volatile state, so the replay is
        // unconditional — the server cannot know whether the node still holds
        // its pre-crash group and filter, and `CrashSpec` promises a fresh
        // copy of both before the next observation is admitted.
        self.inner.meter().push_label(ProtocolLabel::Recovery);
        self.inner.assign_group(node, self.mirror.group(i));
        self.inner.assign_filter(node, self.mirror.filter(i));
        self.stats.recovery_messages += 2;
        self.inner.meter().pop_label();
    }

    /// Start-of-step bookkeeping: elapse outages (rejoins happen *before*
    /// the step's observation, so a rejoined node sees this step's value),
    /// then flip crash coins for the nodes that are up, in node-id order.
    fn begin_step(&mut self) {
        for i in 0..self.down.len() {
            if let Some(remaining) = self.down[i] {
                if remaining == SCRIPTED {
                    continue;
                }
                if remaining <= 1 {
                    self.rejoin_node(i);
                } else {
                    self.down[i] = Some(remaining - 1);
                }
            }
        }
        if let Some(crash) = self.spec.crash {
            for i in 0..self.down.len() {
                if self.down[i].is_some() {
                    continue;
                }
                // The coin is flipped even when the cap is reached, so the
                // fault stream depends only on the up-set, not on the cap.
                if self.coin(crash.crash_permille) && self.down_count < crash.max_down {
                    self.down[i] = Some(crash.down_steps.max(1));
                    self.down_count += 1;
                    self.stats.crashes += 1;
                }
            }
        }
    }

    /// Discards delayed replies whose existence run has ended.
    fn flush_stale(&mut self) {
        self.stats.stale_replies += self.delayed.len() as u64;
        self.delayed.clear();
    }

    /// Mirror bookkeeping for a group change (same re-derivation rule as the
    /// nodes and the remote engine's mirror: the filter follows the group
    /// only once parameters were broadcast).
    fn mirror_group(&mut self, i: usize, group: NodeGroup) {
        self.mirror.set_group(i, group);
        if let Some(p) = self.params {
            self.mirror.set_filter(i, filter_for(group, &p));
        }
    }

    /// Whether a downstream unicast to `node` is lost (crashed receiver, or
    /// the drop coin fires). Charges the lost message — it was sent.
    fn unicast_lost(&mut self, node: NodeId) -> bool {
        if self.down[node.index()].is_some() {
            self.inner.meter().record(MessageKind::DownstreamUnicast);
            self.stats.dropped_downstream += 1;
            return true;
        }
        if self.coin(self.spec.drop_downstream_permille) {
            self.inner.meter().record(MessageKind::DownstreamUnicast);
            self.stats.dropped_downstream += 1;
            return true;
        }
        false
    }
}

impl<N: Network> Network for FaultyTransport<N> {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn advance_time(&mut self, values: &[Value]) {
        if !self.active {
            return self.inner.advance_time(values);
        }
        assert_eq!(values.len(), self.n(), "one observation per node required");
        self.begin_step();
        self.rejoined_pending.clear(); // the full row is the catch-up
        self.intended.clear();
        self.intended.extend_from_slice(values);
        if self.down_count == 0 {
            return self.inner.advance_time(values);
        }
        // Down nodes observe nothing: freeze them at their current value.
        self.scratch_row.clear();
        self.scratch_row.extend_from_slice(values);
        for i in 0..self.down.len() {
            if self.down[i].is_some() {
                self.scratch_row[i] = self.inner.peek_value(NodeId(i));
            }
        }
        let row = std::mem::take(&mut self.scratch_row);
        self.inner.advance_time(&row);
        self.scratch_row = row;
    }

    fn advance_time_sparse(&mut self, changes: &[(NodeId, Value)]) {
        if !self.active {
            return self.inner.advance_time_sparse(changes);
        }
        self.begin_step();
        for &(node, v) in changes {
            self.intended[node.index()] = v;
        }
        // Withhold changes addressed to down nodes; append a catch-up entry
        // for every node that rejoined since the last step (last-wins keeps
        // it correct even if the node also appears in `changes`).
        let mut delivered: Vec<(NodeId, Value)> = changes
            .iter()
            .filter(|(node, _)| self.down[node.index()].is_none())
            .copied()
            .collect();
        for i in self.rejoined_pending.drain(..) {
            delivered.push((NodeId(i), self.intended[i]));
        }
        self.inner.advance_time_sparse(&delivered);
    }

    fn apply_membership(&mut self, events: &[MembershipEvent]) {
        // Membership is an environment change, not transport traffic: the
        // events are forwarded verbatim and consume no fault randomness (the
        // zero-fault transparency contract extends to churn). The inner
        // engine performs the join replay on its reliable recovery channel —
        // the same channel `rejoin_node` uses — so it is never dropped.
        //
        // Composition bookkeeping: a leaver's intended observation is 0 from
        // now on (a crashed node that left catches up to 0 on rejoin), and a
        // joiner has observed nothing yet, so its intended value is 0 until
        // the next observation is delivered.
        if self.active {
            for event in events {
                self.intended[event.node().index()] = 0;
            }
        }
        self.inner.apply_membership(events);
    }

    fn broadcast_params(&mut self, params: FilterParams) {
        // Broadcasts are reliable (see the module docs): forward verbatim,
        // mirror the derived filters as the rejoin replay target.
        self.params = Some(params);
        self.mirror.broadcast(None, Some(params), &mut self.flipped);
        self.inner.broadcast_params(params);
    }

    fn assign_group(&mut self, node: NodeId, group: NodeGroup) {
        self.mirror_group(node.index(), group);
        if self.active && self.unicast_lost(node) {
            return;
        }
        self.inner.assign_group(node, group);
    }

    fn broadcast_group(&mut self, group: NodeGroup) {
        self.mirror
            .broadcast(Some(group), self.params, &mut self.flipped);
        self.inner.broadcast_group(group);
    }

    fn assign_filter(&mut self, node: NodeId, filter: Filter) {
        self.mirror.set_filter(node.index(), filter);
        if self.active && self.unicast_lost(node) {
            return;
        }
        self.inner.assign_filter(node, filter);
    }

    fn load_query_filters(&mut self, filters: &[(NodeId, Filter)]) {
        // The load path models node-local recomputation of effective filters
        // from traffic that was already delivered and charged — it is not
        // transit, so fault injection must not touch it (a dropped load would
        // break the multi-query layer's state guarantee). Forward to the
        // inner engine verbatim, mirroring the filters as the rejoin replay
        // target.
        for &(node, filter) in filters {
            self.mirror.set_filter(node.index(), filter);
        }
        self.inner.load_query_filters(filters);
    }

    fn probe(&mut self, node: NodeId) -> Value {
        if !self.active {
            return self.inner.probe(node);
        }
        for _ in 0..PROBE_ATTEMPTS {
            if self.unicast_lost(node) {
                continue; // request lost (or receiver down): retry
            }
            let value = self.inner.probe(node);
            if self.coin(self.spec.drop_upstream_permille) {
                // The answer was sent (and charged by the inner engine) but
                // lost in transit: retry.
                self.stats.dropped_upstream += 1;
                continue;
            }
            return value;
        }
        // Out of retries: degrade to the last known value instead of
        // hanging. Free — the stale read is server-local.
        self.stats.probe_fallbacks += 1;
        self.inner.peek_value(node)
    }

    fn existence_round_into(
        &mut self,
        round: u32,
        population: u32,
        predicate: ExistencePredicate,
        replies: &mut Vec<NodeMessage>,
    ) {
        if !self.active {
            return self
                .inner
                .existence_round_into(round, population, predicate, replies);
        }
        // Rounds increase strictly within a run, so a non-increasing round
        // means a new run started: in-flight replies of the old run are
        // stale and vanish.
        if self.last_round.is_some_and(|last| round <= last) {
            self.flush_stale();
        }
        self.last_round = Some(round);
        self.inner
            .existence_round_into(round, population, predicate, replies);
        // A crashed node sends nothing — strip its replies and retract the
        // inner engine's charge for them (never sent ≠ sent-but-lost).
        if self.down_count > 0 {
            let before = replies.len();
            let down = &self.down;
            replies.retain(|reply| down[reply.sender().index()].is_none());
            let stripped = (before - replies.len()) as u64;
            self.inner.meter().retract(MessageKind::Upstream, stripped);
        }
        // Per-reply drop and delay coins, in node-id (send) order.
        if self.spec.drop_upstream_permille > 0 || !self.spec.latency.is_immediate() {
            let sent = std::mem::take(replies);
            for reply in sent {
                if self.coin(self.spec.drop_upstream_permille) {
                    // Charged by the inner engine; lost in transit.
                    self.stats.dropped_upstream += 1;
                    continue;
                }
                let delay = match self.spec.latency {
                    LatencySpec::Immediate => 0,
                    LatencySpec::Fixed(d) => d,
                    LatencySpec::Uniform { lo, hi } => self.rng.gen_range(lo..=hi),
                };
                if delay == 0 {
                    replies.push(reply);
                } else {
                    self.stats.delayed_replies += 1;
                    self.delayed.push((round + delay, reply));
                }
            }
        }
        // Deliver delayed replies that are due, preserving send order.
        let mut i = 0;
        while i < self.delayed.len() {
            if self.delayed[i].0 <= round {
                replies.push(self.delayed.remove(i).1);
            } else {
                i += 1;
            }
        }
        if replies.len() > 1 && self.coin(self.spec.reorder_permille) {
            replies.shuffle(&mut self.rng);
            self.stats.reordered_rounds += 1;
        }
    }

    fn end_existence_run(&mut self) {
        self.inner.end_existence_run();
        if self.active {
            self.flush_stale();
            self.last_round = None;
        }
    }

    fn meter(&mut self) -> &mut CostMeter {
        self.inner.meter()
    }

    fn stats(&self) -> CommStats {
        self.inner.stats()
    }

    fn peek_value(&self, node: NodeId) -> Value {
        self.inner.peek_value(node)
    }

    fn peek_filter(&self, node: NodeId) -> Filter {
        self.inner.peek_filter(node)
    }

    fn peek_group(&self, node: NodeId) -> NodeGroup {
        self.inner.peek_group(node)
    }

    fn peek_filters_into(&self, out: &mut Vec<Filter>) {
        self.inner.peek_filters_into(out);
    }

    fn peek_values_into(&self, out: &mut Vec<Value>) {
        self.inner.peek_values_into(out);
    }
}

impl<N: Network> std::fmt::Debug for FaultyTransport<N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultyTransport")
            .field("n", &self.inner.n())
            .field("spec", &self.spec)
            .field("down", &self.down_count)
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DeterministicEngine;

    fn wrapped(n: usize, seed: u64, spec: FaultSpec) -> FaultyTransport<DeterministicEngine> {
        FaultyTransport::new(DeterministicEngine::new(n, seed), spec)
    }

    #[test]
    fn none_wrapper_is_bit_transparent() {
        let script = |net: &mut dyn Network| {
            net.advance_time(&[3, 14, 15, 92]);
            net.broadcast_params(FilterParams::Separator { lo: 10, hi: 10 });
            net.assign_group(NodeId(0), NodeGroup::Upper);
            net.assign_filter(NodeId(3), Filter::at_least(50));
            let p = net.probe(NodeId(1));
            let mut replies = Vec::new();
            for round in 0..3 {
                net.existence_round_into(
                    round,
                    4,
                    ExistencePredicate::PendingViolation,
                    &mut replies,
                );
                if !replies.is_empty() {
                    net.end_existence_run();
                    break;
                }
            }
            net.advance_time_sparse(&[(NodeId(2), 1)]);
            (p, replies, net.stats(), net.peek_filters())
        };
        let mut plain = DeterministicEngine::new(4, 99);
        let mut faulty = wrapped(4, 99, FaultSpec::none());
        assert_eq!(script(&mut plain), script(&mut faulty));
        assert_eq!(faulty.fault_stats(), FaultStats::default());
    }

    #[test]
    fn rejoin_replays_the_current_filter_before_observations_resume() {
        // The stale-filter guard: a filter assigned while the node was down
        // is lost, and the rejoin replay must install it before the node's
        // next observation — so the node can neither report against its
        // pre-crash filter nor miss a genuine violation of the current one.
        let mut net = wrapped(2, 7, FaultSpec::none());
        net.advance_time(&[10, 50]);
        net.assign_filter(NodeId(1), Filter::bounded(40, 60).unwrap());
        net.force_crash(NodeId(1));

        // Sent while down: charged, not delivered.
        let downstream_before = net.stats().messages_of_kind(MessageKind::DownstreamUnicast);
        net.assign_filter(NodeId(1), Filter::at_least(25));
        assert_eq!(
            net.stats().messages_of_kind(MessageKind::DownstreamUnicast),
            downstream_before + 1,
            "a lost unicast still costs one unit"
        );
        assert_eq!(
            net.inner().peek_filter(NodeId(1)),
            Filter::bounded(40, 60).unwrap(),
            "the node must not have received the new filter"
        );

        // Down nodes neither observe nor reply.
        net.advance_time(&[10, 30]);
        assert_eq!(net.inner().peek_value(NodeId(1)), 50, "value frozen");
        let upstream_before = net.stats().messages_of_kind(MessageKind::Upstream);
        let replies = net.existence_round(10, 2, ExistencePredicate::AtLeast(50));
        assert!(replies.is_empty(), "a crashed node sends nothing");
        assert_eq!(
            net.stats().messages_of_kind(MessageKind::Upstream),
            upstream_before,
            "messages a crashed node never sent must not be charged"
        );

        net.force_rejoin(NodeId(1));
        assert_eq!(
            net.inner().peek_filter(NodeId(1)),
            Filter::at_least(25),
            "rejoin must replay the server's current filter"
        );
        let fs = net.fault_stats();
        assert_eq!((fs.crashes, fs.rejoins, fs.recovery_messages), (1, 1, 2));
        assert_eq!(
            net.stats().messages_of_label(ProtocolLabel::Recovery),
            2,
            "the group + filter replay is attributed to the recovery label"
        );

        // Catch-up observation: the node now sees 30, which violates its
        // *pre-crash* filter [40, 60] but not the current one [25, ∞) — a
        // stale-filter leak would surface here as a spurious report.
        net.advance_time(&[10, 30]);
        assert_eq!(net.inner().peek_value(NodeId(1)), 30);
        let replies = net.existence_round(10, 2, ExistencePredicate::PendingViolation);
        assert!(
            replies.is_empty(),
            "no stale-filter violation may leak after rejoin: {replies:?}"
        );
        assert_eq!(net.probe(NodeId(1)), 30);
    }

    #[test]
    fn sparse_steps_deliver_catchup_values_to_rejoined_nodes() {
        let mut net = wrapped(3, 5, FaultSpec::none());
        net.advance_time(&[1, 2, 3]);
        net.force_crash(NodeId(2));
        net.advance_time_sparse(&[(NodeId(2), 77)]); // withheld
        assert_eq!(net.inner().peek_value(NodeId(2)), 3);
        net.force_rejoin(NodeId(2));
        // Nothing changed for node 2 this step, but the catch-up entry must
        // deliver the value it missed while down.
        net.advance_time_sparse(&[(NodeId(0), 9)]);
        assert_eq!(net.inner().peek_value(NodeId(2)), 77);
        assert_eq!(net.inner().peek_value(NodeId(0)), 9);
    }

    #[test]
    fn downstream_drops_are_charged_and_probes_fall_back() {
        let mut spec = FaultSpec::none();
        spec.drop_downstream_permille = 1000; // every unicast is lost
        let mut net = wrapped(2, 3, spec);
        net.advance_time(&[10, 20]);
        net.assign_filter(NodeId(0), Filter::at_least(5));
        assert_eq!(
            net.inner().peek_filter(NodeId(0)),
            Filter::FULL,
            "the assignment was lost"
        );
        let before = net.stats().messages_of_kind(MessageKind::DownstreamUnicast);
        let value = net.probe(NodeId(1));
        assert_eq!(value, 20, "fallback returns the last known value");
        let stats = net.stats();
        assert_eq!(
            stats.messages_of_kind(MessageKind::DownstreamUnicast),
            before + u64::from(PROBE_ATTEMPTS),
            "every probe attempt is charged"
        );
        assert_eq!(stats.messages_of_kind(MessageKind::Upstream), 0);
        let fs = net.fault_stats();
        assert_eq!(fs.probe_fallbacks, 1);
        assert_eq!(fs.dropped_downstream, 1 + u64::from(PROBE_ATTEMPTS));
    }

    #[test]
    fn upstream_drops_lose_replies_but_keep_the_charge() {
        let mut net = wrapped(2, 11, FaultSpec::drop_upstream(42, 1000));
        net.advance_time(&[100, 200]);
        let replies = net.existence_round(10, 2, ExistencePredicate::AtLeast(50));
        assert!(replies.is_empty(), "all replies dropped");
        assert_eq!(
            net.stats().messages_of_kind(MessageKind::Upstream),
            2,
            "both replies were sent (and charged) before being lost"
        );
        assert_eq!(net.fault_stats().dropped_upstream, 2);
        // A probe keeps retrying lost answers, then falls back.
        let before = net.stats().messages_of_kind(MessageKind::Upstream);
        assert_eq!(net.probe(NodeId(0)), 100);
        assert_eq!(
            net.stats().messages_of_kind(MessageKind::Upstream),
            before + u64::from(PROBE_ATTEMPTS)
        );
        assert_eq!(net.fault_stats().probe_fallbacks, 1);
    }

    #[test]
    fn fixed_latency_shifts_replies_into_later_rounds_of_the_same_run() {
        let mut spec = FaultSpec::none();
        spec.latency = LatencySpec::Fixed(1);
        let mut net = wrapped(2, 13, spec);
        net.advance_time(&[5, 100]);
        // Round 10: node 1 answers, but the reply is in flight for a round.
        let r0 = net.existence_round(10, 2, ExistencePredicate::AtLeast(50));
        assert!(r0.is_empty(), "the reply is delayed, not delivered");
        // Round 11 of the same run: the delayed reply surfaces (and the
        // fresh round-11 reply goes into flight in turn).
        let r1 = net.existence_round(11, 2, ExistencePredicate::AtLeast(50));
        assert_eq!(r1.len(), 1);
        assert_eq!(r1[0].sender(), NodeId(1));
        // Ending the run discards the round-11 reply still in flight.
        net.end_existence_run();
        let fs = net.fault_stats();
        assert_eq!(fs.delayed_replies, 2);
        assert_eq!(fs.stale_replies, 1);
        // Both replies were sent and charged.
        assert_eq!(net.stats().messages_of_kind(MessageKind::Upstream), 2);
        // A new run starts clean: round 10 again is a fresh run.
        let r = net.existence_round(10, 2, ExistencePredicate::AtLeast(50));
        assert!(r.is_empty(), "delayed again, and no stale leftovers: {r:?}");
    }

    #[test]
    fn reordering_permutes_but_never_invents_replies() {
        let mut spec = FaultSpec::none();
        spec.reorder_permille = 1000;
        let mut shuffled_somewhere = false;
        for seed in 0..8 {
            spec.seed = seed;
            let mut net = wrapped(6, 17, spec);
            net.advance_time(&[10, 20, 30, 40, 50, 60]);
            let replies = net.existence_round(10, 6, ExistencePredicate::AtLeast(5));
            assert_eq!(replies.len(), 6);
            let mut senders: Vec<usize> = replies.iter().map(|m| m.sender().index()).collect();
            if !senders.windows(2).all(|w| w[0] <= w[1]) {
                shuffled_somewhere = true;
            }
            senders.sort_unstable();
            assert_eq!(senders, (0..6).collect::<Vec<_>>(), "a permutation");
            assert_eq!(net.fault_stats().reordered_rounds, 1);
        }
        assert!(shuffled_somewhere, "no seed produced a real reorder");
    }

    #[test]
    fn crash_cap_bounds_concurrent_outages() {
        let mut net = wrapped(5, 23, FaultSpec::crash_rejoin(1, 1000, 2, 2));
        net.advance_time(&[1; 5]);
        let down: Vec<bool> = (0..5).map(|i| net.is_down(NodeId(i))).collect();
        assert_eq!(
            down.iter().filter(|&&d| d).count(),
            2,
            "crash_permille 1000 with max_down 2 must down exactly the cap"
        );
        // Node-id order: the first two nodes crash.
        assert_eq!(down, vec![true, true, false, false, false]);
        assert_eq!(net.fault_stats().crashes, 2);
        // Two steps later they are back (and immediately re-crash-eligible,
        // so the population keeps churning at the cap).
        net.advance_time(&[1; 5]);
        net.advance_time(&[1; 5]);
        assert!(net.fault_stats().rejoins >= 2);
        assert_eq!((0..5).filter(|&i| net.is_down(NodeId(i))).count(), 2);
    }

    #[test]
    fn seeded_plans_reproduce_bit_identically() {
        let mut spec = FaultSpec::crash_rejoin(0xDEAD, 200, 2, 3);
        spec.drop_upstream_permille = 150;
        spec.drop_downstream_permille = 100;
        spec.latency = LatencySpec::Uniform { lo: 0, hi: 2 };
        spec.reorder_permille = 300;
        let run = || {
            let mut net = wrapped(8, 31, spec);
            let mut log = Vec::new();
            for step in 0..12u64 {
                let row: Vec<Value> = (0..8).map(|i| (step * 37 + i * 11) % 97 + 1).collect();
                net.advance_time(&row);
                net.assign_filter(NodeId((step % 8) as usize), Filter::at_least(step));
                for round in 0..4 {
                    let r = net.existence_round(round, 8, ExistencePredicate::AtLeast(40));
                    log.push(r);
                }
                net.end_existence_run();
                log.push(vec![NodeMessage::ValueReport {
                    node: NodeId(0),
                    value: net.probe(NodeId((step % 3) as usize)),
                }]);
            }
            (log, net.stats(), net.fault_stats(), net.peek_filters())
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same spec + same seed must reproduce the run");
    }
}
