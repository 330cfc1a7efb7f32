//! Multi-query monitoring: many concurrent top-k queries over one shared
//! node population.
//!
//! A [`QuerySet`] registers `Q` queries — each a [`QuerySpec`] (`k`, `ε`,
//! protocol, node subset) paired with the [`Monitor`] that runs it — against a
//! single engine. The normative semantics live in `docs/QUERIES.md`; in
//! brief:
//!
//! * **Effective filters.** A node stays a single-filter device: its physical
//!   filter is the *intersection* of the bands every covering query assigns
//!   it ([`Filter::intersect`]). The per-query bands are mirrored server-side
//!   ([`QuerySet`] keeps one group/params/band mirror per query), and every
//!   band change pushes the recomputed intersection through
//!   [`Network::assign_query_filter`] (the changed band's own charged
//!   unicast) or [`Network::load_query_filters`] (free recomputation on nodes
//!   whose own band did not change).
//! * **Violation routing.** Because the effective filter is the intersection,
//!   a physical violation is a violation of *at least one* covering query's
//!   band. Reports are routed to exactly the queries whose band the value
//!   violates, with the direction rewritten against that query's band. A
//!   per-step **report pool** lets one physical report serve every consumer:
//!   the first consumer's existence run elicits it, later consumers are
//!   served from the pool without new upstream traffic — this is where the
//!   joint run beats `Q` independent runs.
//! * **Split-charging.** Every attributed wire message lands in a
//!   [`QueryCostLedger`]: messages sent on behalf of one query are charged to
//!   it exclusively, pool-shared reports are split in [`SPLIT_SCALE`]
//!   fixed-point units. The runner asserts the ledger invariant — per-query
//!   units sum to `SPLIT_SCALE ×` the engine's message total — after every
//!   run.
//! * **Single-query equivalence.** A `QuerySet` of one full-population query
//!   delegates to [`run_with_membership_observed`] and therefore reproduces
//!   the legacy single-monitor run *byte for byte* — same replies, same
//!   `CommStats`, same filters, values and RNG streams on every engine. The
//!   differential battery and the golden-trace corpus enforce this.
//!
//! Membership churn composed with multi-query monitoring is out of scope:
//! the multi-query driver rejects non-empty membership schedules (the solo
//! path supports them unchanged).

use crate::monitor::{run_with_membership_observed, Monitor};
use topk_model::message::ExistencePredicate;
use topk_model::prelude::*;
use topk_model::rule::filter_for;
use topk_net::Network;

/// A set of concurrent queries over one shared population of `n` nodes.
///
/// Queries are registered in order; [`QueryId`]s are their dense 0-based
/// registration ranks. The set owns the monitors and is driven by
/// [`run_query_set`] / [`run_query_set_observed`].
pub struct QuerySet {
    n: usize,
    queries: Vec<RegisteredQuery>,
}

struct RegisteredQuery {
    spec: QuerySpec,
    monitor: Box<dyn Monitor>,
    /// Resolved subset: sorted, deduplicated global node ids.
    subset: Vec<NodeId>,
}

impl std::fmt::Debug for QuerySet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QuerySet")
            .field("n", &self.n)
            .field("queries", &self.queries.len())
            .finish()
    }
}

impl QuerySet {
    /// An empty query set over a population of `n` nodes.
    pub fn new(n: usize) -> QuerySet {
        QuerySet {
            n,
            queries: Vec::new(),
        }
    }

    /// Registers a query and the monitor that runs it, returning its id.
    ///
    /// # Panics
    ///
    /// Panics if the spec's `k` disagrees with the monitor's, if the subset
    /// names a node outside the population, or if `k` is not below the
    /// subset size (every protocol needs a node outside its top k).
    pub fn register(&mut self, spec: QuerySpec, monitor: Box<dyn Monitor>) -> QueryId {
        assert_eq!(
            spec.k,
            monitor.k(),
            "query spec k = {} but the monitor runs k = {}",
            spec.k,
            monitor.k()
        );
        let subset = spec.subset.resolve(self.n);
        assert!(
            spec.k < subset.len(),
            "query k = {} must be below the size of its subset of {} nodes",
            spec.k,
            subset.len()
        );
        let id = QueryId(self.queries.len() as u32);
        self.queries.push(RegisteredQuery {
            spec,
            monitor,
            subset,
        });
        id
    }

    /// Population size the set monitors.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of registered queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Whether no query is registered yet.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// The spec a query was registered with.
    pub fn spec(&self, q: QueryId) -> &QuerySpec {
        &self.queries[q.index()].spec
    }

    /// The resolved (sorted, deduplicated) node subset of a query.
    pub fn subset(&self, q: QueryId) -> &[NodeId] {
        &self.queries[q.index()].subset
    }

    /// Whether this set takes the bit-identical single-query fast path: one
    /// query covering the full population.
    pub fn is_solo(&self) -> bool {
        self.queries.len() == 1 && self.queries[0].subset.len() == self.n
    }
}

/// Per-query outcome of a query-set run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryRunReport {
    /// The query this report belongs to.
    pub query: QueryId,
    /// Steps processed (same for every query of a set).
    pub steps: u64,
    /// Steps at which this query's output violated its ε-top-k definition.
    pub invalid_steps: u64,
    /// Steps at which this query's output differed from its exact top-k.
    pub inexact_steps: u64,
    /// Attributed cost in [`SPLIT_SCALE`] fixed-point units per message.
    pub units: u64,
}

impl QueryRunReport {
    /// Attributed cost in (fractional) messages.
    pub fn attributed_messages(&self) -> f64 {
        self.units as f64 / SPLIT_SCALE as f64
    }
}

/// Outcome of driving a [`QuerySet`] over a workload.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySetReport {
    /// Steps processed.
    pub steps: u64,
    /// Communication statistics of the shared engine (the *joint* wire cost).
    pub stats: CommStats,
    /// Largest value observed over the run.
    pub delta: Value,
    /// Per-query reports, in registration order.
    pub per_query: Vec<QueryRunReport>,
    /// Every violation-report delivery `(query, global node)` of the run, in
    /// delivery order — the audit trail the routing proptests check.
    pub deliveries: Vec<(QueryId, NodeId)>,
}

impl QuerySetReport {
    /// Total messages the joint run put on the wire.
    pub fn messages(&self) -> u64 {
        self.stats.total_messages()
    }

    /// Sum of all per-query attributed units. After every run this equals
    /// `SPLIT_SCALE ×` [`QuerySetReport::messages`] (asserted by the runner).
    pub fn total_units(&self) -> u64 {
        self.per_query.iter().map(|r| r.units).sum()
    }
}

/// Everything the driver knows about one completed observation step of a
/// query-set run, handed to the observer of [`run_query_set_observed`].
#[derive(Debug, Clone, Copy)]
pub struct QueryStepObservation<'a> {
    /// 0-based index of the step that just completed.
    pub step: u64,
    /// The observations delivered at this step (global, full population).
    pub row: &'a [Value],
    /// Each query's output after the step, mapped to *global* node ids, in
    /// registration order.
    pub outputs: &'a [Vec<NodeId>],
    /// Per-query validity verdicts for this step, in registration order.
    pub valid: &'a [bool],
    /// Cumulative message count of the shared engine, including this step.
    pub messages_total: u64,
    /// Cumulative attributed units per query, in registration order.
    pub units: &'a [u64],
}

/// Drives a query set over pre-recorded observation rows.
///
/// # Panics
///
/// Panics if the set is empty or a row's length differs from the population.
pub fn run_query_set(
    set: &mut QuerySet,
    net: &mut dyn Network,
    rows: impl IntoIterator<Item = Vec<Value>>,
) -> QuerySetReport {
    let mut iter = rows.into_iter();
    run_query_set_observed(
        set,
        net,
        move |_filters| iter.next(),
        |_| Vec::new(),
        |_| {},
    )
}

/// The full query-set driver: adaptive source, membership schedule and
/// per-step observer.
///
/// `net` must be a fresh engine (no prior traffic) — the attribution ledger
/// accounts the engine's whole message total. A set of one full-population
/// query runs on the bit-identical legacy path and supports membership
/// events; a genuinely multi-query set rejects non-empty schedules.
///
/// # Panics
///
/// Panics if the set is empty, a row length differs from the population, or a
/// multi-query run is given membership events.
pub fn run_query_set_observed(
    set: &mut QuerySet,
    net: &mut dyn Network,
    next_row: impl FnMut(&[Filter]) -> Option<Vec<Value>>,
    events_at: impl FnMut(u64) -> Vec<MembershipEvent>,
    observer: impl FnMut(QueryStepObservation<'_>),
) -> QuerySetReport {
    assert!(!set.is_empty(), "cannot run an empty query set");
    assert_eq!(
        set.n(),
        net.n(),
        "query set monitors {} nodes but the engine hosts {}",
        set.n(),
        net.n()
    );
    if set.is_solo() {
        run_solo(set, net, next_row, events_at, observer)
    } else {
        run_multi(set, net, next_row, events_at, observer)
    }
}

/// The single-query fast path: delegates to the legacy driver so the run is
/// byte-for-byte the legacy monitor run (same replies, `CommStats`, filters,
/// values and RNG streams on every engine).
fn run_solo(
    set: &mut QuerySet,
    net: &mut dyn Network,
    next_row: impl FnMut(&[Filter]) -> Option<Vec<Value>>,
    events_at: impl FnMut(u64) -> Vec<MembershipEvent>,
    mut observer: impl FnMut(QueryStepObservation<'_>),
) -> QuerySetReport {
    let rq = &mut set.queries[0];
    let eps = rq.spec.eps;
    let report =
        run_with_membership_observed(rq.monitor.as_mut(), net, eps, next_row, events_at, |obs| {
            let outputs = [obs.output.to_vec()];
            let valid = [obs.valid];
            let units = [obs.messages_total * SPLIT_SCALE];
            observer(QueryStepObservation {
                step: obs.step,
                row: obs.row,
                outputs: &outputs,
                valid: &valid,
                messages_total: obs.messages_total,
                units: &units,
            });
        });
    QuerySetReport {
        steps: report.steps,
        delta: report.delta,
        per_query: vec![QueryRunReport {
            query: QueryId(0),
            steps: report.steps,
            invalid_steps: report.invalid_steps,
            inexact_steps: report.inexact_steps,
            units: report.stats.total_messages() * SPLIT_SCALE,
        }],
        stats: report.stats,
        deliveries: Vec::new(),
    }
}

/// Server-side mirror of one query's node-facing state: what a dedicated
/// single-query deployment's nodes would hold for this query.
struct QueryMirror {
    /// Global node index per local id (sorted ascending, so local order
    /// preserves global `(value, id)` tie-breaking).
    subset: Vec<usize>,
    /// Local id per global node index (`None` outside the subset).
    local_of: Vec<Option<u32>>,
    /// The query's band per local node — initially [`Filter::FULL`].
    bands: Vec<Filter>,
    /// The query's group per local node — initially [`NodeGroup::Lower`],
    /// mirroring a fresh node.
    groups: Vec<NodeGroup>,
    /// The query's last broadcast parameters (`None` until the first
    /// broadcast, mirroring a fresh node).
    params: Option<FilterParams>,
    /// Whether the current existence run of this query ran a physical round
    /// (a fully pool-served run is physically silent, so its end-of-run
    /// broadcast is suppressed and uncharged).
    run_had_physical: bool,
}

/// One node's entry in the per-step shared report pool.
struct PoolEntry {
    /// Global node index.
    node: usize,
    /// The value the node reported this step.
    value: Value,
    /// Whether a physical upstream charge is currently held for this report
    /// (strays are retracted until their first consumer re-charges them).
    charged: bool,
    /// Open split-charge ledger entry, once a consumer exists.
    ledger_entry: Option<usize>,
    /// Which queries this report was already delivered to.
    served: Vec<bool>,
}

/// The per-step report pool: one entry per node that reported this step.
struct StepPool {
    entries: Vec<PoolEntry>,
    /// Global node index → pool entry index.
    index: Vec<Option<u32>>,
}

impl StepPool {
    fn new(n: usize) -> StepPool {
        StepPool {
            entries: Vec::new(),
            index: vec![None; n],
        }
    }

    fn reset(&mut self) {
        for e in self.entries.drain(..) {
            self.index[e.node] = None;
        }
    }

    /// Returns the entry index for `node`, creating an uncharged, unserved
    /// entry when the node has not reported this step yet.
    fn upsert(&mut self, node: usize, value: Value, queries: usize) -> usize {
        match self.index[node] {
            Some(i) => {
                self.entries[i as usize].value = value;
                i as usize
            }
            None => {
                let i = self.entries.len();
                self.entries.push(PoolEntry {
                    node,
                    value,
                    charged: false,
                    ledger_entry: None,
                    served: vec![false; queries],
                });
                self.index[node] = Some(i as u32);
                i
            }
        }
    }
}

/// All shared state of a multi-query run; [`QueryView`] borrows it per query.
struct MultiState<'n> {
    net: &'n mut dyn Network,
    mirrors: Vec<QueryMirror>,
    /// Queries covering each global node, in registration order.
    cover: Vec<Vec<u32>>,
    pool: StepPool,
    ledger: QueryCostLedger,
    deliveries: Vec<(QueryId, NodeId)>,
    scratch: Vec<NodeMessage>,
    push_buf: Vec<(NodeId, Filter)>,
}

impl MultiState<'_> {
    /// The intersection of every covering query's band for global node `g`.
    fn effective(&self, g: usize) -> Filter {
        let mut f = Filter::FULL;
        for &qi in &self.cover[g] {
            let m = &self.mirrors[qi as usize];
            let l = m.local_of[g].expect("cover lists only subset members") as usize;
            f = f.intersect(&m.bands[l]);
        }
        f
    }

    /// Pushes the recomputed effective filter of one node on behalf of query
    /// `q`'s own charged unicast.
    fn push_one_charged(&mut self, q: usize, l: usize) {
        let g = self.mirrors[q].subset[l];
        let eff = self.effective(g);
        self.net
            .assign_query_filter(QueryId(q as u32), NodeId(g), eff);
        self.ledger.charge_exclusive(QueryId(q as u32), 1);
    }

    /// Pushes the recomputed effective filters of query `q`'s whole subset
    /// free of charge (the nodes recompute locally after a broadcast).
    fn push_all_free(&mut self, q: usize) {
        let mut pairs = std::mem::take(&mut self.push_buf);
        pairs.clear();
        for l in 0..self.mirrors[q].subset.len() {
            let g = self.mirrors[q].subset[l];
            pairs.push((NodeId(g), self.effective(g)));
        }
        self.net.load_query_filters(&pairs);
        self.push_buf = pairs;
    }
}

/// The `|S_q|`-node [`Network`] one query's monitor programs against: node
/// ids are local subset ranks, bands are the query's own mirrors, and every
/// transport call is translated to shared-engine traffic with per-query
/// attribution. See the module docs for the translation rules.
struct QueryView<'n, 's> {
    st: &'s mut MultiState<'n>,
    q: usize,
}

impl QueryView<'_, '_> {
    fn qid(&self) -> QueryId {
        QueryId(self.q as u32)
    }

    fn to_global(&self, local: NodeId) -> NodeId {
        NodeId(self.st.mirrors[self.q].subset[local.index()])
    }

    /// Translates local [`ExistencePredicate`] coordinates to global ones.
    /// The subset is sorted ascending, so the local → global map is monotone
    /// and rank comparisons are preserved.
    fn remap_predicate(&self, p: ExistencePredicate) -> ExistencePredicate {
        match p {
            ExistencePredicate::RankWindow { above, below } => ExistencePredicate::RankWindow {
                above: above.map(|(v, id)| (v, self.to_global(id))),
                below: below.map(|(v, id)| (v, self.to_global(id))),
            },
            other => other,
        }
    }

    /// Serves the pool to this query: every undelivered report whose value
    /// violates the query's band, as reconstructed [`NodeMessage`]s in local
    /// coordinates. Returns whether anything was served.
    fn serve_pool(&mut self, replies: &mut Vec<NodeMessage>) -> bool {
        let st = &mut *self.st;
        let qid = QueryId(self.q as u32);
        let mirror = &st.mirrors[self.q];
        let mut hits: Vec<(usize, u32, Value, Violation)> = Vec::new();
        for (ei, entry) in st.pool.entries.iter().enumerate() {
            if entry.served[self.q] {
                continue;
            }
            let Some(l) = mirror.local_of[entry.node] else {
                continue;
            };
            if let Some(dir) = mirror.bands[l as usize].check(entry.value) {
                hits.push((ei, l, entry.value, dir));
            }
        }
        if hits.is_empty() {
            return false;
        }
        hits.sort_by_key(|h| h.1);
        // The reconstruction is free of physical traffic but still occupies
        // one protocol round.
        st.net.meter().record_round();
        for (ei, l, value, direction) in hits {
            let entry = &mut st.pool.entries[ei];
            if !entry.charged {
                // First consumer of a pooled stray: the report goes on the
                // wire after all.
                st.net.meter().record(MessageKind::Upstream);
                entry.charged = true;
            }
            match entry.ledger_entry {
                Some(e) => st.ledger.add_sharer(e, qid),
                None => entry.ledger_entry = Some(st.ledger.open_shared(qid)),
            }
            entry.served[self.q] = true;
            st.deliveries.push((qid, NodeId(entry.node)));
            replies.push(NodeMessage::ViolationReport {
                node: NodeId(l as usize),
                value,
                direction,
            });
        }
        true
    }
}

fn with_sender(msg: &NodeMessage, node: NodeId) -> NodeMessage {
    match *msg {
        NodeMessage::ValueReport { value, .. } => NodeMessage::ValueReport { node, value },
        NodeMessage::ViolationReport {
            value, direction, ..
        } => NodeMessage::ViolationReport {
            node,
            value,
            direction,
        },
        NodeMessage::ExistenceResponse { value, .. } => {
            NodeMessage::ExistenceResponse { node, value }
        }
    }
}

impl Network for QueryView<'_, '_> {
    fn n(&self) -> usize {
        self.st.mirrors[self.q].subset.len()
    }

    fn advance_time(&mut self, _values: &[Value]) {
        panic!("a query view does not drive time; the query-set driver owns advance_time");
    }

    fn apply_membership(&mut self, _events: &[MembershipEvent]) {
        panic!(
            "membership churn under multi-query monitoring is not supported (see docs/QUERIES.md)"
        );
    }

    fn broadcast_params(&mut self, params: FilterParams) {
        let st = &mut *self.st;
        let qid = QueryId(self.q as u32);
        st.net.meter().record(MessageKind::Broadcast);
        st.ledger.charge_exclusive(qid, 1);
        let mirror = &mut st.mirrors[self.q];
        mirror.params = Some(params);
        for l in 0..mirror.bands.len() {
            mirror.bands[l] = filter_for(mirror.groups[l], &params);
        }
        st.push_all_free(self.q);
    }

    fn assign_group(&mut self, node: NodeId, group: NodeGroup) {
        let mirror = &mut self.st.mirrors[self.q];
        let l = node.index();
        mirror.groups[l] = group;
        if let Some(p) = mirror.params {
            mirror.bands[l] = filter_for(group, &p);
        }
        self.st.push_one_charged(self.q, l);
    }

    fn broadcast_group(&mut self, group: NodeGroup) {
        let st = &mut *self.st;
        let qid = QueryId(self.q as u32);
        st.net.meter().record(MessageKind::Broadcast);
        st.ledger.charge_exclusive(qid, 1);
        let mirror = &mut st.mirrors[self.q];
        for l in 0..mirror.groups.len() {
            mirror.groups[l] = group;
            if let Some(p) = mirror.params {
                mirror.bands[l] = filter_for(group, &p);
            }
        }
        st.push_all_free(self.q);
    }

    fn assign_filter(&mut self, node: NodeId, filter: Filter) {
        let l = node.index();
        self.st.mirrors[self.q].bands[l] = filter;
        self.st.push_one_charged(self.q, l);
    }

    fn load_query_filters(&mut self, filters: &[(NodeId, Filter)]) {
        // Free band updates (never emitted by the monitors themselves, but
        // kept faithful: the effective filters are re-pushed uncharged).
        for &(node, filter) in filters {
            let l = node.index();
            self.st.mirrors[self.q].bands[l] = filter;
            let g = self.st.mirrors[self.q].subset[l];
            let eff = self.st.effective(g);
            let pair = [(NodeId(g), eff)];
            self.st.net.load_query_filters(&pair);
        }
    }

    fn probe(&mut self, node: NodeId) -> Value {
        let g = self.to_global(node);
        let v = self.st.net.probe(g);
        self.st.ledger.charge_exclusive(self.qid(), 2);
        v
    }

    fn existence_round_into(
        &mut self,
        round: u32,
        population: u32,
        predicate: ExistencePredicate,
        replies: &mut Vec<NodeMessage>,
    ) {
        replies.clear();
        if round == 0 {
            self.st.mirrors[self.q].run_had_physical = false;
            if predicate == ExistencePredicate::PendingViolation && self.serve_pool(replies) {
                return;
            }
        }
        let phys_pred = self.remap_predicate(predicate);
        let qid = self.qid();
        let st = &mut *self.st;
        st.mirrors[self.q].run_had_physical = true;
        let mut raw = std::mem::take(&mut st.scratch);
        st.net
            .existence_round_into(round, population, phys_pred, &mut raw);
        let queries = st.mirrors.len();
        for msg in &raw {
            let g = msg.sender().index();
            let v = msg.value();
            if predicate == ExistencePredicate::PendingViolation {
                let mirror = &st.mirrors[self.q];
                let deliver = mirror.local_of[g]
                    .and_then(|l| mirror.bands[l as usize].check(v).map(|d| (l, d)));
                match deliver {
                    Some((l, direction)) => {
                        let ei = st.pool.upsert(g, v, queries);
                        let entry = &mut st.pool.entries[ei];
                        if entry.charged {
                            // A repeat report by the same node this step (a
                            // later detection run of the same or another
                            // query): a fresh physical message, charged to
                            // its receiver outright.
                            st.ledger.charge_exclusive(qid, 1);
                        } else {
                            entry.charged = true;
                            match entry.ledger_entry {
                                Some(e) => st.ledger.add_sharer(e, qid),
                                None => entry.ledger_entry = Some(st.ledger.open_shared(qid)),
                            }
                        }
                        entry.served[self.q] = true;
                        st.deliveries.push((qid, NodeId(g)));
                        replies.push(NodeMessage::ViolationReport {
                            node: NodeId(l as usize),
                            value: v,
                            direction,
                        });
                    }
                    None => {
                        // A stray: the node violates its effective filter but
                        // not this query's band (or sits outside the subset).
                        // Pool it for a later consumer and retract the charge
                        // until one exists.
                        st.net.meter().retract(MessageKind::Upstream, 1);
                        let _ = st.pool.upsert(g, v, queries);
                    }
                }
            } else {
                // Value predicates: in-subset responders are delivered in
                // local coordinates, out-of-subset responders are artifacts
                // of the shared engine and are retracted.
                match st.mirrors[self.q].local_of[g] {
                    Some(l) => {
                        st.ledger.charge_exclusive(qid, 1);
                        replies.push(with_sender(msg, NodeId(l as usize)));
                    }
                    None => st.net.meter().retract(MessageKind::Upstream, 1),
                }
            }
        }
        st.scratch = raw;
    }

    fn end_existence_run(&mut self) {
        let st = &mut *self.st;
        if st.mirrors[self.q].run_had_physical {
            st.net.end_existence_run();
            st.ledger.charge_exclusive(QueryId(self.q as u32), 1);
        }
        // A fully pool-served run was physically silent: no node took part,
        // so no end-of-run announcement is needed (or charged).
    }

    fn meter(&mut self) -> &mut CostMeter {
        self.st.net.meter()
    }

    fn stats(&self) -> CommStats {
        self.st.net.stats()
    }

    fn peek_value(&self, node: NodeId) -> Value {
        let g = self.to_global(node);
        self.st.net.peek_value(g)
    }

    fn peek_filter(&self, node: NodeId) -> Filter {
        self.st.mirrors[self.q].bands[node.index()]
    }

    fn peek_group(&self, node: NodeId) -> NodeGroup {
        self.st.mirrors[self.q].groups[node.index()]
    }
}

/// The genuinely multi-query driver. See the module docs for the semantics.
fn run_multi(
    set: &mut QuerySet,
    net: &mut dyn Network,
    mut next_row: impl FnMut(&[Filter]) -> Option<Vec<Value>>,
    mut events_at: impl FnMut(u64) -> Vec<MembershipEvent>,
    mut observer: impl FnMut(QueryStepObservation<'_>),
) -> QuerySetReport {
    let n = net.n();
    let queries = set.queries.len();
    let mut cover: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut mirrors = Vec::with_capacity(queries);
    for (qi, rq) in set.queries.iter().enumerate() {
        let subset: Vec<usize> = rq.subset.iter().map(|id| id.index()).collect();
        let mut local_of = vec![None; n];
        for (l, &g) in subset.iter().enumerate() {
            local_of[g] = Some(l as u32);
            cover[g].push(qi as u32);
        }
        let m = subset.len();
        mirrors.push(QueryMirror {
            subset,
            local_of,
            bands: vec![Filter::FULL; m],
            groups: vec![NodeGroup::Lower; m],
            params: None,
            run_had_physical: false,
        });
    }
    let mut st = MultiState {
        net,
        mirrors,
        cover,
        pool: StepPool::new(n),
        ledger: QueryCostLedger::new(queries),
        deliveries: Vec::new(),
        scratch: Vec::new(),
        push_buf: Vec::new(),
    };
    let start_messages = st.net.meter().total_messages();
    let mut steps = 0u64;
    let mut delta: Value = 0;
    let mut invalid = vec![0u64; queries];
    let mut inexact = vec![0u64; queries];
    let mut filters: Vec<Filter> = Vec::new();
    let mut outputs: Vec<Vec<NodeId>> = vec![Vec::new(); queries];
    let mut valid = vec![true; queries];
    loop {
        st.net.peek_filters_into(&mut filters);
        let Some(row) = next_row(&filters) else {
            break;
        };
        assert_eq!(
            row.len(),
            n,
            "observation row has {} entries for {n} nodes",
            row.len()
        );
        assert!(
            events_at(steps).is_empty(),
            "membership churn under multi-query monitoring is not supported (see docs/QUERIES.md)"
        );
        st.net.advance_time(&row);
        st.pool.reset();
        for (qi, rq) in set.queries.iter_mut().enumerate() {
            let mut view = QueryView { st: &mut st, q: qi };
            rq.monitor.process_step(&mut view);
        }
        st.ledger.settle_step();
        for (qi, rq) in set.queries.iter().enumerate() {
            let local_row: Vec<Value> = rq.subset.iter().map(|id| row[id.index()]).collect();
            let out_local = rq.monitor.output();
            let view = TopKView::new(&local_row, rq.spec.k, rq.spec.eps);
            valid[qi] = view.validate_output(&out_local).is_valid();
            if !valid[qi] {
                invalid[qi] += 1;
            }
            if !view.validate_exact(&out_local) {
                inexact[qi] += 1;
            }
            outputs[qi].clear();
            outputs[qi].extend(out_local.iter().map(|l| rq.subset[l.index()]));
        }
        let messages_total = st.net.meter().total_messages();
        observer(QueryStepObservation {
            step: steps,
            row: &row,
            outputs: &outputs,
            valid: &valid,
            messages_total,
            units: st.ledger.per_query_units(),
        });
        steps += 1;
        delta = delta.max(row.iter().copied().max().unwrap_or(0));
    }
    let wire = st.net.meter().total_messages() - start_messages;
    assert_eq!(
        st.ledger.total_units(),
        wire * SPLIT_SCALE,
        "split-charge ledger must sum to the attributed wire total"
    );
    let per_query = (0..queries)
        .map(|qi| QueryRunReport {
            query: QueryId(qi as u32),
            steps,
            invalid_steps: invalid[qi],
            inexact_steps: inexact[qi],
            units: st.ledger.units(QueryId(qi as u32)),
        })
        .collect();
    QuerySetReport {
        steps,
        stats: st.net.stats(),
        delta,
        per_query,
        deliveries: std::mem::take(&mut st.deliveries),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::run_on_rows;
    use crate::topk_protocol::TopKMonitor;
    use topk_net::DeterministicEngine;

    fn ramp_rows(n: usize, steps: usize) -> Vec<Vec<Value>> {
        // A workload with regular lead changes so violations actually occur.
        (0..steps)
            .map(|t| {
                (0..n)
                    .map(|i| 100 + ((i * 13 + t * 29) % 97) as Value)
                    .collect()
            })
            .collect()
    }

    fn oscillator_rows(n: usize, steps: usize) -> Vec<Vec<Value>> {
        // One node oscillates across the top-k boundary inside a stable
        // field: every step has a violation, and its resolution is cheap —
        // the regime where report sharing amortizes best.
        (0..steps)
            .map(|t| {
                (0..n)
                    .map(|i| {
                        if i == n / 2 {
                            if t % 2 == 0 {
                                2000
                            } else {
                                100
                            }
                        } else {
                            1000 + (i as Value) * 10
                        }
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn solo_query_set_is_bit_identical_to_the_legacy_run() {
        let rows = ramp_rows(12, 20);
        let mut legacy_net = DeterministicEngine::new(12, 7);
        let mut legacy = TopKMonitor::new(3, Epsilon::TENTH);
        let legacy_report = run_on_rows(&mut legacy, &mut legacy_net, rows.clone(), Epsilon::TENTH);

        let mut net = DeterministicEngine::new(12, 7);
        let mut set = QuerySet::new(12);
        let q = set.register(
            QuerySpec::new(3, Epsilon::TENTH, "topk"),
            Box::new(TopKMonitor::new(3, Epsilon::TENTH)),
        );
        assert_eq!(q, QueryId(0));
        assert!(set.is_solo());
        let report = run_query_set(&mut set, &mut net, rows);

        assert_eq!(report.steps, legacy_report.steps);
        assert_eq!(report.stats, legacy_report.stats);
        assert_eq!(report.delta, legacy_report.delta);
        assert_eq!(
            report.per_query[0].invalid_steps,
            legacy_report.invalid_steps
        );
        assert_eq!(
            report.per_query[0].inexact_steps,
            legacy_report.inexact_steps
        );
        assert_eq!(
            report.per_query[0].units,
            legacy_report.stats.total_messages() * SPLIT_SCALE
        );
        assert_eq!(legacy_net.peek_filters(), net.peek_filters());
        assert_eq!(legacy_net.peek_values(), net.peek_values());
    }

    #[test]
    fn twin_queries_share_violation_reports() {
        let rows = oscillator_rows(16, 40);
        let mut net = DeterministicEngine::new(16, 42);
        let mut set = QuerySet::new(16);
        for _ in 0..2 {
            set.register(
                QuerySpec::new(4, Epsilon::TENTH, "topk"),
                Box::new(TopKMonitor::new(4, Epsilon::TENTH)),
            );
        }
        assert!(!set.is_solo());
        let report = run_query_set(&mut set, &mut net, rows.clone());
        assert_eq!(report.steps, 40);
        assert_eq!(
            report.total_units(),
            report.messages() * SPLIT_SCALE,
            "attribution must cover the wire total exactly"
        );
        // Both queries monitor identical bands, so at least one physical
        // report must have been shared through the pool: some node delivered
        // to both queries.
        let q0: std::collections::HashSet<NodeId> = report
            .deliveries
            .iter()
            .filter(|(q, _)| *q == QueryId(0))
            .map(|&(_, n)| n)
            .collect();
        let shared = report
            .deliveries
            .iter()
            .any(|(q, n)| *q == QueryId(1) && q0.contains(n));
        assert!(shared, "twin queries never shared a report");
        // Both queries must stay valid: the joint run may not degrade either.
        assert_eq!(report.per_query[0].invalid_steps, 0);
        assert_eq!(report.per_query[1].invalid_steps, 0);
        // And the joint run must beat two independent runs.
        let mut solo_net = DeterministicEngine::new(16, 11);
        let mut solo = TopKMonitor::new(4, Epsilon::TENTH);
        let solo_report = run_on_rows(&mut solo, &mut solo_net, rows, Epsilon::TENTH);
        assert!(
            report.messages() < 2 * solo_report.messages(),
            "joint {} must amortize below 2 × {}",
            report.messages(),
            solo_report.messages()
        );
    }

    #[test]
    fn disjoint_queries_never_cross_deliver() {
        let rows = ramp_rows(16, 25);
        let mut net = DeterministicEngine::new(16, 3);
        let mut set = QuerySet::new(16);
        set.register(
            QuerySpec::new(2, Epsilon::TENTH, "topk").with_subset(NodeSubset::range(0, 8)),
            Box::new(TopKMonitor::new(2, Epsilon::TENTH)),
        );
        set.register(
            QuerySpec::new(2, Epsilon::TENTH, "topk").with_subset(NodeSubset::range(8, 8)),
            Box::new(TopKMonitor::new(2, Epsilon::TENTH)),
        );
        let report = run_query_set(&mut set, &mut net, rows);
        assert!(!report.deliveries.is_empty());
        for &(q, node) in &report.deliveries {
            let subset = set.subset(q);
            assert!(
                subset.contains(&node),
                "{q} received a report from {node} outside its subset"
            );
        }
        assert_eq!(report.total_units(), report.messages() * SPLIT_SCALE);
        // Each query's output stays inside its subset.
        assert_eq!(report.per_query[0].invalid_steps, 0);
        assert_eq!(report.per_query[1].invalid_steps, 0);
    }

    #[test]
    fn overlapping_queries_with_different_k_stay_valid() {
        let rows = ramp_rows(12, 20);
        let mut net = DeterministicEngine::new(12, 5);
        let mut set = QuerySet::new(12);
        set.register(
            QuerySpec::new(2, Epsilon::TENTH, "topk"),
            Box::new(TopKMonitor::new(2, Epsilon::TENTH)),
        );
        set.register(
            QuerySpec::new(5, Epsilon::HALF, "topk"),
            Box::new(TopKMonitor::new(5, Epsilon::HALF)),
        );
        let report = run_query_set(&mut set, &mut net, rows);
        assert_eq!(report.per_query[0].invalid_steps, 0);
        assert_eq!(report.per_query[1].invalid_steps, 0);
        assert_eq!(report.total_units(), report.messages() * SPLIT_SCALE);
    }

    #[test]
    #[should_panic(expected = "must be below the size of its subset")]
    fn register_rejects_k_larger_than_subset() {
        let mut set = QuerySet::new(8);
        set.register(
            QuerySpec::new(5, Epsilon::HALF, "topk").with_subset(NodeSubset::range(0, 4)),
            Box::new(TopKMonitor::new(5, Epsilon::HALF)),
        );
    }

    #[test]
    #[should_panic(expected = "must be below the size of its subset")]
    fn register_rejects_k_equal_to_subset() {
        let mut set = QuerySet::new(8);
        set.register(
            QuerySpec::new(4, Epsilon::HALF, "topk").with_subset(NodeSubset::range(0, 4)),
            Box::new(TopKMonitor::new(4, Epsilon::HALF)),
        );
    }

    #[test]
    #[should_panic(expected = "not supported")]
    fn multi_query_rejects_membership_events() {
        let mut net = DeterministicEngine::new(8, 1);
        let mut set = QuerySet::new(8);
        for _ in 0..2 {
            set.register(
                QuerySpec::new(2, Epsilon::HALF, "topk"),
                Box::new(TopKMonitor::new(2, Epsilon::HALF)),
            );
        }
        let mut rows = ramp_rows(8, 3).into_iter();
        run_query_set_observed(
            &mut set,
            &mut net,
            move |_| rows.next(),
            |_| vec![MembershipEvent::Leave(NodeId(0))],
            |_| {},
        );
    }

    #[test]
    fn observer_sees_per_query_outputs_and_units() {
        let rows = ramp_rows(8, 5);
        let mut net = DeterministicEngine::new(8, 2);
        let mut set = QuerySet::new(8);
        for k in [1usize, 3] {
            set.register(
                QuerySpec::new(k, Epsilon::HALF, "topk"),
                Box::new(TopKMonitor::new(k, Epsilon::HALF)),
            );
        }
        let mut steps_seen = 0u64;
        let mut rows_iter = rows.into_iter();
        run_query_set_observed(
            &mut set,
            &mut net,
            move |_| rows_iter.next(),
            |_| Vec::new(),
            |obs| {
                assert_eq!(obs.outputs.len(), 2);
                assert_eq!(obs.outputs[0].len(), 1);
                assert_eq!(obs.outputs[1].len(), 3);
                assert_eq!(obs.valid.len(), 2);
                assert_eq!(obs.units.len(), 2);
                assert_eq!(obs.step, steps_seen);
                steps_seen += 1;
            },
        );
    }
}
