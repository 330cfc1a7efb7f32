//! The benchmark's only contact with the repository's API.
//!
//! Everything the runner needs from the system under test goes through this
//! file: loading a workload's scenario file, building an engine and the
//! workload's `QuerySet` of the paper's monitors, and driving them through
//! the public query-set driver `run_query_set_observed`. If the repository
//! renames the driver or the engines, this is the file to update.
//!
//! For the traced run, [`Traced`] wraps an engine and [`TracedMonitor`] wraps
//! each monitor. Both time every call into the layer below from outside, so
//! the per-layer numbers need no spans inside the program.

use std::cell::{Cell, RefCell};
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

use topk_bench::campaign::ProtocolKind;
use topk_bench::scenario::{load_scenario, ScenarioFile};
use topk_core::monitor::Monitor;
use topk_core::queryset::{run_query_set_observed, QuerySet};
use topk_gen::AdaptiveWorkload;
use topk_model::message::ExistencePredicate;
use topk_model::prelude::*;
use topk_net::{IndexedEngine, Network, RemoteEngine};

/// Which engine a workload runs on.
#[derive(Clone, Copy)]
pub enum EngineChoice {
    /// The single-threaded value-indexed engine.
    Indexed,
    /// The TCP engine over loopback, one shard client per connection.
    Remote { connections: usize },
}

impl EngineChoice {
    /// Short description for the report.
    pub fn describe(self) -> String {
        match self {
            EngineChoice::Indexed => "indexed".to_string(),
            EngineChoice::Remote { connections } => format!("remote, {connections} connection"),
        }
    }
}

/// A workload's scenario file, checked to carry a query plan.
pub struct Workload {
    file: ScenarioFile,
}

impl Workload {
    /// Loads `path` with the repository's scenario loader, which also
    /// rejects unknown protocol names.
    pub fn load(path: &Path) -> Result<Workload, String> {
        let file = load_scenario(path).map_err(|e| e.to_string())?;
        if file.queries.is_none() {
            return Err(format!(
                "{}: the benchmark needs a `queries` array",
                path.display()
            ));
        }
        Ok(Workload { file })
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.file.spec.n
    }

    /// The seed the file names.
    pub fn seed(&self) -> u64 {
        self.file.spec.seed
    }

    /// Number of queries in the plan.
    pub fn queries(&self) -> usize {
        self.queries_spec().len()
    }

    fn queries_spec(&self) -> &[QuerySpec] {
        self.file
            .queries
            .as_deref()
            .expect("checked by Workload::load")
    }

    /// Builds a fresh system: engine, query set and generator, all seeded
    /// with `seed`. With a tracer, the engine and every monitor are wrapped.
    pub fn build(&self, engine: EngineChoice, seed: u64, tracer: Option<&Rc<Tracer>>) -> Instance {
        let spec = &self.file.spec;
        let net = match engine {
            EngineChoice::Indexed => boxed(IndexedEngine::new(spec.n, seed), tracer),
            EngineChoice::Remote { connections } => {
                boxed(RemoteEngine::with_shards(spec.n, seed, connections), tracer)
            }
        };
        let mut set = QuerySet::new(spec.n);
        for q in self.queries_spec() {
            let kind =
                ProtocolKind::from_name(&q.protocol).expect("checked by the scenario loader");
            let monitor = kind.build_monitor(q.k, q.eps);
            let monitor: Box<dyn Monitor> = match tracer {
                Some(t) => Box::new(TracedMonitor {
                    inner: monitor,
                    tracer: Rc::clone(t),
                }),
                None => monitor,
            };
            set.register(q.clone(), monitor);
        }
        let gen = spec.generator.build(spec.n, spec.k, spec.eps, seed);
        Instance { net, set, gen }
    }
}

fn boxed<E: Engine + 'static>(engine: E, tracer: Option<&Rc<Tracer>>) -> Box<dyn Engine> {
    match tracer {
        Some(t) => Box::new(Traced::new(engine, Rc::clone(t))),
        None => Box::new(engine),
    }
}

/// Wire counters of an engine, both directions summed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Wire {
    pub frames: u64,
    pub bytes: u64,
}

/// An engine the benchmark can run: a [`Network`] that reports its wire
/// traffic (none for the in-process engines).
pub trait Engine: Network {
    fn wire(&self) -> Wire {
        Wire::default()
    }
}

impl Engine for IndexedEngine {}

impl Engine for RemoteEngine {
    fn wire(&self) -> Wire {
        let t = self.transport_stats();
        Wire {
            frames: t.frames(),
            bytes: t.bytes(),
        }
    }
}

impl<E: Engine> Engine for Traced<E> {
    fn wire(&self) -> Wire {
        self.inner.wire()
    }
}

/// What the driver reports about one completed step.
pub struct StepView<'a> {
    /// When the step began: the return of the previous observer callback.
    pub start: Instant,
    /// When the step ended: the entry of this step's observer callback.
    pub end: Instant,
    /// Time the generator took to produce this step's row.
    pub gen_ns: u64,
    /// Per-query validity verdicts of the driver, in registration order.
    pub valid: &'a [bool],
    /// Cumulative model messages, this step included.
    pub messages_total: u64,
    /// Digest of every query's output at this step.
    pub outputs_digest: u64,
}

impl StepView<'_> {
    /// The step's wall time without the generator's share.
    pub fn busy_ns(&self) -> u64 {
        let wall = self.end.duration_since(self.start).as_nanos() as u64;
        wall.saturating_sub(self.gen_ns)
    }
}

/// The runner's side of a closed-loop run.
pub trait Pace {
    /// Asked before each row is generated; `false` ends the run.
    fn more(&mut self) -> bool;
    /// Told about each completed step, outside the step's timing.
    fn after(&mut self, step: &StepView<'_>);
}

/// What a finished run leaves behind.
pub struct RunEnd {
    /// Final communication statistics of the engine.
    pub stats: CommStats,
    pub wire: Wire,
    /// Violation reports the multi-query router delivered (0 on the solo path).
    pub deliveries: usize,
}

/// One built system, ready to run once.
pub struct Instance {
    net: Box<dyn Engine>,
    set: QuerySet,
    gen: Box<dyn AdaptiveWorkload>,
}

impl Instance {
    /// Runs the closed loop: the driver asks for row t + 1 only after step
    /// t's outputs were validated and reported to `pace`.
    pub fn run(&mut self, pace: &mut dyn Pace) -> RunEnd {
        let Instance { net, set, gen } = self;
        let pace = RefCell::new(pace);
        let gen_ns = Cell::new(0u64);
        let start = Cell::new(Instant::now());
        let report = run_query_set_observed(
            set,
            &mut **net,
            |filters| {
                if !pace.borrow_mut().more() {
                    return None;
                }
                let t = Instant::now();
                let row = gen.next_step_adaptive(filters);
                gen_ns.set(t.elapsed().as_nanos() as u64);
                Some(row)
            },
            |_| Vec::new(),
            |obs| {
                let end = Instant::now();
                let mut digest = Fnv::new();
                for output in obs.outputs {
                    digest.add(output.len() as u64);
                    for id in output {
                        digest.add(id.index() as u64);
                    }
                }
                pace.borrow_mut().after(&StepView {
                    start: start.get(),
                    end,
                    gen_ns: gen_ns.get(),
                    valid: obs.valid,
                    messages_total: obs.messages_total,
                    outputs_digest: digest.0,
                });
                start.set(Instant::now());
            },
        );
        RunEnd {
            stats: report.stats,
            wire: net.wire(),
            deliveries: report.deliveries.len(),
        }
    }
}

/// 64-bit FNV-1a over words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn add(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// An engine layer the traced run times.
#[derive(Clone, Copy)]
pub enum Layer {
    /// Observation delivery (`advance_time`), band checks included.
    Deliver,
    /// Existence rounds and their end-of-run announcements.
    Existence,
    /// Unicast and query-scoped filter or group assignment.
    Assign,
    /// Parameter and group broadcasts.
    Broadcast,
    /// Value probes.
    Probe,
    /// Free inspection by the driver.
    Peek,
    /// Everything else the engine is asked (stats, membership).
    Other,
}

const LAYERS: usize = 7;

/// Cumulative counters of a traced run. Subtract two snapshots to get a
/// window's share.
#[derive(Clone, Copy, Default)]
pub struct LayerTotals {
    /// Time inside each engine layer, indexed by `Layer as usize`.
    pub ns: [u64; LAYERS],
    /// Calls into each engine layer.
    pub calls: [u64; LAYERS],
    /// Existence rounds run, and those that drew at least one reply.
    pub rounds: u64,
    pub useful_rounds: u64,
    /// Replies collected by existence rounds.
    pub replies: u64,
    /// Time inside the monitors' `process_step`, engine calls included.
    pub protocol_ns: u64,
    /// Engine time spent inside the monitors' `process_step`.
    pub protocol_engine_ns: u64,
}

impl LayerTotals {
    pub fn ns(&self, layer: Layer) -> u64 {
        self.ns[layer as usize]
    }

    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer as usize]
    }

    /// Time inside the engine, all layers.
    pub fn engine_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// The counters accumulated since `earlier`.
    pub fn since(&self, earlier: &LayerTotals) -> LayerTotals {
        let mut out = *self;
        for i in 0..LAYERS {
            out.ns[i] -= earlier.ns[i];
            out.calls[i] -= earlier.calls[i];
        }
        out.rounds -= earlier.rounds;
        out.useful_rounds -= earlier.useful_rounds;
        out.replies -= earlier.replies;
        out.protocol_ns -= earlier.protocol_ns;
        out.protocol_engine_ns -= earlier.protocol_engine_ns;
        out
    }
}

/// Shared sink of the traced run's counters.
#[derive(Default)]
pub struct Tracer {
    totals: RefCell<LayerTotals>,
}

impl Tracer {
    pub fn snapshot(&self) -> LayerTotals {
        *self.totals.borrow()
    }

    fn span<R>(&self, layer: Layer, call: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let out = call();
        let ns = t.elapsed().as_nanos() as u64;
        let mut totals = self.totals.borrow_mut();
        totals.ns[layer as usize] += ns;
        totals.calls[layer as usize] += 1;
        out
    }

    fn round(&self, replies: usize) {
        let mut totals = self.totals.borrow_mut();
        totals.rounds += 1;
        totals.replies += replies as u64;
        if replies > 0 {
            totals.useful_rounds += 1;
        }
    }
}

/// An engine whose every [`Network`] call is timed into a [`Tracer`].
///
/// Every trait method is forwarded, provided ones included, so an engine's
/// own override is never bypassed and the traced run stays bit-identical to
/// the bare engine.
pub struct Traced<N> {
    inner: N,
    tracer: Rc<Tracer>,
}

impl<N> Traced<N> {
    pub fn new(inner: N, tracer: Rc<Tracer>) -> Traced<N> {
        Traced { inner, tracer }
    }
}

impl<N: Network> Network for Traced<N> {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn advance_time(&mut self, values: &[Value]) {
        self.tracer
            .span(Layer::Deliver, || self.inner.advance_time(values))
    }

    fn advance_time_sparse(&mut self, changes: &[(NodeId, Value)]) {
        self.tracer
            .span(Layer::Deliver, || self.inner.advance_time_sparse(changes))
    }

    fn apply_membership(&mut self, events: &[MembershipEvent]) {
        self.tracer
            .span(Layer::Other, || self.inner.apply_membership(events))
    }

    fn broadcast_params(&mut self, params: FilterParams) {
        self.tracer
            .span(Layer::Broadcast, || self.inner.broadcast_params(params))
    }

    fn assign_group(&mut self, node: NodeId, group: NodeGroup) {
        self.tracer
            .span(Layer::Assign, || self.inner.assign_group(node, group))
    }

    fn broadcast_group(&mut self, group: NodeGroup) {
        self.tracer
            .span(Layer::Broadcast, || self.inner.broadcast_group(group))
    }

    fn assign_filter(&mut self, node: NodeId, filter: Filter) {
        self.tracer
            .span(Layer::Assign, || self.inner.assign_filter(node, filter))
    }

    fn assign_query_filter(&mut self, query: QueryId, node: NodeId, filter: Filter) {
        self.tracer.span(Layer::Assign, || {
            self.inner.assign_query_filter(query, node, filter)
        })
    }

    fn load_query_filters(&mut self, filters: &[(NodeId, Filter)]) {
        self.tracer
            .span(Layer::Assign, || self.inner.load_query_filters(filters))
    }

    fn probe(&mut self, node: NodeId) -> Value {
        self.tracer.span(Layer::Probe, || self.inner.probe(node))
    }

    fn existence_round(
        &mut self,
        round: u32,
        population: u32,
        predicate: ExistencePredicate,
    ) -> Vec<NodeMessage> {
        let replies = self.tracer.span(Layer::Existence, || {
            self.inner.existence_round(round, population, predicate)
        });
        self.tracer.round(replies.len());
        replies
    }

    fn existence_round_into(
        &mut self,
        round: u32,
        population: u32,
        predicate: ExistencePredicate,
        replies: &mut Vec<NodeMessage>,
    ) {
        self.tracer.span(Layer::Existence, || {
            self.inner
                .existence_round_into(round, population, predicate, replies)
        });
        self.tracer.round(replies.len());
    }

    fn end_existence_run(&mut self) {
        self.tracer
            .span(Layer::Existence, || self.inner.end_existence_run())
    }

    fn meter(&mut self) -> &mut CostMeter {
        self.inner.meter()
    }

    fn stats(&self) -> CommStats {
        self.tracer.span(Layer::Other, || self.inner.stats())
    }

    fn peek_value(&self, node: NodeId) -> Value {
        self.tracer
            .span(Layer::Peek, || self.inner.peek_value(node))
    }

    fn peek_filter(&self, node: NodeId) -> Filter {
        self.tracer
            .span(Layer::Peek, || self.inner.peek_filter(node))
    }

    fn peek_group(&self, node: NodeId) -> NodeGroup {
        self.tracer
            .span(Layer::Peek, || self.inner.peek_group(node))
    }

    fn peek_filters(&self) -> Vec<Filter> {
        self.tracer.span(Layer::Peek, || self.inner.peek_filters())
    }

    fn peek_values(&self) -> Vec<Value> {
        self.tracer.span(Layer::Peek, || self.inner.peek_values())
    }

    fn peek_filters_into(&self, out: &mut Vec<Filter>) {
        self.tracer
            .span(Layer::Peek, || self.inner.peek_filters_into(out))
    }

    fn peek_values_into(&self, out: &mut Vec<Value>) {
        self.tracer
            .span(Layer::Peek, || self.inner.peek_values_into(out))
    }
}

/// A monitor whose `process_step` is timed, with the engine time nested in
/// it recorded separately so the protocol's self time can be derived.
struct TracedMonitor {
    inner: Box<dyn Monitor>,
    tracer: Rc<Tracer>,
}

impl Monitor for TracedMonitor {
    fn k(&self) -> usize {
        self.inner.k()
    }

    fn eps(&self) -> Option<Epsilon> {
        self.inner.eps()
    }

    fn process_step(&mut self, net: &mut dyn Network) {
        let engine_before = self.tracer.snapshot().engine_ns();
        let t = Instant::now();
        self.inner.process_step(net);
        let ns = t.elapsed().as_nanos() as u64;
        let mut totals = self.tracer.totals.borrow_mut();
        let nested = totals.engine_ns() - engine_before;
        totals.protocol_ns += ns;
        totals.protocol_engine_ns += nested;
    }

    fn output(&self) -> Vec<NodeId> {
        self.inner.output()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topk_net::{IndexedEngine, RemoteEngine};

    /// Runs four overlapping queries under three protocols for `steps` steps
    /// on `net` (bare or traced), so query-scoped assignment runs beside
    /// existence rounds, and returns what a bit-identity check compares.
    fn drive<N: Engine>(mut net: N, steps: u64) -> (CommStats, Vec<Filter>, Vec<Value>, Wire) {
        // A small population keeps the debug-build test fast.
        let n = net.n();
        let eps = Epsilon::new(1, 10).unwrap();
        let nodes = |ids: Vec<usize>| NodeSubset::Nodes(ids.into_iter().map(NodeId).collect());
        let plan = [
            ("topk_protocol", nodes((0..n * 3 / 4).collect())),
            ("topk_protocol", nodes((n / 4..n).collect())),
            ("half_eps", nodes((0..n).step_by(2).collect())),
            ("combined", NodeSubset::All),
        ];
        let mut set = QuerySet::new(n);
        for (protocol, subset) in plan {
            let spec = QuerySpec {
                k: 4,
                eps,
                protocol: protocol.to_string(),
                subset,
            };
            let kind = ProtocolKind::from_name(protocol).unwrap();
            set.register(spec, kind.build_monitor(4, eps));
        }
        let workload = Workload::load(&crate::workload_path("dense-noise")).unwrap();
        let mut gen = workload.file.spec.generator.build(n, 4, eps, 7);
        let mut left = steps;
        run_query_set_observed(
            &mut set,
            &mut net,
            |filters| {
                left = left.checked_sub(1)?;
                Some(gen.next_step_adaptive(filters))
            },
            |_| Vec::new(),
            |obs| assert!(obs.valid.iter().all(|&v| v)),
        );
        (
            net.stats(),
            net.peek_filters(),
            net.peek_values(),
            net.wire(),
        )
    }

    #[test]
    fn traced_indexed_engine_is_bit_identical() {
        let tracer = Rc::new(Tracer::default());
        let bare = drive(IndexedEngine::new(96, 7), 120);
        let traced = drive(
            Traced::new(IndexedEngine::new(96, 7), Rc::clone(&tracer)),
            120,
        );
        assert_eq!(bare, traced);
        let totals = tracer.snapshot();
        assert!(totals.rounds > 0 && totals.calls(Layer::Deliver) == 120);
        assert!(totals.calls(Layer::Assign) > 0 && totals.calls(Layer::Peek) > 0);
    }

    #[test]
    fn traced_remote_engine_is_bit_identical() {
        let tracer = Rc::new(Tracer::default());
        let bare = drive(RemoteEngine::with_shards(96, 7, 1), 60);
        let traced = drive(
            Traced::new(RemoteEngine::with_shards(96, 7, 1), Rc::clone(&tracer)),
            60,
        );
        assert_eq!(bare, traced);
        assert!(bare.3.frames > 0 && bare.3.bytes > bare.3.frames);
        assert_eq!(tracer.snapshot().calls(Layer::Deliver), 60);
    }

    #[test]
    fn every_workload_loads_and_registers() {
        for spec in crate::WORKLOADS {
            let workload = Workload::load(&crate::workload_path(spec.name)).unwrap();
            assert_eq!(workload.file.name, spec.name);
            let instance = workload.build(EngineChoice::Indexed, workload.seed(), None);
            assert_eq!(instance.set.len(), workload.queries());
            assert_eq!(instance.net.n(), workload.n());
        }
    }
}
