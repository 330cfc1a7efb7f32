//! The scenario campaign: every file of the `scenarios/` library run under
//! every protocol, with empirical competitive ratios ratcheted in CI.
//!
//! The paper's entire contribution is *competitive analysis* — message counts
//! of the online protocols measured against the offline OPT (Cor. 3.3,
//! Thm. 4.5, Thm. 5.8, Cor. 5.9) — yet a benchmark that only tracks steps/sec
//! would happily wave through a protocol change that doubles message counts.
//! The campaign closes that gap.
//!
//! **The library is the campaign.** Each scenario file ([`ScenarioFile`]) is
//! one workload, and [`run_file`] turns it into [`Cell`]s: one per protocol,
//! or a single cell for a file with a `queries` plan. There is one runner
//! ([`run_cell`]): the indexed engine — wrapped in a [`FaultyTransport`] when
//! the file has a fault plan — driven by `run_query_set_observed` as a
//! one-query set, with the file's membership schedule, if any. OPT
//! (`topk-offline`) decomposes exactly the rows the driver delivered, so
//! adaptive families (the Theorem 5.1 adversary) are measured on the trace
//! they realised against each protocol's filters, and churned populations on
//! the masked rows the model holds. A file's *companion* — its fault and/or
//! membership plan — adds a [`Degradation`] block measured against the
//! *clean twin*, the same file run without its companion. A query plan runs
//! jointly on one shared engine and is measured against the same queries run
//! independently ([`Amortization`]).
//!
//! [`run_campaign`] writes `BENCH_competitive.json` ([`CompetitiveReport`]):
//! one cell per (file name, protocol), each carrying the CRC-32 [`digest`] of
//! its file's canonical bytes. [`check_competitive_floors`] is the one
//! checker. It holds every cell to the bars of [`FloorTable::STANDARD`]
//! (tightened, never loosened, by the file's `floors` override), recomputes
//! every ratio from its counts, requires every ceiling to equal the floor
//! formula, demands protocol × family, fault-family, churn-plan and
//! plan-shape coverage, and fails on a missing, extra or stale cell.
//! [`check_against_baseline`] is the ratchet's teeth: CI re-measures the
//! quick selection — every file with at most [`QUICK_MAX_N`] nodes, at its
//! full length — and holds each fresh ratio to the ceiling committed for the
//! same (file, protocol) key. Every generator, fault plan, churn plan, engine
//! and protocol is deterministic under its seed, so a regression is a
//! reviewable diff of the committed JSON, never noise.

use crate::floors::{CompetitiveFloors, FloorTable};
use crate::scenario::{scenario_to_json, ScenarioFile};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use topk_core::monitor::Monitor;
use topk_core::queryset::{
    run_query_set, run_query_set_observed, QuerySet, QuerySetReport, QueryStepObservation,
};
use topk_core::{CombinedMonitor, DenseMonitor, ExactTopKMonitor, HalfEpsMonitor, TopKMonitor};
use topk_gen::{
    AdaptiveWorkload, ChurnFlatlineWorkload, CorrelatedBurstWorkload, GapWorkload,
    LowerBoundAdversary, MembershipWorkload, NoiseOscillationWorkload, RandomWalkWorkload,
    RegimeSwitchWorkload, Trace, ZipfLoadWorkload,
};
use topk_model::prelude::*;
use topk_net::{FaultyTransport, IndexedEngine, Network};
use topk_offline::{ApproxOfflineOpt, ExactOfflineOpt, OfflineCost, PhaseSolver};

/// A workload generator plus its regime parameters, as serialisable data.
///
/// `build` instantiates the corresponding `topk-gen` generator; the scenario's
/// `n`, `k`, `ε` and seed are supplied by the surrounding [`ScenarioSpec`] so
/// one generator description can be swept over population sizes and errors.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum GeneratorSpec {
    /// Heavy-tailed web-server loads with independent per-node bursts.
    Zipf {
        /// Approximate load of the busiest node at the seasonal peak.
        peak_load: Value,
    },
    /// Dense ε-neighbourhood oscillation (`sigma` nodes around pivot `z`).
    Noise {
        /// Number of oscillating nodes.
        sigma: usize,
        /// Pivot value of the neighbourhood.
        z: Value,
    },
    /// Lazy bounded random walks on `{0, …, delta}`.
    RandomWalk {
        /// Upper bound of the walk.
        delta: Value,
        /// Largest single-step displacement.
        max_step: Value,
        /// Per-step move probability in permille.
        move_permille: u32,
    },
    /// Persistent multiplicative gap between ranks `k` and `k + 1`.
    Gap {
        /// Centre of the top group's values.
        high_base: Value,
    },
    /// The adaptive lower-bound adversary of Theorem 5.1.
    Adversarial {
        /// Number of nodes starting at the common value (`k < sigma ≤ n`).
        sigma: usize,
        /// The common starting value `y₀`.
        y0: Value,
    },
    /// Quiet → dense → adversarial regime cycling.
    RegimeSwitch {
        /// Size of the switching pack.
        sigma: usize,
        /// Pivot value of the dense segments.
        z: Value,
        /// Steps per regime segment.
        segment_len: u64,
    },
    /// Flash crowds hitting whole contiguous node groups at once.
    CorrelatedBurst {
        /// Approximate per-node base load.
        base_load: Value,
        /// Load multiplier while bursting.
        factor: u64,
        /// Nodes per burst group.
        group: usize,
        /// Per-step probability of a new burst, in permille.
        burst_permille: u32,
    },
    /// ε-neighbourhood population churn (nodes flat-line and come back).
    Churn {
        /// Pivot of the neighbourhood live nodes oscillate in.
        z: Value,
        /// Per-node per-step flip probability, in permille.
        churn_permille: u32,
    },
    /// Heavy-tailed web loads with an explicit seasonal period (the
    /// `examples/load_balancer.rs` workload; [`GeneratorSpec::Zipf`] pins the
    /// campaign's 200-step period).
    ZipfWeb {
        /// Approximate load of the busiest node at the seasonal peak.
        peak_load: Value,
        /// Steps per seasonal cycle.
        period: u64,
    },
    /// Dense oscillation with an explicit high-group size (the
    /// `examples/sensor_noise.rs` workload; [`GeneratorSpec::Noise`] derives
    /// the high group from `k`).
    NoiseField {
        /// Number of clearly-leading nodes.
        high: usize,
        /// Number of oscillating nodes.
        sigma: usize,
        /// Pivot value of the neighbourhood.
        z: Value,
    },
}

impl GeneratorSpec {
    /// Stable family name used as the coverage key in reports.
    pub fn family(&self) -> &'static str {
        match self {
            GeneratorSpec::Zipf { .. } => "zipf",
            GeneratorSpec::Noise { .. } => "noise",
            GeneratorSpec::RandomWalk { .. } => "random-walk",
            GeneratorSpec::Gap { .. } => "gap",
            GeneratorSpec::Adversarial { .. } => "adversarial",
            GeneratorSpec::RegimeSwitch { .. } => "regime-switch",
            GeneratorSpec::CorrelatedBurst { .. } => "correlated-burst",
            GeneratorSpec::Churn { .. } => "churn",
            GeneratorSpec::ZipfWeb { .. } => "zipf-web",
            GeneratorSpec::NoiseField { .. } => "noise-field",
        }
    }

    /// Instantiates the generator for one scenario.
    pub fn build(&self, n: usize, k: usize, eps: Epsilon, seed: u64) -> Box<dyn AdaptiveWorkload> {
        match *self {
            GeneratorSpec::Zipf { peak_load } => {
                Box::new(ZipfLoadWorkload::new(n, 1.1, peak_load, 200, 0.005, seed))
            }
            GeneratorSpec::Noise { sigma, z } => Box::new(NoiseOscillationWorkload::new(
                n,
                (k / 2).max(1),
                sigma,
                z,
                eps,
                seed,
            )),
            GeneratorSpec::RandomWalk {
                delta,
                max_step,
                move_permille,
            } => Box::new(RandomWalkWorkload::new(
                n,
                delta,
                max_step,
                f64::from(move_permille) / 1000.0,
                seed,
            )),
            GeneratorSpec::Gap { high_base } => {
                Box::new(GapWorkload::new(n, k, high_base, 16, 40, 0, seed))
            }
            // The adversary is deterministic given the filter history; the
            // seed intentionally plays no role (cf. Theorem 5.1).
            GeneratorSpec::Adversarial { sigma, y0 } => {
                Box::new(LowerBoundAdversary::new(n, k, sigma, y0, eps))
            }
            GeneratorSpec::RegimeSwitch {
                sigma,
                z,
                segment_len,
            } => Box::new(RegimeSwitchWorkload::new(
                n,
                k,
                sigma,
                z,
                eps,
                segment_len,
                seed,
            )),
            GeneratorSpec::CorrelatedBurst {
                base_load,
                factor,
                group,
                burst_permille,
            } => Box::new(CorrelatedBurstWorkload::new(
                n,
                base_load,
                factor,
                group,
                f64::from(burst_permille) / 1000.0,
                seed,
            )),
            GeneratorSpec::Churn { z, churn_permille } => Box::new(ChurnFlatlineWorkload::new(
                n,
                (k / 2).max(1),
                z,
                eps,
                f64::from(churn_permille) / 1000.0,
                seed,
            )),
            GeneratorSpec::ZipfWeb { peak_load, period } => Box::new(ZipfLoadWorkload::new(
                n, 1.1, peak_load, period, 0.005, seed,
            )),
            GeneratorSpec::NoiseField { high, sigma, z } => {
                Box::new(NoiseOscillationWorkload::new(n, high, sigma, z, eps, seed))
            }
        }
    }
}

/// Which offline adversary a protocol's competitive ratio is measured against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Adversary {
    /// The exact offline OPT (Cor. 3.3, Thm. 4.5).
    Exact,
    /// The ε-approximate offline OPT (Thm. 5.8).
    Approx,
    /// The ε/2-approximate offline OPT (Cor. 5.9).
    HalfEps,
}

/// One of the five online protocols of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ProtocolKind {
    /// `ExactTopKMonitor` — Corollary 3.3.
    ExactTopK,
    /// `TopKMonitor` (`TopKProtocol`) — Theorem 4.5.
    TopKProtocol,
    /// `DenseMonitor` (`DenseProtocol`) — Theorem 5.8.
    Dense,
    /// `CombinedMonitor` — the Theorem 5.8 dispatcher.
    Combined,
    /// `HalfEpsMonitor` — Corollary 5.9.
    HalfEps,
}

impl ProtocolKind {
    /// Every protocol, in report order.
    pub const ALL: [ProtocolKind; 5] = [
        ProtocolKind::ExactTopK,
        ProtocolKind::TopKProtocol,
        ProtocolKind::Dense,
        ProtocolKind::Combined,
        ProtocolKind::HalfEps,
    ];

    /// Stable protocol name used as the coverage key in reports.
    pub fn name(self) -> &'static str {
        match self {
            ProtocolKind::ExactTopK => "exact_topk",
            ProtocolKind::TopKProtocol => "topk_protocol",
            ProtocolKind::Dense => "dense",
            ProtocolKind::Combined => "combined",
            ProtocolKind::HalfEps => "half_eps",
        }
    }

    /// Parses a protocol from its [`ProtocolKind::name`] — the inverse used
    /// when rebuilding a monitor from a recorded trace header.
    pub fn from_name(name: &str) -> Option<ProtocolKind> {
        ProtocolKind::ALL.into_iter().find(|p| p.name() == name)
    }

    /// Instantiates the protocol's monitor.
    pub fn build_monitor(self, k: usize, eps: Epsilon) -> Box<dyn Monitor> {
        match self {
            ProtocolKind::ExactTopK => Box::new(ExactTopKMonitor::new(k)),
            ProtocolKind::TopKProtocol => Box::new(TopKMonitor::new(k, eps)),
            ProtocolKind::Dense => Box::new(DenseMonitor::new(k, eps)),
            ProtocolKind::Combined => Box::new(CombinedMonitor::new(k, eps)),
            ProtocolKind::HalfEps => Box::new(HalfEpsMonitor::new(k, eps)),
        }
    }

    /// The adversary the paper states each protocol's guarantee against.
    fn adversary(self) -> Adversary {
        match self {
            // Cor. 3.3 and Thm. 4.5 are stated against the exact OPT.
            ProtocolKind::ExactTopK | ProtocolKind::TopKProtocol => Adversary::Exact,
            // Thm. 5.8 is stated against the ε-approximate OPT.
            ProtocolKind::Dense | ProtocolKind::Combined => Adversary::Approx,
            // Cor. 5.9 is stated against the ε/2-approximate OPT.
            ProtocolKind::HalfEps => Adversary::HalfEps,
        }
    }
}

/// The workload of one scenario file: a generator configuration at a
/// concrete population size, `k`, error, horizon and seed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// The workload family and its regime parameters.
    pub generator: GeneratorSpec,
    /// Number of nodes.
    pub n: usize,
    /// Monitored `k`.
    pub k: usize,
    /// The online algorithms' error (also the validation error).
    pub eps: Epsilon,
    /// Number of observation steps.
    pub steps: usize,
    /// Workload seed (the engine derives its RNG streams from it too).
    pub seed: u64,
}

/// A `(label, count)` pair — the vendored serde stand-in encodes string-keyed
/// breakdowns as explicit pair lists.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LabelCount {
    /// Breakdown key (a protocol-phase label or a workload regime name).
    pub label: String,
    /// Messages attributed to the key.
    pub count: u64,
}

fn label_counts(map: BTreeMap<String, u64>) -> Vec<LabelCount> {
    map.into_iter()
        .map(|(label, count)| LabelCount { label, count })
        .collect()
}

/// A seeded membership churn plan, as serialisable data.
///
/// `build` instantiates `topk_gen::MembershipWorkload::churn` for a concrete
/// population and horizon; the spec pins everything else, so one spec plus a
/// [`ScenarioSpec`] fully determines the schedule (and therefore the cell).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MembershipPlanSpec {
    /// Churn plan seed.
    pub seed: u64,
    /// Per-live-node per-step leave probability, in permille.
    pub leave_permille: u32,
    /// Steps a leaver stays away before rejoining.
    pub downtime: u64,
    /// Floor on the live population (departures below it are skipped).
    pub min_live: usize,
}

impl MembershipPlanSpec {
    /// Instantiates the validated per-step schedule for one scenario.
    pub fn build(&self, n: usize, steps: u64) -> MembershipWorkload {
        MembershipWorkload::churn(
            n,
            steps,
            self.seed,
            self.leave_permille,
            self.downtime,
            self.min_live,
        )
    }

    /// Stable plan name used as the coverage key in reports.
    pub fn name(&self) -> String {
        format!(
            "churn-{}permille-d{}-floor{}",
            self.leave_permille, self.downtime, self.min_live
        )
    }
}

/// The quick selection's population bound: `--campaign --quick` runs every
/// library file with at most this many nodes, at its full length. Only the
/// large-`n` tractability probes fall outside it.
pub const QUICK_MAX_N: usize = 1024;

/// Whether `file` belongs to the quick selection (see [`QUICK_MAX_N`]).
pub fn is_quick(file: &ScenarioFile) -> bool {
    file.spec.n <= QUICK_MAX_N
}

/// CRC-32 of the file's canonical bytes ([`scenario_to_json`]): what ties a
/// committed cell to the exact scenario it measured.
pub fn digest(file: &ScenarioFile) -> u32 {
    topk_wire::crc32::crc32(scenario_to_json(file).as_bytes())
}

/// The key protocol of a query-plan cell: the plan's protocol names, in
/// registration order, joined by `+`.
fn plan_protocol(queries: &[QuerySpec]) -> String {
    let names: Vec<&str> = queries.iter().map(|q| q.protocol.as_str()).collect();
    names.join("+")
}

/// The protocol keys `file` defines cells for: every protocol, or the plan
/// key of a query-plan file.
fn cell_protocols(file: &ScenarioFile) -> Vec<String> {
    match &file.queries {
        Some(queries) => vec![plan_protocol(queries)],
        None => ProtocolKind::ALL.map(|p| p.name().to_string()).to_vec(),
    }
}

/// The shape of a query plan, derived from its subsets: `twin` when every
/// query watches the same nodes, `disjoint` when no two share a node,
/// `overlap` otherwise.
fn plan_shape(file: &ScenarioFile) -> Option<&'static str> {
    let queries = file.queries.as_ref()?;
    let sets: Vec<BTreeSet<NodeId>> = queries
        .iter()
        .map(|q| q.subset.resolve(file.spec.n).into_iter().collect())
        .collect();
    let shape = if sets.windows(2).all(|w| w[0] == w[1]) {
        "twin"
    } else if sets
        .iter()
        .enumerate()
        .all(|(i, a)| sets[i + 1..].iter().all(|b| a.is_disjoint(b)))
    {
        "disjoint"
    } else {
        "overlap"
    };
    Some(shape)
}

/// A single-query run measured against the offline adversary of its
/// protocol's theorem.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Competitive {
    /// Interactive protocol rounds used.
    pub rounds: u64,
    /// OPT lower bound (phase count) on the delivered trace.
    pub opt_lower: u64,
    /// OPT upper bound (`(k + 1)` messages per phase) on the delivered trace.
    pub opt_upper: u64,
    /// The offline adversary's error (`None` = exact adversary).
    pub opt_eps: Option<Epsilon>,
    /// Empirical competitive ratio: `messages / max(opt_lower, 1)`.
    pub ratio: f64,
    /// Ratcheted ratio ceiling (`CompetitiveFloors::ceiling(ratio)`).
    pub ceiling: f64,
    /// Message attribution by protocol phase (the `CostMeter` label taxonomy).
    pub messages_by_label: Vec<LabelCount>,
    /// Message attribution by workload regime (non-empty only for families
    /// that expose regime segments, i.e. `regime-switch`).
    pub messages_by_regime: Vec<LabelCount>,
}

/// What a file's companion (fault plan, membership plan or both) cost,
/// against the clean twin.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Degradation {
    /// Messages of the clean twin (the same file without its companion).
    pub clean_messages: u64,
    /// `messages / max(clean_messages, 1)`.
    pub factor: f64,
    /// Ratcheted ceiling (`CompetitiveFloors::ceiling(factor)`): a recovery
    /// regression shows here even when the ratio stays under its own ceiling.
    pub ceiling: f64,
    /// Messages under the `Recovery` label (rejoin and join replays).
    pub recovery_messages: u64,
    /// Node crashes the fault plan executed.
    pub crashes: u64,
    /// Node rejoins after a crash.
    pub rejoins: u64,
    /// Messages lost in transit (charged but never delivered).
    pub dropped_messages: u64,
    /// Leave events the membership plan executed within the horizon.
    pub leaves: u64,
    /// Join events the membership plan executed within the horizon.
    pub joins: u64,
}

/// A query plan run jointly on one shared engine against the sum of its
/// queries run independently — the amortization the shared-filter design
/// claims.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Amortization {
    /// Sum of the message counts of each query run alone on its own fresh
    /// engine over the identical rows.
    pub independent_messages: u64,
    /// `messages / max(independent_messages, 1)`; below 1 sharing pays.
    pub factor: f64,
    /// Ratcheted ceiling (`CompetitiveFloors::ceiling(factor)`).
    pub ceiling: f64,
    /// Per-query attributed cost in [`SPLIT_SCALE`]-ths of a message, in
    /// registration order; sums to exactly `messages × SPLIT_SCALE`.
    pub per_query_units: Vec<u64>,
    /// Violation reports the joint run delivered (routing volume).
    pub deliveries: u64,
}

/// One measured cell: a scenario file under one protocol, or a query-plan
/// file's whole plan. `(scenario, protocol)` is its key in the report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cell {
    /// The scenario's name (its file stem in `scenarios/`).
    pub scenario: String,
    /// [`digest`] of the file the cell measured.
    pub digest: u32,
    /// Protocol name, or a query plan's protocols joined by `+`.
    pub protocol: String,
    /// Total messages sent, recovery traffic included.
    pub messages: u64,
    /// Output steps that broke the ε-top-k definition (summed over the
    /// queries of a plan, each validated on its own subset).
    pub invalid_steps: u64,
    /// Ratio against OPT; absent for a query plan, which has no OPT.
    pub competitive: Option<Competitive>,
    /// Cost of the file's companion; present exactly when it has one.
    pub degradation: Option<Degradation>,
    /// Sharing gain of a query plan; present exactly for query-plan files.
    pub amortization: Option<Amortization>,
}

/// One ratcheted measure of a cell: `(value, numerator, denominator,
/// ceiling)`, where `value` must equal `numerator / max(denominator, 1)`.
type Measure = (f64, u64, u64, f64);

impl Cell {
    /// The cell's ratcheted measures, each present exactly when its block is:
    /// the ratio against OPT, the degradation against the clean twin and the
    /// amortization against the independent runs.
    fn measures(&self) -> [(&'static str, Option<Measure>); 3] {
        let m = self.messages;
        [
            (
                "ratio",
                self.competitive
                    .as_ref()
                    .map(|c| (c.ratio, m, c.opt_lower, c.ceiling)),
            ),
            (
                "degradation",
                self.degradation
                    .as_ref()
                    .map(|d| (d.factor, m, d.clean_messages, d.ceiling)),
            ),
            (
                "amortization",
                self.amortization
                    .as_ref()
                    .map(|a| (a.factor, m, a.independent_messages, a.ceiling)),
            ),
        ]
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<38} {:>13}: {:>8} msgs",
            self.scenario, self.protocol, self.messages
        )?;
        if let Some(c) = &self.competitive {
            write!(
                f,
                " / opt {:>5} = ratio {:>8.2} (ceiling {:.2})",
                c.opt_lower, c.ratio, c.ceiling
            )?;
        }
        if let Some(d) = &self.degradation {
            write!(
                f,
                ", clean {} = degradation {:.2}",
                d.clean_messages, d.factor
            )?;
        }
        if let Some(a) = &self.amortization {
            write!(
                f,
                ", independent {} = amortization {:.3}",
                a.independent_messages, a.factor
            )?;
        }
        write!(f, ", {} invalid steps", self.invalid_steps)
    }
}

/// The campaign output, serialised to `BENCH_competitive.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompetitiveReport {
    /// Schema identifier (`"competitive"`).
    pub bench: String,
    /// `"full"` (every library file — the committed report) or `"quick"`
    /// (the files [`is_quick`] selects).
    pub scale: String,
    /// The floor table the report was generated against.
    pub floors: CompetitiveFloors,
    /// Every measured cell, in library order.
    pub cells: Vec<Cell>,
}

/// Drives `file` under `protocol` on `net`: its workload for `steps` steps
/// and its membership schedule, if any, as a one-query [`QuerySet`]. The one
/// driver behind every campaign cell and every recorded trace.
pub(crate) fn drive(
    file: &ScenarioFile,
    protocol: ProtocolKind,
    net: &mut dyn Network,
    observer: impl FnMut(QueryStepObservation<'_>),
) -> QuerySetReport {
    let spec = &file.spec;
    let mut workload = spec.generator.build(spec.n, spec.k, spec.eps, spec.seed);
    let mut set = QuerySet::new(spec.n);
    set.register(
        QuerySpec::new(spec.k, spec.eps, protocol.name()),
        protocol.build_monitor(spec.k, spec.eps),
    );
    let schedule = file
        .membership
        .map(|plan| plan.build(spec.n, spec.steps as u64));
    let mut emitted = 0usize;
    run_query_set_observed(
        &mut set,
        net,
        |filters| {
            if emitted == spec.steps {
                return None;
            }
            emitted += 1;
            Some(workload.next_step_adaptive(filters))
        },
        |step| {
            schedule
                .as_ref()
                .map_or_else(Vec::new, |s| s.events_at(step).to_vec())
        },
        observer,
    )
}

/// One run of a file under one protocol, with what the observer collected.
struct Observed {
    report: QuerySetReport,
    /// The rows the driver delivered (masked under churn) — OPT's input.
    rows: Vec<Vec<Value>>,
    regime_messages: BTreeMap<String, u64>,
    faults: FaultStats,
    leaves: u64,
    joins: u64,
}

fn observe(file: &ScenarioFile, protocol: ProtocolKind) -> Observed {
    let spec = &file.spec;
    // A second, never-stepped instance of the regime-switching generator
    // serves as the step → regime oracle, so the attribution below uses the
    // generator's own `regime_of_step` instead of a re-derived formula.
    let regime_probe = match spec.generator {
        GeneratorSpec::RegimeSwitch {
            sigma,
            z,
            segment_len,
        } => Some(RegimeSwitchWorkload::new(
            spec.n,
            spec.k,
            sigma,
            z,
            spec.eps,
            segment_len,
            spec.seed,
        )),
        _ => None,
    };
    let mut rows: Vec<Vec<Value>> = Vec::with_capacity(spec.steps);
    let mut regime_messages: BTreeMap<String, u64> = BTreeMap::new();
    let (mut prev_total, mut leaves, mut joins) = (0u64, 0u64, 0u64);
    let observer = |obs: QueryStepObservation<'_>| {
        rows.push(obs.row.to_vec());
        for event in obs.events {
            match event {
                MembershipEvent::Leave(_) => leaves += 1,
                MembershipEvent::Join(_) => joins += 1,
            }
        }
        if let Some(probe) = &regime_probe {
            let regime = probe.regime_of_step(obs.step);
            *regime_messages
                .entry(regime.name().to_string())
                .or_insert(0) += obs.messages_total - prev_total;
            prev_total = obs.messages_total;
        }
    };
    let engine = IndexedEngine::new(spec.n, spec.seed);
    let (report, faults) = match file.fault {
        Some(fault) => {
            let mut net = FaultyTransport::new(engine, fault);
            let report = drive(file, protocol, &mut net, observer);
            (report, net.fault_stats())
        }
        None => {
            let mut net = engine;
            let report = drive(file, protocol, &mut net, observer);
            (report, FaultStats::default())
        }
    };
    Observed {
        report,
        rows,
        regime_messages,
        faults,
        leaves,
        joins,
    }
}

/// Runs `file` under `protocol` and measures its competitive ratio — plus,
/// when the file has a companion, its degradation against the clean twin.
pub fn run_cell(file: &ScenarioFile, protocol: ProtocolKind, solver: &mut PhaseSolver) -> Cell {
    let spec = &file.spec;
    let floors = file.effective_floors();
    let run = observe(file, protocol);
    let messages = run.report.messages();
    let trace = Trace::new(run.rows).expect("campaign rows are rectangular and non-empty");
    let opt: OfflineCost = match protocol.adversary() {
        Adversary::Exact => ExactOfflineOpt::new(spec.k).cost_with(solver, &trace),
        Adversary::Approx => ApproxOfflineOpt::new(spec.k, spec.eps).cost_with(solver, &trace),
        Adversary::HalfEps => ApproxOfflineOpt::half_of(spec.k, spec.eps).cost_with(solver, &trace),
    }
    .expect("scenario files always satisfy 1 <= k < n");
    let ratio = opt.competitive_ratio(messages);
    let mut by_label: BTreeMap<String, u64> = BTreeMap::new();
    for ((label, _kind), count) in &run.report.stats.by_label_kind {
        *by_label.entry(label.to_string()).or_insert(0) += count;
    }
    let degradation = (file.fault.is_some() || file.membership.is_some()).then(|| {
        let twin = ScenarioFile {
            fault: None,
            membership: None,
            ..file.clone()
        };
        let clean_messages = observe(&twin, protocol).report.messages();
        let factor = messages as f64 / clean_messages.max(1) as f64;
        Degradation {
            clean_messages,
            factor,
            ceiling: floors.ceiling(factor),
            recovery_messages: run.report.stats.messages_of_label(ProtocolLabel::Recovery),
            crashes: run.faults.crashes,
            rejoins: run.faults.rejoins,
            dropped_messages: run.faults.dropped(),
            leaves: run.leaves,
            joins: run.joins,
        }
    });
    Cell {
        scenario: file.name.clone(),
        digest: digest(file),
        protocol: protocol.name().to_string(),
        messages,
        invalid_steps: run.report.per_query[0].invalid_steps,
        competitive: Some(Competitive {
            rounds: run.report.stats.rounds,
            opt_lower: opt.lower_bound,
            opt_upper: opt.upper_bound,
            opt_eps: opt.eps,
            ratio,
            ceiling: floors.ceiling(ratio),
            messages_by_label: label_counts(by_label),
            messages_by_regime: label_counts(run.regime_messages),
        }),
        degradation,
        amortization: None,
    }
}

/// Runs a query-plan file as one cell: the plan jointly on one shared engine,
/// then each query alone on its own fresh engine over the identical rows.
fn run_plan(file: &ScenarioFile, queries: &[QuerySpec]) -> Cell {
    let spec = &file.spec;
    // Pre-generate the rows once so the joint run and every independent
    // baseline see the identical trace (query plans take non-adaptive
    // families, so the filters passed to the generator are irrelevant).
    let mut workload = spec.generator.build(spec.n, spec.k, spec.eps, spec.seed);
    let full = vec![Filter::FULL; spec.n];
    let rows: Vec<Vec<Value>> = (0..spec.steps)
        .map(|_| workload.next_step_adaptive(&full))
        .collect();
    let run = |queries: &[QuerySpec]| {
        let mut set = QuerySet::new(spec.n);
        for q in queries {
            let protocol = ProtocolKind::from_name(&q.protocol)
                .expect("the scenario loader accepts only known protocols");
            set.register(q.clone(), protocol.build_monitor(q.k, q.eps));
        }
        run_query_set(
            &mut set,
            &mut IndexedEngine::new(spec.n, spec.seed),
            rows.iter().cloned(),
        )
    };
    let joint = run(queries);
    let independent_messages = queries
        .iter()
        .map(|q| run(std::slice::from_ref(q)).messages())
        .sum::<u64>();
    let messages = joint.messages();
    let factor = messages as f64 / independent_messages.max(1) as f64;
    Cell {
        scenario: file.name.clone(),
        digest: digest(file),
        protocol: plan_protocol(queries),
        messages,
        invalid_steps: joint.per_query.iter().map(|r| r.invalid_steps).sum(),
        competitive: None,
        degradation: None,
        amortization: Some(Amortization {
            independent_messages,
            factor,
            ceiling: file.effective_floors().ceiling(factor),
            per_query_units: joint.per_query.iter().map(|r| r.units).collect(),
            deliveries: joint.deliveries.len() as u64,
        }),
    }
}

/// Every cell of `file`: one per protocol, or one for a query-plan file.
pub fn run_file(file: &ScenarioFile, solver: &mut PhaseSolver) -> Vec<Cell> {
    match &file.queries {
        Some(queries) => vec![run_plan(file, queries)],
        None => ProtocolKind::ALL
            .into_iter()
            .map(|protocol| run_cell(file, protocol, solver))
            .collect(),
    }
}

/// Runs the campaign over `library` — every file, or with `quick` the files
/// [`is_quick`] selects — logging one line per cell.
pub fn run_campaign(
    library: &[ScenarioFile],
    quick: bool,
    log: impl Fn(&str),
) -> CompetitiveReport {
    let mut solver = PhaseSolver::new();
    let mut cells = Vec::new();
    for file in library.iter().filter(|f| !quick || is_quick(f)) {
        for cell in run_file(file, &mut solver) {
            log(&format!("campaign: {cell}"));
            cells.push(cell);
        }
    }
    CompetitiveReport {
        bench: "competitive".to_string(),
        scale: if quick { "quick" } else { "full" }.to_string(),
        floors: FloorTable::STANDARD.competitive,
        cells,
    }
}

/// Checks that `value` is exactly `numerator / max(denominator, 1)`, stays
/// under `ceiling`, and that `ceiling` is the floor formula — so editing a
/// measure together with its ceiling cannot hide a regressed count, and no
/// ceiling can be raised by hand.
fn check_measure(
    failures: &mut Vec<String>,
    id: &str,
    what: &str,
    (value, numerator, denominator, ceiling): Measure,
    floors: &CompetitiveFloors,
) {
    if !value.is_finite() || value < 0.0 {
        failures.push(format!("{id}: {what} {value} is not a sane number"));
        return;
    }
    let recomputed = numerator as f64 / denominator.max(1) as f64;
    if (value - recomputed).abs() > 1e-9 {
        failures.push(format!(
            "{id}: {what} {value} does not match its counts ({numerator} / {denominator} = {recomputed}) — the cell was edited or corrupted"
        ));
    }
    if value > ceiling {
        failures.push(format!(
            "{id}: {what} {value:.3} exceeds the committed ceiling {ceiling:.3}"
        ));
    }
    if (ceiling - floors.ceiling(value)).abs() > 1e-9 {
        failures.push(format!(
            "{id}: {what} ceiling {ceiling:.3} is not the floor formula's {:.3}",
            floors.ceiling(value)
        ));
    }
}

/// Checks every cell against its scenario file: the per-cell rules, and the
/// Theorem 5.8 rule across the cells of each dense-neighbourhood file. Cells
/// whose file is not in `library` are skipped (the report-level check
/// reports them). Returns human-readable failures (empty = pass).
///
/// Bars come from the file's [`ScenarioFile::effective_floors`]. A clean
/// cell tolerates `max_invalid_steps` (zero); a cell with a fault plan —
/// with or without a membership plan — the fault permille bar, because only
/// faults can excuse an invalid output; a cell with only a membership plan
/// the membership bar; a query plan the multi-query bar over its per-query
/// steps.
pub fn check_cells(cells: &[Cell], library: &[ScenarioFile]) -> Vec<String> {
    let files: BTreeMap<&str, &ScenarioFile> =
        library.iter().map(|f| (f.name.as_str(), f)).collect();
    let mut failures = Vec::new();
    for cell in cells {
        let Some(file) = files.get(cell.scenario.as_str()) else {
            continue;
        };
        let floors = file.effective_floors();
        let spec = &file.spec;
        let id = format!("{}/{}", cell.scenario, cell.protocol);
        let queries = file.queries.as_ref().map_or(1, Vec::len) as u64;
        // Bars count per-query steps; only faults can excuse an invalid
        // output, so a fault plan's bars win over a membership plan's.
        let steps = spec.steps as u64 * queries;
        let tolerate = |permille: u64| permille * steps / 1000;
        let (invalid_bar, poll_bar) = if file.queries.is_some() {
            (
                tolerate(floors.multiquery_invalid_fraction_permille),
                floors.max_poll_factor,
            )
        } else if file.fault.is_some() {
            (
                tolerate(floors.fault_invalid_fraction_permille),
                floors.fault_poll_factor,
            )
        } else if file.membership.is_some() {
            (
                tolerate(floors.membership_invalid_fraction_permille),
                floors.membership_poll_factor,
            )
        } else {
            (floors.max_invalid_steps, floors.max_poll_factor)
        };
        if cell.invalid_steps > invalid_bar {
            failures.push(format!(
                "{id}: {} invalid output steps (tolerated: {invalid_bar})",
                cell.invalid_steps
            ));
        }
        // Filters exist to beat naive polling (`n` messages per step and
        // query); past this factor a protocol has regressed no matter what
        // ceiling a regenerated report would launder in.
        if cell.messages as f64 > poll_bar * spec.n as f64 * steps as f64 {
            failures.push(format!(
                "{id}: {} messages exceeds {poll_bar} x the naive polling cost ({} nodes x {steps} query steps)",
                cell.messages, spec.n
            ));
        }
        let has_companion = file.fault.is_some() || file.membership.is_some();
        if cell.competitive.is_some() == file.queries.is_some()
            || cell.degradation.is_some() != has_companion
            || cell.amortization.is_some() != file.queries.is_some()
        {
            failures.push(format!(
                "{id}: the cell's measurements do not match its scenario's companions"
            ));
            continue;
        }
        for (what, measure) in cell.measures() {
            if let Some(measure) = measure {
                check_measure(&mut failures, &id, what, measure, &floors);
            }
        }
        if let Some(d) = &cell.degradation {
            // A churn plan that never churns measures nothing — and its quiet
            // cells would launder in as membership coverage.
            if file.membership.is_some() && d.leaves == 0 {
                failures.push(format!(
                    "{id}: the membership plan executed no leave events"
                ));
            }
        }
        if let Some(a) = &cell.amortization {
            if queries < 2 {
                failures.push(format!(
                    "{id}: a query plan needs at least 2 queries, has {queries}"
                ));
            }
            // The attribution ledger must partition the wire total exactly —
            // the split-charging scheme's defining invariant.
            let units: u64 = a.per_query_units.iter().sum();
            if a.per_query_units.len() as u64 != queries || units != cell.messages * SPLIT_SCALE {
                failures.push(format!(
                    "{id}: {} per-query unit entries summing to {units}, expected {queries} summing to messages x {SPLIT_SCALE} — attribution no longer partitions the wire total",
                    a.per_query_units.len()
                ));
            }
        }
    }
    // Theorem 5.8 separation: on every clean dense-neighbourhood file the
    // dense protocol must not send more messages than the exact monitor.
    let messages_of = |name: &str, protocol: ProtocolKind| {
        cells
            .iter()
            .find(|c| c.scenario == name && c.protocol == protocol.name())
            .map(|c| c.messages)
    };
    for file in library {
        let clean = file.fault.is_none() && file.membership.is_none() && file.queries.is_none();
        if !clean || file.spec.generator.family() != "noise" {
            continue;
        }
        let dense = messages_of(&file.name, ProtocolKind::Dense);
        let exact = messages_of(&file.name, ProtocolKind::ExactTopK);
        if let (Some(dense), Some(exact)) = (dense, exact) {
            if dense > exact {
                failures.push(format!(
                    "{}: dense sent {dense} messages but the exact monitor only {exact} — the Thm. 5.8 separation is gone",
                    file.name
                ));
            }
        }
    }
    failures
}

/// The one checker of a campaign report against the library it measured.
/// Returns human-readable failures (empty = pass).
///
/// On top of [`check_cells`]: the report's floor table must *be*
/// [`FloorTable::STANDARD`]; the report must hold exactly one cell per
/// (file, protocol) of its selection — every file for `full`, the
/// [`is_quick`] files for `quick` — each measured on the file's current bytes
/// (missing, extra and stale cells all fail); and the clean cells must cover
/// the protocol × family grid without holes, the fault cells
/// `min_fault_families` fault families, the membership cells
/// `min_membership_plans` churn plans, and the query plans the twin, overlap
/// and disjoint shapes with at least one plan that genuinely amortizes.
pub fn check_competitive_floors(
    report: &CompetitiveReport,
    library: &[ScenarioFile],
) -> Vec<String> {
    let floors = FloorTable::STANDARD.competitive;
    let mut failures = Vec::new();
    if report.bench != "competitive" {
        failures.push(format!(
            "report has bench id `{}`, expected `competitive`",
            report.bench
        ));
    }
    if report.floors != floors {
        failures.push(
            "report was generated against a different floor table; regenerate with --campaign"
                .to_string(),
        );
    }
    let quick = match report.scale.as_str() {
        "full" => false,
        "quick" => true,
        other => {
            failures.push(format!(
                "report has scale `{other}`, expected full or quick"
            ));
            return failures;
        }
    };
    let selection: Vec<&ScenarioFile> = library.iter().filter(|f| !quick || is_quick(f)).collect();
    let mut expected: BTreeMap<(&str, String), &ScenarioFile> = BTreeMap::new();
    for file in &selection {
        for protocol in cell_protocols(file) {
            expected.insert((file.name.as_str(), protocol), file);
        }
    }
    let mut seen = BTreeSet::new();
    for cell in &report.cells {
        let key = (cell.scenario.as_str(), cell.protocol.clone());
        let id = format!("{}/{}", cell.scenario, cell.protocol);
        match expected.get(&key) {
            None => failures.push(format!(
                "{id}: no such (scenario, protocol) in the {} selection of the library — regenerate with --campaign",
                report.scale
            )),
            Some(file) if digest(file) != cell.digest => failures.push(format!(
                "{id}: stale — measured a different version of scenarios/{}.json; regenerate with --campaign",
                cell.scenario
            )),
            Some(_) => {}
        }
        if !seen.insert(key) {
            failures.push(format!("{id}: duplicate cell"));
        }
    }
    for (name, protocol) in expected.keys() {
        if !seen.contains(&(*name, protocol.clone())) {
            failures.push(format!(
                "missing the {name}/{protocol} cell — regenerate with --campaign"
            ));
        }
    }
    failures.extend(check_cells(&report.cells, library));

    let files: BTreeMap<&str, &ScenarioFile> =
        selection.iter().map(|f| (f.name.as_str(), *f)).collect();
    let mut protocols = BTreeSet::new();
    let mut families = BTreeSet::new();
    let mut pairs = BTreeSet::new();
    let mut fault_families = BTreeSet::new();
    let mut churn_plans = BTreeSet::new();
    let mut shapes = BTreeSet::new();
    let mut plans = 0usize;
    let mut amortizing = false;
    for cell in &report.cells {
        let Some(file) = files.get(cell.scenario.as_str()) else {
            continue;
        };
        if let Some(fault) = &file.fault {
            fault_families.insert(fault.family());
        }
        if let Some(plan) = &file.membership {
            churn_plans.insert(plan.name());
        }
        if let Some(shape) = plan_shape(file) {
            shapes.insert(shape);
            plans += 1;
            amortizing |= cell
                .amortization
                .as_ref()
                .is_some_and(|a| cell.messages < a.independent_messages);
        } else if file.fault.is_none() && file.membership.is_none() {
            let family = file.spec.generator.family();
            protocols.insert(cell.protocol.as_str());
            families.insert(family);
            pairs.insert((family, cell.protocol.as_str()));
        }
    }
    if protocols.len() < floors.min_protocols {
        failures.push(format!(
            "only {} protocols covered, need {}",
            protocols.len(),
            floors.min_protocols
        ));
    }
    if families.len() < floors.min_generators {
        failures.push(format!(
            "only {} generator families covered, need {}",
            families.len(),
            floors.min_generators
        ));
    }
    if pairs.len() < protocols.len() * families.len() {
        failures.push(format!(
            "grid has holes: {} protocol × family pairs covered, expected {} ({} protocols × {} families)",
            pairs.len(),
            protocols.len() * families.len(),
            protocols.len(),
            families.len()
        ));
    }
    if fault_families.len() < floors.min_fault_families {
        failures.push(format!(
            "only {} fault families covered ({fault_families:?}), need {}",
            fault_families.len(),
            floors.min_fault_families
        ));
    }
    if churn_plans.len() < floors.min_membership_plans {
        failures.push(format!(
            "only {} membership plans covered ({churn_plans:?}), need {}",
            churn_plans.len(),
            floors.min_membership_plans
        ));
    }
    if plans < floors.min_multiquery_cells {
        failures.push(format!(
            "only {plans} query-plan cells measured, need {}",
            floors.min_multiquery_cells
        ));
    }
    for shape in ["twin", "overlap", "disjoint"] {
        if !shapes.contains(shape) {
            failures.push(format!(
                "no query plan has the `{shape}` shape (covered: {shapes:?})"
            ));
        }
    }
    if !amortizing {
        failures.push(
            "no query plan beats its independent baseline — shared-filter amortization is gone"
                .to_string(),
        );
    }
    failures
}

/// Cross-checks a freshly measured report against a committed baseline: every
/// fresh cell must have a committed cell with the same (scenario, protocol)
/// key and digest, and its fresh ratio, degradation and amortization must
/// stay under the *committed* ceilings.
///
/// This is the teeth of the ratchet. The ceilings inside one report are
/// tautological (they are computed from the ratios they gate); what makes
/// them binding is that CI re-measures the quick selection — bit-
/// deterministic, and contained in the full report — and holds the fresh
/// measures to the ceilings committed in `BENCH_competitive.json`.
pub fn check_against_baseline(
    fresh: &CompetitiveReport,
    baseline: &CompetitiveReport,
) -> Vec<String> {
    let mut failures = Vec::new();
    for cell in &fresh.cells {
        let id = format!("{}/{}", cell.scenario, cell.protocol);
        let Some(committed) = baseline
            .cells
            .iter()
            .find(|b| b.scenario == cell.scenario && b.protocol == cell.protocol)
        else {
            failures.push(format!(
                "{id}: no counterpart in the committed baseline — regenerate the committed report with --campaign"
            ));
            continue;
        };
        if committed.digest != cell.digest {
            failures.push(format!(
                "{id}: the committed cell measured a different version of the scenario — regenerate the committed report with --campaign"
            ));
            continue;
        }
        for ((what, fresh), (_, committed)) in cell.measures().into_iter().zip(committed.measures())
        {
            match (fresh, committed) {
                (Some((value, ..)), Some((.., ceiling))) if value > ceiling => failures.push(format!(
                    "{id}: measured {what} {value:.3} exceeds the committed ceiling {ceiling:.3} — a protocol regressed"
                )),
                (Some(_), None) | (None, Some(_)) => failures.push(format!(
                    "{id}: the committed cell has no {what} to compare — regenerate the committed report with --campaign"
                )),
                _ => {}
            }
        }
    }
    failures
}

/// Serialises a campaign report as pretty JSON.
pub fn to_json(report: &CompetitiveReport) -> String {
    serde_json::to_string_pretty(report).expect("campaign reports serialise")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{committed_library, parse_scenario};
    use std::sync::OnceLock;

    fn tiny_spec(generator: GeneratorSpec) -> ScenarioSpec {
        ScenarioSpec {
            generator,
            n: 24,
            k: 4,
            eps: Epsilon::TENTH,
            steps: 25,
            seed: 9,
        }
    }

    fn inline(spec: ScenarioSpec) -> ScenarioFile {
        ScenarioFile {
            name: "inline".to_string(),
            spec,
            fault: None,
            membership: None,
            queries: None,
            floors: None,
        }
    }

    fn scenario(name: &str) -> ScenarioFile {
        committed_library()
            .into_iter()
            .find(|f| f.name == name)
            .unwrap_or_else(|| panic!("scenarios/{name}.json is committed"))
    }

    /// The library files of at most 60 steps: the smallest selection that
    /// still clears every coverage floor.
    fn small_library() -> Vec<ScenarioFile> {
        committed_library()
            .into_iter()
            .filter(|f| f.spec.steps <= 60)
            .collect()
    }

    /// The quick campaign over [`small_library`], measured once per test run.
    fn small_report() -> &'static CompetitiveReport {
        static REPORT: OnceLock<CompetitiveReport> = OnceLock::new();
        REPORT.get_or_init(|| run_campaign(&small_library(), true, |_| {}))
    }

    fn fails_with(failures: &[String], needle: &str) -> bool {
        failures.iter().any(|f| f.contains(needle))
    }

    #[test]
    fn grid_covers_the_acceptance_matrix() {
        let library = committed_library();
        let clean: Vec<&ScenarioFile> = library
            .iter()
            .filter(|f| f.fault.is_none() && f.membership.is_none() && f.queries.is_none())
            .collect();
        for quick in [true, false] {
            let families: BTreeSet<&str> = clean
                .iter()
                .filter(|f| !quick || is_quick(f))
                .map(|f| f.spec.generator.family())
                .collect();
            assert!(
                families.len() >= 7,
                "the library must span >= 7 families, got {families:?}"
            );
        }
        assert!(ProtocolKind::ALL.len() >= 5);
        // The library also sweeps a second ε and a second n, and carries the
        // large-n probes the quick selection leaves out.
        let epsilons: BTreeSet<String> = clean.iter().map(|f| f.spec.eps.to_string()).collect();
        assert!(epsilons.len() >= 2, "the library must sweep epsilon");
        let sizes: BTreeSet<usize> = clean.iter().map(|f| f.spec.n).collect();
        assert!(sizes.len() >= 3, "the library must sweep n, got {sizes:?}");
        assert!(sizes.contains(&100_000), "the library needs the 1e5 probe");
        assert!(clean.iter().any(|f| !is_quick(f)));
    }

    #[test]
    fn cells_are_deterministic_and_correct() {
        let mut solver = PhaseSolver::new();
        let file = inline(tiny_spec(GeneratorSpec::Noise {
            sigma: 10,
            z: 1 << 16,
        }));
        let a = run_cell(&file, ProtocolKind::Dense, &mut solver);
        let b = run_cell(&file, ProtocolKind::Dense, &mut solver);
        assert_eq!(a, b, "campaign cells must be bit-deterministic");
        assert_eq!(a.invalid_steps, 0);
        assert!(a.messages > 0);
        let c = a
            .competitive
            .as_ref()
            .expect("single-query cells have a ratio");
        assert!(c.opt_lower >= 1);
        assert!(c.ratio <= c.ceiling);
        assert!(!c.messages_by_label.is_empty());
        assert!(c.messages_by_regime.is_empty(), "noise has no regimes");
        assert!(a.degradation.is_none() && a.amortization.is_none());
    }

    #[test]
    fn regime_cells_attribute_messages_per_regime() {
        let mut solver = PhaseSolver::new();
        let file = inline(ScenarioSpec {
            generator: GeneratorSpec::RegimeSwitch {
                sigma: 8,
                z: 1 << 16,
                segment_len: 10,
            },
            n: 24,
            k: 3,
            eps: Epsilon::TENTH,
            steps: 60,
            seed: 3,
        });
        let cell = run_cell(&file, ProtocolKind::Combined, &mut solver);
        assert_eq!(cell.invalid_steps, 0);
        let by_regime: BTreeMap<&str, u64> = cell
            .competitive
            .as_ref()
            .expect("single-query cells have a ratio")
            .messages_by_regime
            .iter()
            .map(|lc| (lc.label.as_str(), lc.count))
            .collect();
        let total: u64 = by_regime.values().sum();
        assert_eq!(
            total, cell.messages,
            "regime attribution must partition the message count"
        );
        // Two full cycles: all three regimes appear.
        for regime in ["quiet", "dense", "adversarial"] {
            assert!(
                by_regime.contains_key(regime),
                "missing {regime} in {by_regime:?}"
            );
        }
        // The adversarial segments force a leadership change per step; the
        // quiet segments converge to silence. The attribution must show it.
        assert!(
            by_regime["adversarial"] > by_regime["quiet"],
            "adversarial segments must dominate quiet ones: {by_regime:?}"
        );
    }

    #[test]
    fn adaptive_adversary_cells_use_the_realised_trace() {
        let mut solver = PhaseSolver::new();
        let file = inline(tiny_spec(GeneratorSpec::Adversarial {
            sigma: 12,
            y0: 1 << 20,
        }));
        let cell = run_cell(&file, ProtocolKind::Combined, &mut solver);
        assert_eq!(cell.invalid_steps, 0);
        // The adversary forces communication: the ratio is meaningfully > 1.
        let ratio = cell.competitive.expect("a ratio").ratio;
        assert!(
            ratio > 1.0,
            "the lower-bound instance must force a nontrivial ratio, got {ratio}"
        );
    }

    #[test]
    fn quick_campaign_passes_its_own_floors() {
        let library = small_library();
        let report = small_report();
        assert_eq!(report.scale, "quick");
        let plans = library.iter().filter(|f| f.queries.is_some()).count();
        assert_eq!(
            report.cells.len(),
            (library.len() - plans) * ProtocolKind::ALL.len() + plans
        );
        let failures = check_competitive_floors(report, &library);
        assert!(failures.is_empty(), "quick campaign failed: {failures:?}");
    }

    #[test]
    fn committed_report_is_tied_to_the_files() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_competitive.json");
        let json = std::fs::read_to_string(path).expect("the committed report is readable");
        let report: CompetitiveReport = serde_json::from_str(&json).expect("it parses");
        let library = committed_library();
        assert_eq!(report.scale, "full");
        let failures = check_competitive_floors(&report, &library);
        assert!(failures.is_empty(), "{failures:?}");
        // A deleted cell is missing.
        let mut pruned = report.clone();
        let gone = pruned.cells.remove(7);
        let failures = check_competitive_floors(&pruned, &library);
        let needle = format!("missing the {}/{} cell", gone.scenario, gone.protocol);
        assert!(fails_with(&failures, &needle), "{failures:?}");
        // A scenario file added without regenerating has no cells.
        let mut grown = library.clone();
        grown.push(ScenarioFile {
            name: "added-without-regenerating".to_string(),
            ..library[0].clone()
        });
        let failures = check_competitive_floors(&report, &grown);
        assert!(fails_with(
            &failures,
            "missing the added-without-regenerating/"
        ));
        // A file whose parameters were edited without regenerating is stale.
        let mut edited = library.clone();
        edited[0].spec.seed += 1;
        let failures = check_competitive_floors(&report, &edited);
        let needle = format!(
            "stale — measured a different version of scenarios/{}",
            edited[0].name
        );
        assert!(fails_with(&failures, &needle), "{failures:?}");
    }

    #[test]
    fn membership_grid_covers_two_plans_and_anchors_quick_cells() {
        let library = committed_library();
        let plans: BTreeSet<String> = library
            .iter()
            .filter(|f| is_quick(f))
            .filter_map(|f| f.membership.map(|plan| plan.name()))
            .collect();
        assert!(
            plans.len() >= FloorTable::STANDARD.competitive.min_membership_plans,
            "the quick selection must span the plan coverage floor: {plans:?}"
        );
        for file in library.iter().filter(|f| f.membership.is_some()) {
            let (spec, plan) = (&file.spec, file.membership.expect("filtered"));
            // The live floor must keep the monitored top-k defined.
            assert!(plan.min_live > spec.k, "{}: live floor <= k", file.name);
            // Plans must actually churn within the file's horizon.
            assert!(plan.build(spec.n, spec.steps as u64).total_events() > 0);
        }
    }

    #[test]
    fn membership_cells_are_deterministic_and_attribute_recovery() {
        let mut solver = PhaseSolver::new();
        let file = scenario("member-noise-churn15-s60");
        let a = run_cell(&file, ProtocolKind::Combined, &mut solver);
        let b = run_cell(&file, ProtocolKind::Combined, &mut solver);
        assert_eq!(a, b, "membership cells must be bit-deterministic");
        let d = a.degradation.as_ref().expect("the plan is a companion");
        assert!(d.leaves > 0, "the plan must churn within the horizon");
        assert!(d.joins > 0, "4-step downtimes must rejoin within the run");
        assert!(
            d.recovery_messages > 0,
            "rejoins must replay group and filter under the recovery label"
        );
        let twin = ScenarioFile {
            membership: None,
            ..file.clone()
        };
        let clean = run_cell(&twin, ProtocolKind::Combined, &mut solver);
        assert_eq!(d.clean_messages, clean.messages);
        assert!((d.factor - a.messages as f64 / clean.messages as f64).abs() < 1e-12);
    }

    #[test]
    fn membership_floor_check_rejects_tampering() {
        let library = small_library();
        let report = small_report();
        let honest: Vec<Cell> = report
            .cells
            .iter()
            .filter(|c| c.scenario.starts_with("member-"))
            .cloned()
            .collect();
        assert!(check_cells(&honest, &library).is_empty());
        // Hand-raised degradation ceiling.
        let mut cells = honest.clone();
        cells[0].degradation.as_mut().expect("companion").ceiling *= 10.0;
        assert!(fails_with(
            &check_cells(&cells, &library),
            "degradation ceiling"
        ));
        // Masking a message regression by editing degradation too.
        let mut cells = honest.clone();
        cells[0].messages *= 10;
        assert!(fails_with(
            &check_cells(&cells, &library),
            "edited or corrupted"
        ));
        // Invalid steps: the membership bar holds exactly.
        let steps = scenario(&honest[0].scenario).spec.steps as u64;
        let bar = FloorTable::STANDARD
            .competitive
            .membership_invalid_fraction_permille
            * steps
            / 1000;
        let mut cells = honest.clone();
        cells[0].invalid_steps = bar;
        assert!(check_cells(&cells, &library).is_empty());
        cells[0].invalid_steps = bar + 1;
        assert!(fails_with(
            &check_cells(&cells, &library),
            &format!("invalid output steps (tolerated: {bar})")
        ));
        // A plan that never churned is rejected.
        let mut cells = honest.clone();
        cells[0].degradation.as_mut().expect("companion").leaves = 0;
        assert!(fails_with(
            &check_cells(&cells, &library),
            "no leave events"
        ));
        // One plan is below the coverage floor.
        let mut thin = report.clone();
        thin.cells.retain(|c| !c.scenario.contains("churn60"));
        assert!(fails_with(
            &check_competitive_floors(&thin, &library),
            "membership plans covered"
        ));
    }

    #[test]
    fn fault_grid_covers_three_families_and_anchors_quick_cells() {
        let library = committed_library();
        let families: BTreeSet<&str> = library
            .iter()
            .filter(|f| is_quick(f))
            .filter_map(|f| f.fault.as_ref().map(FaultSpec::family))
            .collect();
        for family in ["latency", "drop", "crash"] {
            assert!(
                families.contains(family),
                "the quick selection must carry a {family} plan: {families:?}"
            );
        }
        for file in &library {
            if let Some(fault) = &file.fault {
                fault.validate();
                assert!(
                    file.spec.n > fault.crash.map_or(0, |c| c.max_down),
                    "crash cap sane"
                );
            }
        }
    }

    #[test]
    fn fault_cells_are_deterministic_and_attribute_recovery() {
        let mut solver = PhaseSolver::new();
        let mut file = scenario("fault-noise-crash-s60");
        file.fault = Some(FaultSpec::crash_rejoin(0xFA03, 25, 5, 16));
        let a = run_cell(&file, ProtocolKind::Combined, &mut solver);
        let b = run_cell(&file, ProtocolKind::Combined, &mut solver);
        assert_eq!(a, b, "fault cells must be bit-deterministic");
        let d = a.degradation.as_ref().expect("the plan is a companion");
        assert!(
            d.crashes > 0,
            "25‰ over 64 nodes × 60 steps must crash someone"
        );
        assert!(d.rejoins > 0, "5-step outages must rejoin within the run");
        assert!(
            d.recovery_messages > 0,
            "rejoins must replay state under the recovery label"
        );
        let twin = ScenarioFile {
            fault: None,
            ..file.clone()
        };
        let clean = run_cell(&twin, ProtocolKind::Combined, &mut solver);
        assert_eq!(d.clean_messages, clean.messages);
        assert!((d.factor - a.messages as f64 / clean.messages as f64).abs() < 1e-12);
        // The delivered trace is fault-independent, so OPT matches the twin's.
        let opt = |cell: &Cell| cell.competitive.as_ref().expect("a ratio").opt_lower;
        assert_eq!(opt(&a), opt(&clean));
    }

    #[test]
    fn fault_floor_check_rejects_tampering() {
        let library = small_library();
        let report = small_report();
        let honest: Vec<Cell> = report
            .cells
            .iter()
            .filter(|c| c.scenario.starts_with("fault-") && c.scenario.contains("-drop-"))
            .cloned()
            .collect();
        assert!(check_cells(&honest, &library).is_empty());
        // Hand-raised degradation ceiling.
        let mut cells = honest.clone();
        cells[0].degradation.as_mut().expect("companion").ceiling *= 10.0;
        assert!(fails_with(
            &check_cells(&cells, &library),
            "degradation ceiling"
        ));
        // Masking a message regression by editing degradation too.
        let mut cells = honest.clone();
        cells[0].messages *= 10;
        assert!(fails_with(
            &check_cells(&cells, &library),
            "edited or corrupted"
        ));
        // Invalid steps beyond the fault permille bar.
        let mut cells = honest.clone();
        cells[0].invalid_steps = 60;
        assert!(fails_with(
            &check_cells(&cells, &library),
            "invalid output steps"
        ));
        // Losing a fault family drops below the coverage floor.
        let mut thin = report.clone();
        thin.cells.retain(|c| !c.scenario.contains("-drop-"));
        assert!(fails_with(
            &check_competitive_floors(&thin, &library),
            "fault families covered"
        ));
    }

    #[test]
    fn a_file_with_a_fault_and_a_membership_plan_runs_both() {
        let fault = scenario("fault-noise-crash-s60");
        let churn = scenario("member-noise-churn15-s60");
        let text = scenario_to_json(&ScenarioFile {
            membership: churn.membership,
            ..fault
        });
        let file = parse_scenario(&text, "<inline>").expect("the loader takes both plans");
        let mut solver = PhaseSolver::new();
        let cell = run_cell(&file, ProtocolKind::TopKProtocol, &mut solver);
        let d = cell
            .degradation
            .as_ref()
            .expect("the plans are a companion");
        assert!(d.crashes > 0, "the fault plan ran");
        assert!(d.leaves > 0, "the membership plan ran");
        // One driver: a recording of the same file is the same run.
        let (recorded, _) = crate::replay::record_run(&file, ProtocolKind::TopKProtocol);
        assert_eq!(recorded.messages(), cell.messages);
        // The documented bar: with a fault plan, the fault bar applies.
        let floors = file.effective_floors();
        let steps = file.spec.steps as u64;
        let bar = floors.fault_invalid_fraction_permille * steps / 1000;
        assert!(bar > floors.membership_invalid_fraction_permille * steps / 1000);
        let library = [file];
        let mut held = cell.clone();
        held.invalid_steps = bar;
        assert!(check_cells(&[held.clone()], &library).is_empty());
        held.invalid_steps = bar + 1;
        assert!(fails_with(
            &check_cells(&[held], &library),
            &format!("invalid output steps (tolerated: {bar})")
        ));
    }

    #[test]
    fn floor_check_rejects_tampering() {
        let library = small_library();
        let report = small_report();
        let check = |r: &CompetitiveReport| check_competitive_floors(r, &library);
        let clean = report
            .cells
            .iter()
            .position(|c| c.scenario.starts_with("zipf-"))
            .expect("a clean zipf cell");
        // Hand-raising a ceiling is rejected even though ratio <= ceiling.
        let mut r = report.clone();
        r.cells[clean]
            .competitive
            .as_mut()
            .expect("a ratio")
            .ceiling *= 10.0;
        assert!(fails_with(&check(&r), "ratio ceiling"));
        // A regressed ratio above its committed ceiling is rejected.
        let mut r = report.clone();
        let c = r.cells[clean].competitive.as_mut().expect("a ratio");
        c.ratio = c.ceiling + 1.0;
        assert!(fails_with(&check(&r), "exceeds the committed ceiling"));
        // Invalid output steps on a clean cell are rejected.
        let mut r = report.clone();
        r.cells[clean].invalid_steps = 1;
        assert!(fails_with(
            &check(&r),
            "invalid output steps (tolerated: 0)"
        ));
        // Editing ratio and ceiling together (to mask a regressed `messages`)
        // is caught by the messages/opt_lower consistency check.
        let mut r = report.clone();
        r.cells[clean].messages *= 10;
        assert!(fails_with(&check(&r), "edited or corrupted"));
        // Dropping below the coverage floor is rejected (the 8-family
        // selection tolerates losing one family, not two).
        let mut r = report.clone();
        r.cells
            .retain(|c| !c.scenario.starts_with("churn-") && !c.scenario.starts_with("zipf-"));
        assert!(fails_with(&check(&r), "generator families"));
        // A hole in the protocol × family grid is rejected.
        let mut r = report.clone();
        r.cells
            .retain(|c| !(c.scenario.starts_with("zipf-") && c.protocol == "dense"));
        assert!(fails_with(&check(&r), "grid has holes"));
        // A quick report relabelled as full lacks every longer file's cells.
        let mut r = report.clone();
        r.scale = "full".to_string();
        let full = committed_library();
        assert!(fails_with(
            &check_competitive_floors(&r, &full),
            "-s240/exact_topk cell — regenerate with --campaign"
        ));
        // A cell of no scenario, a duplicate and a stale digest are rejected.
        let mut r = report.clone();
        r.cells[clean].scenario = "no-such-file".to_string();
        assert!(fails_with(&check(&r), "no such (scenario, protocol)"));
        let mut r = report.clone();
        r.cells.push(r.cells[clean].clone());
        assert!(fails_with(&check(&r), "duplicate cell"));
        let mut r = report.clone();
        r.cells[clean].digest ^= 1;
        assert!(fails_with(&check(&r), "stale"));
    }

    #[test]
    fn baseline_check_is_a_real_ratchet() {
        let committed = small_report();
        // Bit-determinism: a fresh run of the same selection matches.
        let fresh = run_campaign(&small_library(), true, |_| {});
        assert_eq!(&fresh, committed);
        assert!(check_against_baseline(&fresh, committed).is_empty());
        // A committed ceiling lowered below the fresh ratio fails.
        let mut lowered = committed.clone();
        let fresh_ratio = fresh.cells[0].competitive.as_ref().expect("a ratio").ratio;
        lowered.cells[0]
            .competitive
            .as_mut()
            .expect("a ratio")
            .ceiling = fresh_ratio - 0.01;
        let failures = check_against_baseline(&fresh, &lowered);
        assert!(
            fails_with(&failures, "a protocol regressed"),
            "{failures:?}"
        );
        // A regressed degradation and amortization fail the same way.
        for (prefix, what) in [("member-", "degradation"), ("mq-", "amortization")] {
            let i = fresh
                .cells
                .iter()
                .position(|c| c.scenario.starts_with(prefix))
                .expect("the selection has the cell");
            let mut regressed = fresh.clone();
            let cell = &mut regressed.cells[i];
            match what {
                "degradation" => {
                    let d = cell.degradation.as_mut().expect("companion");
                    d.factor = d.ceiling + 0.01;
                }
                _ => {
                    let a = cell.amortization.as_mut().expect("plan");
                    a.factor = a.ceiling + 0.01;
                }
            }
            let failures = check_against_baseline(&regressed, committed);
            assert!(
                fails_with(&failures, &format!("measured {what}")),
                "{failures:?}"
            );
        }
        // A selection change without a regenerated committed report fails.
        let mut stale = committed.clone();
        stale.cells.remove(0);
        assert!(fails_with(
            &check_against_baseline(&fresh, &stale),
            "no counterpart in the committed baseline"
        ));
        let mut edited = committed.clone();
        edited.cells[0].digest ^= 1;
        assert!(fails_with(
            &check_against_baseline(&fresh, &edited),
            "different version of the scenario"
        ));
    }

    #[test]
    fn report_round_trips_through_json() {
        let mut solver = PhaseSolver::new();
        let spec = tiny_spec(GeneratorSpec::Gap { high_base: 1 << 16 });
        let clean = run_cell(&inline(spec), ProtocolKind::TopKProtocol, &mut solver);
        let faulty = ScenarioFile {
            fault: Some(FaultSpec::drop_upstream(7, 100)),
            ..inline(spec)
        };
        let churned = ScenarioFile {
            membership: Some(MembershipPlanSpec {
                seed: 11,
                leave_permille: 50,
                downtime: 3,
                min_live: 12,
            }),
            ..inline(spec)
        };
        let mut cells = vec![clean];
        cells.push(run_cell(&faulty, ProtocolKind::TopKProtocol, &mut solver));
        cells.push(run_cell(&churned, ProtocolKind::TopKProtocol, &mut solver));
        cells.extend(run_file(&scenario("mq-twin-noise-field-s60"), &mut solver));
        let report = CompetitiveReport {
            bench: "competitive".into(),
            scale: "quick".into(),
            floors: FloorTable::STANDARD.competitive,
            cells,
        };
        let json = to_json(&report);
        for key in [
            "\"digest\"",
            "\"ceiling\"",
            "\"degradation\"",
            "\"dropped_messages\"",
            "\"leaves\"",
            "\"amortization\"",
            "\"per_query_units\"",
        ] {
            assert!(json.contains(key), "missing {key}");
        }
        let back: CompetitiveReport = serde_json::from_str(&json).expect("reports deserialise");
        assert_eq!(back, report);
    }
}
