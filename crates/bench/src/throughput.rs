//! Engine throughput benchmark (`experiments --throughput`).
//!
//! The paper's point is that *communication* scales with `O(k log n + …)`, not
//! with `n` — but a simulator is only useful at scale if its *computation*
//! tracks the communication. This harness measures simulated steps per second
//! for the baseline [`DeterministicEngine`] (Θ(n log n) node invocations per
//! silent step) against the [`IndexedEngine`] (O(active) work per step) and the
//! [`ShardedEngine`] (the same O(active) algorithm on a worker-pool shard
//! layout with a tuned bulk observation path, `--sharded <threads>`) across
//! the workload generators, at `n` from 10³ to 10⁷ (the baseline stops at 10⁶
//! where its Θ(n log n) steps become minutes), and writes the result as
//! `BENCH_throughput.json` — the repo's bench trajectory.
//!
//! Each run drives a minimal but honest monitoring loop: observations arrive,
//! the Corollary 3.2 violation check (`detect_violations`) runs every step, and
//! every reported violation is repaired by assigning a widened filter. Filters
//! ratchet outward, so every workload converges to the regime the paper's
//! bounds describe — mostly silent steps with occasional violations — during
//! the untimed warm-up. Workload generation and inspection happen outside the
//! timed sections; only engine work (observation delivery, existence rounds,
//! filter repairs) is on the clock.
//!
//! Two delivery modes are measured:
//!
//! * `dense` — the classic [`Network::advance_time`] full row (the engine must
//!   at least scan `n` values);
//! * `sparse` — [`Network::advance_time_sparse`] with only the changed nodes
//!   (what a real ingest path would deliver). On quiet workloads the indexed
//!   engine's per-step cost is then near-independent of `n`.

use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};
use topk_core::existence::detect_violations_into;
use topk_gen::{
    AdaptiveWorkload, LowerBoundAdversary, NoiseOscillationWorkload, RandomWalkWorkload,
    ZipfLoadWorkload,
};
use topk_model::prelude::*;
use topk_net::{
    DeterministicEngine, IndexedEngine, Network, RemoteEngine, ShardedEngine, TransportStats,
};

/// The workload generators exercised by the throughput benchmark.
pub const GENERATORS: [&str; 4] = ["zipf", "noise", "random-walk", "adversarial"];

/// Which engine a measurement drove.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// `DeterministicEngine` — reference semantics, Θ(n) per existence round.
    Baseline,
    /// `IndexedEngine` — O(active) per round, bit-identical behaviour.
    Indexed,
    /// `ShardedEngine` with the given worker count — the indexed algorithm on
    /// contiguous shards with a tuned bulk observation path, bit-identical.
    Sharded(usize),
}

impl EngineKind {
    fn label(self) -> &'static str {
        match self {
            EngineKind::Baseline => "baseline",
            EngineKind::Indexed => "indexed",
            EngineKind::Sharded(_) => "sharded",
        }
    }

    /// Worker count recorded in the report (0 for single-threaded engines).
    fn workers(self) -> u64 {
        match self {
            EngineKind::Baseline | EngineKind::Indexed => 0,
            EngineKind::Sharded(w) => w as u64,
        }
    }
}

/// Observation delivery mode of a measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryMode {
    /// Full row per step (`advance_time`).
    Dense,
    /// Changed nodes only (`advance_time_sparse`).
    Sparse,
}

impl DeliveryMode {
    fn label(self) -> &'static str {
        match self {
            DeliveryMode::Dense => "dense",
            DeliveryMode::Sparse => "sparse",
        }
    }
}

/// Per-phase time attribution for one measured configuration.
///
/// The monitoring loop has exactly two engine phases per step — observation
/// delivery (`advance_time`/`advance_time_sparse`) and the violation-drain
/// loop (existence rounds + filter repairs) — and this struct says where the
/// nanoseconds went, plus the protocol-level rates (rounds/sec, messages/sec,
/// ns per model message) that connect wall-clock cost back to the paper's
/// message accounting. All quantities cover the measured window only
/// (warm-up excluded), like every other field of [`ThroughputRow`].
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PhaseProfile {
    /// Engine nanoseconds per measured step spent delivering observations.
    pub advance_ns_per_step: f64,
    /// Engine nanoseconds per measured step spent detecting violations and
    /// assigning repaired filters.
    pub detect_repair_ns_per_step: f64,
    /// Interactive protocol rounds consumed during the measured window.
    pub rounds: u64,
    /// Protocol rounds per second of engine time.
    pub rounds_per_sec: f64,
    /// Model messages per second of engine time.
    pub messages_per_sec: f64,
    /// Engine nanoseconds per model message (0 when the window was silent).
    pub ns_per_message: f64,
    /// Violation reports drained during the measured window.
    pub violations: u64,
}

/// One measured configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ThroughputRow {
    /// Workload generator name (one of [`GENERATORS`]).
    pub generator: String,
    /// Number of nodes.
    pub n: u64,
    /// `"baseline"`, `"indexed"` or `"sharded"`.
    pub engine: String,
    /// Worker count of the sharded engine (0 for single-threaded engines).
    pub workers: u64,
    /// `"dense"` or `"sparse"` observation delivery.
    pub mode: String,
    /// Measured steps (after warm-up).
    pub steps: u64,
    /// Wall-clock seconds spent in engine work over the measured steps.
    pub elapsed_s: f64,
    /// Simulated observation steps per second of engine work.
    pub steps_per_sec: f64,
    /// Microseconds of engine work per step (the scaling-curve quantity).
    pub us_per_step: f64,
    /// Model messages sent during the measured steps (violations + repairs).
    pub messages: u64,
    /// Mean number of nodes whose value changed per step.
    pub mean_changed_per_step: f64,
    /// Where the engine time went (phase attribution and protocol rates).
    pub profile: PhaseProfile,
}

/// The full benchmark output, serialised to `BENCH_throughput.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ThroughputReport {
    /// Schema/benchmark identifier.
    pub bench: String,
    /// `"quick"` (CI smoke) or `"full"`.
    pub scale: String,
    /// All measured configurations.
    pub rows: Vec<ThroughputRow>,
    /// Indexed-over-baseline steps/sec speedups per `(generator, n)`, dense mode.
    pub speedups_dense: Vec<SpeedupRow>,
    /// Sharded-over-indexed steps/sec speedups per `(generator, n)`, dense mode.
    pub speedups_sharded: Vec<SpeedupRow>,
    /// CPU cores available on the measuring machine (what
    /// `std::thread::available_parallelism` reported); the denominator the
    /// parallel-efficiency floor is normalised by. Pre-scaling reports lack
    /// this field and fail deserialisation — regenerate them.
    pub cores: u64,
    /// The multi-core scaling curve: the sharded engine re-measured on the
    /// noise/dense cell across worker counts (see [`ScalingRow`]).
    pub scaling: Vec<ScalingRow>,
}

/// One point of the multi-core scaling curve: the sharded engine on the
/// noise generator with dense delivery at a given worker count.
///
/// `efficiency` is `speedup_vs_one / min(workers, cores)` — the fraction of
/// ideal linear scaling actually delivered, normalised by the parallelism the
/// machine can physically provide so a 1-core CI runner holds the sharding
/// *overhead* to a floor instead of demanding impossible speedups. The floor
/// check recomputes it from `steps_per_sec`, so the stored field is
/// documentation, not the gate.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScalingRow {
    /// Workload generator name (the scaling axis uses `"noise"`).
    pub generator: String,
    /// Number of nodes.
    pub n: u64,
    /// Sharded-engine worker count of this point.
    pub workers: u64,
    /// Measured steps (after warm-up).
    pub steps: u64,
    /// Simulated observation steps per second of engine work.
    pub steps_per_sec: f64,
    /// Microseconds of engine work per step.
    pub us_per_step: f64,
    /// `steps_per_sec` ratio over this curve's `workers = 1` point.
    pub speedup_vs_one: f64,
    /// `speedup_vs_one / min(workers, cores)`.
    pub efficiency: f64,
}

/// A standalone scaling-curve report (`--scaling`), written to
/// `BENCH_scaling_quick.json` by the CI smoke job. The committed full-scale
/// curve lives inside `BENCH_throughput.json` ([`ThroughputReport::scaling`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScalingReport {
    /// Schema/benchmark identifier (`"scaling"`).
    pub bench: String,
    /// `"quick"` or `"full"`.
    pub scale: String,
    /// CPU cores available on the measuring machine.
    pub cores: u64,
    /// The measured curve.
    pub rows: Vec<ScalingRow>,
}

/// Speedup summary entry.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SpeedupRow {
    /// Workload generator name.
    pub generator: String,
    /// Number of nodes.
    pub n: u64,
    /// Steps/sec ratio of the faster engine over its reference (dense
    /// delivery): indexed ÷ baseline in `speedups_dense`, sharded ÷ indexed in
    /// `speedups_sharded`.
    pub speedup: f64,
}

fn make_workload(name: &str, n: usize, seed: u64) -> Box<dyn AdaptiveWorkload> {
    match name {
        "zipf" => Box::new(ZipfLoadWorkload::new(n, 1.1, 100_000, 500, 1e-4, seed)),
        "noise" => Box::new(NoiseOscillationWorkload::new(
            n,
            8,
            32,
            100_000,
            Epsilon::TENTH,
            seed,
        )),
        "random-walk" => Box::new(RandomWalkWorkload::new(n, 1_000_000, 1_000, 0.05, seed)),
        "adversarial" => Box::new(LowerBoundAdversary::new(
            n,
            8,
            64.min(n - 1),
            1 << 20,
            Epsilon::new(1, 4).unwrap(),
        )),
        other => panic!("unknown throughput generator {other}"),
    }
}

/// The harness's filter policy, mirroring how the paper's protocols treat
/// nodes: calibrate a per-node band from a few observed steps (a deployment
/// sizes filters to the signal's variability). Steady nodes — top-k candidates
/// oscillate within a narrow multiplicative band — get a two-sided band with
/// 4× slack; nodes whose calibration range already spans a 2× ratio (noisy
/// non-candidates) get the one-sided `[0, hi]` filter the paper assigns to its
/// `Lower`/`V3` groups, so random excursions downward never report.
fn calibrated_filter(observed_lo: Value, observed_hi: Value) -> Filter {
    let hi = observed_hi.saturating_mul(4).saturating_add(64);
    let lo = if observed_hi / observed_lo.max(1) >= 2 {
        0
    } else {
        observed_lo / 4
    };
    Filter::bounded(lo, hi).expect("lo <= hi")
}

/// Repair after a violation: widen the violated side well past the violating
/// value. Every violation cuts that node's miss probability by ~4× (a crash
/// through the floor drops the lower bound to zero — the node just proved it
/// is not a stable top-k candidate), so nodes converge to silence after O(1)
/// violations instead of accumulating a backlog.
fn widened_filter(current: Filter, violating: Value) -> Filter {
    let (mut lo, mut hi) = (current.lo(), current.hi_or_max());
    if violating < lo {
        lo = if violating < lo / 4 { 0 } else { violating / 4 };
    } else {
        hi = violating.saturating_mul(4).saturating_add(64);
    }
    Filter::bounded(lo, hi.max(lo)).expect("lo <= hi")
}

/// Measured steps for the indexed and sharded engines at population `n`.
fn indexed_steps(n: usize, quick: bool) -> u64 {
    if quick {
        50
    } else if n <= 10_000 {
        200
    } else if n <= 100_000 {
        100
    } else if n <= 1_000_000 {
        30
    } else {
        15
    }
}

/// Measured steps for the baseline engine: capped so that the Θ(n log n)
/// per-step cost keeps the benchmark runnable at large `n`.
fn baseline_steps(n: usize, quick: bool) -> u64 {
    indexed_steps(n, quick).min((4_000_000 / n as u64).max(3))
}

/// The baseline engine is excluded above this population: Θ(n log n) node
/// invocations per step make even a handful of measured steps take minutes at
/// `n = 10⁷`, and the scaling question up there is indexed vs sharded anyway.
const BASELINE_MAX_N: usize = 1_000_000;

// 16 calibration samples make the band classification reliable: the chance a
// wide-ranging node's samples all land within a 2x ratio (earning it a
// two-sided filter it will keep violating) is negligible.
const CALIBRATION_STEPS: u64 = 16;
const WARMUP_STEPS: u64 = 8;

/// Outcome of the shared measurement loop, engine-agnostic.
struct LoopOutcome {
    /// Measured steps (after warm-up).
    steps: u64,
    elapsed_s: f64,
    messages: u64,
    mean_changed_per_step: f64,
    profile: PhaseProfile,
}

/// The monitoring loop every measurement drives: calibrate filters, warm up,
/// then time observation delivery plus the per-step violation check and
/// repairs, for at least `steps` steps and until the timed work adds up to
/// at least `window`. Generic over the engine so callers with
/// engine-specific counters (the remote transport axis) can snapshot them
/// when the warm-up ends via `at_warmup_end`.
fn drive<N: Network>(
    net: &mut N,
    workload: &mut dyn AdaptiveWorkload,
    n: usize,
    mode: DeliveryMode,
    steps: u64,
    window: Duration,
    mut at_warmup_end: impl FnMut(&N),
) -> LoopOutcome {
    // Setup (untimed): observe a few calibration steps under the all-embracing
    // default filters (no violations possible), then assign every node a band
    // sized to the range it actually exhibited.
    let mut filters: Vec<Filter> = Vec::new();
    net.peek_filters_into(&mut filters);
    let first = workload.next_step_adaptive(&filters);
    net.advance_time(&first);
    let mut band_lo = first.clone();
    let mut band_hi = first.clone();
    let mut prev = first;
    for _ in 0..CALIBRATION_STEPS {
        let row = workload.next_step_adaptive(&filters);
        net.advance_time(&row);
        for (i, &v) in row.iter().enumerate() {
            band_lo[i] = band_lo[i].min(v);
            band_hi[i] = band_hi[i].max(v);
        }
        prev = row;
    }
    for i in 0..n {
        net.assign_filter(NodeId(i), calibrated_filter(band_lo[i], band_hi[i]));
    }
    net.peek_filters_into(&mut filters);
    let mut changes: Vec<(NodeId, Value)> = Vec::new();
    let mut reports: Vec<NodeMessage> = Vec::new();
    let mut elapsed = Duration::ZERO;
    let mut total_changed = 0u64;
    let mut messages_at_warmup_end = 0u64;
    let mut rounds_at_warmup_end = 0u64;
    // Phase breakdown: where each timed step's engine seconds went. Reset at
    // the warm-up boundary with every other measured quantity.
    let mut phase_advance = Duration::ZERO;
    let mut phase_detect = Duration::ZERO;
    let mut violations = 0u64;

    let mut step = 0;
    while step < WARMUP_STEPS + steps || elapsed < window {
        if step == WARMUP_STEPS {
            elapsed = Duration::ZERO;
            total_changed = 0;
            phase_advance = Duration::ZERO;
            phase_detect = Duration::ZERO;
            violations = 0;
            let stats = net.stats();
            messages_at_warmup_end = stats.total_messages();
            rounds_at_warmup_end = stats.rounds;
            at_warmup_end(net);
        }
        // Workload generation and row diffing are the source's job, not the
        // engine's — kept off the clock.
        let row = workload.next_step_adaptive(&filters);
        changes.clear();
        for (i, (&new, &old)) in row.iter().zip(prev.iter()).enumerate() {
            if new != old {
                changes.push((NodeId(i), new));
            }
        }
        total_changed += changes.len() as u64;

        let t0 = Instant::now();
        match mode {
            DeliveryMode::Dense => net.advance_time(&row),
            DeliveryMode::Sparse => net.advance_time_sparse(&changes),
        }
        let t_advance = t0.elapsed();
        // Drain *all* violations before the next observation arrives, like the
        // real monitors do (each Lemma 3.1 run reports O(1) violators in
        // expectation, so a backlog takes several runs). The loop terminates
        // because the final round of a run reports with probability 1 and every
        // reported node is repaired. One report buffer serves the whole run.
        loop {
            detect_violations_into(net, &mut reports);
            if reports.is_empty() {
                break;
            }
            violations += reports.len() as u64;
            for report in &reports {
                let node = report.sender();
                let widened = widened_filter(net.peek_filter(node), report.value());
                net.assign_filter(node, widened);
            }
        }
        elapsed += t0.elapsed();
        phase_advance += t_advance;
        phase_detect += t0.elapsed() - t_advance;

        prev = row;
        net.peek_filters_into(&mut filters);
        step += 1;
    }
    let steps = step - WARMUP_STEPS;
    let stats = net.stats();
    let messages = stats.total_messages() - messages_at_warmup_end;
    let rounds = stats.rounds - rounds_at_warmup_end;
    let elapsed_s = elapsed.as_secs_f64().max(1e-9);
    LoopOutcome {
        steps,
        elapsed_s,
        messages,
        mean_changed_per_step: total_changed as f64 / steps as f64,
        profile: PhaseProfile {
            advance_ns_per_step: phase_advance.as_secs_f64() * 1e9 / steps as f64,
            detect_repair_ns_per_step: phase_detect.as_secs_f64() * 1e9 / steps as f64,
            rounds,
            rounds_per_sec: rounds as f64 / elapsed_s,
            messages_per_sec: messages as f64 / elapsed_s,
            ns_per_message: if messages > 0 {
                elapsed_s * 1e9 / messages as f64
            } else {
                0.0
            },
            violations,
        },
    }
}

/// Runs one configuration and returns its measurement row.
pub fn measure(
    generator: &str,
    n: usize,
    kind: EngineKind,
    mode: DeliveryMode,
    steps: u64,
    seed: u64,
) -> ThroughputRow {
    let mut workload = make_workload(generator, n, seed);
    let w = workload.as_mut();
    // In-process rows run exactly `steps` steps.
    let window = Duration::ZERO;
    let out = match kind {
        EngineKind::Baseline => {
            let mut net = DeterministicEngine::new(n, seed);
            drive(&mut net, w, n, mode, steps, window, |_| {})
        }
        EngineKind::Indexed => {
            let mut net = IndexedEngine::new(n, seed);
            drive(&mut net, w, n, mode, steps, window, |_| {})
        }
        // `Dispatch::Auto`: the engine uses its worker pool when the machine
        // has usable parallelism and falls back to inline shard execution
        // otherwise — the measurement reflects what a deployment would get.
        EngineKind::Sharded(workers) => {
            let mut net = ShardedEngine::new(n, seed, workers);
            drive(&mut net, w, n, mode, steps, window, |_| {})
        }
    };
    ThroughputRow {
        generator: generator.to_string(),
        n: n as u64,
        engine: kind.label().to_string(),
        workers: kind.workers(),
        mode: mode.label().to_string(),
        steps,
        elapsed_s: out.elapsed_s,
        steps_per_sec: steps as f64 / out.elapsed_s,
        us_per_step: out.elapsed_s * 1e6 / steps as f64,
        messages: out.messages,
        mean_changed_per_step: out.mean_changed_per_step,
        profile: out.profile,
    }
}

/// One measured remote-transport configuration (the `--remote` axis).
///
/// Extends the in-process metrics with *wire-level* quantities: frames and
/// bytes actually moved over the loopback TCP connections, in total and per
/// step. Set beside the *model* message count, they show how far the paper's
/// unit-cost accounting is from physical transport cost on each workload
/// regime — per step, because a silent regime sends no model messages at
/// all while its observations and round-0 queries still cross the wire.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RemoteRow {
    /// Workload generator name (one of [`GENERATORS`]).
    pub generator: String,
    /// Number of nodes.
    pub n: u64,
    /// Number of shard connections (client processes).
    pub shards: u64,
    /// `"dense"` or `"sparse"` observation delivery.
    pub mode: String,
    /// Measured steps (after warm-up).
    pub steps: u64,
    /// Wall-clock seconds of engine + transport work over the measured steps.
    pub elapsed_s: f64,
    /// Simulated observation steps per second.
    pub steps_per_sec: f64,
    /// Microseconds per step.
    pub us_per_step: f64,
    /// Model messages sent during the measured steps.
    pub messages: u64,
    /// Wire frames moved (both directions) during the measured steps.
    pub frames: u64,
    /// Wire bytes moved (both directions) during the measured steps.
    pub bytes: u64,
    /// Frames per second of wall-clock time.
    pub frames_per_sec: f64,
    /// Wire frames per measured step (`frames / steps`).
    pub frames_per_step: f64,
    /// Wire bytes per measured step (`bytes / steps`).
    pub bytes_per_step: f64,
}

/// The `--remote` benchmark output, serialised to `BENCH_remote.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RemoteReport {
    /// Schema/benchmark identifier (`"remote-transport"`).
    pub bench: String,
    /// `"quick"` or `"full"`.
    pub scale: String,
    /// CPU cores of the measuring machine (shard clients and the
    /// coordinator share them).
    pub cores: u64,
    /// All measured configurations.
    pub rows: Vec<RemoteRow>,
}

/// Runs one remote-transport configuration for at least `steps` measured
/// steps and until their timed work adds up to at least `window`.
pub fn measure_remote(
    generator: &str,
    n: usize,
    shards: usize,
    mode: DeliveryMode,
    steps: u64,
    window: Duration,
    seed: u64,
) -> RemoteRow {
    let mut workload = make_workload(generator, n, seed);
    let mut net = RemoteEngine::with_shards(n, seed, shards);
    let mut transport_at_warmup_end = TransportStats::default();
    let out = drive(&mut net, workload.as_mut(), n, mode, steps, window, |net| {
        transport_at_warmup_end = net.transport_stats()
    });
    let steps = out.steps;
    let transport = net.transport_stats();
    let frames = transport.frames() - transport_at_warmup_end.frames();
    let bytes = transport.bytes() - transport_at_warmup_end.bytes();
    RemoteRow {
        generator: generator.to_string(),
        n: n as u64,
        shards: shards as u64,
        mode: mode.label().to_string(),
        steps,
        elapsed_s: out.elapsed_s,
        steps_per_sec: steps as f64 / out.elapsed_s,
        us_per_step: out.elapsed_s * 1e6 / steps as f64,
        messages: out.messages,
        frames,
        bytes,
        frames_per_sec: frames as f64 / out.elapsed_s,
        frames_per_step: frames as f64 / steps as f64,
        bytes_per_step: bytes as f64 / steps as f64,
    }
}

/// Populations the remote axis measures: every operation pays socket
/// round-trips, so the matrix stays below the in-process sizes.
fn remote_sizes(quick: bool) -> &'static [usize] {
    if quick {
        &[1_000]
    } else {
        &[1_000, 10_000, 100_000]
    }
}

/// The fewest measured steps for the remote engine at population `n`.
fn remote_steps(n: usize, quick: bool) -> u64 {
    if quick {
        30
    } else if n <= 10_000 {
        100
    } else {
        40
    }
}

/// The least timed work per remote row. A quick row's 30 steps can take
/// under 5 ms on a silent workload, too short a window for a rate that two
/// runs agree on, so quick rows run on until a quarter second of timed work.
fn remote_window(quick: bool) -> Duration {
    if quick {
        Duration::from_millis(250)
    } else {
        Duration::ZERO
    }
}

/// Runs the remote-transport benchmark matrix (the `--remote` axis).
pub fn run_remote(quick: bool, shards: usize, log: impl Fn(&str)) -> RemoteReport {
    let seed = 0xBE7C;
    let window = remote_window(quick);
    let mut rows = Vec::new();
    for &n in remote_sizes(quick) {
        for generator in GENERATORS {
            let steps = remote_steps(n, quick);
            for mode in [DeliveryMode::Dense, DeliveryMode::Sparse] {
                let row = measure_remote(generator, n, shards, mode, steps, window, seed);
                log(&format!(
                    "remote: {generator:>12} n={n:>8} {shards} conns/{:<6} {:>10.1} steps/s {:>7.1} frames/step {:>10.1} B/step {:>6} msgs",
                    row.mode, row.steps_per_sec, row.frames_per_step, row.bytes_per_step, row.messages
                ));
                rows.push(row);
            }
        }
    }
    RemoteReport {
        bench: REMOTE_BENCH.to_string(),
        scale: if quick { "quick" } else { "full" }.to_string(),
        cores: available_cores(),
        rows,
    }
}

/// The `bench` id of a [`RemoteReport`], by which `--check-floors` tells it
/// from a throughput report.
pub const REMOTE_BENCH: &str = "remote-transport";

/// Checks a remote report against [`FloorTable::STANDARD`](crate::floors::FloorTable)'s
/// remote floors; returns one message per violated bar (empty = pass).
///
/// Every row's per-step figures are recomputed from its totals, so an edited
/// derived field fails. Rows with no model messages — every step an
/// observation plus one silent existence run — must stay within
/// `max_silent_frames_per_shard_step` frames per occupied shard per step,
/// and the report must hold at least one such row, so the bar never checks
/// nothing.
pub fn check_remote_floors(report: &RemoteReport) -> Vec<String> {
    let floors = crate::floors::FloorTable::STANDARD.remote;
    let mut failures = Vec::new();
    if report.bench != REMOTE_BENCH {
        failures.push(format!(
            "bench id is '{}', expected '{REMOTE_BENCH}'",
            report.bench
        ));
    }
    if report.cores == 0 {
        failures.push("the report does not record the measuring machine's cores".to_string());
    }
    let mut silent_rows = 0usize;
    for row in &report.rows {
        let cell = format!(
            "{} n={} {} conns/{}",
            row.generator, row.n, row.shards, row.mode
        );
        if row.steps == 0 {
            failures.push(format!("{cell}: no measured steps"));
            continue;
        }
        let steps = row.steps as f64;
        let frames_per_step = row.frames as f64 / steps;
        let bytes_per_step = row.bytes as f64 / steps;
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(1.0);
        if !close(row.frames_per_step, frames_per_step)
            || !close(row.bytes_per_step, bytes_per_step)
        {
            failures.push(format!(
                "{cell}: per-step figures ({:.3} frames, {:.1} B) disagree with the totals ({frames_per_step:.3}, {bytes_per_step:.1})",
                row.frames_per_step, row.bytes_per_step
            ));
        }
        if row.messages > 0 {
            continue;
        }
        silent_rows += 1;
        let occupied = row.shards.min(row.n);
        let bar = floors.max_silent_frames_per_shard_step * occupied;
        if frames_per_step > bar as f64 {
            failures.push(format!(
                "{cell}: {frames_per_step:.2} frames/step on a silent row, above {} per occupied shard ({bar} for {occupied} shards)",
                floors.max_silent_frames_per_shard_step
            ));
        }
    }
    if silent_rows == 0 {
        failures.push(
            "no row with 0 model messages: the silent-step frame bar checks nothing".to_string(),
        );
    }
    failures
}

/// Serialises a remote report as pretty JSON.
pub fn remote_to_json(report: &RemoteReport) -> String {
    serde_json::to_string_pretty(report).expect("remote reports serialise")
}

/// CPU cores the measuring machine offers — the denominator of the
/// parallel-efficiency normalisation.
pub fn available_cores() -> u64 {
    std::thread::available_parallelism()
        .map(|c| c.get() as u64)
        .unwrap_or(1)
}

/// Worker counts the scaling curve measures.
fn scaling_worker_counts(quick: bool) -> &'static [usize] {
    if quick {
        &[1, 2]
    } else {
        &[1, 2, 4, 8]
    }
}

/// Measures the multi-core scaling curve: the sharded engine on the
/// noise/dense cell across worker counts, at `n = 10⁶` (full) or `n = 10⁵`
/// (quick). The `workers = 1` point anchors `speedup_vs_one`; `efficiency`
/// normalises by `min(workers, cores)` so the curve is meaningful on any
/// machine (on a 1-core runner it degenerates to a sharding-overhead bound).
pub fn measure_scaling(quick: bool, log: impl Fn(&str)) -> (u64, Vec<ScalingRow>) {
    let cores = available_cores();
    let n: usize = if quick { 100_000 } else { 1_000_000 };
    let steps = indexed_steps(n, quick);
    let seed = 0xBE7C;
    let mut rows: Vec<ScalingRow> = Vec::new();
    let mut one_sps = 0.0_f64;
    for &workers in scaling_worker_counts(quick) {
        let row = measure(
            "noise",
            n,
            EngineKind::Sharded(workers),
            DeliveryMode::Dense,
            steps,
            seed,
        );
        if workers == 1 {
            one_sps = row.steps_per_sec;
        }
        let speedup_vs_one = row.steps_per_sec / one_sps.max(1e-9);
        let efficiency = speedup_vs_one / (workers as u64).min(cores).max(1) as f64;
        log(&format!(
            "scaling:    noise n={n:>8} workers={workers:>2} {:>12.1} steps/s  speedup {:>5.2}x  efficiency {:>5.2} (cores={cores})",
            row.steps_per_sec, speedup_vs_one, efficiency
        ));
        rows.push(ScalingRow {
            generator: row.generator,
            n: row.n,
            workers: workers as u64,
            steps: row.steps,
            steps_per_sec: row.steps_per_sec,
            us_per_step: row.us_per_step,
            speedup_vs_one,
            efficiency,
        });
    }
    (cores, rows)
}

/// Runs only the scaling curve and wraps it as a standalone report — the
/// `--scaling` mode the CI smoke job uses.
pub fn run_scaling(quick: bool, log: impl Fn(&str)) -> ScalingReport {
    let (cores, rows) = measure_scaling(quick, log);
    ScalingReport {
        bench: "scaling".to_string(),
        scale: if quick { "quick" } else { "full" }.to_string(),
        cores,
        rows,
    }
}

/// Serialises a scaling report as pretty JSON.
pub fn scaling_to_json(report: &ScalingReport) -> String {
    serde_json::to_string_pretty(report).expect("scaling reports serialise")
}

/// Checks a standalone scaling report against the standard floor table:
/// same bars as the embedded curve in a throughput report of the same scale.
pub fn check_scaling_floors(report: &ScalingReport) -> Vec<String> {
    check_scaling_axis(
        &report.rows,
        report.cores,
        &report.scale,
        &crate::floors::FloorTable::STANDARD.throughput,
    )
}

/// Runs the whole benchmark matrix.
///
/// `quick` is the CI smoke configuration: `n ∈ {10³, 10⁴, 10⁵}` and fewer
/// steps. The full configuration adds `n = 10⁶` and — for the indexed and
/// sharded engines only (see `BASELINE_MAX_N`) — `n = 10⁷`.
///
/// `sharded_workers` is the worker count of the `--sharded` axis (the sharded
/// engine is measured alongside baseline and indexed at every size).
pub fn run_throughput(quick: bool, sharded_workers: usize, log: impl Fn(&str)) -> ThroughputReport {
    let sizes: &[usize] = if quick {
        &[1_000, 10_000, 100_000]
    } else {
        &[1_000, 10_000, 100_000, 1_000_000, 10_000_000]
    };
    let seed = 0xBE7C;
    let mut rows = Vec::new();
    for &n in sizes {
        for generator in GENERATORS {
            for kind in [
                EngineKind::Baseline,
                EngineKind::Indexed,
                EngineKind::Sharded(sharded_workers),
            ] {
                if matches!(kind, EngineKind::Baseline) && n > BASELINE_MAX_N {
                    continue;
                }
                let steps = match kind {
                    EngineKind::Baseline => baseline_steps(n, quick),
                    EngineKind::Indexed | EngineKind::Sharded(_) => indexed_steps(n, quick),
                };
                for mode in [DeliveryMode::Dense, DeliveryMode::Sparse] {
                    let row = measure(generator, n, kind, mode, steps, seed);
                    log(&format!(
                        "throughput: {generator:>12} n={n:>8} {:>8}/{:<6} {:>12.1} steps/s ({:.1} us/step, {} msgs)",
                        row.engine, row.mode, row.steps_per_sec, row.us_per_step, row.messages
                    ));
                    rows.push(row);
                }
            }
        }
    }
    let speedups_dense = speedups(&rows, "indexed", "baseline");
    let speedups_sharded = speedups(&rows, "sharded", "indexed");
    let (cores, scaling) = measure_scaling(quick, &log);
    ThroughputReport {
        bench: "throughput".to_string(),
        scale: if quick { "quick" } else { "full" }.to_string(),
        rows,
        speedups_dense,
        speedups_sharded,
        cores,
        scaling,
    }
}

/// Dense-mode steps/sec ratios of `engine` over `reference` per
/// `(generator, n)`.
fn speedups(rows: &[ThroughputRow], engine: &str, reference: &str) -> Vec<SpeedupRow> {
    let mut out = Vec::new();
    for row in rows {
        if row.engine != engine || row.mode != "dense" {
            continue;
        }
        let base = rows.iter().find(|r| {
            r.generator == row.generator
                && r.n == row.n
                && r.engine == reference
                && r.mode == "dense"
        });
        if let Some(b) = base {
            out.push(SpeedupRow {
                generator: row.generator.clone(),
                n: row.n,
                speedup: row.steps_per_sec / b.steps_per_sec,
            });
        }
    }
    out
}

/// Checks the CI floors against a report using the standard
/// [`FloorTable`](crate::floors::FloorTable); returns a list of human-readable
/// failures (empty = pass).
pub fn check_floors(report: &ThroughputReport) -> Vec<String> {
    check_floors_against(report, &crate::floors::FloorTable::STANDARD.throughput)
}

/// Checks the CI floors against a report with an explicit floor table — the
/// single source of the numeric bars shared with the campaign checker (the
/// values used to be duplicated between doc comments, CI comments and this
/// function).
pub fn check_floors_against(
    report: &ThroughputReport,
    floors: &crate::floors::ThroughputFloors,
) -> Vec<String> {
    let mut failures = Vec::new();
    let at = |engine: &str, n: u64| {
        report
            .rows
            .iter()
            .find(|r| r.generator == "noise" && r.n == n && r.engine == engine && r.mode == "dense")
    };
    match (at("indexed", 100_000), at("baseline", 100_000)) {
        (Some(indexed), Some(baseline)) => {
            let speedup = indexed.steps_per_sec / baseline.steps_per_sec;
            if speedup < floors.indexed_speedup {
                failures.push(format!(
                    "indexed/baseline speedup at n=1e5 (noise, dense) is {speedup:.1}x, floor is {}x",
                    floors.indexed_speedup
                ));
            }
            if indexed.steps_per_sec < floors.indexed_absolute_steps_per_sec {
                failures.push(format!(
                    "indexed steps/sec at n=1e5 (noise, dense) is {:.1}, floor is {}",
                    indexed.steps_per_sec, floors.indexed_absolute_steps_per_sec
                ));
            }
        }
        _ => failures.push("report is missing the n=1e5 noise rows the floor check needs".into()),
    }
    // Sharded floor: keyed on the report's declared scale, not on which rows
    // happen to be present — a full-scale report with its n = 1e6 rows
    // missing must *fail*, not silently fall back to the loose quick bar.
    let (n, floor) = if report.scale == "full" {
        (1_000_000, floors.sharded_speedup_full)
    } else {
        (100_000, floors.sharded_speedup_quick)
    };
    match (at("sharded", n), at("indexed", n)) {
        (Some(sharded), Some(indexed)) => {
            if report.scale == "full" && sharded.workers != floors.sharded_floor_workers {
                failures.push(format!(
                    "full-scale sharded rows were measured with {} workers; the floor is stated for {} (regenerate with --sharded {})",
                    sharded.workers, floors.sharded_floor_workers, floors.sharded_floor_workers
                ));
            }
            let speedup = sharded.steps_per_sec / indexed.steps_per_sec;
            if speedup < floor {
                failures.push(format!(
                    "sharded/indexed speedup at n={n} (noise, dense, {} workers) is {speedup:.2}x, floor is {floor}x",
                    sharded.workers
                ));
            }
        }
        _ => failures.push(format!(
            "report is missing the n={n} noise rows the sharded floor check needs"
        )),
    }
    failures.extend(check_scaling_axis(
        &report.scaling,
        report.cores,
        &report.scale,
        floors,
    ));
    failures
}

/// Validates a measured scaling curve against the floor table.
///
/// Efficiency is *recomputed* here from `steps_per_sec` and the report's
/// `cores` — the stored `efficiency` field never satisfies the gate on its
/// own, so a hand-edited JSON cannot launder a regression through it.
fn check_scaling_axis(
    rows: &[ScalingRow],
    cores: u64,
    scale: &str,
    floors: &crate::floors::ThroughputFloors,
) -> Vec<String> {
    let mut failures = Vec::new();
    let (min_counts, min_n, floor) = if scale == "full" {
        (
            floors.scaling_min_worker_counts,
            1_000_000,
            floors.scaling_efficiency_full,
        )
    } else {
        (2, 100_000, floors.scaling_efficiency_quick)
    };
    if cores == 0 {
        failures.push("report records cores = 0; regenerate it with the scaling axis".into());
    }
    let mut counts: Vec<u64> = rows.iter().map(|r| r.workers).collect();
    counts.sort_unstable();
    counts.dedup();
    if counts.len() < min_counts {
        failures.push(format!(
            "scaling curve covers {} worker counts, floor is {min_counts}",
            counts.len()
        ));
        return failures;
    }
    if let Some(r) = rows.iter().find(|r| r.n < min_n) {
        failures.push(format!(
            "{scale}-scale scaling curve has an n={} point; the floor is stated for n >= {min_n}",
            r.n
        ));
    }
    let Some(one) = rows.iter().find(|r| r.workers == 1) else {
        failures.push("scaling curve is missing its workers=1 anchor point".into());
        return failures;
    };
    for row in rows.iter().filter(|r| r.workers > 1) {
        let speedup = row.steps_per_sec / one.steps_per_sec;
        let efficiency = speedup / row.workers.min(cores.max(1)).max(1) as f64;
        if efficiency < floor {
            failures.push(format!(
                "parallel efficiency at workers={} is {efficiency:.2} ({speedup:.2}x over 1 worker on {cores} cores), floor is {floor}",
                row.workers
            ));
        }
    }
    failures
}

/// Serialises a report as pretty JSON.
pub fn to_json(report: &ThroughputReport) -> String {
    serde_json::to_string_pretty(report).expect("throughput reports serialise")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_produces_sane_numbers() {
        let row = measure(
            "noise",
            256,
            EngineKind::Indexed,
            DeliveryMode::Dense,
            10,
            7,
        );
        assert_eq!(row.steps, 10);
        assert!(row.steps_per_sec > 0.0);
        assert!(row.us_per_step > 0.0);
        assert!(row.mean_changed_per_step > 0.0);
        // The phase attribution must account for the measured window: both
        // phases ran, and their sum is within the row's per-step total.
        assert!(row.profile.advance_ns_per_step > 0.0);
        assert!(row.profile.detect_repair_ns_per_step > 0.0);
        let phase_sum = row.profile.advance_ns_per_step + row.profile.detect_repair_ns_per_step;
        assert!(
            phase_sum <= row.us_per_step * 1e3 * 1.01,
            "phases ({phase_sum} ns/step) exceed the measured total ({} ns/step)",
            row.us_per_step * 1e3
        );
        assert!(row.profile.rounds > 0, "violation drains consume rounds");
        assert!(row.profile.rounds_per_sec > 0.0);
    }

    #[test]
    fn engines_send_identical_messages_in_the_harness_loop() {
        for generator in GENERATORS {
            let base = measure(
                generator,
                128,
                EngineKind::Baseline,
                DeliveryMode::Dense,
                15,
                3,
            );
            let idx = measure(
                generator,
                128,
                EngineKind::Indexed,
                DeliveryMode::Dense,
                15,
                3,
            );
            assert_eq!(
                base.messages, idx.messages,
                "{generator}: engines disagree on message counts"
            );
            let sparse = measure(
                generator,
                128,
                EngineKind::Indexed,
                DeliveryMode::Sparse,
                15,
                3,
            );
            assert_eq!(
                base.messages, sparse.messages,
                "{generator}: sparse delivery changed message counts"
            );
        }
    }

    #[test]
    fn quiet_workload_converges_to_silence() {
        // After warm-up the ratcheting filters cover the adversary's range, so
        // the measured window sends (almost) no messages.
        let row = measure(
            "adversarial",
            256,
            EngineKind::Indexed,
            DeliveryMode::Sparse,
            20,
            11,
        );
        assert!(
            row.messages < 40,
            "adversarial workload should be near-silent after warm-up, sent {}",
            row.messages
        );
        assert!(row.mean_changed_per_step < 40.0);
    }

    /// A healthy full-scale scaling curve for hand-built report fixtures.
    fn scaling_fixture() -> Vec<ScalingRow> {
        [1u64, 2, 4]
            .iter()
            .map(|&workers| ScalingRow {
                generator: "noise".into(),
                n: 1_000_000,
                workers,
                steps: 1,
                // Perfect linear scaling on the fixture's 4 "cores".
                steps_per_sec: 100.0 * workers as f64,
                us_per_step: 1.0,
                speedup_vs_one: workers as f64,
                efficiency: 1.0,
            })
            .collect()
    }

    #[test]
    fn floor_check_detects_missing_rows() {
        let empty = ThroughputReport {
            bench: "throughput".into(),
            scale: "quick".into(),
            rows: vec![],
            speedups_dense: vec![],
            speedups_sharded: vec![],
            cores: 0,
            scaling: vec![],
        };
        // The indexed and sharded floors report their missing rows; the
        // scaling gate reports the zero cores field and the empty curve.
        assert_eq!(check_floors(&empty).len(), 4);
    }

    #[test]
    fn sharded_floor_uses_full_scale_rows_when_present() {
        // The sharded axis must be built with the same worker count the
        // full-scale floor is stated for — derive it, never hard-code it, so
        // a floor-table change cannot silently diverge from this fixture.
        let floor_workers = crate::floors::FloorTable::STANDARD
            .throughput
            .sharded_floor_workers;
        let row = |engine: &str, n: u64, steps_per_sec: f64| ThroughputRow {
            generator: "noise".into(),
            n,
            engine: engine.into(),
            workers: if engine == "sharded" {
                floor_workers
            } else {
                0
            },
            mode: "dense".into(),
            steps: 1,
            elapsed_s: 1.0,
            steps_per_sec,
            us_per_step: 1.0,
            messages: 0,
            mean_changed_per_step: 0.0,
            profile: PhaseProfile::default(),
        };
        let mut report = ThroughputReport {
            bench: "throughput".into(),
            scale: "full".into(),
            rows: vec![
                row("baseline", 100_000, 10.0),
                row("indexed", 100_000, 1000.0),
                row("sharded", 100_000, 1000.0), // only 1.0x — but quick floor not used
                row("indexed", 1_000_000, 100.0),
                row("sharded", 1_000_000, 230.0), // 2.3x clears the full floor
            ],
            speedups_dense: vec![],
            speedups_sharded: vec![],
            cores: 4,
            scaling: scaling_fixture(),
        };
        assert!(check_floors(&report).is_empty());
        // Degrading the 1e6 sharded row below 2x must trip the floor.
        report.rows.last_mut().unwrap().steps_per_sec = 150.0;
        let failures = check_floors(&report);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("sharded/indexed"));
        // A full-scale report *missing* its n=1e6 rows must fail, not fall
        // back to the loose quick floor (the scale field is authoritative).
        report.rows.retain(|r| r.n != 1_000_000);
        let failures = check_floors(&report);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("missing the n=1000000"));
    }

    #[test]
    fn scaling_floor_recomputes_efficiency_from_steps_per_sec() {
        let mut report = ThroughputReport {
            bench: "throughput".into(),
            scale: "full".into(),
            rows: vec![],
            speedups_dense: vec![],
            speedups_sharded: vec![],
            cores: 4,
            scaling: scaling_fixture(),
        };
        let scaling_only = |r: &ThroughputReport| -> Vec<String> {
            check_floors(r)
                .into_iter()
                .filter(|f| {
                    f.contains("scaling") || f.contains("efficiency") || f.contains("cores")
                })
                .collect()
        };
        assert!(scaling_only(&report).is_empty());
        // Dropping workers=4 to 1.2x over workers=1 (efficiency 0.3 on 4
        // cores) must trip the 0.5 floor — even though the *stored*
        // efficiency field still says 1.0 (the gate recomputes).
        report.scaling.last_mut().unwrap().steps_per_sec = 120.0;
        let failures = scaling_only(&report);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("parallel efficiency at workers=4"));
        // On a 1-core machine the same numbers are *fine*: min(workers,
        // cores) = 1, so 1.2x over one worker is efficiency 1.2.
        report.cores = 1;
        assert!(scaling_only(&report).is_empty());
        // Fewer than 3 distinct worker counts fails a full-scale report.
        report.cores = 4;
        report.scaling.pop();
        let failures = scaling_only(&report);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("worker counts"));
        // A full-scale curve measured below n=1e6 fails.
        report.scaling = scaling_fixture();
        report.scaling[0].n = 100_000;
        assert!(scaling_only(&report)
            .iter()
            .any(|f| f.contains("n >= 1000000")));
    }

    #[test]
    fn standalone_scaling_report_round_trips_and_checks() {
        let report = ScalingReport {
            bench: "scaling".into(),
            scale: "full".into(),
            cores: 4,
            rows: scaling_fixture(),
        };
        assert!(check_scaling_floors(&report).is_empty());
        let json = scaling_to_json(&report);
        let parsed: ScalingReport = serde_json::from_str(&json).expect("scaling deserialises");
        assert_eq!(parsed.rows.len(), 3);
        assert_eq!(parsed.cores, 4);
        // A quick-scale curve is allowed 2 worker counts at n=1e5.
        let mut quick = report;
        quick.scale = "quick".into();
        quick.rows.pop();
        for r in &mut quick.rows {
            r.n = 100_000;
        }
        assert!(check_scaling_floors(&quick).is_empty());
    }

    #[test]
    fn report_serialises_and_roundtrips() {
        let row = measure(
            "random-walk",
            64,
            EngineKind::Sharded(2),
            DeliveryMode::Dense,
            5,
            1,
        );
        assert_eq!(row.workers, 2);
        let report = ThroughputReport {
            bench: "throughput".into(),
            scale: "quick".into(),
            speedups_dense: speedups(std::slice::from_ref(&row), "indexed", "baseline"),
            speedups_sharded: speedups(std::slice::from_ref(&row), "sharded", "indexed"),
            rows: vec![row],
            cores: available_cores(),
            scaling: vec![],
        };
        let json = to_json(&report);
        assert!(json.contains("\"generator\""));
        assert!(json.contains("random-walk"));
        assert!(json.contains("advance_ns_per_step"));
        let parsed: ThroughputReport = serde_json::from_str(&json).expect("reports deserialise");
        assert_eq!(parsed.rows.len(), 1);
        assert_eq!(parsed.rows[0].workers, 2);
        assert!(parsed.cores >= 1);
        // A pre-scaling report (no `cores`/`scaling` keys) must fail loudly
        // at the parse, not silently pass a floor check with empty defaults.
        let legacy = json.replace("\"cores\"", "\"cpus\"");
        assert!(serde_json::from_str::<ThroughputReport>(&legacy).is_err());
    }

    #[test]
    fn remote_measure_produces_sane_numbers_and_identical_messages() {
        let base = measure(
            "noise",
            128,
            EngineKind::Baseline,
            DeliveryMode::Dense,
            10,
            5,
        );
        for mode in [DeliveryMode::Dense, DeliveryMode::Sparse] {
            let row = measure_remote("noise", 128, 2, mode, 10, Duration::ZERO, 5);
            assert_eq!(row.steps, 10);
            assert_eq!(row.shards, 2);
            assert!(row.steps_per_sec > 0.0);
            assert!(row.frames > 0, "steps must move frames over the wire");
            assert!(row.bytes > 0);
            assert!(row.frames_per_sec > 0.0);
            assert_eq!(
                base.messages, row.messages,
                "the TCP transport changed model message counts in {mode:?}"
            );
        }
    }

    #[test]
    fn a_remote_row_runs_until_its_window_is_full() {
        let window = Duration::from_millis(40);
        let row = measure_remote("noise", 64, 1, DeliveryMode::Sparse, 3, window, 5);
        assert!(row.steps >= 3, "{} steps", row.steps);
        assert!(row.elapsed_s >= window.as_secs_f64(), "{} s", row.elapsed_s);
        // Every per-step figure divides by the steps actually measured.
        assert_eq!(row.steps_per_sec, row.steps as f64 / row.elapsed_s);
        assert_eq!(row.frames_per_step, row.frames as f64 / row.steps as f64);
        assert_eq!(row.bytes_per_step, row.bytes as f64 / row.steps as f64);
    }

    #[test]
    fn remote_report_serialises_and_roundtrips() {
        let report = RemoteReport {
            bench: REMOTE_BENCH.into(),
            scale: "quick".into(),
            cores: available_cores(),
            rows: vec![measure_remote(
                "random-walk",
                64,
                2,
                DeliveryMode::Sparse,
                5,
                Duration::ZERO,
                1,
            )],
        };
        let json = remote_to_json(&report);
        assert!(json.contains("frames_per_step") && json.contains("bytes_per_step"));
        assert!(!json.contains("bytes_per_message"));
        let parsed: RemoteReport = serde_json::from_str(&json).expect("remote reports deserialise");
        assert_eq!(parsed.rows.len(), 1);
        assert_eq!(parsed.rows[0].shards, 2);
    }

    #[test]
    fn silent_remote_rows_hold_the_frame_floor_and_tampering_fails() {
        // Noise at n = 256 under calibrated filters sends no model messages:
        // every step is an observation plus one silent existence run.
        let quiet = measure_remote("noise", 256, 3, DeliveryMode::Dense, 12, Duration::ZERO, 5);
        assert_eq!(quiet.messages, 0, "the cell must be silent");
        assert!(
            quiet.frames_per_step <= 9.0,
            "{} frames/step",
            quiet.frames_per_step
        );
        let busy = measure_remote("zipf", 64, 2, DeliveryMode::Sparse, 12, Duration::ZERO, 3);
        let report = RemoteReport {
            bench: REMOTE_BENCH.into(),
            scale: "quick".into(),
            cores: available_cores(),
            rows: vec![quiet.clone(), busy],
        };
        assert_eq!(check_remote_floors(&report), Vec::<String>::new());
        // Four frames per shard per step on the silent row: over the bar.
        let mut over = report.clone();
        over.rows[0].frames = 4 * 3 * over.rows[0].steps;
        over.rows[0].frames_per_step = 12.0;
        assert_eq!(check_remote_floors(&over).len(), 1);
        // A derived figure that disagrees with its totals.
        let mut edited = report.clone();
        edited.rows[0].bytes_per_step += 1.0;
        assert_eq!(check_remote_floors(&edited).len(), 1);
        // No silent row at all: the bar would check nothing.
        let mut vacuous = report.clone();
        vacuous.rows.remove(0);
        let failures = check_remote_floors(&vacuous);
        assert!(
            failures.iter().any(|f| f.contains("checks nothing")),
            "{failures:?}"
        );
        // Wrong bench id, missing core count.
        let mut foreign = report;
        foreign.bench = "throughput".into();
        foreign.cores = 0;
        assert_eq!(check_remote_floors(&foreign).len(), 2);
    }

    #[test]
    fn sharded_engine_sends_identical_messages_in_the_harness_loop() {
        for workers in [1, 3] {
            let base = measure(
                "random-walk",
                128,
                EngineKind::Baseline,
                DeliveryMode::Dense,
                15,
                3,
            );
            let sharded = measure(
                "random-walk",
                128,
                EngineKind::Sharded(workers),
                DeliveryMode::Dense,
                15,
                3,
            );
            assert_eq!(
                base.messages, sharded.messages,
                "sharded({workers}) disagrees with the baseline on message counts"
            );
            let sparse = measure(
                "random-walk",
                128,
                EngineKind::Sharded(workers),
                DeliveryMode::Sparse,
                15,
                3,
            );
            assert_eq!(base.messages, sparse.messages);
        }
    }
}
