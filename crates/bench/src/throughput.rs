//! Engine throughput benchmark (`experiments --throughput`).
//!
//! The paper's point is that *communication* scales with `O(k log n + …)`, not
//! with `n` — but a simulator is only useful at scale if its *computation*
//! tracks the communication. This harness measures simulated steps per second,
//! model messages and wire traffic per step on all four engines of
//! [`EngineKind`]: the reference [`DeterministicEngine`] (Θ(n log n) node
//! invocations per silent step), the [`IndexedEngine`] (O(active) work per
//! step), the [`ShardedEngine`] (the same O(active) algorithm on a worker-pool
//! shard layout with a tuned bulk observation path) and the TCP-loopback
//! [`RemoteEngine`]. It runs them across the workload generators at `n` from
//! 10³ to 10⁷, measures the sharded engine's multi-core scaling curve, and
//! writes everything as one report, `BENCH_throughput.json` — the repo's bench
//! trajectory. [`check_floors`] holds that report to every throughput and
//! remote bar of [`FloorTable::STANDARD`].
//!
//! Each run drives a minimal but honest monitoring loop: observations arrive,
//! the Corollary 3.2 violation check (`detect_violations`) runs every step, and
//! every reported violation is repaired by assigning a widened filter. Filters
//! ratchet outward, so every workload converges to the regime the paper's
//! bounds describe — mostly silent steps with occasional violations — during
//! the untimed warm-up. Workload generation and inspection happen outside the
//! timed sections; only engine work (observation delivery, existence rounds,
//! filter repairs, and for the remote engine the socket round trips they take)
//! is on the clock.
//!
//! Two delivery modes are measured:
//!
//! * `dense` — the classic [`Network::advance_time`] full row (the engine must
//!   at least scan `n` values);
//! * `sparse` — [`Network::advance_time_sparse`] with only the changed nodes
//!   (what a real ingest path would deliver). On quiet workloads the indexed
//!   engine's per-step cost is then near-independent of `n`.

use crate::floors::{FloorTable, RemoteFloors, ThroughputFloors};
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};
use topk_core::existence::detect_violations_into;
use topk_gen::{
    AdaptiveWorkload, LowerBoundAdversary, NoiseOscillationWorkload, RandomWalkWorkload,
    ZipfLoadWorkload,
};
use topk_model::prelude::*;
use topk_net::{
    DeterministicEngine, EngineKind, IndexedEngine, Network, RemoteEngine, ShardedEngine,
    TransportStats,
};

/// The workload generators exercised by the throughput benchmark.
pub const GENERATORS: [&str; 4] = ["zipf", "noise", "random-walk", "adversarial"];

/// Worker threads of the sharded rows and shard connections of the remote
/// rows. The full-scale sharded floor is stated for this count
/// ([`ThroughputFloors::sharded_floor_workers`]).
const WORKERS: usize = 4;

/// The `bench` id of a throughput report.
const BENCH: &str = "throughput";

/// The seed of every engine and workload the benchmark measures.
const SEED: u64 = 0xBE7C;

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

/// One measured configuration: one engine on one (generator, n, delivery)
/// cell of the matrix.
///
/// Every engine shares this row. The wire fields count the frames and bytes
/// that crossed the remote engine's loopback sockets; the in-process engines
/// have no transport, so theirs are 0. Set beside the *model* message count,
/// they show how far the paper's unit-cost accounting is from physical
/// transport cost — per step, because a silent regime sends no model messages
/// at all while its observations and round-0 queries still cross the wire.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ThroughputRow {
    /// Workload generator name (one of [`GENERATORS`]).
    pub generator: String,
    /// Number of nodes.
    pub n: u64,
    /// The engine's [`EngineKind::name`].
    pub engine: String,
    /// Worker threads of a sharded row, shard connections of a remote row, 0
    /// for the single-threaded engines.
    pub workers: u64,
    /// `"dense"` or `"sparse"` observation delivery.
    pub mode: String,
    /// CPU cores of the machine that measured the row (what
    /// `std::thread::available_parallelism` reported).
    pub cores: u64,
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
    /// Wire frames moved (both directions) during the measured steps.
    pub frames: u64,
    /// Wire bytes moved (both directions) during the measured steps.
    pub bytes: u64,
    /// Wire frames per measured step (`frames / steps`).
    pub frames_per_step: f64,
    /// Wire bytes per measured step (`bytes / steps`).
    pub bytes_per_step: f64,
    /// Mean number of nodes whose value changed per step.
    pub mean_changed_per_step: f64,
    /// Where the engine time went (phase attribution and protocol rates).
    pub profile: PhaseProfile,
}

/// The benchmark output, serialised to `BENCH_throughput.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ThroughputReport {
    /// Schema/benchmark identifier (`"throughput"`).
    pub bench: String,
    /// `"quick"` (CI smoke) or `"full"`.
    pub scale: String,
    /// Every measured configuration, on all four engines.
    pub rows: Vec<ThroughputRow>,
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
    /// CPU cores of the machine that measured the point; the curve's
    /// efficiency is normalised by them.
    pub cores: u64,
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

/// The fewest measured steps for `engine` at population `n`.
fn min_steps(engine: EngineKind, n: usize, quick: bool) -> u64 {
    let in_process = if quick {
        50
    } else if n <= 10_000 {
        200
    } else if n <= 100_000 {
        100
    } else if n <= 1_000_000 {
        30
    } else {
        15
    };
    match engine {
        EngineKind::Indexed | EngineKind::Sharded => in_process,
        // Capped so that the Θ(n log n) per-step cost keeps the benchmark
        // runnable at large `n`.
        EngineKind::Deterministic => in_process.min((4_000_000 / n as u64).max(3)),
        EngineKind::Remote if quick => 30,
        EngineKind::Remote if n <= 10_000 => 100,
        EngineKind::Remote => 40,
    }
}

/// The largest population `engine` is measured at.
fn max_n(engine: EngineKind, quick: bool) -> usize {
    match engine {
        // Θ(n log n) node invocations per step make even a handful of
        // measured steps take minutes at `n = 10⁷`, and the scaling question
        // up there is indexed vs sharded anyway.
        EngineKind::Deterministic => 1_000_000,
        // Every operation pays socket round trips, so the remote rows stay
        // below the in-process sizes.
        EngineKind::Remote if quick => 1_000,
        EngineKind::Remote => 100_000,
        EngineKind::Indexed | EngineKind::Sharded => usize::MAX,
    }
}

/// The least timed work of every quick row and quick scaling-curve point.
/// A quick remote row's 30 steps can take under 5 ms on a silent workload,
/// a quick curve point's 50 steps 7–18 ms, and the in-process rows the
/// quick `sharded >= 1.2x indexed` bar reads their 50 steps in well under
/// that: too short a window for a rate that two runs agree on.
const QUICK_WINDOW: Duration = Duration::from_millis(250);

/// The most measured steps a row or curve point runs to fill its window.
/// Generation, row diffing and filter peeks stay off the clock, and on a row
/// whose engine step takes well under a microsecond they are most of the
/// loop: filling 0.25 s of timed work there took about 10⁶ steps, and a
/// quick run 326 s instead of 20. The rows the bars read, the remote rows
/// and the curve points fill their window in at most about 5,000 steps.
const WINDOW_MAX_STEPS: u64 = 20_000;

/// The least timed work per row and curve point: a quick one runs on until
/// [`QUICK_WINDOW`] of timed work, or [`WINDOW_MAX_STEPS`]; a full one runs
/// exactly its steps.
fn min_window(quick: bool) -> Duration {
    if quick {
        QUICK_WINDOW
    } else {
        Duration::ZERO
    }
}

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
/// at least `window` or the steps reach [`WINDOW_MAX_STEPS`]. Generic over
/// the engine so that the remote engine's transport counters can be
/// snapshotted when the warm-up ends, via `at_warmup_end`.
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
    while step < WARMUP_STEPS + steps
        || (elapsed < window && step < WARMUP_STEPS + WINDOW_MAX_STEPS)
    {
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
        // One clock read closes the step, so the two phases sum to it.
        let t_step = t0.elapsed();
        elapsed += t_step;
        phase_advance += t_advance;
        phase_detect += t_step - t_advance;

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

/// Runs `engine` on one cell for at least `steps` measured steps and until
/// their timed work adds up to at least `window`, and returns its row.
///
/// `workers` is the sharded engine's worker count or the remote engine's
/// shard-connection count; the single-threaded engines ignore it and record
/// 0. The harness builds each engine itself rather than through
/// [`topk_net::build_engine`], whose configuration is fixed, because the
/// scaling curve needs several worker counts.
#[allow(clippy::too_many_arguments)]
pub fn measure(
    generator: &str,
    n: usize,
    engine: EngineKind,
    workers: usize,
    mode: DeliveryMode,
    steps: u64,
    window: Duration,
    seed: u64,
) -> ThroughputRow {
    let mut workload = make_workload(generator, n, seed);
    let w = workload.as_mut();
    let (out, workers, frames, bytes) = match engine {
        EngineKind::Deterministic => {
            let mut net = DeterministicEngine::new(n, seed);
            (drive(&mut net, w, n, mode, steps, window, |_| {}), 0, 0, 0)
        }
        EngineKind::Indexed => {
            let mut net = IndexedEngine::new(n, seed);
            (drive(&mut net, w, n, mode, steps, window, |_| {}), 0, 0, 0)
        }
        // `Dispatch::Auto`: the engine uses its worker pool when the machine
        // has usable parallelism and falls back to inline shard execution
        // otherwise — the measurement reflects what a deployment would get.
        EngineKind::Sharded => {
            let mut net = ShardedEngine::new(n, seed, workers);
            let out = drive(&mut net, w, n, mode, steps, window, |_| {});
            (out, workers, 0, 0)
        }
        EngineKind::Remote => {
            let mut net = RemoteEngine::with_shards(n, seed, workers);
            let mut at_warmup_end = TransportStats::default();
            let out = drive(&mut net, w, n, mode, steps, window, |net| {
                at_warmup_end = net.transport_stats()
            });
            let total = net.transport_stats();
            let frames = total.frames() - at_warmup_end.frames();
            let bytes = total.bytes() - at_warmup_end.bytes();
            (out, workers, frames, bytes)
        }
    };
    let steps = out.steps;
    ThroughputRow {
        generator: generator.to_string(),
        n: n as u64,
        engine: engine.name().to_string(),
        workers: workers as u64,
        mode: mode.label().to_string(),
        cores: available_cores(),
        steps,
        elapsed_s: out.elapsed_s,
        steps_per_sec: steps as f64 / out.elapsed_s,
        us_per_step: out.elapsed_s * 1e6 / steps as f64,
        messages: out.messages,
        frames,
        bytes,
        frames_per_step: frames as f64 / steps as f64,
        bytes_per_step: bytes as f64 / steps as f64,
        mean_changed_per_step: out.mean_changed_per_step,
        profile: out.profile,
    }
}

/// CPU cores the measuring machine offers — the denominator of the
/// parallel-efficiency normalisation.
fn available_cores() -> u64 {
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
fn measure_scaling(quick: bool, log: impl Fn(&str)) -> Vec<ScalingRow> {
    let n: usize = if quick { 100_000 } else { 1_000_000 };
    let steps = min_steps(EngineKind::Sharded, n, quick);
    let window = min_window(quick);
    let mut rows: Vec<ScalingRow> = Vec::new();
    let mut one_sps = 0.0_f64;
    for &workers in scaling_worker_counts(quick) {
        let row = measure(
            "noise",
            n,
            EngineKind::Sharded,
            workers,
            DeliveryMode::Dense,
            steps,
            window,
            SEED,
        );
        if workers == 1 {
            one_sps = row.steps_per_sec;
        }
        let speedup_vs_one = row.steps_per_sec / one_sps.max(1e-9);
        let efficiency = speedup_vs_one / (workers as u64).min(row.cores).max(1) as f64;
        log(&format!(
            "scaling:    noise n={n:>8} workers={workers:>2} {:>12.1} steps/s  speedup {:>5.2}x  efficiency {:>5.2} (cores={})",
            row.steps_per_sec, speedup_vs_one, efficiency, row.cores
        ));
        rows.push(ScalingRow {
            generator: row.generator,
            n: row.n,
            workers: row.workers,
            cores: row.cores,
            steps: row.steps,
            steps_per_sec: row.steps_per_sec,
            us_per_step: row.us_per_step,
            speedup_vs_one,
            efficiency,
        });
    }
    rows
}

/// Runs the whole benchmark matrix and the scaling curve.
///
/// `quick` is the CI smoke configuration: `n ∈ {10³, 10⁴, 10⁵}` and fewer
/// steps, with the remote engine at `n = 10³` only. The full configuration
/// adds `n = 10⁶` and `n = 10⁷`; the deterministic engine stops at 10⁶ and the
/// remote engine at 10⁵ (see `max_n`). The sharded and remote rows run on 4
/// worker threads and 4 shard connections.
pub fn run_throughput(quick: bool, log: impl Fn(&str)) -> ThroughputReport {
    let sizes: &[usize] = if quick {
        &[1_000, 10_000, 100_000]
    } else {
        &[1_000, 10_000, 100_000, 1_000_000, 10_000_000]
    };
    let mut rows = Vec::new();
    for &n in sizes {
        for generator in GENERATORS {
            for engine in EngineKind::ALL {
                if n > max_n(engine, quick) {
                    continue;
                }
                let steps = min_steps(engine, n, quick);
                let window = min_window(quick);
                for mode in [DeliveryMode::Dense, DeliveryMode::Sparse] {
                    let row = measure(generator, n, engine, WORKERS, mode, steps, window, SEED);
                    log(&format!(
                        "throughput: {generator:>12} n={n:>8} {:>13}/{:<6} {:>12.1} steps/s ({:.1} us/step, {} msgs, {:.1} frames/step, {:.0} B/step)",
                        row.engine, row.mode, row.steps_per_sec, row.us_per_step, row.messages, row.frames_per_step, row.bytes_per_step
                    ));
                    rows.push(row);
                }
            }
        }
    }
    let scaling = measure_scaling(quick, &log);
    ThroughputReport {
        bench: BENCH.to_string(),
        scale: if quick { "quick" } else { "full" }.to_string(),
        rows,
        scaling,
    }
}

/// Checks a report against [`FloorTable::STANDARD`]; returns one
/// human-readable failure per missed bar (empty = pass).
///
/// Four bars, all on the noise/dense cell except the last:
///
/// * the indexed engine over the deterministic one at `n = 10⁵`, by ratio and
///   by absolute steps/s;
/// * the sharded engine over the indexed one — at `n = 10⁶` with
///   `sharded_floor_workers` workers on a full-scale report, at `n = 10⁵` on a
///   quick one;
/// * the scaling curve's parallel efficiency (see `check_scaling_axis`);
/// * at most `max_silent_frames_per_shard_step` wire frames per occupied
///   shard per step on every remote row with no model messages.
///
/// Every row's per-step wire figures are recomputed from its totals, so an
/// edited derived field fails, and the report must hold at least one silent
/// remote row, so the frame bar never checks nothing.
pub fn check_floors(report: &ThroughputReport) -> Vec<String> {
    let floors = &FloorTable::STANDARD.throughput;
    let mut failures = Vec::new();
    if report.bench != BENCH {
        failures.push(format!(
            "bench id is '{}', expected '{BENCH}'",
            report.bench
        ));
    }
    let at = |engine: EngineKind, n: u64| {
        report.rows.iter().find(|r| {
            r.generator == "noise" && r.n == n && r.engine == engine.name() && r.mode == "dense"
        })
    };
    match (
        at(EngineKind::Indexed, 100_000),
        at(EngineKind::Deterministic, 100_000),
    ) {
        (Some(indexed), Some(deterministic)) => {
            let speedup = indexed.steps_per_sec / deterministic.steps_per_sec;
            if speedup < floors.indexed_speedup {
                failures.push(format!(
                    "indexed/deterministic speedup at n=1e5 (noise, dense) is {speedup:.1}x, floor is {}x",
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
    match (at(EngineKind::Sharded, n), at(EngineKind::Indexed, n)) {
        (Some(sharded), Some(indexed)) => {
            if report.scale == "full" && sharded.workers != floors.sharded_floor_workers {
                failures.push(format!(
                    "full-scale sharded rows were measured with {} workers; the floor is stated for {}",
                    sharded.workers, floors.sharded_floor_workers
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
    failures.extend(check_scaling_axis(&report.scaling, &report.scale, floors));
    failures.extend(check_rows(&report.rows, &FloorTable::STANDARD.remote));
    failures
}

/// Validates a measured scaling curve against the floor table.
///
/// Efficiency is *recomputed* here from `steps_per_sec` and the cores of the
/// machine that measured the curve — the stored `efficiency` field never
/// satisfies the gate on its own, so a hand-edited JSON cannot launder a
/// regression through it. A curve whose points record different core counts
/// came from more than one machine, and its ratios mean nothing.
fn check_scaling_axis(rows: &[ScalingRow], scale: &str, floors: &ThroughputFloors) -> Vec<String> {
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
    let cores = one.cores;
    if cores == 0 {
        failures.push("scaling curve records cores = 0; regenerate it".into());
    }
    if let Some(r) = rows.iter().find(|r| r.cores != cores) {
        failures.push(format!(
            "scaling curve mixes machines: workers={} was measured on {} cores, workers=1 on {cores}",
            r.workers, r.cores
        ));
    }
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

/// Checks every row on its own: it measured steps, it records its machine's
/// cores, its per-step wire figures agree with its totals, and a remote row
/// with no model messages — every step an observation plus one silent
/// existence run — stays within `max_silent_frames_per_shard_step` frames
/// per occupied shard per step. At least one such remote row must exist;
/// silent in-process rows move no frames and do not count.
fn check_rows(rows: &[ThroughputRow], floors: &RemoteFloors) -> Vec<String> {
    let mut failures = Vec::new();
    let mut silent_remote_rows = 0usize;
    for row in rows {
        let cell = format!(
            "{} n={} {} x{}/{}",
            row.generator, row.n, row.engine, row.workers, row.mode
        );
        if row.steps == 0 {
            failures.push(format!("{cell}: no measured steps"));
            continue;
        }
        if row.cores == 0 {
            failures.push(format!(
                "{cell}: the row does not record the measuring machine's cores"
            ));
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
        if row.engine != EngineKind::Remote.name() || row.messages > 0 {
            continue;
        }
        silent_remote_rows += 1;
        let occupied = row.workers.min(row.n);
        let bar = floors.max_silent_frames_per_shard_step * occupied;
        if frames_per_step > bar as f64 {
            failures.push(format!(
                "{cell}: {frames_per_step:.2} frames/step on a silent row, above {} per occupied shard ({bar} for {occupied} shards)",
                floors.max_silent_frames_per_shard_step
            ));
        }
    }
    if silent_remote_rows == 0 {
        failures.push(
            "no remote row with 0 model messages: the silent-step frame bar checks nothing"
                .to_string(),
        );
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
            0,
            DeliveryMode::Dense,
            10,
            Duration::ZERO,
            7,
        );
        assert_eq!(row.steps, 10);
        assert!(row.steps_per_sec > 0.0);
        assert!(row.us_per_step > 0.0);
        assert!(row.mean_changed_per_step > 0.0);
        assert!(row.cores >= 1);
        // An in-process engine has no transport.
        assert_eq!((row.frames, row.bytes), (0, 0));
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

    /// `measure` with an exact step count and no window.
    fn measure_steps(
        generator: &str,
        n: usize,
        engine: EngineKind,
        workers: usize,
        mode: DeliveryMode,
        steps: u64,
        seed: u64,
    ) -> ThroughputRow {
        measure(
            generator,
            n,
            engine,
            workers,
            mode,
            steps,
            Duration::ZERO,
            seed,
        )
    }

    #[test]
    fn engines_send_identical_messages_in_the_harness_loop() {
        use DeliveryMode::{Dense, Sparse};
        for generator in GENERATORS {
            let base = measure_steps(generator, 128, EngineKind::Deterministic, 0, Dense, 15, 3);
            let idx = measure_steps(generator, 128, EngineKind::Indexed, 0, Dense, 15, 3);
            assert_eq!(
                base.messages, idx.messages,
                "{generator}: engines disagree on message counts"
            );
            let sparse = measure_steps(generator, 128, EngineKind::Indexed, 0, Sparse, 15, 3);
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
        let row = measure_steps(
            "adversarial",
            256,
            EngineKind::Indexed,
            0,
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
                cores: 4,
                steps: 1,
                // Perfect linear scaling on the fixture's 4 "cores".
                steps_per_sec: 100.0 * workers as f64,
                us_per_step: 1.0,
                speedup_vs_one: workers as f64,
                efficiency: 1.0,
            })
            .collect()
    }

    /// A silent noise/dense fixture row with no wire traffic; the sharded
    /// and remote rows run on the worker count the full-scale floor is stated
    /// for — derived, never hard-coded, so a floor-table change cannot
    /// silently diverge from the fixtures.
    fn row(engine: EngineKind, n: u64, steps_per_sec: f64) -> ThroughputRow {
        let workers = match engine {
            EngineKind::Sharded | EngineKind::Remote => {
                FloorTable::STANDARD.throughput.sharded_floor_workers
            }
            EngineKind::Deterministic | EngineKind::Indexed => 0,
        };
        ThroughputRow {
            generator: "noise".into(),
            n,
            engine: engine.name().into(),
            workers,
            mode: "dense".into(),
            cores: 4,
            steps: 10,
            elapsed_s: 10.0 / steps_per_sec,
            steps_per_sec,
            us_per_step: 1e6 / steps_per_sec,
            messages: 0,
            frames: 0,
            bytes: 0,
            frames_per_step: 0.0,
            bytes_per_step: 0.0,
            mean_changed_per_step: 0.0,
            profile: PhaseProfile::default(),
        }
    }

    /// A silent remote row exactly at the frame bar.
    fn silent_remote_row() -> ThroughputRow {
        let mut r = row(EngineKind::Remote, 1_000, 1_000.0);
        let bar = FloorTable::STANDARD.remote.max_silent_frames_per_shard_step;
        r.frames = bar * r.workers * r.steps;
        r.bytes = 400 * r.frames;
        r.frames_per_step = r.frames as f64 / r.steps as f64;
        r.bytes_per_step = r.bytes as f64 / r.steps as f64;
        r
    }

    /// A full-scale report that holds every bar.
    fn passing_report() -> ThroughputReport {
        ThroughputReport {
            bench: BENCH.into(),
            scale: "full".into(),
            rows: vec![
                row(EngineKind::Deterministic, 100_000, 10.0),
                row(EngineKind::Indexed, 100_000, 1000.0),
                // Only 1.0x over indexed, but a full-scale report is not held
                // to the quick floor at n = 1e5.
                row(EngineKind::Sharded, 100_000, 1000.0),
                row(EngineKind::Indexed, 1_000_000, 100.0),
                // 2.3x clears the full floor.
                row(EngineKind::Sharded, 1_000_000, 230.0),
                silent_remote_row(),
            ],
            scaling: scaling_fixture(),
        }
    }

    #[test]
    fn floor_check_detects_missing_rows() {
        let empty = ThroughputReport {
            bench: BENCH.into(),
            scale: "quick".into(),
            rows: vec![],
            scaling: vec![],
        };
        // The indexed and sharded floors report their missing rows, the
        // scaling gate its empty curve, and the frame bar its missing silent
        // remote row.
        assert_eq!(check_floors(&empty).len(), 4, "{:?}", check_floors(&empty));
    }

    #[test]
    fn sharded_floor_uses_full_scale_rows_when_present() {
        let mut report = passing_report();
        assert_eq!(check_floors(&report), Vec::<String>::new());
        let i = report
            .rows
            .iter()
            .position(|r| r.engine == "sharded" && r.n == 1_000_000)
            .unwrap();
        // Degrading the 1e6 sharded row below 2x must trip the floor.
        let mut slow = report.clone();
        slow.rows[i].steps_per_sec = 150.0;
        let failures = check_floors(&slow);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("sharded/indexed"));
        // Sharded rows measured with another worker count do not satisfy the
        // full-scale floor, however fast.
        let mut other_workers = report.clone();
        other_workers.rows[i].workers += 1;
        let failures = check_floors(&other_workers);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("the floor is stated for"));
        // A full-scale report *missing* its n=1e6 rows must fail, not fall
        // back to the loose quick floor (the scale field is authoritative).
        report.rows.retain(|r| r.n != 1_000_000);
        let failures = check_floors(&report);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("missing the n=1000000"));
    }

    #[test]
    fn scaling_floor_recomputes_efficiency_from_steps_per_sec() {
        let mut report = passing_report();
        assert!(check_floors(&report).is_empty());
        // Dropping workers=4 to 1.2x over workers=1 (efficiency 0.3 on 4
        // cores) must trip the 0.5 floor — even though the *stored*
        // efficiency field still says 1.0 (the gate recomputes).
        report.scaling.last_mut().unwrap().steps_per_sec = 120.0;
        let failures = check_floors(&report);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("parallel efficiency at workers=4"));
        // On a 1-core machine the same numbers are *fine*: min(workers,
        // cores) = 1, so 1.2x over one worker is efficiency 1.2.
        for point in &mut report.scaling {
            point.cores = 1;
        }
        assert!(check_floors(&report).is_empty());
        // The curve's cores are its own: a point from another machine fails.
        report.scaling[1].cores = 2;
        let failures = check_floors(&report);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("mixes machines"));
        // A curve that does not record its cores fails.
        for point in &mut report.scaling {
            point.cores = 0;
        }
        let failures = check_floors(&report);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("cores = 0"));
        // Fewer than 3 distinct worker counts fails a full-scale report.
        report.scaling = scaling_fixture();
        report.scaling.pop();
        let failures = check_floors(&report);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("worker counts"));
        // A full-scale curve measured below n=1e6 fails.
        report.scaling = scaling_fixture();
        report.scaling[0].n = 100_000;
        let failures = check_floors(&report);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("n >= 1000000"));
        // A quick-scale curve is allowed 2 worker counts at n=1e5.
        let mut quick = scaling_fixture();
        quick.pop();
        for point in &mut quick {
            point.n = 100_000;
        }
        let floors = FloorTable::STANDARD.throughput;
        assert!(check_scaling_axis(&quick, "quick", &floors).is_empty());
    }

    #[test]
    fn report_serialises_and_roundtrips() {
        let sharded = measure_steps(
            "random-walk",
            64,
            EngineKind::Sharded,
            2,
            DeliveryMode::Dense,
            5,
            1,
        );
        assert_eq!(sharded.workers, 2);
        let remote = measure_steps(
            "random-walk",
            64,
            EngineKind::Remote,
            2,
            DeliveryMode::Sparse,
            5,
            1,
        );
        let report = ThroughputReport {
            bench: BENCH.into(),
            scale: "quick".into(),
            rows: vec![sharded, remote],
            scaling: scaling_fixture(),
        };
        let json = to_json(&report);
        assert!(json.contains("\"generator\""));
        assert!(json.contains("random-walk"));
        assert!(json.contains("advance_ns_per_step"));
        assert!(json.contains("frames_per_step") && json.contains("bytes_per_step"));
        assert!(!json.contains("bytes_per_message"));
        let parsed: ThroughputReport = serde_json::from_str(&json).expect("reports deserialise");
        assert_eq!(parsed.rows.len(), 2);
        assert_eq!(parsed.rows[0].workers, 2);
        assert_eq!(parsed.rows[1].engine, "remote");
        assert_eq!(parsed.rows[1].workers, 2);
        assert!(parsed.rows.iter().all(|r| r.cores >= 1));
        assert_eq!(parsed.scaling.len(), 3);
        // A report whose rows do not record their cores must fail loudly at
        // the parse, not silently pass a floor check with empty defaults.
        let legacy = json.replace("\"cores\"", "\"cpus\"");
        assert!(serde_json::from_str::<ThroughputReport>(&legacy).is_err());
    }

    #[test]
    fn remote_measure_produces_sane_numbers_and_identical_messages() {
        let base = measure_steps(
            "noise",
            128,
            EngineKind::Deterministic,
            0,
            DeliveryMode::Dense,
            10,
            5,
        );
        for mode in [DeliveryMode::Dense, DeliveryMode::Sparse] {
            let row = measure_steps("noise", 128, EngineKind::Remote, 2, mode, 10, 5);
            assert_eq!(row.steps, 10);
            assert_eq!(row.workers, 2);
            assert!(row.steps_per_sec > 0.0);
            assert!(row.frames > 0, "steps must move frames over the wire");
            assert!(row.bytes > 0);
            assert!(row.frames_per_step > 0.0);
            assert_eq!(
                base.messages, row.messages,
                "the TCP transport changed model message counts in {mode:?}"
            );
        }
    }

    #[test]
    fn a_remote_row_runs_until_its_window_is_full() {
        let window = Duration::from_millis(40);
        let row = measure(
            "noise",
            64,
            EngineKind::Remote,
            1,
            DeliveryMode::Sparse,
            3,
            window,
            5,
        );
        assert!(row.steps >= 3, "{} steps", row.steps);
        assert!(row.elapsed_s >= window.as_secs_f64(), "{} s", row.elapsed_s);
        // Every per-step figure divides by the steps actually measured.
        assert_eq!(row.steps_per_sec, row.steps as f64 / row.elapsed_s);
        assert_eq!(row.frames_per_step, row.frames as f64 / row.steps as f64);
        assert_eq!(row.bytes_per_step, row.bytes as f64 / row.steps as f64);
    }

    #[test]
    fn silent_remote_rows_hold_the_frame_floor_and_tampering_fails() {
        // Noise at n = 256 under calibrated filters sends no model messages:
        // every step is an observation plus one silent existence run.
        let quiet = measure_steps(
            "noise",
            256,
            EngineKind::Remote,
            3,
            DeliveryMode::Dense,
            12,
            5,
        );
        assert_eq!(quiet.messages, 0, "the cell must be silent");
        assert!(
            quiet.frames_per_step <= 9.0,
            "{} frames/step",
            quiet.frames_per_step
        );
        let busy = measure_steps(
            "zipf",
            64,
            EngineKind::Remote,
            2,
            DeliveryMode::Sparse,
            12,
            3,
        );
        let mut report = passing_report();
        report.rows.retain(|r| r.engine != "remote");
        report.rows.extend([quiet, busy]);
        assert_eq!(check_floors(&report), Vec::<String>::new());
        let quiet_at = report.rows.len() - 2;
        // Four frames per shard per step on the silent row: over the bar.
        let mut over = report.clone();
        over.rows[quiet_at].frames = 4 * 3 * over.rows[quiet_at].steps;
        over.rows[quiet_at].frames_per_step = 12.0;
        assert_eq!(check_floors(&over).len(), 1, "{:?}", check_floors(&over));
        // A derived figure that disagrees with its totals.
        let mut edited = report.clone();
        edited.rows[quiet_at].bytes_per_step += 1.0;
        assert_eq!(check_floors(&edited).len(), 1);
        // No silent remote row at all: the bar would check nothing.
        let mut vacuous = report.clone();
        vacuous.rows.remove(quiet_at);
        let failures = check_floors(&vacuous);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("checks nothing"), "{failures:?}");
        // Wrong bench id, missing core count.
        let mut foreign = report;
        foreign.bench = "remote-transport".into();
        foreign.rows[quiet_at].cores = 0;
        assert_eq!(check_floors(&foreign).len(), 2);
    }

    #[test]
    fn a_full_scale_report_without_remote_rows_fails_the_silent_frame_guard() {
        let mut report = passing_report();
        report.rows.retain(|r| r.engine != "remote");
        // Every remaining row is silent, but none crossed a wire.
        assert!(report.rows.iter().all(|r| r.messages == 0));
        let failures = check_floors(&report);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("checks nothing"), "{failures:?}");
    }

    #[test]
    fn sharded_engine_sends_identical_messages_in_the_harness_loop() {
        use DeliveryMode::{Dense, Sparse};
        let base = measure_steps(
            "random-walk",
            128,
            EngineKind::Deterministic,
            0,
            Dense,
            15,
            3,
        );
        for workers in [1, 3] {
            let sharded = measure_steps(
                "random-walk",
                128,
                EngineKind::Sharded,
                workers,
                Dense,
                15,
                3,
            );
            assert_eq!(
                base.messages, sharded.messages,
                "sharded({workers}) disagrees with the deterministic engine on message counts"
            );
            let sparse = measure_steps(
                "random-walk",
                128,
                EngineKind::Sharded,
                workers,
                Sparse,
                15,
                3,
            );
            assert_eq!(base.messages, sparse.messages);
        }
    }
}
