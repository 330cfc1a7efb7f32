//! The repository benchmark: two named workloads through the real path —
//! scenario file → `QuerySet` of the paper's monitors → engine → the public
//! query-set driver — reporting end-to-end metrics from an untraced run and
//! per-layer metrics from a separate traced run.
//!
//! ```text
//! topk-benchmark [--workload NAME] [--seed S] [--seconds T] [--trace [0|1]]
//! ```
//!
//! Without `--workload` every workload runs, each in a child process of its
//! own so peak memory is per workload. With `--workload` one runs and the
//! last line of standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. README.md has the metric definitions.

mod host;
mod stats;
mod system;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::rc::Rc;
use std::time::{Duration, Instant};

use system::{EngineChoice, Layer, LayerTotals, Pace, RunEnd, StepView, Tracer, Workload};

/// One benchmark workload: its scenario file is `workloads/<name>.json`.
pub struct Spec {
    pub name: &'static str,
    engine: EngineChoice,
    /// Steps run before the measured window opens; each set-up runs them.
    warmup: u64,
}

/// The workloads, their engines and warm-up lengths. The machine these were
/// chosen for has 2 cores, and each workload runs on one of them: the remote
/// engine's coordinator and its one shard client share it. Warm-ups take
/// about 0.3–0.5 s each.
pub const WORKLOADS: [Spec; 2] = [
    Spec {
        name: "dense-noise",
        engine: EngineChoice::Indexed,
        warmup: 200,
    },
    Spec {
        name: "remote-quiet",
        engine: EngineChoice::Remote { connections: 1 },
        warmup: 100,
    },
];

/// Set-ups per run, taking turns on the allowed CPUs; `setup_s` is their
/// median.
const SETUPS: usize = 6;
/// A window is never shorter than this, so p99 has ten samples beyond it.
const MIN_STEPS: u64 = 1000;
/// `steps_per_s` and `step_p50_us` come from the fastest `1 / FAST_SHARE`
/// of the window's blocks of `BLOCK`.
const BLOCK: Duration = Duration::from_millis(500);
const FAST_SHARE: usize = 10;
const DEFAULT_SECONDS: f64 = 45.0;

pub fn workload_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("workloads")
        .join(format!("{name}.json"))
}

struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: None,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                let v = value("--seed")?;
                args.seed = Some(v.parse().map_err(|_| format!("bad --seed {v}"))?);
            }
            "--seconds" => {
                let v = value("--seconds")?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or(format!("bad --seconds {v}"))?;
            }
            "--trace" => {
                let explicit = match it.peek().map(String::as_str) {
                    Some("0") => Some(false),
                    Some("1") => Some(true),
                    _ => None,
                };
                if explicit.is_some() {
                    it.next();
                }
                args.trace = explicit.unwrap_or(true);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("topk-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let ok = match &args.workload {
        None => run_all(&args),
        Some(name) => match run_one(name, &args) {
            Ok(outcome) => outcome.print(),
            Err(e) => {
                eprintln!("topk-benchmark: {name}: {e}");
                false
            }
        },
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload in a child process of its own and waits for each.
fn run_all(args: &Args) -> bool {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("topk-benchmark: cannot find own executable: {e}");
            return false;
        }
    };
    let mut failed = Vec::new();
    for spec in &WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", spec.name])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if let Some(seed) = args.seed {
            cmd.args(["--seed", &seed.to_string()]);
        }
        match cmd.status() {
            Ok(status) if status.success() => {}
            Ok(status) => failed.push(format!("{} ({status})", spec.name)),
            Err(e) => failed.push(format!("{} ({e})", spec.name)),
        }
    }
    if failed.is_empty() {
        println!("all {} workloads passed every check", WORKLOADS.len());
        true
    } else {
        println!("FAILED: {}", failed.join(", "));
        false
    }
}

/// How long a measured window lasts.
#[derive(Clone, Copy)]
enum Window {
    /// Until this much time has passed and at least [`MIN_STEPS`] steps ran.
    Time(Duration),
    /// Exactly this many steps: a set-up alone, or a re-run of a window.
    Steps(u64),
}

/// The runner's bookkeeping for one closed-loop run: `warmup` unmeasured
/// steps, then the measured window.
struct Pacer {
    warmup: u64,
    window: Window,
    /// Steps completed.
    done: u64,
    /// When the warm-up ended.
    ready: Option<Instant>,
    /// Busy time of each measured step, and when it ended, counted from
    /// the window's start.
    busy_ns: Vec<u64>,
    ends_ns: Vec<u64>,
    /// Generator time over the measured window.
    gen_ns: u64,
    /// Cumulative model messages and output digest after every step.
    messages: Vec<u64>,
    digests: Vec<u64>,
    /// Validity verdicts seen and failed, over every step and query.
    attempted: u64,
    failed: u64,
    /// Layer counters at the window start, on a traced run.
    tracer: Option<Rc<Tracer>>,
    layers_at_window: LayerTotals,
}

impl Pacer {
    fn new(warmup: u64, window: Window, tracer: Option<&Rc<Tracer>>) -> Pacer {
        Pacer {
            warmup,
            window,
            done: 0,
            ready: None,
            busy_ns: Vec::new(),
            ends_ns: Vec::new(),
            gen_ns: 0,
            messages: Vec::new(),
            digests: Vec::new(),
            attempted: 0,
            failed: 0,
            tracer: tracer.cloned(),
            layers_at_window: LayerTotals::default(),
        }
    }

    fn measured(&self) -> u64 {
        self.busy_ns.len() as u64
    }

    /// Model messages sent inside the measured window.
    fn window_messages(&self) -> u64 {
        let before = match self.warmup {
            0 => 0,
            w => self.messages[w as usize - 1],
        };
        self.messages.last().copied().unwrap_or(0) - before
    }

    fn window_layers(&self) -> LayerTotals {
        let tracer = self.tracer.as_ref().expect("a traced run");
        tracer.snapshot().since(&self.layers_at_window)
    }
}

impl Pace for Pacer {
    fn more(&mut self) -> bool {
        if self.done < self.warmup {
            return true;
        }
        let ready = *self.ready.get_or_insert_with(|| {
            if let Some(tracer) = &self.tracer {
                self.layers_at_window = tracer.snapshot();
            }
            Instant::now()
        });
        match self.window {
            Window::Time(length) => self.measured() < MIN_STEPS || ready.elapsed() < length,
            Window::Steps(steps) => self.measured() < steps,
        }
    }

    fn after(&mut self, step: &StepView<'_>) {
        if let Some(ready) = self.ready {
            self.busy_ns.push(step.busy_ns());
            self.ends_ns
                .push(step.end.duration_since(ready).as_nanos() as u64);
            self.gen_ns += step.gen_ns;
        }
        self.messages.push(step.messages_total);
        self.digests.push(step.outputs_digest);
        self.attempted += step.valid.len() as u64;
        self.failed += step.valid.iter().filter(|&&v| !v).count() as u64;
        self.done += 1;
    }
}

/// A finished run plus its set-up time, from the start of building the
/// system to the end of the warm-up, and the warm-up's share of it.
struct Measured {
    pacer: Pacer,
    end: RunEnd,
    setup_s: f64,
    warmup_s: f64,
}

/// Builds a fresh system and runs the warm-up and then the measured window;
/// a window of 0 steps is a set-up alone.
fn measure(
    workload: &Workload,
    spec: &Spec,
    engine: EngineChoice,
    seed: u64,
    window: Window,
    tracer: Option<&Rc<Tracer>>,
) -> Measured {
    let t0 = Instant::now();
    let mut instance = workload.build(engine, seed, tracer);
    let built = Instant::now();
    let mut pacer = Pacer::new(spec.warmup, window, tracer);
    let end = instance.run(&mut pacer);
    let ready = pacer
        .ready
        .expect("the pacer is asked for a row after the warm-up");
    Measured {
        pacer,
        end,
        setup_s: ready.duration_since(t0).as_secs_f64(),
        warmup_s: ready.duration_since(built).as_secs_f64(),
    }
}

/// One metric of the result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Everything a single-workload run prints.
struct Outcome {
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Outcome {
    /// Prints the human-readable lines and the JSON result line; returns
    /// whether every check passed.
    fn print(&self) -> bool {
        for m in &self.metrics {
            println!("  {:<34} {:>16.4} {}", m.name, m.value, m.unit);
        }
        println!(
            "  invalid (query, step) verdicts: {} of {}",
            self.failed, self.attempted
        );
        for p in &self.problems {
            println!("  CHECK FAILED: {p}");
        }
        let correct = self.problems.is_empty() && self.failed == 0;
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
        correct
    }
}

fn run_one(name: &str, args: &Args) -> Result<Outcome, String> {
    let spec = WORKLOADS
        .iter()
        .find(|s| s.name == name)
        .ok_or_else(|| format!("unknown workload (known: {})", workload_names()))?;
    let workload = Workload::load(&workload_path(name))?;
    let seed = args.seed.unwrap_or(workload.seed());
    println!(
        "workload {name}: engine {}, n = {}, {} queries, seed {seed}, warm-up {} steps, {} mode",
        spec.engine.describe(),
        workload.n(),
        workload.queries(),
        spec.warmup,
        if args.trace { "traced" } else { "end-to-end" },
    );
    let setups = set_up(&workload, spec, seed)?;
    println!(
        "  {SETUPS} set-ups on CPUs {:?}; the window runs on CPU {}, whose warm-ups were fastest",
        setups.cpus, setups.cpu
    );
    if args.trace {
        run_traced(&workload, spec, seed, args.seconds, &setups)
    } else {
        run_end_to_end(&workload, spec, seed, args.seconds, setups)
    }
}

/// What the set-ups a run starts with leave behind.
struct SetUps {
    /// Seconds each set-up took.
    seconds: Vec<f64>,
    /// The counters at the end of the warm-up, which every run of the same
    /// seed reproduces.
    prefix: RunEnd,
    /// The CPUs the set-ups took turns on, and the one whose warm-ups ran
    /// fastest, which the process is now pinned to.
    cpus: Vec<usize>,
    cpu: usize,
}

/// Runs [`SETUPS`] set-ups, taking turns on the allowed CPUs, and pins the
/// process, and so every thread it starts later, to the CPU whose warm-ups
/// took the least median time.
///
/// Every workload runs on one core at a time. On a shared virtual machine a
/// step spread over two cores waits for whichever the host slows down, and
/// for the remote engine each loopback round trip becomes a context switch
/// instead of a wake-up of the other core. The host slows one virtual CPU
/// or the other for seconds to minutes, in a way a fixed probe loop mostly
/// misses: during a stretch in which `dense-noise` ran 37% slower, an
/// integer loop ran 9% slower. The workload's own warm-up sees what the
/// window will.
fn set_up(workload: &Workload, spec: &Spec, seed: u64) -> Result<SetUps, String> {
    let allowed = host::allowed_cpus()?;
    let cpus: Vec<usize> = allowed.into_iter().take(SETUPS).collect();
    let mut seconds = Vec::with_capacity(SETUPS);
    let mut by_cpu = vec![Vec::new(); cpus.len()];
    let mut prefix = None;
    for i in 0..SETUPS {
        host::pin(cpus[i % cpus.len()])?;
        let m = measure(workload, spec, spec.engine, seed, Window::Steps(0), None);
        seconds.push(m.setup_s);
        by_cpu[i % cpus.len()].push(m.warmup_s);
        prefix.get_or_insert(m.end);
    }
    let fastest = (0..cpus.len())
        .min_by(|&a, &b| stats::median(&mut by_cpu[a]).total_cmp(&stats::median(&mut by_cpu[b])))
        .expect("allowed_cpus is never empty");
    host::pin(cpus[fastest])?;
    Ok(SetUps {
        seconds,
        prefix: prefix.expect("SETUPS > 0"),
        cpu: cpus[fastest],
        cpus,
    })
}

fn workload_names() -> String {
    WORKLOADS.map(|s| s.name).join(", ")
}

/// The untraced run: one measured window, and for remote workloads an
/// in-process re-run that must match it.
fn run_end_to_end(
    workload: &Workload,
    spec: &Spec,
    seed: u64,
    seconds: f64,
    mut setups: SetUps,
) -> Result<Outcome, String> {
    let window = Window::Time(Duration::from_secs_f64(seconds));
    let run = measure(workload, spec, spec.engine, seed, window, None);
    let p = &run.pacer;
    let steps = p.measured();

    let mut problems = Vec::new();
    if let EngineChoice::Remote { .. } = spec.engine {
        let window = Window::Steps(steps);
        let reference = measure(workload, spec, EngineChoice::Indexed, seed, window, None);
        problems.extend(compare_runs("in-process re-run", &run, &reference));
    }

    let mut sorted = p.busy_ns.clone();
    sorted.sort_unstable();
    let p99 = stats::percentile(&sorted, 99)
        .ok_or_else(|| format!("{steps} steps are too few for p99"))?;
    let mut fast =
        stats::fastest_blocks(&p.ends_ns, &p.busy_ns, BLOCK.as_nanos() as u64, FAST_SHARE)
            .ok_or("the window is shorter than one block")?;
    let steps_per_s = stats::rate(&fast);
    fast.sort_unstable();
    let p50 = stats::percentile(&fast, 50).ok_or("too few steps in the fastest blocks for p50")?;
    let wire_window = run.end.wire.bytes - setups.prefix.wire.bytes;
    println!(
        "  measured {steps} steps: steps/s and p50 over the {} steps of the fastest 1/{FAST_SHARE} of {} ms blocks, p99 over all, set-up as the median of {SETUPS}",
        fast.len(),
        BLOCK.as_millis()
    );
    println!(
        "  model messages/step {:.4}; wire bytes/step {:.1}",
        p.window_messages() as f64 / steps as f64,
        wire_window as f64 / steps as f64
    );
    Ok(Outcome {
        problems,
        attempted: p.attempted,
        failed: p.failed,
        metrics: vec![
            metric("steps_per_s", steps_per_s, "steps/s"),
            metric("step_p50_us", p50 as f64 / 1e3, "us"),
            metric("step_p99_us", p99 as f64 / 1e3, "us"),
            metric("setup_s", stats::median(&mut setups.seconds), "s"),
            metric("peak_rss_mb", host::peak_rss_mb()?, "MiB"),
        ],
    })
}

/// The traced run: an untraced window, then the same steps again with every
/// layer timed. The two must agree on every count.
fn run_traced(
    workload: &Workload,
    spec: &Spec,
    seed: u64,
    seconds: f64,
    setups: &SetUps,
) -> Result<Outcome, String> {
    let window = Window::Time(Duration::from_secs_f64(seconds / 2.0));
    let bare = measure(workload, spec, spec.engine, seed, window, None);
    let prefix = &setups.prefix;
    let tracer = Rc::new(Tracer::default());
    let window = Window::Steps(bare.pacer.measured());
    let traced = measure(workload, spec, spec.engine, seed, window, Some(&tracer));
    let problems = compare_runs("traced run", &bare, &traced);

    let p = &traced.pacer;
    let steps = p.measured() as f64;
    let layers = p.window_layers();
    let per_step = |v: u64| v as f64 / steps;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let busy: u64 = p.busy_ns.iter().sum();
    let bare_busy: u64 = bare.pacer.busy_ns.iter().sum();
    let protocol_self = layers.protocol_ns - layers.protocol_engine_ns;
    let driver_self = busy
        .saturating_sub(protocol_self)
        .saturating_sub(layers.engine_ns());
    let wire = traced.end.wire;
    let frames = wire.frames - prefix.wire.frames;
    let bytes = wire.bytes - prefix.wire.bytes;
    println!(
        "  traced {} steps, the same steps as the untraced window",
        p.measured()
    );
    // Assignment and broadcast time are part of `engine.ns_per_step` only:
    // on a silent workload they never run, and a time that is 0 on every
    // run says nothing. Their call counts are reported.
    Ok(Outcome {
        problems,
        attempted: p.attempted,
        failed: p.failed,
        metrics: vec![
            metric("gen.ns_per_step", per_step(p.gen_ns), "ns/step"),
            metric(
                "engine.ns_per_step",
                per_step(layers.engine_ns()),
                "ns/step",
            ),
            metric(
                "deliver.ns_per_step",
                per_step(layers.ns(Layer::Deliver)),
                "ns/step",
            ),
            metric(
                "existence.ns_per_step",
                per_step(layers.ns(Layer::Existence)),
                "ns/step",
            ),
            metric(
                "existence.ns_per_round",
                ratio(layers.ns(Layer::Existence), layers.rounds),
                "ns/round",
            ),
            metric(
                "existence.rounds_per_step",
                per_step(layers.rounds),
                "rounds/step",
            ),
            metric(
                "existence.useful_round_fraction",
                ratio(layers.useful_rounds, layers.rounds),
                "fraction",
            ),
            metric(
                "existence.replies_per_step",
                per_step(layers.replies),
                "replies/step",
            ),
            metric(
                "assign.calls_per_step",
                per_step(layers.calls(Layer::Assign)),
                "calls/step",
            ),
            metric(
                "broadcast.calls_per_step",
                per_step(layers.calls(Layer::Broadcast)),
                "calls/step",
            ),
            metric(
                "peek.ns_per_step",
                per_step(layers.ns(Layer::Peek)),
                "ns/step",
            ),
            metric(
                "protocol.self_ns_per_step",
                per_step(protocol_self),
                "ns/step",
            ),
            metric("driver.self_ns_per_step", per_step(driver_self), "ns/step"),
            metric(
                "model.messages_per_step",
                per_step(p.window_messages()),
                "msgs/step",
            ),
            metric("wire.frames_per_step", per_step(frames), "frames/step"),
            metric("wire.bytes_per_frame", ratio(bytes, frames), "bytes/frame"),
            metric("wire.bytes_per_step", per_step(bytes), "bytes/step"),
            metric(
                "trace.overhead_fraction",
                ratio(busy, bare_busy) - 1.0,
                "fraction",
            ),
        ],
    })
}

/// Differences between two runs of the same steps that must be identical.
fn compare_runs(what: &str, a: &Measured, b: &Measured) -> Vec<String> {
    let mut problems = Vec::new();
    let (pa, pb) = (&a.pacer, &b.pacer);
    if pa.done != pb.done {
        problems.push(format!("{what} ran {} steps, not {}", pb.done, pa.done));
    }
    if let Some(t) = (0..pa.messages.len().min(pb.messages.len()))
        .find(|&t| pa.messages[t] != pb.messages[t] || pa.digests[t] != pb.digests[t])
    {
        problems.push(format!(
            "{what} diverges at step {t}: {} vs {} cumulative messages{}",
            pa.messages[t],
            pb.messages[t],
            if pa.digests[t] != pb.digests[t] {
                ", different outputs"
            } else {
                ""
            }
        ));
    }
    if a.end.stats != b.end.stats || a.end.deliveries != b.end.deliveries {
        problems.push(format!(
            "{what} ends with different communication statistics"
        ));
    }
    // The in-process reference has no wire to compare.
    if b.end.wire.frames > 0 && a.end.wire != b.end.wire {
        problems.push(format!(
            "{what} moved {:?} on the wire, not {:?}",
            b.end.wire, a.end.wire
        ));
    }
    problems
}
