//! Side-by-side comparison of every monitor in the crate on three workload
//! regimes, on the deterministic and the remote engine.
//!
//! ```text
//! cargo run --example protocol_comparison
//! ```
//!
//! Regimes: a clear gap at rank k (unique output), a dense ε-neighbourhood
//! (oscillation), and a heavy-tailed bursty load. For each regime the example
//! prints the message count of every online algorithm and the offline bounds,
//! and verifies that the deterministic and the remote (TCP loopback) engine
//! agree on the message counts.

use topk_core::monitor::{run_on_rows, Monitor, RunReport};
use topk_core::{CombinedMonitor, DenseMonitor, ExactTopKMonitor, HalfEpsMonitor, TopKMonitor};
use topk_gen::{GapWorkload, NoiseOscillationWorkload, Trace, Workload, ZipfLoadWorkload};
use topk_model::Epsilon;
use topk_net::{build_engine, EngineKind};
use topk_offline::{ApproxOfflineOpt, ExactOfflineOpt};

fn run_with(
    make_monitor: &dyn Fn() -> Box<dyn Monitor>,
    rows: &[Vec<u64>],
    eps: Epsilon,
    kind: EngineKind,
) -> RunReport {
    let n = rows[0].len();
    let mut monitor = make_monitor();
    let mut net = build_engine(kind, n, 7, None);
    run_on_rows(monitor.as_mut(), net.as_mut(), rows.iter().cloned(), eps)
}

fn main() {
    let n = 32;
    let k = 4;
    let eps = Epsilon::TENTH;
    let steps = 200;

    let regimes: Vec<(&str, Vec<Vec<u64>>)> = vec![
        (
            "clear gap (unique output)",
            GapWorkload::standard(n, k, 1 << 20, 3)
                .generate(steps)
                .iter()
                .map(|(_, r)| r.to_vec())
                .collect(),
        ),
        (
            "dense ε-neighbourhood",
            NoiseOscillationWorkload::new(n, 2, 12, 1 << 20, eps, 3)
                .generate(steps)
                .iter()
                .map(|(_, r)| r.to_vec())
                .collect(),
        ),
        (
            "bursty Zipf load",
            ZipfLoadWorkload::web_cluster(n, 3)
                .generate(steps)
                .iter()
                .map(|(_, r)| r.to_vec())
                .collect(),
        ),
    ];

    type MonitorFactory = Box<dyn Fn() -> Box<dyn Monitor>>;
    let monitors: Vec<(&str, MonitorFactory)> = vec![
        (
            "exact-top-k",
            Box::new(move || Box::new(ExactTopKMonitor::new(k))),
        ),
        (
            "topk-protocol",
            Box::new(move || Box::new(TopKMonitor::new(k, eps))),
        ),
        (
            "dense-protocol",
            Box::new(move || Box::new(DenseMonitor::new(k, eps))),
        ),
        (
            "combined",
            Box::new(move || Box::new(CombinedMonitor::new(k, eps))),
        ),
        (
            "half-eps",
            Box::new(move || Box::new(HalfEpsMonitor::new(k, eps))),
        ),
    ];

    for (regime, rows) in &regimes {
        let trace = Trace::new(rows.clone()).unwrap();
        let exact_opt = ExactOfflineOpt::new(k).cost(&trace).unwrap();
        let approx_opt = ApproxOfflineOpt::new(k, eps).cost(&trace).unwrap();
        println!("=== {regime} (n = {n}, k = {k}, {steps} steps) ===");
        println!(
            "  OPT lower bounds: exact ≥ {}, ε-approximate ≥ {}",
            exact_opt.lower_bound, approx_opt.lower_bound
        );
        println!(
            "  {:<16} {:>10} {:>12} {:>10}",
            "monitor", "messages", "msgs/step", "valid"
        );
        for (name, make) in &monitors {
            let det = run_with(make, rows, eps, EngineKind::Deterministic);
            let remote = run_with(make, rows, eps, EngineKind::Remote);
            assert_eq!(
                det.messages(),
                remote.messages(),
                "{name}: engines disagree on message counts"
            );
            println!(
                "  {:<16} {:>10} {:>12.2} {:>9}%",
                name,
                det.messages(),
                det.stats.messages_per_step(),
                100 * (det.steps - det.invalid_steps) / det.steps
            );
        }
        println!();
    }
    println!("(message counts verified identical on the deterministic and the remote engine)");
}
