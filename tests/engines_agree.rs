//! The deterministic engine, the indexed engine, the sharded engine, the
//! remote (TCP-loopback) engine and the indexed engine behind a zero-fault
//! `FaultyTransport` wrapper must produce identical message counts and
//! identical outputs for the same seed — the protocols cannot tell which
//! transport they run on.

use proptest::prelude::*;
use topk_core::monitor::{run_on_rows, run_with_membership, Monitor, RunReport};
use topk_core::{CombinedMonitor, ExactTopKMonitor, TopKMonitor};
use topk_gen::{
    ChurnFlatlineWorkload, CorrelatedBurstWorkload, MembershipWorkload, NoiseOscillationWorkload,
    RandomWalkWorkload, RegimeSwitchWorkload, Workload,
};
use topk_model::fault::FaultSpec;
use topk_model::Epsilon;
use topk_net::{build_engine, EngineKind, FaultyTransport, IndexedEngine, Network};

/// Builds every transport configuration a comparison runs, each named for
/// the assertion messages: the four battery engines bare, then the indexed
/// engine behind a zero-fault `FaultyTransport`, which must be invisible —
/// same report, output and filters. All come from the canonical factory.
fn engines(n: usize, seed: u64) -> impl Iterator<Item = (String, Box<dyn Network>)> {
    EngineKind::ALL
        .into_iter()
        .map(move |kind| (kind.to_string(), build_engine(kind, n, seed, None)))
        .chain(std::iter::once_with(move || {
            let kind = EngineKind::Indexed;
            let net = build_engine(kind, n, seed, Some(&FaultSpec::none()));
            (format!("zero-fault {kind}"), net)
        }))
}

fn compare(mut make_monitor: impl FnMut() -> Box<dyn Monitor>, rows: &[Vec<u64>], eps: Epsilon) {
    let n = rows[0].len();
    let seed = 4242;

    let mut results = Vec::new();
    for (kind, mut net) in engines(n, seed) {
        let mut monitor = make_monitor();
        let report = run_on_rows(monitor.as_mut(), net.as_mut(), rows.iter().cloned(), eps);
        results.push((kind, report, monitor, net.peek_filters()));
    }

    let (_, det, det_monitor, det_filters) = &results[0];
    for (kind, report, monitor, filters) in &results[1..] {
        assert_eq!(
            det.messages(),
            report.messages(),
            "{}: message counts differ between deterministic and {kind} engines",
            det_monitor.name()
        );
        assert_eq!(
            det,
            report,
            "{}: run reports differ between deterministic and {kind} engines",
            det_monitor.name()
        );
        assert_eq!(det.stats.rounds, report.stats.rounds, "{kind}");
        assert_eq!(det.invalid_steps, report.invalid_steps, "{kind}");
        assert_eq!(det_monitor.output(), monitor.output(), "{kind}");
        // The filters visible at the end must agree as well.
        assert_eq!(det_filters, filters, "{kind}");
    }
}

/// Runs one monitor over `rows` on `net` while the population churns
/// according to `schedule`, returning the report, the final output and the
/// final filters.
fn run_churned(
    mut monitor: Box<dyn Monitor>,
    net: &mut dyn Network,
    rows: &[Vec<u64>],
    schedule: &MembershipWorkload,
    eps: Epsilon,
) -> (RunReport, Vec<topk_model::NodeId>, Vec<topk_model::Filter>) {
    let mut emitted = 0usize;
    let report = run_with_membership(
        monitor.as_mut(),
        net,
        eps,
        |_| {
            let row = rows.get(emitted).cloned();
            emitted += 1;
            row
        },
        schedule.driver(),
    );
    (report, monitor.output(), net.peek_filters())
}

/// The membership analogue of [`compare`]: the same join/leave schedule must
/// produce bit-identical run reports, outputs and filters on all five
/// transport configurations — joiner reseeding, recovery replay charging and
/// leave re-resolution included.
fn compare_with_membership(
    mut make_monitor: impl FnMut() -> Box<dyn Monitor>,
    rows: &[Vec<u64>],
    schedule: &MembershipWorkload,
    eps: Epsilon,
) {
    let n = rows[0].len();
    let seed = 4242;

    let mut results = Vec::new();
    for (kind, mut net) in engines(n, seed) {
        results.push((
            kind,
            run_churned(make_monitor(), net.as_mut(), rows, schedule, eps),
        ));
    }
    let (_, det) = &results[0];
    for (kind, run) in &results[1..] {
        assert_eq!(
            det, run,
            "churned runs differ between deterministic and {kind} engines"
        );
    }
}

#[test]
fn engines_agree_for_exact_monitor() {
    let rows: Vec<Vec<u64>> = RandomWalkWorkload::new(12, 10_000, 300, 0.7, 9)
        .generate(40)
        .iter()
        .map(|(_, r)| r.to_vec())
        .collect();
    compare(
        || Box::new(ExactTopKMonitor::new(3)),
        &rows,
        Epsilon::new(1, 1000).unwrap(),
    );
}

#[test]
fn engines_agree_for_topk_protocol() {
    let eps = Epsilon::new(1, 4).unwrap();
    let rows: Vec<Vec<u64>> = RandomWalkWorkload::new(12, 1 << 20, 5_000, 0.8, 11)
        .generate(40)
        .iter()
        .map(|(_, r)| r.to_vec())
        .collect();
    compare(|| Box::new(TopKMonitor::new(3, eps)), &rows, eps);
}

#[test]
fn engines_agree_for_combined_monitor_on_dense_input() {
    let eps = Epsilon::TENTH;
    let rows: Vec<Vec<u64>> = NoiseOscillationWorkload::new(16, 2, 8, 100_000, eps, 13)
        .generate(40)
        .iter()
        .map(|(_, r)| r.to_vec())
        .collect();
    compare(|| Box::new(CombinedMonitor::new(4, eps)), &rows, eps);
}

#[test]
fn engines_agree_on_regime_switch_traces() {
    // One full quiet → dense → adversarial cycle: the engines must stay
    // bit-identical across regime boundaries (where filter churn peaks).
    let eps = Epsilon::TENTH;
    let rows: Vec<Vec<u64>> = RegimeSwitchWorkload::new(14, 2, 6, 1 << 17, eps, 12, 23)
        .generate(40)
        .iter()
        .map(|(_, r)| r.to_vec())
        .collect();
    compare(|| Box::new(CombinedMonitor::new(3, eps)), &rows, eps);
}

#[test]
fn engines_agree_on_correlated_burst_traces() {
    let eps = Epsilon::TENTH;
    let rows: Vec<Vec<u64>> = CorrelatedBurstWorkload::new(14, 20_000, 8, 4, 0.15, 29)
        .generate(40)
        .iter()
        .map(|(_, r)| r.to_vec())
        .collect();
    compare(|| Box::new(TopKMonitor::new(3, eps)), &rows, eps);
}

#[test]
fn engines_agree_on_churn_traces() {
    let eps = Epsilon::TENTH;
    let rows: Vec<Vec<u64>> = ChurnFlatlineWorkload::new(14, 2, 1 << 16, eps, 0.15, 31)
        .generate(40)
        .iter()
        .map(|(_, r)| r.to_vec())
        .collect();
    compare(|| Box::new(CombinedMonitor::new(4, eps)), &rows, eps);
}

#[test]
fn engines_agree_under_membership_churn() {
    let eps = Epsilon::TENTH;
    let rows: Vec<Vec<u64>> = NoiseOscillationWorkload::new(12, 2, 6, 1 << 16, eps, 17)
        .generate(40)
        .iter()
        .map(|(_, r)| r.to_vec())
        .collect();
    let schedule = MembershipWorkload::churn(12, 40, 0xC0DE, 80, 4, 6);
    assert!(schedule.total_events() > 0, "the plan must churn");
    compare_with_membership(
        || Box::new(CombinedMonitor::new(3, eps)),
        &rows,
        &schedule,
        eps,
    );
}

#[test]
fn transport_crashes_compose_with_membership_churn() {
    // A node can be down at the transport level (crash/rejoin fault) while
    // the population also churns at the model level (join/leave) — including
    // both hitting the same node. The composition must stay deterministic
    // and the recovery machinery must keep the output valid-or-bounded.
    let eps = Epsilon::TENTH;
    let n = 12;
    let rows: Vec<Vec<u64>> = RandomWalkWorkload::new(n, 1 << 18, 2_000, 0.6, 37)
        .generate(50)
        .iter()
        .map(|(_, r)| r.to_vec())
        .collect();
    let schedule = MembershipWorkload::churn(n, 50, 0xD00D, 60, 5, 6);
    assert!(schedule.total_events() > 0, "the plan must churn");
    let fault = FaultSpec::crash_rejoin(0xFA11, 40, 4, 4);
    let run = || {
        let mut net = FaultyTransport::new(IndexedEngine::new(n, 4242), fault);
        let out = run_churned(
            Box::new(CombinedMonitor::new(3, eps)),
            &mut net,
            &rows,
            &schedule,
            eps,
        );
        let stats = net.fault_stats();
        (out, stats.crashes, stats.rejoins)
    };
    let (a, crashes, rejoins) = run();
    let (b, _, _) = run();
    assert_eq!(a, b, "crash × churn composition must be bit-deterministic");
    assert!(
        crashes > 0,
        "40‰ over 12 nodes × 50 steps must crash someone"
    );
    assert!(rejoins > 0, "4-step outages must rejoin within the run");
    assert_eq!(a.0.steps, 50);
    // Transport crashes may break validity transiently; true membership never
    // does (the validator sees the masked row). The composition must stay
    // within the same transient bound the fault battery tolerates.
    assert!(
        a.0.invalid_steps <= 13,
        "crash × churn broke {} of 50 steps",
        a.0.invalid_steps
    );
}

proptest! {
    // The five-way comparison spawns a worker pool and TCP shards per case,
    // so the case count stays deliberately small — the parameter space (pack
    // size, pivot, segment length, seed) is where the value is, not in
    // volume.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any regime-switching trace is a valid input to all five
    /// configurations: the run reports, outputs and final filters agree
    /// bit-for-bit whatever the segment geometry — including segments shorter
    /// than a protocol phase and packs as small as a single node.
    #[test]
    fn engines_agree_on_any_regime_switch_trace(
        seed in 0u64..1000,
        n in 8usize..16,
        sigma in 1usize..6,
        segment_len in 1u64..9,
    ) {
        let eps = Epsilon::TENTH;
        let steps = (3 * segment_len + 4) as usize; // cross every boundary
        let rows: Vec<Vec<u64>> =
            RegimeSwitchWorkload::new(n, 2, sigma, 1 << 16, eps, segment_len, seed)
                .generate(steps)
                .iter()
                .map(|(_, r)| r.to_vec())
                .collect();
        prop_assert!(rows.iter().all(|r| r.len() == n && r.iter().all(|&v| v >= 1)));
        compare(|| Box::new(CombinedMonitor::new(2, eps)), &rows, eps);
    }

    /// Any seeded churn plan is a valid membership schedule for all five
    /// configurations: joins reseed the slot's RNG from `(master seed, id,
    /// generation)` on every engine, the rejoin replay is charged under the
    /// recovery label everywhere, and a leaver's vacated rank re-resolves
    /// through the ordinary violation machinery — so the run reports, outputs
    /// and filters agree bit-for-bit whatever the churn geometry.
    #[test]
    fn engines_agree_on_any_membership_schedule(
        seed in 0u64..1000,
        n in 8usize..14,
        leave_permille in 20u32..160,
        downtime in 1u64..7,
    ) {
        let eps = Epsilon::TENTH;
        let steps = 24usize;
        let rows: Vec<Vec<u64>> =
            NoiseOscillationWorkload::new(n, 2, (n / 2).min(5), 1 << 16, eps, seed ^ 0x51)
                .generate(steps)
                .iter()
                .map(|(_, r)| r.to_vec())
                .collect();
        let min_live = n / 2;
        let schedule =
            MembershipWorkload::churn(n, steps as u64, seed, leave_permille, downtime, min_live);
        compare_with_membership(|| Box::new(CombinedMonitor::new(2, eps)), &rows, &schedule, eps);
    }
}
