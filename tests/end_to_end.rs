//! End-to-end integration tests: every monitor, on every workload regime, must
//! produce a valid ε-top-k output at every time step while communicating far
//! less than the naive poll-everything strategy — and the TCP coordinator
//! must survive a lossy loopback transport by degrading dropped replies to
//! recovery polls instead of hanging.

use std::time::Duration;
use topk_core::monitor::{run_on_rows, run_with_membership, Monitor};
use topk_core::{CombinedMonitor, DenseMonitor, ExactTopKMonitor, HalfEpsMonitor, TopKMonitor};
use topk_gen::{
    GapWorkload, MembershipWorkload, NoiseOscillationWorkload, RandomWalkWorkload, Workload,
    ZipfLoadWorkload,
};
use topk_model::cost::ProtocolLabel;
use topk_model::fault::FaultSpec;
use topk_model::Epsilon;
use topk_net::{DeterministicEngine, Network, RemoteEngine};

const N: usize = 24;
const K: usize = 4;
const STEPS: usize = 80;

fn workloads(eps: Epsilon) -> Vec<(&'static str, Vec<Vec<u64>>)> {
    vec![
        (
            "gap",
            GapWorkload::standard(N, K, 1 << 20, 5)
                .generate(STEPS)
                .iter()
                .map(|(_, r)| r.to_vec())
                .collect(),
        ),
        (
            "noise",
            NoiseOscillationWorkload::new(N, 2, 10, 1 << 18, eps, 5)
                .generate(STEPS)
                .iter()
                .map(|(_, r)| r.to_vec())
                .collect(),
        ),
        (
            "random-walk",
            RandomWalkWorkload::new(N, 1 << 16, 500, 0.7, 5)
                .generate(STEPS)
                .iter()
                .map(|(_, r)| r.to_vec())
                .collect(),
        ),
        (
            "zipf",
            ZipfLoadWorkload::web_cluster(N, 5)
                .generate(STEPS)
                .iter()
                .map(|(_, r)| r.to_vec())
                .collect(),
        ),
    ]
}

fn monitors(eps: Epsilon) -> Vec<Box<dyn Monitor>> {
    vec![
        Box::new(ExactTopKMonitor::new(K)),
        Box::new(TopKMonitor::new(K, eps)),
        Box::new(DenseMonitor::new(K, eps)),
        Box::new(CombinedMonitor::new(K, eps)),
        Box::new(HalfEpsMonitor::new(K, eps)),
    ]
}

#[test]
fn every_monitor_is_valid_on_every_regime() {
    let eps = Epsilon::TENTH;
    for (regime, rows) in workloads(eps) {
        for mut monitor in monitors(eps) {
            let mut net = DeterministicEngine::new(N, 77);
            let report = run_on_rows(monitor.as_mut(), &mut net, rows.iter().cloned(), eps);
            assert_eq!(
                report.invalid_steps,
                0,
                "{} produced {} invalid steps on the {regime} workload",
                monitor.name(),
                report.invalid_steps
            );
            assert_eq!(report.steps, STEPS as u64);
            assert_eq!(monitor.output().len(), K);
        }
    }
}

#[test]
fn exact_monitors_track_the_exact_top_k() {
    let eps = Epsilon::TENTH;
    for (regime, rows) in workloads(eps) {
        let mut monitor = ExactTopKMonitor::new(K);
        let mut net = DeterministicEngine::new(N, 3);
        let report = run_on_rows(&mut monitor, &mut net, rows.iter().cloned(), eps);
        assert_eq!(
            report.inexact_steps, 0,
            "exact monitor deviated from the exact top-k on the {regime} workload"
        );
    }
}

#[test]
fn all_monitors_beat_naive_polling() {
    let eps = Epsilon::TENTH;
    let naive = (N * STEPS * 2) as u64;
    for (regime, rows) in workloads(eps) {
        for mut monitor in monitors(eps) {
            let mut net = DeterministicEngine::new(N, 13);
            let report = run_on_rows(monitor.as_mut(), &mut net, rows.iter().cloned(), eps);
            // The dense oscillation regime is the paper's worst case for the
            // *exact* problem (it is the motivation for the ε-approximate and
            // dense protocols of Sects. 4–5): σ nodes keep crossing the k-th
            // boundary, so the exact monitor — like OPT for ε = 0 — pays
            // essentially every step and Corollary 3.3 promises nothing
            // relative to naive polling. Hold it near naive there; everywhere
            // else every monitor must genuinely beat polling.
            let bound = if monitor.name() == "exact-top-k" && regime == "noise" {
                naive + naive / 4
            } else {
                naive
            };
            assert!(
                report.messages() < bound,
                "{} used {} messages on {regime}, bound is {bound} (naive polling: {naive})",
                monitor.name(),
                report.messages()
            );
        }
    }
}

#[test]
fn remote_coordinator_degrades_dropped_replies_to_polls() {
    // A lossy loopback transport drops ~30% of reply frames; the coordinator
    // must time out, poll, and converge to exactly the clean run's monitor
    // output and node state — never hang — with every extra message the
    // recovery cost, attributed to `ProtocolLabel::Recovery` on the meter.
    // Dropped replies include round-0 answers that carry the idle signal;
    // recovered by a poll, they must still idle their shard.
    let eps = Epsilon::TENTH;
    let n = 16;
    let rows: Vec<Vec<u64>> = NoiseOscillationWorkload::new(n, 2, 8, 1 << 18, eps, 41)
        .generate(24)
        .iter()
        .map(|(_, r)| r.to_vec())
        .collect();

    let mut clean_mon = TopKMonitor::new(4, eps);
    let mut clean_net = RemoteEngine::with_shards(n, 77, 3);
    let clean = run_on_rows(&mut clean_mon, &mut clean_net, rows.iter().cloned(), eps);

    let spec = FaultSpec::drop_upstream(0xD0D0, 300);
    let mut lossy_mon = TopKMonitor::new(4, eps);
    let mut lossy_net = RemoteEngine::with_fault_spec(n, 77, 3, &spec, Duration::from_millis(20));
    let lossy = run_on_rows(&mut lossy_mon, &mut lossy_net, rows.iter().cloned(), eps);

    assert!(
        lossy_net.polls_sent() > 0,
        "a 300‰ drop rate over {} steps must cost at least one poll",
        rows.len()
    );
    assert_eq!(clean_mon.output(), lossy_mon.output());
    assert_eq!(clean_net.peek_filters(), lossy_net.peek_filters());
    assert_eq!(clean_net.peek_values(), lossy_net.peek_values());
    assert_eq!(clean.invalid_steps, lossy.invalid_steps);
    // The polls are the entire cost of the loss: stripped of the recovery
    // label, the lossy accounting is bit-identical to the clean run's.
    let mut stats = lossy.stats.clone();
    assert_eq!(
        stats.messages_of_label(ProtocolLabel::Recovery),
        lossy_net.polls_sent(),
        "every poll (and nothing else) is charged to the recovery label"
    );
    stats
        .by_label_kind
        .retain(|(label, _), _| *label != ProtocolLabel::Recovery);
    assert_eq!(stats, clean.stats);
    // The poll answer repeats the retained reply, idle signal included, so
    // the lossy run skips exactly the shards the clean run skips: every
    // frame it sent beyond the clean run's is a poll.
    assert_eq!(
        lossy_net.transport_stats().frames_sent,
        clean_net.transport_stats().frames_sent + lossy_net.polls_sent(),
        "a poll-recovered reply must idle its shard like the original"
    );
}

#[test]
fn remote_membership_churn_survives_a_lossy_transport() {
    // The acceptance bar for dynamic membership: a loopback TCP run with
    // join/leave churn AND a 20% upstream drop rate must converge to exactly
    // the in-process engine's monitor output, node state and filters on the
    // same schedule — and the accounting must be identical once the recovery
    // label (join replays on both sides, drop-recovery polls on the lossy
    // side only) is stripped.
    let eps = Epsilon::TENTH;
    let n = 16;
    let steps = 24;
    let rows: Vec<Vec<u64>> = NoiseOscillationWorkload::new(n, 2, 8, 1 << 18, eps, 43)
        .generate(steps)
        .iter()
        .map(|(_, r)| r.to_vec())
        .collect();
    let schedule = MembershipWorkload::churn(n, steps as u64, 0xC1A0, 90, 4, 8);
    assert!(schedule.total_events() > 0, "the plan must churn");

    let run = |net: &mut dyn Network| {
        let mut monitor = CombinedMonitor::new(4, eps);
        let mut emitted = 0usize;
        let report = run_with_membership(
            &mut monitor,
            net,
            eps,
            |_| {
                let row = rows.get(emitted).cloned();
                emitted += 1;
                row
            },
            schedule.driver(),
        );
        (report, monitor.output())
    };

    let mut clean_net = DeterministicEngine::new(n, 77);
    let (clean, clean_out) = run(&mut clean_net);

    let spec = FaultSpec::drop_upstream(0xC1A1, 200);
    let mut lossy_net = RemoteEngine::with_fault_spec(n, 77, 3, &spec, Duration::from_millis(20));
    let (lossy, lossy_out) = run(&mut lossy_net);

    assert!(
        lossy_net.polls_sent() > 0,
        "a 200‰ drop rate over {steps} churned steps must cost at least one poll"
    );
    assert_eq!(clean_out, lossy_out);
    assert_eq!(clean_net.peek_filters(), lossy_net.peek_filters());
    assert_eq!(clean_net.peek_values(), lossy_net.peek_values());
    assert_eq!(clean.invalid_steps, lossy.invalid_steps);
    assert_eq!(clean.steps, lossy.steps);
    // Both sides charge the join replays to the recovery label; the lossy
    // side additionally charges its polls there. Stripped of that label the
    // two accountings are bit-identical — churn costs the same over TCP with
    // loss as it does in process without.
    let mut clean_stats = clean.stats.clone();
    let mut lossy_stats = lossy.stats.clone();
    let clean_recovery = clean_stats.messages_of_label(ProtocolLabel::Recovery);
    let lossy_recovery = lossy_stats.messages_of_label(ProtocolLabel::Recovery);
    assert!(clean_recovery > 0, "join replays charge the recovery label");
    assert_eq!(
        lossy_recovery,
        clean_recovery + lossy_net.polls_sent(),
        "lossy recovery = join replays + drop-recovery polls, nothing else"
    );
    clean_stats
        .by_label_kind
        .retain(|(label, _), _| *label != ProtocolLabel::Recovery);
    lossy_stats
        .by_label_kind
        .retain(|(label, _), _| *label != ProtocolLabel::Recovery);
    assert_eq!(lossy_stats, clean_stats);
}

#[test]
fn larger_epsilon_never_hurts_much_on_dense_inputs() {
    // On a dense oscillation, a larger error budget must reduce (or at least not
    // blow up) the communication of the combined algorithm.
    let tight = Epsilon::new(1, 100).unwrap();
    let loose = Epsilon::new(1, 4).unwrap();
    let rows: Vec<Vec<u64>> = NoiseOscillationWorkload::new(N, 2, 10, 1 << 18, loose, 9)
        .generate(STEPS)
        .iter()
        .map(|(_, r)| r.to_vec())
        .collect();
    let run = |eps: Epsilon| {
        let mut net = DeterministicEngine::new(N, 21);
        let mut monitor = CombinedMonitor::new(K, eps);
        run_on_rows(&mut monitor, &mut net, rows.iter().cloned(), eps)
    };
    let tight_report = run(tight);
    let loose_report = run(loose);
    assert_eq!(loose_report.invalid_steps, 0);
    assert!(
        loose_report.messages() <= tight_report.messages() * 2,
        "loose ε ({}) should not cost much more than tight ε ({})",
        loose_report.messages(),
        tight_report.messages()
    );
}
