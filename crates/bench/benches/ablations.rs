//! Ablation benches for the design choices called out in DESIGN.md §5:
//!
//! * existence-protocol violation detection vs naive per-node polling,
//! * double-exponential probing (`TopKProtocol`) vs plain midpoint halving
//!   (`ExactTopKMonitor`) at large `Δ`,
//! * the deterministic reference engine vs the value-indexed engine.

use criterion::{criterion_group, criterion_main, Criterion};
use topk_core::existence::detect_violations;
use topk_core::monitor::run_on_rows;
use topk_core::{ExactTopKMonitor, TopKMonitor};
use topk_gen::{GapWorkload, Workload};
use topk_model::{Epsilon, Filter, NodeId};
use topk_net::{DeterministicEngine, IndexedEngine, Network};

/// Ablation A: detect one violation among n nodes via the existence protocol vs
/// probing every node.
fn ablation_violation_detection(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_violation_detection");
    group.sample_size(20);
    let n = 512;
    group.bench_function("existence_protocol", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            let mut net = DeterministicEngine::new(n, seed);
            net.advance_time(&vec![10; n]);
            net.assign_filter(NodeId(n - 1), Filter::at_most(5));
            detect_violations(&mut net)
        });
    });
    group.bench_function("naive_probe_all", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            let mut net = DeterministicEngine::new(n, seed);
            net.advance_time(&vec![10; n]);
            net.assign_filter(NodeId(n - 1), Filter::at_most(5));
            let values: Vec<u64> = (0..n).map(|i| net.probe(NodeId(i))).collect();
            values
        });
    });
    group.finish();
}

/// Ablation B: plain midpoint halving vs the phase-based probing of
/// `TopKProtocol` on a large-Δ gap workload.
fn ablation_phases(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_phases");
    group.sample_size(10);
    let eps = Epsilon::new(1, 4).unwrap();
    let mut w = GapWorkload::new(30, 2, 1 << 36, 1 << 8, 30, 0, 5);
    let rows: Vec<Vec<u64>> = (0..80).map(|_| w.next_step()).collect();
    group.bench_function("plain_midpoint_exact", |b| {
        b.iter(|| {
            let mut net = DeterministicEngine::new(30, 1);
            let mut monitor = ExactTopKMonitor::new(2);
            run_on_rows(
                &mut monitor,
                &mut net,
                rows.iter().cloned(),
                Epsilon::new(1, 1000).unwrap(),
            )
        });
    });
    group.bench_function("phase_based_topk_protocol", |b| {
        b.iter(|| {
            let mut net = DeterministicEngine::new(30, 1);
            let mut monitor = TopKMonitor::new(2, eps);
            run_on_rows(&mut monitor, &mut net, rows.iter().cloned(), eps)
        });
    });
    group.finish();
}

/// Ablation C: the deterministic reference engine vs the value-indexed engine
/// on the same protocol run (identical message counts, different wall clock).
fn ablation_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_engines");
    group.sample_size(10);
    let eps = Epsilon::TENTH;
    let mut w = GapWorkload::standard(16, 2, 100_000, 3);
    let rows: Vec<Vec<u64>> = (0..40).map(|_| w.next_step()).collect();
    group.bench_function("deterministic_engine", |b| {
        b.iter(|| {
            let mut net = DeterministicEngine::new(16, 2);
            let mut monitor = TopKMonitor::new(2, eps);
            run_on_rows(&mut monitor, &mut net, rows.iter().cloned(), eps)
        });
    });
    group.bench_function("indexed_engine", |b| {
        b.iter(|| {
            let mut net = IndexedEngine::new(16, 2);
            let mut monitor = TopKMonitor::new(2, eps);
            run_on_rows(&mut monitor, &mut net, rows.iter().cloned(), eps)
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    ablation_violation_detection,
    ablation_phases,
    ablation_engines
);
criterion_main!(benches);
