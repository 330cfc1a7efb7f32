//! Exact top-k monitoring with the generic halving framework (Corollary 3.3).
//!
//! The monitor proceeds in *phases*. A phase starts by computing the nodes with
//! the `k + 1` largest values (O(k log n) expected messages, [`crate::maximum`]),
//! fixing the output `F` to the top `k` of them and initialising the guess
//! interval `L = [ℓ, u]` with `ℓ = v_{π(k+1)}`, `u = v_{π(k)}`. The server then
//! broadcasts the midpoint `m` of `L`; nodes in `F` use the filter `[m, ∞)`, the
//! rest `[0, m]`. Whenever a violation is reported the interval is intersected
//! with `[v, ∞)` (violation from below by an outside node) or `[0, v]` (violation
//! from above by an output node) and the new midpoint is broadcast; the interval
//! at least halves per violation, so a phase costs O(log Δ) violations. When `L`
//! becomes empty the top-k set must have changed and a new phase starts.
//!
//! Together with the O(1)-expected-message violation detection of Corollary 3.2
//! this yields the O(k log n + log Δ) competitiveness of Corollary 3.3 — the
//! strengthening over the O(k log n + log Δ log n) bound of the predecessor paper
//! that Sect. 3 announces.

use topk_model::prelude::*;
use topk_net::Network;

use crate::existence::detect_violations;
use crate::maximum::top_m;
use crate::monitor::Monitor;

/// Safety cap on protocol iterations within a single time step; the analysis
/// bounds the real number by O(log Δ) per phase, so hitting the cap indicates a
/// bug rather than a long input.
const MAX_ITERATIONS_PER_STEP: u32 = 100_000;

/// Exact top-k monitor (Corollary 3.3).
#[derive(Debug, Clone)]
pub struct ExactTopKMonitor {
    k: usize,
    output: Vec<NodeId>,
    /// Guess interval `L = [lo, hi]` for the separating value; `lo > hi` encodes
    /// the empty interval.
    lo: Value,
    hi: Value,
    initialised: bool,
    /// Number of phases started so far (for experiment reporting).
    phases: u64,
}

impl ExactTopKMonitor {
    /// Creates a monitor for the `k` largest positions.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> ExactTopKMonitor {
        assert!(k >= 1, "k must be at least 1");
        ExactTopKMonitor {
            k,
            output: Vec::new(),
            lo: 0,
            hi: 0,
            initialised: false,
            phases: 0,
        }
    }

    /// Number of phases (recomputations of the top-(k+1) set) started so far.
    pub fn phases(&self) -> u64 {
        self.phases
    }

    /// Current guess interval `[lo, hi]` (empty iff `lo > hi`).
    pub fn guess_interval(&self) -> (Value, Value) {
        (self.lo, self.hi)
    }

    fn start_phase(&mut self, net: &mut dyn Network) {
        assert!(
            self.k < net.n(),
            "k = {} must be smaller than the number of nodes n = {}",
            self.k,
            net.n()
        );
        self.phases += 1;
        net.meter().push_label(ProtocolLabel::ExactTopK);
        let top = top_m(net, self.k + 1);
        debug_assert_eq!(top.len(), self.k + 1);
        self.output = top[..self.k].iter().map(|&(id, _)| id).collect();
        self.hi = top[self.k - 1].1;
        self.lo = top[self.k].1;
        // Partition the nodes: one broadcast resets everyone to Lower, k unicasts
        // promote the output nodes to Upper.
        net.broadcast_group(NodeGroup::Lower);
        for &(id, _) in &top[..self.k] {
            net.assign_group(id, NodeGroup::Upper);
        }
        self.broadcast_midpoint(net);
        net.meter().pop_label();
    }

    fn broadcast_midpoint(&mut self, net: &mut dyn Network) {
        let m = self.lo + (self.hi - self.lo) / 2;
        net.broadcast_params(FilterParams::Separator { lo: m, hi: m });
    }

    fn in_output(&self, node: NodeId) -> bool {
        self.output.contains(&node)
    }
}

impl Monitor for ExactTopKMonitor {
    fn k(&self) -> usize {
        self.k
    }

    fn eps(&self) -> Option<Epsilon> {
        None
    }

    fn process_step(&mut self, net: &mut dyn Network) {
        if !self.initialised {
            self.start_phase(net);
            self.initialised = true;
        }
        net.meter().push_label(ProtocolLabel::ExactTopK);
        for _ in 0..MAX_ITERATIONS_PER_STEP {
            let violations = detect_violations(net);
            let Some(first) = violations.first() else {
                break;
            };
            // The paper processes one violation at a time; re-running detection
            // after the filter update supersedes the remaining reports.
            let (node, value, direction) = match *first {
                NodeMessage::ViolationReport {
                    node,
                    value,
                    direction,
                } => (node, value, direction),
                ref other => unreachable!("violation detection returned {other:?}"),
            };
            match direction {
                // A non-output node rose above the separator: the true separating
                // value (if any) must be at least its value.
                Violation::FromBelow => self.lo = self.lo.max(value),
                // An output node fell below the separator: the separating value
                // must be at most its value.
                Violation::FromAbove => self.hi = self.hi.min(value),
            }
            // Nodes that changed sides relative to the current output make the
            // interval collapse eventually; restart once it is empty.
            let crossed = (direction == Violation::FromBelow && self.in_output(node))
                || (direction == Violation::FromAbove && !self.in_output(node));
            if self.lo > self.hi || crossed {
                net.meter().pop_label();
                self.start_phase(net);
                net.meter().push_label(ProtocolLabel::ExactTopK);
            } else {
                self.broadcast_midpoint(net);
            }
        }
        net.meter().pop_label();
    }

    fn output(&self) -> Vec<NodeId> {
        self.output.clone()
    }

    fn name(&self) -> &'static str {
        "exact-top-k"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::run_on_rows;
    use rand::Rng;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use topk_gen::{GapWorkload, RandomWalkWorkload, Workload};
    use topk_net::DeterministicEngine;

    fn drive(rows: Vec<Vec<Value>>, k: usize, seed: u64) -> (crate::RunReport, ExactTopKMonitor) {
        let n = rows[0].len();
        let mut net = DeterministicEngine::new(n, seed);
        let mut monitor = ExactTopKMonitor::new(k);
        let report = run_on_rows(&mut monitor, &mut net, rows, Epsilon::new(1, 1000).unwrap());
        (report, monitor)
    }

    #[test]
    fn output_is_exact_on_static_values() {
        let rows = vec![vec![10, 50, 30, 70, 20]; 10];
        let (report, monitor) = drive(rows, 2, 1);
        assert_eq!(report.inexact_steps, 0);
        assert_eq!(report.invalid_steps, 0);
        assert_eq!(monitor.phases(), 1);
        let mut out = monitor.output();
        out.sort();
        assert_eq!(out, vec![NodeId(1), NodeId(3)]);
    }

    #[test]
    fn static_values_cost_only_the_initial_phase() {
        let rows = vec![vec![10, 50, 30, 70, 20]; 100];
        let (report, _) = drive(rows, 2, 3);
        // After the first step no more messages are exchanged (no violations).
        let single_step = drive(vec![vec![10, 50, 30, 70, 20]; 1], 2, 3).0;
        assert_eq!(report.messages(), single_step.messages());
    }

    #[test]
    fn tracks_leadership_changes_exactly() {
        // Node 0 and node 1 alternate in the lead; every swap crosses the
        // separator so the monitor must keep up.
        let rows: Vec<Vec<Value>> = (0..30)
            .map(|t| {
                if t % 2 == 0 {
                    vec![100, 60, 10]
                } else {
                    vec![60, 100, 10]
                }
            })
            .collect();
        let (report, _) = drive(rows, 1, 5);
        assert_eq!(report.inexact_steps, 0);
        assert_eq!(report.invalid_steps, 0);
    }

    #[test]
    fn exact_on_random_walks() {
        for seed in 0..5 {
            let mut w = RandomWalkWorkload::new(8, 10_000, 200, 0.7, seed);
            let rows: Vec<Vec<Value>> = (0..60).map(|_| w.next_step()).collect();
            let (report, _) = drive(rows, 3, seed);
            assert_eq!(report.inexact_steps, 0, "seed {seed}");
            assert_eq!(report.invalid_steps, 0, "seed {seed}");
        }
    }

    #[test]
    fn cheap_on_gap_workloads() {
        let mut w = GapWorkload::standard(40, 4, 1_000_000, 7);
        let rows: Vec<Vec<Value>> = (0..200).map(|_| w.next_step()).collect();
        let (report, monitor) = drive(rows, 4, 7);
        assert_eq!(report.inexact_steps, 0);
        // The designated top group never changes, so a handful of phases suffice
        // and the message count stays far below one-per-node-per-step.
        assert!(
            report.messages() < 200 * 40 / 4,
            "too many messages: {}",
            report.messages()
        );
        assert!(monitor.phases() < 50);
    }

    #[test]
    fn interval_shrinks_monotonically_within_a_phase() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let rows: Vec<Vec<Value>> = (0..40)
            .map(|_| (0..6).map(|_| rng.gen_range(0..10_000)).collect())
            .collect();
        let (report, _) = drive(rows, 2, 3);
        assert_eq!(report.inexact_steps, 0);
    }

    #[test]
    #[should_panic]
    fn rejects_k_zero() {
        let _ = ExactTopKMonitor::new(0);
    }

    #[test]
    #[should_panic]
    fn rejects_k_equal_to_n() {
        let rows = vec![vec![1, 2]];
        let _ = drive(rows, 2, 0);
    }
}
