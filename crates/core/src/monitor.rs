//! The common monitoring interface and the single-monitor drivers.
//!
//! Every online algorithm in this crate implements [`Monitor`]: it is given the
//! network after each observation step and must afterwards report a candidate
//! output set of `k` nodes. The driver functions [`run_on_rows`] (pre-recorded
//! workloads), [`run_adaptive`] (adaptive adversaries that see the filters) and
//! [`run_with_membership`] (plus a membership schedule) drive one borrowed
//! monitor over the whole population and collect the [`RunReport`] the
//! experiments are built from. They are wrappers of the one step loop,
//! [`run_query_set_observed`](crate::queryset::run_query_set_observed), which
//! feeds observations, invokes the monitor and validates every output against
//! the ε-top-k definition of Sect. 2.

use crate::queryset::{drive, Driven};
use topk_model::prelude::*;
use topk_net::Network;

/// A filter-based online monitoring algorithm.
pub trait Monitor {
    /// The monitored `k`.
    fn k(&self) -> usize;

    /// The error the monitor is allowed in its output (`None` for monitors that
    /// solve the exact problem).
    fn eps(&self) -> Option<Epsilon>;

    /// Called after every [`Network::advance_time`] (including the first one).
    /// The monitor runs its communication protocol here: detect violations,
    /// update filters, possibly recompute its output.
    fn process_step(&mut self, net: &mut dyn Network);

    /// The monitor's current output set `F(t)` (must have exactly `k` elements
    /// once at least one step was processed).
    fn output(&self) -> Vec<NodeId>;

    /// A short human-readable name used in experiment tables.
    fn name(&self) -> &'static str;
}

/// Outcome of driving a monitor over a workload.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Number of observation steps processed.
    pub steps: u64,
    /// Number of steps at which the output violated the ε-top-k definition
    /// (0 for a correct monitor).
    pub invalid_steps: u64,
    /// Number of steps at which the output differed from the *exact* top-k set
    /// (informational: allowed to be non-zero for approximate monitors).
    pub inexact_steps: u64,
    /// Communication statistics accumulated by the engine.
    pub stats: CommStats,
}

impl RunReport {
    /// Total number of messages the online algorithm sent.
    pub fn messages(&self) -> u64 {
        self.stats.total_messages()
    }
}

/// Drives `monitor` over pre-recorded observation rows.
///
/// `validation_eps` is the error used to *validate* the output (usually the same
/// as the monitor's own ε; pass something larger to accept sloppier outputs).
///
/// # Panics
///
/// Panics if a row's length differs from `net.n()`.
pub fn run_on_rows(
    monitor: &mut dyn Monitor,
    net: &mut dyn Network,
    rows: impl IntoIterator<Item = Vec<Value>>,
    validation_eps: Epsilon,
) -> RunReport {
    let mut iter = rows.into_iter();
    run_adaptive(monitor, net, validation_eps, move |_filters| iter.next())
}

/// Drives `monitor` with an adaptive source: `next_row` sees the filters
/// currently assigned to the nodes (what the adversary of Theorem 5.1 needs) and
/// returns `None` to end the run.
///
/// ```
/// use topk_core::monitor::run_adaptive;
/// use topk_core::TopKMonitor;
/// use topk_model::Epsilon;
/// use topk_net::DeterministicEngine;
///
/// let mut net = DeterministicEngine::new(3, 7);
/// let mut monitor = TopKMonitor::new(1, Epsilon::HALF);
/// let mut step = 0u64;
/// let report = run_adaptive(&mut monitor, &mut net, Epsilon::HALF, |filters| {
///     // The source sees the current filters — an adaptive adversary would
///     // aim its next row exactly at their boundaries.
///     assert_eq!(filters.len(), 3);
///     step += 1;
///     (step <= 4).then(|| vec![100 + step, 50, 10])
/// });
/// assert_eq!(report.steps, 4);
/// assert_eq!(report.invalid_steps, 0, "the ε-top-1 must be valid at every step");
/// ```
pub fn run_adaptive(
    monitor: &mut dyn Monitor,
    net: &mut dyn Network,
    validation_eps: Epsilon,
    next_row: impl FnMut(&[Filter]) -> Option<Vec<Value>>,
) -> RunReport {
    run_with_membership(monitor, net, validation_eps, next_row, |_| Vec::new())
}

/// Drives `monitor` over an adaptive source *and* a membership schedule:
/// `events_at(step)` returns the [`MembershipEvent`]s taking effect at the
/// given 0-based step. The events and the row masking follow
/// [`run_query_set_observed`](crate::queryset::run_query_set_observed)'s solo
/// run.
///
/// # Panics
///
/// Panics on a malformed schedule (joining a live slot, a dead slot leaving)
/// or a row whose length differs from `net.n()`.
pub fn run_with_membership(
    monitor: &mut dyn Monitor,
    net: &mut dyn Network,
    validation_eps: Epsilon,
    next_row: impl FnMut(&[Filter]) -> Option<Vec<Value>>,
    events_at: impl FnMut(u64) -> Vec<MembershipEvent>,
) -> RunReport {
    let everyone: Vec<NodeId> = (0..net.n()).map(NodeId).collect();
    let k = monitor.k();
    let query = Driven {
        monitor,
        k,
        eps: validation_eps,
        subset: &everyone,
    };
    let report = drive(&mut [query], net, next_row, events_at, |_| {});
    let solo = &report.per_query[0];
    RunReport {
        steps: report.steps,
        invalid_steps: solo.invalid_steps,
        inexact_steps: solo.inexact_steps,
        stats: report.stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queryset::{run_query_set_observed, QuerySet};
    use topk_net::DeterministicEngine;

    /// A trivial (and expensive) reference monitor: probes every node every step
    /// and outputs the exact top-k. Used to test the driver itself.
    struct ProbeAllMonitor {
        k: usize,
        eps: Epsilon,
        output: Vec<NodeId>,
    }

    impl ProbeAllMonitor {
        fn new(k: usize, eps: Epsilon) -> Self {
            ProbeAllMonitor {
                k,
                eps,
                output: Vec::new(),
            }
        }
    }

    impl Monitor for ProbeAllMonitor {
        fn k(&self) -> usize {
            self.k
        }
        fn eps(&self) -> Option<Epsilon> {
            Some(self.eps)
        }
        fn process_step(&mut self, net: &mut dyn Network) {
            let values: Vec<Value> = (0..net.n()).map(|i| net.probe(NodeId(i))).collect();
            self.output = TopKView::new(&values, self.k, self.eps).exact_top_k();
        }
        fn output(&self) -> Vec<NodeId> {
            self.output.clone()
        }
        fn name(&self) -> &'static str {
            "probe-all"
        }
    }

    /// A deliberately broken monitor that always outputs nodes 0..k.
    struct ConstantMonitor {
        k: usize,
    }

    impl Monitor for ConstantMonitor {
        fn k(&self) -> usize {
            self.k
        }
        fn eps(&self) -> Option<Epsilon> {
            Some(Epsilon::HALF)
        }
        fn process_step(&mut self, _net: &mut dyn Network) {}
        fn output(&self) -> Vec<NodeId> {
            (0..self.k).map(NodeId).collect()
        }
        fn name(&self) -> &'static str {
            "constant"
        }
    }

    #[test]
    fn driver_counts_steps_and_messages() {
        let rows = vec![vec![1, 2, 3], vec![3, 2, 1], vec![2, 3, 1]];
        let mut net = DeterministicEngine::new(3, 1);
        let mut monitor = ProbeAllMonitor::new(1, Epsilon::HALF);
        let report = run_on_rows(&mut monitor, &mut net, rows, Epsilon::HALF);
        assert_eq!(report.steps, 3);
        assert_eq!(report.invalid_steps, 0);
        assert_eq!(report.inexact_steps, 0);
        // 3 steps × 3 probes × 2 messages each.
        assert_eq!(report.messages(), 18);
        assert_eq!(monitor.name(), "probe-all");
    }

    #[test]
    fn driver_flags_invalid_outputs() {
        // Node 2 clearly dominates but the constant monitor reports node 0.
        let rows = vec![vec![1, 2, 1000], vec![1, 2, 1000]];
        let mut net = DeterministicEngine::new(3, 1);
        let mut monitor = ConstantMonitor { k: 1 };
        let report = run_on_rows(&mut monitor, &mut net, rows, Epsilon::HALF);
        assert_eq!(report.invalid_steps, 2);
        assert_eq!(report.inexact_steps, 2);
        assert_eq!(report.messages(), 0);
    }

    /// A solo query set of one probe-all monitor over `n` nodes.
    fn probe_all_set(n: usize) -> QuerySet {
        let mut set = QuerySet::new(n);
        set.register(
            QuerySpec::new(1, Epsilon::HALF, "probe-all"),
            Box::new(ProbeAllMonitor::new(1, Epsilon::HALF)),
        );
        assert!(set.is_solo());
        set
    }

    #[test]
    fn observer_sees_every_step_with_cumulative_messages() {
        let rows = vec![vec![1, 2, 3], vec![3, 2, 1], vec![2, 3, 1]];
        let mut net = DeterministicEngine::new(3, 1);
        let mut set = probe_all_set(3);
        let mut seen: Vec<(u64, u64, bool)> = Vec::new();
        let mut iter = rows.into_iter();
        let report = run_query_set_observed(
            &mut set,
            &mut net,
            move |_| iter.next(),
            |_| Vec::new(),
            |obs| {
                assert_eq!(obs.row.len(), 3);
                assert_eq!(obs.outputs[0].len(), 1);
                assert_eq!(obs.units, [obs.messages_total * SPLIT_SCALE]);
                seen.push((obs.step, obs.messages_total, obs.valid[0]));
                if let Some(prev) = seen.len().checked_sub(2) {
                    assert!(
                        seen[prev].1 <= obs.messages_total,
                        "message counter must be cumulative"
                    );
                }
            },
        );
        assert_eq!(report.steps, 3);
        // Probe-all costs 6 messages per step; the observer saw the ramp.
        assert_eq!(report.messages(), 18);
    }

    #[test]
    fn membership_driver_masks_validation_and_applies_events() {
        // Node 2 dominates, leaves at step 1, rejoins at step 3. The
        // probe-all monitor must stay valid throughout because validation is
        // against the masked row, and the probes must see the masked values.
        let rows = vec![vec![1, 2, 1000]; 5];
        let mut net = DeterministicEngine::new(3, 1);
        let mut set = probe_all_set(3);
        let mut iter = rows.into_iter();
        let mut observed: Vec<(u64, Vec<Value>, Vec<NodeId>, usize)> = Vec::new();
        let report = run_query_set_observed(
            &mut set,
            &mut net,
            move |_| iter.next(),
            |step| match step {
                1 => vec![MembershipEvent::Leave(NodeId(2))],
                3 => vec![MembershipEvent::Join(NodeId(2))],
                _ => Vec::new(),
            },
            |obs| {
                observed.push((
                    obs.step,
                    obs.row.to_vec(),
                    obs.outputs[0].clone(),
                    obs.events.len(),
                ))
            },
        );
        assert_eq!(report.steps, 5);
        assert_eq!(
            report.per_query[0].invalid_steps, 0,
            "masked validation must hold"
        );
        assert_eq!(
            observed.iter().map(|o| o.3).collect::<Vec<_>>(),
            [0, 1, 0, 1, 0],
            "each step names the events applied before it"
        );
        assert_eq!(observed[0].1, vec![1, 2, 1000]);
        assert_eq!(observed[1].1, vec![1, 2, 0], "dead slot masked");
        assert_eq!(observed[2].1, vec![1, 2, 0]);
        assert_eq!(observed[3].1, vec![1, 2, 1000], "joiner observes again");
        assert_eq!(
            observed[1].2,
            vec![NodeId(1)],
            "top-1 re-resolves to node 1"
        );
        assert_eq!(observed[3].2, vec![NodeId(2)]);
        assert_eq!(net.peek_value(NodeId(2)), 1000);
    }

    #[test]
    #[should_panic(expected = "already live")]
    fn membership_driver_rejects_malformed_schedules() {
        let mut net = DeterministicEngine::new(2, 1);
        let mut set = probe_all_set(2);
        let mut steps = 0;
        run_query_set_observed(
            &mut set,
            &mut net,
            move |_| {
                steps += 1;
                (steps <= 2).then(|| vec![1, 2])
            },
            |_| vec![MembershipEvent::Join(NodeId(0))],
            |_| {},
        );
    }

    #[test]
    fn adaptive_driver_passes_filters() {
        let mut net = DeterministicEngine::new(2, 1);
        let mut monitor = ProbeAllMonitor::new(1, Epsilon::HALF);
        let mut calls = 0;
        let report = run_adaptive(&mut monitor, &mut net, Epsilon::HALF, |filters| {
            calls += 1;
            assert_eq!(filters.len(), 2);
            if calls <= 3 {
                Some(vec![10 * calls as Value, 5])
            } else {
                None
            }
        });
        assert_eq!(report.steps, 3);
    }
}
