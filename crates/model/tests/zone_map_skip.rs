//! The zone-map skip is a pure elision: it never masks a real transition.
//!
//! `NodeStateSoA`'s dense bulk passes skip a whole 64-node chunk when the
//! per-chunk zone map proves no flag can flip (no pending violation, every
//! new value inside the chunk-wide `[lo_max, hi_min]` band). The soundness
//! argument lives on the `chunk_dirty` field in `soa.rs`: stale bounds after
//! a filter write are always the *pre-widening* (tighter) ones, so the skip
//! test can only be conservative. This battery pins the claim differentially:
//! a skip-enabled state and a skip-disabled twin (same API, every chunk takes
//! the full re-derivation pass) are driven through random interleaved filter,
//! group, broadcast and value traffic and must report identical transitions,
//! identical change counts, and identical observable state after every step —
//! under dense-biased, quiet-biased, tracked and deferred+refresh delivery
//! alike.
//!
//! The bulk broadcast (`NodeStateSoA::broadcast`) marks every chunk dirty
//! without rebuilding it, so the row after a broadcast is where a stale zone
//! map would show. Each broadcast is also held to a third state that applies
//! it node by node (`set_group`, then `set_filter` of the filter
//! `filter_for` derives): equal state and equal reported flag changes, over
//! both broadcast kinds, every `NodeGroup` and all three `FilterParams`
//! variants, on populations from a part of one chunk to several chunks plus
//! a ragged tail.

use proptest::prelude::*;
use topk_model::prelude::*;
use topk_model::soa::NodeStateSoA;

/// Maximum population the raw rows are generated for; the driver truncates
/// to the case's actual `n`.
const N_MAX: usize = 256;

/// Every `NodeGroup`, indexed by a generated code.
const GROUPS: [NodeGroup; 8] = [
    NodeGroup::Upper,
    NodeGroup::Lower,
    NodeGroup::V1,
    NodeGroup::V2 {
        s1: false,
        s2: false,
    },
    NodeGroup::V2 {
        s1: true,
        s2: false,
    },
    NodeGroup::V2 {
        s1: false,
        s2: true,
    },
    NodeGroup::V2 { s1: true, s2: true },
    NodeGroup::V3,
];

/// A broadcast to every node.
#[derive(Debug, Clone, Copy)]
enum Broadcast {
    /// New parameters: every node re-derives its filter from its group.
    Params(FilterParams),
    /// One group for every node, under the last broadcast parameters.
    Group(NodeGroup),
}

/// One step of interleaved traffic, already shaped for population `n`.
struct Step {
    /// `(node, filter)` assignments applied first.
    filters: Vec<(usize, Filter)>,
    /// `(node, group)` assignments applied next, so that a parameter
    /// broadcast meets a mix of groups.
    groups: Vec<(usize, NodeGroup)>,
    /// The broadcast applied after the assignments, if any.
    broadcast: Option<Broadcast>,
    /// The observation row (`n` values).
    row: Vec<Value>,
    /// Which bulk delivery path carries the row (0 = dense-biased, 1 =
    /// quiet-biased, 2 = tracked, 3 = deferred + `refresh_pending_bulk`).
    path: u8,
}

/// One step as the stand-in proptest strategies generate it, before
/// [`shape`] folds indices into range and raw numbers into filters, groups
/// and parameters: `((filters, groups), row, path, (broadcast kind, group
/// code, parameter kind, parameter values))`.
type RawStep = (
    (Vec<(usize, u64, u64)>, Vec<(usize, u8)>),
    Vec<u64>,
    u8,
    (u8, u8, u8, Vec<u64>),
);

/// The parameters of kind `kind % 3` built from five raw values. Values and
/// bounds share the 0..50 range of the rows, and inverted bounds are kept:
/// `filter_for` turns them into singleton filters.
fn params(kind: u8, v: &[u64]) -> FilterParams {
    match kind % 3 {
        0 => FilterParams::Separator { lo: v[0], hi: v[1] },
        1 => FilterParams::Dense {
            l_r: v[0],
            u_r: v[1],
            z_lo: v[2],
            z_hi: v[3],
        },
        _ => FilterParams::SubDense {
            l_r: v[0],
            l_rp: v[1],
            u_rp: v[2],
            z_lo: v[3],
            z_hi: v[4],
        },
    }
}

/// Shapes one raw generated step for population `n`. Values and filter
/// bounds share the 0..50 range so violations and returns-to-band are both
/// common; `width >= 50` becomes the one-sided `[lo, ∞)` filter, covering
/// widening, narrowing and unbounding alike. Half the steps broadcast, a
/// quarter of them new parameters and a quarter a group.
fn shape(raw: &RawStep, n: usize) -> Step {
    let ((filters, groups), row, path, (kind, group, params_kind, values)) = raw;
    Step {
        filters: filters
            .iter()
            .map(|&(i, lo, width)| {
                let f = if width >= 50 {
                    Filter::at_least(lo)
                } else {
                    Filter::bounded(lo, lo + width).expect("lo <= lo + width")
                };
                (i % n, f)
            })
            .collect(),
        groups: groups
            .iter()
            .map(|&(i, g)| (i % n, GROUPS[usize::from(g % 8)]))
            .collect(),
        broadcast: match kind % 4 {
            0 => Some(Broadcast::Params(params(*params_kind, values))),
            1 => Some(Broadcast::Group(GROUPS[usize::from(group % 8)])),
            _ => None,
        },
        row: row[..n].to_vec(),
        path: *path,
    }
}

/// Applies the step's per-node filter and group assignments.
fn assign(s: &mut NodeStateSoA, step: &Step) {
    for &(i, f) in &step.filters {
        s.set_filter(i, f);
    }
    for &(i, g) in &step.groups {
        s.set_group(i, g);
    }
}

/// Applies a broadcast with the one-pass bulk method and returns the nodes
/// whose flag it reported as changed.
fn broadcast_bulk(s: &mut NodeStateSoA, b: Broadcast, last: Option<FilterParams>) -> Vec<u32> {
    let mut changed = Vec::new();
    match b {
        Broadcast::Params(p) => s.broadcast(None, Some(p), &mut changed),
        Broadcast::Group(g) => s.broadcast(Some(g), last, &mut changed),
    }
    changed
}

/// Applies a broadcast node by node, as a `SimNode` does, and returns the
/// nodes whose flag changed, in ascending order.
fn broadcast_per_node(s: &mut NodeStateSoA, b: Broadcast, last: Option<FilterParams>) -> Vec<u32> {
    let mut changed = Vec::new();
    for i in 0..s.len() {
        let before = s.pending(i);
        let params = match b {
            Broadcast::Params(p) => Some(p),
            Broadcast::Group(g) => {
                s.set_group(i, g);
                last
            }
        };
        if let Some(p) = params {
            s.set_filter(i, filter_for(s.group(i), &p));
        }
        if s.pending(i) != before {
            changed.push(i as u32);
        }
    }
    changed
}

/// Delivers the step's row, returning `(changed, transitions)`.
fn deliver(s: &mut NodeStateSoA, step: &Step) -> (usize, Vec<u32>) {
    let mut transitions = Vec::new();
    let changed = match step.path {
        0 => s.advance_row(&step.row, &mut transitions, true),
        1 => s.advance_row(&step.row, &mut transitions, false),
        2 => {
            let mut changed_ids = Vec::new();
            s.advance_row_tracked(&step.row, &mut transitions, &mut changed_ids)
        }
        _ => {
            let mut changed = 0;
            for (i, &v) in step.row.iter().enumerate() {
                if s.value(i) != v {
                    changed += 1;
                }
                s.set_value_deferred(i, v);
            }
            s.refresh_pending_bulk(&mut transitions);
            changed
        }
    };
    (changed, transitions)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn skip_enabled_and_disabled_states_stay_identical(
        // Sizes straddle the CHUNK = 64 boundary: sub-chunk, around-chunk
        // (exact and ragged tail), two to three chunks, and three chunks
        // plus a ragged tail.
        n_band in 0usize..4,
        n_off in 0usize..97,
        raw_steps in proptest::collection::vec(
            (
                (
                    proptest::collection::vec((0usize..N_MAX, 0u64..40, 0u64..60), 0..8),
                    proptest::collection::vec((0usize..N_MAX, 0u8..8), 0..24),
                ),
                proptest::collection::vec(0u64..50, N_MAX..N_MAX + 1),
                0u8..4,
                (0u8..8, 0u8..8, 0u8..3, proptest::collection::vec(0u64..50, 5..6)),
            ),
            1..16,
        ),
    ) {
        let n = match n_band {
            0 => 1 + n_off % 7,
            1 => 60 + n_off % 10,
            2 => 120 + n_off % 80,
            _ => 193 + n_off % 63,
        };
        let mut skip = NodeStateSoA::new(n);
        let mut twin = NodeStateSoA::new(n);
        twin.set_zone_map_enabled(false);
        let mut per_node = NodeStateSoA::new(n);
        let mut last: Option<FilterParams> = None;
        for (t, raw) in raw_steps.iter().enumerate() {
            let step = shape(raw, n);
            for s in [&mut skip, &mut twin, &mut per_node] {
                assign(s, &step);
            }
            if let Some(b) = step.broadcast {
                let expected = broadcast_per_node(&mut per_node, b, last);
                let changed_a = broadcast_bulk(&mut skip, b, last);
                let changed_b = broadcast_bulk(&mut twin, b, last);
                prop_assert_eq!(
                    &changed_a, &expected,
                    "step {}: {:?} reported other flag changes than per-node writes", t, b
                );
                prop_assert_eq!(&changed_b, &expected, "step {}: skip-disabled twin", t);
                prop_assert_eq!(&skip, &per_node, "step {}: {:?} left another state", t, b);
                prop_assert_eq!(&twin, &per_node, "step {}: skip-disabled twin", t);
                if let Broadcast::Params(p) = b {
                    last = Some(p);
                }
            }
            let (changed_a, trans_a) = deliver(&mut skip, &step);
            let (changed_b, trans_b) = deliver(&mut twin, &step);
            let (changed_c, trans_c) = deliver(&mut per_node, &step);
            prop_assert_eq!(
                changed_a, changed_b,
                "step {}: skip path disagrees on the change count", t
            );
            prop_assert_eq!(
                &trans_a, &trans_b,
                "step {}: skip path masked or invented a transition", t
            );
            prop_assert_eq!(changed_a, changed_c, "step {}: per-node twin", t);
            prop_assert_eq!(&trans_a, &trans_c, "step {}: per-node twin", t);
            prop_assert_eq!(&skip, &twin, "step {}: observable state diverged", t);
            prop_assert_eq!(&skip, &per_node, "step {}: per-node twin diverged", t);
            for i in 0..n {
                prop_assert_eq!(
                    skip.pending(i),
                    skip.filter(i).check(skip.value(i)),
                    "step {}: node {} pending flag violates the invariant", t, i
                );
            }
        }
    }
}
