//! Filters — the intervals the server assigns to nodes — and filter sets.
//!
//! A *filter* for node `i` is an interval `F_i = [ℓ_i, u_i] ⊆ ℕ ∪ {∞}` such that,
//! as long as `v_i ∈ F_i`, the output `F(t)` need not change and node `i` stays
//! silent (Definition 2.1 of the paper). If a node observes a value above the
//! upper bound it *violates its filter from below* (the value crossed the bound
//! coming from below); a value below the lower bound is a *violation from above*.
//!
//! Observation 2.2 characterises valid filter sets: for every node `i` inside the
//! output and every node `j` outside it, `ℓ_i ≥ (1 − ε) · u_j` must hold.

use crate::epsilon::Epsilon;
use crate::error::ModelError;
use crate::types::{NodeId, TimeStep, Value};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Direction of a filter violation.
///
/// The naming follows the paper: a node whose value grew past the *upper* bound
/// of its filter violates *from below* (it approached the bound from below); a
/// node whose value dropped under the *lower* bound violates *from above*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Violation {
    /// The observed value is larger than the filter's upper bound.
    FromBelow,
    /// The observed value is smaller than the filter's lower bound.
    FromAbove,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::FromBelow => write!(f, "from below (value exceeded upper bound)"),
            Violation::FromAbove => write!(f, "from above (value dropped under lower bound)"),
        }
    }
}

/// A filter interval `[lo, hi]` with an optionally unbounded upper end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Filter {
    lo: Value,
    /// `None` encodes `∞`.
    hi: Option<Value>,
}

impl Filter {
    /// The all-embracing filter `[0, ∞)`; a node with this filter never reports.
    pub const FULL: Filter = Filter { lo: 0, hi: None };

    /// The empty filter `[1, 0]`: no value lies inside it, so a node holding it
    /// reports at every observation. It arises as the intersection of disjoint
    /// per-query bands (see [`Filter::intersect`]) and is the canonical
    /// representation of every empty interval — [`Filter::bounded`] still
    /// rejects constructing one directly.
    pub const EMPTY: Filter = Filter { lo: 1, hi: Some(0) };

    /// Creates the bounded filter `[lo, hi]`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::EmptyFilter`] if `lo > hi`.
    pub fn bounded(lo: Value, hi: Value) -> Result<Filter, ModelError> {
        if lo > hi {
            return Err(ModelError::EmptyFilter { lo, hi: Some(hi) });
        }
        Ok(Filter { lo, hi: Some(hi) })
    }

    /// The filter with the given bounds, unchecked: for callers in this
    /// crate that reassemble a filter from the parts of one they stored.
    #[inline]
    pub(crate) fn from_parts(lo: Value, hi: Option<Value>) -> Filter {
        Filter { lo, hi }
    }

    /// Creates the upper-unbounded filter `[lo, ∞)`.
    pub fn at_least(lo: Value) -> Filter {
        Filter { lo, hi: None }
    }

    /// Creates the filter `[0, hi]`.
    pub fn at_most(hi: Value) -> Filter {
        Filter {
            lo: 0,
            hi: Some(hi),
        }
    }

    /// Lower bound `ℓ`.
    #[inline]
    pub fn lo(&self) -> Value {
        self.lo
    }

    /// Upper bound `u`, or `None` for `∞`.
    #[inline]
    pub fn hi(&self) -> Option<Value> {
        self.hi
    }

    /// Upper bound with `∞` mapped to [`Value::MAX`] (useful for ordering and
    /// reporting; never feed the result back into neighbourhood arithmetic).
    #[inline]
    pub fn hi_or_max(&self) -> Value {
        self.hi.unwrap_or(Value::MAX)
    }

    /// Whether the filter is bounded above.
    #[inline]
    pub fn is_bounded(&self) -> bool {
        self.hi.is_some()
    }

    /// Whether the filter is empty (contains no value at all).
    #[inline]
    pub fn is_empty(&self) -> bool {
        matches!(self.hi, Some(hi) if self.lo > hi)
    }

    /// The intersection of two filters: `[max(ℓ, ℓ'), min(u, u')]`.
    ///
    /// This is how the server combines the bands several queries assign to the
    /// same node into one *effective* filter — the node stays silent exactly
    /// while its value satisfies every query's band. Disjoint bands intersect
    /// to [`Filter::EMPTY`] (canonically), which every value violates.
    ///
    /// ```
    /// use topk_model::Filter;
    ///
    /// let a = Filter::bounded(10, 30).unwrap();
    /// let b = Filter::at_least(20);
    /// assert_eq!(a.intersect(&b), Filter::bounded(20, 30).unwrap());
    /// assert!(a.intersect(&Filter::at_least(31)).is_empty());
    /// ```
    #[inline]
    pub fn intersect(&self, other: &Filter) -> Filter {
        let lo = self.lo.max(other.lo);
        let hi = match (self.hi, other.hi) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (Some(a), None) | (None, Some(a)) => Some(a),
            (None, None) => None,
        };
        if matches!(hi, Some(hi) if lo > hi) {
            Filter::EMPTY
        } else {
            Filter { lo, hi }
        }
    }

    /// Whether `v` lies inside the filter.
    #[inline]
    pub fn contains(&self, v: Value) -> bool {
        v >= self.lo && self.hi.map_or(true, |hi| v <= hi)
    }

    /// Checks `v` against the filter and reports the violation direction, if any.
    ///
    /// This is the Definition 2.1 trigger: a node stays silent while its
    /// observed value satisfies `check(v) == None` and must report otherwise.
    ///
    /// ```
    /// use topk_model::{Filter, Violation};
    ///
    /// let f = Filter::bounded(10, 20).unwrap();
    /// assert_eq!(f.check(15), None); // inside: the node stays silent
    /// assert_eq!(f.check(25), Some(Violation::FromBelow)); // crossed the upper bound
    /// assert_eq!(f.check(5), Some(Violation::FromAbove)); // dropped under the lower bound
    /// assert_eq!(Filter::at_least(7).check(u64::MAX), None); // unbounded above
    /// ```
    #[inline]
    pub fn check(&self, v: Value) -> Option<Violation> {
        Filter::check_parts(self.lo, self.hi, v)
    }

    /// [`Filter::check`] on a decomposed `(lo, hi)` pair (`None` = `∞`).
    ///
    /// The single definition of the violation semantics: callers that store
    /// filters column-wise (see [`crate::soa::NodeStateSoA`]) check against the
    /// raw columns without reassembling a `Filter`, and cannot diverge from it.
    #[inline]
    pub fn check_parts(lo: Value, hi: Option<Value>, v: Value) -> Option<Violation> {
        if v < lo {
            Some(Violation::FromAbove)
        } else if matches!(hi, Some(hi) if v > hi) {
            Some(Violation::FromBelow)
        } else {
            None
        }
    }

    /// Whether the pair `(self, other)` satisfies the overlap condition of
    /// Observation 2.2, with `self` assigned to a node *inside* the output and
    /// `other` to a node *outside* it: `ℓ_self ≥ (1 − ε) · u_other`.
    ///
    /// An unbounded `other` can never be compatible (its values may grow
    /// arbitrarily large while `self`'s node may stay put).
    pub fn compatible_above(&self, other: &Filter, eps: Epsilon) -> bool {
        match other.hi {
            Some(u_other) => eps.ge_one_minus_eps_times(self.lo, u_other),
            None => false,
        }
    }

    /// Exact-variant compatibility: `ℓ_self ≥ u_other` (no ε slack). Used when
    /// validating filter sets for the exact top-k problem.
    pub fn compatible_above_exact(&self, other: &Filter) -> bool {
        match other.hi {
            Some(u_other) => self.lo >= u_other,
            None => false,
        }
    }
}

impl fmt::Display for Filter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.hi {
            Some(hi) => write!(f, "[{}, {}]", self.lo, hi),
            None => write!(f, "[{}, ∞)", self.lo),
        }
    }
}

impl Default for Filter {
    fn default() -> Self {
        Filter::FULL
    }
}

/// A complete assignment of filters to all `n` nodes together with validation
/// helpers (Definition 2.1 / Observation 2.2).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FilterSet {
    filters: Vec<Filter>,
}

impl FilterSet {
    /// Creates a filter set of `n` all-embracing filters.
    pub fn full(n: usize) -> FilterSet {
        FilterSet {
            filters: vec![Filter::FULL; n],
        }
    }

    /// Creates a filter set from an explicit vector (one filter per node).
    pub fn from_vec(filters: Vec<Filter>) -> FilterSet {
        FilterSet { filters }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.filters.len()
    }

    /// Whether the set is empty (zero nodes).
    pub fn is_empty(&self) -> bool {
        self.filters.is_empty()
    }

    /// The filter currently assigned to `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn get(&self, node: NodeId) -> Filter {
        self.filters[node.index()]
    }

    /// Replaces the filter of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn set(&mut self, node: NodeId, filter: Filter) {
        self.filters[node.index()] = filter;
    }

    /// Iterates over `(node, filter)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, Filter)> + '_ {
        self.filters
            .iter()
            .enumerate()
            .map(|(i, f)| (NodeId(i), *f))
    }

    /// Checks Definition 2.1 for the current values: every node's value must lie
    /// inside its filter.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidFilterSet`] naming the first offending node.
    pub fn check_contains_values(&self, values: &[Value], at: TimeStep) -> Result<(), ModelError> {
        for (i, (&v, f)) in values.iter().zip(self.filters.iter()).enumerate() {
            if !f.contains(v) {
                return Err(ModelError::InvalidFilterSet {
                    at,
                    reason: format!("node#{i} holds value {v} outside its filter {f}"),
                });
            }
        }
        Ok(())
    }

    /// Checks the pairwise overlap condition of Observation 2.2 for the
    /// ε-approximate problem: for every node `i ∈ output` and `j ∉ output`,
    /// `ℓ_i ≥ (1 − ε) · u_j`.
    ///
    /// The check runs in `O(n)` by comparing the *minimum* lower bound inside the
    /// output with the *maximum* upper bound outside it, which is equivalent to
    /// the quadratic pairwise condition.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidFilterSet`] describing the violated pair.
    pub fn check_separation(
        &self,
        output: &[NodeId],
        eps: Epsilon,
        at: TimeStep,
    ) -> Result<(), ModelError> {
        let in_output = membership(self.len(), output);
        let min_inside = self
            .iter()
            .filter(|(id, _)| in_output[id.index()])
            .min_by_key(|(_, f)| f.lo());
        let max_outside = self
            .iter()
            .filter(|(id, _)| !in_output[id.index()])
            .max_by_key(|(_, f)| f.hi_or_max());
        let (Some((i, fi)), Some((j, fj))) = (min_inside, max_outside) else {
            return Ok(()); // no pair to compare
        };
        if !fi.compatible_above(&fj, eps) {
            return Err(ModelError::InvalidFilterSet {
                at,
                reason: format!(
                    "filters of {i} (inside, {fi}) and {j} (outside, {fj}) violate ℓ_i ≥ (1-ε)·u_j for ε = {eps}"
                ),
            });
        }
        Ok(())
    }

    /// Exact-problem analogue of [`FilterSet::check_separation`]: requires
    /// `ℓ_i ≥ u_j` for every inside/outside pair.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidFilterSet`] describing the violated pair.
    pub fn check_separation_exact(
        &self,
        output: &[NodeId],
        at: TimeStep,
    ) -> Result<(), ModelError> {
        let in_output = membership(self.len(), output);
        let min_inside = self
            .iter()
            .filter(|(id, _)| in_output[id.index()])
            .min_by_key(|(_, f)| f.lo());
        let max_outside = self
            .iter()
            .filter(|(id, _)| !in_output[id.index()])
            .max_by_key(|(_, f)| f.hi_or_max());
        let (Some((i, fi)), Some((j, fj))) = (min_inside, max_outside) else {
            return Ok(());
        };
        if !fi.compatible_above_exact(&fj) {
            return Err(ModelError::InvalidFilterSet {
                at,
                reason: format!(
                    "filters of {i} (inside, {fi}) and {j} (outside, {fj}) violate ℓ_i ≥ u_j"
                ),
            });
        }
        Ok(())
    }
}

fn membership(n: usize, output: &[NodeId]) -> Vec<bool> {
    let mut m = vec![false; n];
    for id in output {
        if id.index() < n {
            m[id.index()] = true;
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bounded_rejects_empty_interval() {
        assert!(Filter::bounded(5, 4).is_err());
        assert!(Filter::bounded(5, 5).is_ok());
    }

    #[test]
    fn containment_and_violations() {
        let f = Filter::bounded(10, 20).unwrap();
        assert!(f.contains(10));
        assert!(f.contains(20));
        assert!(!f.contains(9));
        assert!(!f.contains(21));
        assert_eq!(f.check(15), None);
        assert_eq!(f.check(21), Some(Violation::FromBelow));
        assert_eq!(f.check(9), Some(Violation::FromAbove));

        let g = Filter::at_least(7);
        assert!(g.contains(Value::MAX));
        assert_eq!(g.check(6), Some(Violation::FromAbove));
        assert_eq!(g.check(7), None);

        let h = Filter::at_most(7);
        assert!(h.contains(0));
        assert_eq!(h.check(8), Some(Violation::FromBelow));
    }

    #[test]
    fn full_filter_never_violates() {
        assert_eq!(Filter::FULL.check(0), None);
        assert_eq!(Filter::FULL.check(Value::MAX), None);
        assert_eq!(Filter::default(), Filter::FULL);
    }

    #[test]
    fn empty_filter_violates_everything() {
        assert!(Filter::EMPTY.is_empty());
        assert!(!Filter::FULL.is_empty());
        assert!(!Filter::bounded(3, 3).unwrap().is_empty());
        assert!(!Filter::EMPTY.contains(0));
        assert!(!Filter::EMPTY.contains(Value::MAX));
        assert_eq!(Filter::EMPTY.check(0), Some(Violation::FromAbove));
        assert_eq!(Filter::EMPTY.check(1), Some(Violation::FromBelow));
        assert_eq!(Filter::EMPTY.check(Value::MAX), Some(Violation::FromBelow));
    }

    #[test]
    fn intersection_semantics() {
        let a = Filter::bounded(10, 30).unwrap();
        let b = Filter::bounded(20, 40).unwrap();
        assert_eq!(a.intersect(&b), Filter::bounded(20, 30).unwrap());
        assert_eq!(b.intersect(&a), Filter::bounded(20, 30).unwrap());
        assert_eq!(a.intersect(&Filter::FULL), a);
        assert_eq!(Filter::FULL.intersect(&Filter::FULL), Filter::FULL);
        assert_eq!(
            Filter::at_least(5).intersect(&Filter::at_most(7)),
            Filter::bounded(5, 7).unwrap()
        );
        // Disjoint bands collapse to the canonical empty filter.
        let lowband = Filter::at_most(10);
        let highband = Filter::at_least(20);
        assert_eq!(lowband.intersect(&highband), Filter::EMPTY);
        // Empty absorbs everything.
        assert_eq!(Filter::EMPTY.intersect(&Filter::FULL), Filter::EMPTY);
        assert_eq!(a.intersect(&Filter::EMPTY), Filter::EMPTY);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Filter::bounded(1, 2).unwrap().to_string(), "[1, 2]");
        assert_eq!(Filter::at_least(3).to_string(), "[3, ∞)");
        assert!(Violation::FromBelow.to_string().contains("below"));
        assert!(Violation::FromAbove.to_string().contains("above"));
    }

    #[test]
    fn compatibility_with_eps() {
        let eps = Epsilon::new(1, 10).unwrap();
        let upper = Filter::at_least(90);
        let lower = Filter::at_most(100);
        assert!(upper.compatible_above(&lower, eps));
        let upper_bad = Filter::at_least(89);
        assert!(!upper_bad.compatible_above(&lower, eps));
        // Unbounded outside filter is never compatible.
        assert!(!upper.compatible_above(&Filter::FULL, eps));
        // Exact compatibility.
        assert!(Filter::at_least(100).compatible_above_exact(&lower));
        assert!(!Filter::at_least(99).compatible_above_exact(&lower));
    }

    #[test]
    fn filter_set_value_containment() {
        let mut fs = FilterSet::full(3);
        fs.set(NodeId(1), Filter::bounded(5, 10).unwrap());
        assert!(fs.check_contains_values(&[0, 7, 100], TimeStep(0)).is_ok());
        let err = fs
            .check_contains_values(&[0, 11, 100], TimeStep(3))
            .unwrap_err();
        match err {
            ModelError::InvalidFilterSet { at, reason } => {
                assert_eq!(at, TimeStep(3));
                assert!(reason.contains("node#1"));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn filter_set_separation_eps() {
        let eps = Epsilon::HALF;
        let mut fs = FilterSet::full(4);
        // Nodes 0,1 inside with [50, ∞); nodes 2,3 outside with [0, 100].
        fs.set(NodeId(0), Filter::at_least(50));
        fs.set(NodeId(1), Filter::at_least(60));
        fs.set(NodeId(2), Filter::at_most(100));
        fs.set(NodeId(3), Filter::at_most(80));
        let output = [NodeId(0), NodeId(1)];
        assert!(fs.check_separation(&output, eps, TimeStep(0)).is_ok());
        // Exact separation fails (50 < 100).
        assert!(fs.check_separation_exact(&output, TimeStep(0)).is_err());
        // Tighten ε: for ε = 1/10 we would need ℓ ≥ 90 > 50.
        let tight = Epsilon::new(1, 10).unwrap();
        assert!(fs.check_separation(&output, tight, TimeStep(0)).is_err());
    }

    #[test]
    fn filter_set_separation_trivial_cases() {
        let eps = Epsilon::HALF;
        let fs = FilterSet::full(3);
        // Everything inside (or everything outside): no pair to compare.
        assert!(fs
            .check_separation(&[NodeId(0), NodeId(1), NodeId(2)], eps, TimeStep(0))
            .is_ok());
        assert!(fs.check_separation(&[], eps, TimeStep(0)).is_ok());
        assert!(FilterSet::full(0).is_empty());
    }

    #[test]
    fn filter_set_accessors() {
        let mut fs = FilterSet::from_vec(vec![Filter::FULL, Filter::at_least(3)]);
        assert_eq!(fs.len(), 2);
        assert_eq!(fs.get(NodeId(1)), Filter::at_least(3));
        fs.set(NodeId(0), Filter::at_most(9));
        let collected: Vec<_> = fs.iter().collect();
        assert_eq!(collected[0], (NodeId(0), Filter::at_most(9)));
        assert_eq!(collected[1], (NodeId(1), Filter::at_least(3)));
    }

    proptest! {
        #[test]
        fn check_agrees_with_contains(lo in 0u64..1000, len in 0u64..1000, v in 0u64..3000) {
            let f = Filter::bounded(lo, lo + len).unwrap();
            prop_assert_eq!(f.check(v).is_none(), f.contains(v));
        }

        #[test]
        fn violation_direction_is_consistent(lo in 0u64..1000, len in 0u64..1000, v in 0u64..3000) {
            let f = Filter::bounded(lo, lo + len).unwrap();
            match f.check(v) {
                Some(Violation::FromAbove) => prop_assert!(v < f.lo()),
                Some(Violation::FromBelow) => prop_assert!(v > f.hi().unwrap()),
                None => prop_assert!(f.contains(v)),
            }
        }

        /// The O(n) min/max separation check must agree with the quadratic
        /// pairwise definition of Observation 2.2.
        #[test]
        fn separation_check_matches_pairwise_definition(
            bounds in proptest::collection::vec((0u64..100, 0u64..100), 2..8),
            mask in proptest::collection::vec(proptest::bool::ANY, 2..8),
        ) {
            let n = bounds.len().min(mask.len());
            let filters: Vec<Filter> = bounds[..n]
                .iter()
                .map(|&(lo, len)| Filter::bounded(lo, lo + len).unwrap())
                .collect();
            let fs = FilterSet::from_vec(filters.clone());
            let output: Vec<NodeId> = (0..n).filter(|&i| mask[i]).map(NodeId).collect();
            let eps = Epsilon::new(1, 4).unwrap();
            let fast = fs.check_separation(&output, eps, TimeStep(0)).is_ok();
            let mut slow = true;
            for i in 0..n {
                for j in 0..n {
                    if mask[i] && !mask[j] {
                        slow &= filters[i].compatible_above(&filters[j], eps);
                    }
                }
            }
            prop_assert_eq!(fast, slow);
        }
    }
}
