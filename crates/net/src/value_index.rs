//! Incrementally maintained radix-bucket index over the value column.
//!
//! [`ValueIndex`] replaces the lazily *re-sorted* `(value, id)` vector that
//! the indexed and sharded engines originally used for threshold/rank
//! predicates. The sorted vector had a sharp cost cliff: a single changed
//! observation invalidated it, and the next threshold round paid a full
//! `O(n log n)` sort. The radix index keeps ids in ~16 K *buckets* keyed by a
//! monotone `(exponent, mantissa)` compression of the value domain, so
//!
//! * an observation moves one id between two buckets — `O(1)` per update
//!   (one `swap_remove`, one push, two bitmap bits), no sorting ever;
//! * a threshold query walks an occupancy bitmap and concatenates whole
//!   buckets, touching only the two *boundary* buckets element-wise;
//! * a rank window open on one side that leaves few ids outside (Lemma
//!   2.6's search below the nodes found so far) walks only the buckets of
//!   that complement and appends the rest of the id range, in id order.
//!
//! ## Why bucket order is enough
//!
//! Buckets only ever feed existence rounds, and those consume the active set
//! as a *set*: each active node flips its own independent RNG
//! (`node::Coin`), and the engines sort replies by sender
//! afterwards (per shard for the sharded engine). The paper's `(value, id)`
//! total order matters solely for *membership* in a rank window — which the
//! boundary-bucket filter decides exactly, via the same
//! [`value_order`] used by the sort-based reference — never for iteration
//! order. `tests/indexed_differential.rs` and `tests/engines_agree.rs` pin
//! bit-identical replies and message counts against the baseline engine.
//!
//! ## Warm/cold adaptivity
//!
//! The index is **cold** until the first threshold/rank query *warms* it with
//! one `O(n)` build ([`ValueIndex::ensure_warm`]). While cold, updates are
//! free no-ops — a workload that never issues threshold rounds (the
//! throughput harness's violation-detection loop, for instance) pays one
//! branch per observation and allocates nothing. While warm, updates are
//! maintained incrementally. Bulk mutation paths that cannot attribute
//! changes per node (dense rows in the dense regime, deferred sparse
//! batches) drop the index back to cold with [`ValueIndex::invalidate`] —
//! an `O(1)` flag — and the next query rebuilds, reusing every bucket's
//! capacity.

use std::cmp::Ordering;
use topk_model::types::{value_order, NodeId, Value};

/// Number of radix buckets: key 0 for value 0, then 256 mantissa slices for
/// each of the 64 possible exponents (position of the leading one bit).
const BUCKETS: usize = 1 + 64 * 256;

/// Words in the occupancy bitmap.
const OCC_WORDS: usize = BUCKETS.div_ceil(64);

/// Maps a value to its radix bucket key.
///
/// The key is `(exponent, top-8-mantissa-bits)` packed into `1 + e·256 + m`:
/// `e` is the position of the leading one bit and `m` the eight bits after
/// it (zero-padded for small values). Both components are monotone
/// non-decreasing in `v`, so **`v₁ < v₂ ⇒ bucket_of(v₁) ≤ bucket_of(v₂)`** —
/// equivalently, every value in a lower bucket is strictly smaller than
/// every value in a higher bucket. That single property is what lets range
/// queries take whole interior buckets unfiltered and inspect only the
/// boundary buckets element-wise. A unit test pins monotonicity across
/// exponent boundaries and the extremes.
#[inline]
fn bucket_of(v: Value) -> usize {
    if v == 0 {
        return 0;
    }
    let e = 63 - v.leading_zeros() as usize;
    let m = if e >= 8 {
        (v >> (e - 8)) & 0xff
    } else {
        (v << (8 - e)) & 0xff
    };
    1 + e * 256 + m as usize
}

/// Radix-bucket index over a (shard-local) value column. See the module
/// documentation for the design; all ids are local (`u32`), and `offset` —
/// the global id of local id 0 — re-globalises them for the paper's
/// `(value, id)` tie-break in rank-window queries.
#[derive(Debug, Clone)]
pub struct ValueIndex {
    /// Global id of local id 0 (0 for unsharded engines).
    offset: usize,
    /// Bucket contents (local ids, arbitrary order), for keys up to the
    /// highest one seen so far: grown by warm-ups and updates, never shrunk,
    /// so cold indexes cost nothing but the struct itself and small values
    /// never pay for the headers of keys they do not reach. A key past the
    /// end is an empty bucket.
    buckets: Vec<Vec<u32>>,
    /// Per id: its current bucket key. Valid only while warm.
    key_of: Vec<u16>,
    /// Per id: its position inside its bucket. Valid only while warm.
    slot_of: Vec<u32>,
    /// Occupancy bitmap over bucket keys (bit set ⇔ bucket non-empty), so
    /// queries skip empty buckets in 64-key strides.
    occ: Vec<u64>,
    warm: bool,
}

impl ValueIndex {
    /// Creates a cold index for `n` local ids whose global ids start at
    /// `offset`.
    pub fn new(offset: usize, n: usize) -> ValueIndex {
        ValueIndex {
            offset,
            buckets: Vec::new(),
            key_of: vec![0; n],
            slot_of: vec![0; n],
            occ: vec![0; OCC_WORDS],
            warm: false,
        }
    }

    /// Whether the index is currently maintained (warm). Cold indexes must be
    /// warmed with [`ValueIndex::ensure_warm`] before querying.
    #[inline]
    pub fn is_warm(&self) -> bool {
        self.warm
    }

    /// Drops the index to cold: `O(1)`, bucket storage (and capacity) is
    /// retained for the next warm-up. Bulk mutation paths that cannot
    /// attribute changes to individual ids call this instead of updating.
    #[inline]
    pub fn invalidate(&mut self) {
        self.warm = false;
    }

    /// Warms the index from the value column if it is cold; returns whether a
    /// rebuild actually ran (the engines count these to prove a protocol
    /// round never rebuilds twice).
    pub fn ensure_warm(&mut self, values: &[Value]) -> bool {
        if self.warm {
            return false;
        }
        assert_eq!(values.len(), self.key_of.len(), "one value per id required");
        // Clear exactly the buckets the previous warm period used, keeping
        // their capacity, then make room up to the largest value's key.
        for w in 0..OCC_WORDS {
            let mut word = self.occ[w];
            while word != 0 {
                let b = word.trailing_zeros() as usize;
                self.buckets[w * 64 + b].clear();
                word &= word - 1;
            }
        }
        self.occ.fill(0);
        if let Some(&top) = values.iter().max() {
            self.grow_to(bucket_of(top));
        }
        for (i, &v) in values.iter().enumerate() {
            let k = bucket_of(v);
            self.key_of[i] = k as u16;
            self.slot_of[i] = self.buckets[k].len() as u32;
            self.buckets[k].push(i as u32);
            self.occ[k / 64] |= 1 << (k % 64);
        }
        self.warm = true;
        true
    }

    /// Records that local id `id` now holds `new_value`: moves it between
    /// buckets in `O(1)`. No-op while cold (cold indexes reconcile wholesale
    /// on the next warm-up).
    #[inline]
    pub fn note_update(&mut self, id: u32, new_value: Value) {
        if !self.warm {
            return;
        }
        let k_new = bucket_of(new_value);
        let k_old = self.key_of[id as usize] as usize;
        if k_old == k_new {
            return;
        }
        // Remove from the old bucket by swap, fixing the moved entry's slot.
        let s = self.slot_of[id as usize] as usize;
        let bucket = &mut self.buckets[k_old];
        bucket.swap_remove(s);
        if let Some(&moved) = bucket.get(s) {
            self.slot_of[moved as usize] = s as u32;
        }
        if bucket.is_empty() {
            self.occ[k_old / 64] &= !(1 << (k_old % 64));
        }
        // Insert into the new bucket.
        self.grow_to(k_new);
        self.key_of[id as usize] = k_new as u16;
        self.slot_of[id as usize] = self.buckets[k_new].len() as u32;
        self.buckets[k_new].push(id);
        self.occ[k_new / 64] |= 1 << (k_new % 64);
    }

    /// Makes room for bucket key `k`.
    #[inline]
    fn grow_to(&mut self, k: usize) {
        if k >= self.buckets.len() {
            self.buckets.resize_with(k + 1, Vec::new);
        }
    }

    /// The ids in bucket `k`: none for a key past the end of the table.
    #[inline]
    fn bucket(&self, k: usize) -> &[u32] {
        self.buckets.get(k).map_or(&[], Vec::as_slice)
    }

    /// Calls `f(k)` for every occupied bucket key in `lo..=hi`, in ascending
    /// key order, via the occupancy bitmap.
    #[inline]
    fn for_each_occupied_in(&self, lo: usize, hi: usize, mut f: impl FnMut(usize)) {
        self.try_for_each_occupied_in(lo, hi, |k| {
            f(k);
            true
        });
    }

    /// [`ValueIndex::for_each_occupied_in`] that stops at the first key for
    /// which `f` returns `false`; returns whether it visited them all. The
    /// walk ends at the last key the table holds, since no bucket past it
    /// is occupied.
    #[inline]
    fn try_for_each_occupied_in(
        &self,
        lo: usize,
        hi: usize,
        mut f: impl FnMut(usize) -> bool,
    ) -> bool {
        let Some(last) = self.buckets.len().checked_sub(1) else {
            return true;
        };
        let hi = hi.min(last);
        if lo > hi {
            return true;
        }
        let (w_lo, w_hi) = (lo / 64, hi / 64);
        for w in w_lo..=w_hi {
            let mut word = self.occ[w];
            if w == w_lo {
                word &= !0u64 << (lo % 64);
            }
            if w == w_hi && hi % 64 != 63 {
                word &= (1u64 << (hi % 64 + 1)) - 1;
            }
            while word != 0 {
                let b = word.trailing_zeros() as usize;
                if !f(w * 64 + b) {
                    return false;
                }
                word &= word - 1;
            }
        }
        true
    }

    /// Appends the local ids of all values `> t` to `out`.
    ///
    /// `values` must be the column the index was warmed/updated against; the
    /// boundary bucket (the one `t` itself maps to) is filtered per id, every
    /// higher bucket is appended wholesale (its values are all `> t` by
    /// bucket monotonicity).
    ///
    /// # Panics
    ///
    /// Panics (debug) if the index is cold.
    pub fn collect_greater_than(&self, t: Value, values: &[Value], out: &mut Vec<u32>) {
        debug_assert!(self.warm, "query on a cold index");
        let kt = bucket_of(t);
        for &id in self.bucket(kt) {
            if values[id as usize] > t {
                out.push(id);
            }
        }
        self.for_each_occupied_in(kt + 1, BUCKETS - 1, |k| {
            out.extend_from_slice(&self.buckets[k]);
        });
    }

    /// Appends the local ids of all values `>= t` to `out` (see
    /// [`ValueIndex::collect_greater_than`]).
    pub fn collect_at_least(&self, t: Value, values: &[Value], out: &mut Vec<u32>) {
        debug_assert!(self.warm, "query on a cold index");
        let kt = bucket_of(t);
        for &id in self.bucket(kt) {
            if values[id as usize] >= t {
                out.push(id);
            }
        }
        self.for_each_occupied_in(kt + 1, BUCKETS - 1, |k| {
            out.extend_from_slice(&self.buckets[k]);
        });
    }

    /// Appends the local ids of all values `< t` to `out` (see
    /// [`ValueIndex::collect_greater_than`]).
    pub fn collect_less_than(&self, t: Value, values: &[Value], out: &mut Vec<u32>) {
        debug_assert!(self.warm, "query on a cold index");
        let kt = bucket_of(t);
        if kt > 0 {
            self.for_each_occupied_in(0, kt - 1, |k| {
                out.extend_from_slice(&self.buckets[k]);
            });
        }
        for &id in self.bucket(kt) {
            if values[id as usize] < t {
                out.push(id);
            }
        }
    }

    /// Appends the local ids strictly between `above` and `below` in the
    /// paper's `(value, id)` total order ([`value_order`], global ids). A
    /// `None` bound is unbounded on that side; an inverted window selects
    /// nothing. Interior buckets are appended wholesale; the (at most two)
    /// boundary buckets are filtered with the exact `value_order` predicate,
    /// which also resolves equal-value id tie-breaks.
    ///
    /// A window open on at least one side often holds nearly everyone:
    /// Lemma 2.6's search opens each top-`m` step with `(None, upper)`,
    /// whose complement is the few nodes found so far. When at most 32 ids
    /// lie outside such a window, they are found by walking the buckets
    /// beyond its bound, and the rest of the id range is appended in
    /// ascending order. The ids are the same either way; only their order
    /// differs, and the engines use them as a set.
    pub fn collect_rank_window(
        &self,
        above: Option<(Value, NodeId)>,
        below: Option<(Value, NodeId)>,
        values: &[Value],
        out: &mut Vec<u32>,
    ) {
        debug_assert!(self.warm, "query on a cold index");
        if self.collect_by_complement(above, below, values, out) {
            return;
        }
        let k_lo = above.map_or(0, |(v, _)| bucket_of(v));
        let k_hi = below.map_or(BUCKETS - 1, |(v, _)| bucket_of(v));
        self.for_each_occupied_in(k_lo, k_hi, |k| {
            if k == k_lo || k == k_hi {
                for &id in &self.buckets[k] {
                    if self.in_window(id, above, below, values) {
                        out.push(id);
                    }
                }
            } else {
                out.extend_from_slice(&self.buckets[k]);
            }
        });
    }

    /// Whether local id `id` ranks strictly between `above` and `below`.
    #[inline]
    fn in_window(
        &self,
        id: u32,
        above: Option<(Value, NodeId)>,
        below: Option<(Value, NodeId)>,
        values: &[Value],
    ) -> bool {
        let key = (values[id as usize], NodeId(self.offset + id as usize));
        above.map_or(true, |b| value_order(key, b) == Ordering::Greater)
            && below.map_or(true, |b| value_order(key, b) == Ordering::Less)
    }

    /// Collects a window bounded on one side at most by its complement: the
    /// ids at or beyond its one bound. It walks the buckets on that side of
    /// the bound, filtering the boundary bucket exactly, and gives up as
    /// soon as more than [`COMPLEMENT_CAP`] ids lie outside, having written
    /// nothing; a window narrower than that pays at most a few bucket
    /// visits. Otherwise it appends every local id except those, in
    /// ascending order, and returns `true`. An unbounded window has an empty
    /// complement and takes the whole id range; a window bounded on both
    /// sides returns `false` at once.
    fn collect_by_complement(
        &self,
        above: Option<(Value, NodeId)>,
        below: Option<(Value, NodeId)>,
        values: &[Value],
        out: &mut Vec<u32>,
    ) -> bool {
        let keys = match (above, below) {
            (Some(_), Some(_)) => return false,
            (None, None) => None,
            (Some((v, _)), None) => Some((0, bucket_of(v))),
            (None, Some((v, _))) => Some((bucket_of(v), BUCKETS - 1)),
        };
        let mut outside = [0u32; COMPLEMENT_CAP];
        let mut count = 0;
        if let Some((lo, hi)) = keys {
            let boundary = if above.is_some() { hi } else { lo };
            let fits = self.try_for_each_occupied_in(lo, hi, |k| {
                let bucket = &self.buckets[k];
                if k != boundary {
                    let Some(slots) = outside.get_mut(count..count + bucket.len()) else {
                        return false;
                    };
                    slots.copy_from_slice(bucket);
                    count += bucket.len();
                    return true;
                }
                for &id in bucket {
                    if !self.in_window(id, above, below, values) {
                        let Some(slot) = outside.get_mut(count) else {
                            return false;
                        };
                        *slot = id;
                        count += 1;
                    }
                }
                true
            });
            if !fits {
                return false;
            }
        }
        let outside = &mut outside[..count];
        outside.sort_unstable();
        let mut next = 0;
        for &id in outside.iter() {
            out.extend(next..id);
            next = id + 1;
        }
        out.extend(next..self.key_of.len() as u32);
        true
    }
}

/// The most ids a one-sided rank window may leave outside and still be
/// collected by its complement ([`ValueIndex::collect_rank_window`]). Lemma
/// 2.6's `(None, upper)` window leaves out the `m ≤ k + 1` nodes found so
/// far, so this covers every `k` below 32; a larger complement falls back to
/// the bucket walk, which gives the same ids.
const COMPLEMENT_CAP: usize = 32;

#[cfg(test)]
mod tests {
    use super::*;

    /// Sort-based reference: the engines' original `(value, id)` index.
    fn sorted_reference(offset: usize, values: &[Value]) -> Vec<(Value, u32)> {
        let mut v: Vec<(Value, u32)> = values.iter().copied().zip(0..).collect();
        v.sort_unstable_by(|&(va, ia), &(vb, ib)| {
            value_order(
                (va, NodeId(offset + ia as usize)),
                (vb, NodeId(offset + ib as usize)),
            )
        });
        v
    }

    fn sorted_ids(mut ids: Vec<u32>) -> Vec<u32> {
        ids.sort_unstable();
        ids
    }

    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state >> 16
    }

    /// Mix of magnitudes so bucket boundaries at several exponents are hit.
    fn random_value(state: &mut u64) -> Value {
        match lcg(state) % 5 {
            0 => lcg(state) % 8,
            1 => lcg(state) % 300,
            2 => lcg(state) % 100_000,
            3 => lcg(state),
            _ => Value::MAX - lcg(state) % 3,
        }
    }

    #[test]
    fn bucket_of_is_monotone_and_bounded() {
        let mut prev = bucket_of(0);
        assert_eq!(prev, 0);
        // Exhaustive over the small domain, spot checks across exponents.
        for v in 1..=4096u64 {
            let k = bucket_of(v);
            assert!(k >= prev, "bucket_of not monotone at {v}");
            assert!(k < BUCKETS);
            prev = k;
        }
        for e in 0..64 {
            let lo = 1u64 << e;
            let hi = lo | (lo - 1);
            assert!(bucket_of(lo) <= bucket_of(hi));
            assert!(bucket_of(hi) < BUCKETS);
            if e > 0 {
                assert!(bucket_of(lo - 1) <= bucket_of(lo));
            }
        }
        assert_eq!(bucket_of(Value::MAX), BUCKETS - 1);
    }

    #[test]
    fn queries_match_sorted_reference() {
        for offset in [0usize, 1000] {
            let mut seed = 0xfeed ^ offset as u64;
            let n = 300;
            let values: Vec<Value> = (0..n).map(|_| random_value(&mut seed)).collect();
            let mut idx = ValueIndex::new(offset, n);
            assert!(idx.ensure_warm(&values));
            assert!(!idx.ensure_warm(&values), "second warm-up must be free");
            let reference = sorted_reference(offset, &values);
            let mut out = Vec::new();
            for _ in 0..50 {
                let t = match lcg(&mut seed) % 4 {
                    0 => values[(lcg(&mut seed) % n as u64) as usize], // exact hit
                    _ => random_value(&mut seed),
                };
                out.clear();
                idx.collect_greater_than(t, &values, &mut out);
                let want: Vec<u32> = reference
                    .iter()
                    .filter(|&&(v, _)| v > t)
                    .map(|&(_, i)| i)
                    .collect();
                assert_eq!(sorted_ids(out.clone()), sorted_ids(want), "gt {t}");
                out.clear();
                idx.collect_at_least(t, &values, &mut out);
                let want: Vec<u32> = reference
                    .iter()
                    .filter(|&&(v, _)| v >= t)
                    .map(|&(_, i)| i)
                    .collect();
                assert_eq!(sorted_ids(out.clone()), sorted_ids(want), "ge {t}");
                out.clear();
                idx.collect_less_than(t, &values, &mut out);
                let want: Vec<u32> = reference
                    .iter()
                    .filter(|&&(v, _)| v < t)
                    .map(|&(_, i)| i)
                    .collect();
                assert_eq!(sorted_ids(out.clone()), sorted_ids(want), "lt {t}");
            }
        }
    }

    #[test]
    fn rank_window_matches_sorted_reference_including_ties() {
        let offset = 64;
        let mut seed = 0xace5u64;
        let n = 200;
        // Heavy duplication so id tie-breaks matter.
        let values: Vec<Value> = (0..n).map(|_| lcg(&mut seed) % 16).collect();
        let mut idx = ValueIndex::new(offset, n);
        idx.ensure_warm(&values);
        let reference = sorted_reference(offset, &values);
        let bound = |state: &mut u64| -> Option<(Value, NodeId)> {
            match lcg(state) % 3 {
                0 => None,
                _ => {
                    let i = (lcg(state) % n as u64) as usize;
                    Some((values[i], NodeId(offset + i)))
                }
            }
        };
        let mut out = Vec::new();
        for _ in 0..100 {
            let above = bound(&mut seed);
            let below = bound(&mut seed);
            out.clear();
            idx.collect_rank_window(above, below, &values, &mut out);
            let want: Vec<u32> = reference
                .iter()
                .filter(|&&(v, i)| {
                    let key = (v, NodeId(offset + i as usize));
                    above.map_or(true, |b| value_order(key, b) == std::cmp::Ordering::Greater)
                        && below.map_or(true, |b| value_order(key, b) == std::cmp::Ordering::Less)
                })
                .map(|&(_, i)| i)
                .collect();
            assert_eq!(
                sorted_ids(out.clone()),
                sorted_ids(want),
                "window {above:?}..{below:?}"
            );
        }
    }

    #[test]
    fn open_windows_match_the_sorted_reference() {
        // Bottom-open, top-open and unbounded windows, with heavy ties and a
        // global offset. A window that leaves at most `COMPLEMENT_CAP` ids
        // outside is collected through its complement, in ascending id
        // order; every other comes from the bucket walk. Both must select
        // exactly the reference's ids, once each.
        for offset in [0usize, 1000] {
            let mut seed = 0xbe11 ^ offset as u64;
            let n = 300;
            let values: Vec<Value> = (0..n)
                .map(|i| match i % 3 {
                    0 => lcg(&mut seed) % 12,
                    _ => random_value(&mut seed),
                })
                .collect();
            let mut idx = ValueIndex::new(offset, n);
            idx.ensure_warm(&values);
            let reference = sorted_reference(offset, &values);
            let key = |r: usize| {
                let (v, i) = reference[r];
                (v, NodeId(offset + i as usize))
            };
            // Ranks near both ends (small complements), in the middle, and
            // ties: the reference puts equal values in id order.
            let ranks = [
                0,
                1,
                5,
                30,
                31,
                32,
                33,
                40,
                150,
                n - 34,
                n - 33,
                n - 2,
                n - 1,
            ];
            let mut out = Vec::new();
            for r in ranks {
                for (above, below) in [(None, Some(key(r))), (Some(key(r)), None), (None, None)] {
                    out.clear();
                    idx.collect_rank_window(above, below, &values, &mut out);
                    let inside = |&&(v, i): &&(Value, u32)| {
                        let me = (v, NodeId(offset + i as usize));
                        above.map_or(true, |b| value_order(me, b) == Ordering::Greater)
                            && below.map_or(true, |b| value_order(me, b) == Ordering::Less)
                    };
                    let want: Vec<u32> = reference.iter().filter(inside).map(|&(_, i)| i).collect();
                    let what = format!("offset {offset}, window {above:?}..{below:?}");
                    assert_eq!(out.len(), want.len(), "{what}: an id twice or missing");
                    assert_eq!(sorted_ids(out.clone()), sorted_ids(want.clone()), "{what}");
                    if n - want.len() <= COMPLEMENT_CAP {
                        assert!(
                            out.windows(2).all(|w| w[0] < w[1]),
                            "{what}: a complement collection comes out in id order"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn incremental_updates_equal_fresh_rebuild() {
        let mut seed = 0xbeefu64;
        let n = 150;
        let mut values: Vec<Value> = (0..n).map(|_| random_value(&mut seed)).collect();
        let mut incremental = ValueIndex::new(0, n);
        incremental.ensure_warm(&values);
        for round in 0..20 {
            // Mutate a random subset, telling the warm index per id.
            for _ in 0..(lcg(&mut seed) % 20) {
                let i = (lcg(&mut seed) % n as u64) as usize;
                values[i] = random_value(&mut seed);
                incremental.note_update(i as u32, values[i]);
            }
            let mut fresh = ValueIndex::new(0, n);
            fresh.ensure_warm(&values);
            let mut a = Vec::new();
            let mut b = Vec::new();
            let t = random_value(&mut seed);
            incremental.collect_greater_than(t, &values, &mut a);
            fresh.collect_greater_than(t, &values, &mut b);
            assert_eq!(
                sorted_ids(a.clone()),
                sorted_ids(b.clone()),
                "round {round}"
            );
            a.clear();
            b.clear();
            incremental.collect_less_than(t, &values, &mut a);
            fresh.collect_less_than(t, &values, &mut b);
            assert_eq!(sorted_ids(a), sorted_ids(b), "round {round}");
        }
    }

    #[test]
    fn buckets_grow_only_to_the_largest_key_seen() {
        let mut seed = 0x5eedu64;
        let n = 200;
        let mut values: Vec<Value> = (0..n).map(|_| lcg(&mut seed) % 1024).collect();
        let mut idx = ValueIndex::new(0, n);
        idx.ensure_warm(&values);
        // Values below 2¹⁰ reach exponent 9 at most: no header past key
        // 1 + 9·256 + 255.
        assert!(
            idx.buckets.len() <= 1 + 10 * 256 + 256,
            "{} bucket headers",
            idx.buckets.len()
        );
        // A threshold past the table: its boundary bucket reads as empty.
        for t in [1 << 40, Value::MAX] {
            let mut out = Vec::new();
            idx.collect_less_than(t, &values, &mut out);
            assert_eq!(out.len(), n, "lt {t}");
            out.clear();
            idx.collect_at_least(t, &values, &mut out);
            assert!(out.is_empty(), "ge {t}");
        }
        // Magnitudes jump past the table in mid-run; thresholds and window
        // bounds land past it too.
        for round in 0..60 {
            for _ in 0..4 {
                let i = (lcg(&mut seed) % n as u64) as usize;
                values[i] = random_value(&mut seed);
                idx.note_update(i as u32, values[i]);
            }
            let reference = sorted_reference(0, &values);
            let select = |keep: &dyn Fn(Value, u32) -> bool| -> Vec<u32> {
                let ids = reference.iter().filter(|&&(v, i)| keep(v, i));
                sorted_ids(ids.map(|&(_, i)| i).collect())
            };
            let t = match round % 3 {
                0 => random_value(&mut seed),
                1 => values[(lcg(&mut seed) % n as u64) as usize],
                _ => Value::MAX,
            };
            let mut out = Vec::new();
            idx.collect_greater_than(t, &values, &mut out);
            assert_eq!(sorted_ids(out.clone()), select(&|v, _| v > t), "gt {t}");
            out.clear();
            idx.collect_at_least(t, &values, &mut out);
            assert_eq!(sorted_ids(out.clone()), select(&|v, _| v >= t), "ge {t}");
            out.clear();
            idx.collect_less_than(t, &values, &mut out);
            assert_eq!(sorted_ids(out.clone()), select(&|v, _| v < t), "lt {t}");
            out.clear();
            let above = Some((t / 2, NodeId(round)));
            let below = Some((t, NodeId(n - round)));
            idx.collect_rank_window(above, below, &values, &mut out);
            let inside = |v: Value, i: u32| {
                let key = (v, NodeId(i as usize));
                above.map_or(true, |b| value_order(key, b) == std::cmp::Ordering::Greater)
                    && below.map_or(true, |b| value_order(key, b) == std::cmp::Ordering::Less)
            };
            assert_eq!(sorted_ids(out), select(&inside), "window ({t})");
        }
        let fresh = {
            let mut fresh = ValueIndex::new(0, n);
            fresh.ensure_warm(&values);
            fresh
        };
        let top = bucket_of(*values.iter().max().expect("values"));
        assert_eq!(
            fresh.buckets.len(),
            top + 1,
            "a warm-up sizes to its top key"
        );
    }

    #[test]
    fn invalidate_then_rewarm_reconciles_bulk_changes() {
        let mut seed = 0x77u64;
        let n = 120;
        let mut values: Vec<Value> = (0..n).map(|_| random_value(&mut seed)).collect();
        let mut idx = ValueIndex::new(0, n);
        idx.ensure_warm(&values);
        // Bulk change without per-id notes: must invalidate.
        for v in values.iter_mut() {
            *v = random_value(&mut seed);
        }
        idx.invalidate();
        assert!(!idx.is_warm());
        // Cold updates are no-ops and must not corrupt the next warm-up.
        idx.note_update(3, 12345);
        assert!(idx.ensure_warm(&values));
        let mut fresh = ValueIndex::new(0, n);
        fresh.ensure_warm(&values);
        let mut a = Vec::new();
        let mut b = Vec::new();
        idx.collect_at_least(values[0], &values, &mut a);
        fresh.collect_at_least(values[0], &values, &mut b);
        assert_eq!(sorted_ids(a), sorted_ids(b));
    }
}
