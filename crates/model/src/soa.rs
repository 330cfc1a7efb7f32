//! Struct-of-arrays node-state layout.
//!
//! The baseline simulation engine stores one `SimNode` struct per node — an
//! array-of-structs layout that is convenient but cache-hostile: a silent time
//! step touches every node's value, filter, group, RNG and violation flag even
//! though it only needs the value/filter columns. [`NodeStateSoA`] stores each
//! logical field in its own contiguous array so that the hot paths (value
//! updates, violation checks, threshold scans) stream over exactly the columns
//! they need.
//!
//! The type lives in `topk-model` because it is pure data layout — the single
//! source of truth for "what state a node carries" that engines in `topk-net`
//! build indexes on top of. It has no randomness and no protocol logic; the
//! violation semantics are those of [`Filter::check_parts`] — the same
//! single definition behind [`Filter::check`] — computed by one branch-free
//! expression that a unit test pins to it, so the flags are identical to what
//! a `SimNode` computes.

use crate::filter::{Filter, Violation};
use crate::rule::{filter_for, FilterParams, NodeGroup};
use crate::types::{NodeId, Value};

/// Per-node simulation state in struct-of-arrays layout.
///
/// Columns, all of length `n`:
///
/// * `values` — the value each node observed most recently,
/// * `filter_lo` / `check_hi` / `unbounded` — the filter interval: its lower
///   bound, its upper bound with `∞` collapsed to [`Value::MAX`], and whether
///   that bound is `∞` (mirroring [`Filter`]'s structural infinity),
/// * `groups` — the group the server last assigned (as a flat code),
/// * `pending` — the violation the node is waiting to report, if any.
///
/// Invariant: `pending[i]` always equals `filter(i).check(value(i))`; every
/// mutator that touches a node's value or filter re-establishes it and returns
/// the new flag so callers can maintain derived indexes incrementally.
///
/// Equality compares the *logical* node state (values, filters, groups,
/// pending flags); the derived zone-map caches and the write count are
/// excluded because their exact contents depend on which mutation path
/// produced the state.
#[derive(Debug, Clone)]
pub struct NodeStateSoA {
    values: Vec<Value>,
    filter_lo: Vec<Value>,
    /// The filter's upper bound with `∞` collapsed to [`Value::MAX`].
    ///
    /// `Filter::check_parts(lo, Some(Value::MAX), v)` and
    /// `Filter::check_parts(lo, None, v)` are indistinguishable (no value
    /// exceeds `Value::MAX`), so the violation check runs on this flat `u64`
    /// column — one branchless compare per node instead of `Option`
    /// unpacking — without ever diverging from the `Filter` semantics.
    check_hi: Vec<Value>,
    /// Whether the upper bound is `∞`: the one bit of the exact filter
    /// (`at_least(x)` against `bounded(x, Value::MAX)`) that `check_hi`
    /// leaves out. Only [`NodeStateSoA::filter`] reads it.
    unbounded: Vec<bool>,
    /// Groups as flat codes (see [`group_code`]), so a broadcast derives
    /// its filters from a table of the eight groups instead of matching on
    /// a `NodeGroup` per node. The public API speaks `NodeGroup` throughout.
    groups: Vec<u8>,
    /// Pending violations as flat codes (see [`decode`]): `u8`
    /// arithmetic lets the bulk passes accumulate "any flag changed in this
    /// chunk?" with a branch-free XOR instead of matching on an `Option` per
    /// node. The public API speaks `Option<Violation>` throughout.
    pending: Vec<u8>,
    /// Per-chunk zone map over the filter columns (one entry per [`CHUNK`]
    /// nodes): the largest lower bound in the chunk. Together with
    /// `chunk_hi_min` it gives the dense path a conservative per-chunk test —
    /// if every new value of a chunk lies in
    /// `[chunk_lo_max, chunk_hi_min] ⊆ [lo_i, hi_i] ∀i` and no flag is
    /// currently set (`chunk_pending`), the chunk cannot transition and the
    /// filter/pending columns need not be read at all. On workloads in the
    /// paper's target regime (values inside calibrated bands) this cuts the
    /// per-step traffic to the row and value columns.
    chunk_lo_max: Vec<Value>,
    /// Zone map: the smallest (∞-collapsed) upper bound in the chunk.
    chunk_hi_min: Vec<Value>,
    /// Number of non-`None` pending flags per chunk (maintained on every code
    /// transition).
    chunk_pending: Vec<u32>,
    /// Chunks whose zone-map entries are stale (a filter changed); recomputed
    /// lazily by the next bulk pass that wants the fast path.
    ///
    /// Soundness of the lazy protocol (audited): the filter columns have two
    /// writers, and both mark chunks dirty unconditionally *before*
    /// returning. [`NodeStateSoA::set_filter`] (and `reset_node`, through
    /// the same helper) marks its node's chunk; [`NodeStateSoA::broadcast`]
    /// marks every chunk and rebuilds none. Every zone-map reader
    /// ([`NodeStateSoA::advance_row`]'s dense pass and
    /// [`NodeStateSoA::refresh_pending_bulk`]) rebuilds a dirty chunk before
    /// consulting `chunk_lo_max`/`chunk_hi_min`. A filter that widens in the
    /// same step as a value write therefore can never leave the skip test
    /// reading stale bounds: either the rebuild ran first (fresh bounds), or
    /// the entry is still the *pre-widening* one — which is tighter, so the
    /// test is conservative and falls through to the full per-node pass.
    /// `tests/zone_map_skip.rs` proves the property under random interleaved
    /// filter/value traffic by differencing against a skip-disabled twin
    /// (see [`NodeStateSoA::set_zone_map_enabled`]).
    chunk_dirty: Vec<bool>,
    /// Whether the bulk passes may use the zone-map skip (`true` in
    /// production; the differential proptest turns it off on a twin state to
    /// prove the skip never masks a transition).
    zone_map_enabled: bool,
    /// Number of mutator calls so far (see [`NodeStateSoA::writes`]). Every
    /// public mutator bumps it exactly once on entry, whether or not it
    /// changes anything.
    writes: u64,
}

impl PartialEq for NodeStateSoA {
    fn eq(&self, other: &Self) -> bool {
        self.values == other.values
            && self.filter_lo == other.filter_lo
            && self.check_hi == other.check_hi
            && self.unbounded == other.unbounded
            && self.groups == other.groups
            && self.pending == other.pending
    }
}

impl Eq for NodeStateSoA {}

/// The violation a pending code stands for: 0 none, 1 from below, 2 from
/// above (the codes [`code_of`] computes).
#[inline]
fn decode(code: u8) -> Option<Violation> {
    match code {
        0 => None,
        1 => Some(Violation::FromBelow),
        _ => Some(Violation::FromAbove),
    }
}

/// The violation code of value `v` under `[lo, hi]` (`hi` with `∞` already
/// collapsed to `Value::MAX`): branch-free, and [`decode`]s to
/// `Filter::check_parts(lo, …, v)` — a unit test pins the agreement.
#[inline]
fn code_of(lo: Value, hi: Value, v: Value) -> u8 {
    ((v > hi) as u8) | (((v < lo) as u8) << 1)
}

/// Every [`NodeGroup`], indexed by its [`group_code`].
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

/// Flat encoding of a [`NodeGroup`] for the group column: its index in
/// [`GROUPS`] (a unit test pins the round trip).
#[inline]
fn group_code(group: NodeGroup) -> u8 {
    match group {
        NodeGroup::Upper => 0,
        NodeGroup::Lower => 1,
        NodeGroup::V1 => 2,
        NodeGroup::V2 { s1, s2 } => 3 + u8::from(s1) + 2 * u8::from(s2),
        NodeGroup::V3 => 7,
    }
}

/// Chunk width of the bulk passes: wide enough that the branch-free inner
/// loop vectorises, narrow enough that a dirty chunk's scalar fixup stays
/// cheap.
const CHUNK: usize = 64;

/// Violation codes for one full chunk: `codes[k] = code_of(lo[k], hi[k],
/// vals[k])`, widened to `u64` lanes.
///
/// The fixed-width `[_; CHUNK]` signature plus same-width lanes is the
/// vectorisation contract: the trip count is a compile-time constant, every
/// lane is a branch-free compare-and-or, and keeping the codes in `u64`
/// avoids the 8:1 narrowing store that defeats LLVM's loop vectoriser. The
/// codegen is pinned by inspection: with AVX2 (`-C target-cpu=x86-64-v3`)
/// the loop compiles to 32 `vpcmpgtq` (sign-bias-XOR'd unsigned compares,
/// four lanes each — 64 lanes × 2 compares, no scalar fallback, no bounds
/// checks); the portable x86-64 baseline has no packed 64-bit compare and
/// gets fully unrolled branch-free scalar code instead. Callers carve full
/// chunks out of the columns with `try_into` and handle the ragged tail with
/// [`code_of`] directly; a unit test pins `band_codes` lane-for-lane equal
/// to `code_of`.
#[inline]
fn band_codes(
    lo: &[Value; CHUNK],
    hi: &[Value; CHUNK],
    vals: &[Value; CHUNK],
    codes: &mut [u64; CHUNK],
) {
    for k in 0..CHUNK {
        codes[k] = ((vals[k] > hi[k]) as u64) | (((vals[k] < lo[k]) as u64) << 1);
    }
}

/// OR-accumulated XOR of fresh codes against the stored pending column: zero
/// iff no flag in the chunk changed. Fixed-width like [`band_codes`] (the
/// `u8` pending lanes widen with `vpmovzxbq` under AVX2); the caller only
/// runs the scalar fix-up (store + transition record) when this is non-zero,
/// which on quiet chunks keeps the pending column write-free.
#[inline]
fn chunk_delta(codes: &[u64; CHUNK], pending: &[u8; CHUNK]) -> u64 {
    let mut delta = 0;
    for k in 0..CHUNK {
        delta |= codes[k] ^ (pending[k] as u64);
    }
    delta
}

impl NodeStateSoA {
    /// Creates the state of `n` fresh nodes: value 0, the all-embracing filter
    /// `[0, ∞)`, group `Lower`, no pending violation — exactly the initial state
    /// of a `SimNode`.
    pub fn new(n: usize) -> NodeStateSoA {
        let chunks = n.div_ceil(CHUNK);
        NodeStateSoA {
            values: vec![0; n],
            filter_lo: vec![Filter::FULL.lo(); n],
            check_hi: vec![Filter::FULL.hi_or_max(); n],
            unbounded: vec![Filter::FULL.hi().is_none(); n],
            groups: vec![group_code(NodeGroup::Lower); n],
            pending: vec![0; n],
            chunk_lo_max: vec![0; chunks],
            chunk_hi_min: vec![Value::MAX; chunks],
            chunk_pending: vec![0; chunks],
            chunk_dirty: vec![false; chunks],
            zone_map_enabled: true,
            writes: 0,
        }
    }

    /// A count that changes whenever any node's state may have changed: every
    /// single-node and bulk mutator advances it, so two equal readings bracket
    /// a stretch in which no value, filter, group or pending flag was written.
    ///
    /// Engines key caches of derived data on it (the active set of an
    /// existence run is reused while the count stands still). Because the
    /// mutators bump it themselves, no call site can forget to invalidate.
    #[inline]
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Enables or disables the zone-map skip in the bulk passes.
    ///
    /// With the skip disabled every chunk takes the full code-re-derivation
    /// pass, so the observable state trajectory must be *identical* — the
    /// zone map is purely an elision of provably-idempotent work. This knob
    /// exists so differential tests can pin that claim; production callers
    /// never touch it.
    pub fn set_zone_map_enabled(&mut self, enabled: bool) {
        self.zone_map_enabled = enabled;
    }

    /// Writes pending code `code` for node `i`, maintaining the per-chunk
    /// count of set flags. Every code mutation funnels through here.
    #[inline]
    fn store_code(&mut self, i: usize, code: u8) {
        let old = self.pending[i];
        if old == code {
            return;
        }
        let c = i / CHUNK;
        if old == 0 {
            self.chunk_pending[c] += 1;
        } else if code == 0 {
            self.chunk_pending[c] -= 1;
        }
        self.pending[i] = code;
    }

    /// Recomputes the zone-map entry of chunk `c` from the filter columns.
    fn rebuild_chunk(&mut self, c: usize) {
        let base = c * CHUNK;
        let end = (base + CHUNK).min(self.len());
        let mut lo_max = 0;
        let mut hi_min = Value::MAX;
        for i in base..end {
            lo_max = lo_max.max(self.filter_lo[i]);
            hi_min = hi_min.min(self.check_hi[i]);
        }
        self.chunk_lo_max[c] = lo_max;
        self.chunk_hi_min[c] = hi_min;
        self.chunk_dirty[c] = false;
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the state holds zero nodes.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The value column as a slice (index = node id).
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// The value node `i` observed most recently.
    #[inline]
    pub fn value(&self, i: usize) -> Value {
        self.values[i]
    }

    /// The filter of node `i`, reassembled from its columns without a
    /// branch on the flag: peeks read every node's filter, and a mix of
    /// bounded and unbounded filters would mispredict it.
    #[inline]
    pub fn filter(&self, i: usize) -> Filter {
        let hi = (!self.unbounded[i]).then_some(self.check_hi[i]);
        Filter::from_parts(self.filter_lo[i], hi)
    }

    /// The group of node `i`.
    #[inline]
    pub fn group(&self, i: usize) -> NodeGroup {
        GROUPS[usize::from(self.groups[i])]
    }

    /// The violation node `i` is waiting to report, if any.
    #[inline]
    pub fn pending(&self, i: usize) -> Option<Violation> {
        decode(self.pending[i])
    }

    /// Records a new observation for node `i` and returns the updated pending
    /// flag (the [`Filter::check`] of the new value against the current filter).
    #[inline]
    pub fn set_value(&mut self, i: usize, v: Value) -> Option<Violation> {
        self.writes += 1;
        self.values[i] = v;
        self.refresh_code(i)
    }

    /// Replaces the filter of node `i` and returns the updated pending flag.
    #[inline]
    pub fn set_filter(&mut self, i: usize, filter: Filter) -> Option<Violation> {
        self.writes += 1;
        self.write_filter(i, filter);
        self.refresh_code(i)
    }

    /// Writes the filter columns of node `i` and marks its chunk's zone-map
    /// entry dirty; the caller re-derives the pending flag.
    #[inline]
    fn write_filter(&mut self, i: usize, filter: Filter) {
        self.filter_lo[i] = filter.lo();
        self.check_hi[i] = filter.hi_or_max();
        self.unbounded[i] = filter.hi().is_none();
        self.chunk_dirty[i / CHUNK] = true;
    }

    /// Replaces the group of node `i`. The caller decides whether a new filter
    /// follows (groups alone never change violation status).
    #[inline]
    pub fn set_group(&mut self, i: usize, group: NodeGroup) {
        self.writes += 1;
        self.groups[i] = group_code(group);
    }

    /// Re-evaluates the pending-violation flag of node `i` from its current
    /// value and filter, stores it and returns it.
    #[inline]
    pub fn refresh_pending(&mut self, i: usize) -> Option<Violation> {
        self.writes += 1;
        self.refresh_code(i)
    }

    /// [`NodeStateSoA::refresh_pending`] without the write count, for the
    /// mutators that already counted themselves.
    #[inline]
    fn refresh_code(&mut self, i: usize) -> Option<Violation> {
        let code = code_of(self.filter_lo[i], self.check_hi[i], self.values[i]);
        self.store_code(i, code);
        decode(code)
    }

    /// Resets slot `i` to the fresh-node state of [`NodeStateSoA::new`]:
    /// value 0, the all-embracing filter, group `Lower`, no pending violation.
    ///
    /// This is the state a joining node starts from after a membership
    /// [`crate::membership::MembershipEvent::Join`] — the server then brings it
    /// up to date through the ordinary assignment paths.
    pub fn reset_node(&mut self, i: usize) {
        self.writes += 1;
        self.values[i] = 0;
        self.write_filter(i, Filter::FULL);
        self.refresh_code(i);
        self.groups[i] = group_code(NodeGroup::Lower);
    }

    /// Iterates over `(node, filter)` pairs (for bulk inspection APIs).
    pub fn filters(&self) -> impl Iterator<Item = (NodeId, Filter)> + '_ {
        (0..self.len()).map(|i| (NodeId(i), self.filter(i)))
    }

    /// Bulk observation delivery: replaces the whole value column with `row`,
    /// re-establishes the pending invariant for every node, records the indices
    /// whose pending flag *changed* into `transitions` (cleared first) and
    /// returns the number of nodes whose value changed.
    ///
    /// Semantically identical to calling [`NodeStateSoA::set_value`] per node —
    /// re-evaluating an unchanged node's pending flag is a no-op because the
    /// invariant already held — but implemented as one zipped pass over the
    /// `values`/`filter_lo`/`check_hi`/`pending` columns so the compiler can
    /// elide bounds checks and keep the comparisons branch-free. This is the
    /// per-step hot loop of the sharded engine.
    ///
    /// `expect_dense` selects between two loop bodies with identical results
    /// but opposite branch economics, because no single loop wins on every
    /// change pattern:
    ///
    /// * `true` — *dense-biased*: unconditionally store the value and
    ///   re-derive the flag (branch-free selects). Best when most nodes change
    ///   (a skip branch would be unpredictable or always taken).
    /// * `false` — *quiet-biased*: skip unchanged nodes with an early
    ///   `continue`. Best on quiet streams — the paper's target regime — where
    ///   the branch predicts never-taken and the filter/pending columns are
    ///   never touched.
    ///
    /// Callers that deliver a row per step feed the previous step's change
    /// count back into the hint (see the sharded engine); the change count is
    /// returned for exactly that purpose.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != self.len()` or the state holds more than
    /// `u32::MAX` nodes (transitions are recorded as `u32` indices).
    pub fn advance_row(
        &mut self,
        row: &[Value],
        transitions: &mut Vec<u32>,
        expect_dense: bool,
    ) -> usize {
        assert_eq!(row.len(), self.len(), "one observation per node required");
        assert!(
            self.len() <= u32::MAX as usize,
            "node count exceeds u32 index range"
        );
        self.writes += 1;
        transitions.clear();
        let mut changed = 0usize;
        if expect_dense {
            // Chunked pass. Phase 1 scans only the chunk's slice of the *row*
            // for its min/max (512 bytes — the slice stays L1-resident for
            // whatever runs next). If the zone map proves the chunk cannot
            // transition (no flag set, every new value inside the chunk-wide
            // band), phase 2 is a bare copy-and-count over row and values —
            // the filter and pending columns are never touched. Otherwise
            // phase 2 is one full pass re-deriving each code, with a
            // rarely-taken store branch (the invariant already held for
            // unchanged nodes). Either way each chunk pays one pass over the
            // cold columns, so the zone map can only help.
            let n = self.values.len();
            let mut base = 0;
            while base < n {
                let c = base / CHUNK;
                let end = (base + CHUNK).min(n);
                if self.zone_map_enabled && self.chunk_dirty[c] {
                    self.rebuild_chunk(c);
                }
                let mut mn = Value::MAX;
                let mut mx = 0;
                for &new in &row[base..end] {
                    mn = mn.min(new);
                    mx = mx.max(new);
                }
                let cannot_transition = self.zone_map_enabled
                    && self.chunk_pending[c] == 0
                    && mn >= self.chunk_lo_max[c]
                    && mx <= self.chunk_hi_min[c];
                let mut chunk_changed = 0u64;
                if cannot_transition {
                    for (v, &new) in self.values[base..end].iter_mut().zip(&row[base..end]) {
                        chunk_changed += (*v != new) as u64;
                        *v = new;
                    }
                } else if end - base == CHUNK {
                    // Full chunk: three fixed-width kernels (value copy +
                    // change count, band codes, change detection), each of
                    // which vectorises; the scalar fix-up below only runs
                    // when some flag in the chunk actually flipped.
                    let row_chunk: &[Value; CHUNK] = row[base..end].try_into().expect("full chunk");
                    {
                        let vals: &mut [Value; CHUNK] = (&mut self.values[base..end])
                            .try_into()
                            .expect("full chunk");
                        for k in 0..CHUNK {
                            chunk_changed += (vals[k] != row_chunk[k]) as u64;
                            vals[k] = row_chunk[k];
                        }
                    }
                    let mut codes = [0u64; CHUNK];
                    band_codes(
                        self.filter_lo[base..end].try_into().expect("full chunk"),
                        self.check_hi[base..end].try_into().expect("full chunk"),
                        row_chunk,
                        &mut codes,
                    );
                    let delta = chunk_delta(
                        &codes,
                        self.pending[base..end].try_into().expect("full chunk"),
                    );
                    if delta != 0 {
                        for (off, &code) in codes.iter().enumerate() {
                            let i = base + off;
                            if code as u8 != self.pending[i] {
                                self.store_code(i, code as u8);
                                transitions.push(i as u32);
                            }
                        }
                    }
                } else {
                    for (off, &new) in row[base..end].iter().enumerate() {
                        let i = base + off;
                        chunk_changed += (self.values[i] != new) as u64;
                        self.values[i] = new;
                        let code = code_of(self.filter_lo[i], self.check_hi[i], new);
                        if code != self.pending[i] {
                            self.store_code(i, code);
                            transitions.push(i as u32);
                        }
                    }
                }
                changed += chunk_changed as usize;
                base = end;
            }
        } else {
            for (i, &new) in row.iter().enumerate() {
                if self.values[i] == new {
                    continue;
                }
                changed += 1;
                self.values[i] = new;
                let code = code_of(self.filter_lo[i], self.check_hi[i], new);
                if code != self.pending[i] {
                    self.store_code(i, code);
                    transitions.push(i as u32);
                }
            }
        }
        changed
    }

    /// Value-only write that *defers* the pending-invariant update: the caller
    /// must call [`NodeStateSoA::refresh_pending_bulk`] before anything reads
    /// a pending flag. Exists for bulk sparse application, where re-checking
    /// per write would touch the filter columns once per change instead of
    /// once per node.
    #[inline]
    pub fn set_value_deferred(&mut self, i: usize, v: Value) {
        self.writes += 1;
        self.values[i] = v;
    }

    /// Re-establishes the pending invariant for *every* node in one zipped
    /// pass over the `values`/`filter_lo`/`check_hi`/`pending` columns,
    /// recording the indices whose flag changed into `transitions` (cleared
    /// first). Companion of [`NodeStateSoA::set_value_deferred`].
    ///
    /// # Panics
    ///
    /// Panics if the state holds more than `u32::MAX` nodes.
    pub fn refresh_pending_bulk(&mut self, transitions: &mut Vec<u32>) {
        assert!(
            self.len() <= u32::MAX as usize,
            "node count exceeds u32 index range"
        );
        self.writes += 1;
        transitions.clear();
        let n = self.values.len();
        let mut base = 0;
        while base < n {
            let c = base / CHUNK;
            let end = (base + CHUNK).min(n);
            if self.zone_map_enabled && self.chunk_dirty[c] {
                self.rebuild_chunk(c);
            }
            // Same zone-map fast path as the dense advance: a chunk with no
            // flag set whose values all sit inside the chunk-wide band cannot
            // have transitioned, and only the value column is read.
            if self.zone_map_enabled && self.chunk_pending[c] == 0 {
                let mut mn = Value::MAX;
                let mut mx = 0;
                for &v in &self.values[base..end] {
                    mn = mn.min(v);
                    mx = mx.max(v);
                }
                if mn >= self.chunk_lo_max[c] && mx <= self.chunk_hi_min[c] {
                    base = end;
                    continue;
                }
            }
            // The values were already written by `set_value_deferred`, so
            // only the code re-derivation and change detection remain.
            self.rederive_codes(base, end, transitions);
            base = end;
        }
    }

    /// Re-derives the pending codes of nodes `base..end` (one chunk, or the
    /// ragged tail) from the value and filter columns, storing each code that
    /// changed and recording its node in `transitions`. A full chunk runs the
    /// fixed-width kernels of the dense advance; their scalar fix-up runs only
    /// when some flag in the chunk actually flipped.
    fn rederive_codes(&mut self, base: usize, end: usize, transitions: &mut Vec<u32>) {
        if end - base == CHUNK {
            let mut codes = [0u64; CHUNK];
            band_codes(
                self.filter_lo[base..end].try_into().expect("full chunk"),
                self.check_hi[base..end].try_into().expect("full chunk"),
                self.values[base..end].try_into().expect("full chunk"),
                &mut codes,
            );
            let delta = chunk_delta(
                &codes,
                self.pending[base..end].try_into().expect("full chunk"),
            );
            if delta != 0 {
                for (off, &code) in codes.iter().enumerate() {
                    let i = base + off;
                    if code as u8 != self.pending[i] {
                        self.store_code(i, code as u8);
                        transitions.push(i as u32);
                    }
                }
            }
        } else {
            for i in base..end {
                let code = code_of(self.filter_lo[i], self.check_hi[i], self.values[i]);
                if code != self.pending[i] {
                    self.store_code(i, code);
                    transitions.push(i as u32);
                }
            }
        }
    }

    /// A whole broadcast in one pass over the columns: every node takes
    /// `group`, if one is given, and then, if `params` are given, the filter
    /// that [`filter_for`] derives from its group and `params`. Records the
    /// nodes whose pending flag changed into `transitions` (cleared first),
    /// in ascending order.
    ///
    /// Semantically identical to calling [`NodeStateSoA::set_group`] and
    /// [`NodeStateSoA::set_filter`] per node. `broadcast(None, Some(p), _)` is
    /// a parameter broadcast; `broadcast(Some(g), last, _)` is a group
    /// broadcast under the last broadcast parameters `last`, and without any
    /// (`last = None`) it writes only the group column, because a group alone
    /// never changes a filter or a flag.
    ///
    /// A group broadcast fills the filter columns with its one filter. There
    /// are eight groups, so a parameter broadcast takes each node's filter
    /// from a table of eight entries indexed by its group code, chunk by
    /// chunk. Each chunk's flags are then re-derived with the same
    /// fixed-width kernels as [`NodeStateSoA::refresh_pending_bulk`]. Every
    /// chunk's zone-map entry is marked dirty, as [`NodeStateSoA::set_filter`]
    /// marks its node's, and the next bulk pass that wants it rebuilds it.
    ///
    /// # Panics
    ///
    /// Panics if the state holds more than `u32::MAX` nodes.
    pub fn broadcast(
        &mut self,
        group: Option<NodeGroup>,
        params: Option<FilterParams>,
        transitions: &mut Vec<u32>,
    ) {
        assert!(
            self.len() <= u32::MAX as usize,
            "node count exceeds u32 index range"
        );
        self.writes += 1;
        transitions.clear();
        if let Some(group) = group {
            self.groups.fill(group_code(group));
        }
        let Some(params) = params else {
            return;
        };
        self.chunk_dirty.fill(true);
        // A group broadcast gives every node one filter, so its columns are
        // fills; a parameter broadcast looks each node's up by group code.
        let table = match group {
            Some(group) => {
                let filter = filter_for(group, &params);
                self.filter_lo.fill(filter.lo());
                self.check_hi.fill(filter.hi_or_max());
                self.unbounded.fill(filter.hi().is_none());
                None
            }
            None => {
                let filters = GROUPS.map(|g| filter_for(g, &params));
                Some((
                    filters.map(|f| f.lo()),
                    filters.map(|f| f.hi_or_max()),
                    filters.map(|f| f.hi().is_none()),
                ))
            }
        };
        let n = self.len();
        let mut base = 0;
        while base < n {
            let end = (base + CHUNK).min(n);
            if let Some((lo, check_hi, unbounded)) = &table {
                let columns = self.groups[base..end]
                    .iter()
                    .zip(&mut self.filter_lo[base..end])
                    .zip(&mut self.check_hi[base..end])
                    .zip(&mut self.unbounded[base..end]);
                for (((&code, lo_i), check_i), unbounded_i) in columns {
                    // Codes are below 8: the mask only spares the bounds check.
                    let g = usize::from(code & 7);
                    *lo_i = lo[g];
                    *check_i = check_hi[g];
                    *unbounded_i = unbounded[g];
                }
            }
            self.rederive_codes(base, end, transitions);
            base = end;
        }
    }

    /// Like [`NodeStateSoA::advance_row`] with `expect_dense = false`, but
    /// additionally records the indices whose *value* changed into
    /// `changed_ids` (cleared first). Engines that maintain a per-observation
    /// incremental index over the value column (see `topk-net`'s radix value
    /// index) use this to learn exactly which entries moved without a second
    /// diff pass; the state trajectory is identical to `advance_row`.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != self.len()` or the state holds more than
    /// `u32::MAX` nodes.
    pub fn advance_row_tracked(
        &mut self,
        row: &[Value],
        transitions: &mut Vec<u32>,
        changed_ids: &mut Vec<u32>,
    ) -> usize {
        assert_eq!(row.len(), self.len(), "one observation per node required");
        assert!(
            self.len() <= u32::MAX as usize,
            "node count exceeds u32 index range"
        );
        self.writes += 1;
        transitions.clear();
        changed_ids.clear();
        for (i, &new) in row.iter().enumerate() {
            if self.values[i] == new {
                continue;
            }
            changed_ids.push(i as u32);
            self.values[i] = new;
            let code = code_of(self.filter_lo[i], self.check_hi[i], new);
            if code != self.pending[i] {
                self.store_code(i, code);
                transitions.push(i as u32);
            }
        }
        changed_ids.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_state_matches_sim_node_defaults() {
        let s = NodeStateSoA::new(3);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        for i in 0..3 {
            assert_eq!(s.value(i), 0);
            assert_eq!(s.filter(i), Filter::FULL);
            assert_eq!(s.group(i), NodeGroup::Lower);
            assert_eq!(s.pending(i), None);
        }
        assert!(NodeStateSoA::new(0).is_empty());
    }

    #[test]
    fn pending_invariant_maintained_by_mutators() {
        let mut s = NodeStateSoA::new(2);
        assert_eq!(s.set_value(0, 50), None); // FULL filter: no violation
        assert_eq!(
            s.set_filter(0, Filter::bounded(10, 40).unwrap()),
            Some(Violation::FromBelow)
        );
        assert_eq!(s.pending(0), Some(Violation::FromBelow));
        assert_eq!(s.set_value(0, 5), Some(Violation::FromAbove));
        assert_eq!(s.set_value(0, 20), None);
        // The flag always equals filter.check(value).
        for v in [0, 10, 25, 40, 41] {
            assert_eq!(s.set_value(0, v), s.filter(0).check(v));
        }
    }

    #[test]
    fn reset_node_restores_fresh_state() {
        let mut s = NodeStateSoA::new(2);
        s.set_value(1, 99);
        s.set_filter(1, Filter::bounded(10, 40).unwrap());
        s.set_group(1, NodeGroup::Upper);
        assert_eq!(s.pending(1), Some(Violation::FromBelow));
        s.reset_node(1);
        assert_eq!(s.value(1), 0);
        assert_eq!(s.filter(1), Filter::FULL);
        assert_eq!(s.group(1), NodeGroup::Lower);
        assert_eq!(s.pending(1), None);
        // The untouched slot is unaffected and the whole state equals fresh.
        assert_eq!(s, NodeStateSoA::new(2));
    }

    #[test]
    fn every_mutator_advances_the_write_count() {
        let mut s = NodeStateSoA::new(3);
        let mut scratch = (Vec::new(), Vec::new());
        type Mutator = fn(&mut NodeStateSoA, &mut (Vec<u32>, Vec<u32>));
        let mutators: [(&str, Mutator); 10] = [
            ("set_value", |s, _| {
                s.set_value(0, 5);
            }),
            ("set_filter", |s, _| {
                s.set_filter(1, Filter::at_most(3));
            }),
            ("set_group", |s, _| s.set_group(2, NodeGroup::Upper)),
            ("refresh_pending", |s, _| {
                s.refresh_pending(0);
            }),
            ("reset_node", |s, _| s.reset_node(1)),
            ("advance_row", |s, (t, _)| {
                s.advance_row(&[1, 2, 3], t, true);
            }),
            ("set_value_deferred", |s, _| s.set_value_deferred(2, 9)),
            ("refresh_pending_bulk", |s, (t, _)| {
                s.refresh_pending_bulk(t)
            }),
            ("advance_row_tracked", |s, (t, c)| {
                s.advance_row_tracked(&[4, 5, 6], t, c);
            }),
            ("broadcast", |s, (t, _)| {
                s.broadcast(Some(NodeGroup::V1), None, t);
            }),
        ];
        for (name, mutate) in mutators {
            // Even a call that changes nothing counts: the count promises
            // only that equal readings saw no write.
            for _ in 0..2 {
                let before = s.writes();
                mutate(&mut s, &mut scratch);
                assert_ne!(s.writes(), before, "{name} did not count its write");
            }
        }
        let before = s.writes();
        let _ = (
            s.value(0),
            s.filter(0),
            s.group(0),
            s.pending(0),
            s.values(),
        );
        s.set_zone_map_enabled(false);
        assert_eq!(
            s.writes(),
            before,
            "reads and the zone-map knob are not writes"
        );
    }

    #[test]
    fn group_codes_round_trip() {
        for (code, &group) in GROUPS.iter().enumerate() {
            assert_eq!(usize::from(group_code(group)), code, "{group:?}");
        }
        let mut s = NodeStateSoA::new(1);
        for group in GROUPS {
            s.set_group(0, group);
            assert_eq!(s.group(0), group);
        }
    }

    #[test]
    fn broadcast_matches_per_node_writes() {
        // Two full chunks plus a ragged tail, every group, every parameter
        // family, both broadcast kinds: the state and the reported flag
        // changes equal per-node `set_group`/`set_filter`.
        let n = CHUNK * 2 + 9;
        let mut seed = 0xb0ad_ca57u64;
        let mut bulk = NodeStateSoA::new(n);
        let mut scalar = NodeStateSoA::new(n);
        for i in 0..n {
            let v = lcg(&mut seed) % 100;
            let g = GROUPS[(lcg(&mut seed) % 8) as usize];
            for s in [&mut bulk, &mut scalar] {
                s.set_value(i, v);
                s.set_group(i, g);
            }
        }
        let params = [
            FilterParams::Separator { lo: 40, hi: 60 },
            FilterParams::Dense {
                l_r: 30,
                u_r: 50,
                z_lo: 20,
                z_hi: 70,
            },
            FilterParams::SubDense {
                l_r: 30,
                l_rp: 45,
                u_rp: 40,
                z_lo: 20,
                z_hi: 70,
            },
        ];
        let mut last = None;
        let mut transitions = Vec::new();
        for round in 0..12 {
            let p = params[round % 3];
            let group = (round % 2 == 1).then(|| GROUPS[round % 8]);
            let applied = if group.is_some() { last } else { Some(p) };
            let mut expected = Vec::new();
            for i in 0..n {
                let before = scalar.pending(i);
                if let Some(g) = group {
                    scalar.set_group(i, g);
                }
                if let Some(p) = applied {
                    scalar.set_filter(i, filter_for(scalar.group(i), &p));
                }
                if scalar.pending(i) != before {
                    expected.push(i as u32);
                }
            }
            bulk.broadcast(group, applied, &mut transitions);
            assert_eq!(bulk, scalar, "round {round}");
            assert_eq!(transitions, expected, "round {round}");
            if group.is_none() {
                last = Some(p);
            }
        }
    }

    #[test]
    fn filter_roundtrips_through_columns() {
        let mut s = NodeStateSoA::new(1);
        for f in [
            Filter::FULL,
            Filter::at_least(7),
            Filter::at_most(9),
            Filter::bounded(3, 3).unwrap(),
            Filter::bounded(0, Value::MAX).unwrap(),
        ] {
            s.set_filter(0, f);
            assert_eq!(s.filter(0), f);
        }
    }

    #[test]
    fn advance_row_matches_per_node_set_value() {
        let filters = [
            Filter::FULL,
            Filter::bounded(10, 40).unwrap(),
            Filter::at_least(25),
            Filter::at_most(30),
            Filter::bounded(0, Value::MAX).unwrap(),
        ];
        let rows: [&[Value]; 4] = [
            &[0, 50, 20, 31, 7],
            &[0, 50, 30, 31, 7], // only one change
            &[99, 9, 24, 0, Value::MAX],
            &[99, 9, 24, 0, Value::MAX], // no change at all
        ];
        // Both loop variants must be indistinguishable from per-node writes.
        for expect_dense in [false, true] {
            let mut bulk = NodeStateSoA::new(5);
            let mut scalar = NodeStateSoA::new(5);
            for (i, f) in filters.iter().enumerate() {
                bulk.set_filter(i, *f);
                scalar.set_filter(i, *f);
            }
            let mut transitions = Vec::new();
            for row in rows {
                let before: Vec<_> = (0..5).map(|i| scalar.pending(i)).collect();
                let changed_scalar = (0..5).filter(|&i| scalar.value(i) != row[i]).count();
                for (i, &v) in row.iter().enumerate() {
                    scalar.set_value(i, v);
                }
                let changed_bulk = bulk.advance_row(row, &mut transitions, expect_dense);
                assert_eq!(bulk, scalar);
                assert_eq!(changed_bulk, changed_scalar);
                let expected: Vec<u32> = (0..5u32)
                    .filter(|&i| before[i as usize] != scalar.pending(i as usize))
                    .collect();
                assert_eq!(transitions, expected);
            }
        }
    }

    #[test]
    fn code_of_agrees_with_check_parts() {
        for lo in [0u64, 5, 10] {
            for hi in [10u64, 50, Value::MAX] {
                for v in [0u64, 4, 5, 9, 10, 11, 49, 50, 51, Value::MAX] {
                    let via_filter = Filter::check_parts(lo, Some(hi), v);
                    assert_eq!(
                        decode(code_of(lo, hi, v)),
                        via_filter,
                        "lo={lo} hi={hi} v={v}"
                    );
                }
                // hi = MAX must behave like the unbounded filter.
                assert_eq!(
                    decode(code_of(lo, Value::MAX, Value::MAX)),
                    Filter::check_parts(lo, None, Value::MAX)
                );
            }
        }
    }

    #[test]
    fn advance_row_treats_bounded_max_like_infinity() {
        // The check_hi column collapses ∞ to Value::MAX; the violation
        // semantics must be identical, while the exact filter is preserved.
        let mut s = NodeStateSoA::new(2);
        s.set_filter(0, Filter::at_least(10));
        s.set_filter(1, Filter::bounded(10, Value::MAX).unwrap());
        let mut transitions = Vec::new();
        s.advance_row(&[Value::MAX, Value::MAX], &mut transitions, true);
        assert_eq!(s.pending(0), None);
        assert_eq!(s.pending(1), None);
        s.advance_row(&[9, 9], &mut transitions, false);
        assert_eq!(s.pending(0), Some(Violation::FromAbove));
        assert_eq!(s.pending(1), Some(Violation::FromAbove));
        assert_eq!(transitions, vec![0, 1]);
        assert_eq!(s.filter(0), Filter::at_least(10));
        assert_eq!(s.filter(1), Filter::bounded(10, Value::MAX).unwrap());
    }

    #[test]
    #[should_panic(expected = "one observation per node")]
    fn advance_row_rejects_wrong_length() {
        let mut s = NodeStateSoA::new(3);
        s.advance_row(&[1, 2], &mut Vec::new(), true);
    }

    #[test]
    fn deferred_values_plus_bulk_refresh_equals_per_node_application() {
        let mut bulk = NodeStateSoA::new(4);
        let mut scalar = NodeStateSoA::new(4);
        for s in [&mut bulk, &mut scalar] {
            s.set_filter(0, Filter::bounded(10, 40).unwrap());
            s.set_filter(1, Filter::at_least(5));
            s.set_value(2, 7);
        }
        // Node 0 transitions twice in the change list; the bulk path nets it out.
        let changes = [(0usize, 99u64), (0, 20), (1, 3), (3, 1)];
        for &(i, v) in &changes {
            bulk.set_value_deferred(i, v);
            scalar.set_value(i, v);
        }
        let mut transitions = Vec::new();
        bulk.refresh_pending_bulk(&mut transitions);
        assert_eq!(bulk, scalar);
        // Both 0 and 1 started pending (value 0 under lower bounds ≥ 5). Node
        // 0 ends in-range — one net transition despite changing flags twice in
        // the list; node 1 stays pending; node 3 stays clear (FULL filter).
        assert_eq!(transitions, vec![0]);
        assert_eq!(bulk.pending(0), None);
        assert_eq!(bulk.pending(1), Some(Violation::FromAbove));
    }

    #[test]
    fn band_codes_agrees_with_code_of_per_lane() {
        let mut seed = 0xabcdu64;
        let mut lo = [0u64; CHUNK];
        let mut hi = [0u64; CHUNK];
        let mut vals = [0u64; CHUNK];
        for k in 0..CHUNK {
            lo[k] = lcg(&mut seed) % 64;
            hi[k] = lo[k] + lcg(&mut seed) % 64;
            // Cover below / inside / above and the extremes.
            vals[k] = match k % 5 {
                0 => 0,
                1 => lo[k].saturating_sub(1),
                2 => (lo[k] + hi[k]) / 2,
                3 => hi[k] + 1,
                _ => Value::MAX,
            };
        }
        let mut codes = [0u64; CHUNK];
        band_codes(&lo, &hi, &vals, &mut codes);
        for k in 0..CHUNK {
            assert_eq!(codes[k], code_of(lo[k], hi[k], vals[k]) as u64, "lane {k}");
        }
        // chunk_delta is zero exactly when the pending column already matches.
        let pending: [u8; CHUNK] = core::array::from_fn(|k| codes[k] as u8);
        assert_eq!(chunk_delta(&codes, &pending), 0);
        let mut off_by_one = pending;
        off_by_one[17] ^= 1;
        assert_ne!(chunk_delta(&codes, &off_by_one), 0);
    }

    /// Tiny deterministic LCG so the kernel tests cover pseudo-random traffic
    /// without pulling a RNG crate into `topk-model`'s dev-deps.
    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state >> 16
    }

    #[test]
    fn full_chunk_kernel_matches_per_node_set_value() {
        // Spans two full chunks plus a ragged tail so both the fixed-width
        // kernel and the scalar tail run; compared against per-node writes
        // across dense, quiet and tracked variants.
        let n = CHUNK * 2 + 7;
        let mut seed = 0x5eed_1234u64;
        let mut bulk_dense = NodeStateSoA::new(n);
        let mut bulk_quiet = NodeStateSoA::new(n);
        let mut bulk_tracked = NodeStateSoA::new(n);
        let mut scalar = NodeStateSoA::new(n);
        for i in 0..n {
            let lo = lcg(&mut seed) % 100;
            let f = match lcg(&mut seed) % 3 {
                0 => Filter::FULL,
                1 => Filter::at_least(lo),
                _ => Filter::bounded(lo, lo + lcg(&mut seed) % 50).unwrap(),
            };
            for s in [
                &mut bulk_dense,
                &mut bulk_quiet,
                &mut bulk_tracked,
                &mut scalar,
            ] {
                s.set_filter(i, f);
            }
        }
        let mut transitions = Vec::new();
        let mut tracked_transitions = Vec::new();
        let mut changed_ids = Vec::new();
        for step in 0..6 {
            let row: Vec<Value> = (0..n)
                .map(|i| {
                    if lcg(&mut seed) % 4 == 0 {
                        lcg(&mut seed) % 160
                    } else {
                        scalar.value(i) // unchanged
                    }
                })
                .collect();
            let mut expect_changed_ids = Vec::new();
            let mut expect_transitions = Vec::new();
            for (i, &v) in row.iter().enumerate() {
                if scalar.value(i) != v {
                    expect_changed_ids.push(i as u32);
                }
                let before = scalar.pending(i);
                if scalar.set_value(i, v) != before {
                    expect_transitions.push(i as u32);
                }
            }
            let cd = bulk_dense.advance_row(&row, &mut transitions, true);
            assert_eq!(bulk_dense, scalar, "dense step {step}");
            assert_eq!(cd, expect_changed_ids.len());
            assert_eq!(transitions, expect_transitions);
            let cq = bulk_quiet.advance_row(&row, &mut transitions, false);
            assert_eq!(bulk_quiet, scalar, "quiet step {step}");
            assert_eq!(cq, expect_changed_ids.len());
            assert_eq!(transitions, expect_transitions);
            let ct =
                bulk_tracked.advance_row_tracked(&row, &mut tracked_transitions, &mut changed_ids);
            assert_eq!(bulk_tracked, scalar, "tracked step {step}");
            assert_eq!(ct, expect_changed_ids.len());
            assert_eq!(changed_ids, expect_changed_ids);
            assert_eq!(tracked_transitions, expect_transitions);
        }
    }

    #[test]
    fn zone_map_disable_preserves_trajectory() {
        let n = CHUNK + 3;
        let mut on = NodeStateSoA::new(n);
        let mut off = NodeStateSoA::new(n);
        off.set_zone_map_enabled(false);
        for i in 0..n {
            let f = Filter::bounded(10, 40).unwrap();
            on.set_filter(i, f);
            off.set_filter(i, f);
        }
        let mut ta = Vec::new();
        let mut tb = Vec::new();
        let rows: Vec<Vec<Value>> = vec![
            vec![20; n],                                  // all in band: skippable
            (0..n as u64).map(|i| 10 + i % 31).collect(), // still in band
            (0..n as u64)
                .map(|i| if i == 5 { 99 } else { 20 })
                .collect(), // one violation
        ];
        for row in &rows {
            let ca = on.advance_row(row, &mut ta, true);
            let cb = off.advance_row(row, &mut tb, true);
            assert_eq!(on, off);
            assert_eq!(ca, cb);
            assert_eq!(ta, tb);
        }
        // Deferred path as well.
        for s in [&mut on, &mut off] {
            s.set_value_deferred(7, 39);
            s.set_value_deferred(5, 7);
        }
        on.refresh_pending_bulk(&mut ta);
        off.refresh_pending_bulk(&mut tb);
        assert_eq!(on, off);
        assert_eq!(ta, tb);
    }

    #[test]
    fn bulk_accessors() {
        let mut s = NodeStateSoA::new(3);
        s.set_value(1, 42);
        s.set_group(2, NodeGroup::Upper);
        assert_eq!(s.values(), &[0, 42, 0]);
        let filters: Vec<_> = s.filters().collect();
        assert_eq!(filters.len(), 3);
        assert_eq!(filters[0], (NodeId(0), Filter::FULL));
        assert_eq!(s.group(2), NodeGroup::Upper);
    }
}
