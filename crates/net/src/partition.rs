//! Contiguous shard partitioning, shared by the sharded and remote engines.
//!
//! Both engines split the node population into `W` contiguous id ranges with
//! the same arithmetic; keeping the boundary builder and the owner lookup in
//! one place keeps the two partitioning schemes incapable of drifting apart.

/// Shard boundaries for `n` nodes over `workers` shards: shard `s` owns
/// global ids `bounds[s]..bounds[s + 1]` with `bounds[s] = ⌊s·n/W⌋` (ranges
/// differ in size by at most one; some are empty when `workers > n`).
pub(crate) fn shard_bounds(n: usize, workers: usize) -> Vec<usize> {
    (0..=workers).map(|s| s * n / workers).collect()
}

/// The shard owning `node`, in O(1): `⌈(node+1)·W/n⌉ - 1`.
///
/// Proof that the result `s` satisfies `bounds[s] ≤ node < bounds[s+1]`:
/// `s·n ≤ (node+1)·W - 1` gives `⌊s·n/W⌋ ≤ node`, and
/// `(s+1)·n ≥ (node+1)·W` gives `node < ⌊(s+1)·n/W⌋`. The unit test below
/// checks the closed form against the boundary array exhaustively.
///
/// # Panics
///
/// Panics (in debug builds) if `node >= n`; callers assert range with their
/// own message first.
pub(crate) fn shard_of(n: usize, workers: usize, node: usize) -> usize {
    debug_assert!(node < n, "node {node} out of range (n = {n})");
    ((node + 1) * workers - 1) / n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_form_owner_matches_the_boundaries() {
        for n in 1..60 {
            for workers in 1..16 {
                let bounds = shard_bounds(n, workers);
                assert_eq!(bounds.len(), workers + 1);
                assert_eq!(bounds[0], 0);
                assert_eq!(bounds[workers], n);
                for node in 0..n {
                    let s = shard_of(n, workers, node);
                    assert!(
                        bounds[s] <= node && node < bounds[s + 1],
                        "n={n} workers={workers}: node {node} routed to shard {s} [{}, {})",
                        bounds[s],
                        bounds[s + 1]
                    );
                }
            }
        }
    }
}
