//! Summary statistics of a measured window.

/// Samples a percentile must leave beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `p`-th percentile (`p` in percent) of ascending `sorted`, or
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond it. So p99 needs
/// at least 1000 samples and p50 at least 20.
pub fn percentile(sorted: &[u64], p: usize) -> Option<u64> {
    assert!((1..100).contains(&p), "percentile {p} is not in 1..100");
    let rank = (p * sorted.len()).div_ceil(100);
    if rank == 0 || sorted.len() - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// The busy times of the steps in the fastest `1 / share` of the window's
/// full blocks of `block_ns`, at least one block; `None` when the window
/// holds no full block. A step belongs to the block its end time falls in,
/// `ends_ns` counting from the window's start; a block's speed is its steps
/// ÷ its busy time.
///
/// The host's speed drifts by a third over seconds to minutes, and the
/// drift only ever slows a block down; the fastest blocks show what the
/// program does when the host lets it run.
pub fn fastest_blocks(
    ends_ns: &[u64],
    busy_ns: &[u64],
    block_ns: u64,
    share: usize,
) -> Option<Vec<u64>> {
    assert_eq!(ends_ns.len(), busy_ns.len(), "one end time per step");
    let full = (ends_ns.last()? / block_ns) as usize;
    let mut blocks = vec![Vec::new(); full];
    for (&end, &busy) in ends_ns.iter().zip(busy_ns) {
        if let Some(block) = blocks.get_mut((end / block_ns) as usize) {
            block.push(busy);
        }
    }
    blocks.retain(|b| !b.is_empty());
    let speed = |b: &Vec<u64>| b.len() as f64 / b.iter().sum::<u64>().max(1) as f64;
    blocks.sort_by(|a, b| speed(b).total_cmp(&speed(a)));
    let keep = (blocks.len() / share).max(1);
    let pooled: Vec<u64> = blocks.iter().take(keep).flatten().copied().collect();
    (!pooled.is_empty()).then_some(pooled)
}

/// Steps per second of `busy_ns`: their count ÷ their total busy time.
pub fn rate(busy_ns: &[u64]) -> f64 {
    busy_ns.len() as f64 / (busy_ns.iter().sum::<u64>().max(1) as f64 * 1e-9)
}

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    values.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_is_refused_below_1000_samples() {
        let samples: Vec<u64> = (1..=999).collect();
        assert_eq!(percentile(&samples, 99), None);
        let samples: Vec<u64> = (1..=1000).collect();
        // Rank 990: samples 991..=1000 lie beyond it, exactly ten.
        assert_eq!(percentile(&samples, 99), Some(990));
    }

    #[test]
    fn percentile_keeps_ten_samples_beyond() {
        assert_eq!(percentile(&(1..=19).collect::<Vec<_>>(), 50), None);
        assert_eq!(percentile(&(1..=20).collect::<Vec<_>>(), 50), Some(10));
        assert_eq!(percentile(&(1..=21).collect::<Vec<_>>(), 50), Some(11));
        let samples: Vec<u64> = (1..=5000).collect();
        assert_eq!(percentile(&samples, 99), Some(4950));
        assert_eq!(percentile(&samples, 90), Some(4500));
        assert_eq!(percentile(&[], 50), None);
    }

    #[test]
    fn fastest_blocks_pools_the_fastest_tenth() {
        // Twenty 1-second blocks of ten steps; block b's steps take
        // (b + 1) ms each, except block 7's, which take 0.5 ms.
        let mut ends = Vec::new();
        let mut busy = Vec::new();
        for b in 0..20u64 {
            for i in 0..10 {
                ends.push(b * 1_000_000_000 + i * 1_000_000);
                busy.push(if b == 7 { 500_000 } else { (b + 1) * 1_000_000 });
            }
        }
        // A step in the unfinished block 20 is not counted.
        ends.push(20_000_000_001);
        busy.push(1);
        let fast = fastest_blocks(&ends, &busy, 1_000_000_000, 10).unwrap();
        // Two of twenty blocks: block 7, then block 0.
        let mut expected = vec![500_000; 10];
        expected.extend([1_000_000; 10]);
        assert_eq!(fast, expected);
        assert!((rate(&fast) - 20.0 / 0.015).abs() < 1e-6);
        // At least one block, however few there are.
        assert_eq!(
            fastest_blocks(&ends[..30], &busy[..30], 1_000_000_000, 10).unwrap(),
            vec![1_000_000; 10]
        );
    }

    #[test]
    fn fastest_blocks_needs_a_full_block() {
        assert_eq!(fastest_blocks(&[], &[], 1_000, 10), None);
        assert_eq!(fastest_blocks(&[10, 999], &[5, 5], 1_000, 10), None);
        // Empty blocks are skipped, not counted as fast.
        assert_eq!(
            fastest_blocks(&[10, 2_500], &[5, 7], 1_000, 1),
            Some(vec![5])
        );
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
