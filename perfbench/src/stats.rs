//! Order statistics and interval arithmetic for the benchmark's reports.

/// The nearest-rank index of quantile `q` (0..=1) in `n` sorted samples.
fn rank(n: usize, q: f64) -> usize {
    debug_assert!(n > 0);
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Nearest-rank quantile `q` of `samples` (unsorted); `None` when empty.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank(v.len(), q)])
}

/// The median (nearest rank, lower middle); `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// How many of `n` samples lie strictly beyond the nearest-rank
/// quantile `q`.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank(n, q)
    }
}

/// A tail percentile is only reported as such when at least ten samples
/// lie beyond it; below that it is a statement about one or two ops.
pub const MIN_BEYOND: usize = 10;

/// Whether `n` samples support quantile `q` under the ten-beyond rule.
pub fn supports(n: usize, q: f64) -> bool {
    samples_beyond(n, q) >= MIN_BEYOND
}

/// The fewest samples for which quantile `q` has ten samples beyond it.
pub fn min_samples_for(q: f64) -> usize {
    (1..)
        .find(|&n| supports(n, q))
        .expect("some n supports q < 1")
}

/// Total length of the union of half-open intervals `[start, end)`,
/// clipped to `[lo, hi)`. Overlapping children are counted once, so a
/// parent's self time is its duration minus this.
pub fn union_len(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut v: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|&(s, e)| s < e)
        .collect();
    v.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in v {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_needs_one_hundred_samples_for_ten_beyond() {
        assert_eq!(min_samples_for(0.9), 100);
        assert!(!supports(99, 0.9));
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert_eq!(samples_beyond(101, 0.9), 10);
        assert_eq!(samples_beyond(110, 0.9), 11);
        // The median of 16 samples has eight beyond it: not supported.
        assert!(!supports(16, 0.5));
        assert!(supports(20, 0.5));
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).rev().collect();
        assert_eq!(quantile(&v, 0.9), Some(90.0));
        assert_eq!(median(&v), Some(50.0));
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[]), None);
        assert_eq!(quantile(&[1.0, 2.0], 0.0), Some(1.0));
        assert_eq!(quantile(&[1.0, 2.0], 1.0), Some(2.0));
    }

    #[test]
    fn union_counts_overlap_once_and_clips() {
        assert_eq!(union_len(&[], 0, 10), 0);
        assert_eq!(union_len(&[(0, 4), (2, 6)], 0, 10), 6);
        assert_eq!(union_len(&[(0, 2), (4, 6)], 0, 10), 4);
        assert_eq!(union_len(&[(2, 6), (0, 4), (5, 7)], 0, 10), 7);
        // Touching intervals merge; a nested one adds nothing.
        assert_eq!(union_len(&[(0, 5), (5, 8), (1, 2)], 0, 10), 8);
        // Clipped to the parent, and empty after clipping.
        assert_eq!(union_len(&[(0, 20)], 3, 10), 7);
        assert_eq!(union_len(&[(11, 20)], 3, 10), 0);
    }
}
