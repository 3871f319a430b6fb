//! Order statistics for host-time samples.
//!
//! Percentiles use the nearest-rank rule on integer percents, so the rank
//! arithmetic is exact: the `p`-th percentile of `n` sorted samples is the
//! sample at 1-based rank `ceil(n * p / 100)`, and every sample after it is
//! "beyond" the percentile. A percentile is only reported when at least
//! [`MIN_BEYOND`] samples lie beyond it.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `pct`-th percentile among `n` samples.
pub fn rank(n: usize, pct: usize) -> usize {
    (n * pct).div_ceil(100).max(1)
}

/// Samples strictly beyond the `pct`-th percentile of `n` samples.
pub fn samples_beyond(n: usize, pct: usize) -> usize {
    n.saturating_sub(rank(n, pct))
}

/// Smallest sample count that leaves `beyond` samples past the
/// `pct`-th percentile.
pub fn min_samples(pct: usize, beyond: usize) -> usize {
    (1..)
        .find(|&n| samples_beyond(n, pct) >= beyond)
        .expect("pct < 100")
}

/// The `pct`-th percentile of `xs` by nearest rank (`xs` need not be
/// sorted). Returns `None` for an empty slice.
pub fn percentile(xs: &[f64], pct: usize) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), pct) - 1])
}

/// The median of `xs` (mean of the middle pair for even counts), or
/// `None` for an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_needs_a_hundred_samples_for_ten_beyond() {
        assert_eq!(min_samples(90, MIN_BEYOND), 100);
        assert_eq!(samples_beyond(100, 90), 10);
        assert_eq!(samples_beyond(99, 90), 9);
        assert_eq!(samples_beyond(216, 90), 21);
        // p50 needs only twenty.
        assert_eq!(min_samples(50, MIN_BEYOND), 20);
    }

    #[test]
    fn nearest_rank_percentile() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 90), Some(90.0));
        assert_eq!(percentile(&xs, 50), Some(50.0));
        assert_eq!(percentile(&xs, 100), Some(100.0));
        assert_eq!(percentile(&[3.0], 90), Some(3.0));
        assert_eq!(percentile(&[], 90), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
