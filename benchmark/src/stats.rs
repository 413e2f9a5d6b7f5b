//! Order statistics over timing samples.
//!
//! A timing is reported as its median plus the highest percentile that
//! still has at least [`MIN_BEYOND`] samples beyond it, so a tail figure
//! is never read off one or two outliers.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Percentiles considered for the tail figure, highest first.
const TAIL_PERCENTILES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// The `p`-th percentile (`0..=100`) by linear interpolation between
/// closest ranks, the definition Python's `statistics.quantiles` uses
/// with `method="inclusive"`. `None` for an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// The median of `samples` (`None` when empty).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// The highest of the candidate tail percentiles that leaves at least
/// [`MIN_BEYOND`] of `n` samples strictly above its rank, or `None`
/// when even the 75th percentile would not.
pub fn reportable_tail(n: usize) -> Option<f64> {
    TAIL_PERCENTILES
        .iter()
        .copied()
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// How many of `n` samples lie beyond the `p`-th percentile.
fn beyond(n: usize, p: f64) -> usize {
    // The share above the percentile, rounded down: 100 samples have 10
    // beyond p90 and 1 beyond p99.
    ((n as f64) * (100.0 - p) / 100.0 + 1e-9).floor() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_interpolates_between_middle_ranks() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_hits_the_extremes() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&xs, 100.0), Some(5.0));
        assert_eq!(percentile(&xs, 25.0), Some(2.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 39 samples: 9 beyond p75 — nothing reportable beyond the median.
        assert_eq!(reportable_tail(39), None);
        assert_eq!(reportable_tail(40), Some(75.0));
        assert_eq!(reportable_tail(99), Some(75.0));
        assert_eq!(reportable_tail(100), Some(90.0));
        assert_eq!(reportable_tail(199), Some(90.0));
        assert_eq!(reportable_tail(200), Some(95.0));
        assert_eq!(reportable_tail(1_000), Some(99.0));
        assert_eq!(reportable_tail(10_000), Some(99.9));
    }
}
