//! The one statistics implementation every workload reports through.
//!
//! Quantiles use linear interpolation between closest ranks (the
//! "inclusive" method of Python's `statistics.quantiles`), so a median or
//! quartile printed here can be reproduced from the raw samples with the
//! standard library of either language.

/// Percentiles [`tail`] may report, highest first, in hundredths of a
/// percent so that ranks are computed in exact integer arithmetic.
const TAIL_PERCENTILES_BP: [usize; 5] = [9999, 9990, 9900, 9000, 5000];

/// Samples a tail percentile must leave beyond it to be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Quantile `q` in `[0, 1]` of already sorted samples, interpolating
/// linearly between the two closest ranks. `NaN` on an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Median of unsorted samples (`NaN` when empty).
pub fn median(samples: &[f64]) -> f64 {
    quantile_sorted(&sorted(samples), 0.5)
}

/// First and third quartile of unsorted samples.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let s = sorted(samples);
    (quantile_sorted(&s, 0.25), quantile_sorted(&s, 0.75))
}

/// The highest percentile of [`TAIL_PERCENTILES_BP`] that leaves at least
/// [`TAIL_MIN_BEYOND`] of `n` samples strictly above its rank, in hundredths
/// of a percent. A percentile `p` sits at rank `ceil(p/100 · n)` (1-based,
/// nearest-rank), so `n − rank` samples lie beyond it. `None` when even
/// p50 leaves fewer than ten beyond (under 20 samples).
fn tail_percentile_bp(n: usize) -> Option<usize> {
    TAIL_PERCENTILES_BP.into_iter().find(|&bp| {
        let rank = (bp * n).div_ceil(10_000);
        rank >= 1 && n - rank >= TAIL_MIN_BEYOND
    })
}

/// Nearest-rank percentile `bp` (hundredths of a percent) of sorted samples.
fn percentile_sorted(sorted: &[f64], bp: usize) -> f64 {
    sorted[(bp * sorted.len()).div_ceil(10_000).max(1) - 1]
}

/// The highest percentile that leaves at least [`TAIL_MIN_BEYOND`] samples
/// beyond it, as `(percentile, value)`. Falls back to the median under 20
/// samples; `None` for no samples at all.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    if samples.is_empty() {
        return None;
    }
    Some(match tail_percentile_bp(samples.len()) {
        Some(bp) => (bp as f64 / 100.0, percentile_sorted(&sorted(samples), bp)),
        None => (50.0, median(samples)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_inclusive_method() {
        // statistics.quantiles([1..=10], n=4, method="inclusive") → [3.25, 5.5, 7.75]
        assert_eq!(quartiles(&one_to(10)), (3.25, 7.75));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4, method="inclusive") → [2.0, 3.0, 4.0]
        assert_eq!(quartiles(&[5.0, 3.0, 1.0, 4.0, 2.0]), (2.0, 4.0));
    }

    #[test]
    fn tail_picks_highest_percentile_with_ten_beyond() {
        // 20 samples: p90 is rank 18 (2 beyond), p50 is rank 10 (10 beyond).
        assert_eq!(tail(&one_to(20)), Some((50.0, 10.0)));
        // 100 samples: p90 is rank 90 (10 beyond), p99 rank 99 (1 beyond).
        assert_eq!(tail(&one_to(100)), Some((90.0, 90.0)));
        // 1000 samples: p99 is rank 990 (10 beyond).
        assert_eq!(tail(&one_to(1000)), Some((99.0, 990.0)));
        // 10000 samples: p99.9 is rank 9990 (10 beyond).
        assert_eq!(tail(&one_to(10_000)), Some((99.9, 9990.0)));
        // Order of the input does not matter.
        let mut rev = one_to(1000);
        rev.reverse();
        assert_eq!(tail(&rev), Some((99.0, 990.0)));
    }

    #[test]
    fn tail_of_few_samples_falls_back_to_the_median() {
        assert_eq!(tail(&one_to(5)), Some((50.0, 3.0)));
        assert_eq!(tail(&[]), None);
    }
}
