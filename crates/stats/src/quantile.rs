//! Linear-interpolation quantiles (the "R-7" estimator).
//!
//! The paper reports medians and 10/90th percentiles of the relative
//! prediction error per path (Fig. 7) and percentiles of RMSRE distributions
//! (§6.1.2, §6.1.6). R-7 is the default in R/NumPy and behaves sensibly for
//! the small per-path sample counts (7 traces) that Fig. 21 works with.

/// Returns the `q`-quantile (`0.0 ≤ q ≤ 1.0`) of `data` using linear
/// interpolation between order statistics (type-7 estimator).
///
/// The input does not need to be sorted. Returns `None` for an empty slice.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]` or if `data` contains `NaN`.
///
/// # Examples
///
/// ```
/// use tputpred_stats::quantile;
/// let xs = [3.0, 1.0, 2.0, 4.0];
/// assert_eq!(quantile(&xs, 0.5), Some(2.5));
/// assert_eq!(quantile(&xs, 0.0), Some(1.0));
/// assert_eq!(quantile(&xs, 1.0), Some(4.0));
/// ```
pub fn quantile(data: &[f64], q: f64) -> Option<f64> {
    assert!(
        (0.0..=1.0).contains(&q),
        "quantile level {q} outside [0, 1]"
    );
    if data.is_empty() {
        return None;
    }
    let mut sorted: Vec<f64> = data.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
    Some(quantile_sorted(&sorted, q))
}

/// Like [`quantile`], but for data already sorted in ascending order.
///
/// Useful when many quantiles are extracted from the same sample (e.g. the
/// median and 10/90th percentiles of Fig. 7), avoiding repeated sorts.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of empty sample");
    assert!(
        (0.0..=1.0).contains(&q),
        "quantile level {q} outside [0, 1]"
    );
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let h = q * (n - 1) as f64;
    // Defensive clamp: for q ≤ 1 the product cannot exceed n-1 exactly
    // (n-1 is representable and rounding is monotone), but the index
    // math must stay in bounds even if a caller's q arrives at 1.0 via
    // an expression like `1.0 - 1e-16` (== 1.0 in f64) — the estimator
    // then degrades to the max order statistic rather than panicking.
    let lo = (h.floor() as usize).min(n - 1);
    let hi = (h.ceil() as usize).min(n - 1);
    if lo == hi {
        sorted[lo]
    } else {
        let frac = h - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Returns the median of `data`, or `None` for an empty slice.
///
/// The median is the robust location estimate used by the paper's level-shift
/// and outlier detectors (§5.2): both compare a sample against the *median*
/// of its neighbours, not the mean, so single spikes do not mask shifts.
pub fn median(data: &[f64]) -> Option<f64> {
    quantile(data, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sample_has_no_quantile() {
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn single_element_is_every_quantile() {
        for q in [0.0, 0.1, 0.5, 0.9, 1.0] {
            assert_eq!(quantile(&[7.0], q), Some(7.0));
        }
    }

    #[test]
    fn median_of_odd_sample_is_middle_order_statistic() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
    }

    #[test]
    fn median_of_even_sample_interpolates() {
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), Some(2.5));
    }

    #[test]
    fn extreme_quantiles_are_min_and_max() {
        let xs = [9.0, -2.0, 4.4, 0.0];
        assert_eq!(quantile(&xs, 0.0), Some(-2.0));
        assert_eq!(quantile(&xs, 1.0), Some(9.0));
    }

    #[test]
    fn interpolation_matches_hand_computation() {
        // h = 0.9 * 4 = 3.6 → 0.4 * x[3] + 0.6 * x[4]
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let q90 = quantile(&xs, 0.9).unwrap();
        assert!((q90 - 4.6).abs() < 1e-12);
    }

    #[test]
    fn unsorted_input_is_handled() {
        let a = quantile(&[3.0, 1.0, 2.0], 0.5);
        let b = quantile(&[1.0, 2.0, 3.0], 0.5);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_range_level_panics() {
        let _ = quantile(&[1.0], 1.5);
    }

    #[test]
    fn near_one_levels_never_index_out_of_bounds() {
        // `1.0 - 1e-16` rounds to `1 - 2^-53`, the largest f64 below
        // 1.0 (the half-ulp of 1.0 is ~1.1e-16). `h = q * (n-1)` then
        // lands a fraction of an ulp under n-1, so `h.ceil()` hits the
        // last index exactly — the edge the clamp guards. Every case
        // must stay in bounds and return a value in the top
        // interpolation cell, never panic.
        let q_below_one: f64 = 1.0 - 1e-16;
        assert_eq!(q_below_one, f64::from_bits(1.0f64.to_bits() - 1));
        for n in [2usize, 3, 5, 7, 100, 513, 1000] {
            let sorted: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let max = (n - 1) as f64;
            let v = quantile_sorted(&sorted, q_below_one);
            assert!(v <= max && v > max - 1.0, "n={n}: {v}");
            assert_eq!(quantile_sorted(&sorted, 1.0), max, "n={n}");
        }
    }

    #[test]
    fn quantile_sorted_agrees_with_quantile() {
        let xs = [0.5, 0.25, 0.75, 1.0, 0.0];
        let mut s = xs.to_vec();
        s.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for q in [0.1, 0.25, 0.33, 0.5, 0.77, 0.9] {
            assert_eq!(quantile(&xs, q), Some(quantile_sorted(&s, q)));
        }
    }
}
