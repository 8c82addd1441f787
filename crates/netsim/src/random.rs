//! Inverse-transform samplers for the distributions the workload models
//! need.
//!
//! Implemented directly over [`rand::Rng`] rather than pulling in
//! `rand_distr`: two one-line transforms do not justify a dependency,
//! and keeping them here makes their exact form (and hence the
//! simulation's reproducibility) part of this crate's contract.

use rand::{Rng, RngExt};

/// Samples an exponential variate with the given `mean` (> 0).
///
/// Used for Poisson cross-traffic interarrivals and off-period durations.
///
/// # Panics
///
/// Panics (debug) on a non-positive mean.
pub fn exponential<R: Rng>(rng: &mut R, mean: f64) -> f64 {
    debug_assert!(mean > 0.0, "exponential mean must be positive");
    let u: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
    -mean * u.ln()
}

/// Samples a Pareto variate with shape `alpha` (> 0) and scale `xmin`
/// (> 0): `P(X > x) = (xmin/x)^alpha` for `x ≥ xmin`.
///
/// With `1 < alpha < 2` the distribution has finite mean `alpha·xmin/
/// (alpha−1)` but infinite variance — the heavy-tailed on-periods that
/// make cross traffic bursty at many time scales.
///
/// # Panics
///
/// Panics (debug) on non-positive parameters.
pub fn pareto<R: Rng>(rng: &mut R, alpha: f64, xmin: f64) -> f64 {
    debug_assert!(alpha > 0.0, "pareto shape must be positive");
    debug_assert!(xmin > 0.0, "pareto scale must be positive");
    let u: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
    xmin / u.powf(1.0 / alpha)
}

/// Scale for a Pareto with shape `alpha > 1` to achieve a target `mean`:
/// `xmin = mean·(alpha−1)/alpha`.
pub fn pareto_scale_for_mean(alpha: f64, mean: f64) -> f64 {
    debug_assert!(alpha > 1.0, "mean undefined for alpha ≤ 1");
    mean * (alpha - 1.0) / alpha
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(12345)
    }

    #[test]
    fn exponential_mean_converges() {
        let mut r = rng();
        let n = 200_000;
        let sum: f64 = (0..n).map(|_| exponential(&mut r, 3.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn exponential_is_positive() {
        let mut r = rng();
        for _ in 0..10_000 {
            assert!(exponential(&mut r, 0.001) > 0.0);
        }
    }

    #[test]
    fn pareto_respects_scale_floor() {
        let mut r = rng();
        for _ in 0..10_000 {
            assert!(pareto(&mut r, 1.5, 2.0) >= 2.0);
        }
    }

    #[test]
    fn pareto_mean_converges_for_alpha_above_two() {
        // alpha = 3 has finite variance, so the sample mean converges fast.
        let mut r = rng();
        let alpha = 3.0;
        let xmin = pareto_scale_for_mean(alpha, 5.0);
        let n = 200_000;
        let sum: f64 = (0..n).map(|_| pareto(&mut r, alpha, xmin)).sum();
        let mean = sum / n as f64;
        assert!((mean - 5.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn pareto_tail_is_heavier_than_exponential() {
        let mut r = rng();
        let n = 100_000;
        let threshold = 20.0; // 20× the mean of 1.0
        let exp_exceed = (0..n)
            .filter(|_| exponential(&mut r, 1.0) > threshold)
            .count();
        let xmin = pareto_scale_for_mean(1.5, 1.0);
        let par_exceed = (0..n)
            .filter(|_| pareto(&mut r, 1.5, xmin) > threshold)
            .count();
        assert!(
            par_exceed > 10 * exp_exceed.max(1),
            "pareto {par_exceed} vs exp {exp_exceed}"
        );
    }

    #[test]
    fn samplers_are_deterministic_under_seed() {
        let mut a = rng();
        let mut b = rng();
        for _ in 0..100 {
            assert_eq!(exponential(&mut a, 2.0), exponential(&mut b, 2.0));
        }
    }
}
