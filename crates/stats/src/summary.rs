//! Streaming summary statistics (Welford's online algorithm).
//!
//! Used wherever the reproduction accumulates a long stream without storing
//! it: per-link utilization in the simulator, per-flow RTT statistics in the
//! TCP implementation, and the Coefficient of Variation (CoV = σ/μ) that
//! §6.1.3 correlates against prediction error.

use serde::{Deserialize, Serialize};

/// Incrementally accumulated mean/variance/min/max of an `f64` stream.
///
/// Welford's update is numerically stable for long streams — the simulator
/// pushes millions of queueing-delay samples through these accumulators.
///
/// # Examples
///
/// ```
/// use tputpred_stats::Summary;
/// let mut s = Summary::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.push(x);
/// }
/// assert_eq!(s.mean(), 5.0);
/// assert_eq!(s.population_variance(), 4.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for Summary {
    /// Same as [`Summary::new`]: an empty accumulator with `min = +∞` and
    /// `max = −∞` (a derived `Default` would zero them, corrupting the
    /// first comparison).
    fn default() -> Self {
        Summary::new()
    }
}

impl Summary {
    /// An empty accumulator.
    pub fn new() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Builds a summary from a complete sample in one call.
    pub fn from_samples<I: IntoIterator<Item = f64>>(samples: I) -> Self {
        let mut s = Summary::new();
        for x in samples {
            s.push(x);
        }
        s
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        debug_assert!(!x.is_nan(), "NaN pushed into Summary");
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another summary into this one (parallel reduction).
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean; 0.0 for an empty accumulator.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (divide by n); 0.0 with fewer than one sample.
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.population_variance().sqrt()
    }

    /// Coefficient of Variation σ/μ, the variability measure of §6.1.3.
    ///
    /// Returns `None` when the mean is zero (undefined) or no samples were
    /// pushed.
    pub fn cov(&self) -> Option<f64> {
        // lint:allow(float-eq): CoV is undefined only at an exactly zero mean
        if self.count == 0 || self.mean == 0.0 {
            None
        } else {
            Some(self.std_dev() / self.mean.abs())
        }
    }

    /// Smallest observation; `+∞` for an empty accumulator.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation; `−∞` for an empty accumulator.
    pub fn max(&self) -> f64 {
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary_is_benign() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.population_variance(), 0.0);
        assert_eq!(s.cov(), None);
    }

    #[test]
    fn single_sample_has_zero_variance() {
        let s = Summary::from_samples([42.0]);
        assert_eq!(s.mean(), 42.0);
        assert_eq!(s.population_variance(), 0.0);
        assert_eq!(s.min(), 42.0);
        assert_eq!(s.max(), 42.0);
    }

    #[test]
    fn matches_two_pass_computation() {
        let xs: Vec<f64> = (0..1000)
            .map(|i| (i as f64 * 0.7).sin() * 10.0 + 5.0)
            .collect();
        let s = Summary::from_samples(xs.iter().copied());
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!((s.mean() - mean).abs() < 1e-9);
        assert!((s.population_variance() - var).abs() < 1e-9);
    }

    #[test]
    fn merge_equals_sequential_push() {
        let xs: Vec<f64> = (0..100).map(|i| i as f64 * 1.3).collect();
        let mut a = Summary::from_samples(xs[..40].iter().copied());
        let b = Summary::from_samples(xs[40..].iter().copied());
        a.merge(&b);
        let full = Summary::from_samples(xs.iter().copied());
        assert_eq!(a.count(), full.count());
        assert!((a.mean() - full.mean()).abs() < 1e-9);
        assert!((a.population_variance() - full.population_variance()).abs() < 1e-9);
        assert_eq!(a.min(), full.min());
        assert_eq!(a.max(), full.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Summary::from_samples([1.0, 2.0]);
        let before = a;
        a.merge(&Summary::new());
        assert_eq!(a, before);

        let mut e = Summary::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn cov_is_ratio_of_std_to_mean() {
        let s = Summary::from_samples([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.cov().unwrap() - 2.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn cov_of_zero_mean_sample_is_none() {
        let s = Summary::from_samples([-1.0, 1.0]);
        assert_eq!(s.cov(), None);
    }
}
