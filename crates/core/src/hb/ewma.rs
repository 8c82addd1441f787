//! The Exponentially Weighted Moving Average predictor (§5.1.2).

use super::{Predictor, Update};
use crate::error::PredictError;
use crate::predictor::{typed_forecast, EpochFeatures, EpochObservation};
use std::sync::OnceLock;

/// One-step EWMA:
///
/// ```text
/// X̂ᵢ₊₁ = α·Xᵢ + (1−α)·X̂ᵢ
/// ```
///
/// with `X̂₁ = X₁` (the first forecast equals the first observation).
/// Higher `α` tracks recent samples (less smoothing); lower `α` smooths
/// noise but adapts slowly (§5.1.2). The paper finds EWMA performs
/// similarly to Holt-Winters (§6.1.1) and that `α = 0.8` is near-optimal
/// for its dataset.
///
/// # Examples
///
/// ```
/// use tputpred_core::hb::{Ewma, Predictor};
/// let mut e = Ewma::new(0.5);
/// e.update(10.0);
/// e.update(20.0);
/// assert_eq!(e.forecast(), Some(15.0));
/// ```
#[derive(Debug, Clone)]
pub struct Ewma {
    alpha: f64,
    forecast: Option<f64>,
    name: OnceLock<String>,
}

impl Ewma {
    /// Creates an EWMA predictor with weight `alpha` for the latest sample.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < alpha < 1` — the open interval the paper
    /// specifies (α = 1 would degenerate to the last-value predictor,
    /// α = 0 would never learn).
    pub fn new(alpha: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha < 1.0,
            "EWMA weight {alpha} outside (0, 1)"
        );
        Ewma {
            alpha,
            forecast: None,
            name: OnceLock::new(),
        }
    }

    /// The smoothing weight α.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }
}

impl Predictor for Ewma {
    // lint:hot-path
    fn try_predict(&self, _features: &EpochFeatures) -> Result<f64, PredictError> {
        typed_forecast(self.forecast)
    }

    // lint:hot-path
    fn observe(&mut self, epoch: &EpochObservation) -> Update {
        let Some(x) = epoch.throughput_bps else {
            return Update::Skipped;
        };
        debug_assert!(!x.is_nan(), "NaN sample");
        self.forecast = Some(match self.forecast {
            None => x,
            Some(prev) => self.alpha * x + (1.0 - self.alpha) * prev,
        });
        Update::Accepted
    }

    fn reset(&mut self) {
        self.forecast = None;
    }

    // lint:hot-path
    fn name(&self) -> &str {
        self.name.get_or_init(|| {
            // lint:allow(hot-path-alloc): formats once, on the first call; cached after
            format!("{:.1}-EWMA", self.alpha)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_forecast_is_first_sample() {
        let mut e = Ewma::new(0.3);
        e.update(7.0);
        assert_eq!(e.forecast(), Some(7.0));
    }

    #[test]
    fn recurrence_matches_hand_computation() {
        let mut e = Ewma::new(0.25);
        e.update(4.0); // f = 4
        e.update(8.0); // f = 0.25*8 + 0.75*4 = 5
        e.update(0.0); // f = 0.25*0 + 0.75*5 = 3.75
        assert_eq!(e.forecast(), Some(3.75));
    }

    #[test]
    fn converges_to_constant_input() {
        let mut e = Ewma::new(0.2);
        e.update(100.0);
        for _ in 0..200 {
            e.update(5.0);
        }
        let f = e.forecast().unwrap();
        assert!((f - 5.0).abs() < 1e-12);
    }

    #[test]
    fn high_alpha_tracks_faster_than_low_alpha() {
        let series = [10.0, 10.0, 10.0, 50.0];
        let mut fast = Ewma::new(0.9);
        let mut slow = Ewma::new(0.1);
        for x in series {
            fast.update(x);
            slow.update(x);
        }
        assert!(fast.forecast().unwrap() > slow.forecast().unwrap());
    }

    #[test]
    fn reset_forgets_everything() {
        let mut e = Ewma::new(0.5);
        e.update(1.0);
        e.reset();
        assert_eq!(e.forecast(), None);
    }

    #[test]
    fn gap_epochs_do_not_move_the_forecast() {
        let mut e = Ewma::new(0.5);
        e.update(8.0);
        assert_eq!(e.observe(&EpochObservation::GAP), Update::Skipped);
        assert_eq!(e.forecast(), Some(8.0));
    }

    #[test]
    #[should_panic(expected = "outside (0, 1)")]
    fn alpha_one_is_rejected() {
        let _ = Ewma::new(1.0);
    }

    #[test]
    #[should_panic(expected = "outside (0, 1)")]
    fn alpha_zero_is_rejected() {
        let _ = Ewma::new(0.0);
    }

    #[test]
    fn forecast_is_within_observed_range() {
        // EWMA is a convex combination: forecast never escapes the hull of
        // observations.
        let mut e = Ewma::new(0.6);
        let xs = [3.0, 9.0, 4.5, 8.2, 3.3];
        for x in xs {
            e.update(x);
            let f = e.forecast().unwrap();
            assert!((3.0..=9.0).contains(&f));
        }
    }
}
