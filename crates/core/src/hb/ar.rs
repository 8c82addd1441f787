//! An autoregressive AR(p) predictor — the ARIMA-class baseline the
//! paper declines to use (§5: "selecting their order and linear
//! coefficients requires a large number of past measurements") and that
//! Vazhkudai et al. \[14\] and Zhang et al. \[15\] found to perform no
//! better than simple averages on throughput series.
//!
//! Implemented so the claim can be *checked* rather than assumed: the
//! model is refit by Yule-Walker (Levinson-Durbin recursion) over a
//! sliding window on every update, predicting
//!
//! ```text
//! X̂ₙ₊₁ = μ + Σᵢ φᵢ·(Xₙ₋ᵢ₊₁ − μ)
//! ```
//!
//! Until the window holds `min_history` samples it falls back to the
//! window mean — mirroring how an application would actually deploy it.

use super::{Predictor, Update};
use crate::error::PredictError;
use crate::predictor::{typed_forecast, EpochFeatures, EpochObservation};
use std::collections::VecDeque;
use std::sync::OnceLock;

/// Sliding-window AR(p) with Yule-Walker estimation.
///
/// # Examples
///
/// ```
/// use tputpred_core::hb::{ArPredictor, Predictor};
/// let mut ar = ArPredictor::new(2, 32);
/// // An AR(1)-ish alternating series is exactly learnable:
/// for i in 0..30 {
///     ar.update(if i % 2 == 0 { 10.0 } else { 20.0 });
/// }
/// let f = ar.forecast().unwrap();
/// assert!((f - 10.0).abs() < 2.0, "next value after a 20 is a 10: {f}");
/// ```
#[derive(Debug, Clone)]
pub struct ArPredictor {
    order: usize,
    window: VecDeque<f64>,
    capacity: usize,
    /// Minimum samples before fitting (below this: window-mean fallback).
    min_history: usize,
    /// The forecast of the model fit to the current window.
    forecast: Option<f64>,
    /// Fitting buffers, kept so a refit allocates nothing: the
    /// autocovariances `r[0..=p]` and the coefficients `φ[0..p]`.
    r: Vec<f64>,
    phi: Vec<f64>,
    name: OnceLock<String>,
}

impl ArPredictor {
    /// Creates an AR(`order`) predictor fit over the last `capacity`
    /// samples.
    ///
    /// # Panics
    ///
    /// Panics if `order` is zero or `capacity < 4·order` (Yule-Walker on
    /// fewer samples is numerically meaningless).
    pub fn new(order: usize, capacity: usize) -> Self {
        assert!(order > 0, "AR of order 0");
        assert!(
            capacity >= 4 * order,
            "AR({order}) needs a window of at least {} samples",
            4 * order
        );
        ArPredictor {
            order,
            window: VecDeque::with_capacity(capacity),
            capacity,
            min_history: 3 * order,
            forecast: None,
            r: Vec::with_capacity(order + 1),
            phi: Vec::with_capacity(order),
            name: OnceLock::new(),
        }
    }

    /// The model order `p`.
    pub fn order(&self) -> usize {
        self.order
    }

    /// Sample autocovariance at the given lag (biased estimator, the
    /// standard choice for Yule-Walker: it keeps the Toeplitz system
    /// positive definite).
    fn autocovariance(xs: &[f64], mean: f64, lag: usize) -> f64 {
        let n = xs.len();
        let mut acc = 0.0;
        for i in lag..n {
            acc += (xs[i] - mean) * (xs[i - lag] - mean);
        }
        acc / n as f64
    }

    /// Levinson-Durbin recursion: solves the Yule-Walker equations for
    /// the AR coefficients `a` given autocovariances `r[0..=p]`.
    fn levinson_durbin(r: &[f64], a: &mut Vec<f64>) {
        let p = r.len() - 1;
        a.clear();
        a.resize(p, 0.0);
        let mut e = r[0];
        if e <= 0.0 {
            return; // constant series: all coefficients zero
        }
        for k in 0..p {
            let mut acc = r[k + 1];
            for j in 0..k {
                acc -= a[j] * r[k - j];
            }
            let reflection = acc / e;
            a[k] = reflection;
            for j in 0..k / 2 {
                let tmp = a[j] - reflection * a[k - 1 - j];
                a[k - 1 - j] -= reflection * a[j];
                a[j] = tmp;
            }
            if k % 2 == 1 {
                let mid = k / 2;
                a[mid] -= reflection * a[mid];
            }
            e *= 1.0 - reflection * reflection;
            if e <= 0.0 {
                break;
            }
        }
    }

    /// Refits the model to the window, which holds at least one sample,
    /// and caches its forecast.
    fn refit(&mut self) {
        let xs: &[f64] = self.window.make_contiguous();
        self.forecast = 'fit: {
            let mean = xs.iter().sum::<f64>() / xs.len() as f64;
            if xs.len() < self.min_history {
                break 'fit Some(mean);
            }
            let p = self.order.min(xs.len() / 3);
            self.r.clear();
            self.r
                .extend((0..=p).map(|lag| Self::autocovariance(xs, mean, lag)));
            if self.r[0] <= f64::EPSILON * mean.abs().max(1.0) {
                break 'fit Some(mean); // (near-)constant series
            }
            Self::levinson_durbin(&self.r, &mut self.phi);
            let mut forecast = mean;
            for (i, &coeff) in self.phi.iter().enumerate() {
                let x = xs[xs.len() - 1 - i];
                forecast += coeff * (x - mean);
            }
            Some(forecast)
        };
    }
}

impl Predictor for ArPredictor {
    fn try_predict(&self, _features: &EpochFeatures) -> Result<f64, PredictError> {
        typed_forecast(self.forecast)
    }

    fn observe(&mut self, epoch: &EpochObservation) -> Update {
        let Some(x) = epoch.throughput_bps else {
            return Update::Skipped;
        };
        debug_assert!(!x.is_nan(), "NaN sample");
        if self.window.len() == self.capacity {
            self.window.pop_front();
        }
        self.window.push_back(x);
        self.refit();
        Update::Accepted
    }

    fn reset(&mut self) {
        self.window.clear();
        self.forecast = None;
    }

    // lint:hot-path
    fn name(&self) -> &str {
        self.name.get_or_init(|| {
            // lint:allow(hot-path-alloc): formats once, on the first call; cached after
            format!("AR({})", self.order)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_prediction_before_first_sample() {
        let ar = ArPredictor::new(2, 16);
        assert_eq!(ar.forecast(), None);
    }

    #[test]
    fn short_history_falls_back_to_mean() {
        let mut ar = ArPredictor::new(3, 32);
        ar.update(10.0);
        ar.update(20.0);
        assert_eq!(ar.forecast(), Some(15.0));
    }

    #[test]
    fn constant_series_predicts_the_constant() {
        let mut ar = ArPredictor::new(2, 32);
        for _ in 0..20 {
            ar.update(7.5);
        }
        let f = ar.forecast().unwrap();
        assert!((f - 7.5).abs() < 1e-9, "{f}");
    }

    #[test]
    fn learns_a_strong_ar1_process() {
        // X_{n+1} = mean + 0.9 (X_n - mean), deterministic.
        let mut ar = ArPredictor::new(1, 64);
        let mean = 100.0;
        let mut x = 150.0;
        for _ in 0..50 {
            ar.update(x);
            x = mean + 0.9 * (x - mean);
        }
        let f = ar.forecast().unwrap();
        assert!(
            (f - x).abs() / mean < 0.02,
            "AR(1) should extrapolate the decay: {f} vs {x}"
        );
    }

    #[test]
    fn learns_an_alternating_series() {
        let mut ar = ArPredictor::new(2, 64);
        for i in 0..40 {
            ar.update(if i % 2 == 0 { 10.0 } else { 20.0 });
        }
        // Last sample was 20 (i = 39): next is 10.
        let f = ar.forecast().unwrap();
        assert!((f - 10.0).abs() < 1.0, "{f}");
    }

    #[test]
    fn levinson_durbin_matches_direct_solution_for_ar1() {
        // For AR(1): phi = r1/r0.
        let r = [2.0, 1.2];
        let mut phi = Vec::new();
        ArPredictor::levinson_durbin(&r, &mut phi);
        assert!((phi[0] - 0.6).abs() < 1e-12);
    }

    #[test]
    fn levinson_durbin_two_lags_hand_check() {
        // Yule-Walker for p=2:
        //   r1 = phi1 r0 + phi2 r1
        //   r2 = phi1 r1 + phi2 r0
        let (r0, r1, r2) = (1.0, 0.5, 0.4);
        let mut phi = Vec::new();
        ArPredictor::levinson_durbin(&[r0, r1, r2], &mut phi);
        let e1 = (phi[0] * r0 + phi[1] * r1 - r1).abs();
        let e2 = (phi[0] * r1 + phi[1] * r0 - r2).abs();
        assert!(e1 < 1e-12 && e2 < 1e-12, "phi = {phi:?}");
    }

    #[test]
    fn window_slides_and_reset_clears() {
        let mut ar = ArPredictor::new(1, 8);
        for i in 0..100 {
            ar.update(i as f64);
        }
        assert!(ar.window.len() <= 8);
        ar.reset();
        assert_eq!(ar.forecast(), None);
        assert_eq!(ar.name(), "AR(1)");
    }

    #[test]
    fn gap_epochs_leave_the_window_untouched() {
        let mut ar = ArPredictor::new(1, 8);
        ar.update(10.0);
        assert_eq!(ar.observe(&EpochObservation::GAP), Update::Skipped);
        assert_eq!(ar.window.len(), 1);
    }

    #[test]
    fn forecast_is_finite_on_noisy_input() {
        let mut ar = ArPredictor::new(3, 32);
        for i in 0..100 {
            let x = 10.0 + ((i * 2654435761u64) % 997) as f64 / 100.0;
            ar.update(x);
            if let Some(f) = ar.forecast() {
                assert!(f.is_finite(), "blew up at {i}: {f}");
            }
        }
    }
}
