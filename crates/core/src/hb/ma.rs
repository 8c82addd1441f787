//! The n-order Moving Average predictor (§5.1.1).

use super::{Predictor, Update};
use crate::error::PredictError;
use crate::predictor::{typed_forecast, EpochFeatures, EpochObservation};
use std::collections::VecDeque;
use std::sync::OnceLock;

/// One-step n-order Moving Average (`n-MA`):
///
/// ```text
/// X̂ᵢ₊₁ = (1/n) · Σ_{k=i−n+1..i} X_k
/// ```
///
/// The paper's trade-off (§5.1.1): small `n` cannot smooth measurement
/// noise; large `n` adapts slowly to non-stationarities such as level
/// shifts — which is why Zhang et al.'s 128-sample MA performed poorly and
/// why the LSO wrapper makes the choice of `n` largely irrelevant (§5.3).
///
/// A prediction is available from the first sample on (the average is then
/// over however many samples are present, up to `n`) — matching the paper's
/// evaluation which starts predicting as soon as one transfer has been
/// observed.
///
/// # Examples
///
/// ```
/// use tputpred_core::hb::{MovingAverage, Predictor};
/// let mut ma = MovingAverage::new(3);
/// for x in [1.0, 2.0, 3.0, 4.0] {
///     ma.update(x);
/// }
/// // window holds [2, 3, 4]
/// assert_eq!(ma.forecast(), Some(3.0));
/// ```
#[derive(Debug, Clone)]
pub struct MovingAverage {
    order: usize,
    window: VecDeque<f64>,
    sum: f64,
    name: OnceLock<String>,
}

impl MovingAverage {
    /// Creates an `n`-MA predictor.
    ///
    /// # Panics
    ///
    /// Panics if `order` is zero.
    pub fn new(order: usize) -> Self {
        assert!(order > 0, "moving average of order 0");
        MovingAverage {
            order,
            window: VecDeque::with_capacity(order),
            sum: 0.0,
            name: OnceLock::new(),
        }
    }

    /// The order `n`.
    pub fn order(&self) -> usize {
        self.order
    }

    /// Number of samples currently in the window (≤ `n`).
    pub fn fill(&self) -> usize {
        self.window.len()
    }

    /// The forecast this average would give after observing `x`,
    /// without observing it: the arithmetic of
    /// [`Predictor::observe`] and then [`Predictor::forecast`], bit for
    /// bit, without a copy of the window.
    ///
    /// ```
    /// use tputpred_core::hb::{MovingAverage, Predictor};
    /// let mut ma = MovingAverage::new(2);
    /// ma.update(1.0);
    /// ma.update(2.0);
    /// assert_eq!(ma.forecast_with(4.0), Some(3.0));
    /// assert_eq!(ma.forecast(), Some(1.5));
    /// ```
    pub fn forecast_with(&self, x: f64) -> Option<f64> {
        debug_assert!(!x.is_nan(), "NaN sample");
        let len = self.window.len() + 1;
        let sum = if len >= self.order {
            // The window fills: `observe` re-sums it in order.
            let kept = self.window.iter().skip(len - self.order).copied();
            kept.chain(std::iter::once(x)).sum()
        } else {
            self.sum + x
        };
        typed_forecast(Some(sum / len.min(self.order) as f64)).ok()
    }
}

impl Predictor for MovingAverage {
    // lint:hot-path
    fn try_predict(&self, _features: &EpochFeatures) -> Result<f64, PredictError> {
        let forecast = if self.window.is_empty() {
            None
        } else {
            Some(self.sum / self.window.len() as f64)
        };
        typed_forecast(forecast)
    }

    fn observe(&mut self, epoch: &EpochObservation) -> Update {
        let Some(x) = epoch.throughput_bps else {
            return Update::Skipped;
        };
        debug_assert!(!x.is_nan(), "NaN sample");
        if self.window.len() == self.order {
            if let Some(old) = self.window.pop_front() {
                self.sum -= old;
            }
        }
        self.window.push_back(x);
        self.sum += x;
        // Guard against drift from incremental +/-: refresh the sum
        // periodically. The window is tiny (n ≤ ~20 in all experiments),
        // so a full re-sum is cheap.
        if self.window.len() == self.order {
            self.sum = self.window.iter().sum();
        }
        Update::Accepted
    }

    fn reset(&mut self) {
        self.window.clear();
        self.sum = 0.0;
    }

    // lint:hot-path
    fn name(&self) -> &str {
        self.name.get_or_init(|| {
            // lint:allow(hot-path-alloc): formats once, on the first call; cached after
            format!("{}-MA", self.order)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_prediction_before_first_sample() {
        let ma = MovingAverage::new(5);
        assert_eq!(ma.forecast(), None);
    }

    #[test]
    fn partial_window_averages_what_it_has() {
        let mut ma = MovingAverage::new(10);
        ma.update(2.0);
        assert_eq!(ma.forecast(), Some(2.0));
        ma.update(4.0);
        assert_eq!(ma.forecast(), Some(3.0));
    }

    #[test]
    fn full_window_slides() {
        let mut ma = MovingAverage::new(2);
        for x in [1.0, 2.0, 3.0] {
            ma.update(x);
        }
        assert_eq!(ma.forecast(), Some(2.5));
        assert_eq!(ma.fill(), 2);
    }

    #[test]
    fn order_one_tracks_last_sample() {
        let mut ma = MovingAverage::new(1);
        for x in [5.0, 9.0, 1.0] {
            ma.update(x);
            assert_eq!(ma.forecast(), Some(x));
        }
    }

    #[test]
    fn reset_clears_history() {
        let mut ma = MovingAverage::new(3);
        ma.update(1.0);
        ma.reset();
        assert_eq!(ma.forecast(), None);
        assert_eq!(ma.fill(), 0);
    }

    #[test]
    fn constant_series_predicts_the_constant() {
        let mut ma = MovingAverage::new(7);
        for _ in 0..50 {
            ma.update(3.25);
        }
        assert_eq!(ma.forecast(), Some(3.25));
    }

    #[test]
    fn long_stream_does_not_drift() {
        let mut ma = MovingAverage::new(4);
        for i in 0..100_000 {
            ma.update((i % 17) as f64 * 1e9 + 0.1);
        }
        // window is the last 4 values; compute expected directly
        let tail: Vec<f64> = (99_996..100_000)
            .map(|i| (i % 17) as f64 * 1e9 + 0.1)
            .collect();
        let expected = tail.iter().sum::<f64>() / 4.0;
        let got = ma.forecast().unwrap();
        assert!((got - expected).abs() / expected < 1e-12);
    }

    #[test]
    fn gap_epochs_leave_the_window_untouched() {
        let mut ma = MovingAverage::new(3);
        ma.update(6.0);
        assert_eq!(ma.observe(&EpochObservation::GAP), Update::Skipped);
        assert_eq!(ma.forecast(), Some(6.0));
        assert_eq!(ma.fill(), 1);
    }

    #[test]
    #[should_panic(expected = "order 0")]
    fn zero_order_panics() {
        let _ = MovingAverage::new(0);
    }

    #[test]
    fn name_includes_order() {
        assert_eq!(MovingAverage::new(10).name(), "10-MA");
    }
}
