//! The non-seasonal Holt-Winters predictor (§5.1.3).

use super::{Predictor, Update};
use crate::error::PredictError;
use crate::predictor::{typed_forecast, EpochFeatures, EpochObservation};
use std::sync::OnceLock;

/// Non-seasonal Holt-Winters (double exponential smoothing): an EWMA that
/// additionally tracks the series' linear *trend*.
///
/// Separate smoothing (`X̂ˢ`) and trend (`X̂ᵗ`) components are maintained,
/// with the forecast
///
/// ```text
/// X̂ᶠᵢ   = X̂ˢᵢ + X̂ᵗᵢ
/// X̂ˢᵢ₊₁ = α·Xᵢ + (1−α)·X̂ᶠᵢ
/// X̂ᵗᵢ₊₁ = β·(X̂ˢᵢ₊₁ − X̂ˢᵢ) + (1−β)·X̂ᵗᵢ
/// ```
///
/// initialised, as in the paper, with `X̂ˢ₀ = X₀` and `X̂ᵗ₀ = X₁ − X₀` — so
/// the first forecast is available after **two** samples. (The journal
/// text prints the trend recursion with indices `X̂ᵗᵢ₊₁ = β(X̂ˢᵢ − X̂ˢᵢ₋₁) +
/// (1−β)X̂ᵗᵢ₋₁`, skipping `X̂ᵗᵢ`; we implement the standard Holt recursion
/// above, which the printed one is evidently a typo of.)
///
/// §5.3/§6.1.1: `α = 0.8, β = 0.2` are near-optimal on the paper's
/// dataset, HW-LSO is the paper's best predictor overall, and the margin
/// over MA-LSO is slight because few traces exhibit sustained linear
/// trends.
///
/// # Examples
///
/// ```
/// use tputpred_core::hb::{HoltWinters, Predictor};
/// let mut hw = HoltWinters::new(0.8, 0.2);
/// hw.update(10.0);
/// assert_eq!(hw.forecast(), None); // needs two samples
/// hw.update(12.0);
/// let f = hw.forecast().unwrap();
/// assert!(f > 12.0, "rising series forecasts above the last sample");
/// ```
#[derive(Debug, Clone)]
pub struct HoltWinters {
    alpha: f64,
    beta: f64,
    state: HwState,
    name: OnceLock<String>,
}

#[derive(Debug, Clone)]
enum HwState {
    /// No samples yet.
    Empty,
    /// One sample seen; waiting for the second to initialise the trend.
    Priming { x0: f64 },
    /// Fully initialised.
    Running { smooth: f64, trend: f64 },
}

impl HoltWinters {
    /// Creates a Holt-Winters predictor with smoothing weight `alpha` and
    /// trend weight `beta`.
    ///
    /// # Panics
    ///
    /// Panics unless both parameters lie in the open interval `(0, 1)`.
    pub fn new(alpha: f64, beta: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha < 1.0,
            "Holt-Winters alpha {alpha} outside (0, 1)"
        );
        assert!(
            beta > 0.0 && beta < 1.0,
            "Holt-Winters beta {beta} outside (0, 1)"
        );
        HoltWinters {
            alpha,
            beta,
            state: HwState::Empty,
            name: OnceLock::new(),
        }
    }

    /// The smoothing weight α.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The trend weight β.
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// Current trend estimate, if initialised. Exposed for tests and
    /// diagnostics (a persistent non-zero trend flags a drifting path).
    pub fn trend(&self) -> Option<f64> {
        match self.state {
            HwState::Running { trend, .. } => Some(trend),
            _ => None,
        }
    }
}

impl Predictor for HoltWinters {
    // lint:hot-path
    fn try_predict(&self, _features: &EpochFeatures) -> Result<f64, PredictError> {
        let forecast = match self.state {
            HwState::Running { smooth, trend } => Some(smooth + trend),
            _ => None,
        };
        typed_forecast(forecast)
    }

    // lint:hot-path
    fn observe(&mut self, epoch: &EpochObservation) -> Update {
        let Some(x) = epoch.throughput_bps else {
            return Update::Skipped;
        };
        debug_assert!(!x.is_nan(), "NaN sample");
        self.state = match self.state {
            HwState::Empty => HwState::Priming { x0: x },
            // Initialisation per the paper (X̂ˢ₀ = X₀, X̂ᵗ₀ = X₁ − X₀)
            // followed immediately by one recursion step on X₁, which
            // collapses to X̂ˢ₁ = X₁, X̂ᵗ₁ = X₁ − X₀. This makes the
            // predictor exact on a perfectly linear series from the first
            // forecast on.
            HwState::Priming { x0 } => HwState::Running {
                smooth: x,
                trend: x - x0,
            },
            HwState::Running { smooth, trend } => {
                let forecast = smooth + trend;
                let new_smooth = self.alpha * x + (1.0 - self.alpha) * forecast;
                let new_trend = self.beta * (new_smooth - smooth) + (1.0 - self.beta) * trend;
                HwState::Running {
                    smooth: new_smooth,
                    trend: new_trend,
                }
            }
        };
        Update::Accepted
    }

    fn reset(&mut self) {
        self.state = HwState::Empty;
    }

    // lint:hot-path
    fn name(&self) -> &str {
        self.name.get_or_init(|| {
            // lint:allow(hot-path-alloc): formats once, on the first call; cached after
            format!("{:.1}-HW", self.alpha)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn needs_two_samples_before_first_forecast() {
        let mut hw = HoltWinters::new(0.5, 0.5);
        assert_eq!(hw.forecast(), None);
        hw.update(1.0);
        assert_eq!(hw.forecast(), None);
        hw.update(2.0);
        assert!(hw.forecast().is_some());
    }

    #[test]
    fn initialisation_matches_paper() {
        // After the paper's init plus one recursion step on X₁, the state
        // is X̂ˢ = X₁, X̂ᵗ = X₁ − X₀ → first forecast = 2·X₁ − X₀.
        let mut hw = HoltWinters::new(0.8, 0.2);
        hw.update(10.0);
        hw.update(14.0);
        assert_eq!(hw.forecast(), Some(18.0));
    }

    #[test]
    fn tracks_a_perfect_linear_trend_exactly() {
        // On Xᵢ = a + b·i the forecast is exact after initialisation:
        // a fixed point of the recursion.
        let mut hw = HoltWinters::new(0.4, 0.3);
        for i in 0..20 {
            let x = 5.0 + 2.0 * i as f64;
            if let Some(f) = hw.forecast() {
                assert!((f - x).abs() < 1e-9, "i={i}: forecast {f} vs {x}");
            }
            hw.update(x);
        }
        assert!((hw.trend().unwrap() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn converges_on_constant_series() {
        let mut hw = HoltWinters::new(0.8, 0.2);
        hw.update(50.0);
        hw.update(10.0); // violent init: trend −40
        for _ in 0..300 {
            hw.update(10.0);
        }
        let f = hw.forecast().unwrap();
        assert!((f - 10.0).abs() < 1e-6, "forecast {f}");
        assert!(hw.trend().unwrap().abs() < 1e-6);
    }

    #[test]
    fn outperforms_ewma_on_trending_series() {
        use crate::hb::Ewma;
        let series: Vec<f64> = (0..30).map(|i| 100.0 + 10.0 * i as f64).collect();
        let mut hw = HoltWinters::new(0.8, 0.2);
        let mut ew = Ewma::new(0.8);
        let mut hw_err = 0.0;
        let mut ew_err = 0.0;
        for &x in &series {
            if let (Some(fh), Some(fe)) = (hw.forecast(), ew.forecast()) {
                hw_err += (fh - x).abs();
                ew_err += (fe - x).abs();
            }
            hw.update(x);
            ew.update(x);
        }
        assert!(
            hw_err < ew_err,
            "HW should beat EWMA on a trend: {hw_err} vs {ew_err}"
        );
    }

    #[test]
    fn reset_returns_to_empty() {
        let mut hw = HoltWinters::new(0.8, 0.2);
        hw.update(1.0);
        hw.update(2.0);
        hw.reset();
        assert_eq!(hw.forecast(), None);
        assert_eq!(hw.trend(), None);
    }

    #[test]
    fn gap_epochs_preserve_priming_state() {
        let mut hw = HoltWinters::new(0.8, 0.2);
        hw.update(10.0);
        assert_eq!(hw.observe(&EpochObservation::GAP), Update::Skipped);
        hw.update(14.0); // second real sample initialises the trend
        assert_eq!(hw.forecast(), Some(18.0));
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn bad_alpha_rejected() {
        let _ = HoltWinters::new(0.0, 0.2);
    }

    #[test]
    #[should_panic(expected = "beta")]
    fn bad_beta_rejected() {
        let _ = HoltWinters::new(0.5, 1.0);
    }
}
