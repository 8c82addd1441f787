//! Formula-Based (FB) prediction (§3).
//!
//! [`FbPredictor`] is the paper's Eq. (3): feed a-priori, non-intrusive
//! path measurements — RTT `T̂` and loss rate `p̂` from periodic probing,
//! available bandwidth `Â` from pathload-style estimation — into a TCP
//! steady-state model:
//!
//! ```text
//!       ⎧ min( PFTK(M, T̂, T̂₀, b, p̂, W),  W/T̂ )   if p̂ > 0
//! R̂  =  ⎨
//!       ⎩ min( W/T̂,  Â )                          if p̂ = 0
//! ```
//!
//! with `T̂₀ = max(1 s, 2·SRTT)` and SRTT set to the measured a-priori RTT.
//! The avail-bw branch handles lossless paths, where the loss-based models
//! are degenerate (§3.1); for window-limited flows (`W/T̂ < Â`) the window
//! term dominates instead (§4.2.8 shows such flows are far more
//! predictable).
//!
//! [`SmoothedFbPredictor`] is §4.2.10's variant: instead of the single
//! latest measurement, feed a Moving-Average-smoothed history of RTT and
//! loss-rate measurements into the same equation. The paper finds this
//! changes accuracy negligibly — the dominant FB errors are not
//! measurement noise but (a) the target flow changing the path's state
//! (§3.2) and (b) the difference between periodic probing and TCP's own
//! sampling (§3.3).

use crate::error::PredictError;
use crate::formulas::{self, pftk, pftk_full, pftk_revised, PftkParams};
use crate::hb::MovingAverage;
use crate::predictor::{EpochFeatures, EpochObservation, Predictor, Update};
use serde::{Deserialize, Serialize};

/// A-priori path measurements available before the target flow starts.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PathEstimates {
    /// RTT in seconds (`T̂`), e.g. the mean of periodic ping RTTs.
    pub rtt: f64,
    /// Loss rate in `[0, 1]` (`p̂`) from periodic probing. Exactly `0.0`
    /// selects the lossless branch of Eq. (3).
    pub loss_rate: f64,
    /// Available bandwidth in bits/s (`Â`) from a pathload-style
    /// estimator. Only used when `loss_rate == 0`.
    pub avail_bw: f64,
}

/// A-priori measurements where any value may be missing — the input shape
/// of a *degraded* epoch, where a fault (ping outage, pathload abort) ate
/// one or more measurements. [`FbPredictor::try_predict`] accepts this and
/// degrades per measurement instead of refusing the whole epoch.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct PartialEstimates {
    /// RTT in seconds (`T̂`), if the ping prober produced a summary.
    pub rtt: Option<f64>,
    /// Loss rate in `[0, 1]` (`p̂`), if the ping prober produced a summary.
    pub loss_rate: Option<f64>,
    /// Available bandwidth in bits/s (`Â`), if pathload converged.
    pub avail_bw: Option<f64>,
}

impl From<PathEstimates> for PartialEstimates {
    fn from(est: PathEstimates) -> Self {
        PartialEstimates {
            rtt: Some(est.rtt),
            loss_rate: Some(est.loss_rate),
            avail_bw: Some(est.avail_bw),
        }
    }
}

/// Which throughput model the lossy branch of Eq. (3) plugs estimates into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum FbModel {
    /// The PFTK approximation — the paper's default (Eq. 2).
    #[default]
    PftkSimple,
    /// The full PFTK model (PFTK eqs. 29–31).
    PftkFull,
    /// The revised PFTK variant (§4.2.9, Fig. 13).
    PftkRevised,
    /// The Mathis square-root law (Eq. 1), window-capped.
    Mathis,
}

/// Configuration of the FB predictor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FbConfig {
    /// Segment size `M` in bytes.
    pub mss: u32,
    /// Segments per ACK (`b`; 2 with delayed ACKs).
    pub b: f64,
    /// Maximum window `W` in bytes — the target flow's socket buffer
    /// (1 MB for the paper's congestion-limited transfers, 20 KB for the
    /// window-limited ones).
    pub max_window: u32,
    /// Throughput model for the lossy branch.
    pub model: FbModel,
}

impl Default for FbConfig {
    fn default() -> Self {
        FbConfig {
            mss: formulas::DEFAULT_MSS,
            b: formulas::DEFAULT_B,
            max_window: 1 << 20, // 1 MB, the paper's default W
            model: FbModel::PftkSimple,
        }
    }
}

/// The FB predictor of Eq. (3).
///
/// # Examples
///
/// ```
/// use tputpred_core::fb::{FbPredictor, PathEstimates};
///
/// let fb = FbPredictor::default();
/// // Lossy path: the PFTK branch applies.
/// let lossy = fb.predict(&PathEstimates { rtt: 0.08, loss_rate: 0.01, avail_bw: 50e6 });
/// // Lossless path: min(W/T̂, Â).
/// let lossless = fb.predict(&PathEstimates { rtt: 0.08, loss_rate: 0.0, avail_bw: 50e6 });
/// assert!(lossy < lossless);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct FbPredictor {
    config: FbConfig,
}

impl FbPredictor {
    /// Creates a predictor with the given configuration.
    pub fn new(config: FbConfig) -> Self {
        FbPredictor { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &FbConfig {
        &self.config
    }

    /// Predicts the target flow's throughput (bits/s) from a-priori
    /// estimates, per Eq. (3).
    ///
    /// # Panics
    ///
    /// Panics (debug) on non-positive RTT, loss rate outside `[0, 1]`, or
    /// negative avail-bw.
    pub fn predict(&self, est: &PathEstimates) -> f64 {
        debug_assert!(est.rtt > 0.0, "FB: non-positive RTT estimate");
        debug_assert!(
            (0.0..=1.0).contains(&est.loss_rate),
            "FB: loss rate {} outside [0, 1]",
            est.loss_rate
        );
        debug_assert!(est.avail_bw >= 0.0, "FB: negative avail-bw");
        let window_limit = 8.0 * self.config.max_window as f64 / est.rtt;
        if est.loss_rate > 0.0 {
            f64::min(self.lossy_model_rate(est.rtt, est.loss_rate), window_limit)
        } else {
            f64::min(window_limit, est.avail_bw)
        }
    }

    /// Eq. (3)'s lossy branch: the configured model's rate, uncapped.
    fn lossy_model_rate(&self, rtt: f64, loss_rate: f64) -> f64 {
        let params = PftkParams {
            mss: self.config.mss,
            rtt,
            rto: formulas::rto_estimate(rtt),
            b: self.config.b,
            p: loss_rate,
            max_window: self.config.max_window,
        };
        match self.config.model {
            FbModel::PftkSimple => pftk(&params),
            FbModel::PftkFull => pftk_full(&params),
            FbModel::PftkRevised => pftk_revised(&params),
            FbModel::Mathis => formulas::mathis(self.config.mss, rtt, self.config.b, loss_rate),
        }
    }

    /// Eq. (3) over possibly-incomplete estimates, degrading per missing
    /// measurement instead of panicking:
    ///
    /// * `T̂` missing → [`PredictError::MissingRtt`] (every branch needs it);
    /// * `p̂ > 0` → the loss-based model, window-capped — `Â` is not needed,
    ///   so a failed pathload run costs nothing on lossy paths;
    /// * `p̂ = 0` with `Â` present → `min(W/T̂, Â)` as usual;
    /// * `p̂ = 0` with `Â` missing → the bare window bound `W/T̂` (the only
    ///   surviving term of the lossless branch);
    /// * `p̂` missing with `Â` present → `min(W/T̂, Â)`: without loss
    ///   evidence the lossless branch is the best remaining estimate;
    /// * both `p̂` and `Â` missing → [`PredictError::MissingLossAndAvailBw`].
    ///
    /// Out-of-domain values yield [`PredictError::InvalidEstimate`] naming
    /// the offending field, never a NaN.
    pub fn try_predict(&self, est: &PartialEstimates) -> Result<f64, PredictError> {
        let out = self.try_predict_inner(est);
        // Observation-only tallies; no-ops unless profiling is enabled.
        match &out {
            Ok(_) => tputpred_obs::counter!("core.fb.predictions").add(1),
            Err(_) => tputpred_obs::counter!("core.fb.refusals").add(1),
        }
        out
    }

    fn try_predict_inner(&self, est: &PartialEstimates) -> Result<f64, PredictError> {
        let rtt = est.rtt.ok_or(PredictError::MissingRtt)?;
        if !rtt.is_finite() || rtt <= 0.0 {
            return Err(PredictError::InvalidEstimate("rtt"));
        }
        if let Some(p) = est.loss_rate {
            if !(0.0..=1.0).contains(&p) {
                return Err(PredictError::InvalidEstimate("loss_rate"));
            }
        }
        if let Some(a) = est.avail_bw {
            if !a.is_finite() || a < 0.0 {
                return Err(PredictError::InvalidEstimate("avail_bw"));
            }
        }
        let window_limit = 8.0 * self.config.max_window as f64 / rtt;
        match (est.loss_rate, est.avail_bw) {
            (Some(p), _) if p > 0.0 => Ok(f64::min(self.lossy_model_rate(rtt, p), window_limit)),
            (Some(_), Some(a)) | (None, Some(a)) => Ok(f64::min(window_limit, a)),
            (Some(_), None) => Ok(window_limit),
            (None, None) => Err(PredictError::MissingLossAndAvailBw),
        }
    }

    /// True when the flow would be *window-limited* on this path:
    /// `W/T̂ < Â` (§4.2.8). Window-limited flows do not attempt to
    /// saturate the path and have far more predictable throughput.
    pub fn is_window_limited(&self, est: &PathEstimates) -> bool {
        8.0 * self.config.max_window as f64 / est.rtt < est.avail_bw
    }
}

/// FB on the unified trait: prediction delegates to the inherent
/// [`FbPredictor::try_predict`] over the epoch's probe features; the
/// formula is stateless, so observations are [`Update::Skipped`].
impl Predictor for FbPredictor {
    fn try_predict(&self, features: &EpochFeatures) -> Result<f64, PredictError> {
        FbPredictor::try_predict(self, &features.probes)
    }

    fn observe(&mut self, _epoch: &EpochObservation) -> Update {
        Update::Skipped
    }

    fn reset(&mut self) {}

    // lint:hot-path
    fn name(&self) -> &str {
        "FB"
    }
}

/// §4.2.10: FB prediction fed with *history-smoothed* RTT and loss-rate
/// estimates instead of the single most recent measurement.
///
/// Maintains an n-order Moving Average (the paper uses n = 10) over past
/// per-epoch measurements of `T̂` and `p̂`; prediction uses the smoothed
/// values — *including* the fresh features being predicted from — and the
/// latest avail-bw in Eq. (3). Missing probe measurements simply don't
/// enter the averages; an epoch with neither RTT nor loss is a state
/// no-op.
///
/// # Examples
///
/// ```
/// use tputpred_core::fb::{PathEstimates, SmoothedFbPredictor};
/// use tputpred_core::predictor::{EpochFeatures, EpochObservation, Predictor};
///
/// let mut s = SmoothedFbPredictor::new(Default::default(), 10);
/// let stable = PathEstimates { rtt: 0.08, loss_rate: 0.01, avail_bw: 10e6 };
/// for _ in 0..5 {
///     s.observe(&EpochObservation::new(stable.into(), None));
/// }
/// // A single noisy RTT spike barely moves the smoothed prediction.
/// let noisy = PathEstimates { rtt: 0.30, loss_rate: 0.01, avail_bw: 10e6 };
/// let smoothed = s.try_predict(&noisy.into()).unwrap();
/// let unsmoothed = tputpred_core::fb::FbPredictor::default().predict(&noisy);
/// assert!(smoothed > unsmoothed);
/// ```
#[derive(Debug, Clone)]
pub struct SmoothedFbPredictor {
    fb: FbPredictor,
    rtt_ma: MovingAverage,
    loss_ma: MovingAverage,
}

impl SmoothedFbPredictor {
    /// Creates a smoothed FB predictor averaging the last `n` measurement
    /// epochs.
    pub fn new(config: FbConfig, n: usize) -> Self {
        SmoothedFbPredictor {
            fb: FbPredictor::new(config),
            rtt_ma: MovingAverage::new(n),
            loss_ma: MovingAverage::new(n),
        }
    }
}

/// Prediction smooths the offered RTT/loss into the history *as if
/// observed* (without mutating it — [`MovingAverage::forecast_with`]),
/// exactly the paper's protocol where each epoch's fresh measurement
/// joins the average before predicting. Observing an epoch then
/// ingests its features for real.
impl Predictor for SmoothedFbPredictor {
    fn try_predict(&self, features: &EpochFeatures) -> Result<f64, PredictError> {
        let smooth = |ma: &MovingAverage, fresh: Option<f64>| match fresh {
            Some(x) => ma.forecast_with(x).or(fresh),
            None => ma.forecast(),
        };
        let smoothed = PartialEstimates {
            rtt: smooth(&self.rtt_ma, features.probes.rtt),
            loss_rate: smooth(&self.loss_ma, features.probes.loss_rate),
            avail_bw: features.probes.avail_bw,
        };
        self.fb.try_predict(&smoothed)
    }

    fn observe(&mut self, epoch: &EpochObservation) -> Update {
        let mut ingested = false;
        if let Some(rtt) = epoch.features.probes.rtt {
            self.rtt_ma.update(rtt);
            ingested = true;
        }
        if let Some(p) = epoch.features.probes.loss_rate {
            self.loss_ma.update(p);
            ingested = true;
        }
        if ingested {
            Update::Accepted
        } else {
            Update::Skipped
        }
    }

    fn reset(&mut self) {
        self.rtt_ma.reset();
        self.loss_ma.reset();
    }

    // lint:hot-path
    fn name(&self) -> &str {
        "FB-smoothed"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn est(rtt: f64, p: f64, a: f64) -> PathEstimates {
        PathEstimates {
            rtt,
            loss_rate: p,
            avail_bw: a,
        }
    }

    #[test]
    fn lossless_branch_takes_min_of_window_and_availbw() {
        let fb = FbPredictor::default(); // W = 1 MB
                                         // W/T = 8·2²⁰/0.1 ≈ 83.9 Mbps; avail-bw 10 Mbps wins.
        let r = fb.predict(&est(0.1, 0.0, 10e6));
        assert_eq!(r, 10e6);
        // Tiny window: W/T wins.
        let fb_small = FbPredictor::new(FbConfig {
            max_window: 20 * 1024,
            ..Default::default()
        });
        let r = fb_small.predict(&est(0.1, 0.0, 10e6));
        assert!((r - 8.0 * 20.0 * 1024.0 / 0.1).abs() < 1.0);
    }

    #[test]
    fn lossy_branch_uses_pftk() {
        let fb = FbPredictor::default();
        let r = fb.predict(&est(0.08, 0.01, 100e6));
        let expected = pftk(&PftkParams {
            mss: formulas::DEFAULT_MSS,
            rtt: 0.08,
            rto: 1.0,
            b: 2.0,
            p: 0.01,
            max_window: 1 << 20,
        });
        assert_eq!(r, expected);
    }

    #[test]
    fn rto_floor_affects_lossy_prediction() {
        // Same loss, RTT above the floor → RTO = 2·T̂ reduces throughput
        // more than linearly in RTT.
        let fb = FbPredictor::default();
        let r_short = fb.predict(&est(0.04, 0.05, 100e6));
        let r_long = fb.predict(&est(0.8, 0.05, 100e6));
        assert!(r_short > r_long);
    }

    #[test]
    fn higher_loss_predicts_lower_throughput() {
        let fb = FbPredictor::default();
        let r1 = fb.predict(&est(0.08, 0.001, 100e6));
        let r2 = fb.predict(&est(0.08, 0.01, 100e6));
        let r3 = fb.predict(&est(0.08, 0.1, 100e6));
        assert!(r1 > r2 && r2 > r3);
    }

    #[test]
    fn window_limited_classification() {
        let fb = FbPredictor::new(FbConfig {
            max_window: 20 * 1024,
            ..Default::default()
        });
        // W/T = 8·20·1024/0.1 ≈ 1.64 Mbps < 10 Mbps avail.
        assert!(fb.is_window_limited(&est(0.1, 0.0, 10e6)));
        // 1 MB window on the same path is not.
        assert!(!FbPredictor::default().is_window_limited(&est(0.1, 0.0, 10e6)));
    }

    #[test]
    fn all_models_are_window_capped() {
        for model in [
            FbModel::PftkSimple,
            FbModel::PftkFull,
            FbModel::PftkRevised,
            FbModel::Mathis,
        ] {
            let fb = FbPredictor::new(FbConfig {
                max_window: 16 * 1024,
                model,
                ..Default::default()
            });
            // Near-zero loss would predict huge throughput; cap must hold.
            let r = fb.predict(&est(0.05, 1e-7, 1e9));
            let cap = 8.0 * 16.0 * 1024.0 / 0.05;
            assert!(r <= cap + 1e-6, "{model:?}: {r} > cap {cap}");
        }
    }

    #[test]
    fn smoothed_predictor_resists_single_epoch_noise() {
        let mut s = SmoothedFbPredictor::new(FbConfig::default(), 10);
        let stable = est(0.05, 0.01, 10e6);
        for _ in 0..9 {
            s.observe(&EpochObservation::new(stable.into(), None));
        }
        let spike = est(0.5, 0.1, 10e6);
        let smoothed = s.try_predict(&spike.into()).unwrap();
        let unsmoothed = FbPredictor::default().predict(&spike);
        assert!(
            smoothed > 2.0 * unsmoothed,
            "smoothing should dampen the spike: {smoothed} vs {unsmoothed}"
        );
    }

    #[test]
    fn smoothed_predictor_with_no_history_matches_plain_fb() {
        let s = SmoothedFbPredictor::new(FbConfig::default(), 10);
        let e = est(0.08, 0.02, 10e6);
        let a = s.try_predict(&e.into()).unwrap();
        let b = FbPredictor::default().predict(&e);
        assert_eq!(a, b);
    }

    #[test]
    fn smoothed_predictor_skips_featureless_epochs() {
        let mut s = SmoothedFbPredictor::new(FbConfig::default(), 10);
        assert_eq!(s.observe(&EpochObservation::GAP), Update::Skipped);
        assert_eq!(
            s.observe(&EpochObservation::sample(5e6)),
            Update::Skipped,
            "throughput alone carries nothing the formula smooths"
        );
        let e = est(0.08, 0.02, 10e6);
        s.observe(&EpochObservation::new(e.into(), None));
        assert!(s.try_predict(&e.into()).is_ok());
    }

    #[test]
    fn fb_trait_impl_matches_inherent_try_predict() {
        let fb = FbPredictor::default();
        for e in [est(0.08, 0.01, 50e6), est(0.1, 0.0, 10e6)] {
            let features = EpochFeatures::from(e);
            assert_eq!(
                Predictor::try_predict(&fb, &features),
                fb.try_predict(&e.into())
            );
        }
        let mut fb = fb;
        assert_eq!(
            fb.observe(&EpochObservation::sample(5e6)),
            Update::Skipped,
            "the formula is stateless"
        );
        assert_eq!(Predictor::name(&fb), "FB");
    }

    #[test]
    fn try_predict_on_complete_estimates_matches_predict() {
        let fb = FbPredictor::default();
        for e in [est(0.08, 0.01, 50e6), est(0.1, 0.0, 10e6)] {
            assert_eq!(fb.try_predict(&e.into()), Ok(fb.predict(&e)));
        }
    }

    #[test]
    fn try_predict_lossy_path_ignores_missing_availbw() {
        // Pathload aborted, but loss evidence selects the PFTK branch,
        // which never consults Â: prediction is unchanged.
        let fb = FbPredictor::default();
        let degraded = PartialEstimates {
            rtt: Some(0.08),
            loss_rate: Some(0.01),
            avail_bw: None,
        };
        assert_eq!(
            fb.try_predict(&degraded),
            Ok(fb.predict(&est(0.08, 0.01, 50e6)))
        );
    }

    #[test]
    fn try_predict_lossless_without_availbw_degrades_to_window_bound() {
        let fb = FbPredictor::default();
        let degraded = PartialEstimates {
            rtt: Some(0.1),
            loss_rate: Some(0.0),
            avail_bw: None,
        };
        let r = fb.try_predict(&degraded).unwrap();
        assert!((r - 8.0 * (1u32 << 20) as f64 / 0.1).abs() < 1.0);
    }

    #[test]
    fn try_predict_missing_loss_uses_lossless_branch() {
        let fb = FbPredictor::default();
        let degraded = PartialEstimates {
            rtt: Some(0.1),
            loss_rate: None,
            avail_bw: Some(10e6),
        };
        assert_eq!(fb.try_predict(&degraded), Ok(10e6));
    }

    #[test]
    fn try_predict_typed_errors_for_unusable_epochs() {
        use crate::error::PredictError;
        let fb = FbPredictor::default();
        let no_rtt = PartialEstimates {
            rtt: None,
            loss_rate: Some(0.01),
            avail_bw: Some(10e6),
        };
        assert_eq!(fb.try_predict(&no_rtt), Err(PredictError::MissingRtt));
        let only_rtt = PartialEstimates {
            rtt: Some(0.1),
            loss_rate: None,
            avail_bw: None,
        };
        assert_eq!(
            fb.try_predict(&only_rtt),
            Err(PredictError::MissingLossAndAvailBw)
        );
        let bad_rtt = PartialEstimates {
            rtt: Some(-0.1),
            loss_rate: Some(0.0),
            avail_bw: Some(10e6),
        };
        assert_eq!(
            fb.try_predict(&bad_rtt),
            Err(PredictError::InvalidEstimate("rtt"))
        );
        let bad_loss = PartialEstimates {
            rtt: Some(0.1),
            loss_rate: Some(1.5),
            avail_bw: None,
        };
        assert_eq!(
            fb.try_predict(&bad_loss),
            Err(PredictError::InvalidEstimate("loss_rate"))
        );
        let bad_abw = PartialEstimates {
            rtt: Some(0.1),
            loss_rate: Some(0.0),
            avail_bw: Some(f64::NAN),
        };
        assert_eq!(
            fb.try_predict(&bad_abw),
            Err(PredictError::InvalidEstimate("avail_bw"))
        );
    }

    #[test]
    fn zero_availbw_on_lossless_path_predicts_zero() {
        // Degenerate but valid: a fully utilised lossless path.
        let fb = FbPredictor::default();
        assert_eq!(fb.predict(&est(0.1, 0.0, 0.0)), 0.0);
    }
}
