//! The unified predictor trait: one gap-tolerant API for every
//! predictor family — formula-based, history-based, and the hybrid /
//! regression / conditional families built on top of both.
//!
//! Before this module, HB predictors implemented a series-only trait
//! (`update(f64)` / `predict() -> Option<f64>`) while FB had an
//! incompatible bespoke signature (`try_predict(&PartialEstimates)`).
//! [`Predictor`] unifies them around the shapes the testbed actually
//! produces:
//!
//! * **in** — an [`EpochObservation`]: what one measurement epoch
//!   yielded. Every part is `Option`-typed because every part can be
//!   eaten by a fault (ping outage, pathload abort, failed transfer —
//!   DESIGN.md §10).
//! * **out** — `Result<f64, PredictError>`: a throughput forecast in
//!   bits/s or a typed refusal, never a NaN.
//!
//! # Gap semantics
//!
//! Observing an epoch whose parts are all `None` (a *gap*) is a state
//! no-op: the predictor must neither learn nor reset, and reports
//! [`Update::Skipped`]. This makes every predictor safe to drive over
//! faulty histories — a gap can never masquerade as a level shift or an
//! outlier — and is property-tested (`core/tests/gap_tolerance.rs` and
//! `core/tests/family_gap_tolerance.rs`): evaluating over a gappy
//! stream must equal evaluating over the same stream with the gaps
//! removed, bit for bit.

use crate::error::PredictError;
use crate::fb::{PartialEstimates, PathEstimates};

/// A-priori features of one epoch, available *before* the target
/// transfer starts: probe-derived path estimates plus derived
/// conditioning signals.
///
/// Purely historical (series-only) predictors ignore this entirely;
/// formula-backed predictors require at least `probes.rtt`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EpochFeatures {
    /// Probe measurements (RTT, loss rate, avail-bw), each possibly
    /// missing — the same shape [`crate::fb::FbPredictor::try_predict`]
    /// accepts.
    pub probes: PartialEstimates,
    /// RTT coefficient of variation over recent probe rounds, if the
    /// caller computed one (e.g. [`tputpred_stats::RollingCov`]).
    /// Consumed by [`crate::gated::RttCvGated`]; `None` lets that
    /// predictor fall back to its own internal estimate.
    pub rtt_cv: Option<f64>,
}

impl EpochFeatures {
    /// The featureless epoch: every field missing. The forecast input
    /// for pure series protocols ([`crate::metrics::evaluate_gappy`]).
    pub const NONE: EpochFeatures = EpochFeatures {
        probes: PartialEstimates {
            rtt: None,
            loss_rate: None,
            avail_bw: None,
        },
        rtt_cv: None,
    };
}

impl From<PartialEstimates> for EpochFeatures {
    fn from(probes: PartialEstimates) -> Self {
        EpochFeatures {
            probes,
            rtt_cv: None,
        }
    }
}

impl From<PathEstimates> for EpochFeatures {
    fn from(est: PathEstimates) -> Self {
        EpochFeatures {
            probes: est.into(),
            rtt_cv: None,
        }
    }
}

/// Everything one measurement epoch produced: the a-priori features
/// and, once the epoch completed, the measured transfer throughput.
///
/// `throughput_bps` is `None` when the transfer failed or went
/// unmeasured — the predictor sees the features (if any) but has no
/// target to learn from.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EpochObservation {
    /// The epoch's a-priori features.
    pub features: EpochFeatures,
    /// Measured throughput of the epoch's transfer, in bits/s.
    pub throughput_bps: Option<f64>,
}

impl EpochObservation {
    /// A fully failed epoch: no features, no throughput. Observing it
    /// must be a state no-op ([`Update::Skipped`]).
    pub const GAP: EpochObservation = EpochObservation {
        features: EpochFeatures::NONE,
        throughput_bps: None,
    };

    /// Bundles features with a (possibly missing) measured throughput.
    pub fn new(features: EpochFeatures, throughput_bps: Option<f64>) -> Self {
        EpochObservation {
            features,
            throughput_bps,
        }
    }

    /// A featureless throughput sample — the series-only protocol of
    /// the paper's HB evaluation, used by [`Predictor::update`].
    pub fn sample(throughput_bps: f64) -> Self {
        EpochObservation {
            features: EpochFeatures::NONE,
            throughput_bps: Some(throughput_bps),
        }
    }
}

/// What happened inside a predictor when an epoch was observed.
///
/// Plain linear predictors report [`Update::Accepted`] for every
/// throughput sample; the [`crate::lso::Lso`] wrapper reports the §5.2
/// events so evaluation can exclude outlier samples from RMSRE, as
/// §6.1.3 prescribes. The `retained` fields let composite predictors
/// (e.g. [`crate::hybrid::HybridPredictor`]) track the surviving
/// history length without reaching into the reporter's internals.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum Update {
    /// The observation entered the predictor's history.
    #[default]
    Accepted,
    /// The observation carried nothing this predictor ingests (a gap,
    /// or a throughput-only epoch fed to a stateless formula): state
    /// is unchanged.
    Skipped,
    /// Samples (identified by their 0-based absolute positions in the
    /// ingested series) were classified as outliers and removed from
    /// the history, leaving `retained` samples.
    OutliersDiscarded {
        /// Absolute positions of the discarded samples.
        positions: Vec<usize>,
        /// History size after the removal.
        retained: usize,
    },
    /// A level shift was detected beginning at the given absolute
    /// sample position; history before it was dropped (leaving
    /// `retained` samples) and the predictor restarted.
    LevelShift {
        /// Absolute position at which the shift begins.
        start: usize,
        /// History size after the restart.
        retained: usize,
    },
}

/// Maps a raw optional forecast to the typed result contract: `None`
/// becomes [`PredictError::InsufficientHistory`], and a non-finite
/// forecast (a predictor poisoned by degraded input) becomes
/// [`PredictError::InvalidEstimate`] instead of leaking a NaN into
/// error metrics.
pub(crate) fn typed_forecast(forecast: Option<f64>) -> Result<f64, PredictError> {
    match forecast {
        None => Err(PredictError::InsufficientHistory),
        Some(f) if !f.is_finite() => Err(PredictError::InvalidEstimate("forecast")),
        Some(f) => Ok(f),
    }
}

/// A one-step-ahead throughput predictor over measurement epochs.
///
/// The contract mirrors how the paper uses predictors: before epoch
/// `i+1`'s transfer starts, [`Predictor::try_predict`] is given the
/// fresh a-priori features and must forecast the transfer's throughput
/// (bits/s) from them plus whatever history earlier
/// [`Predictor::observe`] calls accumulated — predictions use only
/// *past* transfers and *current* probes.
///
/// Implementations must:
///
/// * treat [`EpochObservation::GAP`] as a state no-op (return
///   [`Update::Skipped`]; see the module docs on gap semantics);
/// * keep [`Predictor::try_predict`] free of side effects — it may be
///   called any number of times (including zero) between observations;
/// * return a cached name, formatted at most once: figure binaries
///   call [`Predictor::name`] in per-sample label loops, and the league
///   builds predictors by the thousand without asking for one.
pub trait Predictor {
    /// Forecasts the next transfer's throughput (bits/s) from the
    /// epoch's a-priori features and the accumulated history, or
    /// refuses with a typed [`PredictError`].
    fn try_predict(&self, features: &EpochFeatures) -> Result<f64, PredictError>;

    /// Ingests one completed epoch; returns what the predictor did
    /// with it.
    fn observe(&mut self, epoch: &EpochObservation) -> Update;

    /// Drops all history, returning the predictor to its initial state.
    fn reset(&mut self);

    /// Short human-readable name, e.g. `"10-MA"`, used in figure
    /// labels. Cached — no per-call allocation.
    fn name(&self) -> &str;

    /// [`Predictor::try_predict`] as an `Option`, for call sites that
    /// don't care *why* a forecast is unavailable.
    fn predict(&self, features: &EpochFeatures) -> Option<f64> {
        self.try_predict(features).ok()
    }

    /// Featureless forecast — the series-only protocol: what the
    /// predictor expects the next throughput to be from history alone.
    fn forecast(&self) -> Option<f64> {
        self.predict(&EpochFeatures::NONE)
    }

    /// Ingests a featureless throughput sample — the series-only
    /// protocol of the paper's HB evaluation (§5).
    fn update(&mut self, x: f64) -> Update {
        self.observe(&EpochObservation::sample(x))
    }
}

/// Blanket impl so `&mut P` is a predictor too.
impl<P: Predictor + ?Sized> Predictor for &mut P {
    fn try_predict(&self, features: &EpochFeatures) -> Result<f64, PredictError> {
        (**self).try_predict(features)
    }
    fn observe(&mut self, epoch: &EpochObservation) -> Update {
        (**self).observe(epoch)
    }
    fn reset(&mut self) {
        (**self).reset()
    }
    fn name(&self) -> &str {
        (**self).name()
    }
}

impl Predictor for Box<dyn Predictor + Send> {
    fn try_predict(&self, features: &EpochFeatures) -> Result<f64, PredictError> {
        (**self).try_predict(features)
    }
    fn observe(&mut self, epoch: &EpochObservation) -> Update {
        (**self).observe(epoch)
    }
    fn reset(&mut self) {
        (**self).reset()
    }
    fn name(&self) -> &str {
        (**self).name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hb::MovingAverage;

    #[test]
    fn trait_objects_forward_calls() {
        let mut boxed: Box<dyn Predictor + Send> = Box::new(MovingAverage::new(2));
        assert_eq!(boxed.forecast(), None);
        boxed.update(1.0);
        boxed.update(3.0);
        assert_eq!(boxed.forecast(), Some(2.0));
        assert_eq!(boxed.name(), "2-MA");
        boxed.reset();
        assert_eq!(boxed.forecast(), None);
    }

    #[test]
    fn try_predict_types_the_warmup_refusal() {
        let mut ma = MovingAverage::new(2);
        assert_eq!(
            ma.try_predict(&EpochFeatures::NONE),
            Err(PredictError::InsufficientHistory)
        );
        ma.update(3.0);
        assert_eq!(ma.try_predict(&EpochFeatures::NONE), Ok(3.0));
    }

    #[test]
    fn mut_ref_is_a_predictor() {
        fn feed<P: Predictor>(mut p: P) -> Option<f64> {
            p.update(4.0);
            p.forecast()
        }
        let mut ma = MovingAverage::new(1);
        assert_eq!(feed(&mut ma), Some(4.0));
    }

    #[test]
    fn gap_observation_is_a_state_noop() {
        let mut ma = MovingAverage::new(3);
        ma.update(10.0);
        let before = ma.forecast();
        assert_eq!(ma.observe(&EpochObservation::GAP), Update::Skipped);
        assert_eq!(ma.forecast(), before);
    }

    #[test]
    fn sample_constructor_carries_only_throughput() {
        let obs = EpochObservation::sample(5e6);
        assert_eq!(obs.throughput_bps, Some(5e6));
        assert_eq!(obs.features, EpochFeatures::NONE);
    }

    #[test]
    fn features_convert_from_estimate_shapes() {
        let full = PathEstimates {
            rtt: 0.08,
            loss_rate: 0.01,
            avail_bw: 5e7,
        };
        let f: EpochFeatures = full.into();
        assert_eq!(f.probes.rtt, Some(0.08));
        assert_eq!(f.rtt_cv, None);
        let partial = PartialEstimates {
            rtt: Some(0.1),
            loss_rate: None,
            avail_bw: None,
        };
        let g: EpochFeatures = partial.into();
        assert_eq!(g.probes, partial);
    }
}
