//! An empirical-conditional predictor: forecast the *median of past
//! throughputs observed under similar probe conditions*, in the spirit
//! of data-driven end-to-end predictors that learn the mapping from
//! path state to transfer rate directly from observations rather than
//! through a closed-form model (cf. arXiv:2111.14080).
//!
//! Where FB commits to Eq. (3)'s functional form and HB ignores probe
//! state entirely, this family bins history by a coarse quantisation of
//! the a-priori features — a log₂ bucket of available bandwidth and a
//! decade bucket of loss rate — and answers queries from the matching
//! bin. It therefore inherits HB's robustness to model error *and*
//! FB's ability to react instantly when probes show the path changed
//! regime (the query lands in a different, already-populated bin).

use crate::error::PredictError;
use crate::predictor::{typed_forecast, EpochFeatures, EpochObservation, Predictor, Update};
use std::collections::{BTreeMap, VecDeque};
use tputpred_stats::quantile::quantile_sorted;

/// Coarse, order-preserving bin key for one epoch's probe features.
///
/// `None` components are their own bin: "probe missing" is itself a
/// path condition worth conditioning on (fault injection, DESIGN.md
/// §10, produces exactly such epochs).
type BinKey = (Option<i16>, Option<u8>);

/// Predicts the median throughput of past epochs whose probe features
/// fell in the same bin.
///
/// Deterministic by construction: bins live in a [`BTreeMap`] (ordered
/// iteration) and each bin is a bounded FIFO of samples.
///
/// Every bin, and the whole history, is also kept sorted as samples
/// arrive and age out, so a forecast reads its median in place
/// instead of copying and sorting the samples. The sorted orders are
/// those a stable sort gives (equal values by bin key, then age), so
/// the medians are those of sorting afresh, bit for bit.
///
/// # Examples
///
/// ```
/// use tputpred_core::conditional::ConditionalPredictor;
/// use tputpred_core::fb::PathEstimates;
/// use tputpred_core::predictor::{EpochObservation, Predictor};
///
/// let mut c = ConditionalPredictor::new();
/// let calm = PathEstimates { rtt: 0.05, loss_rate: 0.0, avail_bw: 80e6 };
/// let busy = PathEstimates { rtt: 0.05, loss_rate: 0.02, avail_bw: 2e6 };
/// for _ in 0..5 {
///     c.observe(&EpochObservation::new(calm.into(), Some(60e6)));
///     c.observe(&EpochObservation::new(busy.into(), Some(1.5e6)));
/// }
/// // The probes alone select the right regime:
/// assert_eq!(c.try_predict(&calm.into()), Ok(60e6));
/// assert_eq!(c.try_predict(&busy.into()), Ok(1.5e6));
/// ```
#[derive(Debug, Clone, Default)]
pub struct ConditionalPredictor {
    bins: BTreeMap<BinKey, Bin>,
    /// Every retained sample, ascending; equal values ordered by bin
    /// key, then age.
    history: Vec<f64>,
    /// The bin of each entry of `history`.
    history_bins: Vec<BinKey>,
}

/// One feature bin's samples.
#[derive(Debug, Clone, Default)]
struct Bin {
    /// In arrival order, oldest first: the eviction order.
    fifo: VecDeque<f64>,
    /// The same samples ascending; equal values oldest first.
    sorted: Vec<f64>,
}

/// Samples a bin retains (older ones age out FIFO).
const PER_BIN_CAP: usize = 64;

/// Samples a bin needs before it answers queries itself (below this the
/// global median answers instead).
const MIN_BIN: usize = 3;

/// Log₂ bucket of available bandwidth in Mbps, clamped to `[-8, 12]`
/// (≈ 4 kbit/s … 4 Gbit/s — beyond either end, finer distinctions
/// don't change transfer behaviour).
fn abw_bucket(avail_bw_bps: f64) -> Option<i16> {
    if avail_bw_bps <= 0.0 {
        return None;
    }
    let bucket = (avail_bw_bps / 1e6).log2().floor();
    Some((bucket as i16).clamp(-8, 12))
}

/// Decade bucket of loss rate: lossless, ≤0.1%, ≤1%, heavy.
fn loss_bucket(loss_rate: f64) -> u8 {
    if loss_rate <= 0.0 {
        0
    } else if loss_rate <= 0.001 {
        1
    } else if loss_rate <= 0.01 {
        2
    } else {
        3
    }
}

fn bin_key(features: &EpochFeatures) -> BinKey {
    (
        features.probes.avail_bw.and_then(abw_bucket),
        features.probes.loss_rate.map(loss_bucket),
    )
}

impl ConditionalPredictor {
    /// Creates an empty conditional predictor.
    pub fn new() -> Self {
        ConditionalPredictor::default()
    }

    /// Number of non-empty feature bins currently held.
    pub fn bin_count(&self) -> usize {
        self.bins.len()
    }

    /// Where `(x, key)` goes in the history: after every smaller value
    /// and, among values equal to `x`, after those of lower bins and
    /// (when `after_own`) of its own bin.
    fn history_slot(&self, x: f64, key: BinKey, after_own: bool) -> usize {
        let lo = self.history.partition_point(|&y| y < x);
        let hi = lo + self.history[lo..].partition_point(|&y| y <= x);
        lo + self.history_bins[lo..hi].partition_point(|&k| k < key || (after_own && k == key))
    }
}

impl Predictor for ConditionalPredictor {
    /// Answers with the matching bin's median when that bin holds at
    /// least `MIN_BIN` samples; with the global median across all
    /// bins when it doesn't (a fresh regime borrows the path's overall
    /// level until it earns its own history); and refuses with
    /// [`PredictError::InsufficientHistory`] only before any transfer
    /// has been observed at all.
    fn try_predict(&self, features: &EpochFeatures) -> Result<f64, PredictError> {
        let bin = self
            .bins
            .get(&bin_key(features))
            .filter(|bin| bin.sorted.len() >= MIN_BIN)
            .map(|bin| quantile_sorted(&bin.sorted, 0.5));
        let global = || (!self.history.is_empty()).then(|| quantile_sorted(&self.history, 0.5));
        typed_forecast(bin.or_else(global))
    }

    /// Files the epoch's throughput under its feature bin. Epochs
    /// without a measured throughput change nothing
    /// ([`Update::Skipped`]) — in particular they do *not* create an
    /// empty bin, so prediction is a pure function of the transfers
    /// actually observed.
    fn observe(&mut self, epoch: &EpochObservation) -> Update {
        let Some(x_bps) = epoch.throughput_bps else {
            return Update::Skipped;
        };
        debug_assert!(!x_bps.is_nan(), "NaN sample");
        let key = bin_key(&epoch.features);
        let bin = self.bins.entry(key).or_default();
        let evicted = if bin.fifo.len() == PER_BIN_CAP {
            bin.fifo.pop_front()
        } else {
            None
        };
        if let Some(old) = evicted {
            // The oldest sample comes first among its equals.
            let at = bin.sorted.partition_point(|&y| y < old);
            bin.sorted.remove(at);
        }
        bin.fifo.push_back(x_bps);
        let at = bin.sorted.partition_point(|&y| y <= x_bps);
        bin.sorted.insert(at, x_bps);
        if let Some(old) = evicted {
            let at = self.history_slot(old, key, false);
            self.history.remove(at);
            self.history_bins.remove(at);
        }
        let at = self.history_slot(x_bps, key, true);
        self.history.insert(at, x_bps);
        self.history_bins.insert(at, key);
        Update::Accepted
    }

    fn reset(&mut self) {
        self.bins.clear();
        self.history.clear();
        self.history_bins.clear();
    }

    // lint:hot-path
    fn name(&self) -> &str {
        "conditional"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fb::PathEstimates;

    fn calm() -> EpochFeatures {
        PathEstimates {
            rtt: 0.05,
            loss_rate: 0.0,
            avail_bw: 80e6,
        }
        .into()
    }

    fn busy() -> EpochFeatures {
        PathEstimates {
            rtt: 0.05,
            loss_rate: 0.02,
            avail_bw: 2e6,
        }
        .into()
    }

    #[test]
    fn refuses_before_any_observation() {
        let c = ConditionalPredictor::new();
        assert_eq!(
            c.try_predict(&calm()),
            Err(PredictError::InsufficientHistory)
        );
    }

    #[test]
    fn conditions_on_probe_state() {
        let mut c = ConditionalPredictor::new();
        for _ in 0..MIN_BIN {
            c.observe(&EpochObservation::new(calm(), Some(60e6)));
            c.observe(&EpochObservation::new(busy(), Some(1.5e6)));
        }
        assert_eq!(c.try_predict(&calm()), Ok(60e6));
        assert_eq!(c.try_predict(&busy()), Ok(1.5e6));
        assert_eq!(c.bin_count(), 2);
    }

    #[test]
    fn thin_bin_borrows_the_global_median() {
        let mut c = ConditionalPredictor::new();
        for _ in 0..10 {
            c.observe(&EpochObservation::new(calm(), Some(60e6)));
        }
        // One sample in the busy bin: below MIN_BIN, so the global
        // median (dominated by calm samples) answers.
        c.observe(&EpochObservation::new(busy(), Some(1.5e6)));
        assert_eq!(c.try_predict(&busy()), Ok(60e6));
    }

    #[test]
    fn missing_probes_form_their_own_bin() {
        let mut c = ConditionalPredictor::new();
        for _ in 0..MIN_BIN {
            c.observe(&EpochObservation::sample(9e6));
        }
        assert_eq!(c.try_predict(&EpochFeatures::NONE), Ok(9e6));
    }

    #[test]
    fn gap_epochs_change_nothing() {
        let mut c = ConditionalPredictor::new();
        c.observe(&EpochObservation::new(calm(), Some(60e6)));
        assert_eq!(c.observe(&EpochObservation::GAP), Update::Skipped);
        assert_eq!(c.bin_count(), 1);
    }

    #[test]
    fn bins_age_out_fifo() {
        let mut c = ConditionalPredictor::new();
        for _ in 0..PER_BIN_CAP {
            c.observe(&EpochObservation::new(calm(), Some(10e6)));
        }
        for _ in 0..PER_BIN_CAP {
            c.observe(&EpochObservation::new(calm(), Some(20e6)));
        }
        // The first generation has fully aged out.
        assert_eq!(c.try_predict(&calm()), Ok(20e6));
    }

    #[test]
    fn abw_buckets_are_log2_and_clamped() {
        assert_eq!(abw_bucket(1e6), Some(0));
        assert_eq!(abw_bucket(2e6), Some(1));
        assert_eq!(abw_bucket(3e6), Some(1));
        assert_eq!(abw_bucket(80e6), Some(6));
        assert_eq!(abw_bucket(1e3), Some(-8));
        assert_eq!(abw_bucket(1e12), Some(12));
        assert_eq!(abw_bucket(0.0), None);
        assert_eq!(abw_bucket(-5.0), None);
    }

    #[test]
    fn loss_buckets_split_by_decade() {
        assert_eq!(loss_bucket(0.0), 0);
        assert_eq!(loss_bucket(1e-4), 1);
        assert_eq!(loss_bucket(5e-3), 2);
        assert_eq!(loss_bucket(0.1), 3);
    }

    #[test]
    fn reset_clears_all_bins() {
        let mut c = ConditionalPredictor::new();
        c.observe(&EpochObservation::sample(1e6));
        c.reset();
        assert_eq!(c.bin_count(), 0);
        assert_eq!(c.name(), "conditional");
    }
}
