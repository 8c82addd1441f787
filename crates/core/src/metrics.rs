//! The paper's prediction-error metrics and evaluation drivers (§4.1,
//! §6.1.3, §6.1.6).

use crate::lso::{scan_series, LsoConfig};
use crate::predictor::{EpochFeatures, EpochObservation, Predictor, Update};
use tputpred_stats::Summary;

/// The relative prediction error of one epoch (Eq. 4):
///
/// ```text
/// E = (R̂ − R) / min(R̂, R)
/// ```
///
/// The `min` denominator makes over- and under-estimation by the same
/// factor `w` symmetric: both give `|E| = w − 1`. Positive `E` is
/// overestimation.
///
/// # Panics
///
/// Panics (debug) unless both throughputs are positive — measurements in
/// this workspace are floored at [`MIN_THROUGHPUT`] so the metric is
/// always defined.
///
/// # Examples
///
/// ```
/// use tputpred_core::metrics::relative_error;
/// assert_eq!(relative_error(20.0, 10.0), 1.0);  // 2× overestimate
/// assert_eq!(relative_error(5.0, 10.0), -1.0);  // 2× underestimate
/// assert_eq!(relative_error(10.0, 10.0), 0.0);
/// ```
pub fn relative_error(predicted: f64, actual: f64) -> f64 {
    debug_assert!(predicted > 0.0, "relative_error: non-positive prediction");
    debug_assert!(actual > 0.0, "relative_error: non-positive measurement");
    (predicted - actual) / f64::min(predicted, actual)
}

/// Floor applied to throughput values before computing Eq. 4, so that a
/// stalled transfer (0 bits/s) yields a large-but-finite error: 1 bit/s.
pub const MIN_THROUGHPUT: f64 = 1.0;

/// [`relative_error`] with both arguments floored at [`MIN_THROUGHPUT`].
pub fn relative_error_floored(predicted: f64, actual: f64) -> f64 {
    relative_error(predicted.max(MIN_THROUGHPUT), actual.max(MIN_THROUGHPUT))
}

/// Root Mean Square Relative Error over a series of relative errors
/// (Eq. 5):
///
/// ```text
/// RMSRE = sqrt( (1/n) Σ Eᵢ² )
/// ```
///
/// Returns `None` for an empty slice.
pub fn rmsre(errors: &[f64]) -> Option<f64> {
    rmsre_of(errors.iter().copied())
}

/// [`rmsre`] over errors as they come, summed in order without
/// collecting them.
fn rmsre_of(errors: impl Iterator<Item = f64>) -> Option<f64> {
    let (n, sum_sq) = errors.fold((0usize, 0.0), |(n, sum_sq), e| (n + 1, sum_sq + e * e));
    (n > 0).then(|| (sum_sq / n as f64).sqrt())
}

/// Result of running a predictor over a throughput series.
#[derive(Debug, Clone, Default)]
pub struct EvalResult {
    /// Per-sample relative error `Eᵢ`, `None` where the predictor had no
    /// forecast yet (warm-up).
    pub errors: Vec<Option<f64>>,
    /// Per-sample predictions (same indexing), for trace plots (Fig. 15).
    pub predictions: Vec<Option<f64>>,
    /// Absolute positions of samples the predictor classified as outliers
    /// (populated by LSO-wrapped predictors; excluded from RMSRE per
    /// §6.1.3).
    pub outliers: Vec<usize>,
    /// Absolute positions where level shifts were detected to begin.
    pub level_shifts: Vec<usize>,
}

impl EvalResult {
    /// RMSRE over all defined errors, excluding outlier samples (§6.1.3).
    ///
    /// Returns `None` when no errors are defined (series shorter than the
    /// predictor's warm-up).
    pub fn rmsre(&self) -> Option<f64> {
        rmsre_of(
            self.errors
                .iter()
                .enumerate()
                .filter(|(i, _)| !self.outliers.contains(i))
                .filter_map(|(_, e)| *e),
        )
    }

    /// RMSRE including outlier samples — what a predictor *without*
    /// knowledge of outliers would be scored at.
    pub fn rmsre_including_outliers(&self) -> Option<f64> {
        rmsre_of(self.errors.iter().filter_map(|e| *e))
    }

    /// Number of samples with a defined prediction.
    pub fn predicted_count(&self) -> usize {
        self.errors.iter().filter(|e| e.is_some()).count()
    }

    /// Fraction of evaluated epochs for which the predictor produced a
    /// forecast — the serving-availability axis of the resilience
    /// league table (`fig25_resilience`, DESIGN.md §13). Counts
    /// `predictions` rather than `errors` so epochs whose *measurement*
    /// failed still credit the predictor for answering. `None` when
    /// nothing was evaluated.
    pub fn availability(&self) -> Option<f64> {
        if self.predictions.is_empty() {
            return None;
        }
        let answered = self.predictions.iter().filter(|p| p.is_some()).count();
        Some(answered as f64 / self.predictions.len() as f64)
    }
}

/// Runs `predictor` over `series` one-step-ahead: for each sample the
/// current forecast is scored against the observation (Eq. 4), then the
/// observation is fed to the predictor. This is exactly the paper's HB
/// evaluation protocol: predictions use only *past* transfers.
///
/// Throughput values are floored at [`MIN_THROUGHPUT`] for scoring.
pub fn evaluate<P: Predictor>(predictor: &mut P, series: &[f64]) -> EvalResult {
    let epochs: Vec<EpochObservation> = series
        .iter()
        .map(|&x| EpochObservation::sample(x))
        .collect();
    evaluate_epochs(predictor, &epochs)
}

/// [`evaluate`] over a series with *gaps*: a `None` is an epoch whose
/// transfer failed or went unmeasured (node down, aborted run). This is
/// the HB degradation rule for faulty histories — a gap is simply
/// **skipped**: the predictor neither observes it nor resets, so a gap can
/// never masquerade as a level shift or an outlier. The paper's authors do
/// the same by silently discarding failed epochs from their RON traces.
///
/// `errors`/`predictions` keep one slot per input sample (gaps score
/// `None`), and `outliers`/`level_shifts` positions are mapped back to
/// indices into the *gappy* input series, so an evaluation over a gappy
/// series is position-compatible with the series it came from.
///
/// A gap is a featureless epoch with no throughput, which every
/// predictor treats as a non-event (the gap law pinned by
/// `tests/family_gap_tolerance.rs`); [`evaluate_epochs`] still asks for
/// a forecast there, so those slots are cleared afterwards.
pub fn evaluate_gappy<P: Predictor>(predictor: &mut P, series: &[Option<f64>]) -> EvalResult {
    let epochs: Vec<EpochObservation> = series
        .iter()
        .map(|&x| EpochObservation::new(EpochFeatures::NONE, x))
        .collect();
    let mut result = evaluate_epochs(predictor, &epochs);
    for (prediction, sample) in result.predictions.iter_mut().zip(series) {
        if sample.is_none() {
            *prediction = None;
        }
    }
    result
}

/// Runs `predictor` over full [`EpochObservation`]s one-step-ahead —
/// the protocol of the cross-predictor league table (`fig24`): for each
/// epoch the predictor forecasts from the epoch's *a-priori features*
/// (probe measurements are available before the transfer starts), the
/// forecast is scored against the measured throughput (Eq. 4), and then
/// the whole epoch is observed.
///
/// The predictor is consulted and fed on every epoch — a feature-only
/// epoch lets formula-backed predictors forecast and smooth even when
/// the transfer failed, while series-only predictors treat it as a
/// no-op ([`Update::Skipped`]). An error is recorded only where both a
/// forecast and a measured throughput exist; history-side event
/// positions (which count throughput-carrying epochs) are mapped back
/// to epoch indices.
///
/// This is the one scoring loop: [`evaluate`] and [`evaluate_gappy`]
/// are it over featureless epochs. For series-only predictors it
/// coincides exactly with [`evaluate_gappy`] over the throughput series
/// (apart from the forecasts `evaluate_gappy` clears at gaps); for FB
/// it reproduces the paper's a-priori FB protocol (§4.1).
pub fn evaluate_epochs<P: Predictor>(predictor: &mut P, epochs: &[EpochObservation]) -> EvalResult {
    let mut result = EvalResult {
        errors: Vec::with_capacity(epochs.len()),
        predictions: Vec::with_capacity(epochs.len()),
        ..EvalResult::default()
    };
    // History-side event positions count ingested throughput samples;
    // map them back to epoch indices.
    let mut fed_to_orig: Vec<usize> = Vec::with_capacity(epochs.len());
    let mut outliers_fed: Vec<usize> = Vec::new();
    let mut shifts_fed: Vec<usize> = Vec::new();
    for (i, epoch) in epochs.iter().enumerate() {
        let forecast = predictor.predict(&epoch.features);
        result.predictions.push(forecast);
        result.errors.push(match (forecast, epoch.throughput_bps) {
            (Some(f), Some(x_bps)) => Some(relative_error_floored(f, x_bps)),
            _ => None,
        });
        if epoch.throughput_bps.is_some() {
            fed_to_orig.push(i);
        }
        match predictor.observe(epoch) {
            Update::Accepted | Update::Skipped => {}
            Update::OutliersDiscarded { positions, .. } => outliers_fed.extend(positions),
            Update::LevelShift { start, .. } => shifts_fed.push(start),
        }
    }
    let remap = |fed: usize| fed_to_orig.get(fed).copied().unwrap_or(fed);
    result.outliers = outliers_fed.into_iter().map(remap).collect();
    result.level_shifts = shifts_fed.into_iter().map(remap).collect();
    result
}

/// Down-samples a series by keeping every `factor`-th sample (§6.1.6).
///
/// The paper studies transfer intervals of 6/24/45 min by down-sampling
/// its 3-min traces at factors 2, 8, and 15.
///
/// # Panics
///
/// Panics if `factor` is zero.
pub fn downsample(series: &[f64], factor: usize) -> Vec<f64> {
    assert!(factor > 0, "downsample factor must be positive");
    series.iter().copied().step_by(factor).collect()
}

/// Segment-weighted Coefficient of Variation of a throughput series
/// (§6.1.3):
///
/// 1. detect level shifts and outliers with the LSO heuristics;
/// 2. exclude outliers; split the series into stationary segments at the
///    detected shifts;
/// 3. compute each segment's CoV (σ/μ) and average them weighted by
///    segment length.
///
/// Returns `None` for series with no computable segment (all segments
/// shorter than 2 samples or zero-mean).
pub fn segmented_cov(series: &[f64], cfg: LsoConfig) -> Option<f64> {
    let (shifts, outliers) = scan_series(series, cfg);
    let mut weighted = 0.0;
    let mut weight = 0.0;
    let mut boundaries: Vec<usize> = Vec::with_capacity(shifts.len() + 2);
    boundaries.push(0);
    boundaries.extend(shifts.iter().copied());
    boundaries.push(series.len());
    for pair in boundaries.windows(2) {
        let (start, end) = (pair[0], pair[1]);
        if end <= start {
            continue;
        }
        let seg: Vec<f64> = (start..end)
            .filter(|i| !outliers.contains(i))
            .map(|i| series[i])
            .collect();
        if seg.len() < 2 {
            continue;
        }
        let summary = Summary::from_samples(seg.iter().copied());
        if let Some(cov) = summary.cov() {
            weighted += cov * seg.len() as f64;
            weight += seg.len() as f64;
        }
    }
    (weight > 0.0).then(|| weighted / weight)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hb::{HoltWinters, MovingAverage};
    use crate::lso::Lso;

    #[test]
    fn relative_error_is_symmetric_in_factor() {
        // Over/underestimation by factor w gives |E| = w − 1.
        for w in [1.5, 2.0, 5.0, 10.0] {
            let over = relative_error(w * 10.0, 10.0);
            let under = relative_error(10.0 / w, 10.0);
            assert!((over - (w - 1.0)).abs() < 1e-12);
            assert!((under + (w - 1.0)).abs() < 1e-9);
        }
    }

    #[test]
    fn floored_error_handles_stalled_transfers() {
        let e = relative_error_floored(10e6, 0.0);
        assert!(e.is_finite() && e > 0.0);
    }

    #[test]
    fn rmsre_matches_hand_computation() {
        let r = rmsre(&[3.0, 4.0]).unwrap();
        assert!((r - (12.5f64).sqrt()).abs() < 1e-12);
        assert_eq!(rmsre(&[]), None);
        assert_eq!(rmsre(&[0.0, 0.0]), Some(0.0));
    }

    #[test]
    fn evaluate_scores_one_step_ahead() {
        // 1-MA predicts the previous sample.
        let mut p = MovingAverage::new(1);
        let res = evaluate(&mut p, &[10.0, 20.0, 20.0]);
        assert_eq!(res.errors[0], None, "no history before first sample");
        assert!((res.errors[1].unwrap() - (-1.0)).abs() < 1e-12); // 10 vs 20
        assert_eq!(res.errors[2], Some(0.0)); // 20 vs 20
        assert_eq!(res.predicted_count(), 2);
    }

    #[test]
    fn evaluate_collects_lso_events() {
        let mut p = Lso::new(MovingAverage::new(10));
        let series: Vec<f64> = [vec![10.0; 8], vec![100.0], vec![10.0; 3]].concat();
        let res = evaluate(&mut p, &series);
        assert_eq!(res.outliers, vec![8]);
        // The outlier's own error is excluded from RMSRE...
        let with = res.rmsre_including_outliers().unwrap();
        let without = res.rmsre().unwrap();
        assert!(without < with, "excluding the outlier lowers RMSRE");
        // The outlier sits in the MA window for one step before its
        // confirmation (two-sample delay), so the post-outlier prediction
        // is contaminated once; still a small overall RMSRE.
        assert!(
            without < 0.5,
            "remaining series is nearly perfect: {without}"
        );
    }

    #[test]
    fn lso_restart_cuts_rmsre_on_level_shift() {
        // A paper-typical moderate shift (1.6×) against a long-memory
        // MA: the plain predictor drags its ramp across the whole window
        // length, while the restart is exact three samples in. (For very
        // large jumps the quadratic metric rewards the plain MA's instant
        // partial adoption instead — the two strategies trade blows there,
        // and the paper's own shifts live in this moderate range.)
        let series: Vec<f64> = [vec![10.0; 25], vec![16.0; 25]].concat();
        let mut plain = MovingAverage::new(20);
        let mut wrapped = Lso::new(MovingAverage::new(20));
        let r_plain = evaluate(&mut plain, &series).rmsre().unwrap();
        let r_lso = evaluate(&mut wrapped, &series).rmsre().unwrap();
        assert!(
            r_lso < r_plain,
            "LSO should win on a moderate level shift: {r_lso} vs {r_plain}"
        );
    }

    #[test]
    fn lso_guards_trend_predictors_against_collapse_epochs() {
        // A starved epoch measuring ~zero throughput must not poison a
        // Holt-Winters forecast into absurdity (negative or near-zero
        // extrapolations): the isolated-suspect quarantine plus the
        // positivity fallback keep the next forecasts near the level.
        let mut series = vec![10e6; 20];
        series[10] = 2e3; // collapse epoch
        series.extend(vec![10e6; 10]);
        let mut hw = Lso::new(HoltWinters::new(0.8, 0.2));
        let res = evaluate(&mut hw, &series);
        let r = res.rmsre().unwrap();
        assert!(r < 0.5, "collapse epoch contained: RMSRE {r}");
    }

    #[test]
    fn evaluate_gappy_skips_gaps_without_resetting() {
        // 1-MA predicts the previous *observed* sample across a gap.
        let mut p = MovingAverage::new(1);
        let res = evaluate_gappy(&mut p, &[Some(10.0), None, Some(10.0)]);
        assert_eq!(res.errors[0], None);
        assert_eq!(res.errors[1], None, "gap epochs score nothing");
        assert_eq!(res.errors[2], Some(0.0), "history survives the gap");
        assert_eq!(res.predicted_count(), 1);
    }

    #[test]
    fn evaluate_gappy_event_positions_index_the_gappy_series() {
        // Same shape as `evaluate_collects_lso_events` (outlier at dense
        // position 8), but with two gaps punched in before the spike: the
        // reported outlier position must be the gappy index, 10.
        let mut series: Vec<Option<f64>> = vec![Some(10.0), None, Some(10.0), None];
        series.extend(vec![Some(10.0); 6]);
        series.push(Some(100.0));
        series.extend(vec![Some(10.0); 3]);
        let mut p = Lso::new(MovingAverage::new(10));
        let res = evaluate_gappy(&mut p, &series);
        assert_eq!(res.outliers, vec![10]);
    }

    #[test]
    fn evaluate_gappy_on_dense_series_matches_evaluate() {
        let series: Vec<f64> = [vec![10.0; 8], vec![100.0], vec![10.0; 3]].concat();
        let gappy: Vec<Option<f64>> = series.iter().copied().map(Some).collect();
        let mut a = Lso::new(MovingAverage::new(10));
        let mut b = Lso::new(MovingAverage::new(10));
        let ra = evaluate(&mut a, &series);
        let rb = evaluate_gappy(&mut b, &gappy);
        assert_eq!(ra.errors, rb.errors);
        assert_eq!(ra.predictions, rb.predictions);
        assert_eq!(ra.outliers, rb.outliers);
        assert_eq!(ra.level_shifts, rb.level_shifts);
    }

    #[test]
    fn downsample_keeps_every_kth() {
        let xs: Vec<f64> = (0..10).map(f64::from).collect();
        assert_eq!(downsample(&xs, 1), xs);
        assert_eq!(downsample(&xs, 3), vec![0.0, 3.0, 6.0, 9.0]);
        assert_eq!(downsample(&xs, 20), vec![0.0]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn downsample_zero_panics() {
        let _ = downsample(&[1.0], 0);
    }

    #[test]
    fn segmented_cov_of_constant_series_is_zero() {
        let cov = segmented_cov(&[10.0; 20], LsoConfig::default()).unwrap();
        assert_eq!(cov, 0.0);
    }

    #[test]
    fn segmented_cov_ignores_level_shift_between_stable_levels() {
        // Two perfectly stable levels: global CoV would be large, but the
        // per-segment CoV is ~0 — exactly the point of §6.1.3's weighting.
        let series: Vec<f64> = [vec![10.0; 20], vec![30.0; 20]].concat();
        let seg = segmented_cov(&series, LsoConfig::default()).unwrap();
        assert!(seg < 0.02, "segmented CoV ≈ 0, got {seg}");
        let global = Summary::from_samples(series.iter().copied()).cov().unwrap();
        assert!(global > 0.4, "global CoV is large: {global}");
    }

    #[test]
    fn segmented_cov_excludes_outliers() {
        let series: Vec<f64> = [vec![10.0; 10], vec![200.0], vec![10.0; 10]].concat();
        let seg = segmented_cov(&series, LsoConfig::default()).unwrap();
        assert!(seg < 0.02, "outlier excluded from CoV, got {seg}");
    }

    #[test]
    fn segmented_cov_tracks_real_variability() {
        // Alternating 9/11: CoV = 1/10 = 0.1, no shifts (alternation
        // violates the all-lower/all-higher condition) and no outliers
        // (±22% of the odd-window median, below ψ = 0.4).
        let series: Vec<f64> = (0..40)
            .map(|i| if i % 2 == 0 { 9.0 } else { 11.0 })
            .collect();
        let seg = segmented_cov(&series, LsoConfig::default()).unwrap();
        assert!((seg - 0.1).abs() < 0.02, "got {seg}");
    }

    #[test]
    fn evaluate_epochs_matches_evaluate_for_series_predictors() {
        let series: Vec<f64> = [vec![10.0; 8], vec![100.0], vec![10.0; 3]].concat();
        let epochs: Vec<EpochObservation> = series
            .iter()
            .map(|&x| EpochObservation::sample(x))
            .collect();
        let mut a = Lso::new(MovingAverage::new(10));
        let mut b = Lso::new(MovingAverage::new(10));
        let ra = evaluate(&mut a, &series);
        let rb = evaluate_epochs(&mut b, &epochs);
        assert_eq!(ra.errors, rb.errors);
        assert_eq!(ra.predictions, rb.predictions);
        assert_eq!(ra.outliers, rb.outliers);
        assert_eq!(ra.level_shifts, rb.level_shifts);
    }

    #[test]
    fn evaluate_epochs_scores_fb_from_a_priori_features() {
        use crate::fb::{FbPredictor, PathEstimates};
        let est = PathEstimates {
            rtt: 0.08,
            loss_rate: 0.01,
            avail_bw: 50e6,
        };
        let expected = FbPredictor::default().predict(&est);
        let epochs = [
            EpochObservation::new(est.into(), Some(expected)),
            EpochObservation::new(est.into(), Some(2.0 * expected)),
        ];
        let mut fb = FbPredictor::default();
        let res = evaluate_epochs(&mut fb, &epochs);
        assert_eq!(res.errors[0], Some(0.0), "exact on the first epoch");
        assert!((res.errors[1].unwrap() + 1.0).abs() < 1e-12, "2x under");
    }

    #[test]
    fn evaluate_epochs_event_positions_index_epochs() {
        // An outlier at throughput-sample position 8, with two
        // transfer-failed epochs punched in before it: the reported
        // position must be the epoch index, 10.
        let mut epochs: Vec<EpochObservation> = vec![
            EpochObservation::sample(10.0),
            EpochObservation::GAP,
            EpochObservation::sample(10.0),
            EpochObservation::GAP,
        ];
        epochs.extend(vec![EpochObservation::sample(10.0); 6]);
        epochs.push(EpochObservation::sample(100.0));
        epochs.extend(vec![EpochObservation::sample(10.0); 3]);
        let mut p = Lso::new(MovingAverage::new(10));
        let res = evaluate_epochs(&mut p, &epochs);
        assert_eq!(res.outliers, vec![10]);
    }

    #[test]
    fn holt_winters_rmsre_near_zero_on_linear_trend() {
        let series: Vec<f64> = (0..30).map(|i| 100.0 + 5.0 * i as f64).collect();
        let mut hw = HoltWinters::new(0.8, 0.2);
        let r = evaluate(&mut hw, &series).rmsre().unwrap();
        assert!(r < 1e-9, "HW tracks a pure trend exactly: {r}");
    }
}
