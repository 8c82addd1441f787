//! The scoring path's rewritten parts agree with the code they replaced,
//! bit for bit: `ConditionalPredictor` (which copied and sorted its
//! samples for every median), `SmoothedFbPredictor` (which cloned two
//! moving averages for every forecast), `ArPredictor`'s fit (which
//! copied its window for every forecast) and `EvalResult::rmsre` (which
//! collected the kept errors first). Each is checked against a verbatim
//! copy of the old code, through `evaluate_epochs` and through the
//! registry, on traces of the `quick` (40) and `paper` (150) lengths
//! with gaps, featureless and probe-only epochs, repeated values, bins
//! past their cap and AR windows that wrap.

use proptest::prelude::*;
use std::collections::{BTreeMap, VecDeque};
use tputpred_core::metrics::{evaluate_epochs, EvalResult};
use tputpred_core::{
    predictor_catalog, ArPredictor, ConditionalPredictor, EpochFeatures, EpochObservation,
    FbConfig, FbPredictor, MovingAverage, PartialEstimates, PredictError, Predictor,
    SmoothedFbPredictor, Update,
};

// ---- Reference: the replaced code, verbatim ------------------------------

fn typed_forecast(forecast: Option<f64>) -> Result<f64, PredictError> {
    match forecast {
        None => Err(PredictError::InsufficientHistory),
        Some(f) if !f.is_finite() => Err(PredictError::InvalidEstimate("forecast")),
        Some(f) => Ok(f),
    }
}

type BinKey = (Option<i16>, Option<u8>);

const PER_BIN_CAP: usize = 64;

const MIN_BIN: usize = 3;

fn abw_bucket(avail_bw_bps: f64) -> Option<i16> {
    if avail_bw_bps <= 0.0 {
        return None;
    }
    let bucket = (avail_bw_bps / 1e6).log2().floor();
    Some((bucket as i16).clamp(-8, 12))
}

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

#[derive(Debug, Clone, Default)]
struct RefConditional {
    bins: BTreeMap<BinKey, VecDeque<f64>>,
}

impl RefConditional {
    fn median_of(samples: impl Iterator<Item = f64>) -> Option<f64> {
        let xs: Vec<f64> = samples.collect();
        tputpred_stats::median(&xs)
    }
}

impl Predictor for RefConditional {
    fn try_predict(&self, features: &EpochFeatures) -> Result<f64, PredictError> {
        let key = bin_key(features);
        let bin = self
            .bins
            .get(&key)
            .filter(|bin| bin.len() >= MIN_BIN)
            .and_then(|bin| Self::median_of(bin.iter().copied()));
        let global = || Self::median_of(self.bins.values().flat_map(|bin| bin.iter().copied()));
        typed_forecast(bin.or_else(global))
    }

    fn observe(&mut self, epoch: &EpochObservation) -> Update {
        let Some(x_bps) = epoch.throughput_bps else {
            return Update::Skipped;
        };
        let bin = self.bins.entry(bin_key(&epoch.features)).or_default();
        if bin.len() == PER_BIN_CAP {
            bin.pop_front();
        }
        bin.push_back(x_bps);
        Update::Accepted
    }

    fn reset(&mut self) {
        self.bins.clear();
    }

    fn name(&self) -> &str {
        "conditional"
    }
}

#[derive(Debug, Clone)]
struct RefSmoothedFb {
    fb: FbPredictor,
    rtt_ma: MovingAverage,
    loss_ma: MovingAverage,
}

impl RefSmoothedFb {
    fn new(config: FbConfig, n: usize) -> Self {
        RefSmoothedFb {
            fb: FbPredictor::new(config),
            rtt_ma: MovingAverage::new(n),
            loss_ma: MovingAverage::new(n),
        }
    }
}

impl Predictor for RefSmoothedFb {
    fn try_predict(&self, features: &EpochFeatures) -> Result<f64, PredictError> {
        let mut rtt_ma = self.rtt_ma.clone();
        let mut loss_ma = self.loss_ma.clone();
        if let Some(rtt) = features.probes.rtt {
            rtt_ma.update(rtt);
        }
        if let Some(p) = features.probes.loss_rate {
            loss_ma.update(p);
        }
        let smoothed = PartialEstimates {
            rtt: rtt_ma.forecast().or(features.probes.rtt),
            loss_rate: loss_ma.forecast().or(features.probes.loss_rate),
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

    fn name(&self) -> &str {
        "FB-smoothed"
    }
}

#[derive(Debug, Clone)]
struct RefAr {
    order: usize,
    window: VecDeque<f64>,
    capacity: usize,
    min_history: usize,
}

impl RefAr {
    fn new(order: usize, capacity: usize) -> Self {
        RefAr {
            order,
            window: VecDeque::with_capacity(capacity),
            capacity,
            min_history: 3 * order,
        }
    }

    fn autocovariance(xs: &[f64], mean: f64, lag: usize) -> f64 {
        let n = xs.len();
        let mut acc = 0.0;
        for i in lag..n {
            acc += (xs[i] - mean) * (xs[i - lag] - mean);
        }
        acc / n as f64
    }

    fn levinson_durbin(r: &[f64]) -> Vec<f64> {
        let p = r.len() - 1;
        let mut a = vec![0.0; p];
        let mut e = r[0];
        if e <= 0.0 {
            return a; // constant series: all coefficients zero
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
        a
    }

    fn fit_and_forecast(&self) -> Option<f64> {
        let xs: Vec<f64> = self.window.iter().copied().collect();
        if xs.is_empty() {
            return None;
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        if xs.len() < self.min_history {
            return Some(mean);
        }
        let p = self.order.min(xs.len() / 3);
        let r: Vec<f64> = (0..=p)
            .map(|lag| Self::autocovariance(&xs, mean, lag))
            .collect();
        if r[0] <= f64::EPSILON * mean.abs().max(1.0) {
            return Some(mean); // (near-)constant series
        }
        let phi = Self::levinson_durbin(&r);
        let mut forecast = mean;
        for (i, &coeff) in phi.iter().enumerate() {
            let x = xs[xs.len() - 1 - i];
            forecast += coeff * (x - mean);
        }
        Some(forecast)
    }
}

impl Predictor for RefAr {
    fn try_predict(&self, _features: &EpochFeatures) -> Result<f64, PredictError> {
        typed_forecast(self.fit_and_forecast())
    }

    fn observe(&mut self, epoch: &EpochObservation) -> Update {
        let Some(x) = epoch.throughput_bps else {
            return Update::Skipped;
        };
        if self.window.len() == self.capacity {
            self.window.pop_front();
        }
        self.window.push_back(x);
        Update::Accepted
    }

    fn reset(&mut self) {
        self.window.clear();
    }

    fn name(&self) -> &str {
        "AR"
    }
}

fn ref_rmsre_of(errors: &[f64]) -> Option<f64> {
    if errors.is_empty() {
        return None;
    }
    let sum_sq: f64 = errors.iter().map(|e| e * e).sum();
    Some((sum_sq / errors.len() as f64).sqrt())
}

fn ref_rmsre(result: &EvalResult) -> Option<f64> {
    let kept: Vec<f64> = result
        .errors
        .iter()
        .enumerate()
        .filter(|(i, _)| !result.outliers.contains(i))
        .filter_map(|(_, e)| *e)
        .collect();
    ref_rmsre_of(&kept)
}

fn ref_rmsre_including_outliers(result: &EvalResult) -> Option<f64> {
    let kept: Vec<f64> = result.errors.iter().filter_map(|e| *e).collect();
    ref_rmsre_of(&kept)
}

// ---- Comparison ----------------------------------------------------------

fn bits(values: &[Option<f64>]) -> Vec<Option<u64>> {
    values.iter().map(|v| v.map(f64::to_bits)).collect()
}

/// Scores `got` and `want` over `epochs` and checks every prediction,
/// error and event, and both RMSREs (the rewritten ones of `got`'s
/// result against the verbatim ones of `want`'s).
fn assert_scores_alike(
    got: &mut dyn Predictor,
    want: &mut dyn Predictor,
    epochs: &[EpochObservation],
    what: &str,
) {
    let g = evaluate_epochs(&mut &mut *got, epochs);
    let w = evaluate_epochs(&mut &mut *want, epochs);
    assert_eq!(
        bits(&g.predictions),
        bits(&w.predictions),
        "{what}: predictions"
    );
    assert_eq!(bits(&g.errors), bits(&w.errors), "{what}: errors");
    assert_eq!(g.outliers, w.outliers, "{what}: outliers");
    assert_eq!(g.level_shifts, w.level_shifts, "{what}: level shifts");
    assert_rmsre_alike(&g, what);
}

fn assert_rmsre_alike(result: &EvalResult, what: &str) {
    assert_eq!(
        result.rmsre().map(f64::to_bits),
        ref_rmsre(result).map(f64::to_bits),
        "{what}: RMSRE"
    );
    assert_eq!(
        result.rmsre_including_outliers().map(f64::to_bits),
        ref_rmsre_including_outliers(result).map(f64::to_bits),
        "{what}: RMSRE with outliers"
    );
}

/// The three rewritten predictors against their references, the AR one
/// at window sizes that wrap within a `quick` trace, then every
/// registry entry's RMSRE and the registry's three rewritten entries.
fn assert_equivalent(epochs: &[EpochObservation]) {
    let cfg = FbConfig::default();
    assert_scores_alike(
        &mut ConditionalPredictor::new(),
        &mut RefConditional::default(),
        epochs,
        "conditional",
    );
    for n in [1, 3, 10] {
        assert_scores_alike(
            &mut SmoothedFbPredictor::new(cfg, n),
            &mut RefSmoothedFb::new(cfg, n),
            epochs,
            &format!("FB-smoothed n={n}"),
        );
    }
    for (order, capacity) in [(1, 4), (2, 8), (2, 64), (3, 13)] {
        assert_scores_alike(
            &mut ArPredictor::new(order, capacity),
            &mut RefAr::new(order, capacity),
            epochs,
            &format!("AR({order}) over {capacity}"),
        );
    }
    for entry in predictor_catalog() {
        let mut got = (entry.make)(&cfg);
        let mut want: Box<dyn Predictor + Send> = match entry.name {
            "conditional" => Box::new(RefConditional::default()),
            "FB-smoothed" => Box::new(RefSmoothedFb::new(cfg, 10)),
            "AR(2)" => Box::new(RefAr::new(2, 64)),
            _ => {
                assert_rmsre_alike(&evaluate_epochs(&mut got, epochs), entry.name);
                continue;
            }
        };
        assert_scores_alike(&mut got, &mut want, epochs, entry.name);
    }
}

// ---- Traces --------------------------------------------------------------

/// Probe states that land in a handful of conditional bins (one with
/// every probe missing), so a 150-epoch trace overfills some of them.
const STATES: [(Option<f64>, Option<f64>, Option<f64>); 6] = [
    (Some(0.05), Some(0.0), Some(80e6)),
    (Some(0.08), Some(0.02), Some(2e6)),
    (Some(0.12), Some(0.005), Some(9e6)),
    (Some(0.30), None, Some(9e6)),
    (None, Some(0.0005), None),
    (None, None, None),
];

/// Throughputs drawn from a small set, so ties are common.
const LEVELS: [f64; 5] = [1e6, 2e6, 2e6, 5e5, 3.5e6];

/// One epoch per op: `kind` picks a gap, a featureless sample, a
/// probe-only epoch or (seven times in ten) a full one; `pick` a probe
/// state, three times in four the first, and, for every third op, a
/// repeated throughput; `u` jitters the rest.
fn build_epochs(ops: &[(u8, u8, f64)]) -> Vec<EpochObservation> {
    ops.iter()
        .map(|&(kind, pick, u)| {
            let (rtt, loss_rate, avail_bw) = STATES.get(usize::from(pick)).unwrap_or(&STATES[0]);
            let (rtt, loss_rate, avail_bw) = (*rtt, *loss_rate, *avail_bw);
            let jitter = if pick % 4 == 0 { 1.0 + 0.1 * u } else { 1.0 };
            let features = EpochFeatures::from(PartialEstimates {
                rtt: rtt.map(|r| r * jitter),
                loss_rate,
                avail_bw,
            });
            let throughput = if pick % 3 == 0 {
                LEVELS[usize::from(pick) % LEVELS.len()]
            } else {
                1e6 * (0.2 + 3.0 * u)
            };
            match kind {
                0 => EpochObservation::GAP,
                1 => EpochObservation::sample(throughput),
                2 => EpochObservation::new(features, None),
                _ => EpochObservation::new(features, Some(throughput)),
            }
        })
        .collect()
}

fn ops(len: usize) -> impl Strategy<Value = Vec<(u8, u8, f64)>> {
    prop::collection::vec((0u8..10, 0u8..24, 0.0..1.0f64), len..len + 1)
}

/// The most samples any conditional bin is offered over `epochs`.
fn fullest_bin(epochs: &[EpochObservation]) -> usize {
    let mut counts = BTreeMap::new();
    for epoch in epochs.iter().filter(|e| e.throughput_bps.is_some()) {
        *counts.entry(bin_key(&epoch.features)).or_insert(0) += 1;
    }
    counts.into_values().max().unwrap_or(0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn quick_length_traces_score_as_before(ops in ops(40)) {
        assert_equivalent(&build_epochs(&ops));
    }

    #[test]
    fn paper_length_traces_score_as_before(ops in ops(150)) {
        let mut ops = ops;
        // Every other epoch a full one in the first probe state, so that
        // state's bin passes its cap.
        for (kind, pick, _) in ops.iter_mut().step_by(2) {
            (*kind, *pick) = (9, (*pick).max(6));
        }
        let epochs = build_epochs(&ops);
        prop_assert!(fullest_bin(&epochs) > PER_BIN_CAP, "no bin evicts");
        assert_equivalent(&epochs);
    }
}

#[test]
fn full_bins_evict_their_oldest_sample_among_ties() {
    // One bin, 150 samples from three values: the bin passes its cap
    // of 64 and every later sample evicts a value tied with others.
    let state = PartialEstimates {
        rtt: Some(0.05),
        loss_rate: Some(0.0),
        avail_bw: Some(10e6),
    };
    let epochs: Vec<EpochObservation> = (0..150)
        .map(|i| EpochObservation::new(state.into(), Some([3e6, 1e6, 2e6, 1e6][i % 4])))
        .collect();
    assert_equivalent(&epochs);
}

#[test]
fn signed_zero_throughputs_keep_their_order() {
    // ±0 compare equal and differ in their bits: the sorted history must
    // order them as a stable sort of the bins does.
    let states = [STATES[0], STATES[1], STATES[5]];
    let values = [0.0, -0.0, 1e6, -0.0, 0.0, 0.0, -0.0, 5e5];
    let epochs: Vec<EpochObservation> = (0..150)
        .map(|i| {
            let (rtt, loss_rate, avail_bw) = states[(i / 3) % states.len()];
            let features = PartialEstimates {
                rtt,
                loss_rate,
                avail_bw,
            };
            EpochObservation::new(features.into(), Some(values[(i * 7) % values.len()]))
        })
        .collect();
    assert_equivalent(&epochs);
}

#[test]
fn rmsre_skips_outliers_and_missing_errors_as_before() {
    let errors: Vec<Option<f64>> = (0..60)
        .map(|i| (i % 7 != 3).then(|| (f64::from(i) - 20.0) / 7.0))
        .collect();
    for outliers in [
        vec![],
        vec![0, 5, 59],
        (0..60).step_by(2).collect(),
        (0..60).collect(),
    ] {
        let result = EvalResult {
            errors: errors.clone(),
            outliers,
            ..EvalResult::default()
        };
        assert_rmsre_alike(&result, "hand-built result");
    }
    assert_rmsre_alike(&EvalResult::default(), "empty result");
}
