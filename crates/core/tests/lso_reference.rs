//! The sorted-window LSO detector is decision-equivalent to the naive
//! one it replaced: for any positive series — planted level shifts,
//! one-sample spikes and dips, two-epoch dips, runs of tied values — and
//! any thresholds, `Detector`, `Lso` and `scan_series` report exactly the
//! events, windows, updates and forecast bits of a verbatim copy of the
//! old algorithm, which sorted a fresh copy of the window for every
//! median, re-folded the segment extremes at every split and rebuilt the
//! inner predictor from scratch on every push (DESIGN.md §6).

use proptest::prelude::*;
use tputpred_core::hb::{HoltWinters, MovingAverage};
use tputpred_core::lso::{scan_series, Detector, DetectorEvent, Lso, LsoConfig};
use tputpred_core::{EpochFeatures, EpochObservation, PredictError, Predictor, Update};

// ---- Reference: the naive algorithm, verbatim ----------------------------

fn rel_diff(a: f64, b: f64) -> f64 {
    let lo = f64::min(a, b);
    (a - b).abs() / f64::max(lo, f64::EPSILON)
}

fn median_of(values: &[f64]) -> f64 {
    tputpred_stats::median(values).expect("median of non-empty window")
}

#[derive(Debug, Clone)]
struct RefDetector {
    cfg: LsoConfig,
    window: Vec<(usize, f64)>,
    next_index: usize,
}

impl RefDetector {
    fn new(cfg: LsoConfig) -> Self {
        RefDetector {
            cfg,
            window: Vec::new(),
            next_index: 0,
        }
    }

    fn push(&mut self, x: f64) -> DetectorEvent {
        let idx = self.next_index;
        self.next_index += 1;
        self.window.push((idx, x));
        if self.window.len() > self.cfg.max_window {
            self.window.remove(0);
        }

        let outliers = self.confirm_outliers();
        let level_shift = self.detect_level_shift();
        DetectorEvent {
            outliers,
            level_shift,
        }
    }

    fn confirm_outliers(&mut self) -> Vec<usize> {
        let n = self.window.len();
        if n < 4 {
            return Vec::new();
        }
        let values: Vec<f64> = self.window.iter().map(|&(_, v)| v).collect();
        let med = median_of(&values);
        let deviates = |v: f64| -> Option<f64> {
            let dev = (v - med).abs() / f64::max(med.abs(), f64::EPSILON);
            (dev > self.cfg.psi).then(|| (v - med).signum())
        };
        let dirs: Vec<Option<f64>> = values.iter().map(|&v| deviates(v)).collect();
        let run_is_trailing = |j: usize| -> bool {
            let d = dirs[j];
            let mut e = j;
            while e + 1 < n && dirs[e + 1] == d {
                e += 1;
            }
            e == n - 1
        };
        let mut removed = Vec::new();
        for j in (0..=n.saturating_sub(3)).rev() {
            if dirs[j].is_some() && !run_is_trailing(j) {
                removed.push(self.window[j].0);
                self.window.remove(j);
            }
        }
        removed.reverse();
        removed
    }

    fn detect_level_shift(&mut self) -> Option<usize> {
        let n = self.window.len();
        if n < 4 {
            return None;
        }
        let values: Vec<f64> = self.window.iter().map(|&(_, v)| v).collect();
        for s in (1..=n - 3).rev() {
            let (prefix, suffix) = values.split_at(s);
            let pre_max = prefix.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let pre_min = prefix.iter().cloned().fold(f64::INFINITY, f64::min);
            let suf_max = suffix.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let suf_min = suffix.iter().cloned().fold(f64::INFINITY, f64::min);
            let increasing = pre_max < suf_min;
            let decreasing = pre_min > suf_max;
            if !increasing && !decreasing {
                continue;
            }
            let m1 = median_of(prefix);
            let m2 = median_of(suffix);
            if rel_diff(m1, m2) > self.cfg.gamma {
                let start = self.window[s].0;
                self.window.drain(..s);
                return Some(start);
            }
        }
        None
    }
}

fn ref_scan_series(series: &[f64], cfg: LsoConfig) -> (Vec<usize>, Vec<usize>) {
    let mut det = RefDetector::new(cfg);
    let mut shifts = Vec::new();
    let mut outliers = Vec::new();
    for &x in series {
        let ev = det.push(x);
        outliers.extend(ev.outliers);
        if let Some(s) = ev.level_shift {
            shifts.push(s);
        }
    }
    (shifts, outliers)
}

fn typed_forecast(forecast: Option<f64>) -> Result<f64, PredictError> {
    match forecast {
        None => Err(PredictError::InsufficientHistory),
        Some(f) if !f.is_finite() => Err(PredictError::InvalidEstimate("forecast")),
        Some(f) => Ok(f),
    }
}

struct RefLso<P> {
    detector: RefDetector,
    inner: P,
    all_outliers: Vec<usize>,
}

impl<P: Predictor> RefLso<P> {
    fn with_config(inner: P, cfg: LsoConfig) -> Self {
        RefLso {
            detector: RefDetector::new(cfg),
            inner,
            all_outliers: Vec::new(),
        }
    }

    fn feed_values(&self) -> Vec<f64> {
        let values: Vec<f64> = self.detector.window.iter().map(|&(_, v)| v).collect();
        if values.len() < 4 {
            return values;
        }
        let med = median_of(&values);
        let psi = self.detector.cfg.psi;
        values
            .into_iter()
            .filter(|v| (v - med).abs() / f64::max(med.abs(), f64::EPSILON) <= psi)
            .collect()
    }

    fn rebuild_inner(&mut self) {
        self.inner.reset();
        for v in self.feed_values() {
            self.inner.update(v);
        }
    }
}

impl<P: Predictor> Predictor for RefLso<P> {
    fn try_predict(&self, features: &EpochFeatures) -> Result<f64, PredictError> {
        let window_fallback = || {
            let w = &self.detector.window;
            if w.is_empty() {
                None
            } else {
                let values: Vec<f64> = w.iter().map(|&(_, v)| v).collect();
                Some(median_of(&values))
            }
        };
        let forecast = match self.inner.try_predict(features) {
            Ok(f) if f <= 0.0 => window_fallback(),
            Ok(f) => Some(f),
            Err(_) => window_fallback(),
        };
        typed_forecast(forecast)
    }

    fn observe(&mut self, epoch: &EpochObservation) -> Update {
        let Some(x) = epoch.throughput_bps else {
            return Update::Skipped;
        };
        let ev = self.detector.push(x);
        self.all_outliers.extend_from_slice(&ev.outliers);
        self.rebuild_inner();
        let retained = self.detector.window.len();
        match ev.level_shift {
            Some(start) => Update::LevelShift { start, retained },
            None if !ev.outliers.is_empty() => Update::OutliersDiscarded {
                positions: ev.outliers,
                retained,
            },
            None => Update::Accepted,
        }
    }

    fn reset(&mut self) {
        self.detector = RefDetector::new(self.detector.cfg);
        self.inner.reset();
        self.all_outliers.clear();
    }

    fn name(&self) -> &str {
        "reference"
    }
}

// ---- Inputs ---------------------------------------------------------------

/// A positive throughput-like series built from `(kind, step, u)` ops
/// around a drifting level: planted level shifts, one-sample spikes and
/// dips, two-epoch dips, values on a coarse grid (many exact ties, which
/// exercise removal from the sorted window) and continuous noise.
fn build_series(ops: Vec<(u8, u8, f64)>) -> Vec<f64> {
    let mut level: f64 = 1e6;
    let mut out = Vec::with_capacity(ops.len() + ops.len() / 8);
    for (kind, step, u) in ops {
        match kind {
            0 => level = (level * (0.2 + 4.8 * u)).clamp(1e3, 1e9),
            1 => out.push(level * (1.6 + 8.0 * u)),
            2 => out.push(level * (0.05 + 0.5 * u)),
            3 => {
                let dip = level * (0.05 + 0.5 * u);
                out.push(dip);
                out.push(dip * (1.0 + 0.1 * f64::from(step)));
            }
            4..=10 => out.push(level * (1.0 + 0.05 * f64::from(step))),
            _ => out.push(level * (0.85 + 0.3 * u)),
        }
    }
    out
}

fn series() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec((0u8..16, 0u8..6, 0.0..1.0f64), 1..160).prop_map(build_series)
}

/// γ and ψ drawn at random; the window cap either small enough to evict
/// (4–12) or the default 256.
fn config() -> impl Strategy<Value = LsoConfig> {
    (0.05..1.0f64, 0.05..1.0f64, 0u8..2, 4usize..13).prop_map(|(gamma, psi, small, cap)| {
        LsoConfig {
            gamma,
            psi,
            max_window: if small == 1 { cap } else { 256 },
        }
    })
}

fn bits(window: &[(usize, f64)]) -> Vec<(usize, u64)> {
    window.iter().map(|&(i, v)| (i, v.to_bits())).collect()
}

fn forecast_bits(p: &impl Predictor) -> Option<u64> {
    p.forecast().map(f64::to_bits)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn sorted_window_detector_matches_the_naive_reference(
        series in series(),
        cfg in config(),
    ) {
        let mut det = Detector::new(cfg);
        let mut reference = RefDetector::new(cfg);
        let mut ma = Lso::with_config(MovingAverage::new(5), cfg);
        let mut ma_ref = RefLso::with_config(MovingAverage::new(5), cfg);
        let mut hw = Lso::with_config(HoltWinters::new(0.8, 0.2), cfg);
        let mut hw_ref = RefLso::with_config(HoltWinters::new(0.8, 0.2), cfg);
        for (i, &x) in series.iter().enumerate() {
            prop_assert_eq!(det.push(x), reference.push(x), "event at sample {}", i);
            prop_assert_eq!(
                bits(det.window()),
                bits(&reference.window),
                "window after sample {}",
                i
            );
            prop_assert_eq!(ma.update(x), ma_ref.update(x), "5-MA-LSO update at {}", i);
            prop_assert_eq!(forecast_bits(&ma), forecast_bits(&ma_ref), "5-MA-LSO at {}", i);
            prop_assert_eq!(hw.update(x), hw_ref.update(x), "0.8-HW-LSO update at {}", i);
            prop_assert_eq!(forecast_bits(&hw), forecast_bits(&hw_ref), "0.8-HW-LSO at {}", i);
        }
        prop_assert_eq!(ma.outlier_indices(), &ma_ref.all_outliers[..]);
        prop_assert_eq!(scan_series(&series, cfg), ref_scan_series(&series, cfg));
    }

    #[test]
    fn reset_and_gaps_keep_the_wrapper_in_step(
        first in series(),
        second in series(),
        cfg in config(),
    ) {
        let mut hw = Lso::with_config(HoltWinters::new(0.8, 0.2), cfg);
        let mut hw_ref = RefLso::with_config(HoltWinters::new(0.8, 0.2), cfg);
        for &x in &first {
            hw.update(x);
            hw_ref.update(x);
            prop_assert_eq!(hw.observe(&EpochObservation::GAP), Update::Skipped);
        }
        hw.reset();
        hw_ref.reset();
        for (i, &x) in second.iter().enumerate() {
            prop_assert_eq!(hw.update(x), hw_ref.update(x), "update at {}", i);
            prop_assert_eq!(forecast_bits(&hw), forecast_bits(&hw_ref), "forecast at {}", i);
        }
    }
}

/// The inputs reach every case the equivalence is about, so agreement
/// above is not vacuous: level shifts both ways, outliers, window-cap
/// evictions, and removals of a value that has an exact twin left in the
/// window (the sorted removal must take one twin, not both).
#[test]
fn inputs_exercise_shifts_outliers_evictions_and_ties() {
    let (mut up, mut down, mut outliers, mut evictions, mut twins) = (0, 0, 0, 0, 0);
    for case in 0..200 {
        let mut runner = TestRunner::new("lso_reference::coverage", case);
        let series = series().sample(&mut runner);
        let cfg = config().sample(&mut runner);
        let mut det = RefDetector::new(cfg);
        for &x in &series {
            let before = det.window.clone();
            let ev = det.push(x);
            if before.len() == cfg.max_window {
                evictions += 1;
            }
            if let Some(start) = ev.level_shift {
                let first = det.window[0].1;
                let last_old = before.iter().rev().find(|&&(i, _)| i < start);
                match last_old {
                    Some(&(_, old)) if old < first => up += 1,
                    Some(_) => down += 1,
                    None => {}
                }
            }
            for &pos in &ev.outliers {
                outliers += 1;
                let v = before
                    .iter()
                    .chain([(det.next_index - 1, x)].iter())
                    .find(|&&(i, _)| i == pos)
                    .map(|&(_, v)| v.to_bits());
                if det.window.iter().any(|&(_, w)| Some(w.to_bits()) == v) {
                    twins += 1;
                }
            }
        }
    }
    let counts =
        format!("up {up}, down {down}, outliers {outliers}, evictions {evictions}, twins {twins}");
    assert!(up >= 200 && down >= 100, "{counts}");
    assert!(
        outliers >= 1000 && evictions >= 1000 && twins >= 20,
        "{counts}"
    );
}

// ---- Edges of the classification bounds and the split stacks ------------

/// Runs `Detector`, `scan_series` and `Lso` over MA(5) and HW(0.8, 0.2)
/// beside the reference on `series` and asserts that every event,
/// window, update, outlier list and forecast bit agrees. Returns the
/// largest window the reference held.
fn assert_equivalent(series: &[f64], cfg: LsoConfig) -> usize {
    let mut det = Detector::new(cfg);
    let mut reference = RefDetector::new(cfg);
    let mut ma = Lso::with_config(MovingAverage::new(5), cfg);
    let mut ma_ref = RefLso::with_config(MovingAverage::new(5), cfg);
    let mut hw = Lso::with_config(HoltWinters::new(0.8, 0.2), cfg);
    let mut hw_ref = RefLso::with_config(HoltWinters::new(0.8, 0.2), cfg);
    let mut widest = 0;
    for (i, &x) in series.iter().enumerate() {
        assert_eq!(det.push(x), reference.push(x), "event at sample {i}");
        assert_eq!(
            bits(det.window()),
            bits(&reference.window),
            "window after sample {i}"
        );
        widest = widest.max(reference.window.len());
        assert_eq!(ma.update(x), ma_ref.update(x), "5-MA-LSO update at {i}");
        assert_eq!(
            forecast_bits(&ma),
            forecast_bits(&ma_ref),
            "5-MA-LSO at {i}"
        );
        assert_eq!(hw.update(x), hw_ref.update(x), "0.8-HW-LSO update at {i}");
        assert_eq!(
            forecast_bits(&hw),
            forecast_bits(&hw_ref),
            "0.8-HW-LSO at {i}"
        );
    }
    assert_eq!(ma.outlier_indices(), &ma_ref.all_outliers[..]);
    assert_eq!(hw.outlier_indices(), &hw_ref.all_outliers[..]);
    assert_eq!(scan_series(series, cfg), ref_scan_series(series, cfg));
    widest
}

/// The default thresholds, a window cap that evicts early, and tight
/// thresholds under which nearly every sample deviates.
fn edge_configs() -> [LsoConfig; 3] {
    let default = LsoConfig::default();
    [
        default,
        LsoConfig {
            max_window: 8,
            ..default
        },
        LsoConfig {
            gamma: 0.05,
            psi: 0.05,
            ..default
        },
    ]
}

/// A reproducible stream of uniforms in [0, 1) (64-bit LCG).
fn uniforms(seed: u64) -> impl Iterator<Item = f64> {
    let mut state = seed;
    std::iter::repeat_with(move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    })
}

#[test]
fn long_quiet_series_fill_and_evict_the_default_window() {
    // ±10 % noise never shifts, so the window reaches the cap of 256 and
    // every later push evicts; spikes and dips keep outliers coming.
    for seed in 1..=3 {
        let series: Vec<f64> = uniforms(seed)
            .take(330)
            .enumerate()
            .map(|(i, u)| match i % 37 {
                11 => 3e6 * (1.0 + u),
                29 => 2e5 * (1.0 + u),
                _ => 1e6 * (0.9 + 0.2 * u),
            })
            .collect();
        let widest = assert_equivalent(&series, LsoConfig::default());
        assert_eq!(widest, 256, "seed {seed}: the window must reach its cap");
        for cfg in edge_configs() {
            assert_equivalent(&series, cfg);
        }
    }
}

#[test]
fn plateaus_and_signed_zeros_agree() {
    let plateaus: Vec<f64> = [
        vec![5.0; 20],
        vec![7.0; 3],
        vec![5.0; 10],
        vec![9.0; 2],
        vec![5.0; 4],
        vec![20.0; 12],
        vec![20.0, 5.0, 20.0, 20.0],
        vec![3.0; 9],
    ]
    .concat();
    // Medians of ±0 put every nonzero sample past ψ; ±0 compare equal but
    // must be told apart by their bits when one leaves the window.
    let zeros = [
        0.0, -0.0, 0.0, 0.0, -0.0, 1.0, -0.0, 0.0, 2.0, 2.0, 2.0, -0.0, 0.0, 0.0, 5.0, 0.0, -0.0,
        -0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 0.0, -0.0, 0.0,
    ];
    for cfg in edge_configs() {
        assert_equivalent(&plateaus, cfg);
        assert_equivalent(&zeros, cfg);
        assert_equivalent(&[plateaus.as_slice(), &zeros, &plateaus].concat(), cfg);
    }
}

#[test]
fn monotone_ramps_where_every_split_separates() {
    let ramps: [Vec<f64>; 5] = [
        // Too shallow for γ: every split stays a candidate, none fires.
        (0..300).map(|i| 1e6 + 100.0 * f64::from(i)).collect(),
        (0..300).map(|i| 1e6 - 100.0 * f64::from(i)).collect(),
        // Steep enough to fire shift after shift.
        (0..200).map(|i| 1e3 * 1.05f64.powi(i)).collect(),
        (0..200).map(|i| 1e9 * 0.95f64.powi(i)).collect(),
        // Up, then down: the rising stack empties in one append.
        (0..150)
            .map(|i| 1e6 + 500.0 * f64::from(75 - (i - 75i32).abs()))
            .collect(),
    ];
    for series in &ramps {
        for cfg in edge_configs() {
            assert_equivalent(series, cfg);
        }
    }
}

#[test]
fn spike_trains_and_back_to_back_shifts() {
    let trains: [Vec<f64>; 4] = [
        (0..120)
            .map(|i| if i % 2 == 1 { 30.0 } else { 10.0 })
            .collect(),
        (0..120)
            .map(|i| if i % 4 >= 2 { 30.0 } else { 10.0 })
            .collect(),
        (0..120)
            .map(|i| match i % 5 {
                2 => 40.0,
                4 => 2.0,
                _ => 10.0,
            })
            .collect(),
        [10.0, 20.0, 40.0, 5.0, 80.0, 80.5, 1.0, 10.0, 100.0, 3.0]
            .iter()
            .flat_map(|&level| [level, level * 1.01, level * 0.99])
            .collect(),
    ];
    for series in &trains {
        for cfg in edge_configs() {
            assert_equivalent(series, cfg);
        }
    }
}

#[test]
fn one_sample_enters_quarantine_as_another_leaves_it() {
    // At the fourth sample the median is 1.05 and 0.9 deviates; at the
    // fifth it is 1.0, so 0.9 is an inlier again and 1.15 deviates. The
    // inlier count is unchanged while the inliers are not: the wrapper
    // must not take the push for a plain extension of what it fed.
    let series = [1.1e6, 1.0e6, 0.9e6, 1.15e6, 1.0e6, 1.05e6, 0.95e6];
    let cfg = LsoConfig {
        psi: 0.12,
        ..LsoConfig::default()
    };
    assert_equivalent(&series, cfg);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The `paper` preset's 150 epochs per trace, through both wrappers.
    #[test]
    fn paper_length_traces_match_the_reference(
        ops in prop::collection::vec((0u8..16, 0u8..6, 0.0..1.0f64), 170..200),
        cfg in config(),
    ) {
        let series: Vec<f64> = build_series(ops).into_iter().cycle().take(150).collect();
        assert_equivalent(&series, cfg);
    }
}
