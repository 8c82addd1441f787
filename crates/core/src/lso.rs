//! Level-Shift and Outlier (LSO) detection (§5.2).
//!
//! The paper's central practical finding for HB prediction: the largest
//! errors come from two time-series "pathologies" — *level shifts* (a
//! sudden persistent change in the mean, e.g. after a route change) and
//! *outliers* (isolated deviant measurements). Handling them matters far
//! more than the choice of linear predictor (§5.3, §6.1.1):
//!
//! * a detected **level shift** restarts the predictor from the shift
//!   point, discarding all older history;
//! * a detected **outlier** is discarded from the history (and, per
//!   §6.1.3, excluded from RMSRE when evaluating).
//!
//! [`Detector`] implements the detection heuristics; [`Lso`] wraps any
//! [`Predictor`] with them (the paper's `MA-LSO`, `HW-LSO`, ...).
//!
//! # The detection rules
//!
//! With `{X₁, …, Xₙ}` the measurements since the last level shift,
//! outliers excluded, `Xₖ` starts an increasing (decreasing) level shift
//! iff (§5.2):
//!
//! 1. `{X₁, …, Xₖ₋₁}` are all lower (higher) than `{Xₖ, …, Xₙ}`;
//! 2. the medians of the two groups differ by a relative difference
//!    greater than `γ`;
//! 3. `k + 2 ≤ n` — at least two samples follow `Xₖ`, so an isolated
//!    outlier is not misread as a shift.
//!
//! A measurement `Xₖ` (k < n) is an outlier if it differs from the median
//! of `{X₁, …, Xₙ}` by a relative difference greater than `ψ`.
//!
//! # Reconstruction notes (documented deviations)
//!
//! The paper gives the rules declaratively; running them *online* requires
//! two decisions it leaves open, both chosen here so that the rules
//! cooperate rather than swallow each other:
//!
//! * **Confirmation delay.** A sample can only be classified an outlier
//!   once two further samples have arrived (mirroring condition 3), since
//!   until then it may turn out to be the first sample of a level shift.
//! * **Trailing-run guard.** A deviant sample is exempt from the outlier
//!   rule only while the same-side deviant run containing it extends to
//!   the end of the window — such a trailing run may be a level shift in
//!   progress (the shift rule needs two confirming successors before it
//!   can fire). A deviant run that is already *interior* — followed by a
//!   return toward the median — is a spike or dip, and every sample of
//!   it is discarded. Without this guard the outlier rule would discard
//!   new-level samples one at a time and a shift could never accumulate
//!   the successors condition 3 demands; without the interior case,
//!   multi-epoch dips (a transient burst spanning two measurement
//!   epochs) would stay in the history and poison the predictors.
//!
//! The outlier rule measures deviation relative to the median
//! (`|X − m| / m`); the shift rule compares the two segment medians with
//! the symmetric min-denominator form `|m₁ − m₂| / min(m₁, m₂)` — the same
//! convention as the paper's error metric `E` (Eq. 4), and the natural
//! reading of "lower … by more than a relative difference γ".
//!
//! # Cost
//!
//! The detector keeps the window's values in ascending order beside the
//! window itself: every median is read off them, and condition 1 makes
//! the lower segment of a candidate split exactly the smallest samples,
//! so both segment medians are slices of the same order. A push
//! classifies the window once: two partition points of the sorted values
//! give the bounds beyond which a sample deviates by more than ψ, and
//! every later test is a comparison against them. The candidates for a
//! level shift are kept on two stacks of separating splits, which an
//! appended sample updates in amortized constant time. [`Lso`] feeds its
//! inner predictor only the sample a push appended, as long as the
//! samples it fed before are all still inliers and are all the other
//! inliers.
//!
//! A push that only appends therefore costs a binary insertion, one
//! median, two divisions when nothing deviates (a gallop of O(log d)
//! when `d` samples do) and one comparison per separating split, with
//! no pass over the window. A pass over the whole window runs only when
//! a sample leaves it (an outlier removal, a shift or a cap eviction
//! rebuilds the stacks) or when the quarantined set changes other than
//! by the new sample. On the `quick` league walk that is 5 112 of the
//! 22 400 pushes (23 %); the other 77 % take the fast path.

use crate::error::PredictError;
use crate::predictor::{typed_forecast, EpochFeatures, EpochObservation, Predictor, Update};
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;
use tputpred_obs as obs;

/// Parameters of the LSO heuristics.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LsoConfig {
    /// Minimum relative difference between segment medians for a level
    /// shift (the paper's `γ`; 0.3 performed well on its dataset).
    pub gamma: f64,
    /// Minimum relative deviation from the window median for an outlier
    /// (the paper's `ψ`; 0.4 performed well on its dataset).
    pub psi: f64,
    /// Maximum number of retained samples since the last level shift.
    /// Old samples beyond this horizon are dropped; the paper's histories
    /// are 10–150 samples, well under this cap.
    pub max_window: usize,
}

impl Default for LsoConfig {
    fn default() -> Self {
        LsoConfig {
            gamma: 0.3,
            psi: 0.4,
            max_window: 256,
        }
    }
}

/// What a [`Detector`] concluded about the sample stream after one push.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetectorEvent {
    /// Absolute (0-based) positions, in the full input series, of samples
    /// confirmed as outliers by this push and removed from the window.
    pub outliers: Vec<usize>,
    /// Absolute position at which a level shift was detected to begin.
    /// All window samples before it were dropped.
    pub level_shift: Option<usize>,
}

impl DetectorEvent {
    /// True when the push changed nothing but appending the sample.
    pub fn is_plain(&self) -> bool {
        self.outliers.is_empty() && self.level_shift.is_none()
    }
}

/// Symmetric relative difference `|a − b| / min(a, b)`, the convention of
/// Eq. 4. Degenerates gracefully when the smaller value is ~0.
fn rel_diff(a: f64, b: f64) -> f64 {
    let lo = f64::min(a, b);
    (a - b).abs() / f64::max(lo, f64::EPSILON)
}

/// The outlier rule's test of one value against the window median:
/// `|v − median| / median > ψ`. `Some(true)` for a high deviant,
/// `Some(false)` for a low one, `None` for an inlier. (The shift rule
/// compares two *medians* and uses the symmetric min-denominator form
/// instead.)
fn deviation(v: f64, med: f64, psi: f64) -> Option<bool> {
    let dev = (v - med).abs() / f64::max(med.abs(), f64::EPSILON);
    (dev > psi).then_some(v > med)
}

/// Median of an ascending, non-empty slice: bit for bit what
/// `tputpred_stats::median` returns for any ordering of it. That is
/// `quantile_sorted(sorted, 0.5)`, whose interpolation weights at an
/// even length are exactly one half each, read here without its
/// floating-point index arithmetic.
fn median_sorted(sorted: &[f64]) -> f64 {
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        sorted[mid - 1] * 0.5 + sorted[mid] * 0.5
    }
}

/// Length of the run of positions `0, 1, …` below `n` on which `pred`
/// holds, given that it holds on a run from 0 and nowhere after it.
/// Gallops from 0, so a run of `k` costs O(log k) tests: when the run is
/// empty, one.
fn run_len(n: usize, pred: impl Fn(usize) -> bool) -> usize {
    let mut bound = 1;
    while bound <= n && pred(bound - 1) {
        bound *= 2;
    }
    // `pred` holds below `bound / 2` and fails at `bound − 1` (if < n).
    let (mut lo, mut hi) = (bound / 2, (bound - 1).min(n));
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Inserts `x` into the ascending `sorted` after every entry equal to
/// it, so equal values keep arrival order — exactly where a stable sort
/// of the window would put it.
fn insert_sorted(sorted: &mut Vec<f64>, x: f64) {
    let at = sorted.partition_point(|&y| y <= x);
    sorted.insert(at, x);
}

/// Removes one entry with `v`'s exact bits from the ascending `sorted`.
fn remove_sorted(sorted: &mut Vec<f64>, v: f64) {
    let lo = sorted.partition_point(|&y| y < v);
    // Entries equal to `v` start at `lo`; match bits, since ±0 compare
    // equal.
    if let Some(k) = sorted[lo..].iter().position(|y| y.to_bits() == v.to_bits()) {
        sorted.remove(lo + k);
    }
}

/// Counts one push in the work ledger (observation-only, DESIGN.md
/// §11): `core.lso.pushes`, and `core.lso.full_passes` when the push ran
/// a pass over the whole window.
fn count_push(full_pass: bool) {
    obs::counter!("core.lso.pushes").add(1);
    obs::counter!("core.lso.full_passes").add(u64::from(full_pass));
}

/// A split of the window that separates it: every sample before window
/// position `at` lies strictly on one side of every sample from `at` on.
#[derive(Debug, Clone, Copy)]
struct Split {
    /// Window position of the first sample of the upper segment.
    at: usize,
    /// The extreme of `window[..at]` the later samples must clear: its
    /// maximum for a rising split, its minimum for a falling one.
    edge: f64,
}

/// Every separating split of the window, as two stacks ascending in
/// `at`: the rising splits (all earlier samples lower) and the falling
/// ones (all earlier samples higher). A rising split's edge, the prefix
/// maximum, grows with `at`, so the splits an appended sample fails (edge
/// not below it) are the top of the stack; falling splits mirror this.
#[derive(Debug, Clone, Default)]
struct Splits {
    rising: Vec<Split>,
    falling: Vec<Split>,
}

impl Splits {
    /// Appends the sample `x` at window position `at`; `min` and `max`
    /// bound the `at` samples before it. Amortized O(1): each split is
    /// pushed once and popped at most once.
    fn extend(&mut self, at: usize, x: f64, min: f64, max: f64) {
        while self.rising.last().is_some_and(|s| s.edge >= x) {
            self.rising.pop();
        }
        while self.falling.last().is_some_and(|s| s.edge <= x) {
            self.falling.pop();
        }
        if at > 0 && max < x {
            self.rising.push(Split { at, edge: max });
        }
        if at > 0 && min > x {
            self.falling.push(Split { at, edge: min });
        }
    }

    fn clear(&mut self) {
        self.rising.clear();
        self.falling.clear();
    }

    /// Rebuilds both stacks from `window` by replaying its appends: one
    /// pass, needed only after a sample left the window.
    fn rebuild(&mut self, window: &[(usize, f64)]) {
        self.clear();
        let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
        for (at, &(_, x)) in window.iter().enumerate() {
            self.extend(at, x, min, max);
            min = f64::min(min, x);
            max = f64::max(max, x);
        }
    }
}

/// Samples the window-sized buffers (the window, its sorted values and
/// `Lso`'s feeds) have room for from the start, so a short trace grows
/// none of them; the split stacks usually hold a few entries and grow on
/// demand.
const RESERVE: usize = 64;

/// Online level-shift and outlier detector over a positive-valued series.
///
/// Feed samples with [`Detector::push`]; the detector maintains the window
/// of samples since the last detected level shift with confirmed outliers
/// removed, available via [`Detector::window`].
#[derive(Debug, Clone)]
pub struct Detector {
    cfg: LsoConfig,
    /// `(absolute_index, value)` since the last level shift, outliers
    /// removed.
    window: Vec<(usize, f64)>,
    /// The values of `window`, ascending; equal values in arrival order.
    sorted: Vec<f64>,
    /// The window's separating splits, the level-shift candidates.
    splits: Splits,
    /// The outlier rule's classification of the window against its
    /// median: a value below `below` is a low deviant, one above `above`
    /// a high deviant. Meaningful while `deviants > 0`.
    below: f64,
    above: f64,
    /// How many window samples deviate from the median by more than ψ;
    /// 0 while the window holds fewer than 4 samples.
    deviants: usize,
    /// Whether the last push only appended its sample: no eviction, no
    /// outlier removed, no level shift.
    appended: bool,
    /// Whether the last push ran a pass over the whole window.
    full_pass: bool,
    next_index: usize,
}

impl Detector {
    /// Creates a detector with the given thresholds.
    ///
    /// # Panics
    ///
    /// Panics if `gamma` or `psi` is not positive, or `max_window < 4`
    /// (the shift rule needs at least 4 samples: one before the shift,
    /// the shift sample, and two after).
    pub fn new(cfg: LsoConfig) -> Self {
        assert!(cfg.gamma > 0.0, "LSO gamma must be positive");
        assert!(cfg.psi > 0.0, "LSO psi must be positive");
        assert!(
            cfg.max_window >= 4,
            "LSO window must hold at least 4 samples"
        );
        Detector {
            cfg,
            window: Vec::with_capacity(RESERVE),
            sorted: Vec::with_capacity(RESERVE),
            splits: Splits::default(),
            below: f64::NEG_INFINITY,
            above: f64::INFINITY,
            deviants: 0,
            appended: false,
            full_pass: false,
            next_index: 0,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &LsoConfig {
        &self.cfg
    }

    /// The retained `(absolute_index, value)` window: samples since the
    /// last level shift, confirmed outliers removed, oldest first.
    pub fn window(&self) -> &[(usize, f64)] {
        &self.window
    }

    /// Absolute index the next pushed sample will receive.
    pub fn next_index(&self) -> usize {
        self.next_index
    }

    /// Median of the retained window, `None` while it is empty.
    fn median(&self) -> Option<f64> {
        (!self.sorted.is_empty()).then(|| median_sorted(&self.sorted))
    }

    /// Whether every value from `lo` to `hi` lies within ψ of the window
    /// median, by the last [`Detector::classify`]. True for the empty
    /// range `(∞, −∞)`.
    fn inliers(&self, (lo, hi): (f64, f64)) -> bool {
        self.deviants == 0 || (lo >= self.below && hi <= self.above)
    }

    /// Drops all state (history and index counter).
    pub fn reset(&mut self) {
        self.window.clear();
        self.sorted.clear();
        self.splits.clear();
        self.deviants = 0;
        self.next_index = 0;
    }

    /// Ingests the next sample and reports any detections.
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN: a NaN has no place in the sorted window, and
    /// admitting one would silently corrupt every later median.
    pub fn push(&mut self, x: f64) -> DetectorEvent {
        let ev = self.ingest(x);
        count_push(self.full_pass);
        ev
    }

    /// [`Detector::push`] without the ledger count, which [`Lso`] makes
    /// once its inner predictor is in step.
    fn ingest(&mut self, x: f64) -> DetectorEvent {
        assert!(!x.is_nan(), "NaN sample");
        let idx = self.next_index;
        self.next_index += 1;
        self.full_pass = false;
        let evicts = self.window.len() >= self.cfg.max_window;
        if !evicts {
            let min = self.sorted.first().copied().unwrap_or(f64::INFINITY);
            let max = self.sorted.last().copied().unwrap_or(f64::NEG_INFINITY);
            self.splits.extend(self.window.len(), x, min, max);
        }
        self.window.push((idx, x));
        insert_sorted(&mut self.sorted, x);
        if evicts {
            let (_, oldest) = self.window.remove(0);
            remove_sorted(&mut self.sorted, oldest);
            self.splits.rebuild(&self.window);
            self.full_pass = true;
        }
        self.classify();

        let outliers = self.confirm_outliers();
        if !outliers.is_empty() {
            self.splits.rebuild(&self.window);
        }
        let level_shift = self.detect_level_shift();
        self.appended = !evicts && outliers.is_empty() && level_shift.is_none();
        if !self.appended {
            self.classify();
        }
        DetectorEvent {
            outliers,
            level_shift,
        }
    }

    /// Classifies the window against its median with two partition
    /// points of `sorted`, galloping in from its ends. The outlier test
    /// [`deviation`] only grows with the distance from the median on
    /// either side of it, so the low deviants are a prefix of `sorted` and
    /// the high ones a suffix, and equal values fall on the same side:
    /// every later test of a window sample is a comparison against
    /// `below`/`above`, exact to the bit. With no deviant this costs two
    /// divisions.
    fn classify(&mut self) {
        let n = self.sorted.len();
        if n < 4 {
            self.deviants = 0;
            return;
        }
        let sorted = &self.sorted;
        let med = median_sorted(sorted);
        let psi = self.cfg.psi;
        let low = run_len(n, |i| deviation(sorted[i], med, psi) == Some(false));
        let high = n - run_len(n, |i| deviation(sorted[n - 1 - i], med, psi) == Some(true));
        // Neither sentinel is a window value on the wrong side: a low
        // deviant is below the median, so never +∞, and a high one is
        // above it, so never −∞.
        self.below = sorted.get(low).copied().unwrap_or(f64::INFINITY);
        self.above = high.checked_sub(1).map_or(f64::NEG_INFINITY, |h| sorted[h]);
        self.deviants = low + (n - high);
    }

    /// Confirms and removes outliers among samples that have at least two
    /// successors (confirmation delay), exempting trailing same-side
    /// deviant runs (potential shifts in progress). Returns their
    /// absolute indices. Walks the window only when a deviant is
    /// confirmable, and reads every classification off the bounds.
    fn confirm_outliers(&mut self) -> Vec<usize> {
        if self.deviants == 0 {
            return Vec::new();
        }
        let n = self.window.len();
        let (below, above) = (self.below, self.above);
        let class = |v: f64| (v < below || v > above).then_some(v > above);
        // The run of equal deviation reaching the newest sample starts at
        // `trailing`; a deviant run there may be a shift in progress.
        let last = class(self.window[n - 1].1);
        let mut trailing = n - 1;
        while trailing > 0 && class(self.window[trailing - 1].1) == last {
            trailing -= 1;
        }
        // Only positions with ≥ 2 successors (j ≤ n−3) are confirmable;
        // nothing is removed when every deviant lies past them.
        let confirmable = trailing.min(n - 2);
        let exempt = self.window[confirmable..]
            .iter()
            .filter(|&&(_, v)| class(v).is_some())
            .count();
        if exempt == self.deviants {
            return Vec::new();
        }
        self.full_pass = true;
        let mut removed = Vec::new();
        let mut j = 0;
        let sorted = &mut self.sorted;
        self.window.retain(|&(idx, v)| {
            let outlier = j < confirmable && class(v).is_some();
            j += 1;
            if outlier {
                removed.push(idx);
                remove_sorted(sorted, v);
            }
            !outlier
        });
        removed
    }

    /// Finds the most recent split satisfying the three level-shift
    /// conditions among the separating splits; if found, drops everything
    /// before it and returns its absolute index.
    fn detect_level_shift(&mut self) -> Option<usize> {
        let n = self.window.len();
        if n < 4 {
            return None;
        }
        // Paper indices: k ∈ [2, n−2] (1-based) ⇒ s ∈ [1, n−3] (0-based).
        // Most recent shift first: merge the two stacks from their tops
        // (no split both rises and falls, and every `at` is at least 1).
        let (rising, falling) = (&self.splits.rising, &self.splits.falling);
        let (mut r, mut f) = (rising.len(), falling.len());
        while r + f > 0 {
            let rise_at = r.checked_sub(1).map_or(0, |i| rising[i].at);
            let fall_at = f.checked_sub(1).map_or(0, |i| falling[i].at);
            let increasing = rise_at > fall_at;
            let s = if increasing {
                r -= 1;
                rise_at
            } else {
                f -= 1;
                fall_at
            };
            if s > n - 3 {
                continue;
            }
            // The split separates the segments, so the lower one holds
            // exactly the smallest samples: the bottom of `sorted`.
            let lower_len = if increasing { s } else { n - s };
            let (lower, upper) = self.sorted.split_at(lower_len);
            if rel_diff(median_sorted(lower), median_sorted(upper)) > self.cfg.gamma {
                let start = self.window[s].0;
                self.window.drain(..s);
                if increasing {
                    self.sorted.drain(..lower_len);
                } else {
                    self.sorted.truncate(lower_len);
                }
                self.splits.rebuild(&self.window);
                self.full_pass = true;
                return Some(start);
            }
        }
        None
    }
}

/// An offline scan of a complete series with the LSO detector.
///
/// Returns `(level_shift_starts, outlier_positions)` as absolute 0-based
/// indices. Used by the segmented CoV of §6.1.3 and by tests.
pub fn scan_series(series: &[f64], cfg: LsoConfig) -> (Vec<usize>, Vec<usize>) {
    let mut det = Detector::new(cfg);
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

/// The `(min, max)` of no samples, from which folding in samples starts.
const EMPTY_RANGE: (f64, f64) = (f64::INFINITY, f64::NEG_INFINITY);

/// Wraps any [`Predictor`] with the LSO heuristics: the paper's
/// `MA-LSO`, `HW-LSO`, etc.
///
/// After every push the inner predictor stands exactly where it would
/// after a reset and a replay of the cleaned window's feedable samples
/// (below): a detected level shift restarts it on the post-shift window,
/// a confirmed outlier rebuilds it without the outlier. Confirmed-outlier
/// positions accumulate in [`Lso::outlier_indices`] so evaluation can
/// exclude them from RMSRE (§6.1.3).
///
/// Two guards keep "outliers are discarded from the history" true *at
/// every instant*, not just in retrospect:
///
/// * **Quarantine** — samples deviating from the window median by more
///   than ψ are withheld from the inner predictor: they are either
///   outliers awaiting their confirmation delay (a spike fed raw would
///   let trend-tracking predictors like Holt-Winters amplify it into
///   wild — even negative — forecasts) or a level shift in progress
///   (which the restart re-feeds in full the moment it is confirmed).
/// * **Positivity** — throughput forecasts fall back to the cleaned
///   window's median whenever the inner predictor extrapolates to a
///   non-positive value.
///
/// # Examples
///
/// ```
/// use tputpred_core::hb::{MovingAverage, Predictor};
/// use tputpred_core::lso::Lso;
///
/// let mut p = Lso::new(MovingAverage::new(10));
/// // A level shift from ~10 to ~20:
/// for x in [10.0, 10.5, 9.5, 10.0, 20.0, 20.5, 19.5, 20.0] {
///     p.update(x);
/// }
/// // Without LSO a 10-MA would still predict ~15; with LSO the predictor
/// // restarted at the shift and tracks the new level.
/// assert!(p.forecast().unwrap() > 19.0);
/// ```
#[derive(Debug, Clone)]
pub struct Lso<P> {
    detector: Detector,
    inner: P,
    all_outliers: Vec<usize>,
    name: OnceLock<String>,
    /// The `(absolute_index, value)` samples `inner` was fed since its
    /// last reset, in order; meaningless until `synced`.
    fed: Vec<(usize, f64)>,
    /// Scratch: the feedable samples after the current push.
    feed: Vec<(usize, f64)>,
    /// False until `inner` was first reset (a wrapped predictor may come
    /// with history of its own).
    synced: bool,
    /// The smallest and largest value in `fed` (∞ and −∞ while empty).
    fed_range: (f64, f64),
}

impl<P: Predictor> Lso<P> {
    /// Wraps `inner` with default thresholds (γ = 0.3, ψ = 0.4).
    pub fn new(inner: P) -> Self {
        Self::with_config(inner, LsoConfig::default())
    }

    /// Wraps `inner` with explicit thresholds.
    pub fn with_config(inner: P, cfg: LsoConfig) -> Self {
        Lso {
            detector: Detector::new(cfg),
            inner,
            all_outliers: Vec::new(),
            name: OnceLock::new(),
            fed: Vec::with_capacity(RESERVE),
            feed: Vec::with_capacity(RESERVE),
            synced: false,
            fed_range: EMPTY_RANGE,
        }
    }

    /// Absolute positions of every sample confirmed as an outlier so far.
    pub fn outlier_indices(&self) -> &[usize] {
        &self.all_outliers
    }

    /// The wrapped predictor.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// The detection state.
    pub fn detector(&self) -> &Detector {
        &self.detector
    }

    /// Brings the inner predictor in line with the feedable history: the
    /// current *inliers* of the window — everything within ψ of the
    /// window median. Deviant samples are either shifts in progress (the
    /// restart will re-feed them) or outliers awaiting confirmation (they
    /// will be removed); neither belongs in a forecast yet. Returns
    /// whether it rebuilt the feedable history from the whole window.
    ///
    /// An inner predictor's state depends only on the samples it was fed
    /// since its reset, so when the feedable samples extend the ones fed
    /// so far, feeding the new tail is exactly a reset and a full replay.
    /// The common case needs no look at the window at all. When the push
    /// only appended its sample, everything fed so far is still in the
    /// window; if it all still lies within the classification bounds and
    /// the window holds no inlier besides it and the new sample, the new
    /// inliers are exactly the old ones plus the new sample (if it is one
    /// itself), and that sample is the whole tail.
    fn sync_inner(&mut self) -> bool {
        let detector = &self.detector;
        let window = detector.window();
        let n = window.len();
        let newest = window[n - 1];
        let fresh = detector.inliers((newest.1, newest.1));
        if self.synced
            && detector.appended
            && detector.inliers(self.fed_range)
            && self.fed.len() + usize::from(fresh) == n - detector.deviants
        {
            if fresh {
                self.inner.update(newest.1);
                self.fed.push(newest);
                let (lo, hi) = self.fed_range;
                self.fed_range = (f64::min(lo, newest.1), f64::max(hi, newest.1));
            }
            return false;
        }
        self.feed.clear();
        self.feed
            .extend(window.iter().filter(|&&(_, v)| detector.inliers((v, v))));
        let replay_from = if self.synced && self.feed.starts_with(&self.fed) {
            self.fed.len()
        } else {
            self.inner.reset();
            self.synced = true;
            0
        };
        for &(_, v) in &self.feed[replay_from..] {
            self.inner.update(v);
        }
        std::mem::swap(&mut self.fed, &mut self.feed);
        self.fed_range = self.fed.iter().fold(EMPTY_RANGE, |(lo, hi), &(_, v)| {
            (f64::min(lo, v), f64::max(hi, v))
        });
        true
    }
}

impl<P: Predictor> Predictor for Lso<P> {
    fn try_predict(&self, features: &EpochFeatures) -> Result<f64, PredictError> {
        let forecast = match self.inner.try_predict(features) {
            // A trend extrapolated below zero is not a throughput;
            // substitute the robust window location.
            Ok(f) if f <= 0.0 => self.detector.median(),
            Ok(f) => Some(f),
            // Immediately after a restart some predictors (Holt-Winters)
            // need two samples; bridge the gap so a forecast is always
            // available once any history exists, as the paper's
            // evaluation assumes.
            Err(_) => self.detector.median(),
        };
        typed_forecast(forecast)
    }

    fn observe(&mut self, epoch: &EpochObservation) -> Update {
        let Some(x) = epoch.throughput_bps else {
            return Update::Skipped;
        };
        let ev = self.detector.ingest(x);
        self.all_outliers.extend_from_slice(&ev.outliers);
        // The feedable set can change shape on any push (a suspect
        // appears, clears, or pairs up), so the inner predictor is
        // re-synced each time.
        let rebuilt = self.sync_inner();
        let full_pass = self.detector.full_pass || rebuilt;
        count_push(full_pass);
        let retained = self.detector.window().len();
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
        self.detector.reset();
        self.inner.reset();
        self.all_outliers.clear();
        self.fed.clear();
        self.synced = true;
        self.fed_range = EMPTY_RANGE;
    }

    // lint:hot-path
    fn name(&self) -> &str {
        self.name.get_or_init(|| {
            // lint:allow(hot-path-alloc): formats once, on the first call; cached after
            format!("{}-LSO", self.inner.name())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hb::{HoltWinters, MovingAverage};

    fn cfg() -> LsoConfig {
        LsoConfig::default()
    }

    #[test]
    fn stationary_noise_triggers_nothing() {
        let mut det = Detector::new(cfg());
        // ±10% noise around 10: below both thresholds.
        let series = [10.0, 10.8, 9.4, 10.2, 9.8, 10.5, 9.6, 10.1, 10.3, 9.9];
        for x in series {
            let ev = det.push(x);
            assert!(ev.is_plain(), "spurious detection on {x}: {ev:?}");
        }
        assert_eq!(det.window().len(), series.len());
    }

    #[test]
    fn clean_level_shift_is_detected_with_two_confirming_samples() {
        let mut det = Detector::new(cfg());
        for x in [10.0; 8] {
            det.push(x);
        }
        assert!(
            det.push(20.0).is_plain(),
            "first new-level sample: no call yet"
        );
        assert!(
            det.push(20.0).is_plain(),
            "second new-level sample: k+2>n still"
        );
        let ev = det.push(20.0);
        assert_eq!(ev.level_shift, Some(8), "shift begins at the first 20");
        assert_eq!(det.window().len(), 3);
    }

    #[test]
    fn decreasing_level_shift_is_detected_too() {
        let mut det = Detector::new(cfg());
        for x in [20.0; 6] {
            det.push(x);
        }
        det.push(10.0);
        det.push(10.0);
        let ev = det.push(10.0);
        assert_eq!(ev.level_shift, Some(6));
    }

    #[test]
    fn small_level_change_below_gamma_is_ignored() {
        // 10 → 12 is a 20% change, below γ = 0.3.
        let mut det = Detector::new(cfg());
        for x in [10.0; 6] {
            det.push(x);
        }
        for x in [12.0; 5] {
            assert_eq!(det.push(x).level_shift, None);
        }
    }

    #[test]
    fn isolated_outlier_is_confirmed_after_two_successors() {
        let mut det = Detector::new(cfg());
        for x in [10.0; 8] {
            det.push(x);
        }
        assert!(det.push(30.0).is_plain());
        assert!(
            det.push(10.0).is_plain(),
            "one successor: not confirmable yet"
        );
        let ev = det.push(10.0);
        assert_eq!(ev.outliers, vec![8], "the 30 at position 8 is an outlier");
        assert_eq!(ev.level_shift, None);
        // lint:allow(float-eq): window holds the exact literals pushed above
        assert!(det.window().iter().all(|&(_, v)| v == 10.0));
    }

    #[test]
    fn outlier_rule_does_not_eat_level_shifts() {
        // The regression the isolation guard exists for: consecutive
        // same-side deviations must be left for the shift rule.
        let series: Vec<f64> = [vec![10.0; 8], vec![20.0; 3]].concat();
        let (shifts, outliers) = scan_series(&series, cfg());
        assert_eq!(shifts, vec![8]);
        assert!(outliers.is_empty(), "no sample of the shift is an outlier");
    }

    #[test]
    fn low_outlier_is_detected() {
        let series: Vec<f64> = [vec![10.0; 8], vec![2.0], vec![10.0; 3]].concat();
        let (shifts, outliers) = scan_series(&series, cfg());
        assert!(shifts.is_empty());
        assert_eq!(outliers, vec![8]);
    }

    #[test]
    fn spike_followed_by_shift_is_eventually_cleaned() {
        let series: Vec<f64> = [vec![10.0; 6], vec![30.0], vec![20.0; 4]].concat();
        let (shifts, outliers) = scan_series(&series, cfg());
        assert!(!shifts.is_empty(), "the shift to 20 must be found");
        // The 30 spike is removed as an outlier either before or after the
        // shift is declared.
        assert!(outliers.contains(&6), "the spike is cleaned: {outliers:?}");
    }

    #[test]
    #[should_panic(expected = "NaN sample")]
    fn nan_sample_panics_in_every_build() {
        let mut det = Detector::new(cfg());
        det.push(10.0);
        det.push(f64::NAN);
    }

    #[test]
    fn window_is_capped() {
        let mut det = Detector::new(LsoConfig {
            max_window: 8,
            ..cfg()
        });
        for i in 0..100 {
            det.push(10.0 + (i % 3) as f64 * 0.1);
        }
        assert!(det.window().len() <= 8);
    }

    #[test]
    fn lso_wrapper_restarts_ma_after_shift() {
        let mut with = Lso::new(MovingAverage::new(10));
        let mut without = MovingAverage::new(10);
        let series: Vec<f64> = [vec![10.0; 10], vec![20.0; 3]].concat();
        for &x in &series {
            with.update(x);
            without.update(x);
        }
        let w = with.forecast().unwrap();
        let wo = without.forecast().unwrap();
        assert!(w > 19.0, "LSO restarted onto the new level: {w}");
        assert!(wo < 15.0, "plain MA still dragged down by old level: {wo}");
    }

    #[test]
    fn lso_wrapper_discards_outliers_from_history() {
        let mut with = Lso::new(MovingAverage::new(10));
        let series: Vec<f64> = [vec![10.0; 8], vec![100.0], vec![10.0; 3]].concat();
        for &x in &series {
            with.update(x);
        }
        let f = with.forecast().unwrap();
        assert!((f - 10.0).abs() < 0.5, "outlier excluded from MA: {f}");
        assert_eq!(with.outlier_indices(), &[8]);
    }

    #[test]
    fn lso_bridges_holt_winters_warmup_after_restart() {
        let mut p = Lso::new(HoltWinters::new(0.8, 0.2));
        for x in [10.0; 8] {
            p.update(x);
        }
        p.update(20.0);
        p.update(20.0);
        p.update(20.0); // shift detected here; HW re-fed 3 samples
        assert!(p.forecast().is_some());
        assert!(p.forecast().unwrap() > 19.0);
    }

    #[test]
    fn update_reports_events() {
        let mut p = Lso::new(MovingAverage::new(5));
        for x in [10.0; 8] {
            assert_eq!(p.update(x), Update::Accepted);
        }
        p.update(20.0);
        p.update(20.0);
        assert_eq!(
            p.update(20.0),
            Update::LevelShift {
                start: 8,
                retained: 3
            }
        );
    }

    #[test]
    fn reset_clears_everything() {
        let mut p = Lso::new(MovingAverage::new(5));
        for x in [vec![10.0; 8], vec![50.0], vec![10.0; 3]].concat() {
            p.update(x);
        }
        assert!(!p.outlier_indices().is_empty());
        p.reset();
        assert!(p.outlier_indices().is_empty());
        assert_eq!(p.forecast(), None);
        assert_eq!(p.detector().next_index(), 0);
    }

    #[test]
    fn name_reflects_wrapping() {
        let p = Lso::new(MovingAverage::new(10));
        assert_eq!(p.name(), "10-MA-LSO");
    }

    #[test]
    fn gap_epochs_do_not_advance_the_detector() {
        use crate::predictor::EpochObservation;
        let mut p = Lso::new(MovingAverage::new(5));
        p.update(10.0);
        assert_eq!(p.observe(&EpochObservation::GAP), Update::Skipped);
        assert_eq!(p.detector().next_index(), 1, "gap consumed no index");
        assert_eq!(p.forecast(), Some(10.0));
    }

    #[test]
    fn successive_level_shifts_are_all_caught() {
        let series: Vec<f64> = [vec![10.0; 6], vec![20.0; 6], vec![5.0; 6]].concat();
        let (shifts, _) = scan_series(&series, cfg());
        assert_eq!(shifts, vec![6, 12]);
    }

    #[test]
    fn median_sorted_is_the_stats_median_bit_for_bit() {
        use tputpred_stats::quantile::quantile_sorted;
        let values = [
            -0.0, 0.0, 1e-300, 0.1, 0.3, 1.0, 3.0, 1e6, 1.5e6, 7e15, 9e307, 1.7e308,
        ];
        for len in 1..=values.len() {
            for start in 0..=values.len() - len {
                let slice = &values[start..start + len];
                assert_eq!(
                    median_sorted(slice).to_bits(),
                    quantile_sorted(slice, 0.5).to_bits(),
                    "{slice:?}"
                );
            }
        }
    }

    #[test]
    fn rel_diff_is_symmetric() {
        assert_eq!(rel_diff(10.0, 20.0), rel_diff(20.0, 10.0));
        assert!((rel_diff(10.0, 20.0) - 1.0).abs() < 1e-12);
    }
}
