//! Deterministic measurement fault injection (DESIGN.md §10) and the
//! correlated-outage regime process layered on top of it (§13).
//!
//! The paper's campaign ran on the real RON testbed, where measurement
//! infrastructure fails: pathload sometimes aborts without converging,
//! ping probes are lost in bursts or the prober host goes down, bulk
//! transfers are cut short, and whole epochs vanish when a node reboots.
//! The authors silently discard such epochs. This module reproduces
//! those failures *deterministically*: a [`FaultPlan`] is drawn once per
//! trace from the trace seed, on an RNG stream separate from the
//! simulator's, so a plan with every probability at zero leaves the
//! generated measurements bit-identical to a build without the fault
//! layer at all — and any plan replays exactly.
//!
//! Independent per-epoch coin flips miss how real prober outages behave:
//! a crashed pathload daemon stays down for many consecutive epochs. A
//! [`RegimeConfig`] adds that correlation as a per-trace semi-Markov
//! chain over [`OutageRegime`] states (Healthy ↔ Degraded ↔ Down) with
//! geometric dwell times, drawn as a prefix of the same salted fault
//! stream: while `Degraded`, every [`FaultConfig`] probability is scaled
//! by a multiplier; while `Down`, the node measures nothing at all. With
//! [`RegimeConfig::none`] the chain is never drawn and the fault stream
//! is byte-identical to the regime-free layer (`zero_fault_pin.rs` pins
//! the zero-fault/zero-regime path end to end).
//!
//! What each fault does to the epoch is decided in `runner.rs`; what the
//! dataset records about it lives in `data::EpochStatus` /
//! `data::EpochFaults`.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

/// Per-epoch fault probabilities, all in `[0, 1]` and independent.
/// Part of the [`crate::preset::Preset`], so fault rates are an input of
/// dataset generation like every other knob.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Whole epoch missing (node down): nothing is measured, cross
    /// traffic still flows.
    pub epoch_missing: f64,
    /// Pathload runs but aborts without converging: no `Â`.
    pub pathload_fail: f64,
    /// The ping prober is down for a contiguous window: probes in it
    /// were never sent.
    pub ping_outage: f64,
    /// A burst of probe replies is lost on the return path: probes in
    /// the window count as lost, inflating `p̂`/`p̃`.
    pub reply_loss_burst: f64,
    /// The bulk transfer is cut short at a random fraction of its
    /// scheduled duration.
    pub transfer_truncate: f64,
    /// The bulk transfer fails to start at all: no `R`.
    pub transfer_fail: f64,
}

impl FaultConfig {
    /// No faults — the default, and the configuration of every stock
    /// preset. Guarantees bit-identical output to a fault-free build.
    pub fn none() -> Self {
        Self::default()
    }

    /// Every fault type at the same probability `p` — the `abl_faults`
    /// sweep's axis.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    pub fn uniform(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "fault probability out of range");
        FaultConfig {
            epoch_missing: p,
            pathload_fail: p,
            ping_outage: p,
            reply_loss_burst: p,
            transfer_truncate: p,
            transfer_fail: p,
        }
    }

    /// True when every probability is zero (no fault can ever fire).
    /// A NaN is *not* "none": it fails `<= 0.0` like any positive rate
    /// and is then neutralised by [`FaultConfig::sanitized`].
    pub fn is_none(&self) -> bool {
        self.epoch_missing <= 0.0
            && self.pathload_fail <= 0.0
            && self.ping_outage <= 0.0
            && self.reply_loss_burst <= 0.0
            && self.transfer_truncate <= 0.0
            && self.transfer_fail <= 0.0
    }

    /// Every probability forced into `[0, 1]`, NaN to 0 (a rate nobody
    /// specified fires never, not always). A preset's fields carry no
    /// range check of their own, and a NaN would otherwise slip past
    /// [`FaultConfig::is_none`] into `random_bool`, which panics on it;
    /// so every draw ([`FaultPlan::draw_with_regimes`],
    /// [`draw_regimes`]) passes through here. In-range configs come
    /// back bit-identical, which is what lets the draws sanitize
    /// unconditionally without moving the zero-fault pin.
    pub fn sanitized(&self) -> FaultConfig {
        FaultConfig {
            epoch_missing: sanitize_probability(self.epoch_missing),
            pathload_fail: sanitize_probability(self.pathload_fail),
            ping_outage: sanitize_probability(self.ping_outage),
            reply_loss_burst: sanitize_probability(self.reply_loss_burst),
            transfer_truncate: sanitize_probability(self.transfer_truncate),
            transfer_fail: sanitize_probability(self.transfer_fail),
        }
    }

    /// This config with every probability scaled by `multiplier` and
    /// re-clamped into `[0, 1]` — the Degraded-regime modulation.
    fn scaled(&self, multiplier: f64) -> FaultConfig {
        FaultConfig {
            epoch_missing: (self.epoch_missing * multiplier).clamp(0.0, 1.0),
            pathload_fail: (self.pathload_fail * multiplier).clamp(0.0, 1.0),
            ping_outage: (self.ping_outage * multiplier).clamp(0.0, 1.0),
            reply_loss_burst: (self.reply_loss_burst * multiplier).clamp(0.0, 1.0),
            transfer_truncate: (self.transfer_truncate * multiplier).clamp(0.0, 1.0),
            transfer_fail: (self.transfer_fail * multiplier).clamp(0.0, 1.0),
        }
    }
}

/// NaN fires never; everything else is clamped into `[0, 1]`.
fn sanitize_probability(p: f64) -> f64 {
    if p.is_nan() {
        0.0
    } else {
        p.clamp(0.0, 1.0)
    }
}

/// NaN/∞ dwell means collapse to the minimum of one epoch; finite means
/// are floored at one (a state is occupied at least the epoch it is
/// entered in).
fn sanitize_dwell(mean_epochs: f64) -> f64 {
    if mean_epochs.is_finite() {
        mean_epochs.max(1.0)
    } else {
        1.0
    }
}

/// The outage state a trace is in during one epoch (DESIGN.md §13).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum OutageRegime {
    /// Measurement infrastructure nominal: the base [`FaultConfig`]
    /// rates apply.
    #[default]
    Healthy,
    /// Flaky infrastructure (a prober crash-looping, a loaded
    /// monitoring host): every fault probability is scaled by
    /// [`RegimeConfig::fault_multiplier`].
    Degraded,
    /// The node is down: the whole epoch goes unmeasured, like a
    /// certain `epoch_missing` hit, for the regime's dwell.
    Down,
}

impl OutageRegime {
    /// Lower-case label, as figure tables and CSVs print it.
    pub fn label(&self) -> &'static str {
        match self {
            OutageRegime::Healthy => "healthy",
            OutageRegime::Degraded => "degraded",
            OutageRegime::Down => "down",
        }
    }
}

/// The correlated-outage regime chain: a per-trace semi-Markov process
/// Healthy ↔ Degraded ↔ Down with geometric dwell times, drawn as a
/// prefix of the salted fault stream (DESIGN.md §13). Part of the
/// [`crate::preset::Preset`]; every stock preset uses
/// [`RegimeConfig::none`], which draws nothing at all.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct RegimeConfig {
    /// Per-epoch probability of leaving Healthy for Degraded.
    pub degraded_entry: f64,
    /// Per-epoch probability, while Degraded, of escalating to Down.
    pub down_entry: f64,
    /// Mean geometric dwell in Degraded, in epochs (≥ 1). Also the mean
    /// of the flaky recovery window a Down spell exits through.
    pub mean_degraded_dwell: f64,
    /// Mean geometric dwell in Down, in epochs (≥ 1).
    pub mean_down_dwell: f64,
    /// Scale applied to every [`FaultConfig`] probability while
    /// Degraded (clamped back into `[0, 1]`).
    pub fault_multiplier: f64,
}

impl RegimeConfig {
    /// No regime process at all — the default, and the configuration of
    /// every stock preset. Guarantees the fault stream is byte-identical
    /// to the regime-free layer.
    pub fn none() -> Self {
        Self::default()
    }

    /// The `fig25_resilience` scenario: frequent multi-epoch Degraded
    /// spells, occasional multi-epoch node outages, faults 6× more
    /// likely while Degraded.
    pub fn flaky() -> Self {
        RegimeConfig {
            degraded_entry: 0.12,
            down_entry: 0.15,
            mean_degraded_dwell: 4.0,
            mean_down_dwell: 3.0,
            fault_multiplier: 6.0,
        }
    }

    /// True when the chain can never leave Healthy (no entry
    /// probability): nothing is drawn and nothing is modulated. As with
    /// [`FaultConfig::is_none`], a NaN entry rate is not "none".
    pub fn is_none(&self) -> bool {
        self.degraded_entry <= 0.0 && self.down_entry <= 0.0
    }

    /// Entry rates sanitized like fault probabilities, dwell means
    /// floored at one epoch, a NaN/∞ multiplier neutralised to 1 and
    /// negative ones to 0. Valid configs come back bit-identical.
    pub fn sanitized(&self) -> RegimeConfig {
        RegimeConfig {
            degraded_entry: sanitize_probability(self.degraded_entry),
            down_entry: sanitize_probability(self.down_entry),
            mean_degraded_dwell: sanitize_dwell(self.mean_degraded_dwell),
            mean_down_dwell: sanitize_dwell(self.mean_down_dwell),
            fault_multiplier: if self.fault_multiplier.is_finite() {
                self.fault_multiplier.max(0.0)
            } else {
                1.0
            },
        }
    }
}

/// What happens to an epoch's bulk transfer.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum TransferFault {
    /// Runs to completion.
    #[default]
    None,
    /// Cut short at this fraction of the scheduled duration (in
    /// `[0.25, 0.85]`): the throughput sample covers only the truncated
    /// run, and prefix throughputs past the cut are unmeasured.
    Truncated(f64),
    /// Never starts: no throughput sample at all.
    Failed,
}

/// The faults scheduled for one epoch. Window positions are fractions
/// of the epoch's probing span (ping-window start → transfer end), so
/// the plan is independent of the preset's absolute phase durations.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EpochFaultPlan {
    /// Node down: measure nothing this epoch.
    pub missing: bool,
    /// Pathload aborts: discard `Â`.
    pub pathload_fail: bool,
    /// Prober outage as `(start, end)` fractions of the probing span.
    pub ping_outage: Option<(f64, f64)>,
    /// Reply-loss burst as `(start, end)` fractions of the probing span.
    pub reply_burst: Option<(f64, f64)>,
    /// The bulk transfer's fate.
    pub transfer: TransferFault,
}

impl EpochFaultPlan {
    /// True when nothing at all is scheduled for this epoch.
    pub fn is_clean(&self) -> bool {
        *self == EpochFaultPlan::default()
    }
}

/// One trace's fault schedule: drawn up-front from the trace seed, never
/// from the simulator's RNG, so measurement values are untouched by the
/// draw itself.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    epochs: Vec<EpochFaultPlan>,
    regimes: Vec<OutageRegime>,
}

/// Salt separating the fault-plan RNG stream (regime-chain prefix
/// included) from every other consumer of the trace seed.
const FAULT_STREAM_SALT: u64 = 0xFA17_5EED_0000_0001;

/// Dwell draws are clamped here so a pathological mean cannot schedule
/// an outage longer than any realistic trace.
const MAX_DWELL_EPOCHS: u32 = 10_000;

/// One geometric dwell on `{1, 2, ...}` with the given mean, by inverse
/// CDF — a single uniform draw regardless of the outcome, keeping the
/// stream layout independent of the dwell lengths drawn.
fn geometric_dwell(rng: &mut StdRng, mean_epochs: f64) -> u32 {
    let u: f64 = rng.random_range(0.0..1.0);
    if mean_epochs <= 1.0 {
        return 1;
    }
    let leave_p = 1.0 / mean_epochs;
    let dwell = ((1.0 - u).ln() / (1.0 - leave_p).ln()).ceil();
    if dwell.is_finite() && dwell >= 1.0 {
        (dwell as u32).min(MAX_DWELL_EPOCHS)
    } else {
        1
    }
}

/// Draws one trace's regime sequence from the fault stream prefix.
/// `cfg` must already be sanitized. An `is_none` config returns all
/// Healthy *without touching the RNG* — the zero-regime guarantee.
fn draw_regime_sequence(rng: &mut StdRng, cfg: &RegimeConfig, epochs: usize) -> Vec<OutageRegime> {
    if cfg.is_none() {
        return vec![OutageRegime::Healthy; epochs];
    }
    let mut seq = Vec::with_capacity(epochs);
    let mut state = OutageRegime::Healthy;
    let mut dwell_left: u32 = 0;
    for _ in 0..epochs {
        seq.push(state);
        state = match state {
            OutageRegime::Healthy => {
                if rng.random_bool(cfg.degraded_entry) {
                    dwell_left = geometric_dwell(rng, cfg.mean_degraded_dwell);
                    OutageRegime::Degraded
                } else {
                    OutageRegime::Healthy
                }
            }
            OutageRegime::Degraded => {
                if rng.random_bool(cfg.down_entry) {
                    dwell_left = geometric_dwell(rng, cfg.mean_down_dwell);
                    OutageRegime::Down
                } else if dwell_left <= 1 {
                    OutageRegime::Healthy
                } else {
                    dwell_left -= 1;
                    OutageRegime::Degraded
                }
            }
            OutageRegime::Down => {
                if dwell_left <= 1 {
                    // A node comes back flaky, not pristine: every Down
                    // spell exits through a Degraded recovery window.
                    dwell_left = geometric_dwell(rng, cfg.mean_degraded_dwell);
                    OutageRegime::Degraded
                } else {
                    dwell_left -= 1;
                    OutageRegime::Down
                }
            }
        };
    }
    seq
}

/// Recomputes the regime sequence a trace was generated under, without
/// the fault draws — deterministic in `(config, trace_seed, epochs)`.
/// `fig25_resilience` uses this to condition per-epoch scores on the
/// regime without the dataset having to store it.
pub fn draw_regimes(config: &RegimeConfig, trace_seed: u64, epochs: usize) -> Vec<OutageRegime> {
    let mut rng = StdRng::seed_from_u64(trace_seed ^ FAULT_STREAM_SALT);
    draw_regime_sequence(&mut rng, &config.sanitized(), epochs)
}

/// One epoch's fault draws at the given (regime-modulated) rates. The
/// draw order is load-bearing: it is the regime-free layer's order, so
/// a Healthy-only chain replays the pre-regime stream exactly.
fn draw_epoch(rng: &mut StdRng, config: &FaultConfig) -> EpochFaultPlan {
    let missing = rng.random_bool(config.epoch_missing);
    let pathload_fail = rng.random_bool(config.pathload_fail);
    let ping_outage = rng
        .random_bool(config.ping_outage)
        .then(|| random_window(rng));
    let reply_burst = rng
        .random_bool(config.reply_loss_burst)
        .then(|| random_window(rng));
    let transfer = if rng.random_bool(config.transfer_fail) {
        TransferFault::Failed
    } else if rng.random_bool(config.transfer_truncate) {
        TransferFault::Truncated(rng.random_range(0.25..=0.85))
    } else {
        TransferFault::None
    };
    EpochFaultPlan {
        missing,
        pathload_fail,
        ping_outage,
        reply_burst,
        transfer,
    }
}

impl FaultPlan {
    /// Draws the regime-free plan for a trace of `epochs` epochs —
    /// [`FaultPlan::draw_with_regimes`] under [`RegimeConfig::none`].
    /// Deterministic in `(config, trace_seed, epochs)`; a
    /// zero-probability config yields an all-clean plan.
    pub fn draw(config: &FaultConfig, trace_seed: u64, epochs: usize) -> Self {
        Self::draw_with_regimes(config, &RegimeConfig::none(), trace_seed, epochs)
    }

    /// Draws a trace's plan under a correlated-outage regime chain: the
    /// regime sequence is drawn first (as a stream prefix, skipped
    /// entirely when `regimes` is none), then each epoch's faults at
    /// the regime's rates — base while Healthy, multiplied while
    /// Degraded, and a forced `missing` (no draws at all) while Down.
    /// Both configs are sanitized at this boundary, so out-of-range or
    /// NaN knobs clamp instead of panicking inside `random_bool`.
    pub fn draw_with_regimes(
        config: &FaultConfig,
        regimes: &RegimeConfig,
        trace_seed: u64,
        epochs: usize,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(trace_seed ^ FAULT_STREAM_SALT);
        let config = config.sanitized();
        let regime_cfg = regimes.sanitized();
        let regime_seq = draw_regime_sequence(&mut rng, &regime_cfg, epochs);
        let degraded = config.scaled(regime_cfg.fault_multiplier);
        let epochs = regime_seq
            .iter()
            .map(|regime| match regime {
                OutageRegime::Healthy => draw_epoch(&mut rng, &config),
                OutageRegime::Degraded => draw_epoch(&mut rng, &degraded),
                OutageRegime::Down => EpochFaultPlan {
                    missing: true,
                    ..EpochFaultPlan::default()
                },
            })
            .collect();
        FaultPlan {
            epochs,
            regimes: regime_seq,
        }
    }

    /// The plan for epoch `k`; epochs past the drawn horizon are clean.
    pub fn epoch(&self, k: usize) -> EpochFaultPlan {
        self.epochs.get(k).copied().unwrap_or_default()
    }

    /// The regime epoch `k` was drawn under; past the horizon, Healthy.
    pub fn regime(&self, k: usize) -> OutageRegime {
        self.regimes.get(k).copied().unwrap_or_default()
    }

    /// True when no epoch has any fault scheduled.
    pub fn is_clean(&self) -> bool {
        self.epochs.iter().all(EpochFaultPlan::is_clean)
    }
}

/// A `(start, end)` window in span fractions: starts in the first 70%,
/// lasts 15–40% of the span.
fn random_window(rng: &mut StdRng) -> (f64, f64) {
    let start = rng.random_range(0.0..0.7);
    let len = rng.random_range(0.15..0.4);
    (start, (start + len).min(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_probability_plan_is_clean() {
        let plan = FaultPlan::draw(&FaultConfig::none(), 12345, 200);
        assert!(plan.is_clean());
        assert!(plan.epoch(7).is_clean());
        assert!(FaultConfig::none().is_none());
    }

    #[test]
    fn draw_is_deterministic_in_seed_and_config() {
        let cfg = FaultConfig::uniform(0.3);
        let a = FaultPlan::draw(&cfg, 42, 50);
        let b = FaultPlan::draw(&cfg, 42, 50);
        assert_eq!(a, b);
        let c = FaultPlan::draw(&cfg, 43, 50);
        assert_ne!(a, c, "different seeds draw different plans");
    }

    #[test]
    fn certain_faults_all_fire() {
        // transfer_fail = 1.0 shadows transfer_truncate by draw order.
        let cfg = FaultConfig::uniform(1.0);
        let plan = FaultPlan::draw(&cfg, 7, 20);
        for k in 0..20 {
            let e = plan.epoch(k);
            assert!(e.missing && e.pathload_fail);
            assert!(e.ping_outage.is_some() && e.reply_burst.is_some());
            assert_eq!(e.transfer, TransferFault::Failed);
        }
    }

    #[test]
    fn windows_are_ordered_fractions() {
        let cfg = FaultConfig {
            ping_outage: 1.0,
            reply_loss_burst: 1.0,
            ..FaultConfig::none()
        };
        let plan = FaultPlan::draw(&cfg, 99, 100);
        for k in 0..100 {
            let e = plan.epoch(k);
            for (start, end) in [e.ping_outage, e.reply_burst].into_iter().flatten() {
                assert!((0.0..=1.0).contains(&start));
                assert!(start < end && end <= 1.0);
            }
        }
    }

    #[test]
    fn truncation_fractions_stay_in_range() {
        let cfg = FaultConfig {
            transfer_truncate: 1.0,
            ..FaultConfig::none()
        };
        let plan = FaultPlan::draw(&cfg, 5, 100);
        for k in 0..100 {
            match plan.epoch(k).transfer {
                TransferFault::Truncated(f) => assert!((0.25..=0.85).contains(&f)),
                other => panic!("expected truncation, got {other:?}"),
            }
        }
    }

    #[test]
    fn epochs_past_horizon_are_clean() {
        let plan = FaultPlan::draw(&FaultConfig::uniform(1.0), 1, 3);
        assert!(plan.epoch(3).is_clean());
        assert_eq!(plan.regime(3), OutageRegime::Healthy);
    }

    #[test]
    fn moderate_rate_hits_some_but_not_all_epochs() {
        let plan = FaultPlan::draw(&FaultConfig::uniform(0.2), 11, 200);
        let faulty = (0..200).filter(|&k| !plan.epoch(k).is_clean()).count();
        assert!(faulty > 50, "20% per fault type across 6 types: {faulty}");
        assert!(faulty < 200, "not every epoch should be hit: {faulty}");
    }

    // --- the draw-boundary guard ----------------------------------------

    #[test]
    fn sanitized_clamps_and_leaves_valid_configs_bit_identical() {
        let dirty = FaultConfig {
            epoch_missing: -0.2,
            pathload_fail: f64::NAN,
            ping_outage: 1.5,
            ..FaultConfig::none()
        };
        assert!(
            !dirty.is_none(),
            "NaN and out-of-range rates are not zero rates"
        );
        let clean = dirty.sanitized();
        assert_eq!(clean.epoch_missing, 0.0);
        assert_eq!(clean.pathload_fail, 0.0, "NaN clamps to never-fires");
        assert_eq!(clean.ping_outage, 1.0);
        for p in [
            clean.epoch_missing,
            clean.pathload_fail,
            clean.ping_outage,
            clean.reply_loss_burst,
            clean.transfer_truncate,
            clean.transfer_fail,
        ] {
            assert!((0.0..=1.0).contains(&p), "{clean:?}");
        }
        let valid = FaultConfig::uniform(0.3);
        assert_eq!(valid.sanitized(), valid, "valid configs must not move");
    }

    #[test]
    fn draw_with_invalid_config_clamps_instead_of_panicking() {
        let dirty = FaultConfig {
            pathload_fail: f64::NAN,
            ping_outage: 2.0,
            ..FaultConfig::none()
        };
        let plan = FaultPlan::draw(&dirty, 9, 50);
        assert_eq!(plan, FaultPlan::draw(&dirty.sanitized(), 9, 50));
        for k in 0..50 {
            let e = plan.epoch(k);
            assert!(!e.pathload_fail, "NaN rate must never fire");
            assert!(e.ping_outage.is_some(), "clamped-to-1 rate always fires");
        }
    }

    #[test]
    fn regime_sanitized_clamps_bad_knobs_and_leaves_valid_configs_bit_identical() {
        let bad = RegimeConfig {
            degraded_entry: f64::NAN,
            down_entry: 1.5,
            mean_degraded_dwell: f64::INFINITY,
            mean_down_dwell: 0.5,
            fault_multiplier: f64::INFINITY,
        };
        let clean = bad.sanitized();
        for p in [clean.degraded_entry, clean.down_entry] {
            assert!((0.0..=1.0).contains(&p), "{clean:?}");
        }
        for dwell in [clean.mean_degraded_dwell, clean.mean_down_dwell] {
            assert!(dwell.is_finite() && dwell >= 1.0, "{clean:?}");
        }
        assert!(
            clean.fault_multiplier.is_finite() && clean.fault_multiplier >= 0.0,
            "{clean:?}"
        );
        assert_eq!(
            clean.fault_multiplier, 1.0,
            "non-finite multiplier is neutral"
        );
        let negative = RegimeConfig {
            fault_multiplier: -2.0,
            ..RegimeConfig::flaky()
        };
        assert_eq!(negative.sanitized().fault_multiplier, 0.0);
        assert_eq!(
            RegimeConfig::flaky().sanitized(),
            RegimeConfig::flaky(),
            "valid configs must not move"
        );
    }

    // --- the regime chain ----------------------------------------------

    #[test]
    fn zero_regime_draw_is_byte_identical_to_the_regime_free_stream() {
        // The regime layer's own pin: with RegimeConfig::none, no RNG is
        // consumed before the fault draws, so draw_with_regimes equals
        // FaultPlan::draw for every config — and zero-fault stays clean.
        let cfg = FaultConfig::uniform(0.3);
        let with = FaultPlan::draw_with_regimes(&cfg, &RegimeConfig::none(), 42, 80);
        let without = FaultPlan::draw(&cfg, 42, 80);
        assert_eq!(with, without);
        assert!((0..80).all(|k| with.regime(k) == OutageRegime::Healthy));
    }

    #[test]
    fn regime_draw_is_deterministic_and_recomputable() {
        let cfg = RegimeConfig::flaky();
        let plan = FaultPlan::draw_with_regimes(&FaultConfig::uniform(0.05), &cfg, 7, 300);
        let replay = FaultPlan::draw_with_regimes(&FaultConfig::uniform(0.05), &cfg, 7, 300);
        assert_eq!(plan, replay);
        // The standalone recompute (what fig25 uses) sees the same
        // sequence: the chain is a pure prefix of the fault stream.
        let seq = draw_regimes(&cfg, 7, 300);
        assert!((0..300).all(|k| plan.regime(k) == seq[k]));
    }

    #[test]
    fn regimes_form_contiguous_spells_through_the_birth_death_chain() {
        let seq = draw_regimes(&RegimeConfig::flaky(), 1234, 2000);
        let mut down_epochs = 0usize;
        let mut degraded_epochs = 0usize;
        for (k, pair) in seq.windows(2).enumerate() {
            // Healthy never jumps straight to Down and Down never exits
            // straight to Healthy: the chain is birth–death.
            assert!(
                !(pair[0] == OutageRegime::Healthy && pair[1] == OutageRegime::Down),
                "healthy->down jump at {k}"
            );
            assert!(
                !(pair[0] == OutageRegime::Down && pair[1] == OutageRegime::Healthy),
                "down->healthy jump at {k}"
            );
        }
        for r in &seq {
            match r {
                OutageRegime::Down => down_epochs += 1,
                OutageRegime::Degraded => degraded_epochs += 1,
                OutageRegime::Healthy => {}
            }
        }
        assert!(
            down_epochs > 20,
            "flaky scenario reaches Down: {down_epochs}"
        );
        assert!(
            degraded_epochs > down_epochs,
            "degraded spells dominate down spells: {degraded_epochs} vs {down_epochs}"
        );
    }

    #[test]
    fn down_regime_forces_missing_and_degraded_raises_fault_density() {
        let base = FaultConfig::uniform(0.05);
        let plan = FaultPlan::draw_with_regimes(&base, &RegimeConfig::flaky(), 99, 2000);
        let mut hits = [0usize; 3]; // faulty epochs per regime
        let mut totals = [0usize; 3];
        for k in 0..2000 {
            let idx = plan.regime(k) as usize;
            totals[idx] += 1;
            if plan.regime(k) == OutageRegime::Down {
                assert!(plan.epoch(k).missing, "down epochs measure nothing");
            }
            if !plan.epoch(k).is_clean() {
                hits[idx] += 1;
            }
        }
        assert!(
            totals.iter().all(|&n| n > 30),
            "all regimes visited: {totals:?}"
        );
        let healthy_rate = hits[0] as f64 / totals[0] as f64;
        let degraded_rate = hits[1] as f64 / totals[1] as f64;
        assert!(
            degraded_rate > healthy_rate * 2.0,
            "multiplied rates must show: {degraded_rate} vs {healthy_rate}"
        );
    }

    #[test]
    fn dwell_means_stretch_down_spells() {
        let spells = |mean_down_dwell: f64| {
            let seq = draw_regimes(
                &RegimeConfig {
                    mean_down_dwell,
                    ..RegimeConfig::flaky()
                },
                5,
                4000,
            );
            let mut lengths = Vec::new();
            let mut run = 0usize;
            for r in &seq {
                if *r == OutageRegime::Down {
                    run += 1;
                } else if run > 0 {
                    lengths.push(run);
                    run = 0;
                }
            }
            if run > 0 {
                lengths.push(run);
            }
            lengths.iter().sum::<usize>() as f64 / lengths.len().max(1) as f64
        };
        let short = spells(1.0);
        let long = spells(8.0);
        assert!(
            long > short * 2.0,
            "mean dwell must stretch outages: {short} vs {long}"
        );
    }
}
