//! Degradation policies for serving predictions through outages:
//! fallback chains, staleness guards, and circuit breakers — each a
//! [`Predictor`] combinator, so policies register in the catalog and
//! score in the league table like any other family (DESIGN.md §13).
//!
//! The paper's campaign could *discard* failed epochs after the fact; a
//! prediction service cannot. When the correlated-outage regime process
//! (`tputpred-testbed::faults`, DESIGN.md §13) takes a path's probes
//! down for many consecutive epochs, a bare FB predictor refuses every
//! one of them and a bare HB predictor serves increasingly fossilised
//! history. This module supplies the policy layer between those
//! failure modes:
//!
//! * [`Fallback`] — try a primary, hand refusals to a fallback
//!   (chainable: FB → HB → [`LastKnownGood`]), reporting which tier
//!   answered via [`Fallback::try_predict_tiered`] and `obs` counters.
//! * [`Staleness`] — refuse ([`PredictError::Stale`]) once the last
//!   *measured* throughput is older than N epochs: an honest "I don't
//!   know" beats serving a forecast from before the outage.
//! * [`CircuitBreaker`] — after K consecutive inner refusals, stop
//!   consulting the inner predictor ([`PredictError::CircuitOpen`])
//!   for a cooldown, then half-open-probe it; the classic serving
//!   pattern, made deterministic (epoch-counted, no wall clock).
//!
//! # Contract
//!
//! Combinators obey the full [`Predictor`] contract: observing
//! [`EpochObservation::GAP`] is a state no-op (policy clocks — staleness
//! age, breaker cooldown — advance only on non-gap epochs, so a gappy
//! stream stays bit-equal to its compacted form; proptested in
//! `core/tests/family_gap_tolerance.rs`), [`Predictor::try_predict`]
//! never mutates policy state (breaker transitions happen in
//! [`Predictor::observe`]), and [`Predictor::name`] is formatted on its
//! first call and cached. All state is integer epoch counting on
//! deterministic inputs: the same observation sequence replays every
//! policy decision bit-identically.

use crate::error::PredictError;
use crate::predictor::{EpochFeatures, EpochObservation, Predictor, Update};
use std::sync::OnceLock;
use tputpred_obs as obs;

/// Which tier of a [`Fallback`] produced a forecast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackTier {
    /// The primary answered.
    Primary,
    /// The primary refused; the fallback answered.
    Fallback,
}

/// Returns `true` for the all-`None` epoch, which every combinator must
/// treat as a state no-op.
// lint:hot-path
fn is_gap(epoch: &EpochObservation) -> bool {
    *epoch == EpochObservation::GAP
}

/// The deepest rung of a fallback chain: replays the last measured
/// throughput, verbatim, forever.
///
/// Persistence ("tomorrow equals today") is the zero-parameter HB
/// predictor — `1-MA` without even a window. As a chain terminator it
/// guarantees an answer on any epoch after the first measured one, at
/// whatever accuracy the outage leaves on the table; pair it with a
/// [`Staleness`] guard to bound how long it may parrot.
#[derive(Debug, Clone, Default)]
pub struct LastKnownGood {
    last_throughput_bps: Option<f64>,
}

impl LastKnownGood {
    /// A guard with no history yet.
    pub fn new() -> Self {
        LastKnownGood::default()
    }
}

impl Predictor for LastKnownGood {
    // lint:hot-path
    fn try_predict(&self, _features: &EpochFeatures) -> Result<f64, PredictError> {
        self.last_throughput_bps
            .ok_or(PredictError::InsufficientHistory)
    }

    fn observe(&mut self, epoch: &EpochObservation) -> Update {
        match epoch.throughput_bps {
            Some(throughput_bps) => {
                self.last_throughput_bps = Some(throughput_bps);
                Update::Accepted
            }
            None => Update::Skipped,
        }
    }

    fn reset(&mut self) {
        self.last_throughput_bps = None;
    }

    // lint:hot-path
    fn name(&self) -> &str {
        "LKG"
    }
}

/// Serve the primary's forecast; on refusal, the fallback's.
///
/// Both sides observe every epoch, so the fallback's history is warm
/// the moment it is needed. Chains compose by nesting:
/// `Fallback::new(fb, Fallback::new(hb, LastKnownGood::new()))` is the
/// catalog's `FB->0.8-HW-LSO->LKG` three-tier chain. Which tier
/// answered is visible two ways: [`Fallback::try_predict_tiered`]
/// returns it, and the `core.resilience.fallback.*` `obs` counters
/// accumulate it across a run.
#[derive(Debug, Clone)]
pub struct Fallback<P, Q> {
    primary: P,
    fallback: Q,
    name: OnceLock<String>,
}

impl<P: Predictor, Q: Predictor> Fallback<P, Q> {
    /// Chains `primary` over `fallback`. The combinator's name is
    /// `"{primary}->{fallback}"`.
    pub fn new(primary: P, fallback: Q) -> Self {
        Fallback {
            primary,
            fallback,
            name: OnceLock::new(),
        }
    }

    /// [`Predictor::try_predict`] plus *which tier answered*. Both
    /// sides refusing propagates the primary's error — the more
    /// specific diagnosis, mirroring [`crate::gated::RttCvGated`].
    // lint:hot-path
    pub fn try_predict_tiered(
        &self,
        features: &EpochFeatures,
    ) -> Result<(f64, FallbackTier), PredictError> {
        match self.primary.try_predict(features) {
            Ok(forecast) => Ok((forecast, FallbackTier::Primary)),
            Err(primary_err) => match self.fallback.try_predict(features) {
                Ok(forecast) => Ok((forecast, FallbackTier::Fallback)),
                Err(_) => Err(primary_err),
            },
        }
    }
}

impl<P: Predictor, Q: Predictor> Predictor for Fallback<P, Q> {
    // lint:hot-path
    fn try_predict(&self, features: &EpochFeatures) -> Result<f64, PredictError> {
        match self.try_predict_tiered(features) {
            Ok((forecast, FallbackTier::Primary)) => {
                obs::counter!("core.resilience.fallback.primary").add(1);
                Ok(forecast)
            }
            Ok((forecast, FallbackTier::Fallback)) => {
                obs::counter!("core.resilience.fallback.fallback").add(1);
                Ok(forecast)
            }
            Err(e) => {
                obs::counter!("core.resilience.fallback.refused").add(1);
                Err(e)
            }
        }
    }

    /// Forwards the epoch to both tiers. The returned [`Update`] is the
    /// primary's unless it skipped and the fallback accepted — an
    /// event-carrying update (LSO outlier/shift) always wins over a
    /// plain `Accepted`.
    fn observe(&mut self, epoch: &EpochObservation) -> Update {
        let primary_update = self.primary.observe(epoch);
        let fallback_update = self.fallback.observe(epoch);
        let has_event = |u: &Update| {
            matches!(
                u,
                Update::OutliersDiscarded { .. } | Update::LevelShift { .. }
            )
        };
        if has_event(&primary_update) {
            primary_update
        } else if has_event(&fallback_update) {
            fallback_update
        } else if matches!(primary_update, Update::Accepted) {
            primary_update
        } else {
            // Primary skipped: report whatever the fallback did with
            // the sample (Accepted if it banked it, Skipped on a gap).
            fallback_update
        }
    }

    fn reset(&mut self) {
        self.primary.reset();
        self.fallback.reset();
    }

    // lint:hot-path
    fn name(&self) -> &str {
        self.name.get_or_init(|| {
            // lint:allow(hot-path-alloc): formats once, on the first call; cached after
            format!("{}->{}", self.primary.name(), self.fallback.name())
        })
    }
}

/// Refuse once the last measured throughput is older than `max_age`
/// epochs.
///
/// The age clock counts *observed non-gap epochs since a throughput
/// measurement*: a fresh measurement resets it to zero, a measurement-
/// less epoch (probes came back but the transfer failed) advances it,
/// and a gap leaves it untouched (gap semantics). Until the first
/// measurement the guard defers to the inner predictor — refusing a
/// formula that needs no history would be the guard inventing policy.
/// Refusals are typed [`PredictError::Stale`] and counted on
/// `core.resilience.staleness.refusals`.
#[derive(Debug, Clone)]
pub struct Staleness<P> {
    inner: P,
    max_age: usize,
    /// Non-gap epochs since the last measured throughput; `None` until
    /// one is measured.
    age: Option<usize>,
    name: OnceLock<String>,
}

impl<P: Predictor> Staleness<P> {
    /// Guards `inner`, refusing when the last measurement is `max_age`
    /// or more epochs old. `max_age` is floored at 1 (0 would refuse
    /// always). The name is `"stale{N}-{inner}"`.
    pub fn new(inner: P, max_age: usize) -> Self {
        let max_age = max_age.max(1);
        Staleness {
            inner,
            max_age,
            age: None,
            name: OnceLock::new(),
        }
    }

    /// Non-gap epochs since the last measured throughput (`None` before
    /// the first measurement).
    pub fn age(&self) -> Option<usize> {
        self.age
    }
}

impl<P: Predictor> Predictor for Staleness<P> {
    // lint:hot-path
    fn try_predict(&self, features: &EpochFeatures) -> Result<f64, PredictError> {
        match self.age {
            Some(age) if age >= self.max_age => {
                obs::counter!("core.resilience.staleness.refusals").add(1);
                Err(PredictError::Stale)
            }
            _ => self.inner.try_predict(features),
        }
    }

    fn observe(&mut self, epoch: &EpochObservation) -> Update {
        if !is_gap(epoch) {
            match (epoch.throughput_bps, self.age) {
                (Some(_), _) => self.age = Some(0),
                (None, Some(age)) => self.age = Some(age + 1),
                (None, None) => {}
            }
        }
        self.inner.observe(epoch)
    }

    fn reset(&mut self) {
        self.inner.reset();
        self.age = None;
    }

    // lint:hot-path
    fn name(&self) -> &str {
        self.name.get_or_init(|| {
            // lint:allow(hot-path-alloc): formats once, on the first call; cached after
            format!("stale{}-{}", self.max_age, self.inner.name())
        })
    }
}

/// The breaker's position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BreakerState {
    /// Normal operation: forecasts flow from the inner predictor.
    #[default]
    Closed,
    /// Tripped: every forecast refuses [`PredictError::CircuitOpen`]
    /// while the cooldown counts down.
    Open,
    /// Cooldown elapsed: the next non-gap epoch is a probe — the inner
    /// predictor's success or refusal on it decides Closed vs re-Open.
    HalfOpen,
}

/// Open after `trip_after` consecutive inner refusals, rest for
/// `cooldown` epochs, then half-open-probe.
///
/// A wrapper around the classic serving-layer breaker, with every clock
/// an epoch counter on the observation stream, so runs replay
/// bit-identically:
///
/// ```text
/// Closed ──(trip_after consecutive refusals)──▶ Open
/// Open ──(cooldown non-gap epochs)──▶ HalfOpen
/// HalfOpen ──(probe answers)──▶ Closed   (probe refuses)──▶ Open
/// ```
///
/// "Refusal" is judged in [`Predictor::observe`]: each non-gap epoch,
/// the inner predictor's `try_predict` on the epoch's own features is
/// checked (before the epoch is ingested, matching the serving order:
/// forecast first, learn after). `try_predict` itself never mutates
/// breaker state. Transitions are counted on
/// `core.resilience.breaker.{opened,half_open,closed,reopened}` and
/// while open, refusals on `core.resilience.breaker.open_refusals`.
#[derive(Debug, Clone)]
pub struct CircuitBreaker<P> {
    inner: P,
    trip_after: usize,
    cooldown: usize,
    state: BreakerState,
    consecutive_refusals: usize,
    cooldown_left: usize,
    name: OnceLock<String>,
}

impl<P: Predictor> CircuitBreaker<P> {
    /// Wraps `inner`, opening after `trip_after` consecutive refusals
    /// and resting `cooldown` epochs before the half-open probe. Both
    /// knobs are floored at 1. The name is `"breaker{K}-{inner}"`.
    pub fn new(inner: P, trip_after: usize, cooldown: usize) -> Self {
        let trip_after = trip_after.max(1);
        CircuitBreaker {
            inner,
            trip_after,
            cooldown: cooldown.max(1),
            state: BreakerState::Closed,
            consecutive_refusals: 0,
            cooldown_left: 0,
            name: OnceLock::new(),
        }
    }

    /// The breaker's current position.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Runs the state machine for one non-gap epoch. `answered` is
    /// whether the inner predictor could forecast on this epoch's
    /// features.
    fn step(&mut self, answered: bool) {
        match self.state {
            BreakerState::Closed => {
                if answered {
                    self.consecutive_refusals = 0;
                } else {
                    self.consecutive_refusals += 1;
                    if self.consecutive_refusals >= self.trip_after {
                        self.state = BreakerState::Open;
                        self.cooldown_left = self.cooldown;
                        obs::counter!("core.resilience.breaker.opened").add(1);
                    }
                }
            }
            BreakerState::Open => {
                self.cooldown_left = self.cooldown_left.saturating_sub(1);
                if self.cooldown_left == 0 {
                    self.state = BreakerState::HalfOpen;
                    obs::counter!("core.resilience.breaker.half_open").add(1);
                }
            }
            BreakerState::HalfOpen => {
                if answered {
                    self.state = BreakerState::Closed;
                    self.consecutive_refusals = 0;
                    obs::counter!("core.resilience.breaker.closed").add(1);
                } else {
                    self.state = BreakerState::Open;
                    self.cooldown_left = self.cooldown;
                    obs::counter!("core.resilience.breaker.reopened").add(1);
                }
            }
        }
    }
}

impl<P: Predictor> Predictor for CircuitBreaker<P> {
    // lint:hot-path
    fn try_predict(&self, features: &EpochFeatures) -> Result<f64, PredictError> {
        if self.state == BreakerState::Open {
            obs::counter!("core.resilience.breaker.open_refusals").add(1);
            return Err(PredictError::CircuitOpen);
        }
        self.inner.try_predict(features)
    }

    fn observe(&mut self, epoch: &EpochObservation) -> Update {
        if !is_gap(epoch) {
            let answered = self.inner.try_predict(&epoch.features).is_ok();
            self.step(answered);
        }
        self.inner.observe(epoch)
    }

    fn reset(&mut self) {
        self.inner.reset();
        self.state = BreakerState::Closed;
        self.consecutive_refusals = 0;
        self.cooldown_left = 0;
    }

    // lint:hot-path
    fn name(&self) -> &str {
        self.name.get_or_init(|| {
            // lint:allow(hot-path-alloc): formats once, on the first call; cached after
            format!("breaker{}-{}", self.trip_after, self.inner.name())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fb::{FbPredictor, PartialEstimates, PathEstimates};
    use crate::hb::MovingAverage;

    fn est() -> PathEstimates {
        PathEstimates {
            rtt: 0.08,
            loss_rate: 0.01,
            avail_bw: 20e6,
        }
    }

    fn measured(throughput_bps: f64) -> EpochObservation {
        EpochObservation::new(est().into(), Some(throughput_bps))
    }

    /// Probes came back but the transfer failed: features, no target.
    fn unmeasured() -> EpochObservation {
        EpochObservation::new(est().into(), None)
    }

    #[test]
    fn lkg_replays_the_last_measurement() {
        let mut lkg = LastKnownGood::new();
        assert_eq!(
            lkg.try_predict(&EpochFeatures::NONE),
            Err(PredictError::InsufficientHistory)
        );
        assert_eq!(lkg.update(5e6), Update::Accepted);
        assert_eq!(lkg.update(7e6), Update::Accepted);
        assert_eq!(lkg.try_predict(&EpochFeatures::NONE), Ok(7e6));
        // Measurement-less epochs neither advance nor clear it.
        assert_eq!(lkg.observe(&unmeasured()), Update::Skipped);
        assert_eq!(lkg.try_predict(&EpochFeatures::NONE), Ok(7e6));
        lkg.reset();
        assert_eq!(
            lkg.try_predict(&EpochFeatures::NONE),
            Err(PredictError::InsufficientHistory)
        );
        assert_eq!(lkg.name(), "LKG");
    }

    #[test]
    fn fallback_reports_the_answering_tier() {
        let mut chain = Fallback::new(FbPredictor::default(), LastKnownGood::new());
        assert_eq!(chain.name(), "FB->LKG");
        // Probes present: the formula answers.
        let (_, tier) = chain.try_predict_tiered(&est().into()).unwrap();
        assert_eq!(tier, FallbackTier::Primary);
        // No probes, no history: both refuse, primary's error surfaces.
        assert_eq!(
            chain.try_predict(&EpochFeatures::NONE),
            Err(PredictError::MissingRtt)
        );
        // After a measurement, LKG catches the formula's refusal.
        chain.observe(&measured(5e6));
        assert_eq!(
            chain.try_predict_tiered(&EpochFeatures::NONE),
            Ok((5e6, FallbackTier::Fallback))
        );
    }

    #[test]
    fn fallback_three_tier_chain_degrades_rung_by_rung() {
        let mut chain = Fallback::new(
            FbPredictor::default(),
            Fallback::new(MovingAverage::new(2), LastKnownGood::new()),
        );
        assert_eq!(chain.name(), "FB->2-MA->LKG");
        chain.observe(&measured(4e6));
        // Tier 1 with probes.
        let (_, tier) = chain.try_predict_tiered(&est().into()).unwrap();
        assert_eq!(tier, FallbackTier::Primary);
        // Tier 2 without probes (MA answers; LKG is shadowed).
        assert_eq!(
            chain.try_predict_tiered(&EpochFeatures::NONE),
            Ok((4e6, FallbackTier::Fallback))
        );
    }

    #[test]
    fn fallback_forwards_observations_to_both_tiers() {
        let mut chain = Fallback::new(MovingAverage::new(1), LastKnownGood::new());
        chain.update(3e6);
        // Both tiers saw the sample: compare against fresh singles.
        assert_eq!(chain.primary.forecast(), Some(3e6));
        assert_eq!(chain.fallback.forecast(), Some(3e6));
    }

    #[test]
    fn fallback_gap_is_a_noop_and_reset_clears_both() {
        let mut chain = Fallback::new(MovingAverage::new(1), LastKnownGood::new());
        chain.update(3e6);
        assert_eq!(chain.observe(&EpochObservation::GAP), Update::Skipped);
        assert_eq!(chain.forecast(), Some(3e6));
        chain.reset();
        assert_eq!(chain.forecast(), None);
    }

    #[test]
    fn staleness_refuses_after_max_age_unmeasured_epochs() {
        let mut guard = Staleness::new(LastKnownGood::new(), 2);
        assert_eq!(guard.name(), "stale2-LKG");
        // Before any measurement: defer to the inner predictor.
        assert_eq!(
            guard.try_predict(&EpochFeatures::NONE),
            Err(PredictError::InsufficientHistory)
        );
        guard.observe(&measured(5e6));
        assert_eq!(guard.age(), Some(0));
        assert_eq!(guard.try_predict(&EpochFeatures::NONE), Ok(5e6));
        guard.observe(&unmeasured());
        assert_eq!(guard.try_predict(&EpochFeatures::NONE), Ok(5e6));
        guard.observe(&unmeasured());
        assert_eq!(guard.age(), Some(2));
        assert_eq!(
            guard.try_predict(&EpochFeatures::NONE),
            Err(PredictError::Stale)
        );
        // A fresh measurement revives it.
        guard.observe(&measured(6e6));
        assert_eq!(guard.try_predict(&EpochFeatures::NONE), Ok(6e6));
    }

    #[test]
    fn staleness_gaps_do_not_age_the_guard() {
        let mut guard = Staleness::new(LastKnownGood::new(), 1);
        guard.observe(&measured(5e6));
        for _ in 0..10 {
            assert_eq!(guard.observe(&EpochObservation::GAP), Update::Skipped);
        }
        assert_eq!(guard.age(), Some(0));
        assert_eq!(guard.try_predict(&EpochFeatures::NONE), Ok(5e6));
        guard.reset();
        assert_eq!(guard.age(), None);
    }

    #[test]
    fn breaker_walks_the_full_state_machine() {
        // MA(1) refuses until it has one sample: drive refusals with
        // unmeasured epochs, then revive with a measured one.
        let mut breaker = CircuitBreaker::new(MovingAverage::new(1), 2, 2);
        assert_eq!(breaker.name(), "breaker2-1-MA");
        assert_eq!(breaker.state(), BreakerState::Closed);

        // Two consecutive refusals trip it.
        breaker.observe(&unmeasured());
        assert_eq!(breaker.state(), BreakerState::Closed);
        breaker.observe(&unmeasured());
        assert_eq!(breaker.state(), BreakerState::Open);
        assert_eq!(
            breaker.try_predict(&EpochFeatures::NONE),
            Err(PredictError::CircuitOpen)
        );

        // Cooldown of 2: one epoch still open, the next goes half-open.
        breaker.observe(&unmeasured());
        assert_eq!(breaker.state(), BreakerState::Open);
        breaker.observe(&unmeasured());
        assert_eq!(breaker.state(), BreakerState::HalfOpen);

        // Half-open probe refuses (MA still empty): re-open.
        breaker.observe(&unmeasured());
        assert_eq!(breaker.state(), BreakerState::Open);

        // Cooldown again, then a successful probe closes it. The probe
        // epoch's measurement also feeds the MA *after* the probe, so
        // the closing decision uses pre-epoch state.
        breaker.observe(&unmeasured());
        breaker.observe(&unmeasured());
        assert_eq!(breaker.state(), BreakerState::HalfOpen);
        breaker.observe(&measured(5e6)); // probe still refuses: MA empty pre-epoch
        assert_eq!(breaker.state(), BreakerState::Open);
        breaker.observe(&unmeasured());
        breaker.observe(&unmeasured());
        assert_eq!(breaker.state(), BreakerState::HalfOpen);
        breaker.observe(&unmeasured()); // probe answers now: MA holds 5e6
        assert_eq!(breaker.state(), BreakerState::Closed);
        assert_eq!(breaker.try_predict(&EpochFeatures::NONE), Ok(5e6));
    }

    #[test]
    fn breaker_success_resets_the_refusal_streak() {
        let mut breaker = CircuitBreaker::new(LastKnownGood::new(), 2, 1);
        breaker.observe(&unmeasured()); // refusal 1
        breaker.observe(&measured(5e6)); // refusal 2? No: LKG still empty pre-epoch.
        assert_eq!(breaker.state(), BreakerState::Open);
        // With history, one refusal then a success keeps it closed.
        breaker.reset();
        breaker.observe(&measured(5e6)); // refusal (empty pre-epoch): streak 1
        breaker.observe(&unmeasured()); // answers from history: streak 0
        breaker.observe(&unmeasured()); // answers: still closed
        assert_eq!(breaker.state(), BreakerState::Closed);
    }

    #[test]
    fn breaker_gaps_freeze_every_clock() {
        let mut breaker = CircuitBreaker::new(MovingAverage::new(1), 1, 3);
        breaker.observe(&unmeasured());
        assert_eq!(breaker.state(), BreakerState::Open);
        for _ in 0..10 {
            assert_eq!(breaker.observe(&EpochObservation::GAP), Update::Skipped);
        }
        // Ten gaps later the cooldown has not moved.
        assert_eq!(breaker.state(), BreakerState::Open);
        breaker.observe(&EpochObservation::sample(5e6));
        breaker.observe(&EpochObservation::GAP);
        breaker.observe(&EpochObservation::sample(5e6));
        assert_eq!(breaker.state(), BreakerState::Open, "cooldown 3: one left");
        breaker.observe(&EpochObservation::sample(5e6));
        assert_eq!(breaker.state(), BreakerState::HalfOpen);
    }

    #[test]
    fn breaker_try_predict_never_mutates_state() {
        let breaker = CircuitBreaker::new(MovingAverage::new(1), 1, 1);
        for _ in 0..5 {
            let _ = breaker.try_predict(&EpochFeatures::NONE);
        }
        assert_eq!(breaker.state(), BreakerState::Closed);
        assert_eq!(breaker.consecutive_refusals, 0);
    }

    #[test]
    fn knobs_are_floored_at_one() {
        let breaker = CircuitBreaker::new(MovingAverage::new(1), 0, 0);
        assert_eq!(breaker.trip_after, 1);
        assert_eq!(breaker.cooldown, 1);
        let guard = Staleness::new(LastKnownGood::new(), 0);
        assert_eq!(guard.max_age, 1);
        assert_eq!(guard.name(), "stale1-LKG");
    }

    #[test]
    fn policies_replay_bit_identically() {
        let build = || {
            CircuitBreaker::new(
                Staleness::new(
                    Fallback::new(FbPredictor::default(), LastKnownGood::new()),
                    3,
                ),
                2,
                2,
            )
        };
        let epochs = [
            measured(5e6),
            unmeasured(),
            EpochObservation::GAP,
            unmeasured(),
            measured(6e6),
            EpochObservation::GAP,
            unmeasured(),
            unmeasured(),
            unmeasured(),
            unmeasured(),
            measured(4e6),
        ];
        let (mut a, mut b) = (build(), build());
        for epoch in &epochs {
            assert_eq!(
                a.try_predict(&epoch.features),
                b.try_predict(&epoch.features)
            );
            assert_eq!(a.observe(epoch), b.observe(epoch));
            assert_eq!(a.state(), b.state());
        }
        assert_eq!(a.name(), "breaker2-stale3-FB->LKG");
    }

    #[test]
    fn partial_features_are_not_gaps() {
        // An epoch with any field present must advance policy clocks.
        let mut guard = Staleness::new(LastKnownGood::new(), 1);
        guard.observe(&measured(5e6));
        let probes_only = EpochObservation::new(
            EpochFeatures {
                probes: PartialEstimates {
                    rtt: Some(0.08),
                    loss_rate: None,
                    avail_bw: None,
                },
                rtt_cv: None,
            },
            None,
        );
        guard.observe(&probes_only);
        assert_eq!(
            guard.try_predict(&EpochFeatures::NONE),
            Err(PredictError::Stale)
        );
    }
}
