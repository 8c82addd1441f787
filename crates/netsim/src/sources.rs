//! Cross-traffic generators, sinks, and the probe reflector.
//!
//! The paper's FB error analysis (§3.2–§3.4) hinges on what the *cross
//! traffic* at the bottleneck does: how close it drives utilization to
//! 100%, whether it is elastic (persistent TCP, which yields to the target
//! flow) or inelastic (open-loop, which does not), and how bursty it is.
//! This module provides the inelastic generators:
//!
//! * [`CbrSource`] — constant bit rate (smooth load),
//! * [`PoissonSource`] — Poisson packet arrivals (memoryless load),
//! * [`ParetoOnOffSource`] — heavy-tailed on periods with exponential off
//!   periods (bursty at many time scales).
//!
//! Elastic cross traffic is a persistent TCP flow from `tputpred-tcp`.
//!
//! Every generator consults a [`RateSchedule`] so the testbed can inject
//! level shifts and outlier bursts. They are not endpoints: nothing
//! answers open-loop traffic, so a generator is a [`Source`] handed to
//! [`crate::Simulator::add_source`] with its start time, and the
//! engine fires it from a lane of its own, one firing
//! per emission (or re-check), without a timer or a callback
//! (DESIGN.md §14). Their packets carry [`EndpointId::OPEN_LOOP`] as
//! `src`.
//!
//! [`Sink`] counts delivered traffic — or, once its handle is dropped,
//! lets the engine skip delivering to it ([`Endpoint::discards`]);
//! [`Reflector`] echoes probe packets back to their sender (the far end
//! of ping).

use crate::engine::{Ctx, Endpoint, EndpointId};
use crate::packet::{Packet, Payload, Route};
use crate::random;
use crate::schedule::{RateSchedule, ScheduleCursor};
use crate::time::Time;
use rand::rngs::StdRng;
use std::cell::RefCell;
use std::rc::Rc;

/// When a schedule silences a source (multiplier ≈ 0), how long it sleeps
/// before re-checking.
const IDLE_RECHECK: Time = Time::from_millis(50);

/// Parameters shared by all generators.
#[derive(Debug, Clone)]
pub struct SourceConfig {
    /// Links to traverse.
    pub route: Route,
    /// Receiving endpoint (usually a [`Sink`]).
    pub dst: EndpointId,
    /// Wire size of generated packets, bytes.
    pub packet_size: u32,
    /// Base rate in bits/s, before schedule modulation.
    pub base_rate_bps: f64,
    /// Load modulation over time.
    pub schedule: RateSchedule,
    /// Stop emitting at this time (the timer then stops re-arming).
    pub stop: Time,
}

impl SourceConfig {
    /// The schedule-modulated rate at `now`, through the caller's
    /// [`ScheduleCursor`] memo (bit-identical to an uncached lookup).
    // lint:hot-path
    fn effective_rate(&self, now: Time, cursor: &mut ScheduleCursor) -> f64 {
        self.base_rate_bps * self.schedule.multiplier_at_cached(now, cursor)
    }
}

/// Single-entry memo of [`Time::tx_time`] keyed on the exact
/// `(rate bits, size)` pair. Sources emit long runs of identically
/// sized packets at a schedule-piecewise-constant rate, so the key
/// almost always hits and the float round-trip in `tx_time` is skipped.
/// Pure memoization — a hit returns exactly the `Time` a fresh
/// computation would (`u32::MAX` marks the empty entry; no packet is
/// 4 GiB).
#[derive(Debug, Clone, Copy)]
pub struct GapMemo {
    rate_bits: u64,
    size: u32,
    gap: Time,
}

impl GapMemo {
    /// The empty memo (first call computes).
    pub const EMPTY: GapMemo = GapMemo {
        rate_bits: 0,
        size: u32::MAX,
        gap: Time::ZERO,
    };

    /// [`Time::tx_time`], memoized.
    // lint:hot-path
    pub fn tx_time(&mut self, size: u32, rate: f64) -> Time {
        let rate_bits = rate.to_bits();
        if self.size == size && self.rate_bits == rate_bits {
            return self.gap;
        }
        let gap = Time::tx_time(size, rate);
        *self = GapMemo {
            rate_bits,
            size,
            gap,
        };
        gap
    }
}

/// What one firing of a source does: the packet to send, if any, and
/// when the source fires next (`None` once it stopped).
pub(crate) struct Firing {
    pub(crate) packet: Option<Packet>,
    pub(crate) next: Option<Time>,
}

impl Firing {
    /// The firing at or past `stop`: nothing sent, never again.
    const STOPPED: Firing = Firing {
        packet: None,
        next: None,
    };

    /// Sends nothing; fires again at `next`.
    fn wait(next: Time) -> Firing {
        Firing {
            packet: None,
            next: Some(next),
        }
    }

    /// Sends one packet of `cfg`; fires again at `next`.
    fn emit(cfg: &SourceConfig, next: Time) -> Firing {
        Firing {
            packet: Some(Packet {
                size: cfg.packet_size,
                src: EndpointId::OPEN_LOOP,
                dst: cfg.dst,
                route: cfg.route,
                hop_index: 0,
                payload: Payload::Raw,
            }),
            next: Some(next),
        }
    }
}

/// An open-loop traffic generator, as [`crate::Simulator::add_source`]
/// takes it (each generator converts with `into()`).
pub enum Source {
    /// Constant bit rate.
    Cbr(CbrSource),
    /// Poisson arrivals.
    Poisson(PoissonSource),
    /// Pareto on-off bursts.
    ParetoOnOff(ParetoOnOffSource),
}

impl Source {
    /// Fires the generator at `now`, drawing from the simulation's `rng`.
    // lint:hot-path
    pub(crate) fn fire(&mut self, now: Time, rng: &mut StdRng) -> Firing {
        match self {
            Source::Cbr(s) => s.fire(now),
            Source::Poisson(s) => s.fire(now, rng),
            Source::ParetoOnOff(s) => s.fire(now, rng),
        }
    }
}

impl From<CbrSource> for Source {
    fn from(s: CbrSource) -> Self {
        Source::Cbr(s)
    }
}

impl From<PoissonSource> for Source {
    fn from(s: PoissonSource) -> Self {
        Source::Poisson(s)
    }
}

impl From<ParetoOnOffSource> for Source {
    fn from(s: ParetoOnOffSource) -> Self {
        Source::ParetoOnOff(s)
    }
}

/// Constant-bit-rate source: one packet every `size·8/rate` seconds.
pub struct CbrSource {
    cfg: SourceConfig,
    memo: GapMemo,
    cursor: ScheduleCursor,
}

impl CbrSource {
    /// Creates the source.
    pub fn new(cfg: SourceConfig) -> Self {
        CbrSource {
            cfg,
            memo: GapMemo::EMPTY,
            cursor: ScheduleCursor::EMPTY,
        }
    }
}

impl CbrSource {
    // lint:hot-path
    fn fire(&mut self, now: Time) -> Firing {
        if now >= self.cfg.stop {
            return Firing::STOPPED;
        }
        let rate = self.cfg.effective_rate(now, &mut self.cursor);
        if rate < 1.0 {
            return Firing::wait(now + IDLE_RECHECK);
        }
        let gap = self.memo.tx_time(self.cfg.packet_size, rate);
        Firing::emit(&self.cfg, now + gap)
    }
}

/// Poisson source: exponential interarrivals with the configured mean
/// rate.
pub struct PoissonSource {
    cfg: SourceConfig,
    cursor: ScheduleCursor,
}

impl PoissonSource {
    /// Creates the source.
    pub fn new(cfg: SourceConfig) -> Self {
        PoissonSource {
            cfg,
            cursor: ScheduleCursor::EMPTY,
        }
    }
}

impl PoissonSource {
    // lint:hot-path
    fn fire(&mut self, now: Time, rng: &mut StdRng) -> Firing {
        if now >= self.cfg.stop {
            return Firing::STOPPED;
        }
        let rate = self.cfg.effective_rate(now, &mut self.cursor);
        if rate < 1.0 {
            return Firing::wait(now + IDLE_RECHECK);
        }
        let mean_gap = self.cfg.packet_size as f64 * 8.0 / rate;
        let gap = random::exponential(rng, mean_gap);
        Firing::emit(&self.cfg, now + Time::from_secs_f64(gap))
    }
}

/// Pareto on-off source: bursts whose lengths are Pareto-distributed
/// (heavy-tailed), separated by exponential silences. During a burst it
/// emits CBR at `peak` × the schedule multiplier; the configured
/// `base_rate_bps` is the *long-run average*, and the peak is
/// `base / duty_cycle`.
pub struct ParetoOnOffSource {
    cfg: SourceConfig,
    memo: GapMemo,
    cursor: ScheduleCursor,
    /// Long-run fraction of time spent on, in (0, 1).
    duty_cycle: f64,
    /// Pareto shape for on-period lengths (1 < α < 2 gives the classic
    /// heavy tail).
    alpha: f64,
    /// Mean on-period length, seconds.
    mean_on: f64,
    state: OnOffState,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum OnOffState {
    Off,
    On { until: Time },
}

impl ParetoOnOffSource {
    /// Creates the source.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < duty_cycle < 1`, `alpha > 1`, `mean_on > 0`.
    pub fn new(cfg: SourceConfig, duty_cycle: f64, alpha: f64, mean_on: f64) -> Self {
        assert!(
            duty_cycle > 0.0 && duty_cycle < 1.0,
            "duty cycle {duty_cycle} outside (0, 1)"
        );
        assert!(alpha > 1.0, "pareto shape must exceed 1 for a finite mean");
        assert!(mean_on > 0.0, "mean on-period must be positive");
        ParetoOnOffSource {
            cfg,
            memo: GapMemo::EMPTY,
            cursor: ScheduleCursor::EMPTY,
            duty_cycle,
            alpha,
            mean_on,
            state: OnOffState::Off,
        }
    }

    fn peak_rate(&mut self, now: Time) -> f64 {
        self.cfg.effective_rate(now, &mut self.cursor) / self.duty_cycle
    }
}

impl ParetoOnOffSource {
    // lint:hot-path
    fn fire(&mut self, now: Time, rng: &mut StdRng) -> Firing {
        if now >= self.cfg.stop {
            return Firing::STOPPED;
        }
        match self.state {
            OnOffState::Off => {
                // Begin an on-period.
                let xmin = random::pareto_scale_for_mean(self.alpha, self.mean_on);
                let on_len = random::pareto(rng, self.alpha, xmin);
                self.state = OnOffState::On {
                    until: now + Time::from_secs_f64(on_len),
                };
                // Fall through to emit immediately.
                self.fire(now, rng)
            }
            OnOffState::On { until } => {
                if now >= until {
                    // Begin an off-period.
                    let mean_off = self.mean_on * (1.0 - self.duty_cycle) / self.duty_cycle;
                    let off_len = random::exponential(rng, mean_off);
                    self.state = OnOffState::Off;
                    return Firing::wait(now + Time::from_secs_f64(off_len));
                }
                let rate = self.peak_rate(now);
                if rate < 1.0 {
                    return Firing::wait(now + IDLE_RECHECK);
                }
                let gap = self.memo.tx_time(self.cfg.packet_size, rate);
                Firing::emit(&self.cfg, now + gap)
            }
        }
    }
}

/// Received-traffic counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RxCount {
    /// Packets delivered.
    pub packets: u64,
    /// Bytes delivered.
    pub bytes: u64,
}

/// Handle to a sink's counters.
pub type RxHandle = Rc<RefCell<RxCount>>;

/// Terminal endpoint that counts what reaches it.
pub struct Sink {
    counter: RxHandle,
}

impl Sink {
    /// Creates the sink and a handle to its counters.
    pub fn new() -> (Self, RxHandle) {
        let counter = RxHandle::default();
        (
            Sink {
                counter: Rc::clone(&counter),
            },
            counter,
        )
    }
}

impl Endpoint for Sink {
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, packet: Packet) {
        let mut c = self.counter.borrow_mut();
        c.packets += 1;
        c.bytes += packet.size as u64;
    }

    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {}

    /// `true` when the [`RxHandle`] returned by [`Sink::new`] is gone
    /// by the time the sink is added: then nothing can read the
    /// counters, the only effect of [`Endpoint::on_packet`] here, so
    /// the engine need not deliver. `let (sink, _) = Sink::new();` drops
    /// the handle at once; `Sink::new().0` inside the `add_endpoint`
    /// call keeps it alive (as a temporary) until the call returns.
    fn discards(&self) -> bool {
        Rc::strong_count(&self.counter) == 1
    }
}

/// Echoes probe packets back to their source over a configured reverse
/// route — the far end of a ping measurement. Non-probe packets and
/// replies are dropped.
pub struct Reflector {
    reverse_route: Route,
}

impl Reflector {
    /// Creates a reflector that replies over `reverse_route`.
    pub fn new(reverse_route: Route) -> Self {
        Reflector { reverse_route }
    }
}

impl Endpoint for Reflector {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, packet: Packet) {
        if let Payload::Probe(meta) = packet.payload {
            if !meta.is_reply {
                let reply = Payload::Probe(crate::packet::ProbeMeta {
                    is_reply: true,
                    ..meta
                });
                ctx.send(self.reverse_route, packet.src, packet.size, reply);
            }
        }
    }

    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Simulator;
    use crate::link::LinkConfig;
    use crate::packet::ProbeMeta;

    fn fat_link(sim: &mut Simulator) -> crate::link::LinkId {
        sim.add_link(LinkConfig::new(100e6, Time::from_millis(5), 1000))
    }

    /// Runs the source `make` builds for `secs` over one fat link;
    /// returns the packets it sent (offered to the link) and the
    /// packets its sink received.
    fn run_source<F>(make: F, secs: u64) -> (u64, u64)
    where
        F: FnOnce(SourceConfig) -> Source,
    {
        let mut sim = Simulator::new(11);
        let link = fat_link(&mut sim);
        let (sink, rx) = Sink::new();
        let sink_id = sim.add_endpoint(Box::new(sink));
        let cfg = SourceConfig {
            route: Route::direct(link),
            dst: sink_id,
            packet_size: 1000,
            base_rate_bps: 1e6,
            schedule: RateSchedule::constant(1.0),
            stop: Time::from_secs(secs),
        };
        sim.add_source(make(cfg), Time::ZERO);
        sim.run_until(Time::from_secs(secs + 1));
        let sent = sim.link(link).stats().offered;
        let received = rx.borrow().packets;
        (sent, received)
    }

    #[test]
    fn cbr_emits_at_the_configured_rate() {
        // 1 Mbps of 1000-byte packets for 10 s = 1250 packets.
        let (sent, received) = run_source(|cfg| CbrSource::new(cfg).into(), 10);
        assert_eq!(sent, 1250);
        assert_eq!(received, sent, "fat link loses nothing");
    }

    #[test]
    fn poisson_averages_the_configured_rate() {
        let (sent, _) = run_source(|cfg| PoissonSource::new(cfg).into(), 100);
        let expected = 12_500.0;
        let err = (sent as f64 - expected).abs() / expected;
        assert!(err < 0.05, "sent {sent}, expected ≈{expected}");
    }

    #[test]
    fn pareto_on_off_averages_the_configured_rate() {
        let (sent, _) = run_source(
            |cfg| ParetoOnOffSource::new(cfg, 0.3, 1.9, 0.5).into(),
            1200,
        );
        let expected = 150_000.0;
        let err = (sent as f64 - expected).abs() / expected;
        assert!(err < 0.15, "sent {sent}, expected ≈{expected}");
    }

    #[test]
    fn schedule_shift_changes_emission_rate() {
        let mut sim = Simulator::new(3);
        let link = fat_link(&mut sim);
        let (sink, _rx) = Sink::new();
        let sink_id = sim.add_endpoint(Box::new(sink));
        let schedule = RateSchedule::constant(1.0).with_shift(Time::from_secs(10), 3.0);
        let cfg = SourceConfig {
            route: Route::direct(link),
            dst: sink_id,
            packet_size: 1000,
            base_rate_bps: 1e6,
            schedule,
            stop: Time::from_secs(20),
        };
        sim.add_source(CbrSource::new(cfg), Time::ZERO);
        sim.run_until(Time::from_secs(10));
        let first_half = sim.link(link).stats().offered;
        sim.run_until(Time::from_secs(20));
        let second_half = sim.link(link).stats().offered - first_half;
        assert!(
            second_half > 2 * first_half,
            "after the 3× shift: {first_half} then {second_half}"
        );
    }

    #[test]
    fn zero_multiplier_silences_then_resumes() {
        let mut sim = Simulator::new(3);
        let link = fat_link(&mut sim);
        let (sink, rx) = Sink::new();
        let sink_id = sim.add_endpoint(Box::new(sink));
        let schedule =
            RateSchedule::constant(1.0).with_burst(Time::from_secs(2), Time::from_secs(4), 0.0);
        let cfg = SourceConfig {
            route: Route::direct(link),
            dst: sink_id,
            packet_size: 1000,
            base_rate_bps: 1e6,
            schedule,
            stop: Time::from_secs(6),
        };
        sim.add_source(CbrSource::new(cfg), Time::ZERO);
        sim.run_until(Time::from_secs(7));
        // ~2 s silent out of 6 → roughly 4/6 of the full-rate count.
        let sent = sim.link(link).stats().offered;
        assert!(
            (400..600).contains(&sent),
            "sent {sent}, expected ≈500 (2 s silenced)"
        );
        assert_eq!(rx.borrow().packets, sent);
    }

    #[test]
    fn reflector_echoes_probes_with_reply_flag() {
        struct Prober {
            route: Route,
            dst: EndpointId,
            replies: Rc<RefCell<Vec<ProbeMeta>>>,
        }
        impl Endpoint for Prober {
            fn on_packet(&mut self, _ctx: &mut Ctx<'_>, packet: Packet) {
                if let Payload::Probe(m) = packet.payload {
                    self.replies.borrow_mut().push(m);
                }
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: u64) {
                let meta = ProbeMeta {
                    seq: 42,
                    stream: 0,
                    sent_at: ctx.now,
                    is_reply: false,
                };
                ctx.send(self.route, self.dst, 41, Payload::Probe(meta));
            }
        }

        let mut sim = Simulator::new(5);
        let fwd = fat_link(&mut sim);
        let rev = fat_link(&mut sim);
        let refl_id = sim.add_endpoint(Box::new(Reflector::new(Route::direct(rev))));
        let replies = Rc::new(RefCell::new(Vec::new()));
        let prober = Prober {
            route: Route::direct(fwd),
            dst: refl_id,
            replies: Rc::clone(&replies),
        };
        let prober_id = sim.add_endpoint(Box::new(prober));
        sim.schedule_timer(prober_id, 0, Time::ZERO);
        sim.run_until(Time::from_secs(1));
        let replies = replies.borrow();
        assert_eq!(replies.len(), 1);
        assert_eq!(replies[0].seq, 42);
        assert!(replies[0].is_reply);
        assert_eq!(replies[0].sent_at, Time::ZERO, "echo preserves timestamp");
    }

    #[test]
    fn sources_stop_at_their_deadline() {
        let (sent_10, _) = run_source(|cfg| CbrSource::new(cfg).into(), 10);
        let (sent_20, _) = run_source(|cfg| CbrSource::new(cfg).into(), 20);
        assert!((sent_20 as f64 / sent_10 as f64 - 2.0).abs() < 0.01);
    }
}
