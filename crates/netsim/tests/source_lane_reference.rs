//! Firing open-loop sources from the engine's lane is event-for-event
//! equivalent to the timer-driven endpoints they used to be (DESIGN.md
//! §14): for random worlds of one to six mixed sources — random load
//! schedules with zero-multiplier bursts, random start and stop times,
//! CBR at exactly the link rate, equal-rate sources started together —
//! sharing a bottleneck with a TCP flow and a ping prober, a world built
//! with [`Simulator::add_source`] and the same world built from verbatim
//! copies of the old generators (bootstrapped by
//! [`Simulator::schedule_timer`], re-armed by [`Ctx::set_timer_after`])
//! agree on every engine counter but `timer_pushes`, both links'
//! statistics, every sink's counts, the ping records and the flow's
//! statistics, at random checkpoints and after quiescence.

use proptest::prelude::*;
use tputpred_netsim::link::LinkConfig;
use tputpred_netsim::random;
use tputpred_netsim::schedule::ScheduleCursor;
use tputpred_netsim::sources::{
    CbrSource, GapMemo, ParetoOnOffSource, PoissonSource, Reflector, RxHandle, Sink, Source,
    SourceConfig,
};
use tputpred_netsim::{
    Ctx, Endpoint, EngineCounters, LinkId, LinkStats, Packet, Payload, RateSchedule, Route,
    Simulator, Time,
};
use tputpred_probes::ping::PingProber;
use tputpred_probes::PingStatsHandle;
use tputpred_tcp::{connect, FlowHandle, TcpConfig};

// ---- Reference: the timer-driven generators, verbatim ---------------------

const IDLE_RECHECK: Time = Time::from_millis(50);

fn effective_rate(cfg: &SourceConfig, now: Time, cursor: &mut ScheduleCursor) -> f64 {
    cfg.base_rate_bps * cfg.schedule.multiplier_at_cached(now, cursor)
}

fn emit(ctx: &mut Ctx<'_>, cfg: &SourceConfig) {
    ctx.send(cfg.route, cfg.dst, cfg.packet_size, Payload::Raw);
}

struct RefCbr {
    cfg: SourceConfig,
    memo: GapMemo,
    cursor: ScheduleCursor,
}

impl Endpoint for RefCbr {
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _packet: Packet) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        if ctx.now >= self.cfg.stop {
            return;
        }
        let rate = effective_rate(&self.cfg, ctx.now, &mut self.cursor);
        if rate < 1.0 {
            ctx.set_timer_after(0, IDLE_RECHECK);
            return;
        }
        emit(ctx, &self.cfg);
        let gap = self.memo.tx_time(self.cfg.packet_size, rate);
        ctx.set_timer_after(0, gap);
    }
}

struct RefPoisson {
    cfg: SourceConfig,
    cursor: ScheduleCursor,
}

impl Endpoint for RefPoisson {
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _packet: Packet) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        if ctx.now >= self.cfg.stop {
            return;
        }
        let rate = effective_rate(&self.cfg, ctx.now, &mut self.cursor);
        if rate < 1.0 {
            ctx.set_timer_after(0, IDLE_RECHECK);
            return;
        }
        emit(ctx, &self.cfg);
        let mean_gap = self.cfg.packet_size as f64 * 8.0 / rate;
        let gap = random::exponential(ctx.rng(), mean_gap);
        ctx.set_timer_after(0, Time::from_secs_f64(gap));
    }
}

struct RefParetoOnOff {
    cfg: SourceConfig,
    memo: GapMemo,
    cursor: ScheduleCursor,
    duty_cycle: f64,
    alpha: f64,
    mean_on: f64,
    state: OnOffState,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum OnOffState {
    Off,
    On { until: Time },
}

impl RefParetoOnOff {
    fn peak_rate(&mut self, now: Time) -> f64 {
        effective_rate(&self.cfg, now, &mut self.cursor) / self.duty_cycle
    }
}

impl Endpoint for RefParetoOnOff {
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _packet: Packet) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        if ctx.now >= self.cfg.stop {
            return;
        }
        match self.state {
            OnOffState::Off => {
                // Begin an on-period.
                let xmin = random::pareto_scale_for_mean(self.alpha, self.mean_on);
                let on_len = random::pareto(ctx.rng(), self.alpha, xmin);
                self.state = OnOffState::On {
                    until: ctx.now + Time::from_secs_f64(on_len),
                };
                // Fall through to emit immediately.
                self.on_timer(ctx, 0);
            }
            OnOffState::On { until } => {
                if ctx.now >= until {
                    // Begin an off-period.
                    let mean_off = self.mean_on * (1.0 - self.duty_cycle) / self.duty_cycle;
                    let off_len = random::exponential(ctx.rng(), mean_off);
                    self.state = OnOffState::Off;
                    ctx.set_timer_after(0, Time::from_secs_f64(off_len));
                    return;
                }
                let rate = self.peak_rate(ctx.now);
                if rate < 1.0 {
                    ctx.set_timer_after(0, IDLE_RECHECK);
                    return;
                }
                emit(ctx, &self.cfg);
                let gap = self.memo.tx_time(self.cfg.packet_size, rate);
                ctx.set_timer_after(0, gap);
            }
        }
    }
}

// ---- Worlds ----------------------------------------------------------------

/// The Pareto parameters every on-off source in these worlds uses.
const DUTY: f64 = 0.4;
const ALPHA: f64 = 1.6;
const MEAN_ON_S: f64 = 0.08;

/// One source: its kind (0 CBR, 1 Poisson, 2 Pareto on-off), packet
/// size, rate as a fraction of the link, start and stop, and its load
/// schedule's shifts and bursts (`(ms, level)`, `(from ms, len ms,
/// level)`; level 0 silences it).
#[derive(Debug, Clone)]
struct SourceSpec {
    kind: u8,
    size: u32,
    load: f64,
    start_ms: u64,
    stop_ms: u64,
    shifts: Vec<(u64, f64)>,
    bursts: Vec<(u64, u64, f64)>,
    keep_handle: bool,
}

#[derive(Debug, Clone)]
struct Shape {
    seed: u64,
    rate_bps: f64,
    delay_ms: u64,
    buffer: u32,
    sources: Vec<SourceSpec>,
    tcp_window: u32,
    tcp_start_ms: u64,
    tcp_stop_ms: u64,
    ping_interval_ms: u64,
    ping_stop_ms: u64,
}

struct World {
    sim: Simulator,
    links: [LinkId; 2],
    sinks: Vec<Option<RxHandle>>,
    ping: PingStatsHandle,
    flow: FlowHandle,
}

fn schedule_of(spec: &SourceSpec) -> RateSchedule {
    let mut shifts = spec.shifts.clone();
    shifts.sort_by_key(|&(at_ms, _)| at_ms);
    shifts.dedup_by_key(|&mut (at_ms, _)| at_ms);
    let mut s = RateSchedule::constant(1.0);
    for &(at_ms, level) in &shifts {
        s = s.with_shift(Time::from_millis(at_ms), level);
    }
    for &(from_ms, len_ms, level) in &spec.bursts {
        let from = Time::from_millis(from_ms);
        s = s.with_burst(from, from + Time::from_millis(len_ms), level);
    }
    s
}

/// Builds the world; `lane` picks [`Simulator::add_source`] over the
/// reference endpoints.
fn build(shape: &Shape, lane: bool) -> World {
    let mut sim = Simulator::new(shape.seed);
    let fwd = sim.add_link(LinkConfig::new(
        shape.rate_bps,
        Time::from_millis(shape.delay_ms),
        shape.buffer,
    ));
    let rev = sim.add_link(LinkConfig::new(
        shape.rate_bps * 10.0,
        Time::from_millis(shape.delay_ms),
        1000,
    ));
    let mut sinks = Vec::new();
    for spec in &shape.sources {
        let (sink, rx) = Sink::new();
        // A dropped handle lets the engine elide the sink's arrivals.
        sinks.push(spec.keep_handle.then_some(rx));
        let dst = sim.add_endpoint(Box::new(sink));
        let cfg = SourceConfig {
            route: Route::direct(fwd),
            dst,
            packet_size: spec.size,
            base_rate_bps: shape.rate_bps * spec.load,
            schedule: schedule_of(spec),
            stop: Time::from_millis(spec.stop_ms),
        };
        let start = Time::from_millis(spec.start_ms);
        if lane {
            let source: Source = match spec.kind {
                0 => CbrSource::new(cfg).into(),
                1 => PoissonSource::new(cfg).into(),
                _ => ParetoOnOffSource::new(cfg, DUTY, ALPHA, MEAN_ON_S).into(),
            };
            sim.add_source(source, start);
        } else {
            let endpoint: Box<dyn Endpoint> = match spec.kind {
                0 => Box::new(RefCbr {
                    cfg,
                    memo: GapMemo::EMPTY,
                    cursor: ScheduleCursor::EMPTY,
                }),
                1 => Box::new(RefPoisson {
                    cfg,
                    cursor: ScheduleCursor::EMPTY,
                }),
                _ => Box::new(RefParetoOnOff {
                    cfg,
                    memo: GapMemo::EMPTY,
                    cursor: ScheduleCursor::EMPTY,
                    duty_cycle: DUTY,
                    alpha: ALPHA,
                    mean_on: MEAN_ON_S,
                    state: OnOffState::Off,
                }),
            };
            let id = sim.add_endpoint(endpoint);
            sim.schedule_timer(id, 0, start);
        }
    }
    let config = TcpConfig {
        max_window: shape.tcp_window,
        ..TcpConfig::default()
    };
    let (_, _, flow) = connect(
        &mut sim,
        config,
        Route::direct(fwd),
        Route::direct(rev),
        Time::from_millis(shape.tcp_start_ms),
        Time::from_millis(shape.tcp_stop_ms),
    );
    let reflector = sim.add_endpoint(Box::new(Reflector::new(Route::direct(rev))));
    let (prober, ping) = PingProber::new(
        Route::direct(fwd),
        reflector,
        Time::from_millis(shape.ping_interval_ms),
        Time::from_millis(shape.ping_stop_ms),
    );
    let prober = sim.add_endpoint(Box::new(prober));
    sim.schedule_timer(prober, 0, Time::ZERO);
    World {
        sim,
        links: [fwd, rev],
        sinks,
        ping,
        flow,
    }
}

/// What a checkpoint compares: the counters with `timer_pushes` masked
/// (the lane pushes no timers; that is its point), the clock, both
/// links' statistics, the sinks' counts, and the ping and flow records.
type Snapshot = (
    EngineCounters,
    Time,
    [LinkStats; 2],
    Vec<Option<(u64, u64)>>,
    String,
    String,
);

fn snapshot(w: &World) -> Snapshot {
    let counters = EngineCounters {
        timer_pushes: 0,
        ..w.sim.counters()
    };
    let stats = w.links.map(|l| *w.sim.link(l).stats());
    let sinks = w
        .sinks
        .iter()
        .map(|rx| {
            rx.as_ref().map(|rx| {
                let c = *rx.borrow();
                (c.packets, c.bytes)
            })
        })
        .collect();
    let ping = format!("{:?}", w.ping.borrow());
    let flow = format!("{:?}", w.flow.borrow());
    (counters, w.sim.now(), stats, sinks, ping, flow)
}

// ---- Strategies ------------------------------------------------------------

const SIZES: [u32; 4] = [200, 576, 1000, 1500];
const SHIFT_LEVELS: [f64; 4] = [0.0, 0.5, 1.0, 2.0];
const BURST_LEVELS: [f64; 3] = [0.0, 0.3, 3.0];
const WINDOWS: [u32; 3] = [16_384, 65_536, 1 << 20];

fn source_strategy() -> impl Strategy<Value = SourceSpec> {
    (
        (0u8..3, 0usize..SIZES.len(), 0u8..2),
        (0.02f64..0.5, 0u64..400, 200u64..3_000),
        prop::collection::vec((0u64..3_000, 0usize..SHIFT_LEVELS.len()), 0..3),
        prop::collection::vec((0u64..3_000, 1u64..400, 0usize..BURST_LEVELS.len()), 0..3),
    )
        .prop_map(
            |((kind, size, keep), (load, start_ms, run_ms), shifts, bursts)| SourceSpec {
                kind,
                size: SIZES[size],
                load,
                start_ms,
                stop_ms: start_ms + run_ms,
                shifts: shifts
                    .into_iter()
                    .map(|(at, l)| (at, SHIFT_LEVELS[l]))
                    .collect(),
                bursts: bursts
                    .into_iter()
                    .map(|(from, len, l)| (from, len, BURST_LEVELS[l]))
                    .collect(),
                keep_handle: keep == 1,
            },
        )
}

fn shape_strategy() -> impl Strategy<Value = Shape> {
    (
        (0u64..u64::MAX, 1e6f64..20e6, 1u64..40, 4u32..80),
        prop::collection::vec(source_strategy(), 1..7),
        // Exact ties: the first source becomes CBR at exactly the link
        // rate, and/or a twin of the last source starts with it.
        (0u8..2, 0u8..2),
        (
            0usize..WINDOWS.len(),
            0u64..500,
            500u64..3_000,
            1u64..200,
            0u64..3_000,
        ),
    )
        .prop_map(
            |(
                (seed, rate_bps, delay_ms, buffer),
                mut sources,
                (link_rate_cbr, twin),
                (window, tcp_start_ms, tcp_run_ms, ping_interval_ms, ping_stop_ms),
            )| {
                if link_rate_cbr == 1 {
                    let s = &mut sources[0];
                    s.kind = 0;
                    s.load = 1.0;
                    s.shifts.clear();
                }
                if twin == 1 && sources.len() < 6 {
                    let last = sources[sources.len() - 1].clone();
                    sources.push(last);
                }
                Shape {
                    seed,
                    rate_bps,
                    delay_ms,
                    buffer,
                    sources,
                    tcp_window: WINDOWS[window],
                    tcp_start_ms,
                    tcp_stop_ms: tcp_start_ms + tcp_run_ms,
                    ping_interval_ms,
                    ping_stop_ms,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn lane_sources_match_timer_driven_sources(
        shape in shape_strategy(),
        checkpoints_ms in prop::collection::vec(0u64..4_000, 0..6),
    ) {
        let mut lane = build(&shape, true);
        let mut reference = build(&shape, false);
        let mut checkpoints_ms = checkpoints_ms;
        checkpoints_ms.sort_unstable();
        for &ms in &checkpoints_ms {
            let t = Time::from_millis(ms);
            lane.sim.run_until(t);
            reference.sim.run_until(t);
            prop_assert_eq!(snapshot(&lane), snapshot(&reference), "at {} ms", ms);
        }
        lane.sim.run_to_quiescence();
        reference.sim.run_to_quiescence();
        prop_assert_eq!(snapshot(&lane), snapshot(&reference), "after quiescence");
        // The lane keeps sources off the heap entirely.
        let (l, r) = (lane.sim.counters(), reference.sim.counters());
        prop_assert!(l.timer_pushes < r.timer_pushes, "{:?} vs {:?}", l, r);
    }
}

/// CBR at exactly the link rate: each firing's next key ties with the
/// completion of the packet it just sent, and the completion (whose
/// `seq` was taken first) must win, so every packet finds the
/// serializer idle and none queues.
#[test]
fn cbr_at_the_link_rate_never_queues() {
    let rate_bps = 8e6;
    let mut sim = Simulator::new(1);
    let link = sim.add_link(LinkConfig::new(rate_bps, Time::from_millis(5), 10));
    let (sink, rx) = Sink::new();
    let dst = sim.add_endpoint(Box::new(sink));
    let stop = Time::from_secs(1);
    let cfg = SourceConfig {
        route: Route::direct(link),
        dst,
        packet_size: 1000,
        base_rate_bps: rate_bps,
        schedule: RateSchedule::constant(1.0),
        stop,
    };
    sim.add_source(CbrSource::new(cfg), Time::ZERO);
    sim.run_to_quiescence();
    let c = sim.counters();
    // 1000 B at 8 Mb/s is 1 ms: firings at 0, 1, ..., 999 ms send, the
    // one at 1 s (the stop) only counts.
    assert_eq!(c.packets_tx_started, 1000, "{c:?}");
    assert_eq!(c.packets_queued, 0, "{c:?}");
    assert_eq!(c.timer_events, 1001, "{c:?}");
    assert_eq!(c.endpoint_calls, 2000, "{c:?}");
    assert_eq!(c.timer_pushes, 0, "{c:?}");
    assert_eq!(rx.borrow().packets, 1000);
}
