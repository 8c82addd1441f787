//! Eliding unobserved arrivals (DESIGN.md §14, "Unobserved
//! deliveries") changes nothing anyone can observe: a world whose
//! cross traffic ends at sinks nobody holds a handle to runs exactly
//! like the same world with the handles kept — same counters (elided
//! arrivals aside), same clock, same link statistics, same outputs at
//! the observed endpoints — at every checkpoint, including cut-offs
//! with packets still in propagation. (That the elided-arrival FIFO
//! holds only the packets in propagation is checked in `engine.rs`'s
//! unit tests, which can read its capacity.)

use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;
use tputpred_netsim::link::LinkConfig;
use tputpred_netsim::random::exponential;
use tputpred_netsim::sources::{
    CbrSource, ParetoOnOffSource, PoissonSource, RxHandle, Sink, Source, SourceConfig,
};
use tputpred_netsim::{
    Ctx, Endpoint, EndpointId, EngineCounters, LinkId, LinkStats, Packet, Payload, RateSchedule,
    Route, Simulator, Time,
};

/// Everything an observer of the world can read.
type Log = Rc<RefCell<Vec<(Time, u64)>>>;

/// Logs the arrival time and size of every packet it receives.
struct Recorder {
    log: Log,
}

impl Endpoint for Recorder {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, packet: Packet) {
        self.log
            .borrow_mut()
            .push((ctx.now, u64::from(packet.size)));
    }
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {}
}

/// The observed flow: sends one packet per timer, re-arming after an
/// exponential gap drawn from the shared RNG (so any change in the RNG
/// stream or the clock shows in its log), and now and then arms a timer
/// more than a second ahead, which only logs.
struct Jitter {
    route: Route,
    dst: EndpointId,
    mean_gap_s: f64,
    stop: Time,
    log: Log,
}

impl Endpoint for Jitter {
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _packet: Packet) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        self.log.borrow_mut().push((ctx.now, token));
        if token != 0 || ctx.now >= self.stop {
            return;
        }
        ctx.send(self.route, self.dst, 600, Payload::Raw);
        let gap = exponential(ctx.rng(), self.mean_gap_s);
        ctx.set_timer_after(0, Time::from_secs_f64(gap));
        if exponential(ctx.rng(), 1.0) > 2.5 {
            let far = Time::from_secs_f64(1.1 + exponential(ctx.rng(), 0.5));
            ctx.set_timer_after(1, far);
        }
    }
}

/// One draw of the world's shape.
#[derive(Debug, Clone)]
struct Shape {
    seed: u64,
    rate_bps: f64,
    delay1_ms: u64,
    delay2_ms: u64,
    buffer: u32,
    loads: (f64, f64, f64),
    stop: Time,
}

struct World {
    sim: Simulator,
    links: [LinkId; 2],
    received: Log,
    sent: Log,
    /// The cross-traffic sinks' handles, when kept.
    sinks: Vec<RxHandle>,
}

/// Builds the world: CBR and Poisson cross traffic over the bottleneck
/// `l1`, Pareto on-off over the two-hop route `l1 → l2` (so its
/// arrivals at `l2`'s far end are the only ones at the last hop), and
/// the observed flow sharing `l1`.
fn build(shape: &Shape, keep_handles: bool) -> World {
    let mut sim = Simulator::new(shape.seed);
    let l1 = sim.add_link(LinkConfig::new(
        shape.rate_bps,
        Time::from_millis(shape.delay1_ms),
        shape.buffer,
    ));
    let l2 = sim.add_link(LinkConfig::new(
        shape.rate_bps * 3.0,
        Time::from_millis(shape.delay2_ms),
        200,
    ));
    let mut sinks = Vec::new();
    let mut sink = || {
        let (sink, rx) = Sink::new();
        if keep_handles {
            sinks.push(rx);
        }
        sink
    };
    let near = sim.add_endpoint(Box::new(sink()));
    let far = sim.add_endpoint(Box::new(sink()));
    let cfg = |route: Route, dst: EndpointId, load: f64| SourceConfig {
        route,
        dst,
        packet_size: 1000,
        base_rate_bps: shape.rate_bps * load,
        schedule: RateSchedule::constant(1.0),
        stop: shape.stop,
    };
    let (l1_only, both) = (Route::direct(l1), Route::new(&[l1, l2]));
    let (cbr, poisson, pareto) = shape.loads;
    let sources: [Source; 3] = [
        CbrSource::new(cfg(l1_only, near, cbr)).into(),
        PoissonSource::new(cfg(l1_only, near, poisson)).into(),
        ParetoOnOffSource::new(cfg(both, far, pareto), 0.5, 1.6, 0.05).into(),
    ];
    for src in sources {
        sim.add_source(src, Time::ZERO);
    }
    let received = Log::default();
    let recorder = sim.add_endpoint(Box::new(Recorder {
        log: Rc::clone(&received),
    }));
    let sent = Log::default();
    let jitter = sim.add_endpoint(Box::new(Jitter {
        route: l1_only,
        dst: recorder,
        mean_gap_s: 0.004,
        stop: shape.stop,
        log: Rc::clone(&sent),
    }));
    sim.schedule_timer(jitter, 0, Time::from_millis(1));
    World {
        sim,
        links: [l1, l2],
        received,
        sent,
        sinks,
    }
}

/// What a checkpoint compares: the counters with `elided_arrivals`
/// masked, the clock, both links' statistics and the observed logs.
type Snapshot = (
    EngineCounters,
    Time,
    [LinkStats; 2],
    Vec<(Time, u64)>,
    Vec<(Time, u64)>,
);

fn snapshot(w: &World) -> Snapshot {
    let counters = EngineCounters {
        elided_arrivals: 0,
        ..w.sim.counters()
    };
    let stats = w.links.map(|l| *w.sim.link(l).stats());
    let logs = (w.received.borrow().clone(), w.sent.borrow().clone());
    (counters, w.sim.now(), stats, logs.0, logs.1)
}

fn shape_strategy() -> impl Strategy<Value = Shape> {
    (
        (0u64..u64::MAX, 2e6..20e6, 1u64..30, 1u64..30, 3u32..60),
        (0.05..0.6, 0.05..0.6, 0.05..0.6, 200u64..1500),
    )
        .prop_map(
            |((seed, rate_bps, delay1_ms, delay2_ms, buffer), (a, b, c, stop_ms))| Shape {
                seed,
                rate_bps,
                delay1_ms,
                delay2_ms,
                buffer,
                loads: (a, b, c),
                stop: Time::from_millis(stop_ms),
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn dropped_handles_change_nothing_observable(
        shape in shape_strategy(),
        checkpoints_ms in prop::collection::vec(0u64..2000, 1..8),
    ) {
        let mut kept = build(&shape, true);
        let mut dropped = build(&shape, false);
        let mut checkpoints_ms = checkpoints_ms;
        checkpoints_ms.sort_unstable();
        for &ms in &checkpoints_ms {
            let t = Time::from_millis(ms);
            kept.sim.run_until(t);
            dropped.sim.run_until(t);
            prop_assert_eq!(snapshot(&kept), snapshot(&dropped), "at {} ms", ms);
            prop_assert_eq!(kept.sim.counters().elided_arrivals, 0);
        }
        kept.sim.run_to_quiescence();
        dropped.sim.run_to_quiescence();
        prop_assert_eq!(snapshot(&kept), snapshot(&dropped), "after quiescence");
        let (k, d) = (kept.sim.counters(), dropped.sim.counters());
        prop_assert_eq!(k.elided_arrivals, 0);
        prop_assert!(d.elided_arrivals > 0, "{:?}", d);
        // Every delivery to a cross-traffic sink was elided, and nothing
        // else was.
        let sunk: u64 = kept.sinks.iter().map(|rx| rx.borrow().packets).sum();
        prop_assert_eq!(d.elided_arrivals, sunk);
    }
}

/// Sends `count` packets back to back when its timer fires.
struct Burst {
    route: Route,
    dst: EndpointId,
    count: u32,
}

impl Endpoint for Burst {
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _packet: Packet) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        for _ in 0..self.count {
            ctx.send(self.route, self.dst, 1500, Payload::Raw);
        }
    }
}

#[test]
fn quiescence_ends_the_clock_at_the_last_elided_arrival() {
    let mut sim = Simulator::new(5);
    let link = sim.add_link(LinkConfig::new(10e6, Time::from_millis(20), 100));
    let (sink, _) = Sink::new();
    let sink = sim.add_endpoint(Box::new(sink));
    let burst = sim.add_endpoint(Box::new(Burst {
        route: Route::direct(link),
        dst: sink,
        count: 100,
    }));
    sim.schedule_timer(burst, 0, Time::ZERO);
    sim.run_to_quiescence();
    assert_eq!(sim.counters().elided_arrivals, 100);
    // The clock ends at the last (elided) arrival: 100 serializations
    // of 1.2 ms, then 20 ms of propagation.
    assert_eq!(sim.now(), Time::from_millis(140));
}
