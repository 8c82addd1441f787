//! Oracle tests for the probes: what a tool measures on a path whose
//! answer is known in closed form.
//!
//! On an idle path nothing queues, so a ping probe's round trip is pure
//! store-and-forward: on every hop out and back the 41-byte probe is
//! serialized at the hop's rate and then propagates for the hop's delay.
//! The paper's `T̂` (§4.1) is that RTT plus queueing, so any error here
//! would bias every FB prediction built on it.
//!
//! Constant-rate cross traffic `x` on a link of capacity `C` leaves
//! exactly `C − x` available, at every instant, so pathload's estimate
//! (the paper's `Â`, §4.1) must land within its own search resolution of
//! that.

use tputpred_netsim::link::LinkConfig;
use tputpred_netsim::sources::{CbrSource, Reflector, Sink, SourceConfig};
use tputpred_netsim::{RateSchedule, Route, Simulator, Time};
use tputpred_probes::ping::PingProber;
use tputpred_probes::{Pathload, PathloadConfig};

/// One hop of the oracle path: its rate, its propagation delay, and the
/// probe's serialization time at that rate, worked out by hand
/// (`41 × 8 bits / rate`, rounded to the nanosecond).
struct Hop {
    rate_bps: f64,
    delay: Time,
    probe_tx_ns: u64,
}

/// A T1 access link: 328 bits / 1.544 Mb/s = 212 435.23 ns.
const ACCESS: Hop = Hop {
    rate_bps: 1.544e6,
    delay: Time::from_nanos(3_700_000),
    probe_tx_ns: 212_435,
};
/// A T3 core link: 328 bits / 45 Mb/s = 7 288.89 ns.
const CORE: Hop = Hop {
    rate_bps: 45e6,
    delay: Time::from_nanos(11_300_000),
    probe_tx_ns: 7_289,
};
/// The return path: 328 bits / 10 Mb/s = 32 800 ns.
const RETURN: Hop = Hop {
    rate_bps: 10e6,
    delay: Time::from_nanos(14_000_000),
    probe_tx_ns: 32_800,
};

/// Idle path, ping RTT = serialization + propagation on every hop, to
/// the nanosecond.
///
/// Tolerance: zero. Each probe is summarized over a window holding only
/// it, so the reported mean is that one RTT divided by one — no float
/// sum gets in the way — and at these magnitudes (~0.03 s) distinct
/// nanosecond counts map to distinct `f64` seconds, so comparing the
/// bits of the mean compares nanoseconds.
#[test]
fn idle_path_ping_rtt_is_serialization_plus_propagation_exactly() {
    const INTERVAL: Time = Time::from_millis(100);
    const PROBES: u64 = 200;
    for hop in [&ACCESS, &CORE, &RETURN] {
        assert_eq!(
            Time::tx_time(PingProber::PROBE_SIZE, hop.rate_bps).as_nanos(),
            hop.probe_tx_ns,
            "hand-worked serialization at {} b/s",
            hop.rate_bps
        );
    }
    let one_way = |hops: &[&Hop]| -> u64 {
        hops.iter()
            .map(|h| h.probe_tx_ns + h.delay.as_nanos())
            .sum()
    };
    let expected_ns = one_way(&[&ACCESS, &CORE]) + one_way(&[&RETURN]);
    assert_eq!(expected_ns, 29_252_524);

    let mut sim = Simulator::new(5);
    let mut link = |h: &Hop| sim.add_link(LinkConfig::new(h.rate_bps, h.delay, 64));
    let forward = Route::new(&[link(&ACCESS), link(&CORE)]);
    let back = Route::direct(link(&RETURN));
    let reflector = Reflector::new(back);
    let reflector = sim.add_endpoint(Box::new(reflector));
    let stop = Time::from_nanos(PROBES * INTERVAL.as_nanos());
    let (prober, stats) = PingProber::new(forward, reflector, INTERVAL, stop);
    let prober = sim.add_endpoint(Box::new(prober));
    sim.schedule_timer(prober, 0, Time::ZERO);
    sim.run_to_quiescence();

    let stats = stats.borrow();
    assert_eq!(stats.total_sent() as u64, PROBES);
    let expected_s = Time::from_nanos(expected_ns).as_secs_f64();
    for k in 0..PROBES {
        let from = Time::from_nanos(k * INTERVAL.as_nanos());
        let s = stats.summarize(from, from + INTERVAL);
        assert_eq!((s.sent, s.received), (1, 1), "probe {k}");
        assert_eq!(
            s.rtt.to_bits(),
            expected_s.to_bits(),
            "probe {k}: rtt {} ns, want {expected_ns} ns",
            s.rtt * 1e9
        );
    }
}

/// Pathload on CBR cross traffic converges within its resolution of the
/// true avail-bw `C − x`.
///
/// Tolerance: `resolution_fraction` (10 %) of `C − x`. The search stops
/// once its bracket is that narrow relative to its top, and reports the
/// bracket's midpoint, so a search whose every verdict was right holds
/// `C − x` within that distance. CBR draws no randomness, so the result
/// is the same for every seed.
///
/// The cross traffic and the probing both start at time zero, with
/// 1000-byte cross packets. The verdicts are not right for every phase
/// and packet size: coarser cross packets (1500 bytes of 2 or 8 Mb/s
/// on 10 Mb/s), or probing that starts 1 s into the 1 Mb/s case, let
/// the trend test miss a ~10 % overload, and the estimate lands
/// 11–13 % high (ROADMAP item 7).
#[test]
fn pathload_on_cbr_cross_traffic_finds_capacity_minus_load() {
    let config = PathloadConfig::default();
    for (capacity_mbps, cross_mbps) in [
        (10.0, 0.0),
        (10.0, 2.0),
        (10.0, 5.0),
        (10.0, 8.0),
        (100.0, 40.0),
        (1.0, 0.5),
    ] {
        let (capacity, cross) = (capacity_mbps * 1e6, cross_mbps * 1e6);
        let mut sim = Simulator::new(11);
        let link = sim.add_link(LinkConfig::new(capacity, Time::from_millis(20), 100));
        if cross > 0.0 {
            let (sink, _) = Sink::new();
            let sink = sim.add_endpoint(Box::new(sink));
            let cbr = CbrSource::new(SourceConfig {
                route: Route::direct(link),
                dst: sink,
                packet_size: 1000,
                base_rate_bps: cross,
                schedule: RateSchedule::constant(1.0),
                stop: Time::MAX,
            });
            sim.add_source(cbr, Time::ZERO);
        }
        let handle = Pathload::deploy(&mut sim, config, Route::direct(link), Time::ZERO);
        let mut t = Time::ZERO;
        while !handle.borrow().done && t < Time::from_secs(120) {
            t += Time::from_secs(1);
            sim.run_until(t);
        }
        let result = *handle.borrow();
        let label = format!("C = {capacity_mbps} Mb/s, x = {cross_mbps} Mb/s");
        assert!(result.done, "{label}: no verdict by {t:?}: {result:?}");
        let estimate = result.estimate.expect("a finished search has an estimate");
        let avail = capacity - cross;
        let error = (estimate - avail).abs() / avail;
        assert!(
            error <= config.resolution_fraction,
            "{label}: estimate {:.3} Mb/s, C − x = {:.3} Mb/s, error {:.1} %",
            estimate / 1e6,
            avail / 1e6,
            error * 100.0
        );
    }
}
