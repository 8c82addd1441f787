//! Oracle tests for the probes: what a tool measures on a path whose
//! answer is known in closed form.
//!
//! On an idle path nothing queues, so a ping probe's round trip is pure
//! store-and-forward: on every hop out and back the 41-byte probe is
//! serialized at the hop's rate and then propagates for the hop's delay.
//! The paper's `T̂` (§4.1) is that RTT plus queueing, so any error here
//! would bias every FB prediction built on it.

use tputpred_netsim::link::LinkConfig;
use tputpred_netsim::sources::Reflector;
use tputpred_netsim::{Route, Simulator, Time};
use tputpred_probes::ping::PingProber;

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
