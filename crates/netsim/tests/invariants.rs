//! Property-based invariants of the simulation engine: conservation,
//! ordering, and capacity laws that must hold for any traffic pattern.

use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;
use tputpred_netsim::link::LinkConfig;
use tputpred_netsim::sources::{
    CbrSource, ParetoOnOffSource, PoissonSource, Sink, Source, SourceConfig,
};
use tputpred_netsim::{Ctx, Endpoint, Packet, Payload, RateSchedule, Route, Simulator, Time};

/// Runs `secs` of a single-link world with the given source mix; returns
/// (offered, forwarded, dropped, queued, delivered, busy_secs, capacity).
fn run_world(
    seed: u64,
    rate_mbps: f64,
    buffer: u32,
    load_fraction: f64,
    kind: u8,
    secs: u64,
) -> (u64, u64, u64, u64, u64, f64, f64) {
    let capacity = rate_mbps * 1e6;
    let mut sim = Simulator::new(seed);
    let link = sim.add_link(LinkConfig::new(capacity, Time::from_millis(10), buffer));
    let (sink, rx) = Sink::new();
    let sink_id = sim.add_endpoint(Box::new(sink));
    let cfg = SourceConfig {
        route: Route::direct(link),
        dst: sink_id,
        packet_size: 1000,
        base_rate_bps: capacity * load_fraction,
        schedule: RateSchedule::constant(1.0),
        stop: Time::from_secs(secs),
    };
    let src: Source = match kind % 3 {
        0 => CbrSource::new(cfg).into(),
        1 => PoissonSource::new(cfg).into(),
        _ => ParetoOnOffSource::new(cfg, 0.5, 1.7, 0.3).into(),
    };
    sim.add_source(src, Time::ZERO);
    sim.run_until(Time::from_secs(secs));
    // Drain what is still queued/propagating.
    sim.run_to_quiescence();
    let stats = *sim.link(link).stats();
    let queued = sim.link(link).queue_len() as u64;
    let delivered = rx.borrow().packets;
    (
        stats.offered,
        stats.packets_out,
        stats.drops,
        queued,
        delivered,
        stats.busy.as_secs_f64(),
        capacity,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn packets_are_conserved(
        seed in 0u64..1000,
        rate in 1.0f64..50.0,
        buffer in 2u32..200,
        load in 0.1f64..2.0,
        kind in 0u8..3,
    ) {
        let (offered, forwarded, dropped, queued, delivered, _, _) =
            run_world(seed, rate, buffer, load, kind, 5);
        // Conservation at the link...
        prop_assert_eq!(offered, forwarded + dropped + queued);
        // ...and after quiescence nothing is left in the queue and every
        // forwarded packet reached the sink.
        prop_assert_eq!(queued, 0);
        prop_assert_eq!(forwarded, delivered);
    }

    #[test]
    fn forwarded_traffic_never_exceeds_capacity(
        seed in 0u64..1000,
        rate in 1.0f64..50.0,
        buffer in 2u32..200,
        load in 0.5f64..3.0,
        kind in 0u8..3,
    ) {
        let secs = 5;
        let (_, forwarded, _, _, _, busy, capacity) =
            run_world(seed, rate, buffer, load, kind, secs);
        let bits = forwarded as f64 * 1000.0 * 8.0;
        // After `secs` the source stops but the queue drains: allow for a
        // full buffer's worth of serialization beyond the deadline.
        let drain = buffer as f64 * 1000.0 * 8.0 / capacity + 0.1;
        prop_assert!(bits <= capacity * (secs as f64 + drain) + 8000.0,
            "forwarded {bits} bits over {secs}s on a {capacity} link");
        prop_assert!(busy <= secs as f64 + drain, "busy {busy}s in {secs}s");
    }

    #[test]
    fn overload_always_drops_and_underload_never_does(
        seed in 0u64..1000,
        rate in 1.0f64..20.0,
        buffer in 2u32..64,
    ) {
        // CBR at 150%: must drop. CBR at 50%: must not.
        let (_, _, dropped_over, _, _, _, _) = run_world(seed, rate, buffer, 1.5, 0, 5);
        prop_assert!(dropped_over > 0, "150% CBR load must overflow");
        let (_, _, dropped_under, _, _, _, _) = run_world(seed, rate, buffer, 0.5, 0, 5);
        prop_assert_eq!(dropped_under, 0, "50% CBR load never overflows");
    }

    #[test]
    fn fifo_links_never_reorder(
        seed in 0u64..1000,
        burst in 2u32..40,
        buffer in 50u32..100,
    ) {
        // A burst of sequence-stamped probes through one link arrives in
        // order.
        struct Burst {
            route: Route,
            dst: tputpred_netsim::EndpointId,
            n: u32,
        }
        impl Endpoint for Burst {
            fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _p: Packet) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: u64) {
                for seq in 0..self.n {
                    let meta = tputpred_netsim::ProbeMeta {
                        seq: seq as u64,
                        stream: 0,
                        sent_at: ctx.now,
                        is_reply: false,
                    };
                    ctx.send(self.route, self.dst, 500, Payload::Probe(meta));
                }
            }
        }
        struct OrderCheck {
            seen: Rc<RefCell<Vec<u64>>>,
        }
        impl Endpoint for OrderCheck {
            fn on_packet(&mut self, _ctx: &mut Ctx<'_>, p: Packet) {
                if let Payload::Probe(m) = p.payload {
                    self.seen.borrow_mut().push(m.seq);
                }
            }
            fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _t: u64) {}
        }
        let mut sim = Simulator::new(seed);
        let link = sim.add_link(LinkConfig::new(5e6, Time::from_millis(7), buffer));
        let seen = Rc::new(RefCell::new(Vec::new()));
        let dst = sim.add_endpoint(Box::new(OrderCheck { seen: Rc::clone(&seen) }));
        let src = sim.add_endpoint(Box::new(Burst {
            route: Route::direct(link),
            dst,
            n: burst,
        }));
        sim.schedule_timer(src, 0, Time::ZERO);
        sim.run_to_quiescence();
        let seen = seen.borrow();
        prop_assert!(!seen.is_empty());
        prop_assert!(seen.windows(2).all(|w| w[0] < w[1]), "reordered: {seen:?}");
    }

    #[test]
    fn simulation_replays_bit_identically(
        seed in 0u64..1000,
        rate in 1.0f64..20.0,
        load in 0.3f64..1.5,
        kind in 0u8..3,
    ) {
        let a = run_world(seed, rate, 32, load, kind, 3);
        let b = run_world(seed, rate, 32, load, kind, 3);
        prop_assert_eq!(a, b);
    }
}
