//! Oracle tests: the simulator against closed-form queueing results.
//!
//! The other suites check that the simulator is self-consistent (replay
//! gives identical bits, elision changes nothing observable); these
//! check that it is *right*. The paper's FB error analysis (§3.2–§3.4)
//! rests on what the bottleneck queue does under cross traffic, and
//! queueing delay is the quantity \[arXiv:0907.3710\] ties to
//! throughput, so the oracles are a single droptail link fed by one
//! open-loop source whose queue has a textbook answer:
//!
//! * Poisson arrivals of fixed-size packets make the link an M/D/1
//!   queue, whose mean wait is Pollaczek–Khinchine's
//!   `Wq = ρS / (2(1 − ρ))` for service time `S` and load `ρ`;
//! * constant-bit-rate arrivals below capacity never queue, so the
//!   serializer is busy for exactly `packets × S`.
//!
//! Every sink's handle is dropped, so each arrival goes through the
//! engine's elided-arrival path (DESIGN.md §14, "Unobserved
//! deliveries"): the oracles hold with it, and the tests assert that
//! every arrival took it.

use tputpred_netsim::link::LinkConfig;
use tputpred_netsim::sources::{CbrSource, PoissonSource, Sink, SourceConfig, TxHandle};
use tputpred_netsim::{Endpoint, LinkStats, RateSchedule, Route, Simulator, Time};

/// Bottleneck rate, bits/s.
const RATE_BPS: f64 = 10e6;
/// Wire size of every packet, bytes.
const PACKET_BYTES: u32 = 1000;
/// Serialization (service) time of one packet at `RATE_BPS`: 0.8 ms.
const SERVICE_S: f64 = PACKET_BYTES as f64 * 8.0 / RATE_BPS;

/// What one run leaves behind.
struct Run {
    stats: LinkStats,
    sent: u64,
    elided: u64,
}

/// Runs one open-loop source at `load × RATE_BPS` over a single link
/// (10 ms propagation, `buffer` packets) into a sink nobody observes,
/// from time zero until the source stops at `stop` and the network
/// drains.
fn run(
    seed: u64,
    load: f64,
    buffer: u32,
    stop: Time,
    source: fn(SourceConfig) -> (Box<dyn Endpoint>, TxHandle),
) -> Run {
    let mut sim = Simulator::new(seed);
    let link = sim.add_link(LinkConfig::new(RATE_BPS, Time::from_millis(10), buffer));
    let (sink, _) = Sink::new();
    let dst = sim.add_endpoint(Box::new(sink));
    let (src, sent) = source(SourceConfig {
        route: Route::direct(link),
        dst,
        packet_size: PACKET_BYTES,
        base_rate_bps: load * RATE_BPS,
        schedule: RateSchedule::constant(1.0),
        stop,
    });
    let src = sim.add_endpoint(src);
    sim.schedule_timer(src, 0, Time::ZERO);
    sim.run_to_quiescence();
    let sent = sent.borrow().packets;
    Run {
        stats: *sim.link(link).stats(),
        sent,
        elided: sim.counters().elided_arrivals,
    }
}

fn poisson(cfg: SourceConfig) -> (Box<dyn Endpoint>, TxHandle) {
    let (src, sent) = PoissonSource::new(cfg);
    (Box::new(src), sent)
}

fn cbr(cfg: SourceConfig) -> (Box<dyn Endpoint>, TxHandle) {
    let (src, sent) = CbrSource::new(cfg);
    (Box::new(src), sent)
}

/// M/D/1: the link's mean queueing delay matches Pollaczek–Khinchine.
///
/// Tolerance: ±5 % of `Wq`. The estimate is a 200 s time average whose
/// error is dominated by the queue's slow busy-period cycles, widest at
/// ρ = 0.8 (relaxation time ~S/(1 − ρ)² = 20 ms, so ~10⁴ independent
/// stretches). Over the 18 runs below `Wq / PK` measured 0.972–1.032
/// (ρ = 0.8 widest; ρ = 0.5 within ±1.6 %), so ±5 % leaves headroom for
/// that spread while still failing a link that serializes 2 % fast
/// (`Wq / PK` = 0.946 at ρ = 0.3) or a source whose gaps are uniform
/// instead of exponential with the same mean (0.441). Utilization is
/// checked within ±2 % of ρ: the Poisson packet count over 200 s has a
/// relative spread of 1/√(ρ · 250 000) ≤ 0.37 %, so ±2 % is over five
/// standard deviations (measured: within 0.51 %). The runs are seeded,
/// so the test cannot flake.
#[test]
fn poisson_queueing_delay_matches_pollaczek_khinchine() {
    const TOLERANCE: f64 = 0.05;
    let stop = Time::from_secs(200);
    for rho in [0.3, 0.5, 0.8] {
        let pk_s = rho * SERVICE_S / (2.0 * (1.0 - rho));
        for seed in 1..=6 {
            let r = run(seed, rho, 100_000, stop, poisson);
            let what = format!("rho={rho} seed={seed}");
            assert_eq!(r.stats.drops, 0, "{what}: drops");
            assert_eq!(r.stats.packets_out, r.sent, "{what}: every packet served");
            assert_eq!(r.elided, r.sent, "{what}: every arrival elided");
            assert_eq!(r.stats.queue_delay.count(), r.sent, "{what}: one wait each");
            let ratio = r.stats.queue_delay.mean() / pk_s;
            assert!(
                (ratio - 1.0).abs() <= TOLERANCE,
                "{what}: Wq/PK = {ratio:.4} (Wq {:.4} ms, PK {:.4} ms)",
                r.stats.queue_delay.mean() * 1e3,
                pk_s * 1e3,
            );
            let utilization = r.stats.utilization(stop);
            assert!(
                (utilization / rho - 1.0).abs() <= 0.02,
                "{what}: utilization {utilization:.4}"
            );
        }
    }
}

/// CBR at 4 Mb/s into 10 Mb/s: a packet every 2 ms, each served in
/// 0.8 ms, so none ever waits. Exact: the serializer is busy for
/// `packets_out × S`, which over 100 s is 40 % of the time, and every
/// recorded queueing delay is zero.
#[test]
fn cbr_below_capacity_never_queues_and_utilization_is_exact() {
    let stop = Time::from_secs(100);
    let r = run(7, 0.4, 16, stop, cbr);
    let service = Time::tx_time(PACKET_BYTES, RATE_BPS);
    assert_eq!(service, Time::from_micros(800));
    assert_eq!(r.sent, 50_000, "one packet every 2 ms for 100 s");
    assert_eq!(r.stats.packets_out, r.sent);
    assert_eq!(r.stats.drops, 0);
    assert_eq!(r.elided, r.sent, "every arrival elided");
    assert_eq!(
        r.stats.busy.as_nanos(),
        r.stats.packets_out * service.as_nanos()
    );
    assert!((r.stats.utilization(stop) - 0.4).abs() < 1e-12);
    assert_eq!(r.stats.queue_delay.count(), r.sent);
    assert!(r.stats.queue_delay.max() <= 0.0, "a packet waited");
    assert!(r.stats.queue_delay.mean().abs() < 1e-15);
}
