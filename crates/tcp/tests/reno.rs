//! End-to-end TCP Reno behaviour over the simulator: the protocol
//! properties the paper's throughput models assume.

use tputpred_netsim::link::LinkConfig;
use tputpred_netsim::sources::{CbrSource, Sink, SourceConfig};
use tputpred_netsim::{LinkId, RateSchedule, Route, Simulator, Time};
use tputpred_tcp::{connect, FlowHandle, FlowStats, TcpConfig};

/// A dumbbell path: a forward bottleneck and a fast, uncongested reverse
/// link for ACKs.
struct Path {
    sim: Simulator,
    fwd: LinkId,
    rev: LinkId,
}

fn dumbbell(rate_bps: f64, one_way: Time, buffer_packets: u32, seed: u64) -> Path {
    let mut sim = Simulator::new(seed);
    let fwd = sim.add_link(LinkConfig::new(rate_bps, one_way, buffer_packets));
    let rev = sim.add_link(LinkConfig::new(1e9, one_way, 1000));
    Path { sim, fwd, rev }
}

fn bulk_flow(path: &mut Path, config: TcpConfig, start: Time, stop: Time) -> FlowHandle {
    let (_, _, stats) = connect(
        &mut path.sim,
        config,
        Route::direct(path.fwd),
        Route::direct(path.rev),
        start,
        stop,
    );
    stats
}

fn throughput_of(stats: &FlowHandle, duration: Time) -> f64 {
    FlowStats::throughput_bps(stats.borrow().bytes_delivered, duration)
}

#[test]
fn lossless_flow_fills_the_pipe() {
    // 10 Mbps, 40 ms RTT, one-BDP buffer: steady state should run near
    // link capacity.
    let rtt = Time::from_millis(40);
    let bdp = LinkConfig::bdp_packets(10e6, rtt, 1500); // ≈33 packets
    let mut path = dumbbell(10e6, Time::from_millis(20), bdp, 1);
    let stop = Time::from_secs(30);
    let stats = bulk_flow(&mut path, TcpConfig::default(), Time::ZERO, stop);
    path.sim.run_until(stop);
    let tput = throughput_of(&stats, stop);
    assert!(
        tput > 8e6 && tput <= 10e6,
        "expected near-capacity, got {:.2} Mbps",
        tput / 1e6
    );
}

#[test]
fn window_limited_flow_runs_at_w_over_t() {
    // W = 20 kB, RTT = 100 ms → W/T = 1.6 Mbps on a 10 Mbps link.
    let config = TcpConfig {
        max_window: 20 * 1024,
        ..TcpConfig::default()
    };
    let mut path = dumbbell(10e6, Time::from_millis(50), 700, 2);
    let stop = Time::from_secs(30);
    let stats = bulk_flow(&mut path, config, Time::ZERO, stop);
    path.sim.run_until(stop);
    let tput = throughput_of(&stats, stop);
    let w_over_t = 8.0 * 20.0 * 1024.0 / 0.100;
    assert!(
        (tput / w_over_t - 1.0).abs() < 0.2,
        "expected ≈{:.2} Mbps, got {:.2} Mbps",
        w_over_t / 1e6,
        tput / 1e6
    );
    // A window-limited flow on a big-buffer path should see no losses.
    assert_eq!(stats.borrow().timeouts, 0);
    assert_eq!(stats.borrow().fast_retransmits, 0);
}

#[test]
fn droptail_losses_are_recovered_with_fast_retransmit() {
    // A shallow buffer (quarter BDP) forces periodic droptail losses.
    let rtt = Time::from_millis(80);
    let bdp = LinkConfig::bdp_packets(10e6, rtt, 1500);
    let mut path = dumbbell(10e6, Time::from_millis(40), (bdp / 4).max(2), 3);
    let stop = Time::from_secs(30);
    let stats = bulk_flow(&mut path, TcpConfig::default(), Time::ZERO, stop);
    path.sim.run_until(stop);
    let s = stats.borrow();
    assert!(s.fast_retransmits > 0, "sawtooth must shed packets");
    assert!(s.retransmits > 0);
    // Despite losses the flow keeps most of the pipe full.
    let tput = FlowStats::throughput_bps(s.bytes_delivered, stop);
    assert!(
        tput > 4e6,
        "shallow-buffer flow still progresses: {:.2} Mbps",
        tput / 1e6
    );
    // Fast retransmit, not timeout, should dominate recovery.
    assert!(
        s.timeouts <= s.fast_retransmits,
        "timeouts {} vs fast retransmits {}",
        s.timeouts,
        s.fast_retransmits
    );
}

#[test]
fn rtt_samples_track_the_path_rtt() {
    let mut path = dumbbell(10e6, Time::from_millis(30), 700, 4);
    let stop = Time::from_secs(10);
    let config = TcpConfig {
        max_window: 16 * 1024, // keep queueing negligible
        ..TcpConfig::default()
    };
    let stats = bulk_flow(&mut path, config, Time::ZERO, stop);
    path.sim.run_until(stop);
    let s = stats.borrow();
    assert!(s.rtt.count() > 10, "enough RTT samples: {}", s.rtt.count());
    let mean = s.rtt.mean();
    assert!(
        (0.060..0.075).contains(&mean),
        "RTT ≈ 60 ms + serialization, got {:.1} ms",
        mean * 1e3
    );
    assert!(s.rtt.min() >= 0.060, "never below propagation");
}

#[test]
fn two_flows_share_the_bottleneck_roughly_fairly() {
    let rtt = Time::from_millis(40);
    let bdp = LinkConfig::bdp_packets(10e6, rtt, 1500);
    let mut path = dumbbell(10e6, Time::from_millis(20), bdp, 5);
    let stop = Time::from_secs(60);
    let a = bulk_flow(&mut path, TcpConfig::default(), Time::ZERO, stop);
    let b = bulk_flow(&mut path, TcpConfig::default(), Time::ZERO, stop);
    path.sim.run_until(stop);
    let ta = throughput_of(&a, stop);
    let tb = throughput_of(&b, stop);
    let total = ta + tb;
    assert!(
        total > 8e6,
        "together they fill the pipe: {:.2} Mbps",
        total / 1e6
    );
    let share = ta / total;
    assert!(
        (0.25..0.75).contains(&share),
        "rough fairness, flow A got {:.0}%",
        share * 100.0
    );
}

#[test]
fn tcp_yields_to_cbr_cross_traffic() {
    // CBR takes 60% of a 10 Mbps link; TCP should settle near the rest.
    let rtt = Time::from_millis(40);
    let bdp = LinkConfig::bdp_packets(10e6, rtt, 1500);
    let mut path = dumbbell(10e6, Time::from_millis(20), bdp, 6);
    let (sink, _rx) = Sink::new();
    let sink_id = path.sim.add_endpoint(Box::new(sink));
    let cbr = CbrSource::new(SourceConfig {
        route: Route::direct(path.fwd),
        dst: sink_id,
        packet_size: 1500,
        base_rate_bps: 6e6,
        schedule: RateSchedule::constant(1.0),
        stop: Time::MAX,
    });
    path.sim.add_source(cbr, Time::ZERO);
    let stop = Time::from_secs(60);
    let stats = bulk_flow(&mut path, TcpConfig::default(), Time::ZERO, stop);
    path.sim.run_until(stop);
    let tput = throughput_of(&stats, stop);
    assert!(
        tput > 1.5e6 && tput < 5.5e6,
        "TCP gets roughly the residual 4 Mbps, got {:.2} Mbps",
        tput / 1e6
    );
}

#[test]
fn flow_survives_a_total_blackout_via_timeout() {
    // Cross traffic saturates the link completely for 3 s: the flow must
    // take a retransmission timeout and then recover.
    let mut path = dumbbell(10e6, Time::from_millis(20), 33, 7);
    let (sink, _rx) = Sink::new();
    let sink_id = path.sim.add_endpoint(Box::new(sink));
    let schedule =
        RateSchedule::constant(0.0).with_burst(Time::from_secs(5), Time::from_secs(8), 1.0);
    let cbr = CbrSource::new(SourceConfig {
        route: Route::direct(path.fwd),
        dst: sink_id,
        packet_size: 1500,
        base_rate_bps: 40e6, // 4× the link: starves everything while on
        schedule,
        stop: Time::MAX,
    });
    path.sim.add_source(cbr, Time::ZERO);
    let stop = Time::from_secs(30);
    let stats = bulk_flow(&mut path, TcpConfig::default(), Time::ZERO, stop);
    path.sim.run_until(stop);
    let s = stats.borrow();
    assert!(s.timeouts > 0, "blackout must cause an RTO");
    let tput = FlowStats::throughput_bps(s.bytes_delivered, stop);
    assert!(
        tput > 3e6,
        "recovers after the blackout: {:.2} Mbps",
        tput / 1e6
    );
}

#[test]
fn sender_stops_and_drains_at_stop_time() {
    let mut path = dumbbell(10e6, Time::from_millis(20), 700, 8);
    let stop = Time::from_secs(5);
    let stats = bulk_flow(&mut path, TcpConfig::default(), Time::ZERO, stop);
    path.sim.run_until(Time::from_secs(10));
    let delivered_at_10 = stats.borrow().bytes_delivered;
    assert!(stats.borrow().finished, "flight drained after stop");
    path.sim.run_until(Time::from_secs(20));
    assert_eq!(
        stats.borrow().bytes_delivered,
        delivered_at_10,
        "nothing transmitted after the drain"
    );
}

#[test]
fn delayed_flow_start_is_respected() {
    let mut path = dumbbell(10e6, Time::from_millis(20), 700, 9);
    let start = Time::from_secs(10);
    let stats = bulk_flow(&mut path, TcpConfig::default(), start, Time::from_secs(20));
    path.sim.run_until(Time::from_secs(9));
    assert_eq!(stats.borrow().bytes_delivered, 0);
    assert_eq!(stats.borrow().segments_sent, 0);
    path.sim.run_until(Time::from_secs(20));
    assert!(stats.borrow().bytes_delivered > 0);
}

#[test]
fn simulation_is_deterministic() {
    let run = || {
        let mut path = dumbbell(10e6, Time::from_millis(20), 17, 42);
        let stop = Time::from_secs(20);
        let stats = bulk_flow(&mut path, TcpConfig::default(), Time::ZERO, stop);
        path.sim.run_until(stop);
        let s = stats.borrow();
        (
            s.bytes_delivered,
            s.segments_sent,
            s.retransmits,
            s.timeouts,
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn goodput_never_exceeds_sent_bytes() {
    let mut path = dumbbell(5e6, Time::from_millis(30), 13, 10);
    let stop = Time::from_secs(20);
    let stats = bulk_flow(&mut path, TcpConfig::default(), Time::ZERO, stop);
    path.sim.run_until(stop);
    let s = stats.borrow();
    assert!(s.bytes_delivered <= s.segments_sent * 1448);
    assert!(s.retransmits <= s.segments_sent);
}

#[test]
fn slower_link_means_proportionally_less_throughput() {
    let measure = |rate: f64| {
        let rtt = Time::from_millis(40);
        let bdp = LinkConfig::bdp_packets(rate, rtt, 1500);
        let mut path = dumbbell(rate, Time::from_millis(20), bdp.max(7), 11);
        let stop = Time::from_secs(30);
        let stats = bulk_flow(&mut path, TcpConfig::default(), Time::ZERO, stop);
        path.sim.run_until(stop);
        throughput_of(&stats, stop)
    };
    let slow = measure(2e6);
    let fast = measure(8e6);
    let ratio = fast / slow;
    assert!(
        (2.5..5.5).contains(&ratio),
        "4× capacity ≈ 4× throughput, got {ratio:.2}"
    );
}

#[test]
fn sized_transfer_delivers_exactly_its_budget_and_records_finish_time() {
    let mut path = dumbbell(10e6, Time::from_millis(20), 40, 21);
    let bytes = 64 * 1024u64;
    let (_, _, stats) = tputpred_tcp::connect_sized(
        &mut path.sim,
        TcpConfig::default(),
        Route::direct(path.fwd),
        Route::direct(path.rev),
        Time::ZERO,
        Time::from_secs(30),
        bytes,
    );
    path.sim.run_until(Time::from_secs(30));
    let s = stats.borrow();
    assert!(s.finished, "64 kB on an idle 10 Mbps path finishes fast");
    // Delivery counts whole segments: the budget rounds down to the MSS
    // grid (the sender never emits partial segments).
    let expected = (bytes / 1448) * 1448;
    assert_eq!(s.bytes_delivered, expected);
    let finished_at = s.finished_at.expect("finish time recorded");
    // Lower bound: ~45 segments through slow start at 40 ms RTT takes at
    // least a few RTTs; upper bound: must be well under a second.
    assert!(finished_at > Time::from_millis(80));
    assert!(
        finished_at < Time::from_secs(1),
        "finished at {finished_at}"
    );
}

#[test]
fn small_probe_underestimates_bulk_throughput() {
    // The NWS-critique mechanism (paper §2): a 64 kB probe lives entirely
    // in slow start, so its average throughput is far below what a bulk
    // transfer achieves on the same idle path.
    let mut path = dumbbell(20e6, Time::from_millis(30), 100, 22);
    let probe_cfg = TcpConfig {
        max_window: 32 * 1024, // NWS's socket buffer
        ..TcpConfig::default()
    };
    let (_, _, probe) = tputpred_tcp::connect_sized(
        &mut path.sim,
        probe_cfg,
        Route::direct(path.fwd),
        Route::direct(path.rev),
        Time::ZERO,
        Time::from_secs(10),
        64 * 1024,
    );
    path.sim.run_until(Time::from_secs(10));
    let probe_tput = {
        let s = probe.borrow();
        let t = s.finished_at.expect("probe finishes");
        s.bytes_delivered as f64 * 8.0 / t.as_secs_f64()
    };
    let stop = Time::from_secs(40);
    let bulk = bulk_flow(&mut path, TcpConfig::default(), Time::from_secs(10), stop);
    path.sim.run_until(stop);
    let bulk_tput = FlowStats::throughput_bps(bulk.borrow().bytes_delivered, Time::from_secs(30));
    assert!(
        probe_tput < bulk_tput / 2.0,
        "probe {:.2} Mbps vs bulk {:.2} Mbps",
        probe_tput / 1e6,
        bulk_tput / 1e6
    );
}

#[test]
fn newreno_repairs_multi_loss_windows_with_fewer_timeouts() {
    // A controlled multi-loss event: a 150 ms cross-traffic blast at 3x
    // the link rate drops a burst of segments out of one congestion
    // window. Reno exits fast recovery on the first partial ACK and must
    // usually wait out a retransmission timeout for the remaining holes;
    // NewReno repairs one hole per RTT and avoids most timeouts.
    use tputpred_netsim::sources::{CbrSource, Sink, SourceConfig};
    use tputpred_tcp::TcpFlavor;

    let run = |flavor: TcpFlavor| {
        let mut path = dumbbell(10e6, Time::from_millis(30), 30, 34);
        let (sink, _) = Sink::new();
        let sink_id = path.sim.add_endpoint(Box::new(sink));
        // Three short blasts, well separated.
        let schedule = RateSchedule::constant(0.0)
            .with_burst(Time::from_secs(5), Time::from_secs_f64(5.15), 1.0)
            .with_burst(Time::from_secs(12), Time::from_secs_f64(12.15), 1.0)
            .with_burst(Time::from_secs(19), Time::from_secs_f64(19.15), 1.0);
        let src = CbrSource::new(SourceConfig {
            route: Route::direct(path.fwd),
            dst: sink_id,
            packet_size: 1000,
            base_rate_bps: 30e6,
            schedule,
            stop: Time::MAX,
        });
        path.sim.add_source(src, Time::ZERO);
        let stop = Time::from_secs(26);
        let config = TcpConfig {
            flavor,
            ..TcpConfig::default()
        };
        let stats = bulk_flow(&mut path, config, Time::ZERO, stop);
        path.sim.run_until(stop);
        let s = stats.borrow();
        (s.timeouts, s.fast_retransmits, s.bytes_delivered)
    };
    let (reno_to, _, _) = run(TcpFlavor::Reno);
    let (nr_to, nr_fr, _) = run(TcpFlavor::NewReno);
    assert!(nr_fr > 0, "NewReno still uses fast retransmit");
    assert!(
        nr_to < reno_to,
        "NewReno repairs multi-loss windows without timing out: {nr_to} vs {reno_to}"
    );
}
