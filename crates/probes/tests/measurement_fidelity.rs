//! Cross-tool integration tests: the measurement tools observing the
//! same simulated world must agree with its ground truth and with each
//! other — the premise of using them as FB-predictor inputs.

use tputpred_netsim::link::LinkConfig;
use tputpred_netsim::sources::{PoissonSource, Reflector, Sink, SourceConfig};
use tputpred_netsim::{LinkId, RateSchedule, Route, Simulator, Time};
use tputpred_probes::ping::PingProber;
use tputpred_probes::{BulkTransfer, Pathload, PathloadConfig};
use tputpred_tcp::TcpConfig;

struct World {
    sim: Simulator,
    fwd: LinkId,
    rev: LinkId,
    refl: tputpred_netsim::EndpointId,
}

fn world(seed: u64, capacity: f64, cross: f64, buffer: u32) -> World {
    let mut sim = Simulator::new(seed);
    let fwd = sim.add_link(LinkConfig::new(capacity, Time::from_millis(25), buffer));
    let rev = sim.add_link(LinkConfig::new(1e9, Time::from_millis(25), 1000));
    if cross > 0.0 {
        let (sink, _) = Sink::new();
        let sink_id = sim.add_endpoint(Box::new(sink));
        let src = PoissonSource::new(SourceConfig {
            route: Route::direct(fwd),
            dst: sink_id,
            packet_size: 1000,
            base_rate_bps: cross,
            schedule: RateSchedule::constant(1.0),
            stop: Time::MAX,
        });
        sim.add_source(src, Time::ZERO);
    }
    let reflector = Reflector::new(Route::direct(rev));
    let refl = sim.add_endpoint(Box::new(reflector));
    World {
        sim,
        fwd,
        rev,
        refl,
    }
}

#[test]
fn ping_rtt_tracks_ground_truth_queueing() {
    // 60%-loaded 10 Mbps link: ping's mean RTT must equal base RTT plus
    // the link's measured mean queueing delay (within serialization
    // slack).
    let mut w = world(1, 10e6, 6e6, 60);
    let (prober, stats) = PingProber::new(
        Route::direct(w.fwd),
        w.refl,
        Time::from_millis(100),
        Time::from_secs(60),
    );
    let id = w.sim.add_endpoint(Box::new(prober));
    w.sim.schedule_timer(id, 0, Time::ZERO);
    w.sim.run_until(Time::from_secs(65));
    let summary = stats.borrow().summarize(Time::ZERO, Time::from_secs(60));
    let mean_queue = w.sim.link(w.fwd).stats().queue_delay.mean();
    let base = 0.050;
    let expected = base + mean_queue;
    assert!(
        (summary.rtt - expected).abs() < 0.004,
        "ping RTT {:.4} vs base+queue {:.4}",
        summary.rtt,
        expected
    );
}

#[test]
fn pathload_and_transfer_agree_on_a_quiet_path() {
    // On a lightly loaded path with ample buffer, the avail-bw estimate
    // and the achieved bulk-transfer throughput should be within ~40% of
    // each other (the regime where FB's avail-bw branch works).
    let mut w = world(2, 10e6, 2e6, 80);
    let handle = Pathload::deploy(
        &mut w.sim,
        PathloadConfig::default(),
        Route::direct(w.fwd),
        Time::ZERO,
    );
    w.sim.run_until(Time::from_secs(20));
    let a_hat = handle.borrow().best_guess().expect("estimate");
    let transfer = BulkTransfer::launch(
        &mut w.sim,
        TcpConfig::default(),
        Route::direct(w.fwd),
        Route::direct(w.rev),
        Time::from_secs(20),
        Time::from_secs(50),
    );
    w.sim.run_until(Time::from_secs(50));
    let r = transfer.throughput();
    let ratio = a_hat / r;
    assert!(
        (0.7..1.8).contains(&ratio),
        "A^ = {:.2} Mbps vs R = {:.2} Mbps",
        a_hat / 1e6,
        r / 1e6
    );
}

#[test]
fn ping_sees_the_transfers_load_increase() {
    // §3.2's mechanism, observed through the tools alone: the during-
    // transfer ping RTT must exceed the pre-transfer ping RTT when a
    // saturating flow shares the queue.
    let mut w = world(3, 10e6, 3e6, 60);
    let (prober, stats) = PingProber::new(
        Route::direct(w.fwd),
        w.refl,
        Time::from_millis(100),
        Time::from_secs(120),
    );
    let id = w.sim.add_endpoint(Box::new(prober));
    w.sim.schedule_timer(id, 0, Time::ZERO);
    let transfer_start = Time::from_secs(30);
    let transfer_end = Time::from_secs(60);
    let _transfer = BulkTransfer::launch(
        &mut w.sim,
        TcpConfig::default(),
        Route::direct(w.fwd),
        Route::direct(w.rev),
        transfer_start,
        transfer_end,
    );
    w.sim.run_until(Time::from_secs(70));
    let ping = stats.borrow();
    let before = ping.summarize(Time::ZERO, transfer_start - Time::from_secs(1));
    let during = ping.summarize(transfer_start, transfer_end - Time::from_secs(1));
    assert!(
        during.rtt > before.rtt + 0.002,
        "T~ {:.4} should exceed T^ {:.4} while the flow fills the queue",
        during.rtt,
        before.rtt
    );
}

#[test]
fn concurrent_tools_do_not_deadlock_or_interfere_fatally() {
    // Everything at once, as in a real epoch: pathload, ping, and two
    // transfers back to back — the full Fig. 1 timeline compressed.
    let mut w = world(4, 10e6, 4e6, 60);
    let (prober, ping) = PingProber::new(
        Route::direct(w.fwd),
        w.refl,
        Time::from_millis(100),
        Time::from_secs(90),
    );
    let id = w.sim.add_endpoint(Box::new(prober));
    w.sim.schedule_timer(id, 0, Time::ZERO);
    let pathload = Pathload::deploy(
        &mut w.sim,
        PathloadConfig::default(),
        Route::direct(w.fwd),
        Time::ZERO,
    );
    let t1 = BulkTransfer::launch(
        &mut w.sim,
        TcpConfig::default(),
        Route::direct(w.fwd),
        Route::direct(w.rev),
        Time::from_secs(30),
        Time::from_secs(50),
    );
    let t2 = BulkTransfer::launch(
        &mut w.sim,
        TcpConfig {
            max_window: 20 * 1024,
            ..TcpConfig::default()
        },
        Route::direct(w.fwd),
        Route::direct(w.rev),
        Time::from_secs(55),
        Time::from_secs(75),
    );
    w.sim.run_until(Time::from_secs(90));
    assert!(pathload.borrow().done);
    assert!(t1.throughput() > 0.0);
    assert!(t2.throughput() > 0.0);
    let s = ping.borrow().summarize(Time::ZERO, Time::from_secs(85));
    assert!(s.sent > 800, "ping kept running throughout: {}", s.sent);
}
