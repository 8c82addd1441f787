//! Quickstart: predict a bulk TCP transfer's throughput two ways, then
//! check both predictions against a simulated transfer.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Walks through the paper's whole pipeline on one path:
//!
//! 1. build a simulated network path with cross traffic;
//! 2. measure it the non-intrusive way (ping → T̂, p̂; pathload → Â);
//! 3. make a Formula-Based prediction (Eq. 3);
//! 4. run the actual 1 MB-window bulk transfer and compare;
//! 5. repeat a few epochs, feeding a History-Based predictor
//!    (Holt-Winters + LSO) and watch it beat the formula.

use tcp_throughput_predictability::core::fb::{FbConfig, FbPredictor, PathEstimates};
use tcp_throughput_predictability::core::hb::{HoltWinters, Predictor};
use tcp_throughput_predictability::core::lso::Lso;
use tcp_throughput_predictability::core::metrics::relative_error_floored;
use tcp_throughput_predictability::netsim::link::LinkConfig;
use tcp_throughput_predictability::netsim::sources::{
    PoissonSource, Reflector, Sink, SourceConfig,
};
use tcp_throughput_predictability::netsim::{RateSchedule, Route, Simulator, Time};
use tcp_throughput_predictability::probes::ping::PingProber;
use tcp_throughput_predictability::probes::{BulkTransfer, Pathload, PathloadConfig};
use tcp_throughput_predictability::tcp::TcpConfig;

fn main() {
    // ── 1. A 10 Mbps path, 60 ms RTT, carrying 4 Mbps of Poisson load ──
    let mut sim = Simulator::new(7);
    let fwd = sim.add_link(LinkConfig::new(10e6, Time::from_millis(30), 40));
    let rev = sim.add_link(LinkConfig::new(1e9, Time::from_millis(30), 1000));
    let (sink, _) = Sink::new();
    let sink_id = sim.add_endpoint(Box::new(sink));
    let cross = PoissonSource::new(SourceConfig {
        route: Route::direct(fwd),
        dst: sink_id,
        packet_size: 1000,
        base_rate_bps: 4e6,
        schedule: RateSchedule::constant(1.0),
        stop: Time::MAX,
    });
    sim.add_source(cross, Time::ZERO);

    // ── 2. Non-intrusive measurements ─────────────────────────────────
    let reflector = Reflector::new(Route::direct(rev));
    let refl_id = sim.add_endpoint(Box::new(reflector));
    let (prober, ping) = PingProber::new(
        Route::direct(fwd),
        refl_id,
        Time::from_millis(100),
        Time::MAX,
    );
    let prober_id = sim.add_endpoint(Box::new(prober));
    sim.schedule_timer(prober_id, 0, Time::ZERO);

    let pathload = Pathload::deploy(
        &mut sim,
        PathloadConfig::default(),
        Route::direct(fwd),
        Time::ZERO,
    );
    sim.run_until(Time::from_secs(30));
    let a_hat = pathload.borrow().best_guess().expect("avail-bw estimate");
    let pre = ping
        .borrow()
        .summarize(Time::from_secs(15), Time::from_secs(29));
    println!(
        "measured a priori:  T^ = {:.1} ms, p^ = {:.4}, A^ = {:.2} Mbps",
        pre.rtt * 1e3,
        pre.loss_rate,
        a_hat / 1e6
    );

    // ── 3. The Formula-Based prediction (Eq. 3) ────────────────────────
    let fb = FbPredictor::new(FbConfig::default());
    let est = PathEstimates {
        rtt: pre.rtt,
        loss_rate: pre.loss_rate,
        avail_bw: a_hat,
    };
    let fb_prediction = fb.predict(&est);
    println!("FB prediction:      R^ = {:.2} Mbps", fb_prediction / 1e6);

    // ── 4 & 5. Repeated transfers: score FB, train HB ─────────────────
    let mut hb = Lso::new(HoltWinters::new(0.8, 0.2));
    println!("\nepoch  actual_mbps  fb_error_E  hb_error_E");
    let mut t = Time::from_secs(30);
    for epoch in 0..8 {
        let start = t;
        let stop = start + Time::from_secs(20);
        let transfer = BulkTransfer::launch(
            &mut sim,
            TcpConfig::default(),
            Route::direct(fwd),
            Route::direct(rev),
            start,
            stop,
        );
        sim.run_until(stop + Time::from_secs(3));
        let actual = transfer.throughput();
        let fb_e = relative_error_floored(fb_prediction, actual);
        let hb_e = hb.forecast().map(|p| relative_error_floored(p, actual));
        println!(
            "{epoch:>5}  {:>11.2}  {:>10.2}  {}",
            actual / 1e6,
            fb_e,
            hb_e.map_or("    (no history)".into(), |e| format!("{e:>10.2}")),
        );
        hb.update(actual);
        t = stop + Time::from_secs(5);
    }
    println!("\nWith a few epochs of history the HB error settles well under the FB error —");
    println!("the paper's central comparison (Section 6.1.2), on your laptop.");
}
