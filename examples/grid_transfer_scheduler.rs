//! Deadline-bound grid data transfer — the §4.2.8 application: "for
//! applications that care more for throughput predictability than
//! throughput maximization, perform transfers with a limited advertised
//! window."
//!
//! ```text
//! cargo run --release --example grid_transfer_scheduler
//! ```
//!
//! A grid job must ship a dataset to a compute site before a deadline.
//! The scheduler can open the socket with a saturating 1 MB window
//! (fast but erratic) or cap it at a window sized so `W/RTT` matches the
//! required rate with margin (window-limited: slower but steady).
//!
//! This example measures both strategies over many epochs on the same
//! loaded path and reports each one's throughput variability and the
//! fraction of simulated deadlines met, reproducing the paper's
//! window-limited predictability claim as an end-to-end decision.

use tcp_throughput_predictability::core::metrics::relative_error_floored;
use tcp_throughput_predictability::core::rmsre;
use tcp_throughput_predictability::netsim::link::LinkConfig;
use tcp_throughput_predictability::netsim::sources::{
    ParetoOnOffSource, PoissonSource, Sink, SourceConfig,
};
use tcp_throughput_predictability::netsim::{RateSchedule, Route, Simulator, Time};
use tcp_throughput_predictability::probes::BulkTransfer;
use tcp_throughput_predictability::stats::Summary;
use tcp_throughput_predictability::tcp::TcpConfig;

fn main() {
    // One 20 Mbps path, 60 ms RTT, with bursty cross traffic at ~40%
    // (surging to ~80% mid-experiment).
    let mut sim = Simulator::new(5);
    let fwd = sim.add_link(LinkConfig::new(20e6, Time::from_millis(30), 100));
    let rev = sim.add_link(LinkConfig::new(1e9, Time::from_millis(30), 1000));
    let (sink, _) = Sink::new();
    let sink_id = sim.add_endpoint(Box::new(sink));
    let src = ParetoOnOffSource::new(
        SourceConfig {
            route: Route::direct(fwd),
            dst: sink_id,
            packet_size: 1000,
            base_rate_bps: 8e6,
            schedule: RateSchedule::constant(1.0),
            stop: Time::MAX,
        },
        0.6, // duty: burst peaks stay below link capacity
        1.6,
        0.4,
    );
    sim.add_source(src, Time::ZERO);
    // Mid-experiment load surge: an extra smooth 5 Mbps appears for a few
    // minutes. The avail-bw drops to ~7 Mbps — still above the
    // window-limited rate, but the saturating strategy's share swings.
    let surge = PoissonSource::new(SourceConfig {
        route: Route::direct(fwd),
        dst: sink_id,
        packet_size: 1000,
        base_rate_bps: 5e6,
        schedule: RateSchedule::constant(0.0).with_burst(
            Time::from_secs(400),
            Time::from_secs(700),
            1.0,
        ),
        stop: Time::MAX,
    });
    sim.add_source(surge, Time::ZERO);

    // The job: 6 MB every minute, i.e. a sustained ≥ 2.4 Mbps during a
    // 20-second transfer window.
    let required_bps = 2.4e6;
    let rtt = 0.060;
    // Window-limited strategy: W sized for 1.4× the required rate.
    let w_limited = ((required_bps * 1.4) * rtt / 8.0) as u32; // bytes
    println!(
        "required rate {:.1} Mbps; window-limited W = {} kB (W/RTT = {:.1} Mbps)\n",
        required_bps / 1e6,
        w_limited / 1024,
        8.0 * w_limited as f64 / rtt / 1e6
    );

    let mut saturating = Vec::new();
    let mut limited = Vec::new();
    let mut t = Time::from_secs(5);
    for _ in 0..25 {
        for (w, out) in [(1u32 << 20, &mut saturating), (w_limited, &mut limited)] {
            let start = t;
            let stop = start + Time::from_secs(20);
            let transfer = BulkTransfer::launch(
                &mut sim,
                TcpConfig {
                    max_window: w,
                    ..TcpConfig::default()
                },
                Route::direct(fwd),
                Route::direct(rev),
                start,
                stop,
            );
            sim.run_until(stop + Time::from_secs(2));
            out.push(transfer.throughput());
            t = sim.now() + Time::from_secs(1);
        }
    }

    println!("strategy        mean_mbps  cov    deadline_met  rmsre_vs_mean");
    for (name, rates) in [
        ("saturating-1MB", &saturating),
        ("window-limited", &limited),
    ] {
        let s = Summary::from_samples(rates.iter().copied());
        let met = rates.iter().filter(|&&r| r >= required_bps).count();
        // Predictability: how well does the running mean predict each
        // next transfer? (1-step errors vs the previous mean.)
        let mut errors = Vec::new();
        let mut mean_so_far = None::<f64>;
        for (i, &r) in rates.iter().enumerate() {
            if let Some(m) = mean_so_far {
                errors.push(relative_error_floored(m, r));
            }
            mean_so_far = Some(match mean_so_far {
                None => r,
                Some(m) => (m * i as f64 + r) / (i as f64 + 1.0),
            });
        }
        println!(
            "{name:<15} {:>9.2}  {:.3}  {:>8}/{}     {:.3}",
            s.mean() / 1e6,
            s.cov().unwrap_or(f64::NAN),
            met,
            rates.len(),
            rmsre(&errors).unwrap_or(f64::NAN),
        );
    }
    println!("\nThe saturating transfers are faster on average but erratic; the window-limited");
    println!("ones give up peak throughput for a far tighter distribution — when the job only");
    println!(
        "needs {:.1} Mbps, predictability wins the deadline (Section 4.2.8).",
        required_bps / 1e6
    );
}
