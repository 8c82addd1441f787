//! Overlay route selection — the RON use case that motivates the paper
//! (§1, ref. \[1\]): an overlay node must choose which of several paths to
//! send a bulk transfer over, *before* starting it.
//!
//! ```text
//! cargo run --release --example overlay_route_selection
//! ```
//!
//! Three candidate paths with different capacities, RTTs, and loads.
//! Each round the selector picks a path by predicted throughput, sends
//! the transfer there, and learns. Three selectors compete:
//!
//! * `fb` — Formula-Based prediction only (what RON's
//!   throughput-optimizing router did, with the square-root formula);
//! * `hb` — History-Based (HW-LSO) per path, falling back to FB until
//!   a path has history;
//! * `oracle` — hindsight: always the path that would have been best.
//!
//! The tally at the end shows the HB-informed selector approaching the
//! oracle while FB keeps mis-ranking paths whose measured loss/avail-bw
//! does not reflect what a saturating TCP flow will get.

use tcp_throughput_predictability::core::fb::{FbConfig, FbPredictor, PathEstimates};
use tcp_throughput_predictability::core::hb::{HoltWinters, Predictor};
use tcp_throughput_predictability::core::lso::Lso;
use tcp_throughput_predictability::netsim::link::LinkConfig;
use tcp_throughput_predictability::netsim::sources::{
    ParetoOnOffSource, PoissonSource, Reflector, Sink, SourceConfig,
};
use tcp_throughput_predictability::netsim::{LinkId, RateSchedule, Route, Simulator, Time};
use tcp_throughput_predictability::probes::ping::{PingProber, PingStatsHandle};
use tcp_throughput_predictability::probes::{BulkTransfer, Pathload, PathloadConfig};
use tcp_throughput_predictability::tcp::TcpConfig;

struct OverlayPath {
    name: &'static str,
    fwd: LinkId,
    rev: LinkId,
    ping: PingStatsHandle,
    hb: Lso<HoltWinters>,
}

/// Builds one candidate path inside the shared simulation.
#[allow(clippy::too_many_arguments)]
fn build_path(
    sim: &mut Simulator,
    name: &'static str,
    capacity: f64,
    one_way_ms: u64,
    buffer_pkts: u32,
    poisson_load: f64,
    bursty_load: f64,
) -> OverlayPath {
    let fwd = sim.add_link(LinkConfig::new(
        capacity,
        Time::from_millis(one_way_ms),
        buffer_pkts,
    ));
    let rev = sim.add_link(LinkConfig::new(1e9, Time::from_millis(one_way_ms), 1000));
    let (sink, _) = Sink::new();
    let sink_id = sim.add_endpoint(Box::new(sink));
    if poisson_load > 0.0 {
        let src = PoissonSource::new(SourceConfig {
            route: Route::direct(fwd),
            dst: sink_id,
            packet_size: 1000,
            base_rate_bps: poisson_load,
            schedule: RateSchedule::constant(1.0),
            stop: Time::MAX,
        });
        sim.add_source(src, Time::ZERO);
    }
    if bursty_load > 0.0 {
        let src = ParetoOnOffSource::new(
            SourceConfig {
                route: Route::direct(fwd),
                dst: sink_id,
                packet_size: 1000,
                base_rate_bps: bursty_load,
                schedule: RateSchedule::constant(1.0),
                stop: Time::MAX,
            },
            0.5,
            1.6,
            0.4,
        );
        sim.add_source(src, Time::ZERO);
    }
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
    OverlayPath {
        name,
        fwd,
        rev,
        ping,
        hb: Lso::new(HoltWinters::new(0.8, 0.2)),
    }
}

fn main() {
    let mut sim = Simulator::new(1);
    let mut paths = [
        // Fast but heavily loaded: pings look fine, transfers struggle.
        build_path(&mut sim, "fast-busy", 45e6, 40, 300, 30e6, 9e6),
        // Modest and lightly loaded: the actual winner most rounds.
        build_path(&mut sim, "mid-quiet", 20e6, 25, 80, 4e6, 1e6),
        // DSL-grade: never competitive for bulk transfers.
        build_path(&mut sim, "dsl", 1.4e6, 30, 14, 0.3e6, 0.1e6),
    ];

    let fb = FbPredictor::new(FbConfig::default());
    let mut score = [0.0f64; 3]; // fb, hb, oracle throughput totals
    let mut picks = [[0usize; 3]; 3];

    // Measure avail-bw per path once per round via pathload; ping runs
    // continuously.
    let mut t = Time::from_secs(10);
    println!("round  fb_pick     hb_pick     best        (Mbps per path)");
    for round in 0..10 {
        // Per-path a-priori measurements.
        let mut estimates = Vec::new();
        let measure_start = t;
        let handles: Vec<_> = paths
            .iter()
            .map(|p| {
                Pathload::deploy(
                    &mut sim,
                    PathloadConfig::default(),
                    Route::direct(p.fwd),
                    measure_start,
                )
            })
            .collect();
        sim.run_until(measure_start + Time::from_secs(15));
        for (p, handle) in paths.iter().zip(&handles) {
            let a_hat = handle.borrow().best_guess().unwrap_or(1e6);
            let s = p
                .ping
                .borrow()
                .summarize(measure_start, measure_start + Time::from_secs(14));
            estimates.push(PathEstimates {
                rtt: s.rtt.max(1e-3),
                loss_rate: s.loss_rate,
                avail_bw: a_hat,
            });
        }

        // Selections.
        let fb_preds: Vec<f64> = estimates.iter().map(|e| fb.predict(e)).collect();
        let fb_pick = argmax(&fb_preds);
        let hb_preds: Vec<f64> = paths
            .iter()
            .zip(&fb_preds)
            .map(|(p, &fbp)| p.hb.forecast().unwrap_or(fbp))
            .collect();
        let hb_pick = argmax(&hb_preds);

        // Ground truth: run a transfer on EVERY path this round (so the
        // oracle and the learners all observe it; an overlay monitoring
        // its paths does the same with lightweight probes or piggybacked
        // transfers).
        let start = sim.now() + Time::from_secs(1);
        let stop = start + Time::from_secs(15);
        let transfers: Vec<_> = paths
            .iter()
            .map(|p| {
                BulkTransfer::launch(
                    &mut sim,
                    TcpConfig::default(),
                    Route::direct(p.fwd),
                    Route::direct(p.rev),
                    start,
                    stop,
                )
            })
            .collect();
        sim.run_until(stop + Time::from_secs(3));
        let actual: Vec<f64> = transfers.iter().map(|tr| tr.throughput()).collect();
        let best = argmax(&actual);

        score[0] += actual[fb_pick];
        score[1] += actual[hb_pick];
        score[2] += actual[best];
        picks[0][fb_pick] += 1;
        picks[1][hb_pick] += 1;
        picks[2][best] += 1;
        for (p, &a) in paths.iter_mut().zip(&actual) {
            p.hb.update(a);
        }
        println!(
            "{round:>5}  {:<10}  {:<10}  {:<10}  ({:.1} / {:.1} / {:.1})",
            paths[fb_pick].name,
            paths[hb_pick].name,
            paths[best].name,
            actual[0] / 1e6,
            actual[1] / 1e6,
            actual[2] / 1e6,
        );
        t = sim.now() + Time::from_secs(2);
    }

    println!("\ntotal transferred if following each selector (relative to oracle):");
    for (label, s) in ["fb", "hb", "oracle"].iter().zip(&score) {
        println!(
            "  {label:<7} {:>6.1} Mbit-rounds  ({:.0}%)",
            s / 1e6,
            100.0 * s / score[2]
        );
    }
}

fn argmax(xs: &[f64]) -> usize {
    xs.iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("no NaN"))
        .map(|(i, _)| i)
        .expect("non-empty")
}
