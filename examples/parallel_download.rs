//! Peer-to-peer parallel download — another motivating application (§1):
//! a client fetches one large file from several mirrors at once and must
//! decide how much of the file to request from each.
//!
//! ```text
//! cargo run --release --example parallel_download
//! ```
//!
//! The download completes when the *slowest* assignment finishes, so
//! chunk allocation should be proportional to each mirror's throughput.
//! Two allocators race over several downloads:
//!
//! * `equal`     — naive: every mirror gets the same share;
//! * `predicted` — shares proportional to the HB (HW-LSO) prediction of
//!   each mirror path's throughput (bootstrapped with an FB prediction
//!   while a mirror has no history).
//!
//! Completion time is estimated per round from the measured per-path
//! throughputs: `max_i(bytes_i / rate_i)`.

use tcp_throughput_predictability::core::fb::{FbConfig, FbPredictor, PathEstimates};
use tcp_throughput_predictability::core::hb::{HoltWinters, Predictor};
use tcp_throughput_predictability::core::lso::Lso;
use tcp_throughput_predictability::netsim::link::LinkConfig;
use tcp_throughput_predictability::netsim::sources::{PoissonSource, Sink, SourceConfig};
use tcp_throughput_predictability::netsim::{LinkId, RateSchedule, Route, Simulator, Time};
use tcp_throughput_predictability::probes::BulkTransfer;
use tcp_throughput_predictability::tcp::TcpConfig;

struct Mirror {
    name: &'static str,
    fwd: LinkId,
    rev: LinkId,
    /// A rough a-priori guess used before any history exists.
    guess: PathEstimates,
    hb: Lso<HoltWinters>,
}

fn mirror(
    sim: &mut Simulator,
    name: &'static str,
    capacity: f64,
    one_way_ms: u64,
    load: f64,
    schedule: RateSchedule,
) -> Mirror {
    let buffer = ((capacity * 0.1 / 8.0 / 1000.0) as u32).max(14);
    let fwd = sim.add_link(LinkConfig::new(
        capacity,
        Time::from_millis(one_way_ms),
        buffer,
    ));
    let rev = sim.add_link(LinkConfig::new(1e9, Time::from_millis(one_way_ms), 1000));
    let (sink, _) = Sink::new();
    let sink_id = sim.add_endpoint(Box::new(sink));
    if load > 0.0 {
        let src = PoissonSource::new(SourceConfig {
            route: Route::direct(fwd),
            dst: sink_id,
            packet_size: 1000,
            base_rate_bps: load,
            schedule,
            stop: Time::MAX,
        });
        sim.add_source(src, Time::ZERO);
    }
    Mirror {
        name,
        fwd,
        rev,
        guess: PathEstimates {
            rtt: 2.0 * one_way_ms as f64 / 1e3,
            loss_rate: 0.0,
            avail_bw: capacity - load,
        },
        hb: Lso::new(HoltWinters::new(0.8, 0.2)),
    }
}

fn main() {
    let mut sim = Simulator::new(99);
    let mut mirrors = vec![
        mirror(
            &mut sim,
            "mirror-a",
            20e6,
            20,
            8e6,
            RateSchedule::constant(1.0),
        ),
        mirror(
            &mut sim,
            "mirror-b",
            10e6,
            45,
            2e6,
            RateSchedule::constant(1.0),
        ),
        // mirror-c suffers a mid-experiment load surge: its history has a
        // level shift the LSO wrapper must catch.
        mirror(
            &mut sim,
            "mirror-c",
            20e6,
            30,
            4e6,
            RateSchedule::constant(1.0).with_shift(Time::from_secs(160), 3.5),
        ),
        mirror(
            &mut sim,
            "mirror-d",
            5e6,
            15,
            1e6,
            RateSchedule::constant(1.0),
        ),
    ];
    let file_bits = 400e6; // a 50 MB file per round
    let fb = FbPredictor::new(FbConfig::default());

    println!("round  completion_equal_s  completion_predicted_s  (per-mirror Mbps)");
    let mut sum_equal = 0.0;
    let mut sum_predicted = 0.0;
    let mut t = Time::from_secs(5);
    for round in 0..10 {
        // Allocations by current predictions.
        let preds: Vec<f64> = mirrors
            .iter()
            .map(|m| m.hb.forecast().unwrap_or_else(|| fb.predict(&m.guess)))
            .collect();
        let total_pred: f64 = preds.iter().sum();

        // Measure each mirror path with a concurrent transfer this round.
        let start = t;
        let stop = start + Time::from_secs(20);
        let transfers: Vec<_> = mirrors
            .iter()
            .map(|m| {
                BulkTransfer::launch(
                    &mut sim,
                    TcpConfig::default(),
                    Route::direct(m.fwd),
                    Route::direct(m.rev),
                    start,
                    stop,
                )
            })
            .collect();
        sim.run_until(stop + Time::from_secs(3));
        let rates: Vec<f64> = transfers
            .iter()
            .map(|tr| tr.throughput().max(1e3))
            .collect();

        // Completion times for the two allocations.
        let n = mirrors.len() as f64;
        let equal: f64 = rates.iter().map(|&r| file_bits / n / r).fold(0.0, f64::max);
        let predicted: f64 = rates
            .iter()
            .zip(&preds)
            .map(|(&r, &p)| file_bits * (p / total_pred) / r)
            .fold(0.0, f64::max);
        sum_equal += equal;
        sum_predicted += predicted;

        let mbps: Vec<String> = rates.iter().map(|r| format!("{:.1}", r / 1e6)).collect();
        println!(
            "{round:>5}  {equal:>19.1}  {predicted:>22.1}  ({})",
            mbps.join(" / ")
        );
        for (m, &r) in mirrors.iter_mut().zip(&rates) {
            m.hb.update(r);
        }
        t = sim.now() + Time::from_secs(2);
    }
    println!(
        "\nmean completion: equal split {:.1} s, prediction-weighted {:.1} s ({:.0}% faster)",
        sum_equal / 10.0,
        sum_predicted / 10.0,
        100.0 * (1.0 - sum_predicted / sum_equal)
    );
    for m in &mirrors {
        println!(
            "  {}: final prediction {:.1} Mbps",
            m.name,
            m.hb.forecast().unwrap_or(0.0) / 1e6
        );
    }
}
