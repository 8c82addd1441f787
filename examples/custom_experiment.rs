//! Build your own measurement campaign: define a custom preset and path,
//! generate a small dataset programmatically, and evaluate any predictor
//! combination over it — the same machinery the figure binaries use,
//! driven from library code.
//!
//! ```text
//! cargo run --release --example custom_experiment
//! ```

use tcp_throughput_predictability::core::fb::{FbConfig, FbPredictor, PathEstimates};
use tcp_throughput_predictability::core::hb::{ArPredictor, HoltWinters, MovingAverage, Predictor};
use tcp_throughput_predictability::core::lso::Lso;
use tcp_throughput_predictability::core::metrics::{evaluate, relative_error_floored, rmsre};
use tcp_throughput_predictability::netsim::Time;
use tcp_throughput_predictability::testbed::{
    catalog_2004, run_trace, CatalogKind, FaultConfig, Preset, RegimeConfig,
};

fn main() {
    // A compact custom preset: short epochs, no window-limited extras.
    let preset = Preset {
        name: "custom".into(),
        catalog: CatalogKind::Y2004,
        paths: 5,
        traces_per_path: 1,
        epochs_per_trace: 25,
        pathload_slot: Time::from_secs(10),
        pre_ping: Time::from_secs(8),
        transfer: Time::from_secs(8),
        epoch_gap: Time::from_secs(2),
        w_large: 1 << 20,
        w_small: 20 * 1024,
        with_small_window: false,
        ping_interval: Time::from_millis(100),
        seed: 0xC0FFEE,
        faults: FaultConfig::none(),
        regimes: RegimeConfig::none(),
    };

    // Pick one path from the catalog and customise it.
    let mut path = catalog_2004(preset.paths, preset.seed).remove(3);
    path.cross.utilization = 0.55;
    path.cross.shifts_per_trace = 1.5;
    println!(
        "path {}: {:.1} Mbps, {:.0} ms RTT, buffer {} pkts, {} elastic cross flows",
        path.name,
        path.capacity_bps / 1e6,
        path.base_rtt() * 1e3,
        path.buffer_packets,
        path.cross.elastic_flows,
    );

    // Simulate one trace (25 epochs, each: pathload → ping → transfer).
    let trace = run_trace(&path, 0, &preset);
    let series = trace.throughput_series();
    println!(
        "\n{} epochs simulated; throughput {:.2}..{:.2} Mbps",
        series.len(),
        series.iter().cloned().fold(f64::INFINITY, f64::min) / 1e6,
        series.iter().cloned().fold(f64::NEG_INFINITY, f64::max) / 1e6,
    );

    // Score any predictor battery over the trace, one-step-ahead.
    println!("\npredictor        rmsre");
    let batteries: Vec<(&str, Box<dyn Predictor + Send>)> = vec![
        ("10-MA", Box::new(MovingAverage::new(10))),
        ("10-MA-LSO", Box::new(Lso::new(MovingAverage::new(10)))),
        ("0.8-HW-LSO", Box::new(Lso::new(HoltWinters::new(0.8, 0.2)))),
        ("AR(2)", Box::new(ArPredictor::new(2, 64))),
    ];
    for (name, mut p) in batteries {
        let r = evaluate(&mut p, &series).rmsre().unwrap();
        println!("{name:<16} {r:.3}");
    }

    // And the FB prediction for each epoch, from its recorded a-priori
    // measurements.
    let fb = FbPredictor::new(FbConfig::default());
    let fb_errors: Vec<f64> = trace
        .records
        .iter()
        .filter_map(|rec| rec.complete())
        .map(|rec| {
            let est = PathEstimates {
                rtt: rec.t_hat,
                loss_rate: rec.p_hat,
                avail_bw: rec.a_hat,
            };
            relative_error_floored(fb.predict(&est), rec.r_large)
        })
        .collect();
    println!(
        "{:<16} {:.3}   (no history needed)",
        "FB (Eq. 3)",
        rmsre(&fb_errors).unwrap()
    );
}
