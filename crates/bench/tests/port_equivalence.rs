//! Port-equivalence pin for the unified-predictor refactor: driving the
//! ported families (FB, smoothed FB, MA, EWMA, HW, their LSO wrappers)
//! through the new epoch protocol ([`evaluate_epochs`]) must reproduce
//! the legacy per-series evaluation ([`evaluate`]) and the legacy
//! inherent FB arithmetic **bit for bit** on a real generated dataset.
//!
//! The committed `results/*.txt` files are the quick-preset half of this
//! guarantee (regeneration is byte-identical); this test pins the same
//! equivalence in-process on a small deterministic preset so it runs in
//! `cargo test` without the cached dataset.

use tputpred_bench::{a_priori, epoch_observations, fb_config};
use tputpred_core::catalog::BoxedPredictor;
use tputpred_core::fb::FbPredictor;
use tputpred_core::hb::{Ewma, HoltWinters, MovingAverage};
use tputpred_core::lso::Lso;
use tputpred_core::metrics::{evaluate, evaluate_epochs};
use tputpred_netsim::Time;
use tputpred_testbed::{generate, CatalogKind, Dataset, FaultConfig, Preset, RegimeConfig};

/// Small fault-free preset: 3 paths x 1 trace x 8 epochs, enough for
/// MA/HW warm-up and an LSO window, fast enough for the test profile.
fn pin_preset() -> Preset {
    Preset {
        name: "port-pin".into(),
        catalog: CatalogKind::Y2004,
        paths: 3,
        traces_per_path: 1,
        epochs_per_trace: 8,
        pathload_slot: Time::from_secs(6),
        pre_ping: Time::from_secs(5),
        transfer: Time::from_secs(4),
        epoch_gap: Time::from_secs(2),
        w_large: 1 << 20,
        w_small: 20 * 1024,
        with_small_window: false,
        ping_interval: Time::from_millis(100),
        seed: 99,
        faults: FaultConfig::none(),
        regimes: RegimeConfig::none(),
    }
}

fn dataset() -> Dataset {
    generate(&pin_preset())
}

/// The series-only families, evaluated the legacy way (throughput series
/// in, [`evaluate`]) and the new way (full epochs in,
/// [`evaluate_epochs`]), must agree exactly: same forecasts, same
/// errors, same event positions relative to their own input.
#[test]
fn series_families_match_legacy_evaluate_bit_for_bit() {
    let ds = dataset();
    type Family = (&'static str, fn() -> BoxedPredictor);
    let makes: Vec<Family> = vec![
        ("1-MA", || Box::new(MovingAverage::new(1))),
        ("10-MA", || Box::new(MovingAverage::new(10))),
        ("0.8-EWMA", || Box::new(Ewma::new(0.8))),
        ("0.8-HW", || Box::new(HoltWinters::new(0.8, 0.2))),
        ("10-MA-LSO", || Box::new(Lso::new(MovingAverage::new(10)))),
        ("0.8-HW-LSO", || {
            Box::new(Lso::new(HoltWinters::new(0.8, 0.2)))
        }),
    ];
    let mut traces = 0;
    for path in &ds.paths {
        for trace in &path.traces {
            traces += 1;
            let series = trace.throughput_series();
            let epochs = epoch_observations(trace);
            // Fault-free preset: every epoch carries a throughput, so
            // the two inputs describe the same transfers.
            assert_eq!(series.len(), epochs.len());
            for (name, make) in &makes {
                let mut legacy = make();
                let mut ported = make();
                let l = evaluate(&mut legacy, &series);
                let p = evaluate_epochs(&mut ported, &epochs);
                assert_eq!(l.predictions, p.predictions, "{name}: forecasts");
                assert_eq!(l.errors, p.errors, "{name}: errors");
                assert_eq!(l.rmsre(), p.rmsre(), "{name}: rmsre");
                assert_eq!(l.outliers, p.outliers, "{name}: outliers");
                assert_eq!(l.level_shifts, p.level_shifts, "{name}: shifts");
            }
        }
    }
    assert_eq!(traces, 3, "preset shape drifted");
}

/// FB through the trait protocol reproduces the legacy inherent
/// `predict(&PathEstimates)` value on every complete epoch.
#[test]
fn fb_trait_protocol_matches_inherent_predict() {
    let ds = dataset();
    let cfg = fb_config(&ds.preset);
    let fb = FbPredictor::new(cfg);
    let mut checked = 0;
    for path in &ds.paths {
        for trace in &path.traces {
            let epochs = epoch_observations(trace);
            let mut ported = FbPredictor::new(cfg);
            let result = evaluate_epochs(&mut ported, &epochs);
            for (rec, pred) in trace
                .records
                .iter()
                .filter_map(|r| r.complete())
                .zip(&result.predictions)
            {
                assert_eq!(*pred, Some(fb.predict(&a_priori(&rec))));
                checked += 1;
            }
        }
    }
    assert_eq!(checked, 24, "3 paths x 8 epochs, all complete");
}
