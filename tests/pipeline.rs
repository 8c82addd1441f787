//! End-to-end pipeline integration: synthetic testbed → measurements →
//! predictors → the paper's qualitative findings, across all crates.
//!
//! These tests regenerate a small dataset in-process (seconds) and assert
//! the *shape* invariants the paper reports, not absolute numbers.

use tcp_throughput_predictability::core::fb::{FbConfig, FbPredictor, PathEstimates};
use tcp_throughput_predictability::core::hb::HoltWinters;
use tcp_throughput_predictability::core::lso::Lso;
use tcp_throughput_predictability::core::metrics::{evaluate, relative_error_floored, rmsre};
use tcp_throughput_predictability::netsim::Time;
use tcp_throughput_predictability::testbed::{
    catalog_2004, generate, run_trace, CatalogKind, Dataset, FaultConfig, Preset, RegimeConfig,
};

/// A small-but-meaningful preset: 6 paths, 1 trace, 14 epochs.
fn test_preset() -> Preset {
    Preset {
        name: "integration".into(),
        catalog: CatalogKind::Y2004,
        paths: 6,
        traces_per_path: 1,
        epochs_per_trace: 14,
        pathload_slot: Time::from_secs(8),
        pre_ping: Time::from_secs(6),
        transfer: Time::from_secs(6),
        epoch_gap: Time::from_secs(2),
        w_large: 1 << 20,
        w_small: 20 * 1024,
        with_small_window: true,
        ping_interval: Time::from_millis(100),
        seed: 20040701,
        faults: FaultConfig::none(),
        regimes: RegimeConfig::none(),
    }
}

fn dataset() -> Dataset {
    generate(&test_preset())
}

fn fb_for(ds: &Dataset) -> FbPredictor {
    FbPredictor::new(FbConfig {
        max_window: ds.preset.w_large,
        ..FbConfig::default()
    })
}

fn a_priori(rec: &tcp_throughput_predictability::testbed::CompleteEpoch) -> PathEstimates {
    PathEstimates {
        rtt: rec.t_hat,
        loss_rate: rec.p_hat,
        avail_bw: rec.a_hat,
    }
}

#[test]
fn dataset_has_the_requested_shape_and_sane_records() {
    let ds = dataset();
    assert_eq!(ds.paths.len(), 6);
    assert_eq!(ds.epoch_count(), 6 * 14);
    // Zero-fault presets produce only complete epochs.
    assert_eq!(ds.degraded_count(), 0);
    for (_, _, rec) in ds.complete_epochs() {
        assert!(rec.r_large > 0.0, "every transfer delivers something");
        assert!(rec.t_hat > 0.0 && rec.t_hat < 2.0);
        assert!((0.0..=1.0).contains(&rec.p_hat));
        assert!((0.0..=1.0).contains(&rec.p_tilde));
        assert!(rec.a_hat > 0.0);
        assert!(rec.r_small.unwrap() > 0.0);
        if rec.flow_rtt > 0.0 {
            // Starved epochs may record no RTT samples at all.
            assert!(
                rec.flow_rtt >= rec.t_hat * 0.5,
                "flow RTT in the same world"
            );
        }
    }
}

#[test]
fn fb_overestimation_dominates_as_in_the_paper() {
    let ds = dataset();
    let fb = fb_for(&ds);
    let errors: Vec<f64> = ds
        .complete_epochs()
        .map(|(_, _, rec)| relative_error_floored(fb.predict(&a_priori(&rec)), rec.r_large))
        .collect();
    let over = errors.iter().filter(|&&e| e > 0.0).count() as f64 / errors.len() as f64;
    assert!(
        over > 0.55,
        "FB should mostly overestimate (paper: ~80%), got {over:.2}"
    );
    // Large overestimations exist; equally large underestimations are
    // rarer (paper finding 2 of §4.3).
    let big_over = errors.iter().filter(|&&e| e > 2.0).count();
    let big_under = errors.iter().filter(|&&e| e < -2.0).count();
    assert!(
        big_over > big_under,
        "overestimation tail dominates: {big_over} vs {big_under}"
    );
}

#[test]
fn hb_beats_fb_when_history_exists() {
    let ds = dataset();
    let fb = fb_for(&ds);
    let mut hb_wins = 0usize;
    let mut traces = 0usize;
    for p in &ds.paths {
        for t in &p.traces {
            let fb_errors: Vec<f64> = t
                .records
                .iter()
                .filter_map(|rec| rec.complete())
                .map(|rec| relative_error_floored(fb.predict(&a_priori(&rec)), rec.r_large))
                .collect();
            let fb_rmsre = rmsre(&fb_errors).unwrap();
            let mut hb = Lso::new(HoltWinters::new(0.8, 0.2));
            let hb_rmsre = evaluate(&mut hb, &t.throughput_series()).rmsre().unwrap();
            traces += 1;
            if hb_rmsre < fb_rmsre {
                hb_wins += 1;
            }
        }
    }
    // Rank-based: robust against individual pathological traces where a
    // starved path makes both errors astronomical.
    assert!(
        hb_wins * 3 >= traces * 2,
        "HB should beat FB on most traces (paper §6.1.2): {hb_wins}/{traces}"
    );
}

#[test]
fn window_limited_series_are_more_predictable() {
    let ds = dataset();
    let mut large_rmsres = Vec::new();
    let mut small_rmsres = Vec::new();
    for p in &ds.paths {
        for t in &p.traces {
            let mut hb = Lso::new(HoltWinters::new(0.8, 0.2));
            if let Some(r) = evaluate(&mut hb, &t.throughput_series()).rmsre() {
                large_rmsres.push(r);
            }
            if let Some(series) = t.small_window_series() {
                let mut hb = Lso::new(HoltWinters::new(0.8, 0.2));
                if let Some(r) = evaluate(&mut hb, &series).rmsre() {
                    small_rmsres.push(r);
                }
            }
        }
    }
    let med = |v: &mut Vec<f64>| {
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v[v.len() / 2]
    };
    assert!(
        med(&mut small_rmsres) <= med(&mut large_rmsres),
        "W=20KB series more predictable (paper §6.1.5)"
    );
}

#[test]
fn generation_is_deterministic_end_to_end() {
    let preset = Preset {
        paths: 3,
        epochs_per_trace: 4,
        ..test_preset()
    };
    let a = generate(&preset);
    let b = generate(&preset);
    assert_eq!(a, b, "same preset, same dataset, bit for bit");
}

#[test]
fn single_trace_matches_its_slot_in_the_full_dataset() {
    // run_trace and generate must agree: the parallel fan-out cannot
    // change per-trace results.
    let preset = Preset {
        paths: 3,
        epochs_per_trace: 4,
        ..test_preset()
    };
    let ds = generate(&preset);
    let catalog = catalog_2004(3, preset.seed);
    let lone = run_trace(&catalog[1], 0, &preset);
    assert_eq!(ds.paths[1].traces[0], lone);
}

#[test]
fn posthumous_pftk_agrees_with_the_tcp_implementation() {
    // The strongest cross-validation in the workspace: feeding the PFTK
    // model the target flow's OWN measured RTT and congestion-event
    // probability (the "posthumous" estimation the PFTK authors
    // validated with, paper §3.2) must reproduce the flow's throughput
    // closely — tying the from-scratch TCP stack, the measurement
    // harness, and the analytical model together.
    use tcp_throughput_predictability::core::formulas::{pftk, rto_estimate, PftkParams};

    // Longer transfers than the other integration tests: PFTK is a
    // steady-state model, and a 6-second flow with one loss event is
    // transient behaviour, not steady state.
    // 10 paths (vs the shared preset's 6) so enough congested paths —
    // and with them lossy, steady-state epochs — land in the sample.
    let preset = Preset {
        transfer: Time::from_secs(20),
        epochs_per_trace: 8,
        paths: 10,
        ..test_preset()
    };
    let ds = generate(&preset);
    let duration = ds.preset.transfer.as_secs_f64();
    let mut errors = Vec::new();
    for (_, _, rec) in ds.complete_epochs() {
        // Steady-state epochs only: lossy a priori and enough congestion
        // events for the flow to be in its AIMD regime.
        // lint:allow(float-eq): p_hat = 0 is the exact no-loss-observed sentinel
        if rec.p_hat == 0.0 || rec.flow_loss_events < 3 || rec.flow_rtt <= 0.0 {
            continue;
        }
        let delivered_segments = rec.r_large * duration / 8.0 / 1448.0;
        if delivered_segments < 10.0 {
            continue;
        }
        let p_event = (rec.flow_loss_events as f64 / delivered_segments).min(0.9);
        let params = PftkParams {
            mss: 1448,
            rtt: rec.flow_rtt,
            rto: rto_estimate(rec.flow_rtt),
            b: 2.0,
            p: p_event,
            max_window: ds.preset.w_large,
        };
        errors.push(relative_error_floored(pftk(&params), rec.r_large));
    }
    assert!(errors.len() >= 10, "enough lossy epochs: {}", errors.len());
    let within_2x = errors.iter().filter(|e| e.abs() < 1.0).count();
    assert!(
        within_2x * 10 >= errors.len() * 7,
        "PFTK with posthumous inputs within 2x on >=70% of epochs: {}/{}",
        within_2x,
        errors.len()
    );
}
