//! The LSO work ledger: `core.lso.pushes` counts every sample a
//! `Detector` or an `Lso` ingests, and `core.lso.full_passes` the pushes
//! that ran a pass over the whole window. Both are pinned exactly on
//! three fixed series. The counters live in the process-global `obs`
//! registry, so this file holds a single test.

use tputpred_core::hb::MovingAverage;
use tputpred_core::lso::{scan_series, Lso, LsoConfig};
use tputpred_core::Predictor;
use tputpred_obs::{with_profiling, TelemetryReport};

fn counter(report: &TelemetryReport, name: &str) -> u64 {
    report
        .counters
        .iter()
        .find(|c| c.name == name)
        .map_or(0, |c| c.count)
}

/// `(pushes, full_passes)` of a detector scan and of an `Lso` over
/// `series`, each dropped inside its own profiling window.
fn ledger(series: &[f64]) -> ((u64, u64), (u64, u64)) {
    let read = |report: TelemetryReport| {
        (
            counter(&report, "core.lso.pushes"),
            counter(&report, "core.lso.full_passes"),
        )
    };
    let ((), scan) = with_profiling(|| {
        scan_series(series, LsoConfig::default());
    });
    let ((), wrapped) = with_profiling(|| {
        let mut p = Lso::new(MovingAverage::new(5));
        for &x in series {
            p.update(x);
        }
    });
    (read(scan), read(wrapped))
}

#[test]
fn pushes_and_full_passes_are_counted_exactly() {
    // ±10 % noise: nothing deviates, every push only appends. The
    // wrapper's first push syncs its inner predictor from scratch.
    let noise = [10.0, 10.8, 9.4, 10.2, 9.8, 10.5, 9.6, 10.1, 10.3, 9.9];
    assert_eq!(ledger(&noise), ((10, 0), (10, 1)));

    // One spike: it waits out its two successors without a pass, and
    // its removal is the one full pass.
    let spike: Vec<f64> = [vec![10.0; 8], vec![30.0], vec![10.0; 2]].concat();
    assert_eq!(ledger(&spike), ((11, 1), (11, 2)));

    // One shift: the new level is quarantined without a pass until the
    // shift is confirmed, which drops the old level.
    let shift: Vec<f64> = [vec![10.0; 8], vec![20.0; 3]].concat();
    assert_eq!(ledger(&shift), ((11, 1), (11, 2)));

    // A clone hands over only its own pushes.
    let ((), cloned) = with_profiling(|| {
        let mut p = Lso::new(MovingAverage::new(5));
        for &x in &noise {
            p.update(x);
        }
        let mut q = p.clone();
        q.update(10.0);
    });
    assert_eq!(counter(&cloned, "core.lso.pushes"), 11);
}
