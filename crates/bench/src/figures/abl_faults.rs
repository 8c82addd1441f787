//! **Ablation (robustness, beyond the paper)** — prediction under
//! measurement faults.
//!
//! The RON testbed the paper measured was not a clean lab: nodes went
//! down, pathload runs failed to converge, probe traffic was lost. This
//! ablation injects those fault classes at increasing rates
//! ([`tputpred_testbed::FaultConfig::uniform`]) and reports how the
//! pipeline degrades:
//!
//! * **FB** predicts via [`FbPredictor::try_predict`] on every epoch's
//!   *partial* a-priori estimates — falling back across Eq. 3's branches
//!   when `Â` or `p̂` is missing, and refusing (typed error, not NaN)
//!   when no usable input survives;
//! * **HB** (HW-LSO) scores over the gappy throughput series via
//!   [`evaluate_gappy`] — missing epochs are skipped, not misread as
//!   level shifts.
//!
//! Expected shape: accuracy decays gracefully — RMSRE grows slowly with
//! the fault rate, the refusal count grows instead of errors exploding,
//! and no fault level panics or emits non-finite predictions.
//!
//! A second sweep varies the outage **burst length** instead of the
//! rate: the correlated-regime chain (DESIGN.md §13) is switched on and
//! the mean Down-dwell stretched from 1 to 12 epochs at fixed entry
//! probabilities. Independent per-epoch faults understate the serving
//! problem — the same number of dark epochs hurts far more in one
//! contiguous burst — so this table also scores the registry's
//! three-tier fallback chain (`FB->0.8-HW-LSO->LKG`), whose
//! availability should hold as bursts lengthen while bare FB's refusals
//! climb.
//!
//! Each of the ten sweep points is a scaled-down preset derived from
//! `--preset` (`rate_presets`, `dwell_presets`), read through
//! the shard cache under `<data_dir>/<derived preset name>/`: the first
//! run simulates them, later runs reuse them.

use crate::{epoch_observations, fb_config, hw_lso, load_dataset, partial_a_priori, Args, Artifact};
use tputpred_core::catalog::predictor_by_name;
use tputpred_core::fb::FbPredictor;
use tputpred_core::metrics::{evaluate_epochs, evaluate_gappy, relative_error_floored, rmsre};
use tputpred_stats::{quantile, render};
use tputpred_testbed::{Dataset, FaultConfig, Preset, RegimeConfig};

/// Median per-trace HW-LSO RMSRE over each trace's gappy series
/// (missing epochs skipped, not read as level shifts), or `n/a`.
fn hb_median_rmsre(ds: &Dataset) -> String {
    let rmsres: Vec<f64> = ds
        .paths
        .iter()
        .flat_map(|p| p.traces.iter())
        .filter_map(|t| evaluate_gappy(&mut hw_lso(), &t.throughput_series_gappy()).rmsre())
        .collect();
    quantile(&rmsres, 0.5).map_or("n/a".into(), render::f)
}

/// A scaled-down campaign with `base`'s epoch shape and catalog, named
/// `<point>-<base name>`: the two sweeps cache ten such datasets, so
/// each stays small, and each base preset gets its own cache folders.
fn scaled(base: &Preset, point: String) -> Preset {
    Preset {
        name: format!("{point}-{}", base.name),
        paths: base.paths.min(8),
        traces_per_path: 1,
        epochs_per_trace: base.epochs_per_trace.min(30),
        ..base.clone()
    }
}

/// The fault-rate sweep: one derived preset per independent fault rate.
pub(crate) fn rate_presets(base: &Preset) -> Vec<(f64, Preset)> {
    [0.0, 0.02, 0.05, 0.1, 0.2, 0.4]
        .into_iter()
        .map(|rate| {
            let preset = Preset {
                faults: FaultConfig::uniform(rate),
                ..scaled(base, format!("abl-faults-{rate:.2}"))
            };
            (rate, preset)
        })
        .collect()
}

/// The burst-length sweep: one derived preset per mean Down-dwell, at a
/// fixed 5% fault rate amplified by the regime chain.
pub(crate) fn dwell_presets(base: &Preset) -> Vec<(f64, Preset)> {
    [1.0, 3.0, 6.0, 12.0]
        .into_iter()
        .map(|dwell| {
            let preset = Preset {
                faults: FaultConfig::uniform(0.05),
                regimes: RegimeConfig {
                    degraded_entry: 0.1,
                    down_entry: 0.2,
                    mean_degraded_dwell: 3.0,
                    mean_down_dwell: dwell,
                    fault_multiplier: 4.0,
                },
                ..scaled(base, format!("abl-dwell-{dwell:.0}"))
            };
            (dwell, preset)
        })
        .collect()
}

pub fn run(args: &Args) -> Result<Vec<Artifact>, String> {
    let mut out = String::new();

    let mut table = render::Table::new([
        "fault_rate",
        "epochs",
        "degraded_frac",
        "fb_scored",
        "fb_refused",
        "fb_rmsre",
        "hb_median_rmsre",
    ]);
    for (rate, preset) in rate_presets(&args.preset) {
        let ds = load_dataset(&Args {
            preset,
            ..args.clone()
        })?;
        let fb = FbPredictor::new(fb_config(&ds.preset));

        // FB over EVERY epoch's partial estimates: score what it
        // predicts, count what it refuses. A prediction is scorable only
        // when the epoch's large transfer completed.
        let mut fb_errors = Vec::new();
        let mut refused = 0usize;
        for (_, _, rec) in ds.epochs() {
            match fb.try_predict(&partial_a_priori(rec)) {
                Ok(pred) => {
                    if !pred.is_finite() {
                        return Err(format!("non-finite FB prediction at fault rate {rate}"));
                    }
                    fb_errors.extend(rec.r_large.map(|r| relative_error_floored(pred, r)));
                }
                Err(_) => refused += 1,
            }
        }

        let epochs = ds.epoch_count();
        table.row([
            render::f(rate),
            epochs.to_string(),
            render::f(ds.degraded_count() as f64 / epochs.max(1) as f64),
            fb_errors.len().to_string(),
            refused.to_string(),
            rmsre(&fb_errors).map_or("n/a".into(), render::f),
            hb_median_rmsre(&ds),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(
        "# expected shape: degraded_frac tracks the fault rate; FB refuses (typed\n\
         # errors) rather than exploding; HB RMSRE drifts up slowly as gaps thin\n\
         # the history. No fault level panics or yields non-finite predictions.\n",
    );

    // Second sweep: outage burst length at a fixed fault rate. The
    // regime chain turns 5% independent faults into multi-epoch Down
    // spells whose mean dwell is the knob (DESIGN.md §13).
    out.push_str("# abl_faults: accuracy vs outage burst length (mean Down-dwell epochs)\n");
    let mut burst_table = render::Table::new([
        "down_dwell",
        "epochs",
        "missing_frac",
        "fb_refused",
        "hb_median_rmsre",
        "chain_median_rmsre",
        "chain_availability",
    ]);
    for (dwell, preset) in dwell_presets(&args.preset) {
        let ds = load_dataset(&Args {
            preset,
            ..args.clone()
        })?;
        let fb = FbPredictor::new(fb_config(&ds.preset));

        let mut missing = 0usize;
        let mut refused = 0usize;
        for (_, _, rec) in ds.epochs() {
            missing += usize::from(rec.faults.node_down);
            refused += usize::from(fb.try_predict(&partial_a_priori(rec)).is_err());
        }

        // The three-tier fallback chain over the full epoch protocol:
        // availability is what the policy layer buys through bursts.
        let mut chain_rmsres = Vec::new();
        let mut chain_forecasts = 0usize;
        let mut chain_epochs = 0usize;
        for trace in ds.paths.iter().flat_map(|p| p.traces.iter()) {
            let mut chain = predictor_by_name("FB->0.8-HW-LSO->LKG", &fb_config(&ds.preset))
                .unwrap_or_else(|| unreachable!("registry entry exists"));
            let result = evaluate_epochs(&mut chain, &epoch_observations(trace));
            chain_epochs += result.predictions.len();
            chain_forecasts += result.predictions.iter().filter(|p| p.is_some()).count();
            chain_rmsres.extend(result.rmsre());
        }

        let epochs = ds.epoch_count();
        burst_table.row([
            render::f(dwell),
            epochs.to_string(),
            render::f(missing as f64 / epochs.max(1) as f64),
            refused.to_string(),
            hb_median_rmsre(&ds),
            quantile(&chain_rmsres, 0.5).map_or("n/a".into(), render::f),
            render::f(chain_forecasts as f64 / chain_epochs.max(1) as f64),
        ]);
    }
    out.push_str(&burst_table.render());
    out.push_str(
        "# expected shape: missing_frac climbs as bursts lengthen (same entry rate,\n\
         # longer Down spells) and FB refusals climb with it; the fallback chain's\n\
         # availability stays near 1 because LKG keeps answering through bursts.\n",
    );
    Ok(vec![Artifact::new("abl_faults.txt", out)])
}
