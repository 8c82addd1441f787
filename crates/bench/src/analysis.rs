//! Shared analysis: FB prediction over epoch records, predictor
//! line-ups (`zoo!`), per-trace evaluation, CDF/correlation summaries,
//! dataset caching.

use crate::cli::Args;
use tputpred_core::fb::{FbConfig, FbModel, FbPredictor, PartialEstimates, PathEstimates};
use tputpred_core::hb::HoltWinters;
use tputpred_core::lso::Lso;
use tputpred_core::metrics::{self, relative_error_floored};
use tputpred_core::predictor::EpochObservation;
use tputpred_stats::{pearson, quantile, render, spearman, Cdf, CdfError};
use tputpred_testbed::{
    load_or_generate_sharded, CompleteEpoch, Dataset, EpochRecord, Preset, TraceData,
};

/// Builds the CDF a figure series needs from a possibly degraded sample.
///
/// Fault injection (DESIGN.md §10) means a heavily faulted preset can
/// leave a series with no scoreable epochs, and derived metrics can in
/// principle go non-finite. This is the registry entries' filter-or-refuse
/// policy in one place: non-finite samples are dropped with a stderr
/// note, and an empty series is an error naming the series, which the
/// entry passes up with `?` so `repro` can name the entry that failed.
pub fn require_cdf<I: IntoIterator<Item = f64>>(label: &str, samples: I) -> Result<Cdf, String> {
    let all: Vec<f64> = samples.into_iter().collect();
    let finite: Vec<f64> = all.iter().copied().filter(|v| v.is_finite()).collect();
    let dropped = all.len() - finite.len();
    if dropped > 0 {
        eprintln!("# series '{label}': dropped {dropped} non-finite sample(s)");
    }
    Cdf::try_from_samples(finite).map_err(|e| match e {
        CdfError::Empty => {
            format!("series '{label}' has no usable samples (all epochs refused or faulted?)")
        }
        e => format!("series '{label}': {e}"),
    })
}

/// Appends the CDF of `samples` to `out` as the series `name`, sampled
/// at `points` rows ([`render::cdf_series`]), and returns it for the
/// figure's summary line; errors as [`require_cdf`] does.
pub(crate) fn push_cdf(
    out: &mut String,
    name: &str,
    samples: &[f64],
    points: usize,
) -> Result<Cdf, String> {
    let cdf = require_cdf(name, samples.iter().copied())?;
    out.push_str(&render::cdf_series(name, &cdf, points));
    Ok(cdf)
}

/// `pearson_r=<r> spearman_r=<ρ>` over a scatter's columns, `n/a`
/// where a coefficient is undefined — the summary line of the
/// correlation figures (Figs. 9, 10, 20).
pub(crate) fn correlations(points: &[(f64, f64)]) -> String {
    let (xs, ys): (Vec<f64>, Vec<f64>) = points.iter().copied().unzip();
    format!(
        "pearson_r={} spearman_r={}",
        pearson(&xs, &ys).map_or("n/a".into(), render::f),
        spearman(&xs, &ys).map_or("n/a".into(), render::f)
    )
}

/// A quantile-table row: `label`, then the `qs` quantiles of `samples`
/// rendered with [`render::f`] (`NaN` for an empty sample).
pub(crate) fn quantile_row(label: &str, samples: &[f64], qs: &[f64]) -> Vec<String> {
    let cells = qs
        .iter()
        .map(|&q| render::f(quantile(samples, q).unwrap_or(f64::NAN)));
    std::iter::once(label.to_string()).chain(cells).collect()
}

/// A heap predictor — everything in the zoo is `Send` so evaluation can
/// parallelize if needed. (The same alias the predictor registry hands
/// out.)
pub use tputpred_core::catalog::BoxedPredictor;

/// A fresh-predictor constructor, so figure entries can re-run a
/// predictor from scratch per trace.
pub type PredictorCtor = fn() -> BoxedPredictor;

/// A labelled predictor line-up, as the figure entries tabulate them.
pub type PredictorZoo = Vec<(&'static str, PredictorCtor)>;

/// A [`PredictorZoo`] from `"label" => constructor` pairs; the
/// constructor expression runs afresh each time the entry is called.
macro_rules! zoo {
    ($($label:literal => $make:expr),* $(,)?) => {
        vec![$(($label, (|| Box::new($make) as $crate::BoxedPredictor) as $crate::PredictorCtor)),*]
    };
}

/// Loads the dataset for `args` from the per-path shard cache
/// (`<data_dir>/<preset>/`), regenerating only the shards the running
/// binary no longer trusts — missing, corrupt, or written by different
/// simulation code or a different (preset, config) (see
/// `tputpred_testbed::behavior_hash` and DESIGN.md §9). Regeneration
/// parallelizes across cores; progress goes to stderr. An I/O error is
/// returned naming the cache directory.
pub fn load_dataset(args: &Args) -> Result<Dataset, String> {
    let dir = args.shard_dir();
    load_or_generate_sharded(&dir, &args.preset)
        .map(|(ds, _)| ds)
        .map_err(|e| format!("dataset at {}: {e}", dir.display()))
}

/// The column set of the epoch CSV export (`export_csv`), in order.
/// The committed `results/epochs_<preset>.csv` files follow this
/// schema; `crates/bench/tests/results_schema.rs` fails when they drift
/// from it.
pub const EPOCH_CSV_COLUMNS: &[&str] = &[
    "path",
    "trace",
    "epoch",
    "status",
    "capacity_bps",
    "base_rtt_s",
    "buffer_pkts",
    "utilization",
    "elastic_flows",
    "a_hat_bps",
    "t_hat_s",
    "p_hat",
    "t_tilde_s",
    "p_tilde",
    "r_large_bps",
    "r_small_bps",
    "r_prefix_quarter_bps",
    "r_prefix_half_bps",
    "flow_loss_events",
    "flow_retx_rate",
    "flow_rtt_s",
    "true_avail_bw_bps",
    "fb_error",
];

/// The FB configuration matching the preset's large-window transfers.
pub fn fb_config(preset: &Preset) -> FbConfig {
    FbConfig {
        max_window: preset.w_large,
        ..FbConfig::default()
    }
}

/// The FB configuration for the window-limited (20 KB) transfers.
pub fn fb_config_small(preset: &Preset) -> FbConfig {
    FbConfig {
        max_window: preset.w_small,
        ..FbConfig::default()
    }
}

/// FB configuration with an explicit model (Fig. 13 compares
/// [`FbModel::PftkSimple`] against [`FbModel::PftkRevised`]).
pub fn fb_config_with_model(preset: &Preset, model: FbModel) -> FbConfig {
    FbConfig {
        model,
        ..fb_config(preset)
    }
}

/// A-priori estimates of one epoch — what Eq. 3 is allowed to see.
pub fn a_priori(rec: &CompleteEpoch) -> PathEstimates {
    PathEstimates {
        rtt: rec.t_hat,
        loss_rate: rec.p_hat,
        avail_bw: rec.a_hat,
    }
}

/// A-priori estimates of a possibly degraded epoch — what
/// [`FbPredictor::try_predict`] sees when measurement tools fail
/// (`None` where the tool produced nothing).
pub fn partial_a_priori(rec: &EpochRecord) -> PartialEstimates {
    PartialEstimates {
        rtt: rec.t_hat,
        loss_rate: rec.p_hat,
        avail_bw: rec.a_hat,
    }
}

/// A trace as the unified predictor protocol consumes it: one
/// [`EpochObservation`] per epoch record, a-priori probe features from
/// [`partial_a_priori`] (`None` where a tool faulted) and the
/// large-window throughput as the measured outcome (`None` where the
/// transfer failed). This is the input of
/// [`tputpred_core::metrics::evaluate_epochs`] and the league table.
pub fn epoch_observations(trace: &TraceData) -> Vec<EpochObservation> {
    trace
        .records
        .iter()
        .map(|rec| EpochObservation::new(partial_a_priori(rec).into(), rec.r_large))
        .collect()
}

/// The path's class — the catalog name (`dsl-03`, `eu-us-07`, …) with
/// its per-path index stripped (`dsl`, `eu-us`), matching the grouping
/// of Fig. 21. Names not of that shape fall into `"other"`.
pub fn path_class(name: &str) -> &str {
    match name.rfind('-') {
        Some(i)
            if i > 0
                && !name[i + 1..].is_empty()
                && name[i + 1..].bytes().all(|b| b.is_ascii_digit()) =>
        {
            &name[..i]
        }
        _ => "other",
    }
}

/// The column set of the league-table CSV (`fig24_league_table`), in
/// order. The committed `results/league_<preset>.csv` files follow this
/// schema; `crates/bench/tests/results_schema.rs` fails when they drift
/// from it.
pub const LEAGUE_CSV_COLUMNS: &[&str] = &[
    "predictor",
    "class",
    "traces",
    "scored_epochs",
    "rmsre_p25",
    "rmsre_median",
    "rmsre_p75",
];

/// The column set of the resilience-table CSV (`fig25_resilience`), in
/// order: per (predictor, outage regime), how often the predictor
/// answered and how well. The committed `results/resilience_<preset>.csv`
/// files follow this schema; `crates/bench/tests/results_schema.rs`
/// fails when they drift from it.
pub const RESILIENCE_CSV_COLUMNS: &[&str] = &[
    "predictor",
    "regime",
    "epochs",
    "forecasts",
    "availability",
    "scored_epochs",
    "rmsre",
];

/// During-flow estimates (T̃, p̃) of one epoch — the hypothetical inputs
/// of §4.2.3 / Fig. 6.
pub fn during_flow(rec: &CompleteEpoch) -> PathEstimates {
    PathEstimates {
        rtt: rec.t_tilde,
        loss_rate: rec.p_tilde,
        avail_bw: rec.a_hat,
    }
}

/// Was this epoch's path lossy *a priori* (PFTK branch of Eq. 3) rather
/// than lossless (avail-bw branch)?
pub fn is_lossy(rec: &CompleteEpoch) -> bool {
    rec.p_hat > 0.0
}

/// Relative FB prediction error `E` (Eq. 4) of one epoch against the
/// large-window transfer.
pub fn fb_error(fb: &FbPredictor, rec: &CompleteEpoch) -> f64 {
    relative_error_floored(fb.predict(&a_priori(rec)), rec.r_large)
}

/// RMSRE of the FB predictions (Eq. 4 errors) over a trace's complete
/// epochs; `None` when no epoch is complete.
pub fn fb_trace_rmsre(fb: &FbPredictor, trace: &TraceData) -> Option<f64> {
    let errors: Vec<f64> = trace
        .records
        .iter()
        .filter_map(|rec| rec.complete())
        .map(|rec| fb_error(fb, &rec))
        .collect();
    metrics::rmsre(&errors)
}

/// The paper's headline HB predictor: Holt-Winters(α = 0.8, β = 0.2)
/// with LSO.
pub fn hw_lso() -> BoxedPredictor {
    Box::new(Lso::new(HoltWinters::new(0.8, 0.2)))
}

/// One-step-ahead RMSRE of a fresh `make()` predictor over a throughput
/// series (outlier epochs excluded per §6.1.3). `None` when the series is
/// too short to score.
pub fn trace_rmsre(make: fn() -> BoxedPredictor, series: &[f64]) -> Option<f64> {
    let mut p = make();
    metrics::evaluate(&mut p, series).rmsre()
}

/// Per-trace RMSREs of a predictor across the whole dataset, using the
/// large-window throughput series.
pub fn rmsre_per_trace(dataset: &Dataset, make: fn() -> BoxedPredictor) -> Vec<f64> {
    dataset
        .paths
        .iter()
        .flat_map(|p| p.traces.iter())
        .filter_map(|t| trace_rmsre(make, &t.throughput_series()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tputpred_core::hb::MovingAverage;
    use tputpred_testbed::{PathData, TraceData};

    fn record(p_hat: f64, r: f64) -> EpochRecord {
        EpochRecord {
            status: Default::default(),
            faults: Default::default(),
            a_hat: Some(5e6),
            t_hat: Some(0.05),
            p_hat: Some(p_hat),
            t_tilde: Some(0.06),
            p_tilde: Some(p_hat * 2.0),
            r_large: Some(r),
            r_small: Some(r / 4.0),
            r_prefix_quarter: Some(r),
            r_prefix_half: Some(r),
            flow_loss_events: 0,
            flow_retx_rate: 0.0,
            flow_rtt: 0.055,
            true_avail_bw: 5e6,
        }
    }

    fn complete(p_hat: f64, r: f64) -> CompleteEpoch {
        record(p_hat, r).complete().expect("record is complete")
    }

    fn tiny_dataset() -> Dataset {
        let config = tputpred_testbed::catalog_2004(3, 1).remove(0);
        Dataset {
            preset: Preset::tiny(),
            paths: vec![PathData {
                config,
                traces: vec![TraceData {
                    records: (0..20)
                        .map(|i| record(0.0, 4e6 + (i % 3) as f64 * 1e5))
                        .collect(),
                }],
            }],
        }
    }

    #[test]
    fn lossless_epoch_uses_availbw_branch() {
        let rec = complete(0.0, 4e6);
        let fb = FbPredictor::new(fb_config(&Preset::tiny()));
        // W/T̂ = 8 MiB / 0.05 s ≈ 168 Mbps ≫ Â = 5 Mbps → predict Â.
        assert_eq!(fb.predict(&a_priori(&rec)), 5e6);
        assert!(!is_lossy(&rec));
    }

    #[test]
    fn lossy_epoch_uses_pftk_branch() {
        let rec = complete(0.02, 1e6);
        assert!(is_lossy(&rec));
        let fb = FbPredictor::new(fb_config(&Preset::tiny()));
        let pred = fb.predict(&a_priori(&rec));
        assert!(pred < 5e6, "PFTK at 2% loss, 50 ms: {pred}");
        let e = fb_error(&fb, &rec);
        assert!(e.is_finite());
    }

    #[test]
    fn during_flow_estimates_swap_in_tilde_values() {
        let rec = complete(0.02, 1e6);
        let d = during_flow(&rec);
        assert_eq!(d.rtt, rec.t_tilde);
        assert_eq!(d.loss_rate, rec.p_tilde);
    }

    #[test]
    fn partial_a_priori_forwards_the_gaps() {
        let mut rec = record(0.02, 1e6);
        rec.a_hat = None;
        let p = partial_a_priori(&rec);
        assert_eq!(p.rtt, Some(0.05));
        assert_eq!(p.loss_rate, Some(0.02));
        assert_eq!(p.avail_bw, None);
    }

    #[test]
    fn zoo_contains_the_papers_predictors() {
        let zoo = crate::figures::fig15_pathologies::zoo();
        let names: Vec<&str> = zoo.iter().map(|(n, _)| *n).collect();
        for expected in ["1-MA", "10-MA", "0.8-EWMA", "0.8-HW", "0.8-HW-LSO"] {
            assert!(names.contains(&expected), "missing {expected}");
        }
        // Constructors produce predictors with matching self-reported
        // names.
        for (label, make) in zoo {
            assert_eq!(make().name(), label);
        }
    }

    #[test]
    fn path_class_strips_the_index() {
        assert_eq!(path_class("dsl-03"), "dsl");
        assert_eq!(path_class("eu-us-07"), "eu-us");
        assert_eq!(path_class("kr-us-1"), "kr-us");
        assert_eq!(path_class("us-12"), "us");
        assert_eq!(path_class("weird"), "other");
        assert_eq!(path_class("trailing-"), "other");
        assert_eq!(path_class("-3"), "other");
    }

    #[test]
    fn epoch_observations_carry_features_and_gaps() {
        let mut records: Vec<EpochRecord> = (0..3).map(|_| record(0.01, 4e6)).collect();
        records[1].r_large = None;
        records[1].t_hat = None;
        let trace = TraceData { records };
        let epochs = epoch_observations(&trace);
        assert_eq!(epochs.len(), 3);
        assert_eq!(epochs[0].throughput_bps, Some(4e6));
        assert_eq!(epochs[0].features.probes.rtt, Some(0.05));
        assert_eq!(epochs[1].throughput_bps, None);
        assert_eq!(epochs[1].features.probes.rtt, None);
        assert_eq!(epochs[1].features.probes.loss_rate, Some(0.01));
    }

    #[test]
    fn rmsre_per_trace_scores_every_trace() {
        let ds = tiny_dataset();
        let rmsres = rmsre_per_trace(&ds, || Box::new(MovingAverage::new(10)));
        assert_eq!(rmsres.len(), 1);
        assert!(rmsres[0] < 0.1, "nearly constant series: {}", rmsres[0]);
    }

    #[test]
    fn require_cdf_refuses_an_empty_series_by_name() {
        let err = require_cdf("rtt_increase_ms", Vec::new()).unwrap_err();
        assert!(err.contains("'rtt_increase_ms'"), "{err}");
        assert!(err.contains("no usable samples"), "{err}");
    }

    #[test]
    fn require_cdf_refuses_an_all_non_finite_series() {
        let err =
            require_cdf("fb_error", [f64::NAN, f64::INFINITY, f64::NEG_INFINITY]).unwrap_err();
        assert!(err.contains("'fb_error'"), "{err}");
        assert!(err.contains("no usable samples"), "{err}");
    }

    #[test]
    fn require_cdf_drops_non_finite_samples_and_keeps_the_rest() {
        let cdf = require_cdf("mixed", [1.0, f64::NAN, 3.0]).expect("two finite samples");
        assert_eq!(cdf.samples(), &[1.0, 3.0]);
    }
}
