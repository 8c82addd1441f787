//! **Fig. 20** — scatter of the segment-weighted Coefficient of
//! Variation of each trace's throughput series against the HW-LSO
//! per-trace RMSRE (§6.1.3).
//!
//! Paper finding: a strong correlation (r = 0.91) — to first order, the
//! HB prediction error *is* the CoV of the underlying time series, so
//! path variability determines predictability.

use crate::{correlations, hw_lso, load_dataset, trace_rmsre, Args, Artifact};
use tputpred_core::lso::LsoConfig;
use tputpred_core::metrics::segmented_cov;
use tputpred_stats::{pearson, render};

pub fn run(args: &Args) -> Result<Vec<Artifact>, String> {
    let mut out = String::new();
    let ds = load_dataset(args)?;

    let mut points = Vec::new();
    for p in &ds.paths {
        for t in &p.traces {
            let series = t.throughput_series();
            let cov = segmented_cov(&series, LsoConfig::default());
            points.extend(cov.zip(trace_rmsre(hw_lso, &series)));
        }
    }

    out.push_str("# fig20: per-trace segmented CoV vs 0.8-HW-LSO RMSRE\n");
    out.push_str(&render::series("cov_vs_rmsre", &points));
    // Raw Pearson is fragile to a single catastrophic trace (a sudden
    // collapse no predictor can foresee); report it alongside the rank
    // correlation and a Pearson over the non-catastrophic bulk — the
    // paper likewise excluded its "excessive error" paths from such
    // summaries (§4.2.4).
    let (txs, tys): (Vec<f64>, Vec<f64>) =
        points.iter().filter(|&&(_, y)| y < 10.0).copied().unzip();
    outln!(
        out,
        "# n={} {} pearson_r_rmsre_below_10={} (n={})",
        points.len(),
        correlations(&points),
        pearson(&txs, &tys).map_or("n/a".into(), render::f),
        txs.len()
    );
    Ok(vec![Artifact::new("fig20_cov_vs_rmsre.txt", out)])
}
