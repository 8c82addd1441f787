//! **Fig. 14** — CDF of the FB error when the formula's RTT and
//! loss-rate inputs are *history-smoothed* (a 10-sample Moving Average
//! over past epochs' measurements, §4.2.10) instead of the latest
//! measurement.
//!
//! Paper finding: the two CDFs are nearly identical — measurement noise
//! in T̂/p̂ is not what limits FB prediction; the flow's own impact on
//! the path and TCP-vs-probing sampling differences are.

use crate::{a_priori, fb_config, load_dataset, push_cdf, Args, Artifact};
use tputpred_core::fb::{FbPredictor, SmoothedFbPredictor};
use tputpred_core::metrics::relative_error_floored;
use tputpred_core::predictor::{EpochObservation, Predictor};

pub fn run(args: &Args) -> Result<Vec<Artifact>, String> {
    let mut out = String::new();
    let ds = load_dataset(args)?;
    let fb = FbPredictor::new(fb_config(&ds.preset));

    let mut plain = Vec::new();
    let mut smoothed = Vec::new();
    for p in &ds.paths {
        for t in &p.traces {
            // The smoothing history is per trace, in epoch order.
            let mut sm = SmoothedFbPredictor::new(fb_config(&ds.preset), 10);
            for rec in t.records.iter().filter_map(|r| r.complete()) {
                let est = a_priori(&rec);
                plain.push(relative_error_floored(fb.predict(&est), rec.r_large));
                // Predict with the epoch's fresh measurement smoothed in,
                // then ingest it for real — the old one-shot `predict_next`.
                let sm_pred = sm.predict(&est.into()).unwrap_or(f64::NAN);
                sm.observe(&EpochObservation::new(est.into(), None));
                smoothed.push(relative_error_floored(sm_pred, rec.r_large));
            }
        }
    }

    out.push_str("# fig14: FB error CDF with latest vs 10-MA-smoothed RTT/loss inputs\n");
    for (name, errors) in [("latest_inputs", &plain), ("smoothed_inputs", &smoothed)] {
        let cdf = push_cdf(&mut out, name, errors, 60)?;
        outln!(
            out,
            "# {name}: median={:.3} P(E>=1)={:.3}",
            cdf.quantile(0.5),
            1.0 - cdf.fraction_below(1.0 - 1e-12)
        );
    }
    Ok(vec![Artifact::new("fig14_smoothed_inputs.txt", out)])
}
