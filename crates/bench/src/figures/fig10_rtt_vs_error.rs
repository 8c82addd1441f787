//! **Fig. 10** — scatter of the a-priori RTT `T̂` against the FB
//! prediction error `E`.
//!
//! Paper finding: no positive correlation — long-RTT paths are not
//! systematically harder to predict.

use crate::{correlations, fb_config, fb_error, load_dataset, Args, Artifact};
use tputpred_core::fb::FbPredictor;
use tputpred_stats::render;

pub fn run(args: &Args) -> Result<Vec<Artifact>, String> {
    let mut out = String::new();
    let ds = load_dataset(args)?;
    let fb = FbPredictor::new(fb_config(&ds.preset));

    let points: Vec<(f64, f64)> = ds
        .complete_epochs()
        .map(|(_, _, rec)| (rec.t_hat * 1e3, fb_error(&fb, &rec)))
        .collect();

    out.push_str("# fig10: a-priori RTT T^ (ms) vs FB prediction error E\n");
    out.push_str(&render::series("t_hat_ms_vs_e", &points));
    outln!(out, "# n={} {}", points.len(), correlations(&points));
    Ok(vec![Artifact::new("fig10_rtt_vs_error.txt", out)])
}
