//! **Fig. 9** — scatter of the a-priori loss rate `p̂` against the FB
//! prediction error `E`, lossy epochs only.
//!
//! Paper finding: *no* correlation — a higher measured loss rate does
//! not predict a larger FB error (the error comes from how much the
//! path's state changes, not from how lossy it already was).

use crate::{correlations, fb_config, fb_error, is_lossy, load_dataset, Args, Artifact};
use tputpred_core::fb::FbPredictor;
use tputpred_stats::render;

pub fn run(args: &Args) -> Result<Vec<Artifact>, String> {
    let mut out = String::new();
    let ds = load_dataset(args)?;
    let fb = FbPredictor::new(fb_config(&ds.preset));

    let points: Vec<(f64, f64)> = ds
        .complete_epochs()
        .filter(|(_, _, rec)| is_lossy(rec))
        .map(|(_, _, rec)| (rec.p_hat, fb_error(&fb, &rec)))
        .collect();
    if points.is_empty() {
        return Err("no lossy epochs in this dataset".into());
    }

    out.push_str("# fig09: a-priori loss rate p^ vs FB prediction error E (lossy epochs)\n");
    out.push_str(&render::series("p_hat_vs_e", &points));
    outln!(out, "# n={} {}", points.len(), correlations(&points));
    Ok(vec![Artifact::new("fig09_loss_vs_error.txt", out)])
}
