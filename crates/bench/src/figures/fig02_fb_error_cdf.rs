//! **Fig. 2** — CDF of the relative prediction error `E` for all FB
//! predictions, for predictions on lossy paths (PFTK branch of Eq. 3),
//! and for predictions on lossless paths (avail-bw branch).
//!
//! Paper findings this should reproduce: ~40% of predictions
//! overestimate by more than 2× (E ≥ 1); overestimations ≥ 10× exist;
//! underestimation is much rarer; lossless-path predictions are markedly
//! better and almost never underestimate.

use crate::{fb_config, fb_error, is_lossy, load_dataset, push_cdf, Args, Artifact};
use tputpred_core::fb::FbPredictor;

pub fn run(args: &Args) -> Result<Vec<Artifact>, String> {
    let mut out = String::new();
    let ds = load_dataset(args)?;
    let fb = FbPredictor::new(fb_config(&ds.preset));

    let mut all = Vec::new();
    let mut lossy = Vec::new();
    let mut lossless = Vec::new();
    for (_, _, rec) in ds.complete_epochs() {
        let e = fb_error(&fb, &rec);
        all.push(e);
        if is_lossy(&rec) {
            lossy.push(e);
        } else {
            lossless.push(e);
        }
    }

    out.push_str("# fig02: CDF of relative prediction error E (Eq. 4), FB predictor (Eq. 3)\n");
    out.push_str("# x = E, y = fraction of predictions with error <= x\n");
    let groups = [("all", &all), ("lossy", &lossy), ("lossless", &lossless)];
    for (name, errors) in groups {
        if errors.is_empty() {
            outln!(out, "# series: {name} (empty)");
            continue;
        }
        let cdf = push_cdf(&mut out, name, errors, 60)?;
        outln!(
            out,
            "# {name}: n={} P(E>=1)={:.3} P(E>=9)={:.3} P(E<=-1)={:.3}",
            errors.len(),
            1.0 - cdf.fraction_below(1.0 - 1e-12),
            1.0 - cdf.fraction_below(9.0 - 1e-12),
            cdf.fraction_below(-1.0)
        );
    }
    Ok(vec![Artifact::new("fig02_fb_error_cdf.txt", out)])
}
