//! **Fig. 13** — CDF of the FB error using the original PFTK
//! approximation (Eq. 2) versus the revised PFTK model (the paper's
//! ref. \[26\]); the full PFTK model is included as a third series.
//!
//! Paper finding: the difference between the predictors is *negligible*
//! compared to FB prediction's other error sources — fixing the formula
//! does not fix FB prediction.

use crate::{fb_config_with_model, fb_error, is_lossy, load_dataset, push_cdf, Args, Artifact};
use tputpred_core::fb::{FbModel, FbPredictor};

pub fn run(args: &Args) -> Result<Vec<Artifact>, String> {
    let mut out = String::new();
    let ds = load_dataset(args)?;

    out.push_str("# fig13: FB error CDF with original vs revised (vs full) PFTK (lossy epochs)\n");
    let models = [
        ("pftk_eq2", FbModel::PftkSimple),
        ("pftk_revised", FbModel::PftkRevised),
        ("pftk_full", FbModel::PftkFull),
    ];
    let mut medians = Vec::new();
    for (name, model) in models {
        let fb = FbPredictor::new(fb_config_with_model(&ds.preset, model));
        let errors: Vec<f64> = ds
            .complete_epochs()
            .filter(|(_, _, rec)| is_lossy(rec))
            .map(|(_, _, rec)| fb_error(&fb, &rec))
            .collect();
        if errors.is_empty() {
            return Err("no lossy epochs in this dataset".into());
        }
        let cdf = push_cdf(&mut out, name, &errors, 60)?;
        medians.push(cdf.quantile(0.5));
        outln!(
            out,
            "# {name}: median={:.3} P(E>=1)={:.3}",
            cdf.quantile(0.5),
            1.0 - cdf.fraction_below(1.0 - 1e-12)
        );
    }
    let lo = medians.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = medians.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    outln!(
        out,
        "# median spread across models: {:.3} (negligible vs the error magnitudes above)",
        hi - lo
    );
    Ok(vec![Artifact::new("fig13_revised_pftk.txt", out)])
}
