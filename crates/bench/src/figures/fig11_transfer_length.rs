//! **Fig. 11** — FB prediction accuracy for transfers of different
//! lengths, using the second (2006-style) measurement set with longer
//! transfers: the same prediction is scored against the throughput of
//! the first quarter, the first half, and the full transfer (the
//! paper's 30/60/120 s split).
//!
//! Paper finding: no noticeable correlation between transfer duration
//! and prediction error (for flows long enough that slow start is
//! negligible).
//!
//! A run at the `quick` preset reads the `quick-2006` dataset instead
//! (its artifact still lands with the other `quick` outputs in
//! `results/`); any other preset is read as given.

use crate::{a_priori, fb_config, load_dataset, push_cdf, Args, Artifact};
use tputpred_core::fb::FbPredictor;
use tputpred_core::metrics::relative_error_floored;
use tputpred_testbed::Preset;

pub fn run(args: &Args) -> Result<Vec<Artifact>, String> {
    let mut out = String::new();
    // This figure is defined on the long-transfer dataset.
    let mut args = args.clone();
    if args.preset.name == "quick" {
        args.preset = Preset::quick_2006();
    }
    let ds = load_dataset(&args)?;
    let fb = FbPredictor::new(fb_config(&ds.preset));

    let mut quarter = Vec::new();
    let mut half = Vec::new();
    let mut full = Vec::new();
    for (_, _, rec) in ds.complete_epochs() {
        let pred = fb.predict(&a_priori(&rec));
        quarter.push(relative_error_floored(pred, rec.r_prefix_quarter));
        half.push(relative_error_floored(pred, rec.r_prefix_half));
        full.push(relative_error_floored(pred, rec.r_large));
    }

    let secs = ds.preset.transfer.as_secs_f64();
    outln!(
        out,
        "# fig11: FB error CDF vs transfer length (prefixes of {secs:.0}-s transfers)"
    );
    for (name, errors) in [
        (format!("first_{:.0}s", secs / 4.0), &quarter),
        (format!("first_{:.0}s", secs / 2.0), &half),
        (format!("full_{secs:.0}s"), &full),
    ] {
        let cdf = push_cdf(&mut out, &name, errors, 60)?;
        outln!(
            out,
            "# {name}: median={:.3} P(|E|<1)={:.3}",
            cdf.quantile(0.5),
            cdf.fraction_below(1.0) - cdf.fraction_below(-1.0)
        );
    }
    Ok(vec![Artifact::new("fig11_transfer_length.txt", out)])
}
