//! **Ablation (paper §7, future work)** — the hybrid FB/HB predictor:
//! "it would be interesting to examine hybrid predictors, which rely on
//! TCP models as well as on recent history."
//!
//! Evaluates three predictors over every trace with the *same* protocol:
//! one prediction per epoch, scored against the epoch's large-window
//! transfer, using that epoch's a-priori measurements (FB inputs) and
//! the previous epochs' throughputs (HB inputs):
//!
//! * `fb`     — Eq. 3 alone (no history needed);
//! * `hb`     — HW-LSO alone (undefined until history exists; those
//!   epochs are skipped in its score);
//! * `hybrid` — [`tputpred_core::hybrid::HybridPredictor`]: FB-weighted
//!   while history is short, HB-dominated after (weight 1/(h+1)).
//!
//! All three are resolved from the predictor registry
//! ([`tputpred_core::catalog::predictor_by_name`]) and driven through
//! the unified [`Predictor`] trait.
//!
//! Expected shape: the hybrid matches FB on the first epochs of a trace
//! and converges to HB's accuracy — it is never much worse than the
//! better of the two, which is the point of hybridising.

use crate::{a_priori, fb_config, load_dataset, quantile_row, Args, Artifact};
use tputpred_core::catalog::predictor_by_name;
use tputpred_core::metrics::{relative_error_floored, rmsre};
use tputpred_core::predictor::{EpochObservation, Predictor};
use tputpred_stats::{quantile, render};

pub fn run(args: &Args) -> Result<Vec<Artifact>, String> {
    let mut out = String::new();
    let ds = load_dataset(args)?;
    let cfg = fb_config(&ds.preset);
    let fb = predictor_by_name("FB", &cfg).expect("FB is in the registry");

    let mut fb_rmsres = Vec::new();
    let mut hb_rmsres = Vec::new();
    let mut hybrid_rmsres = Vec::new();
    let mut early_fb = Vec::new(); // errors on the first 3 epochs per trace
    let mut early_hybrid = Vec::new();
    for p in &ds.paths {
        for t in &p.traces {
            let mut hb = predictor_by_name("0.8-HW-LSO", &cfg).expect("in the registry");
            let mut hybrid = predictor_by_name("hybrid", &cfg).expect("in the registry");
            let mut fb_errors = Vec::new();
            let mut hb_errors = Vec::new();
            let mut hybrid_errors = Vec::new();
            for (i, rec) in t.records.iter().filter_map(|r| r.complete()).enumerate() {
                let features = a_priori(&rec).into();
                let e_fb =
                    relative_error_floored(fb.predict(&features).unwrap_or(f64::NAN), rec.r_large);
                fb_errors.push(e_fb);
                hb_errors.extend(hb.forecast().map(|p| relative_error_floored(p, rec.r_large)));
                let e_hy = relative_error_floored(
                    hybrid.predict(&features).unwrap_or(1.0).max(1.0),
                    rec.r_large,
                );
                hybrid_errors.push(e_hy);
                if i < 3 {
                    early_fb.push(e_fb);
                    early_hybrid.push(e_hy);
                }
                hb.update(rec.r_large);
                hybrid.observe(&EpochObservation::sample(rec.r_large));
            }
            fb_rmsres.extend(rmsre(&fb_errors));
            hb_rmsres.extend(rmsre(&hb_errors));
            hybrid_rmsres.extend(rmsre(&hybrid_errors));
        }
    }

    out.push_str("# abl_hybrid: per-trace RMSRE quantiles for FB, HB (HW-LSO), and the hybrid\n");
    let mut table = render::Table::new(["predictor", "p25", "median", "p75"]);
    for (name, rmsres) in [
        ("fb", &fb_rmsres),
        ("hb_hw_lso", &hb_rmsres),
        ("hybrid", &hybrid_rmsres),
    ] {
        table.row(quantile_row(name, rmsres, &[0.25, 0.5, 0.75]));
    }
    out.push_str(&table.render());
    out.push_str("# cold start (first 3 epochs, where pure HB has little or no history):\n");
    let median_abs = |errors: &[f64]| {
        quantile(&errors.iter().map(|e| e.abs()).collect::<Vec<_>>(), 0.5)
            .ok_or("no complete epochs to score")
    };
    outln!(
        out,
        "#   fb median |E| = {:.3}, hybrid median |E| = {:.3}",
        median_abs(&early_fb)?,
        median_abs(&early_hybrid)?
    );
    Ok(vec![Artifact::new("abl_hybrid.txt", out)])
}
