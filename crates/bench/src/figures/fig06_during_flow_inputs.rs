//! **Fig. 6** — CDF of the FB prediction error when the formula is fed
//! the *during-flow* probe estimates (T̃, p̃) instead of the a-priori
//! ones (T̂, p̂), over lossy epochs.
//!
//! §4.2.3's hypothetical: even knowing the path's state during the flow,
//! periodic probing samples the path differently than TCP does, so large
//! errors remain — but the error distribution becomes roughly symmetric
//! and much tighter than with a-priori inputs.

use crate::{during_flow, fb_config, fb_error, is_lossy, load_dataset, push_cdf, Args, Artifact};
use tputpred_core::fb::FbPredictor;
use tputpred_core::metrics::relative_error_floored;

pub fn run(args: &Args) -> Result<Vec<Artifact>, String> {
    let mut out = String::new();
    let ds = load_dataset(args)?;
    let fb = FbPredictor::new(fb_config(&ds.preset));

    let mut with_a_priori = Vec::new();
    let mut with_during = Vec::new();
    for (_, _, rec) in ds.complete_epochs() {
        if !is_lossy(&rec) {
            continue;
        }
        with_a_priori.push(fb_error(&fb, &rec));
        with_during.push(relative_error_floored(
            fb.predict(&during_flow(&rec)),
            rec.r_large,
        ));
    }
    if with_during.is_empty() {
        return Err("no lossy epochs in this dataset".into());
    }

    out.push_str(
        "# fig06: FB error with during-flow (T~, p~) vs a-priori (T^, p^) inputs (lossy epochs)\n",
    );
    for (name, errors) in [
        ("a_priori_inputs", &with_a_priori),
        ("during_flow_inputs", &with_during),
    ] {
        let cdf = push_cdf(&mut out, name, errors, 60)?;
        outln!(
            out,
            "# {name}: n={} median={:.3} P(|E|<3)={:.3} P(E>0)={:.3}",
            errors.len(),
            cdf.quantile(0.5),
            cdf.fraction_below(3.0) - cdf.fraction_below(-3.0),
            1.0 - cdf.fraction_below(0.0)
        );
    }
    Ok(vec![Artifact::new("fig06_during_flow_inputs.txt", out)])
}
