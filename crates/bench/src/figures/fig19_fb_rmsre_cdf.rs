//! **Fig. 19** — CDF over traces of the per-trace *FB* RMSRE, for
//! comparison against the HB predictors of Figs. 16–17 (§6.1.2).
//!
//! Paper findings: HB is dramatically better — HB RMSRE < 0.4 for ~90%
//! of traces, while the same percentile of FB RMSRE is ~20 and the FB
//! median is ~2. If a throughput history exists, use it.

use crate::{fb_config, fb_trace_rmsre, hw_lso, load_dataset, push_cdf, rmsre_per_trace};
use crate::{Args, Artifact};
use tputpred_core::fb::FbPredictor;

pub fn run(args: &Args) -> Result<Vec<Artifact>, String> {
    let mut out = String::new();
    let ds = load_dataset(args)?;
    let fb = FbPredictor::new(fb_config(&ds.preset));

    let fb_rmsres: Vec<f64> = ds
        .paths
        .iter()
        .flat_map(|p| p.traces.iter())
        .filter_map(|t| fb_trace_rmsre(&fb, t))
        .collect();
    let hb_rmsres = rmsre_per_trace(&ds, hw_lso);

    out.push_str("# fig19: CDF over traces of per-trace RMSRE — FB vs HB (0.8-HW-LSO)\n");
    for (name, rmsres) in [("fb", &fb_rmsres), ("hb_hw_lso", &hb_rmsres)] {
        let cdf = push_cdf(&mut out, name, rmsres, 50)?;
        outln!(
            out,
            "# {name}: n={} median={:.3} p90={:.3} P(RMSRE<0.4)={:.3}",
            rmsres.len(),
            cdf.quantile(0.5),
            cdf.quantile(0.9),
            cdf.fraction_below(0.4)
        );
    }
    Ok(vec![Artifact::new("fig19_fb_rmsre_cdf.txt", out)])
}
