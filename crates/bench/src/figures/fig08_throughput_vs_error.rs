//! **Fig. 8** — scatter of actual throughput `R` against FB prediction
//! error `E`.
//!
//! Paper finding: the large overestimations concentrate at *small*
//! throughputs — "42% of the samples with R ≤ 0.5 Mbps have E > 10,
//! compared to 0.2% for samples with R ≥ 0.5 Mbps". Congested, slow
//! paths are the hard ones.

use crate::{fb_config, fb_error, load_dataset, Args, Artifact};
use tputpred_core::fb::FbPredictor;
use tputpred_stats::render;

pub fn run(args: &Args) -> Result<Vec<Artifact>, String> {
    let mut out = String::new();
    let ds = load_dataset(args)?;
    let fb = FbPredictor::new(fb_config(&ds.preset));

    let points: Vec<(f64, f64)> = ds
        .complete_epochs()
        .map(|(_, _, rec)| (rec.r_large / 1e6, fb_error(&fb, &rec)))
        .collect();

    out.push_str("# fig08: actual throughput (Mbps) vs FB prediction error E\n");
    out.push_str(&render::series("r_vs_e", &points));

    let (slow, fast): (Vec<_>, Vec<_>) = points.iter().partition(|(r, _)| *r <= 0.5);
    let frac = |v: &[&(f64, f64)]| {
        v.iter().filter(|(_, e)| *e > 10.0).count() as f64 / v.len().max(1) as f64
    };
    outln!(
        out,
        "# P(E>10 | R<=0.5 Mbps) = {:.3} (n={}), P(E>10 | R>0.5 Mbps) = {:.3} (n={})",
        frac(&slow),
        slow.len(),
        frac(&fast),
        fast.len()
    );
    Ok(vec![Artifact::new("fig08_throughput_vs_error.txt", out)])
}
