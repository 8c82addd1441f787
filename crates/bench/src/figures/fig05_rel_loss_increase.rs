//! **Fig. 5** — CDF of the *relative* loss-rate increase during the
//! target flow, `(p̃ − p̂)/p̃`, over epochs that were lossy a priori
//! (p̂ > 0).
//!
//! Paper: for >70% of such epochs the relative increase exceeds 1.25
//! (p̃ > 2.25·p̂); on average the during-flow loss rate is ~5× the
//! a-priori loss rate — the dominant cause of FB overestimation.

use crate::{is_lossy, load_dataset, push_cdf, Args, Artifact};

pub fn run(args: &Args) -> Result<Vec<Artifact>, String> {
    let mut out = String::new();
    let ds = load_dataset(args)?;

    let records: Vec<(f64, f64)> = ds
        .complete_epochs()
        .filter(|(_, _, r)| is_lossy(r) && r.p_tilde > 0.0)
        .map(|(_, _, r)| (r.p_hat, r.p_tilde))
        .collect();
    if records.is_empty() {
        return Err("no a-priori-lossy epochs in this dataset".into());
    }

    let rel: Vec<f64> = records
        .iter()
        .map(|&(p_hat, p_tilde)| (p_tilde - p_hat) / p_tilde)
        .collect();
    out.push_str(
        "# fig05: CDF of relative loss-rate increase (p~ - p^)/p~ (a-priori lossy epochs)\n",
    );
    let cdf = push_cdf(&mut out, "rel_loss_increase", &rel, 60)?;
    let mean_ratio: f64 = records
        .iter()
        .map(|&(p_hat, p_tilde)| p_tilde / p_hat.max(1e-9))
        .sum::<f64>()
        / records.len() as f64;
    outln!(
        out,
        "# n={} P(rel increase > 0.555 i.e. p~ > 2.25 p^)={:.3} mean p~/p^={:.2}",
        rel.len(),
        // (p~ - p^)/p~ > 1 - 1/2.25
        1.0 - cdf.fraction_below(1.0 - 1.0 / 2.25),
        mean_ratio
    );
    Ok(vec![Artifact::new("fig05_rel_loss_increase.txt", out)])
}
