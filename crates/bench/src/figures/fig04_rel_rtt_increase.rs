//! **Fig. 4** — CDF of the *relative* RTT increase during the target
//! flow, `(T̃ − T̂)/T̃`, over lossy epochs.
//!
//! §4.2.2 relates this directly to FB error through the square-root law:
//! `E = (T̃√p̃)/(T̂√p̂) − 1`. Paper: for ~20% of epochs the relative RTT
//! increase exceeds 0.5; the mean ratio T̃/T̂ is ~1.3.

use crate::{is_lossy, load_dataset, push_cdf, Args, Artifact};

pub fn run(args: &Args) -> Result<Vec<Artifact>, String> {
    let mut out = String::new();
    let ds = load_dataset(args)?;

    let rel: Vec<f64> = ds
        .complete_epochs()
        .filter(|(_, _, r)| is_lossy(r) && r.t_tilde > 0.0)
        .map(|(_, _, r)| (r.t_tilde - r.t_hat) / r.t_tilde)
        .collect();
    if rel.is_empty() {
        return Err("no lossy epochs in this dataset".into());
    }

    out.push_str("# fig04: CDF of relative RTT increase (T~ - T^)/T~ (lossy epochs)\n");
    let cdf = push_cdf(&mut out, "rel_rtt_increase", &rel, 60)?;
    let mean_ratio: f64 = ds
        .complete_epochs()
        .filter(|(_, _, r)| is_lossy(r) && r.t_hat > 0.0)
        .map(|(_, _, r)| r.t_tilde / r.t_hat)
        .sum::<f64>()
        / rel.len() as f64;
    outln!(
        out,
        "# n={} P(rel increase > 0.5)={:.3} mean T~/T^={:.3}",
        rel.len(),
        1.0 - cdf.fraction_below(0.5),
        mean_ratio
    );
    Ok(vec![Artifact::new("fig04_rel_rtt_increase.txt", out)])
}
