//! **Fig. 3** — CDF of the *absolute* RTT and loss-rate increases during
//! the target flow: `T̃ − T̂` (milliseconds) and `p̃ − p̂`.
//!
//! Paper findings: in ~half the epochs the RTT barely moves; a large
//! fraction sees increases of 5–60 ms; loss rate increases by 0.1–2% in
//! almost all epochs — the §3.2 "errors due to load increase" mechanism.

use crate::{load_dataset, push_cdf, Args, Artifact};

pub fn run(args: &Args) -> Result<Vec<Artifact>, String> {
    let mut out = String::new();
    let ds = load_dataset(args)?;

    let (rtt_inc_ms, loss_inc): (Vec<f64>, Vec<f64>) = ds
        .complete_epochs()
        .map(|(_, _, r)| ((r.t_tilde - r.t_hat) * 1e3, r.p_tilde - r.p_hat))
        .unzip();

    out.push_str("# fig03: CDF of absolute RTT and loss-rate increase during the target flow\n");
    let rtt = push_cdf(&mut out, "rtt_increase_ms", &rtt_inc_ms, 60)?;
    outln!(
        out,
        "# rtt: median={:.2} ms, P(increase > 5 ms)={:.3}",
        rtt.quantile(0.5),
        1.0 - rtt.fraction_below(5.0)
    );
    let loss = push_cdf(&mut out, "loss_rate_increase", &loss_inc, 60)?;
    outln!(
        out,
        "# loss: median={:.5}, P(increase > 0.001)={:.3}",
        loss.quantile(0.5),
        1.0 - loss.fraction_below(0.001)
    );
    Ok(vec![Artifact::new("fig03_abs_increase_cdf.txt", out)])
}
