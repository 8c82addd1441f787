//! Diagnostic (not a paper figure): decomposes FB error sources against
//! the simulator's ground truth, guiding testbed calibration.
//!
//! * `a_hat / true_avail` — pathload bias;
//! * `r_large / true_avail` — how close the transfer gets to the spare
//!   capacity (lossless paths);
//! * `p_hat` vs the flow's own retransmit rate — probing-vs-TCP sampling.

use crate::{is_lossy, load_dataset, quantile_row, Args, Artifact};
use tputpred_stats::render;

pub fn run(args: &Args) -> Result<Vec<Artifact>, String> {
    let mut out = String::new();
    let ds = load_dataset(args)?;

    let mut availbw_bias = Vec::new();
    let mut r_vs_avail_lossless = Vec::new();
    let mut r_vs_avail_lossy = Vec::new();
    let mut p_hat_lossy = Vec::new();
    let mut flow_retx_lossy = Vec::new();
    let mut t_ratio = Vec::new();
    for (_, _, rec) in ds.complete_epochs() {
        if rec.true_avail_bw > 1e3 {
            availbw_bias.push(rec.a_hat / rec.true_avail_bw);
            if is_lossy(&rec) {
                r_vs_avail_lossy.push(rec.r_large / rec.true_avail_bw);
            } else {
                r_vs_avail_lossless.push(rec.r_large / rec.true_avail_bw);
            }
        }
        if is_lossy(&rec) {
            p_hat_lossy.push(rec.p_hat);
            flow_retx_lossy.push(rec.flow_retx_rate);
        }
        if rec.t_hat > 0.0 && rec.flow_rtt > 0.0 {
            t_ratio.push(rec.flow_rtt / rec.t_hat);
        }
    }

    let mut table = render::Table::new(["quantity", "p25", "median", "p75"]);
    for (name, v) in [
        ("a_hat / true_avail", &availbw_bias),
        ("r_large / true_avail (lossless)", &r_vs_avail_lossless),
        ("r_large / true_avail (lossy)", &r_vs_avail_lossy),
        ("p_hat (lossy)", &p_hat_lossy),
        ("flow retx rate (lossy)", &flow_retx_lossy),
        ("flow_rtt / t_hat", &t_ratio),
    ] {
        if v.is_empty() {
            continue;
        }
        table.row(quantile_row(name, v, &[0.25, 0.5, 0.75]));
    }
    out.push_str(&table.render());
    Ok(vec![Artifact::new("diag_calibration.txt", out)])
}
