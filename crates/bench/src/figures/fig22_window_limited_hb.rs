//! **Fig. 22** — per-path HB (HW-LSO) RMSRE for window-limited
//! (W = 20 KB) versus congestion-limited (W = 1 MB) transfer series.
//!
//! Paper findings: window-limited series are more predictable (lower
//! RMSRE) on essentially every path, though the gap narrows where the
//! congestion-limited RMSRE is already small (~0.1).

use crate::{hw_lso, load_dataset, trace_rmsre, Args, Artifact};
use tputpred_stats::render;

pub fn run(args: &Args) -> Result<Vec<Artifact>, String> {
    let mut out = String::new();
    let ds = load_dataset(args)?;

    out.push_str("# fig22: per-path HW-LSO RMSRE, W=1MB vs W=20KB series\n");
    let mut table = render::Table::new(["path", "rmsre_w1mb", "rmsre_w20kb"]);
    let mut wins = 0usize;
    let mut comparable = 0usize;
    for p in &ds.paths {
        let mut large = Vec::new();
        let mut small = Vec::new();
        for t in &p.traces {
            let series = t.throughput_series();
            large.extend(trace_rmsre(hw_lso, &series));
            if let Some(s_series) = t.small_window_series() {
                small.extend(trace_rmsre(hw_lso, &s_series));
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        if large.is_empty() || small.is_empty() {
            continue;
        }
        let (ml, ms) = (mean(&large), mean(&small));
        comparable += 1;
        wins += usize::from(ms <= ml);
        table.row([p.config.name.clone(), render::f(ml), render::f(ms)]);
    }
    out.push_str(&table.render());
    outln!(
        out,
        "# window-limited series at least as predictable on {wins}/{comparable} paths"
    );
    Ok(vec![Artifact::new("fig22_window_limited_hb.txt", out)])
}
