//! **Fig. 7** — per-path variation of the FB prediction error: median
//! and 10th/90th percentiles of `E` for each path.
//!
//! Paper findings: most paths mainly overestimate; ~10/35 paths have far
//! larger errors and wider ranges (up to E = 10 and beyond) — path
//! predictability itself is path-dependent. (The paper drops its three
//! worst paths from the plot; we print all and flag the extremes.)

use crate::{fb_config, fb_error, load_dataset, quantile_row, Args, Artifact};
use tputpred_core::fb::FbPredictor;
use tputpred_stats::{quantile, render};

pub fn run(args: &Args) -> Result<Vec<Artifact>, String> {
    let mut out = String::new();
    let ds = load_dataset(args)?;
    let fb = FbPredictor::new(fb_config(&ds.preset));

    out.push_str("# fig07: per-path FB error quantiles (E)\n");
    let mut table = render::Table::new(["path", "n", "p10", "median", "p90", "extreme"]);
    for p in &ds.paths {
        let errors: Vec<f64> = p
            .traces
            .iter()
            .flat_map(|t| t.records.iter())
            .filter_map(|rec| rec.complete())
            .map(|rec| fb_error(&fb, &rec))
            .collect();
        if errors.is_empty() {
            continue;
        }
        let p90 = quantile(&errors, 0.9).unwrap_or(f64::NAN);
        let mut row = quantile_row(&p.config.name, &errors, &[0.1, 0.5, 0.9]);
        row.insert(1, errors.len().to_string());
        row.push(if p90 > 10.0 { "*" } else { "" }.to_string());
        table.row(row);
    }
    out.push_str(&table.render());
    Ok(vec![Artifact::new("fig07_per_path_error.txt", out)])
}
