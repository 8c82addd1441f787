//! **Fig. 12** — per-path FB RMSRE for congestion-limited (W = 1 MB)
//! versus window-limited (W = 20 KB) transfers (log-scale Y in the
//! paper).
//!
//! Paper findings: the window-limited transfers are more predictable on
//! every path, often by a large factor; on most window-limited paths
//! RMSRE < 1.0, an error level many applications can live with
//! (§4.2.8's advice: cap the advertised window if you care about
//! predictability more than peak throughput).

use crate::{a_priori, fb_config, fb_config_small, fb_error, load_dataset, Args, Artifact};
use tputpred_core::fb::FbPredictor;
use tputpred_core::metrics::{relative_error_floored, rmsre};
use tputpred_stats::render;

pub fn run(args: &Args) -> Result<Vec<Artifact>, String> {
    let mut out = String::new();
    let ds = load_dataset(args)?;
    let fb_large = FbPredictor::new(fb_config(&ds.preset));
    let fb_small = FbPredictor::new(fb_config_small(&ds.preset));

    out.push_str(
        "# fig12: per-path FB RMSRE, W=1MB (congestion-limited) vs W=20KB (window-limited)\n",
    );
    let mut table = render::Table::new([
        "path",
        "rmsre_w1mb",
        "rmsre_w20kb",
        "ratio",
        "window_limited_frac",
    ]);
    let mut small_below_one = 0usize;
    let mut paths_with_small = 0usize;
    for p in &ds.paths {
        let mut e_large = Vec::new();
        let mut e_small = Vec::new();
        let mut wl = 0usize;
        let mut n = 0usize;
        for rec in p
            .traces
            .iter()
            .flat_map(|t| t.records.iter())
            .filter_map(|r| r.complete())
        {
            e_large.push(fb_error(&fb_large, &rec));
            if let Some(r_small) = rec.r_small {
                e_small.push(relative_error_floored(
                    fb_small.predict(&a_priori(&rec)),
                    r_small,
                ));
            }
            wl += usize::from(fb_small.is_window_limited(&a_priori(&rec)));
            n += 1;
        }
        let rl = rmsre(&e_large).unwrap_or(f64::NAN);
        let rs = rmsre(&e_small);
        paths_with_small += usize::from(rs.is_some());
        small_below_one += usize::from(rs.is_some_and(|rs| rs < 1.0));
        table.row([
            p.config.name.clone(),
            render::f(rl),
            rs.map_or("n/a".into(), render::f),
            rs.map_or("n/a".into(), |rs| render::f(rl / rs)),
            render::f(wl as f64 / n.max(1) as f64),
        ]);
    }
    out.push_str(&table.render());
    outln!(
        out,
        "# paths with window-limited RMSRE < 1.0: {small_below_one}/{paths_with_small}"
    );
    Ok(vec![Artifact::new("fig12_window_limited_fb.txt", out)])
}
