//! Generates (or refreshes) the sharded dataset cache for a preset and
//! renders a compact sanity summary. Run this once before the figure
//! entries to pay the simulation cost up front:
//!
//! ```text
//! cargo run --release -p tputpred-bench --bin repro -- gen_dataset
//! ```
//!
//! The cache is per-path shards under `data/<preset>/` (DESIGN.md §9):
//! only missing, corrupt, or out-of-date shards are regenerated, and the
//! shard reuse counts are reported either way. Paths are **streamed**
//! (DESIGN.md §15): the summary accumulates while each shard is visited
//! and dropped, so `synth10k`-scale presets cost O(one path) memory.
//! The profiled form of the same walk is the `perf_report` binary
//! (DESIGN.md §11).

use crate::{fb_config, fb_error, is_lossy, require_cdf, Args, Artifact};
use tputpred_core::fb::FbPredictor;
use tputpred_stats::render;
use tputpred_testbed::{for_each_path, EpochStatus, PathData};

pub fn run(args: &Args) -> Result<Vec<Artifact>, String> {
    let mut out = String::new();
    let fb = FbPredictor::new(fb_config(&args.preset));

    // The per-epoch summary state: fed by the streaming visitor one
    // path at a time, identical to what a full-Dataset pass computed.
    let mut epoch_count = 0usize;
    let mut degraded = 0usize;
    let mut errors = Vec::new();
    let mut lossy = 0usize;
    let mut over = 0usize;
    let mut r_all = Vec::new();
    let visit = |_id: usize, path: &PathData| {
        for trace in &path.traces {
            for rec in &trace.records {
                epoch_count += 1;
                degraded += usize::from(rec.status != EpochStatus::Ok);
                let Some(rec) = rec.complete() else { continue };
                let e = fb_error(&fb, &rec);
                over += usize::from(e > 0.0);
                lossy += usize::from(is_lossy(&rec));
                errors.push(e);
                r_all.push(rec.r_large);
            }
        }
        Ok(())
    };

    let shards = for_each_path(&args.shard_dir(), &args.preset, visit)
        .map_err(|e| format!("dataset load: {e}"))?;
    eprintln!(
        "# shards: hit={} missing={} stale={} regenerated={}",
        shards.hits,
        shards.missing,
        shards.stale,
        shards.regenerated()
    );
    outln!(
        out,
        "# dataset: {} ({} epochs)",
        args.preset.name,
        epoch_count
    );

    let n = errors.len();
    let cdf = require_cdf("fb_error", errors.iter().copied())?;
    let tput = require_cdf("throughput_bps", r_all)?;
    let mut t = render::Table::new(["metric", "value"]);
    t.row(["epochs", &n.to_string()]);
    t.row(["degraded/missing epochs", &degraded.to_string()]);
    t.row(["lossy fraction", &render::f(lossy as f64 / n as f64)]);
    t.row([
        "FB overestimation fraction",
        &render::f(over as f64 / n as f64),
    ]);
    t.row([
        "median |E|",
        &render::f(require_cdf("abs_fb_error", errors.iter().map(|e| e.abs()))?.quantile(0.5)),
    ]);
    t.row([
        "P(E >= 1) (off by >= 2x)",
        &render::f(1.0 - cdf.fraction_below(1.0 - 1e-12)),
    ]);
    t.row([
        "P(E >= 9) (off by >= 10x)",
        &render::f(1.0 - cdf.fraction_below(9.0 - 1e-12)),
    ]);
    t.row([
        "median throughput (Mbps)",
        &render::mbps(tput.quantile(0.5)),
    ]);
    out.push_str(&t.render());
    Ok(vec![Artifact::new("gen_dataset.txt", out)])
}
