//! Exports a dataset as flat CSV for external analysis/plotting: one row
//! per measurement epoch with the path's static parameters attached.
//!
//! ```text
//! cargo run --release -p tputpred-bench --bin repro -- export_csv   # results/epochs_quick.csv
//! ```
//!
//! Rows stream into the file one shard at a time (DESIGN.md §15), so
//! exporting a `synth10k`-scale preset holds only one path's data in
//! memory; the entry returns no in-memory artifact.

use std::io::Write;

use super::{create_artifact, output_dir};
use crate::{fb_config, fb_error, Args, Artifact, EPOCH_CSV_COLUMNS};
use tputpred_core::fb::FbPredictor;
use tputpred_testbed::for_each_path;

/// Missing measurements (degraded/missing epochs) export as empty cells.
fn opt(v: Option<f64>) -> String {
    v.map_or(String::new(), |v| v.to_string())
}

pub fn run(args: &Args) -> Result<Vec<Artifact>, String> {
    let fb = FbPredictor::new(fb_config(&args.preset));
    let file_name = format!("epochs_{}.csv", args.preset.name);
    let (mut csv, path) = create_artifact(&output_dir(&args.preset), &file_name)?;
    let failed = |e| format!("exporting {} to {}: {e}", args.shard_dir().display(), path.display());

    writeln!(csv, "{}", EPOCH_CSV_COLUMNS.join(",")).map_err(failed)?;
    for_each_path(&args.shard_dir(), &args.preset, |_, p| {
        for (ti, t) in p.traces.iter().enumerate() {
            for (ei, r) in t.records.iter().enumerate() {
                let e = r
                    .complete()
                    .map(|c| fb_error(&fb, &c).to_string())
                    .unwrap_or_default();
                writeln!(
                    csv,
                    "{},{},{},{:?},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
                    p.config.name,
                    ti,
                    ei,
                    r.status,
                    p.config.capacity_bps,
                    p.config.base_rtt(),
                    p.config.buffer_packets,
                    p.config.cross.utilization,
                    p.config.cross.elastic_flows,
                    opt(r.a_hat),
                    opt(r.t_hat),
                    opt(r.p_hat),
                    opt(r.t_tilde),
                    opt(r.p_tilde),
                    opt(r.r_large),
                    opt(r.r_small),
                    opt(r.r_prefix_quarter),
                    opt(r.r_prefix_half),
                    r.flow_loss_events,
                    r.flow_retx_rate,
                    r.flow_rtt,
                    r.true_avail_bw,
                    e
                )?;
            }
        }
        Ok(())
    })
    .and_then(|_| csv.flush())
    .map_err(failed)?;
    eprintln!("# wrote {}", path.display());
    Ok(Vec::new())
}
