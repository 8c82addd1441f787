//! **Ablation (§6.1.4 / SIGCOMM analysis)** — prediction error versus
//! bottleneck utilization.
//!
//! The paper's queueing analysis predicts that HB prediction error
//! *increases with the utilization of the bottleneck link*; the authors
//! could not verify it on RON because utilization was unobservable.
//! Here the bottleneck is ours: sweep the inelastic cross-traffic
//! utilization of one controlled path and report the HW-LSO RMSRE and
//! the FB error at each level.
//!
//! This ablation simulates at run time (a few seconds; it does not use
//! the cached dataset). `--preset` selects the epoch scale.

use crate::{fb_config, fb_trace_rmsre, hw_lso, trace_rmsre, Args, Artifact};
use tputpred_core::fb::FbPredictor;
use tputpred_stats::render;
use tputpred_testbed::{catalog_2004, run_trace, Preset};

pub fn run(args: &Args) -> Result<Vec<Artifact>, String> {
    let mut out = String::new();
    // A short trace per utilization level, based on the preset's epoch
    // shape but fixed to a single path and trace.
    let preset = Preset {
        name: format!("abl-util-{}", args.preset.name),
        paths: 3,
        traces_per_path: 1,
        epochs_per_trace: 30,
        ..args.preset.clone()
    };
    let mut base_path = catalog_2004(3, 4242).remove(2);
    base_path.capacity_bps = 10e6;
    base_path.buffer_packets = 40;
    base_path.cross.elastic_flows = 0;
    base_path.cross.shifts_per_trace = 1.0;
    base_path.cross.bursts_per_trace = 1.0;
    base_path.cross.pareto_sources = 2;

    out.push_str("# abl_utilization: prediction error vs bottleneck utilization (10 Mbps path)\n");
    let mut table = render::Table::new([
        "utilization",
        "hb_rmsre_hw_lso",
        "fb_rmsre",
        "mean_tput_mbps",
    ]);
    let fb = FbPredictor::new(fb_config(&preset));
    for util in [0.1, 0.3, 0.5, 0.7, 0.85, 0.95] {
        let mut path = base_path.clone();
        path.cross.utilization = util;
        let trace = run_trace(&path, 0, &preset);
        let series = trace.throughput_series();
        let hb = trace_rmsre(hw_lso, &series).unwrap_or(f64::NAN);
        let fb_rmsre = fb_trace_rmsre(&fb, &trace).unwrap_or(f64::NAN);
        let mean_tput = series.iter().sum::<f64>() / series.len() as f64;
        table.row([
            render::f(util),
            render::f(hb),
            render::f(fb_rmsre),
            render::mbps(mean_tput),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(
        "# expected shape: hb_rmsre grows with utilization (paper's queueing analysis, result 1)\n",
    );
    Ok(vec![Artifact::new("abl_utilization.txt", out)])
}
