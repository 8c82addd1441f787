//! **Ablation (§6.1.4 / SIGCOMM analysis)** — prediction error versus
//! the degree of statistical multiplexing at constant utilization.
//!
//! The paper's queueing analysis predicts that at fixed utilization the
//! prediction error *decreases as the number of competing flows rises*
//! (aggregate traffic smooths out); unverifiable on RON, verifiable
//! here: split the same bursty load across 1–16 independent on-off
//! sources and report the HW-LSO RMSRE and the trace CoV.

use crate::{hw_lso, trace_rmsre, Args, Artifact};
use tputpred_core::lso::LsoConfig;
use tputpred_core::metrics::segmented_cov;
use tputpred_stats::render;
use tputpred_testbed::{catalog_2004, run_trace, Preset};

pub fn run(args: &Args) -> Result<Vec<Artifact>, String> {
    let mut out = String::new();
    let preset = Preset {
        name: format!("abl-mux-{}", args.preset.name),
        paths: 3,
        traces_per_path: 1,
        epochs_per_trace: 30,
        with_small_window: false,
        ..args.preset.clone()
    };
    let mut base_path = catalog_2004(3, 77).remove(2);
    base_path.capacity_bps = 10e6;
    base_path.buffer_packets = 40;
    base_path.cross.utilization = 0.7;
    base_path.cross.pareto_fraction = 1.0; // all load is bursty on-off
    base_path.cross.elastic_flows = 0;
    base_path.cross.shifts_per_trace = 0.0;
    base_path.cross.bursts_per_trace = 0.0;

    out.push_str("# abl_multiplexing: prediction error vs competing sources at 70% utilization\n");
    let mut table = render::Table::new(["sources", "hb_rmsre_hw_lso", "trace_cov"]);
    for n in [1u32, 2, 4, 8, 16] {
        let mut path = base_path.clone();
        path.cross.pareto_sources = n;
        let trace = run_trace(&path, 0, &preset);
        let series = trace.throughput_series();
        let hb = trace_rmsre(hw_lso, &series).unwrap_or(f64::NAN);
        let cov = segmented_cov(&series, LsoConfig::default()).unwrap_or(f64::NAN);
        table.row([n.to_string(), render::f(hb), render::f(cov)]);
    }
    out.push_str(&table.render());
    out.push_str(
        "# expected shape: rmsre and cov fall as sources rise (paper's queueing analysis, result 2)\n",
    );
    Ok(vec![Artifact::new("abl_multiplexing.txt", out)])
}
