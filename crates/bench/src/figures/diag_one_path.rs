//! Diagnostic: per-epoch detail for the quietest catalog paths, to see
//! what limits transfer throughput relative to spare capacity.

use crate::{Args, Artifact};
use tputpred_stats::render;
use tputpred_testbed::{catalog_for, run_trace};

pub fn run(args: &Args) -> Result<Vec<Artifact>, String> {
    let mut out = String::new();
    let catalog = catalog_for(&args.preset);
    let mut quiet: Vec<_> = catalog
        .iter()
        .filter(|p| p.cross.utilization < 0.5 && p.cross.elastic_flows == 0)
        .take(3)
        .collect();
    quiet.sort_by(|a, b| a.cross.utilization.total_cmp(&b.cross.utilization));
    for path in quiet {
        outln!(
            out,
            "# path {} cap={:.1}M rtt={:.0}ms buf={}pkts util={:.2} pareto_frac={:.2} duty={:.2} srcs={} shifts={:.1} bursts={:.1}",
            path.name,
            path.capacity_bps / 1e6,
            path.base_rtt() * 1e3,
            path.buffer_packets,
            path.cross.utilization,
            path.cross.pareto_fraction,
            path.cross.duty_cycle,
            path.cross.pareto_sources,
            path.cross.shifts_per_trace,
            path.cross.bursts_per_trace
        );
        let mut preset = args.preset.clone();
        preset.epochs_per_trace = 8;
        let trace = run_trace(path, 0, &preset);
        let mut t = render::Table::new([
            "epoch",
            "r_mbps",
            "true_avail",
            "a_hat",
            "p_hat",
            "p_tilde",
            "loss_ev",
            "retx",
            "t_hat_ms",
        ]);
        for (i, r) in trace.records.iter().enumerate() {
            t.row([
                i.to_string(),
                render::mbps(r.r_large.unwrap_or(f64::NAN)),
                render::mbps(r.true_avail_bw),
                render::mbps(r.a_hat.unwrap_or(f64::NAN)),
                render::f(r.p_hat.unwrap_or(f64::NAN)),
                render::f(r.p_tilde.unwrap_or(f64::NAN)),
                r.flow_loss_events.to_string(),
                render::f(r.flow_retx_rate),
                format!("{:.1}", r.t_hat.unwrap_or(f64::NAN) * 1e3),
            ]);
        }
        out.push_str(&t.render());
    }
    Ok(vec![Artifact::new("diag_one_path.txt", out)])
}
