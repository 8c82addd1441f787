//! **Ablation (paper §3.4 / refs \[20, 21\])** — which avail-bw
//! estimator feeds the FB predictor's lossless branch better?
//!
//! The paper uses pathload \[20\]; pathChirp \[21\] is its cited
//! alternative. Both are implemented from scratch; this ablation runs
//! them side by side over a load sweep on the same path and reports each
//! estimate against the true spare capacity and against the throughput a
//! bulk transfer then achieves — separating *estimator bias* from the
//! *avail-bw-vs-TCP gap* (§3.4).

use super::{add_cross_traffic, dumbbell};
use crate::{Args, Artifact};
use tputpred_netsim::link::LinkConfig;
use tputpred_netsim::{Route, Time};
use tputpred_probes::{BulkTransfer, PathChirp, PathChirpConfig, Pathload, PathloadConfig};
use tputpred_stats::render;
use tputpred_tcp::TcpConfig;

pub fn run(_args: &Args) -> Result<Vec<Artifact>, String> {
    let mut out = String::new();
    let capacity = 10e6;
    out.push_str(
        "# abl_availbw: pathload vs pathChirp as FB inputs (10 Mbps path, 25 ms one-way)\n",
    );
    let mut table = render::Table::new([
        "load",
        "kind",
        "true_avail_mbps",
        "pathload_mbps",
        "pathchirp_mbps",
        "bulk_r_mbps",
    ]);
    for (frac, bursty) in [
        (0.0, false),
        (0.3, false),
        (0.3, true),
        (0.6, false),
        (0.6, true),
        (0.85, false),
    ] {
        let load = frac * capacity;
        let link = LinkConfig::new(capacity, Time::from_millis(25), 70);
        let (mut sim, fwd, rev) = dumbbell(61, link);
        if load > 0.0 {
            add_cross_traffic(&mut sim, fwd, load, bursty.then_some((0.6, 1.6, 0.4)));
        }
        let pl = Pathload::deploy(
            &mut sim,
            PathloadConfig {
                max_rate: capacity * 1.5,
                ..PathloadConfig::default()
            },
            Route::direct(fwd),
            Time::from_secs(2),
        );
        sim.run_until(Time::from_secs(40));
        let pl_est = pl.borrow().best_guess().unwrap_or(f64::NAN);
        let pc = PathChirp::deploy(
            &mut sim,
            PathChirpConfig {
                max_rate: capacity * 1.5,
                ..PathChirpConfig::default()
            },
            Route::direct(fwd),
            Time::from_secs(40),
        );
        sim.run_until(Time::from_secs(70));
        let pc_est = pc.borrow().estimate.unwrap_or(f64::NAN);
        let transfer = BulkTransfer::launch(
            &mut sim,
            TcpConfig::default(),
            Route::direct(fwd),
            Route::direct(rev),
            Time::from_secs(70),
            Time::from_secs(100),
        );
        sim.run_until(Time::from_secs(100));
        table.row([
            format!("{frac:.2}"),
            if bursty { "pareto" } else { "poisson" }.into(),
            render::mbps(capacity - load),
            render::mbps(pl_est),
            render::mbps(pc_est),
            render::mbps(transfer.throughput()),
        ]);
    }
    out.push_str(&table.render());
    out.push_str("# expected shape: both estimators track the residual on smooth load and drift\n");
    out.push_str("# high on bursty load (they sample instants, the mean is lower); the bulk\n");
    out.push_str("# transfer lands below either estimate — the section 3.4 gap FB inherits.\n");
    Ok(vec![Artifact::new("abl_availbw.txt", out)])
}
