//! **Ablation (beyond the paper)** — congestion on the *reverse* (ACK)
//! path.
//!
//! The paper's measurements — and our testbed — treat the reverse path
//! as uncongested: ping and the models see only forward-path state. But
//! TCP is ACK-clocked, so a congested reverse path stretches and drops
//! ACKs, cutting throughput in a way no forward-path measurement can
//! anticipate. This ablation loads the reverse link at increasing
//! levels and reports the transfer throughput and the error of an
//! FB-style prediction computed from forward-path state alone — an
//! error source the FB method cannot even observe.

use super::{add_cross_traffic, transfer_epochs};
use crate::{Args, Artifact};
use tputpred_core::metrics::relative_error_floored;
use tputpred_netsim::link::LinkConfig;
use tputpred_netsim::{Simulator, Time};
use tputpred_stats::{render, Summary};
use tputpred_tcp::TcpConfig;

fn run_reverse_load(rev_util: f64, epochs: usize) -> (f64, f64, f64) {
    let capacity = 10e6;
    // The reverse link is a modest 2 Mbps access uplink (ADSL-style
    // asymmetry) shared with `rev_util` of upstream cross traffic.
    let rev_capacity = 2e6;
    let mut sim = Simulator::new(73);
    let fwd = sim.add_link(LinkConfig::new(capacity, Time::from_millis(30), 66));
    let rev = sim.add_link(LinkConfig::new(rev_capacity, Time::from_millis(30), 30));
    if rev_util > 0.0 {
        add_cross_traffic(&mut sim, rev, rev_util * rev_capacity, None);
    }
    // Forward path is idle: a forward-only FB prediction says min(W/T, C).
    let fb_prediction = (8.0 * (1u64 << 20) as f64 / 0.120).min(capacity);
    let mut tput = Summary::new();
    let mut errors = Vec::new();
    transfer_epochs(&mut sim, (fwd, rev), TcpConfig::default(), 2, 15, epochs, |transfer| {
        let r = transfer.throughput().max(1e3);
        tput.push(r);
        errors.push(relative_error_floored(fb_prediction, r));
    });
    // The epochs tile the whole run, so the link's total is the sum of
    // the per-epoch drops.
    let acks_dropped = sim.link(rev).stats().drops;
    (
        tput.mean(),
        tputpred_core::metrics::rmsre(&errors).unwrap_or(f64::NAN),
        acks_dropped as f64 / epochs as f64,
    )
}

pub fn run(_args: &Args) -> Result<Vec<Artifact>, String> {
    let mut out = String::new();
    out.push_str(
        "# abl_reverse_path: ACK-path congestion (idle 10 Mbps forward, 2 Mbps reverse)\n",
    );
    let mut table = render::Table::new([
        "rev_utilization",
        "mean_mbps",
        "fb_rmsre_fwd_only",
        "ack_drops/epoch",
    ]);
    for util in [0.0, 0.3, 0.6, 0.8, 0.95] {
        let (mean, rmsre, drops) = run_reverse_load(util, 8);
        table.row([
            render::f(util),
            render::mbps(mean),
            render::f(rmsre),
            format!("{drops:.0}"),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(
        "# expected shape: throughput falls and forward-only FB error grows as the\n\
         # ACK path saturates — a blind spot of any forward-path measurement, and a\n\
         # reason HB (which sees realized throughput, whatever its cause) stays robust.\n",
    );
    Ok(vec![Artifact::new("abl_reverse_path.txt", out)])
}
