//! **Ablation (paper §3.4)** — bottleneck buffer size and the avail-bw
//! vs TCP-throughput gap.
//!
//! "Whether a TCP flow can saturate the avail-bw of a path depends on
//! the buffer space B at the bottleneck. If B is not sufficiently large,
//! packet losses can cause significant underutilization and the
//! resulting TCP throughput can be lower than Â." The paper could not
//! vary B on real routers; here B is a parameter: sweep the buffer from
//! a quarter BDP to four BDPs and measure the transfer's fraction of the
//! spare capacity and the FB (avail-bw branch) error.

use super::{add_cross_traffic, dumbbell, transfer_epochs};
use crate::{Args, Artifact};
use tputpred_core::metrics::relative_error_floored;
use tputpred_netsim::link::LinkConfig;
use tputpred_netsim::Time;
use tputpred_stats::{render, Summary};
use tputpred_tcp::TcpConfig;

fn run_buffer(bdp_mult: f64, epochs: usize) -> (u32, f64, f64, f64, f64) {
    let capacity = 10e6;
    let one_way = Time::from_millis(40);
    let rtt = 0.080;
    let bdp_pkts = LinkConfig::bdp_packets(capacity, Time::from_millis(80), 1500);
    let buffer = ((bdp_pkts as f64 * bdp_mult) as u32).max(3);
    let cross = 3e6;
    let avail = capacity - cross;

    let (mut sim, fwd, rev) = dumbbell(44, LinkConfig::new(capacity, one_way, buffer));
    add_cross_traffic(&mut sim, fwd, cross, None);

    let mut fraction = Summary::new();
    let mut flow_rtt = Summary::new();
    let mut losses = 0u64;
    let mut errors = Vec::new();
    transfer_epochs(&mut sim, (fwd, rev), TcpConfig::default(), 3, 45, epochs, |transfer| {
        let r = transfer.throughput().max(1e3);
        fraction.push(r / avail);
        let s = transfer.stats().borrow();
        flow_rtt.push(s.rtt.mean());
        losses += s.loss_events();
        // The FB lossless branch predicts min(W/T, Â); with W = 1 MB the
        // avail-bw term binds. Feed it the true avail-bw: the remaining
        // error is purely the §3.4 buffer effect.
        let prediction = (8.0 * (1u64 << 20) as f64 / rtt).min(avail);
        errors.push(relative_error_floored(prediction, r));
    });
    let rmsre = tputpred_core::metrics::rmsre(&errors).unwrap_or(f64::NAN);
    (
        buffer,
        fraction.mean(),
        rmsre,
        flow_rtt.mean() * 1e3,
        losses as f64 / epochs as f64,
    )
}

pub fn run(_args: &Args) -> Result<Vec<Artifact>, String> {
    let mut out = String::new();
    out.push_str(
        "# abl_buffer: transfer throughput vs bottleneck buffer (10 Mbps, 80 ms RTT, 30% load)\n\
         # FB prediction fed the TRUE avail-bw: residual error is the buffer effect alone\n",
    );
    let mut table = render::Table::new([
        "buffer_bdp",
        "buffer_pkts",
        "r_over_avail",
        "fb_rmsre_true_availbw",
        "flow_rtt_ms",
        "loss_ev/epoch",
    ]);
    for mult in [0.25, 0.5, 1.0, 2.0, 4.0] {
        let (pkts, frac, rmsre, rtt_ms, losses) = run_buffer(mult, 8);
        table.row([
            format!("{mult:.2}"),
            pkts.to_string(),
            render::f(frac),
            render::f(rmsre),
            format!("{rtt_ms:.0}"),
            render::f(losses),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(
        "# expected shape: throughput/avail peaks around ~0.5-1 BDP. Below that, droptail\n\
         # losses starve the flow (3.4's insufficient-buffering case); far above it,\n\
         # bufferbloat inflates the flow's RTT (see flow_rtt_ms) so congestion avoidance\n\
         # crawls and slow-start overshoot costs multi-loss windows. Either way, even the\n\
         # TRUE avail-bw is an inaccurate FB prediction — the formula's inputs are not\n\
         # the problem; the flow/path interaction is.\n",
    );
    Ok(vec![Artifact::new("abl_buffer.txt", out)])
}
