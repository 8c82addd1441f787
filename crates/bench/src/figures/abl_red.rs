//! **Ablation (paper §3.4, queue discipline)** — does RED at the
//! bottleneck make throughput more predictable than droptail?
//!
//! The paper's paths were droptail (as is the testbed); RED was the
//! ns2-era alternative. RED's early random drops keep the queue short
//! and de-cluster TCP's losses, which should (a) reduce timeouts,
//! (b) tame RTT inflation, and (c) smooth the throughput series — all of
//! which bear on both FB and HB predictability. Same path, both
//! disciplines, side by side.

use super::{add_cross_traffic, dumbbell, transfer_epochs};
use crate::{hw_lso, trace_rmsre, Args, Artifact};
use tputpred_netsim::link::LinkConfig;
use tputpred_netsim::Time;
use tputpred_stats::{render, Summary};
use tputpred_tcp::TcpConfig;

fn run_discipline(red: bool, epochs: usize) -> (f64, f64, f64, f64) {
    let mut cfg = LinkConfig::new(10e6, Time::from_millis(30), 150);
    if red {
        cfg = cfg.with_red();
    }
    let (mut sim, fwd, rev) = dumbbell(85, cfg);
    add_cross_traffic(&mut sim, fwd, 4e6, Some((0.5, 1.6, 0.3)));

    let mut series = Vec::new();
    let mut rtts = Summary::new();
    let mut timeouts = 0u64;
    transfer_epochs(&mut sim, (fwd, rev), TcpConfig::default(), 3, 12, epochs, |transfer| {
        series.push(transfer.throughput().max(1e3));
        let s = transfer.stats().borrow();
        rtts.push(s.rtt.mean());
        timeouts += s.timeouts;
    });
    let mean = series.iter().sum::<f64>() / series.len() as f64;
    let hb_rmsre = trace_rmsre(hw_lso, &series).unwrap_or(f64::NAN);
    (
        mean,
        hb_rmsre,
        rtts.mean() * 1e3,
        timeouts as f64 / epochs as f64,
    )
}

pub fn run(_args: &Args) -> Result<Vec<Artifact>, String> {
    let mut out = String::new();
    out.push_str(
        "# abl_red: droptail vs RED at a deep-buffered bottleneck (10 Mbps, 150-pkt buffer, 40% bursty load)\n",
    );
    let mut table = render::Table::new([
        "aqm",
        "mean_mbps",
        "hb_rmsre_hw_lso",
        "flow_rtt_ms",
        "timeouts/epoch",
    ]);
    for (name, red) in [("droptail", false), ("red", true)] {
        let (mean, rmsre, rtt, to) = run_discipline(red, 20);
        table.row([
            name.to_string(),
            render::mbps(mean),
            render::f(rmsre),
            format!("{rtt:.0}"),
            render::f(to),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(
        "# expected shape: RED keeps the flow's RTT lower (shorter average queue) and\n\
         # de-clusters losses; the throughput series' predictability shifts accordingly.\n",
    );
    Ok(vec![Artifact::new("abl_red.txt", out)])
}
