//! **Ablation (paper §1)** — sensitivity of throughput and FB prediction
//! to the TCP flavor at the end hosts.
//!
//! The paper lists "the exact implementation of TCP at the end-hosts"
//! among the factors TCP throughput depends on, and the PFTK model is
//! derived for Reno specifically. This ablation runs the same path and
//! cross traffic with Reno and NewReno target flows and reports the
//! achieved throughput, loss-recovery mix, and the FB error each flavor
//! would induce — quantifying how much a formula calibrated for one
//! flavor misses on another.

use super::{add_cross_traffic, dumbbell, transfer_epochs};
use crate::{Args, Artifact};
use tputpred_core::fb::{FbConfig, FbPredictor, PathEstimates};
use tputpred_core::metrics::{relative_error_floored, rmsre};
use tputpred_netsim::link::LinkConfig;
use tputpred_netsim::Time;
use tputpred_stats::{render, Summary};
use tputpred_tcp::{TcpConfig, TcpFlavor};

fn run_flavor(flavor: TcpFlavor, buffer: u32, epochs: usize) -> (f64, f64, f64, f64) {
    let (mut sim, fwd, rev) = dumbbell(27, LinkConfig::new(10e6, Time::from_millis(30), buffer));
    add_cross_traffic(&mut sim, fwd, 4e6, Some((0.5, 1.6, 0.3)));

    let fb = FbPredictor::new(FbConfig::default());
    let est = PathEstimates {
        rtt: 0.060,
        loss_rate: 0.0,
        avail_bw: 6e6,
    };
    let mut tputs = Summary::new();
    let mut errors = Vec::new();
    let mut timeouts = 0u64;
    let mut fast = 0u64;
    let tcp = TcpConfig {
        flavor,
        ..TcpConfig::default()
    };
    transfer_epochs(&mut sim, (fwd, rev), tcp, 3, 12, epochs, |transfer| {
        let r = transfer.throughput().max(1e3);
        tputs.push(r);
        errors.push(relative_error_floored(fb.predict(&est), r));
        let s = transfer.stats().borrow();
        timeouts += s.timeouts;
        fast += s.fast_retransmits;
    });
    (
        tputs.mean(),
        rmsre(&errors).unwrap_or(f64::NAN),
        timeouts as f64 / epochs as f64,
        fast as f64 / epochs as f64,
    )
}

pub fn run(_args: &Args) -> Result<Vec<Artifact>, String> {
    let mut out = String::new();
    out.push_str("# abl_tcp_flavor: Reno vs NewReno target flows on the same loaded path\n");
    let mut table = render::Table::new([
        "flavor",
        "buffer_pkts",
        "mean_mbps",
        "fb_rmsre",
        "timeouts/epoch",
        "fastretx/epoch",
    ]);
    for buffer in [12u32, 30] {
        for (name, flavor) in [("reno", TcpFlavor::Reno), ("newreno", TcpFlavor::NewReno)] {
            let (mean, fb_rmsre, to, fr) = run_flavor(flavor, buffer, 15);
            table.row([
                name.to_string(),
                buffer.to_string(),
                render::mbps(mean),
                render::f(fb_rmsre),
                render::f(to),
                render::f(fr),
            ]);
        }
    }
    out.push_str(&table.render());
    out.push_str("# expected shape: NewReno converts timeouts into fast recoveries on shallow\n");
    out.push_str("# buffers, raising throughput slightly; the FB error moves with it — the\n");
    out.push_str("# formula's accuracy depends on the end-host TCP flavor (paper section 1).\n");
    Ok(vec![Artifact::new("abl_tcp_flavor.txt", out)])
}
