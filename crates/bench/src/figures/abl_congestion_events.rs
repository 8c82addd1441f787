//! **Ablation (paper §3.3 / ref \[13\])** — packet loss rate versus
//! congestion-event probability.
//!
//! "Our ns2 simulations suggest that a loss rate estimate based on a
//! periodic ping-based measurement can be an order of magnitude
//! different than the congestion event probability" — Goyal et al.'s
//! \[13\] p-vs-p′ distinction. The dataset records all three views of
//! the same epochs:
//!
//! * `p̂` — ping packet-loss before the flow (what naive FB feeds PFTK);
//! * the flow's per-segment retransmission fraction (its packet loss);
//! * the flow's *congestion events per segment* (fast retransmits +
//!   timeouts over segments sent — the `p` PFTK's derivation means).
//!
//! The table reports the pairwise ratios over the lossy epochs.

use crate::{is_lossy, load_dataset, quantile_row, Args, Artifact};
use tputpred_stats::render;
use tputpred_testbed::CompleteEpoch;

fn event_rate(rec: &CompleteEpoch) -> Option<f64> {
    // Segments sent ≈ delivered/MSS + retransmits; reconstruct from the
    // recorded retransmit fraction and loss events. The dataset keeps
    // flow_retx_rate = retx/sent and flow_loss_events, so sent =
    // loss_events / (events per sent); we need sent directly — derive it
    // from the transfer size instead: r_large × duration / (8 × MSS) is
    // the delivered segment count; sent = delivered / (1 − retx_rate).
    let delivered_segments = rec.r_large / 8.0 / 1448.0; // per second
    if delivered_segments <= 0.0 {
        return None;
    }
    // Per-second rates cancel in the ratio below, so use them directly:
    // events per sent-segment-per-second over segments-per-second.
    let sent_per_sec = delivered_segments / (1.0 - rec.flow_retx_rate).max(0.05);
    Some((rec.flow_loss_events as f64 / sent_per_sec).min(1.0))
}

pub fn run(args: &Args) -> Result<Vec<Artifact>, String> {
    let mut out = String::new();
    let ds = load_dataset(args)?;
    let duration = ds.preset.transfer.as_secs_f64();

    let mut ping_over_event = Vec::new();
    let mut pktloss_over_event = Vec::new();
    let mut ping_over_pktloss = Vec::new();
    for (_, _, rec) in ds.complete_epochs() {
        if !is_lossy(&rec) || rec.flow_loss_events == 0 {
            continue;
        }
        let Some(ev_per_sec_sent) = event_rate(&rec) else {
            continue;
        };
        // events per segment = events / (sent_per_sec × duration)
        let p_event = (ev_per_sec_sent / duration).min(1.0);
        let p_pkt = rec.flow_retx_rate;
        if p_event <= 0.0 || p_pkt <= 0.0 {
            continue;
        }
        ping_over_event.push(rec.p_hat / p_event);
        pktloss_over_event.push(p_pkt / p_event);
        ping_over_pktloss.push(rec.p_hat / p_pkt);
    }

    out.push_str("# abl_congestion_events: three views of 'loss rate' on the same lossy epochs\n");
    out.push_str("# (ratios; PFTK's p is the congestion-EVENT probability, ref [13])\n");
    let mut table = render::Table::new(["ratio", "p25", "median", "p75", "n"]);
    for (name, v) in [
        ("ping p^ / p_event", &ping_over_event),
        ("flow pkt-loss / p_event", &pktloss_over_event),
        ("ping p^ / flow pkt-loss", &ping_over_pktloss),
    ] {
        let mut row = quantile_row(name, v, &[0.25, 0.5, 0.75]);
        row.push(v.len().to_string());
        table.row(row);
    }
    out.push_str(&table.render());
    out.push_str("# expected shape: packet loss exceeds event probability (correlated drops\n");
    out.push_str("# within a window count once), and the a-priori ping rate differs from both —\n");
    out.push_str("# feeding ping loss into PFTK as if it were p is already a category error.\n");
    Ok(vec![Artifact::new("abl_congestion_events.txt", out)])
}
