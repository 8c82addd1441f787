//! **Ablation (paper §3.2, last paragraph)** — "posthumous" PFTK
//! validation.
//!
//! "Note that the experimental validation of the PFTK result … was based
//! on the 'posthumous' estimation of p and T, i.e., from tcpdump packet
//! traces collected at the sender/receiver while the target flow was in
//! progress. Of course the same approach is not possible for prediction."
//!
//! We *can* do it in the simulator: every epoch records the flow's own
//! RTT and its congestion-event count. Feeding those — the values the
//! model's derivation actually means — back into PFTK checks that our
//! TCP implementation and the model agree the way the PFTK authors
//! demonstrated, and measures how much of FB's error is inputs (most of
//! it) versus model error (the residual here).

use crate::{fb_config, fb_error, is_lossy, load_dataset, push_cdf, Args, Artifact};
use tputpred_core::fb::FbPredictor;
use tputpred_core::formulas::{pftk, rto_estimate, PftkParams};
use tputpred_core::metrics::relative_error_floored;

pub fn run(args: &Args) -> Result<Vec<Artifact>, String> {
    let mut out = String::new();
    let ds = load_dataset(args)?;
    let duration = ds.preset.transfer.as_secs_f64();
    let fb = FbPredictor::new(fb_config(&ds.preset));

    let mut posthumous = Vec::new();
    let mut a_priori_errors = Vec::new();
    for (_, _, rec) in ds.complete_epochs() {
        if !is_lossy(&rec) || rec.flow_loss_events == 0 || rec.flow_rtt <= 0.0 {
            continue;
        }
        // The flow's own congestion-event probability: events per
        // *delivered* segment (PFTK's packet balance counts useful
        // segments per loss event).
        let delivered_segments = rec.r_large * duration / 8.0 / 1448.0;
        if delivered_segments < 1.0 {
            continue;
        }
        let p_event = (rec.flow_loss_events as f64 / delivered_segments).min(0.9);
        let params = PftkParams {
            mss: 1448,
            rtt: rec.flow_rtt,
            rto: rto_estimate(rec.flow_rtt),
            b: 2.0,
            p: p_event,
            max_window: ds.preset.w_large,
        };
        posthumous.push(relative_error_floored(pftk(&params), rec.r_large));
        a_priori_errors.push(fb_error(&fb, &rec));
    }
    if posthumous.is_empty() {
        return Err("no scorable lossy epochs".into());
    }

    out.push_str(
        "# abl_pftk_posthumous: PFTK fed the flow's OWN (T, p_event) vs a-priori ping inputs\n",
    );
    for (name, errors) in [
        ("posthumous_inputs", &posthumous),
        ("a_priori_inputs", &a_priori_errors),
    ] {
        let cdf = push_cdf(&mut out, name, errors, 50)?;
        outln!(
            out,
            "# {name}: n={} median={:.3} P(|E|<1)={:.3} P(|E|<3)={:.3}",
            errors.len(),
            cdf.quantile(0.5),
            cdf.fraction_below(1.0) - cdf.fraction_below(-1.0),
            cdf.fraction_below(3.0) - cdf.fraction_below(-3.0)
        );
    }
    out.push_str(
        "# expected shape: with its own inputs, PFTK lands within ~2x for most epochs\n\
         # (the PFTK paper's validation result); the gap to a-priori inputs is the part\n\
         # of FB error that no better formula can remove.\n",
    );
    Ok(vec![Artifact::new("abl_pftk_posthumous.txt", out)])
}
