//! **Fig. 23** — HB accuracy versus the interval between transfers:
//! CDFs over traces of HW-LSO RMSRE after down-sampling each trace at
//! factors corresponding to the paper's 3/6/24/45-minute transfer
//! periods (§6.1.6).
//!
//! Paper findings: accuracy degrades gracefully — with the largest
//! period, 65% of traces still have RMSRE < 0.4, and the 90th-percentile
//! RMSRE stays ≤ 1.0. Sporadic histories are still useful.

use crate::{hw_lso, load_dataset, push_cdf, trace_rmsre, Args, Artifact};
use tputpred_core::metrics::downsample;

pub fn run(args: &Args) -> Result<Vec<Artifact>, String> {
    let mut out = String::new();
    let ds = load_dataset(args)?;

    // The paper down-samples its ~3-minute epochs by 2/8/15 to emulate
    // 6/24/45-minute transfer intervals.
    let factors = [(1usize, "x1_base"), (2, "x2"), (8, "x8"), (15, "x15")];
    out.push_str("# fig23: CDF over traces of HW-LSO RMSRE at increasing transfer intervals\n");
    for (factor, label) in factors {
        let rmsres: Vec<f64> = ds
            .paths
            .iter()
            .flat_map(|p| p.traces.iter())
            .filter_map(|t| {
                let series = downsample(&t.throughput_series(), factor);
                if series.len() < 4 {
                    return None;
                }
                trace_rmsre(hw_lso, &series)
            })
            .collect();
        if rmsres.is_empty() {
            outln!(
                out,
                "# series: {label} (too few samples after downsampling)"
            );
            continue;
        }
        let cdf = push_cdf(&mut out, label, &rmsres, 50)?;
        outln!(
            out,
            "# {label}: n={} median={:.3} p90={:.3} P(RMSRE<0.4)={:.3}",
            rmsres.len(),
            cdf.quantile(0.5),
            cdf.quantile(0.9),
            cdf.fraction_below(0.4)
        );
    }
    Ok(vec![Artifact::new("fig23_sampling_interval.txt", out)])
}
