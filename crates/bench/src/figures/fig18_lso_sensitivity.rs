//! **Fig. 18** — sensitivity of MA-5-LSO to the LSO thresholds: CDF of
//! `|E|` for several (χ, ψ) pairs.
//!
//! Paper finding: the detection heuristics are *not* sensitive to their
//! parameters — the CDFs for different (χ, ψ) nearly coincide.

use crate::{load_dataset, push_cdf, Args, Artifact};
use tputpred_core::hb::MovingAverage;
use tputpred_core::lso::{Lso, LsoConfig};
use tputpred_core::metrics::evaluate;

pub fn run(args: &Args) -> Result<Vec<Artifact>, String> {
    let mut out = String::new();
    let ds = load_dataset(args)?;

    let grids = [(0.2, 0.3), (0.3, 0.4), (0.4, 0.5), (0.3, 0.6), (0.5, 0.4)];
    out.push_str("# fig18: CDF of |E| for 5-MA-LSO under different (chi, psi) thresholds\n");
    for (gamma, psi) in grids {
        let mut abs_errors = Vec::new();
        for p in &ds.paths {
            for t in &p.traces {
                let cfg = LsoConfig {
                    gamma,
                    psi,
                    ..LsoConfig::default()
                };
                let mut pred = Lso::with_config(MovingAverage::new(5), cfg);
                let res = evaluate(&mut pred, &t.throughput_series());
                abs_errors.extend(
                    res.errors
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| !res.outliers.contains(i))
                        .filter_map(|(_, e)| e.map(f64::abs)),
                );
            }
        }
        let name = format!("chi{gamma}_psi{psi}");
        let cdf = push_cdf(&mut out, &name, &abs_errors, 50)?;
        outln!(
            out,
            "# {name}: n={} median|E|={:.3} p90={:.3}",
            abs_errors.len(),
            cdf.quantile(0.5),
            cdf.quantile(0.9)
        );
    }
    Ok(vec![Artifact::new("fig18_lso_sensitivity.txt", out)])
}
