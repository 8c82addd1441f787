//! **Fig. 16** — CDF over traces of the per-trace RMSRE for Moving
//! Average predictors, with and without LSO.
//!
//! Paper findings: `n-MA` for n < 20 all perform similarly (only `1-MA`
//! is worse); LSO significantly reduces RMSRE and removes the
//! sensitivity to `n`.

use crate::{load_dataset, push_cdf, rmsre_per_trace, Args, Artifact, PredictorZoo};
use tputpred_core::hb::MovingAverage;
use tputpred_core::lso::Lso;

pub fn run(args: &Args) -> Result<Vec<Artifact>, String> {
    let variants = zoo![
        "1-MA"      => MovingAverage::new(1),
        "5-MA"      => MovingAverage::new(5),
        "10-MA"     => MovingAverage::new(10),
        "20-MA"     => MovingAverage::new(20),
        "5-MA-LSO"  => Lso::new(MovingAverage::new(5)),
        "10-MA-LSO" => Lso::new(MovingAverage::new(10)),
        "20-MA-LSO" => Lso::new(MovingAverage::new(20)),
    ];
    let header = "# fig16: CDF over traces of per-trace RMSRE, MA predictors +/- LSO";
    let out = rmsre_cdfs(args, header, variants)?;
    Ok(vec![Artifact::new("fig16_ma_error.txt", out)])
}

/// `header`, then the CDF over traces of each variant's per-trace RMSRE
/// with its summary line — the protocol Figs. 16 and 17 share.
pub(crate) fn rmsre_cdfs(
    args: &Args,
    header: &str,
    variants: PredictorZoo,
) -> Result<String, String> {
    let ds = load_dataset(args)?;
    let mut out = format!("{header}\n");
    for (name, make) in variants {
        let rmsres = rmsre_per_trace(&ds, make);
        let cdf = push_cdf(&mut out, name, &rmsres, 50)?;
        outln!(
            out,
            "# {name}: n={} median={:.3} P(RMSRE<0.4)={:.3}",
            rmsres.len(),
            cdf.quantile(0.5),
            cdf.fraction_below(0.4)
        );
    }
    Ok(out)
}
