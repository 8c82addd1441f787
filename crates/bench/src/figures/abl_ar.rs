//! **Ablation (paper §5 / refs \[14, 15\])** — does an ARIMA-class
//! predictor beat the simple ones?
//!
//! The paper skips ARMA/ARIMA because fitting them "requires a large
//! number of past measurements", citing Vazhkudai et al. and Zhang et
//! al., who both found fancy linear models no better than moving
//! averages on throughput series. With [`tputpred_core::hb::ArPredictor`]
//! implemented, the claim is testable on our dataset: per-trace RMSRE of
//! AR(p) for several orders, against the paper's simple predictors, with
//! and without LSO.

use crate::{load_dataset, quantile_row, rmsre_per_trace, Args, Artifact, PredictorZoo};
use tputpred_core::hb::{ArPredictor, HoltWinters, MovingAverage};
use tputpred_core::lso::Lso;
use tputpred_stats::render;

pub fn run(args: &Args) -> Result<Vec<Artifact>, String> {
    let mut out = String::new();
    let ds = load_dataset(args)?;

    let variants: PredictorZoo = zoo![
        "AR(1)"      => ArPredictor::new(1, 64),
        "AR(2)"      => ArPredictor::new(2, 64),
        "AR(4)"      => ArPredictor::new(4, 64),
        "AR(2)-LSO"  => Lso::new(ArPredictor::new(2, 64)),
        "10-MA"      => MovingAverage::new(10),
        "10-MA-LSO"  => Lso::new(MovingAverage::new(10)),
        "0.8-HW-LSO" => Lso::new(HoltWinters::new(0.8, 0.2)),
    ];

    out.push_str(
        "# abl_ar: AR(p) (Yule-Walker, sliding window) vs the paper's simple predictors\n",
    );
    let mut table = render::Table::new(["predictor", "p25", "median", "p75", "p90"]);
    for (name, make) in variants {
        let rmsres = rmsre_per_trace(&ds, make);
        table.row(quantile_row(name, &rmsres, &[0.25, 0.5, 0.75, 0.9]));
    }
    out.push_str(&table.render());
    out.push_str("# expected shape: no AR order beats the LSO-wrapped simple predictors —\n");
    out.push_str("# the paper's reason for not bothering with ARIMA (section 5, refs [14, 15]).\n");
    Ok(vec![Artifact::new("abl_ar.txt", out)])
}
