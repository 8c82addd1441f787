//! **Fig. 17** — CDF over traces of the per-trace RMSRE for
//! Holt-Winters (several α) and EWMA, with and without LSO.
//!
//! Paper findings: α = 0.8 is near-optimal; EWMA performs like HW; LSO
//! improves HW significantly; HW-LSO edges out MA-LSO only slightly
//! (few traces have persistent linear trends).

use super::fig16_ma_error::rmsre_cdfs;
use crate::{Args, Artifact};
use tputpred_core::hb::{Ewma, HoltWinters};
use tputpred_core::lso::Lso;

pub fn run(args: &Args) -> Result<Vec<Artifact>, String> {
    let variants = zoo![
        "0.3-HW"       => HoltWinters::new(0.3, 0.2),
        "0.5-HW"       => HoltWinters::new(0.5, 0.2),
        "0.8-HW"       => HoltWinters::new(0.8, 0.2),
        "0.8-EWMA"     => Ewma::new(0.8),
        "0.3-HW-LSO"   => Lso::new(HoltWinters::new(0.3, 0.2)),
        "0.8-HW-LSO"   => Lso::new(HoltWinters::new(0.8, 0.2)),
        "0.8-EWMA-LSO" => Lso::new(Ewma::new(0.8)),
    ];
    let header = "# fig17: CDF over traces of per-trace RMSRE, HW/EWMA predictors +/- LSO";
    let out = rmsre_cdfs(args, header, variants)?;
    Ok(vec![Artifact::new("fig17_hw_error.txt", out)])
}
