//! **Fig. 15** — the three pathological example traces and the RMSRE of
//! each predictor on them:
//!
//! (a) a clean level shift; (b) a trend plus level shift plus outliers;
//! (c) a level shift plus outliers. Bars: `n-MA` for n ∈ {1, 5, 10, 20},
//! the same with LSO, EWMA/HW at α ∈ {0.3, 0.5, 0.8}, and HW-LSO.
//!
//! Paper findings (§5.3): without LSO the parameter choice matters a
//! lot; LSO cuts the error sharply and makes all predictors perform
//! alike.

use crate::{Args, Artifact, PredictorZoo};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use tputpred_core::hb::{Ewma, HoltWinters, MovingAverage};
use tputpred_core::lso::Lso;
use tputpred_core::metrics::evaluate;
use tputpred_stats::render;

/// Noise around a level: ±5%.
fn noisy(rng: &mut StdRng, level: f64) -> f64 {
    level * rng.random_range(0.95..1.05)
}

/// (a) A stable level with one clean downward level shift.
fn trace_a(rng: &mut StdRng) -> Vec<f64> {
    (0..60)
        .map(|i| noisy(rng, if i < 30 { 20e6 } else { 8e6 }))
        .collect()
}

/// (b) A rising trend, then a level shift, with two outliers.
fn trace_b(rng: &mut StdRng) -> Vec<f64> {
    let mut xs: Vec<f64> = (0..60)
        .map(|i| {
            if i < 30 {
                noisy(rng, 5e6 + 0.2e6 * i as f64) // trend
            } else {
                noisy(rng, 18e6) // shifted level
            }
        })
        .collect();
    xs[12] = 40e6;
    xs[45] = 2e6;
    xs
}

/// (c) A level shift plus scattered outliers.
fn trace_c(rng: &mut StdRng) -> Vec<f64> {
    let mut xs: Vec<f64> = (0..60)
        .map(|i| noisy(rng, if i < 20 { 6e6 } else { 15e6 }))
        .collect();
    xs[8] = 25e6;
    xs[35] = 3e6;
    xs[50] = 45e6;
    xs
}

/// Fig. 15's line-up: every MA/EWMA/HW variant the paper plots, with
/// and without LSO.
pub(crate) fn zoo() -> PredictorZoo {
    zoo![
        "1-MA"       => MovingAverage::new(1),
        "5-MA"       => MovingAverage::new(5),
        "10-MA"      => MovingAverage::new(10),
        "20-MA"      => MovingAverage::new(20),
        "5-MA-LSO"   => Lso::new(MovingAverage::new(5)),
        "10-MA-LSO"  => Lso::new(MovingAverage::new(10)),
        "20-MA-LSO"  => Lso::new(MovingAverage::new(20)),
        "0.3-EWMA"   => Ewma::new(0.3),
        "0.5-EWMA"   => Ewma::new(0.5),
        "0.8-EWMA"   => Ewma::new(0.8),
        "0.3-HW"     => HoltWinters::new(0.3, 0.2),
        "0.5-HW"     => HoltWinters::new(0.5, 0.2),
        "0.8-HW"     => HoltWinters::new(0.8, 0.2),
        "0.8-HW-LSO" => Lso::new(HoltWinters::new(0.8, 0.2)),
    ]
}

pub fn run(_args: &Args) -> Result<Vec<Artifact>, String> {
    let mut out = String::new();
    let mut rng = StdRng::seed_from_u64(15);
    let traces = [
        ("a_level_shift", trace_a(&mut rng)),
        ("b_trend_shift_outliers", trace_b(&mut rng)),
        ("c_shift_outliers", trace_c(&mut rng)),
    ];

    out.push_str("# fig15: pathological traces (Mbps) and per-predictor RMSRE\n");
    for (name, series) in &traces {
        let pts: Vec<(f64, f64)> = series
            .iter()
            .enumerate()
            .map(|(i, &x)| (i as f64, x / 1e6))
            .collect();
        out.push_str(&render::series(&format!("trace_{name}"), &pts));
    }

    let mut table = render::Table::new(["predictor", "trace_a", "trace_b", "trace_c"]);
    for (label, make) in zoo() {
        let mut cells = vec![label.to_string()];
        for (_, series) in &traces {
            let mut p = make();
            let rmsre = evaluate(&mut p, series).rmsre().unwrap_or(f64::NAN);
            cells.push(render::f(rmsre));
        }
        table.row(cells);
    }
    out.push_str(&table.render());
    Ok(vec![Artifact::new("fig15_pathologies.txt", out)])
}
