//! **Fig. 21** — per-path close-ups: for each path, the per-trace RMSRE
//! of `1-MA`, `10-MA`, `0.8-HW` and `0.8-HW-LSO`, and the path's
//! predictability class:
//!
//! * **(a) predictable** — low RMSRE everywhere;
//! * **(b) stable errors** — larger but consistent RMSRE;
//! * **(c) unpredictable errors** — RMSRE varies a lot across traces;
//! * **(d) unpredictable** — high RMSRE.
//!
//! Paper finding: paths genuinely differ in predictability; HW-LSO is
//! almost always the best of the four.

use crate::{load_dataset, trace_rmsre, Args, Artifact, PredictorZoo};
use tputpred_core::hb::{HoltWinters, MovingAverage};
use tputpred_core::lso::Lso;
use tputpred_stats::{render, Summary};

fn classify(rmsres: &[f64]) -> &'static str {
    let s = Summary::from_samples(rmsres.iter().copied());
    let mean = s.mean();
    let spread = s.max() - s.min();
    match (mean, spread) {
        (m, _) if m < 0.15 => "a_predictable",
        (m, sp) if m < 0.5 && sp < 0.3 => "b_stable_errors",
        (m, _) if m < 0.5 => "c_varying_errors",
        _ => "d_unpredictable",
    }
}

pub fn run(args: &Args) -> Result<Vec<Artifact>, String> {
    let mut out = String::new();
    let ds = load_dataset(args)?;

    let zoo: PredictorZoo = zoo![
        "1-MA"       => MovingAverage::new(1),
        "10-MA"      => MovingAverage::new(10),
        "0.8-HW"     => HoltWinters::new(0.8, 0.2),
        "0.8-HW-LSO" => Lso::new(HoltWinters::new(0.8, 0.2)),
    ];

    out.push_str("# fig21: per-path per-trace RMSRE for four predictors, with path class\n");
    let labels = zoo.iter().map(|(label, _)| *label);
    let mut table = render::Table::new(["path", "trace"].into_iter().chain(labels).chain(["class"]));
    let mut class_counts = std::collections::BTreeMap::new();
    for p in &ds.paths {
        // Class from the headline predictor (HW-LSO) across traces.
        let hw_lso_rmsres: Vec<f64> = p
            .traces
            .iter()
            .filter_map(|t| trace_rmsre(zoo[3].1, &t.throughput_series()))
            .collect();
        if hw_lso_rmsres.is_empty() {
            continue;
        }
        let class = classify(&hw_lso_rmsres);
        *class_counts.entry(class).or_insert(0usize) += 1;
        for (ti, t) in p.traces.iter().enumerate() {
            let series = t.throughput_series();
            let mut row = vec![p.config.name.clone(), ti.to_string()];
            for (_, make) in &zoo {
                row.push(trace_rmsre(*make, &series).map_or("n/a".into(), render::f));
            }
            row.push(class.to_string());
            table.row(row);
        }
    }
    out.push_str(&table.render());
    for (class, count) in class_counts {
        outln!(out, "# class {class}: {count} paths");
    }
    Ok(vec![Artifact::new("fig21_path_classes.txt", out)])
}
