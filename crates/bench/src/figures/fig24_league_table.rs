//! **Fig. 24 (beyond the paper)** — the cross-predictor league table:
//! every family in the predictor registry
//! ([`tputpred_core::catalog::predictor_catalog`]), scored per path
//! class with one protocol.
//!
//! Every predictor is driven through the unified
//! [`Predictor`](tputpred_core::predictor::Predictor) trait by
//! [`tputpred_core::metrics::evaluate_epochs`]: per epoch it forecasts
//! from the epoch's a-priori probe features, is scored against the
//! measured large-window throughput (Eq. 4), and then observes the full
//! epoch. Per-trace RMSRE (Eq. 5, outlier epochs excluded) is
//! aggregated into per-class quantiles — the grouping of Fig. 21, now
//! across *all* families instead of FB alone.
//!
//! Series-only predictors (MA/EWMA/HW/AR, with or without LSO) see
//! exactly the protocol of `fig16`/`fig17` (feature-only epochs are
//! no-ops for them), so their numbers match those figures; FB matches
//! `fig02`'s per-trace aggregation; the combined families (hybrid,
//! regression, conditional, rtt-cv-gated) are scored on equal footing.
//!
//! Artifacts: a fixed-width table plus `league_<preset>.csv` (schema
//! [`crate::LEAGUE_CSV_COLUMNS`], pinned by
//! `crates/bench/tests/results_schema.rs`).

use crate::{epoch_observations, fb_config, path_class, Args, Artifact, LEAGUE_CSV_COLUMNS};
use std::collections::BTreeMap;
use tputpred_core::catalog::predictor_catalog;
use tputpred_core::metrics::evaluate_epochs;
use tputpred_stats::{quantile, render};
use tputpred_testbed::for_each_path;

/// Per-(predictor, class) accumulation: one RMSRE per scored trace plus
/// the number of epochs that produced an error sample.
#[derive(Default)]
struct Cell {
    rmsres: Vec<f64>,
    scored_epochs: usize,
}

pub fn run(args: &Args) -> Result<Vec<Artifact>, String> {
    let mut out = String::new();
    let cfg = fb_config(&args.preset);

    // BTreeMap keyed by (catalog position, class) keeps the output in
    // registry order with classes alphabetical inside each predictor.
    // The cells accumulate while the shards stream past one path at a
    // time (DESIGN.md §15), so a `synth10k`-scale league table never
    // materializes the full dataset.
    let mut cells: BTreeMap<(usize, String), Cell> = BTreeMap::new();
    let mut n_paths = 0usize;
    let catalog = predictor_catalog();
    for_each_path(&args.shard_dir(), &args.preset, |_, path| {
        n_paths += 1;
        let class = path_class(&path.config.name);
        for trace in &path.traces {
            let epochs = epoch_observations(trace);
            for (pos, entry) in catalog.iter().enumerate() {
                let mut predictor = (entry.make)(&cfg);
                let result = evaluate_epochs(&mut predictor, &epochs);
                let Some(rmsre) = result.rmsre() else {
                    continue;
                };
                let scored = result.errors.iter().flatten().count();
                for key in [(pos, class.to_string()), (pos, "all".to_string())] {
                    let cell = cells.entry(key).or_default();
                    cell.rmsres.push(rmsre);
                    cell.scored_epochs += scored;
                }
            }
        }
        Ok(())
    })
    .map_err(|e| format!("dataset load: {e}"))?;

    outln!(
        out,
        "# fig24: per-path-class RMSRE league table, {} predictors x {} paths ({} preset)",
        catalog.len(),
        n_paths,
        args.preset.name
    );
    out.push_str("# protocol: evaluate_epochs (a-priori features in, one forecast per epoch,\n");
    out.push_str("# per-trace RMSRE excluding LSO outliers); 'all' pools every class.\n");
    let mut table = render::Table::new(LEAGUE_CSV_COLUMNS.iter().copied());
    let mut csv = format!("{}\n", LEAGUE_CSV_COLUMNS.join(","));
    for ((pos, class), cell) in &cells {
        let name = catalog[*pos].name;
        let p25 = quantile(&cell.rmsres, 0.25).unwrap_or(f64::NAN);
        let median = quantile(&cell.rmsres, 0.5).unwrap_or(f64::NAN);
        let p75 = quantile(&cell.rmsres, 0.75).unwrap_or(f64::NAN);
        table.row([
            name.to_string(),
            class.clone(),
            cell.rmsres.len().to_string(),
            cell.scored_epochs.to_string(),
            render::f(p25),
            render::f(median),
            render::f(p75),
        ]);
        outln!(
            csv,
            "{name},{class},{},{},{p25},{median},{p75}",
            cell.rmsres.len(),
            cell.scored_epochs
        );
    }
    out.push_str(&table.render());

    // The overall ranking, best first — the headline of the table.
    let mut overall: Vec<(&str, f64)> = cells
        .iter()
        .filter(|((_, class), _)| class == "all")
        .map(|((pos, _), cell)| {
            (
                catalog[*pos].name,
                quantile(&cell.rmsres, 0.5).unwrap_or(f64::NAN),
            )
        })
        .collect();
    overall.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
    let ranking: Vec<String> = overall
        .iter()
        .map(|(name, median)| format!("{name}={median:.3}"))
        .collect();
    outln!(
        out,
        "# ranking by overall median RMSRE: {}",
        ranking.join(" ")
    );

    Ok(vec![
        Artifact::new("fig24_league_table.txt", out),
        Artifact::new(format!("league_{}.csv", args.preset.name), csv),
    ])
}
