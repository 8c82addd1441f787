//! **Fig. 25 (beyond the paper)** — the resilience league table: every
//! registry predictor driven through a correlated-outage campaign,
//! scored per outage regime on availability × accuracy.
//!
//! The paper's RON campaign discarded failed epochs after the fact; a
//! serving predictor must answer *through* them. This entry turns the
//! regime process of `tputpred_testbed::faults` (DESIGN.md §13) on — a
//! per-trace Healthy ↔ Degraded ↔ Down semi-Markov chain with geometric
//! dwell times amplifying the fault rates — and evaluates the whole
//! predictor registry, including the resilience policy combinators
//! (fallback chains, staleness guards, circuit breakers), with the same
//! [`evaluate_epochs`] protocol as `fig24_league_table`.
//!
//! Per (predictor, regime) the table reports how often the predictor
//! produced a forecast at all (**availability**) and the pooled RMSRE of
//! the forecasts that could be scored — accuracy *conditioned on outage
//! state* (cf. arXiv:2111.14080), not averaged away. The regime of each
//! epoch is recomputed from the trace seed via
//! [`tputpred_testbed::draw_regimes`]; it is a prefix of the same salted
//! fault stream the generator consumed, so the labels match the dataset
//! bit for bit.
//!
//! The campaign is a scaled-down preset derived from `--preset`
//! (`campaign_preset`), streamed through the shard cache under
//! `<data_dir>/resilience-<preset>/`: the first run simulates it, later
//! runs reuse it. Artifacts:
//! a fixed-width table plus policy `obs` counters (replayed
//! bit-identically across runs, which CI checks), and
//! `resilience_<preset>.csv` (schema
//! [`crate::RESILIENCE_CSV_COLUMNS`], pinned by
//! `crates/bench/tests/results_schema.rs`).
//!
//! This is the registry's only entry that turns telemetry on; it does
//! so inside [`tputpred_obs::with_profiling`], which resets every
//! counter first, so the counters printed here never depend on which
//! entries ran earlier in the same process.

use crate::{epoch_observations, fb_config, Args, Artifact, RESILIENCE_CSV_COLUMNS};
use std::collections::BTreeMap;
use tputpred_core::catalog::predictor_catalog;
use tputpred_core::metrics::{evaluate_epochs, rmsre};
use tputpred_stats::render;
use tputpred_testbed::{
    draw_regimes, for_each_path, trace_seed, FaultConfig, OutageRegime, Preset, RegimeConfig,
};

/// Regime columns of the table: the pooled "all" plus one per state.
const REGIME_LABELS: [&str; 4] = ["all", "healthy", "degraded", "down"];

/// Index of a regime's column (offset by one for "all").
fn regime_column(regime: OutageRegime) -> usize {
    match regime {
        OutageRegime::Healthy => 1,
        OutageRegime::Degraded => 2,
        OutageRegime::Down => 3,
    }
}

/// Per-(predictor, regime) accumulation.
#[derive(Default)]
struct Cell {
    /// Epochs of this regime the predictor was evaluated over.
    epochs: usize,
    /// Epochs it produced a forecast on.
    forecasts: usize,
    /// Relative errors of the scoreable forecasts (outliers excluded).
    errors: Vec<f64>,
}

/// The campaign: a scaled-down preset with `base`'s epoch shape and
/// catalog and moderate base faults for the regime chain to amplify,
/// named (and so cached) `resilience-<base name>`.
pub(crate) fn campaign_preset(base: &Preset) -> Preset {
    Preset {
        name: format!("resilience-{}", base.name),
        paths: base.paths.min(8),
        traces_per_path: 1,
        epochs_per_trace: base.epochs_per_trace.min(40),
        faults: FaultConfig::uniform(0.08),
        regimes: RegimeConfig::flaky(),
        ..base.clone()
    }
}

pub fn run(args: &Args) -> Result<Vec<Artifact>, String> {
    let mut out = String::new();
    let preset = campaign_preset(&args.preset);
    let cfg = fb_config(&preset);
    let catalog = predictor_catalog();

    // The campaign streams (DESIGN.md §15): each path is loaded,
    // evaluated, and dropped, so a synth-scale preset never holds more
    // than one path in memory.
    let dir = args.data_dir.join(&preset.name);
    let mut cells: BTreeMap<(usize, usize), Cell> = BTreeMap::new();
    let (walk, report) = tputpred_obs::with_profiling(|| {
        for_each_path(&dir, &preset, |_, path| {
            for (t_idx, trace) in path.traces.iter().enumerate() {
                let epochs = epoch_observations(trace);
                let regimes = draw_regimes(
                    &preset.regimes,
                    trace_seed(&path.config, t_idx),
                    preset.epochs_per_trace,
                );
                for (pos, entry) in catalog.iter().enumerate() {
                    let mut predictor = (entry.make)(&cfg);
                    let result = evaluate_epochs(&mut predictor, &epochs);
                    for (k, regime) in regimes.iter().enumerate() {
                        let scoreable = result.errors.get(k).copied().flatten();
                        let answered = result.predictions.get(k).is_some_and(|p| p.is_some());
                        let outlier = result.outliers.contains(&k);
                        for col in [0, regime_column(*regime)] {
                            let cell = cells.entry((pos, col)).or_default();
                            cell.epochs += 1;
                            cell.forecasts += usize::from(answered);
                            cell.errors.extend(scoreable.filter(|_| !outlier));
                        }
                    }
                }
            }
            Ok(())
        })
    });
    walk.map_err(|e| format!("dataset at {}: {e}", dir.display()))?;

    outln!(
        out,
        "# fig25: availability x RMSRE per outage regime, {} predictors x {} paths ({} preset)",
        catalog.len(),
        preset.paths,
        args.preset.name
    );
    out.push_str("# regimes: flaky chain over uniform(0.08) base faults (DESIGN.md 13);\n");
    out.push_str("# availability = epochs with a forecast / epochs; rmsre pools scoreable\n");
    out.push_str("# epochs of the regime, LSO outliers excluded.\n");
    let mut table = render::Table::new([
        "predictor",
        "regime",
        "epochs",
        "forecasts",
        "availability",
        "scored",
        "rmsre",
    ]);
    let mut csv = format!("{}\n", RESILIENCE_CSV_COLUMNS.join(","));
    for ((pos, col), cell) in &cells {
        let name = catalog[*pos].name;
        let regime = REGIME_LABELS[*col];
        let availability = cell.forecasts as f64 / cell.epochs.max(1) as f64;
        let pooled = rmsre(&cell.errors);
        table.row([
            name.to_string(),
            regime.to_string(),
            cell.epochs.to_string(),
            cell.forecasts.to_string(),
            render::f(availability),
            cell.errors.len().to_string(),
            pooled.map_or("n/a".into(), render::f),
        ]);
        outln!(
            csv,
            "{name},{regime},{},{},{availability},{},{}",
            cell.epochs,
            cell.forecasts,
            cell.errors.len(),
            pooled.map_or("n/a".to_string(), |r| r.to_string())
        );
    }
    out.push_str(&table.render());

    // The policy layer's own decision counters, from the same run.
    for counter in report.counters_with_prefix("core.resilience.") {
        outln!(out, "# {} = {}", counter.name, counter.count);
    }

    // Down-regime ranking: who keeps answering when the node is dark,
    // and at what accuracy.
    let mut down: Vec<(&str, f64)> = cells
        .iter()
        .filter(|((_, col), _)| *col == 3)
        .map(|((pos, _), cell)| {
            (
                catalog[*pos].name,
                cell.forecasts as f64 / cell.epochs.max(1) as f64,
            )
        })
        .collect();
    down.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    let ranking: Vec<String> = down
        .iter()
        .map(|(name, avail)| format!("{name}={avail:.3}"))
        .collect();
    outln!(
        out,
        "# down-regime availability ranking: {}",
        ranking.join(" ")
    );

    Ok(vec![
        Artifact::new("fig25_resilience.txt", out),
        Artifact::new(format!("resilience_{}.csv", args.preset.name), csv),
    ])
}
