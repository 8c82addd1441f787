//! Staleness guard for the committed CSV exports: `results/epochs_*.csv`
//! must match the schema `export_csv` writes today
//! ([`tputpred_bench::EPOCH_CSV_COLUMNS`]), `results/league_*.csv` the
//! schema `fig24_league_table` writes
//! ([`tputpred_bench::LEAGUE_CSV_COLUMNS`]), and
//! `results/resilience_*.csv` the schema `fig25_resilience` writes
//! ([`tputpred_bench::RESILIENCE_CSV_COLUMNS`]). The committed file
//! went stale once before (PR 2); this fails the build instead of
//! leaving it to review.

use std::fs;
use std::path::{Path, PathBuf};

use tputpred_bench::{EPOCH_CSV_COLUMNS, LEAGUE_CSV_COLUMNS, RESILIENCE_CSV_COLUMNS};

fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// Every committed epoch CSV, by file name. At least `epochs_quick.csv`
/// must exist — a silently empty glob would make the guard vacuous.
fn committed_epoch_csvs() -> Vec<PathBuf> {
    let dir = results_dir();
    let mut files: Vec<PathBuf> = fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("results dir {}: {e}", dir.display()))
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("epochs_") && n.ends_with(".csv"))
        })
        .collect();
    files.sort();
    assert!(
        !files.is_empty(),
        "no epochs_*.csv committed under {} — the schema guard has nothing to check",
        dir.display()
    );
    files
}

#[test]
fn committed_epoch_csvs_match_the_export_schema() {
    for file in committed_epoch_csvs() {
        let text =
            fs::read_to_string(&file).unwrap_or_else(|e| panic!("reading {}: {e}", file.display()));
        let mut lines = text.lines();
        let header = lines.next().unwrap_or_default();
        assert_eq!(
            header,
            EPOCH_CSV_COLUMNS.join(","),
            "{}: header drifted from export_csv's schema — regenerate with \
             `cargo run --release -p tputpred-bench --bin repro -- export_csv`",
            file.display()
        );
        let status_col = EPOCH_CSV_COLUMNS
            .iter()
            .position(|&c| c == "status")
            .expect("schema declares a status column");

        for (i, line) in lines.enumerate() {
            if line.is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split(',').collect();
            assert_eq!(
                fields.len(),
                EPOCH_CSV_COLUMNS.len(),
                "{} row {}: {} fields for {} columns",
                file.display(),
                i + 2,
                fields.len(),
                EPOCH_CSV_COLUMNS.len()
            );
            let status = fields[status_col];
            assert!(
                matches!(status, "Ok" | "Degraded" | "Missing"),
                "{} row {}: unknown status '{}'",
                file.display(),
                i + 2,
                status
            );
        }
    }
}

/// Every committed league CSV, by file name. At least `league_quick.csv`
/// must exist once `fig24_league_table` ships its output.
fn committed_league_csvs() -> Vec<PathBuf> {
    let dir = results_dir();
    let mut files: Vec<PathBuf> = fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("results dir {}: {e}", dir.display()))
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("league_") && n.ends_with(".csv"))
        })
        .collect();
    files.sort();
    assert!(
        !files.is_empty(),
        "no league_*.csv committed under {} — regenerate with \
         `cargo run --release -p tputpred-bench --bin repro -- fig24_league_table`",
        dir.display()
    );
    files
}

#[test]
fn committed_league_csvs_match_the_fig24_schema() {
    let predictor_col = LEAGUE_CSV_COLUMNS
        .iter()
        .position(|&c| c == "predictor")
        .expect("schema declares a predictor column");
    let known: Vec<&str> = tputpred_core::catalog::predictor_catalog()
        .iter()
        .map(|e| e.name)
        .collect();
    for file in committed_league_csvs() {
        let text =
            fs::read_to_string(&file).unwrap_or_else(|e| panic!("reading {}: {e}", file.display()));
        let mut lines = text.lines();
        let header = lines.next().unwrap_or_default();
        assert_eq!(
            header,
            LEAGUE_CSV_COLUMNS.join(","),
            "{}: header drifted from fig24_league_table's schema — regenerate with \
             `cargo run --release -p tputpred-bench --bin repro -- fig24_league_table`",
            file.display()
        );
        let mut rows = 0;
        for (i, line) in lines.enumerate() {
            if line.is_empty() {
                continue;
            }
            rows += 1;
            let fields: Vec<&str> = line.split(',').collect();
            assert_eq!(
                fields.len(),
                LEAGUE_CSV_COLUMNS.len(),
                "{} row {}: {} fields for {} columns",
                file.display(),
                i + 2,
                fields.len(),
                LEAGUE_CSV_COLUMNS.len()
            );
            assert!(
                known.contains(&fields[predictor_col]),
                "{} row {}: predictor '{}' is not in the registry",
                file.display(),
                i + 2,
                fields[predictor_col]
            );
        }
        // Every registry family appears (at least its 'all' row).
        for name in &known {
            assert!(
                text.lines()
                    .skip(1)
                    .any(|l| l.starts_with(&format!("{name},"))),
                "{}: registry predictor '{}' missing from the table — stale file?",
                file.display(),
                name
            );
        }
        assert!(
            rows >= known.len(),
            "{}: suspiciously few rows",
            file.display()
        );
    }
}

/// Every committed resilience CSV, by file name. At least
/// `resilience_quick.csv` must exist once `fig25_resilience` ships its
/// output.
fn committed_resilience_csvs() -> Vec<PathBuf> {
    let dir = results_dir();
    let mut files: Vec<PathBuf> = fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("results dir {}: {e}", dir.display()))
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("resilience_") && n.ends_with(".csv"))
        })
        .collect();
    files.sort();
    assert!(
        !files.is_empty(),
        "no resilience_*.csv committed under {} — regenerate with \
         `cargo run --release -p tputpred-bench --bin repro -- fig25_resilience`",
        dir.display()
    );
    files
}

#[test]
fn committed_resilience_csvs_match_the_fig25_schema() {
    let col = |name: &str| {
        RESILIENCE_CSV_COLUMNS
            .iter()
            .position(|&c| c == name)
            .unwrap_or_else(|| panic!("schema declares a {name} column"))
    };
    let predictor_col = col("predictor");
    let regime_col = col("regime");
    let availability_col = col("availability");
    let known: Vec<&str> = tputpred_core::catalog::predictor_catalog()
        .iter()
        .map(|e| e.name)
        .collect();
    for file in committed_resilience_csvs() {
        let text =
            fs::read_to_string(&file).unwrap_or_else(|e| panic!("reading {}: {e}", file.display()));
        let mut lines = text.lines();
        let header = lines.next().unwrap_or_default();
        assert_eq!(
            header,
            RESILIENCE_CSV_COLUMNS.join(","),
            "{}: header drifted from fig25_resilience's schema — regenerate with \
             `cargo run --release -p tputpred-bench --bin repro -- fig25_resilience`",
            file.display()
        );
        for (i, line) in lines.enumerate() {
            if line.is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split(',').collect();
            assert_eq!(
                fields.len(),
                RESILIENCE_CSV_COLUMNS.len(),
                "{} row {}: {} fields for {} columns",
                file.display(),
                i + 2,
                fields.len(),
                RESILIENCE_CSV_COLUMNS.len()
            );
            assert!(
                known.contains(&fields[predictor_col]),
                "{} row {}: predictor '{}' is not in the registry",
                file.display(),
                i + 2,
                fields[predictor_col]
            );
            assert!(
                matches!(fields[regime_col], "all" | "healthy" | "degraded" | "down"),
                "{} row {}: unknown regime '{}'",
                file.display(),
                i + 2,
                fields[regime_col]
            );
            let availability: f64 = fields[availability_col].parse().unwrap_or(f64::NAN);
            assert!(
                (0.0..=1.0).contains(&availability),
                "{} row {}: availability {} outside [0, 1]",
                file.display(),
                i + 2,
                fields[availability_col]
            );
        }
        // Every registry family appears, and its pooled 'all' row too.
        for name in &known {
            assert!(
                text.lines()
                    .skip(1)
                    .any(|l| l.starts_with(&format!("{name},all,"))),
                "{}: registry predictor '{}' has no 'all' row — stale file?",
                file.display(),
                name
            );
        }
    }
}
