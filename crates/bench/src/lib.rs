//! # tputpred-bench — figure regeneration and profiling
//!
//! Every table, figure, ablation and diagnostic of the paper's evaluation
//! is a registered function in [`figures`] (see DESIGN.md's per-experiment
//! index); the `repro` binary runs any subset of them in one process and
//! writes their text to `results/`, and `perf_report` profiles a dataset
//! generation. This library holds what they share:
//!
//! * [`cli`] — the tiny `--preset <name> --data <dir>` argument parser
//!   of `repro` and `perf_report`;
//! * [`analysis`] — applying the FB predictor (Eq. 3) to epoch records,
//!   labelled HB predictor line-ups (`zoo!`), per-trace RMSRE
//!   evaluation, CDF and correlation summaries, and dataset caching;
//! * [`figures`] — the registry of figure entries and the one function
//!   that writes their artifacts;
//! * [`profile`] — telemetry-enabled generation (`perf_report`) and the
//!   `BENCH_gen_<preset>.json` perf report.
//!
//! Entries render plain-text series/tables (via
//! [`tputpred_stats::render`]) so the output is diff- and grep-friendly;
//! run them in release mode, e.g.:
//!
//! ```text
//! cargo run --release -p tputpred-bench --bin repro -- fig02_fb_error_cdf
//! ```

#[macro_use]
pub mod analysis;
pub mod cli;
pub mod figures;
pub mod profile;

pub use analysis::*;
pub use cli::Args;
pub use figures::Artifact;
pub use profile::{PerfReport, StageTiming};
