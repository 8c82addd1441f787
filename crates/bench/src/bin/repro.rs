//! Regenerates the evaluation's committed outputs: runs the named
//! registry entries ([`tputpred_bench::figures::REGISTRY`]), or all of
//! them, in one process and writes their artifacts.
//!
//! ```text
//! cargo run --release -p tputpred-bench --bin repro                      # all of results/
//! cargo run --release -p tputpred-bench --bin repro -- fig02_fb_error_cdf abl_ar
//! cargo run --release -p tputpred-bench --bin repro -- --preset synth1k fig24_league_table
//! ```
//!
//! Artifacts go to `results/` for the `quick` preset and to
//! `results/<preset>/` for any other. The worker count (`--workers`, or
//! the `synth*` default) is applied once, for every entry. An entry that
//! fails — an error from the entry or from writing one of its files — is
//! reported as `<entry>: <message>` on stderr; the remaining entries
//! still run, and the process exits 1.

use std::process::ExitCode;

use tputpred_bench::figures::{output_dir, write_artifact, REGISTRY};
use tputpred_bench::Args;

fn main() -> ExitCode {
    // `[--preset P] [--data DIR] [--workers N] [NAME...]`; no names
    // selects every entry.
    let (args, names) = Args::parse_with_names(std::env::args().skip(1))
        .unwrap_or_else(|msg| Args::exit_with_usage(&msg));
    if args.baseline.is_some() {
        Args::exit_with_usage("--baseline is a perf_report option");
    }
    let known: Vec<&str> = REGISTRY.iter().map(|(name, _)| *name).collect();
    if let Some(name) = names.iter().find(|name| !known.contains(&name.as_str())) {
        Args::exit_with_usage(&format!(
            "no registry entry '{name}' (known: {})",
            known.join(" ")
        ));
    }
    args.apply_workers();
    let dir = output_dir(&args.preset);
    let mut failed = 0usize;
    for (name, run) in REGISTRY {
        if !names.is_empty() && !names.iter().any(|n| n == name) {
            continue;
        }
        let written = run(&args).and_then(|artifacts| {
            artifacts.iter().try_for_each(|a| {
                write_artifact(&dir, a).map(|p| eprintln!("# wrote {}", p.display()))
            })
        });
        if let Err(msg) = written {
            eprintln!("{name}: {msg}");
            failed += 1;
        }
    }
    if failed > 0 {
        eprintln!("# {failed} registry entries failed");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
