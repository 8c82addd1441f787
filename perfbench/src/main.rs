//! `perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--paths N]`
//!
//! Runs one workload from this process and prints every metric with its
//! unit, then one JSON object as the last line of standard output.
//! Exits 1 on a failed run and 2 on a usage error or a debug build.

use std::process::ExitCode;

use tputpred_perfbench::run::{self, Config};
use tputpred_perfbench::workload::Workload;

const USAGE: &str = "usage: perfbench --workload <gen_quick|gen_synth1k|analyze_quick> \
                     [--seed N] [--seconds S] [--trace 0|1] [--paths N]";

/// Parses the command line; `Ok((config, prepare))`.
fn parse(args: &[String]) -> Result<(Config, bool), String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut paths, mut prepare) =
        (None, 15.0, false, None, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--prepare" {
            prepare = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = value.parse::<f64>().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--paths" => paths = Some(value.parse::<usize>().map_err(|_| bad())?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !(0.0..=86_400.0).contains(&seconds) {
        return Err(format!("bad value for --seconds: {seconds}"));
    }
    let paths = paths.unwrap_or_else(|| workload.default_paths());
    if paths < 4 {
        return Err("--paths must be at least 4 (the smallest catalog with every class)".into());
    }
    let config = Config {
        workload,
        seed: seed.unwrap_or_else(|| workload.base_preset().seed),
        paths,
        seconds,
        trace,
    };
    Ok((config, prepare))
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("perfbench: refusing to measure a build with debug assertions; use --release");
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (config, prepare) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if prepare {
        run::prepare(&config).map(|()| None)
    } else {
        run::run(&config).map(Some)
    };
    match outcome {
        Ok(Some(report)) => {
            for line in &report.lines {
                println!("{line}");
            }
            println!("{}", report.json());
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Ok(None) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
