//! Profiles the sharded dataset load end to end and emits
//! `BENCH_gen_<preset>.json` (DESIGN.md §11):
//!
//! ```text
//! cargo run --release -p tputpred-bench --bin perf_report -- --preset quick
//! ```
//!
//! The load runs with telemetry enabled against the per-path shard
//! cache `data/<preset>/` (DESIGN.md §9), so the report reflects what a
//! figure entry would pay: a cold cache profiles the simulator, a warm
//! one profiles shard deserialization, and the `shards_*` counters say
//! which case ran. Delete `data/<preset>/` first for a full simulator
//! profile. Stdout gets the human-readable stage/path tables; the JSON
//! report lands in the working directory.
//!
//! With `--baseline <file>` the run is additionally gated against a
//! committed report (DESIGN.md §14): exit code 1 when this run's
//! events/s falls below [`profile::BASELINE_MIN_RATIO`] of the
//! baseline's.

use tputpred_bench::{profile, Args};
use tputpred_testbed::EpochStatus;

fn main() {
    let args = Args::parse();
    let mut epochs = 0usize;
    let mut degraded = 0usize;
    // Stream the shards (DESIGN.md §15): the epoch tallies accumulate
    // per visited path, so a 10k-path profile never holds the dataset.
    let (_, report) = profile::profile_for_each_path(&args, |_, path| {
        for trace in &path.traces {
            for rec in &trace.records {
                epochs += 1;
                degraded += usize::from(rec.status != EpochStatus::Ok);
            }
        }
        Ok(())
    })
    .unwrap_or_else(|e| panic!("profiled generation: {e}"));
    print!("{}", profile::render_perf_report(&report));
    println!(
        "# dataset: {} ({} epochs, {} degraded)",
        args.preset.name, epochs, degraded
    );
    let out = profile::perf_report_path(&args.preset.name);
    profile::write_perf_report(&report, &out)
        .unwrap_or_else(|e| panic!("writing {}: {e}", out.display()));
    println!("# perf report -> {}", out.display());

    if let Some(baseline_path) = &args.baseline {
        let baseline = profile::read_perf_report(baseline_path)
            .unwrap_or_else(|e| panic!("reading baseline {}: {e}", baseline_path.display()));
        let gate = profile::gate_against_baseline(&report, &baseline);
        println!("{}", profile::render_baseline_gate(&gate));
        if report.events == 0 {
            eprintln!(
                "# perf gate: this run regenerated nothing (warm shard cache), so there is \
                 no event rate to gate — delete data/{}/ and rerun cold",
                args.preset.name
            );
        }
        if !gate.pass {
            std::process::exit(1);
        }
    }
}
