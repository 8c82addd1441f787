//! Profiled dataset generation and the `BENCH_gen_<preset>.json` report.
//!
//! The `perf_report` binary routes through [`profile_for_each_path`]:
//! the shard walk (DESIGN.md §9) runs under
//! [`tputpred_obs::with_profiling`] (telemetry enabled for exactly that
//! call), and the raw [`TelemetryReport`] is distilled
//! into a [`PerfReport`] — stage wall-clock timings, simulator event
//! rates, the parallel speedup actually achieved, and the shard cache's
//! hit/miss/regen counts — then written as JSON.
//!
//! Telemetry is observation-only (DESIGN.md §11): the dataset produced
//! under profiling is bit-identical to an unprofiled run, and the shards
//! it writes land in the normal cache location for the figure entries
//! to reuse.

use std::io;
use std::path::{Path, PathBuf};

use crate::cli::Args;
use serde::{Deserialize, Serialize};
use tputpred_obs::{self as obs, TelemetryReport};
use tputpred_testbed::{for_each_path, PathData, ShardStats};

/// Wall-clock summary of one named timing scope.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageTiming {
    /// Scope name as registered (e.g. `stage.transfer`).
    pub name: String,
    /// Times the scope ran.
    pub calls: u64,
    /// Summed wall time across calls (seconds).
    pub total_s: f64,
    /// Mean wall time per call (seconds).
    pub mean_s: f64,
    /// Fastest single call (seconds).
    pub min_s: f64,
    /// Slowest single call (seconds).
    pub max_s: f64,
}

/// Wall time spent simulating one path's traces.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PathTiming {
    /// Path name from the catalog (e.g. `lossy-tight`).
    pub path: String,
    /// Traces of this path that were simulated.
    pub traces: u64,
    /// Summed wall time across those traces (seconds).
    pub total_s: f64,
}

/// One event/packet/fault counter, carried over verbatim.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterLine {
    /// Counter name (e.g. `netsim.packets_dropped`).
    pub name: String,
    /// Final count.
    pub count: u64,
}

/// The `BENCH_gen_<preset>.json` payload: what a generation run cost and
/// where the time went. Schema documented in DESIGN.md §11.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerfReport {
    /// Preset that was generated.
    pub preset: String,
    /// Behavior hash of the simulation code that ran.
    pub behavior_hash: String,
    /// Worker threads the generation pool used. `None` when the run
    /// regenerated nothing (warm cache): the `testbed.workers` gauge is
    /// only set when the generation fan-out runs, and inventing a
    /// count would make the utilization column silently wrong
    /// (DESIGN.md §15).
    pub workers: Option<u64>,
    /// Traces simulated.
    pub traces: u64,
    /// Epochs simulated (including degraded ones).
    pub epochs: u64,
    /// Wall time of the generation fan-out, the `testbed.generate_wall`
    /// scope (seconds).
    pub generate_wall_s: f64,
    /// Summed per-trace wall time across all workers (seconds).
    pub trace_wall_total_s: f64,
    /// `trace_wall_total_s / generate_wall_s`: how many traces ran
    /// concurrently on average. 1.0 on a sequential run.
    pub parallel_speedup: f64,
    /// `parallel_speedup / workers`: fraction of the pool kept busy.
    /// `None` whenever `workers` is — a warm run has no pool to
    /// utilize, and the old `unwrap_or(1.0)` fallback used to report
    /// utilization = speedup in exactly that case.
    pub worker_utilization: Option<f64>,
    /// Simulator events dispatched across all traces.
    pub events: u64,
    /// Events per wall-clock second of the generation fan-out.
    pub events_per_wall_s: f64,
    /// Cache shards reused as-is (hash and fingerprint matched).
    pub shards_hit: u64,
    /// Cache shards absent from disk.
    pub shards_missing: u64,
    /// Cache shards present but untrusted (stale hash/fingerprint or
    /// unparseable).
    pub shards_stale: u64,
    /// Cache shards regenerated this run (`missing + stale`).
    pub shards_regenerated: u64,
    /// Per-stage wall-clock breakdown, sorted by total descending.
    pub stages: Vec<StageTiming>,
    /// Per-path wall-clock breakdown, sorted by total descending.
    pub paths: Vec<PathTiming>,
    /// All counters from the run, sorted by name.
    pub counters: Vec<CounterLine>,
}

/// Runs [`tputpred_testbed::for_each_path`] for `args` with telemetry
/// enabled, so `visit` sees every path in catalog order while only one
/// shard is resident (DESIGN.md §15), and returns the shard counts with
/// the distilled [`PerfReport`].
///
/// Profiles the walk as the figure entries experience it: a cold cache
/// times the simulator, a warm one times shard deserialization, and a
/// partially stale one times exactly the regenerated slice — the
/// `shards_*` counters say which case ran (a CI smoke step asserts on
/// them). Delete `data/<preset>/` first to force a full simulator
/// profile.
pub fn profile_for_each_path<V>(args: &Args, visit: V) -> io::Result<(ShardStats, PerfReport)>
where
    V: FnMut(usize, &PathData) -> io::Result<()>,
{
    let dir = args.shard_dir();
    let (result, telemetry) = obs::with_profiling(|| for_each_path(&dir, &args.preset, visit));
    let stats = result?;
    eprintln!("# profiled shard cache -> {}", dir.display());
    let report = distill(&args.preset.name, &telemetry);
    Ok((stats, report))
}

/// Where the perf report for `preset_name` is written: the current
/// working directory, named `BENCH_gen_<preset>.json`.
pub fn perf_report_path(preset_name: &str) -> PathBuf {
    PathBuf::from(format!("BENCH_gen_{preset_name}.json"))
}

/// Serializes `report` as JSON to `path`.
pub fn write_perf_report(report: &PerfReport, path: &Path) -> io::Result<()> {
    let json = serde_json::to_string(report).map_err(io::Error::other)?;
    std::fs::write(path, json)
}

/// Reads a previously written perf report (e.g. the committed baseline
/// `results/BENCH_gen_quick.json`).
pub fn read_perf_report(path: &Path) -> io::Result<PerfReport> {
    let json = std::fs::read_to_string(path)?;
    serde_json::from_str(&json).map_err(io::Error::other)
}

/// Regression tolerance of the perf gate: a fresh run must reach at
/// least this fraction of the baseline's `events_per_wall_s`.
///
/// The gate compares absolute event rates, so it assumes comparable
/// hardware between the baseline recording and the gated run (CI pins
/// a cold, single-worker profile for this reason); the 20% margin
/// absorbs ordinary scheduler and cache noise, not a machine change.
pub const BASELINE_MIN_RATIO: f64 = 0.8;

/// Verdict of gating a fresh run against a committed baseline report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BaselineGate {
    /// The committed baseline's event rate.
    pub baseline_events_per_wall_s: f64,
    /// The fresh run's event rate.
    pub current_events_per_wall_s: f64,
    /// `current / baseline` (∞-safe: a zero baseline always passes).
    pub ratio: f64,
    /// Whether the run is within [`BASELINE_MIN_RATIO`] of the baseline.
    pub pass: bool,
}

/// Gates `current` against `baseline` on `events_per_wall_s`.
pub fn gate_against_baseline(current: &PerfReport, baseline: &PerfReport) -> BaselineGate {
    let base = baseline.events_per_wall_s;
    let cur = current.events_per_wall_s;
    let ratio = if base > 0.0 {
        cur / base
    } else {
        f64::INFINITY
    };
    BaselineGate {
        baseline_events_per_wall_s: base,
        current_events_per_wall_s: cur,
        ratio,
        pass: ratio >= BASELINE_MIN_RATIO,
    }
}

/// Renders the gate verdict as the one-line summary `perf_report` prints.
pub fn render_baseline_gate(g: &BaselineGate) -> String {
    format!(
        "# perf gate: {:.0} events/s vs baseline {:.0} ({:.2}x, floor {:.2}x) -> {}",
        g.current_events_per_wall_s,
        g.baseline_events_per_wall_s,
        g.ratio,
        BASELINE_MIN_RATIO,
        if g.pass { "PASS" } else { "FAIL" }
    )
}

/// Distills a raw telemetry snapshot into the [`PerfReport`] schema.
pub fn distill(preset_name: &str, t: &TelemetryReport) -> PerfReport {
    let generate_wall_s = t
        .timer_total_s("testbed.generate_wall")
        .max(f64::MIN_POSITIVE);
    let trace_wall_total_s = t.timer_total_s("testbed.trace_wall");
    // No gauge means nothing was generated (warm cache): leave the
    // worker fields absent rather than defaulting to 1 — the old
    // fallback made a warm profile report utilization = speedup.
    let workers = t.gauge("testbed.workers").map(|w| w.max(1.0));
    let parallel_speedup = trace_wall_total_s / generate_wall_s;
    let events = t.counter("netsim.events").unwrap_or(0);

    let mut stages: Vec<StageTiming> = t
        .timers
        .iter()
        .filter(|e| !e.name.starts_with("path_wall."))
        .map(|e| StageTiming {
            name: e.name.clone(),
            calls: e.count,
            total_s: e.total_s,
            mean_s: e.mean_s(),
            min_s: e.min_s,
            max_s: e.max_s,
        })
        .collect();
    stages.sort_by(|a, b| b.total_s.total_cmp(&a.total_s));

    let mut paths: Vec<PathTiming> = t
        .timers
        .iter()
        .filter_map(|e| {
            let path = e.name.strip_prefix("path_wall.")?;
            Some(PathTiming {
                path: path.to_string(),
                traces: e.count,
                total_s: e.total_s,
            })
        })
        .collect();
    paths.sort_by(|a, b| b.total_s.total_cmp(&a.total_s));

    let counters: Vec<CounterLine> = t
        .counters
        .iter()
        .map(|c| CounterLine {
            name: c.name.clone(),
            count: c.count,
        })
        .collect();

    PerfReport {
        preset: preset_name.to_string(),
        behavior_hash: tputpred_testbed::data::BEHAVIOR_HASH.to_string(),
        workers: workers.map(|w| w as u64),
        traces: t.counter("testbed.traces").unwrap_or(0),
        epochs: t.counter("testbed.epochs").unwrap_or(0),
        generate_wall_s,
        trace_wall_total_s,
        parallel_speedup,
        worker_utilization: workers.map(|w| parallel_speedup / w),
        events,
        events_per_wall_s: events as f64 / generate_wall_s,
        shards_hit: t.counter("testbed.shards.hit").unwrap_or(0),
        shards_missing: t.counter("testbed.shards.missing").unwrap_or(0),
        shards_stale: t.counter("testbed.shards.stale").unwrap_or(0),
        shards_regenerated: t.counter("testbed.shards.regenerated").unwrap_or(0),
        stages,
        paths,
        counters,
    }
}

/// Renders the report as the fixed-width text block `perf_report` prints.
pub fn render_perf_report(r: &PerfReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "# perf: preset={} hash={}", r.preset, r.behavior_hash);
    let _ = writeln!(
        out,
        "# wall={:.2}s traces={} epochs={} events={} ({:.0} events/s)",
        r.generate_wall_s, r.traces, r.epochs, r.events, r.events_per_wall_s
    );
    match (r.workers, r.worker_utilization) {
        (Some(w), Some(u)) => {
            let _ = writeln!(
                out,
                "# workers={} speedup={:.2}x utilization={:.0}%",
                w,
                r.parallel_speedup,
                u * 100.0
            );
        }
        _ => {
            let _ = writeln!(
                out,
                "# workers=n/a speedup={:.2}x utilization=n/a \
                 (nothing regenerated — warm cache, no worker pool ran)",
                r.parallel_speedup
            );
        }
    }
    let _ = writeln!(
        out,
        "# shards: hit={} missing={} stale={} regenerated={}",
        r.shards_hit, r.shards_missing, r.shards_stale, r.shards_regenerated
    );
    let _ = writeln!(
        out,
        "{:<28} {:>8} {:>10} {:>10} {:>10} {:>10}",
        "stage", "calls", "total_s", "mean_s", "min_s", "max_s"
    );
    for s in &r.stages {
        let _ = writeln!(
            out,
            "{:<28} {:>8} {:>10.4} {:>10.6} {:>10.6} {:>10.6}",
            s.name, s.calls, s.total_s, s.mean_s, s.min_s, s.max_s
        );
    }
    if !r.paths.is_empty() {
        let _ = writeln!(out, "{:<28} {:>8} {:>10}", "path", "traces", "total_s");
        for p in &r.paths {
            let _ = writeln!(out, "{:<28} {:>8} {:>10.4}", p.path, p.traces, p.total_s);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tputpred_obs::{CounterEntry, GaugeEntry, TimerEntry};

    fn fake_telemetry() -> TelemetryReport {
        let mut t = TelemetryReport::empty();
        t.counters = vec![
            CounterEntry {
                name: "netsim.events".into(),
                count: 5_000,
            },
            CounterEntry {
                name: "testbed.epochs".into(),
                count: 12,
            },
            CounterEntry {
                name: "testbed.traces".into(),
                count: 4,
            },
            CounterEntry {
                name: "testbed.shards.hit".into(),
                count: 3,
            },
            CounterEntry {
                name: "testbed.shards.missing".into(),
                count: 1,
            },
            CounterEntry {
                name: "testbed.shards.stale".into(),
                count: 2,
            },
            CounterEntry {
                name: "testbed.shards.regenerated".into(),
                count: 3,
            },
        ];
        t.gauges = vec![GaugeEntry {
            name: "testbed.workers".into(),
            value: 2.0,
        }];
        t.timers = vec![
            TimerEntry {
                name: "path_wall.lossy".into(),
                count: 2,
                total_s: 1.5,
                min_s: 0.5,
                max_s: 1.0,
            },
            TimerEntry {
                name: "testbed.generate_wall".into(),
                count: 1,
                total_s: 2.0,
                min_s: 2.0,
                max_s: 2.0,
            },
            TimerEntry {
                name: "testbed.trace_wall".into(),
                count: 4,
                total_s: 3.0,
                min_s: 0.25,
                max_s: 1.5,
            },
        ];
        t
    }

    #[test]
    fn distill_computes_speedup_and_rates() {
        let r = distill("quick", &fake_telemetry());
        assert_eq!(r.preset, "quick");
        assert_eq!(r.workers, Some(2));
        assert_eq!(r.traces, 4);
        assert_eq!(r.epochs, 12);
        assert_eq!(r.events, 5_000);
        assert!((r.parallel_speedup - 1.5).abs() < 1e-12);
        let utilization = r.worker_utilization.expect("gauge present");
        assert!((utilization - 0.75).abs() < 1e-12);
        assert!((r.events_per_wall_s - 2_500.0).abs() < 1e-9);
        assert_eq!(r.shards_hit, 3);
        assert_eq!(r.shards_missing, 1);
        assert_eq!(r.shards_stale, 2);
        assert_eq!(r.shards_regenerated, 3);
        // path_wall.* timers become the per-path table, not stages.
        assert!(r.stages.iter().all(|s| !s.name.starts_with("path_wall.")));
        assert_eq!(r.paths.len(), 1);
        assert_eq!(r.paths[0].path, "lossy");
        assert_eq!(r.paths[0].traces, 2);
    }

    #[test]
    fn missing_worker_gauge_is_explicit_not_defaulted() {
        // The satellite bugfix: a warm run never sets `testbed.workers`
        // (nothing fans out), and the old `unwrap_or(1.0)` fallback
        // silently reported utilization = speedup. Absence must stay
        // absent, in the JSON and in the rendered text.
        let mut t = fake_telemetry();
        t.gauges.clear();
        let r = distill("quick", &t);
        assert_eq!(r.workers, None, "no gauge -> no worker count");
        assert_eq!(r.worker_utilization, None, "no gauge -> no utilization");
        assert!(
            (r.parallel_speedup - 1.5).abs() < 1e-12,
            "speedup is still well-defined without the gauge"
        );
        let text = render_perf_report(&r);
        assert!(text.contains("workers=n/a"), "render marks the gap: {text}");
        assert!(text.contains("utilization=n/a"));
        assert!(
            !text.contains("utilization=150%"),
            "must not fall back to utilization = speedup"
        );
        // And the explicit case still round-trips through JSON.
        let json = serde_json::to_string(&r).expect("serializes");
        let back: PerfReport = serde_json::from_str(&json).expect("deserializes");
        assert_eq!(back.workers, None);
        assert_eq!(back.worker_utilization, None);
    }

    #[test]
    fn report_round_trips_through_json() {
        let r = distill("tiny", &fake_telemetry());
        let json = serde_json::to_string(&r).expect("serializes");
        let back: PerfReport = serde_json::from_str(&json).expect("deserializes");
        assert_eq!(back, r);
    }

    #[test]
    fn render_names_every_stage() {
        let r = distill("tiny", &fake_telemetry());
        let text = render_perf_report(&r);
        for s in &r.stages {
            assert!(text.contains(&s.name), "missing stage {}", s.name);
        }
        assert!(text.contains("speedup=1.50x"));
        assert!(text.contains("shards: hit=3 missing=1 stale=2 regenerated=3"));
    }

    #[test]
    fn baseline_gate_passes_within_tolerance_and_fails_beyond() {
        let baseline = distill("quick", &fake_telemetry());
        // Same report gates against itself at ratio 1.0.
        let same = gate_against_baseline(&baseline, &baseline);
        assert!(same.pass);
        assert!((same.ratio - 1.0).abs() < 1e-12);

        // 21% slower: just past the 20% floor.
        let mut slow = baseline.clone();
        slow.events_per_wall_s = baseline.events_per_wall_s * 0.79;
        let g = gate_against_baseline(&slow, &baseline);
        assert!(!g.pass, "{g:?}");
        assert!(render_baseline_gate(&g).contains("FAIL"));

        // 19% slower: inside the floor.
        let mut ok = baseline.clone();
        ok.events_per_wall_s = baseline.events_per_wall_s * 0.81;
        let g = gate_against_baseline(&ok, &baseline);
        assert!(g.pass, "{g:?}");
        assert!(render_baseline_gate(&g).contains("PASS"));

        // A zero-rate baseline (empty telemetry) can never fail the gate.
        let mut zero = baseline.clone();
        zero.events_per_wall_s = 0.0;
        assert!(gate_against_baseline(&baseline, &zero).pass);
    }

    #[test]
    fn perf_report_round_trips_through_disk() {
        let r = distill("tiny", &fake_telemetry());
        let dir = std::env::temp_dir().join("tputpred-perf-report-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("BENCH_gen_roundtrip.json");
        write_perf_report(&r, &path).expect("writes");
        let back = read_perf_report(&path).expect("reads");
        assert_eq!(back, r);
        let _ = std::fs::remove_file(&path);
    }
}
