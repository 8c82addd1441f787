//! The benchmark's metrics: end-to-end ones from the untraced units,
//! per-layer ones from the traced units' spans and the program's own
//! counters.

use tputpred_core::catalog::predictor_catalog;
use tputpred_obs::TelemetryReport;

use crate::summary::{median, tail, Tail};
use crate::trace::{covered_secs, named, Span};
use crate::unit::Unit;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Whether `name` is a valid metric name: starts with a letter or digit,
/// at most 64 of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Maps a predictor registry name into `[A-Za-z0-9.-]` plus `_` escapes,
/// injectively: letters, digits, `.` and `-` stay; `_` becomes `__`,
/// `(` `_o`, `)` `_c`, `>` `_g`, and any other character `_u` plus its
/// six-digit hex code point. Every escape starts with `_` and its second
/// character names the original, so the mapping can be undone.
pub fn metric_key(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for c in name.chars() {
        match c {
            'A'..='Z' | 'a'..='z' | '0'..='9' | '.' | '-' => out.push(c),
            '_' => out.push_str("__"),
            '(' => out.push_str("_o"),
            ')' => out.push_str("_c"),
            '>' => out.push_str("_g"),
            other => out.push_str(&format!("_u{:06x}", u32::from(other))),
        }
    }
    out
}

/// `core.<entry>_s` for every registry entry, in registry order.
pub fn entry_time_names() -> Vec<String> {
    predictor_catalog()
        .iter()
        .map(|e| format!("core.{}_s", metric_key(e.name)))
        .collect()
}

/// End-to-end metrics of a run: medians over its untraced measured
/// units, the run's set-up time `setup_s` (measured by the caller), and
/// the process's peak RSS. Times are host times: each unit's corrected for
/// the contention on its cores (see [`crate::host`]).
pub fn end_to_end(units: &[&Unit], setup_s: f64, peak_rss_mb: f64) -> Vec<Metric> {
    let med = |f: &dyn Fn(&Unit) -> f64| median(&units.iter().map(|u| f(u)).collect::<Vec<_>>());
    vec![
        metric("wall_s", med(&Unit::host_wall_s), "s"),
        metric(
            "epochs_per_s",
            med(&|u| u.epochs as f64 / u.host_wall_s()),
            "1/s",
        ),
        metric("cpu_s", med(&Unit::host_cpu_s), "s"),
        metric("peak_rss_mb", peak_rss_mb, "MiB"),
        metric("cache_mb", med(&|u| u.cache_bytes as f64 / MIB), "MiB"),
        metric("setup_s", setup_s, "s"),
    ]
}

const MIB: f64 = 1024.0 * 1024.0;

/// Counters copied as they are (they repeat exactly for one input).
const COUNTERS: &[&str] = &[
    "netsim.events",
    "netsim.timer_events",
    "netsim.arrival_events",
    "netsim.txdone_events",
    "netsim.packets_offered",
    "netsim.overflow_migrated",
    "tcp.segments_sent",
    "tcp.rto_firings",
    "probes.ping.sent",
    "probes.pathload.streams_used",
];

/// `part / whole`, or 0 when the layer did no work (`whole` = 0).
fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Per-layer metrics of a traced run, plus one line per distribution
/// naming its percentile and sample count. `traced` and `untraced` are
/// the run's measured units of each kind; a layer the workload does not
/// exercise reports 0.
pub fn per_layer(
    traced: &[&Unit],
    untraced: &[&Unit],
    spans: &[Span],
    workers: usize,
    traces_per_path: usize,
) -> (Vec<Metric>, Vec<String>) {
    let empty = TelemetryReport::empty();
    let telemetry = traced
        .first()
        .and_then(|u| u.telemetry.as_ref())
        .unwrap_or(&empty);
    let count = |name: &str| telemetry.counter(name).unwrap_or(0) as f64;
    let runs: Vec<u32> = traced.iter().map(|u| u.run).collect();
    let all =
        |name: &str| -> Vec<&Span> { runs.iter().flat_map(|&r| named(spans, r, name)).collect() };
    let per_run_median =
        |f: &dyn Fn(u32) -> f64| median(&runs.iter().map(|&r| f(r)).collect::<Vec<_>>());
    let secs_in = |run: u32, name: &str| {
        named(spans, run, name)
            .iter()
            .map(|s| s.secs())
            .sum::<f64>()
    };

    let mut out: Vec<Metric> = COUNTERS
        .iter()
        .map(|&c| metric(c, count(c), "count"))
        .collect();
    let mut notes = Vec::new();
    let mut push_dist = |out: &mut Vec<Metric>, name: &str, samples: &[f64], unit: &'static str| {
        let Tail { q, value, n } = tail(samples);
        out.push(metric(format!("{name}.p50"), median(samples), unit));
        out.push(metric(format!("{name}.tail"), value, unit));
        notes.push(format!(
            "{name}: p50 and tail = p{} over n = {n} samples",
            q * 100.0
        ));
    };

    // netsim / tcp / probes: the program's counters, per traced unit.
    let events: f64 = traced
        .iter()
        .filter_map(|u| u.telemetry.as_ref())
        .map(|t| t.counter("netsim.events").unwrap_or(0) as f64)
        .sum();
    let generate_s: f64 = all("runner.generate_path").iter().map(|s| s.secs()).sum();
    out.push(metric(
        "netsim.ns_per_event",
        ratio(generate_s * 1e9, events),
        "ns",
    ));
    out.push(metric(
        "netsim.drop_ratio",
        ratio(
            count("netsim.packets_dropped"),
            count("netsim.packets_offered"),
        ),
        "ratio",
    ));
    out.push(metric(
        "tcp.retransmit_ratio",
        ratio(count("tcp.retransmits"), count("tcp.segments_sent")),
        "ratio",
    ));
    out.push(metric(
        "probes.pathload.converged_ratio",
        ratio(
            count("probes.pathload.converged"),
            count("probes.pathload.runs"),
        ),
        "ratio",
    ));

    // runner: per-trace time of each generate_path span, busy share of
    // the worker pool, and walk time outside every trace.
    let trace_s: Vec<f64> = all("runner.generate_path")
        .iter()
        .map(|s| s.secs() / traces_per_path as f64)
        .collect();
    push_dist(&mut out, "runner.trace_s", &trace_s, "s");
    out.push(metric(
        "runner.worker_busy_frac",
        per_run_median(&|r| {
            let gens = named(spans, r, "runner.generate_path");
            let first = gens.iter().map(|s| s.start_ns).min().unwrap_or(0);
            let last = gens.iter().map(|s| s.end_ns).max().unwrap_or(0);
            let window = (last - first) as f64 / 1e9 * workers as f64;
            ratio(gens.iter().map(|s| s.secs()).sum(), window)
        }),
        "ratio",
    ));
    out.push(metric(
        "runner.outside_trace_s",
        per_run_median(&|r| {
            let gens = named(spans, r, "runner.generate_path");
            if gens.is_empty() {
                return 0.0;
            }
            secs_in(r, "data.walk") - covered_secs(&gens)
        }),
        "s",
    ));
    out.push(metric(
        "synth.catalog_s",
        median(&traced.iter().map(|u| u.catalog_s).collect::<Vec<_>>()),
        "s",
    ));

    // data: classify (walk entry to its first callback), per-shard load
    // (gap between consecutive visits), decode and encode rates.
    out.push(metric(
        "data.classify_s",
        per_run_median(&|r| {
            let Some(walk) = named(spans, r, "data.walk").into_iter().next() else {
                return 0.0;
            };
            let first = spans
                .iter()
                .filter(|s| s.parent == Some(walk.id))
                .map(|s| s.start_ns)
                .min()
                .unwrap_or(walk.end_ns);
            (first - walk.start_ns) as f64 / 1e9
        }),
        "s",
    ));
    let (mut load_s, mut decoded_bytes) = (Vec::new(), 0u64);
    for unit in traced {
        let visits = named(spans, unit.run, "data.visit");
        for pair in visits.windows(2) {
            load_s.push((pair[1].start_ns - pair[0].end_ns) as f64 / 1e9);
            decoded_bytes += unit
                .shard_bytes
                .get(pair[1].arg as usize)
                .copied()
                .unwrap_or(0);
        }
    }
    push_dist(&mut out, "data.load_s", &load_s, "s");
    out.push(metric(
        "data.decode_mb_per_s",
        ratio(decoded_bytes as f64 / MIB, load_s.iter().sum()),
        "MiB/s",
    ));
    let encode_s: f64 = all("serde_json.to_string").iter().map(|s| s.secs()).sum();
    let encoded: u64 = traced.iter().map(|u| u.encoded_bytes).sum();
    out.push(metric(
        "data.encode_mb_per_s",
        ratio(encoded as f64 / MIB, encode_s),
        "MiB/s",
    ));
    out.push(metric(
        "data.batch_load_s",
        per_run_median(&|r| secs_in(r, "data.batch_load")),
        "s",
    ));
    let first = traced.first();
    out.push(metric(
        "data.shards_hit",
        first.map_or(0.0, |u| u.shards_hit as f64),
        "count",
    ));
    out.push(metric(
        "data.shards_regenerated",
        first.map_or(0.0, |u| u.shards_regenerated as f64),
        "count",
    ));

    // core: the league's evaluate calls, and each registry entry's time.
    out.push(metric(
        "core.league_s",
        per_run_median(&|r| secs_in(r, "core.evaluate")),
        "s",
    ));
    let evaluate_us: Vec<f64> = all("core.evaluate")
        .iter()
        .map(|s| s.secs() * 1e6)
        .collect();
    push_dist(&mut out, "core.evaluate_us", &evaluate_us, "us");
    out.push(metric(
        "core.fb.refusal_ratio",
        ratio(
            count("core.fb.refusals"),
            count("core.fb.predictions") + count("core.fb.refusals"),
        ),
        "ratio",
    ));
    for (pos, name) in entry_time_names().into_iter().enumerate() {
        let entry_s = per_run_median(&|r| {
            named(spans, r, "core.evaluate")
                .iter()
                .filter(|s| s.arg == pos as u64)
                .map(|s| s.secs())
                .sum()
        });
        out.push(metric(name, entry_s, "s"));
    }

    out.push(metric(
        "stats.aggregate_s",
        per_run_median(&|r| secs_in(r, "stats.aggregate")),
        "s",
    ));
    out.push(metric(
        "analysis.observations_s",
        per_run_median(&|r| secs_in(r, "analysis.epoch_observations")),
        "s",
    ));
    let wall = |units: &[&Unit]| median(&units.iter().map(|u| u.host_wall_s()).collect::<Vec<_>>());
    out.push(metric(
        "obs.trace_overhead",
        ratio(wall(traced), wall(untraced)) - 1.0,
        "ratio",
    ));

    // host: the contention the samplers saw, and the raw wall time the
    // end-to-end `wall_s` was corrected from, over every measured unit.
    let every: Vec<&Unit> = traced.iter().chain(untraced).copied().collect();
    out.push(metric(
        "host.contention",
        median(&every.iter().map(|u| u.contention.m).collect::<Vec<_>>()),
        "ratio",
    ));
    out.push(metric(
        "host.raw_wall_s",
        median(&every.iter().map(|u| u.wall_s).collect::<Vec<_>>()),
        "s",
    ));
    (out, notes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predictor_keys_are_valid_and_injective() {
        let names = entry_time_names();
        assert!(names.iter().all(|n| valid_name(n)), "{names:?}");
        let mut unique = names.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), names.len());
        assert_eq!(metric_key("AR(2)"), "AR_o2_c");
        assert_eq!(metric_key("FB->0.8-HW-LSO->LKG"), "FB-_g0.8-HW-LSO-_gLKG");
    }

    #[test]
    fn escapes_cannot_collide_with_literal_text() {
        // Pairs that a lossy mapping (drop or replace with `_`) would merge.
        let pairs = [
            ("a_o", "a("),
            ("a__", "a_"),
            ("a b", "a_b"),
            ("(", ")"),
            ("_g", ">"),
        ];
        for (x, y) in pairs {
            assert_ne!(metric_key(x), metric_key(y), "{x:?} vs {y:?}");
        }
        assert_eq!(metric_key("a b"), "a_u000020b");
    }
}
