//! Self-tests of the benchmark: a `Preset::tiny` smoke through each
//! workload's code path, every metric of `BENCHMARK.json` emitted with
//! its unit and a valid name, and the pins tied to the committed results.

use std::path::{Path, PathBuf};

use serde::Deserialize;
use tputpred_perfbench::host::{self, Monitor};
use tputpred_perfbench::metrics::{end_to_end, entry_time_names, per_layer, valid_name, Metric};
use tputpred_perfbench::summary::{fnv1a, FNV_OFFSET};
use tputpred_perfbench::trace::Tracer;
use tputpred_perfbench::unit::{self, Unit};
use tputpred_perfbench::workload::{pin_for, Inputs, Workload, FULL_QUICK_EVENTS};
use tputpred_testbed::Preset;

#[derive(Deserialize)]
struct Benchmark {
    command: Vec<String>,
    paths: Vec<String>,
    run_seconds: u64,
    workloads: Vec<WorkloadEntry>,
    end_to_end: Vec<EndToEnd>,
    per_layer: Vec<PerLayer>,
}

#[derive(Deserialize)]
struct WorkloadEntry {
    name: String,
    why: String,
}

#[derive(Deserialize)]
struct EndToEnd {
    name: String,
    unit: String,
    better: String,
    bound: f64,
}

#[derive(Deserialize)]
struct PerLayer {
    name: String,
    unit: String,
    better: String,
}

fn repo_file(relative: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join(relative)
}

fn benchmark() -> Benchmark {
    let text = std::fs::read_to_string(repo_file("BENCHMARK.json")).expect("BENCHMARK.json");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn assert_matches(emitted: &[Metric], listed: &[(String, String)], what: &str) {
    let emitted: Vec<(String, String)> = emitted
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect();
    assert_eq!(emitted, listed, "{what} metrics differ from BENCHMARK.json");
}

fn assert_clean(unit: &Unit) {
    assert!(
        unit.problems.is_empty(),
        "unit {}: {:?}",
        unit.run,
        unit.problems
    );
}

#[test]
fn tiny_smoke_emits_every_listed_metric_and_keeps_outputs_fixed() {
    let bench = benchmark();
    let scratch = Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke");
    let inputs = Inputs {
        preset: Preset::tiny(),
        seed: Preset::tiny().seed,
    };
    let tracer = Tracer::default();

    // Generation: untraced at two workers, traced at one; same bytes.
    let gen_dir = scratch.join("gen");
    let plan = |workers| unit::Generation {
        inputs: &inputs,
        paths: 4,
        stride: 1,
        workers,
        dir: &gen_dir,
    };
    // Each unit is watched by a real sampler, as in a run.
    let cores = host::allowed_cpus();
    let monitor = Monitor::start(&cores[..1]).expect("sampler starts");
    let watched = |mut u: Unit| {
        let (from, to) = u.timed.expect("timed region");
        u.contention = monitor.contention(&cores[..1], from, to);
        u.cores = 1;
        u.exponent = 1.0;
        u
    };
    let plain = watched(unit::generate(&plan(2), 1, false, &tracer));
    let traced = watched(unit::generate(&plan(1), 2, true, &tracer));
    for u in [&plain, &traced] {
        assert_clean(u);
        assert_eq!((u.paths, u.epochs, u.shards_regenerated), (4, 48, 4));
    }
    assert_eq!(plain.path_digests, traced.path_digests);
    assert_eq!(plain.digest, traced.digest);

    // Analysis over a prepared tiny cache: untraced, then traced.
    let cache = scratch.join("cache");
    unit::prepare_analysis_cache(&inputs, &cache).expect("tiny cache");
    let read = watched(unit::analyze(&inputs, &cache, 3, false, &tracer));
    let read_traced = watched(unit::analyze(&inputs, &cache, 4, true, &tracer));
    for u in [&read, &read_traced] {
        assert_clean(u);
        assert_eq!((u.shards_hit, u.shards_regenerated), (8, 0));
    }
    assert_eq!(read.digest, read_traced.digest);
    assert_eq!(read.path_digests, read_traced.path_digests);
    assert_eq!(read.path_digests.len(), 4);

    let spans = tracer.spans();
    let listed_e2e: Vec<(String, String)> = bench
        .end_to_end
        .iter()
        .map(|m| (m.name.clone(), m.unit.clone()))
        .collect();
    let listed_layers: Vec<(String, String)> = bench
        .per_layer
        .iter()
        .map(|m| (m.name.clone(), m.unit.clone()))
        .collect();
    for units in [[&plain], [&read]] {
        assert_matches(&end_to_end(&units, 0.5, 10.0), &listed_e2e, "end-to-end");
    }
    let (gen_layers, _) = per_layer(&[&traced], &[&plain], &spans, 1, 1);
    let (read_layers, _) = per_layer(&[&read_traced], &[&read], &spans, 1, 1);
    for layers in [&gen_layers, &read_layers] {
        assert_matches(layers, &listed_layers, "per-layer");
        assert!(layers.iter().all(|m| m.value.is_finite()));
    }
    let value = |layers: &[Metric], name: &str| {
        layers
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
            .unwrap()
    };
    assert!(value(&gen_layers, "netsim.events") > 0.0);
    assert!(value(&gen_layers, "data.encode_mb_per_s") > 0.0);
    assert_eq!(value(&gen_layers, "core.league_s"), 0.0);
    assert!(value(&read_layers, "core.league_s") > 0.0);
    assert!(value(&read_layers, "data.batch_load_s") > 0.0);
    assert_eq!(value(&read_layers, "netsim.events"), 0.0);
    // One traced unit: the registry entries' times add up to the league's.
    let entries: f64 = entry_time_names()
        .iter()
        .map(|name| value(&read_layers, name))
        .sum();
    let league = value(&read_layers, "core.league_s");
    assert!(
        (entries - league).abs() <= 1e-9 * league,
        "entries {entries} s vs league {league} s"
    );
    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn benchmark_json_follows_the_contract() {
    let bench = benchmark();
    assert_eq!(bench.paths, ["perfbench"]);
    assert!(bench
        .command
        .iter()
        .all(|a| !a.starts_with('/') && !a.contains("..")));
    assert!((1..=60).contains(&bench.run_seconds));
    let workloads: Vec<&str> = bench.workloads.iter().map(|w| w.name.as_str()).collect();
    let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, known);
    assert!(bench
        .workloads
        .iter()
        .all(|w| !w.why.is_empty() && w.why.len() <= 200));
    let mut names: Vec<&str> = bench
        .end_to_end
        .iter()
        .map(|m| m.name.as_str())
        .chain(bench.per_layer.iter().map(|m| m.name.as_str()))
        .collect();
    assert!(names.iter().all(|n| valid_name(n)), "{names:?}");
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "metric names must be unique");
    let better = |b: &str| b == "lower" || b == "higher";
    assert!(bench.per_layer.iter().all(|m| better(&m.better)));
    assert!(bench.end_to_end.iter().all(|m| better(&m.better)));
    assert!(bench
        .end_to_end
        .iter()
        .all(|m| m.bound > 0.0 && m.bound <= 0.25));
    let setup = bench
        .end_to_end
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s");
    assert_eq!((setup.unit.as_str(), setup.better.as_str()), ("s", "lower"));
    assert!(bench.end_to_end.iter().all(|m| m.bound <= setup.bound));
}

#[test]
fn pins_agree_with_the_committed_results() {
    let report = std::fs::read_to_string(repo_file("results/BENCH_gen_quick.json")).unwrap();
    let events: u64 = report
        .split("\"events\":")
        .nth(1)
        .and_then(|rest| rest.split(',').next())
        .and_then(|n| n.trim().parse().ok())
        .expect("events in BENCH_gen_quick.json");
    assert_eq!(events, FULL_QUICK_EVENTS);
    let full_gen = pin_for(Workload::GenQuick, 2004, 35).expect("full quick generation pin");
    assert_eq!(full_gen.events, Some(FULL_QUICK_EVENTS));

    let league = std::fs::read(repo_file("results/league_quick.csv")).unwrap();
    let analysis = pin_for(Workload::AnalyzeQuick, 2004, 35).expect("full quick analysis pin");
    assert_eq!(analysis.digest, fnv1a(FNV_OFFSET, &league));
}
