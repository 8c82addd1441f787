//! One measured unit of each workload: a set-up phase, then a timed
//! region from the first call into the program to a verified result.
//!
//! Spans go around the benchmark's own calls into public functions:
//! `catalog_for` (through [`Inputs::catalog`]), `Dataset::for_each_path_sharded`
//! with this module's `regenerate_one`/`visit` closures around
//! `runner::generate_path`, `runner::load_or_generate_sharded`,
//! `runner::for_each_path`, `bench::epoch_observations`,
//! `predictor_catalog` + `metrics::evaluate_epochs`, `stats::quantile`,
//! and `serde_json` on `PathData`. The program itself is not changed.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;
use std::time::Instant;

use tputpred_bench::{epoch_observations, fb_config, path_class, LEAGUE_CSV_COLUMNS};
use tputpred_core::catalog::{predictor_catalog, CatalogEntry};
use tputpred_core::metrics::evaluate_epochs;
use tputpred_obs::TelemetryReport;
use tputpred_testbed::data::shard_file_name;
use tputpred_testbed::{
    for_each_path, generate_path, load_or_generate_sharded, set_generation_workers, Dataset,
    PathConfig, PathData, Preset,
};

use crate::host::Contention;
use crate::summary::{fnv1a, fold_digests, FNV_OFFSET};
use crate::sys;
use crate::trace::Tracer;
use crate::workload::Inputs;

/// What one unit did, how long it took, and what it produced.
#[derive(Debug, Default)]
pub struct Unit {
    /// Span run id: 0 is the warm-up, measured units count from 1.
    pub run: u32,
    pub traced: bool,
    /// Catalog (and registry) construction plus cache-dir preparation.
    pub setup_s: f64,
    pub catalog_s: f64,
    pub wall_s: f64,
    pub cpu_s: f64,
    /// When the timed region started and ended.
    pub timed: Option<(Instant, Instant)>,
    /// Contention on the unit's cores over its timed region, how many
    /// cores it ran on, and the workload's contention exponent `β` (set
    /// by the caller; none until then).
    pub contention: Contention,
    pub cores: usize,
    pub exponent: f64,
    /// Paths generated (or analyzed): the unit's operations.
    pub paths: usize,
    pub epochs: usize,
    /// Bytes of the shard set the unit wrote (or read), and per shard.
    pub cache_bytes: u64,
    pub shard_bytes: Vec<u64>,
    /// Bytes of canonical `PathData` JSON the unit serialized.
    pub encoded_bytes: u64,
    pub shards_hit: usize,
    pub shards_regenerated: usize,
    /// The output digest: the per-path payload digests folded in catalog
    /// order (generation) or the league CSV's digest (analysis).
    pub digest: u64,
    pub path_digests: Vec<u64>,
    /// Output checks that failed inside the unit.
    pub problems: Vec<String>,
    /// The program's own counters, read through `obs::with_profiling`
    /// (traced units only).
    pub telemetry: Option<TelemetryReport>,
}

impl Unit {
    /// Wall seconds on idle cores: wall time less the samplers' share of
    /// it, over the contention factor `m^β` (see [`crate::host`]).
    pub fn host_wall_s(&self) -> f64 {
        let sampled = self.contention.sampler_s / self.cores.max(1) as f64;
        (self.wall_s - sampled) / self.contention.factor(self.exponent)
    }

    /// CPU seconds on idle cores: process CPU time less the samplers',
    /// over the contention factor.
    pub fn host_cpu_s(&self) -> f64 {
        (self.cpu_s - self.contention.sampler_s) / self.contention.factor(self.exponent)
    }
}

/// What [`timed`] measured: the region's start and end, wall and CPU
/// seconds, and telemetry.
struct Timed {
    span: (Instant, Instant),
    wall_s: f64,
    cpu_s: f64,
    telemetry: Option<TelemetryReport>,
}

/// Runs `body` as a unit's timed region, inside `obs::with_profiling`
/// when traced.
fn timed<T>(traced: bool, body: impl FnOnce() -> T) -> (T, Timed) {
    let cpu0 = sys::cpu_s();
    let t0 = Instant::now();
    let (out, telemetry) = if traced {
        let (out, report) = tputpred_obs::with_profiling(body);
        (out, Some(report))
    } else {
        (body(), None)
    };
    let t1 = Instant::now();
    let cpu_s = sys::cpu_s() - cpu0;
    let timed = Timed {
        span: (t0, t1),
        wall_s: (t1 - t0).as_secs_f64(),
        cpu_s,
        telemetry,
    };
    (out, timed)
}

/// Empties `dir` (a cache the benchmark owns) and recreates it.
fn reset_dir(dir: &Path) -> io::Result<()> {
    match fs::remove_dir_all(dir) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
        _ => {}
    }
    fs::create_dir_all(dir)
}

/// Sizes of the first `n` shard files in `dir` (0 for a missing one).
fn shard_sizes(dir: &Path, n: usize) -> Vec<u64> {
    (0..n)
        .map(|id| fs::metadata(dir.join(shard_file_name(id))).map_or(0, |m| m.len()))
        .collect()
}

/// Digest of a path's name and large-window throughput series — cheap
/// enough to compare the batch loader's output with the streaming walk's.
fn throughput_digest(path: &PathData) -> u64 {
    let mut h = fnv1a(FNV_OFFSET, path.config.name.as_bytes());
    for trace in &path.traces {
        for rec in &trace.records {
            let bits = rec.r_large.map_or(u64::MAX, f64::to_bits);
            h = fnv1a(h, &bits.to_le_bytes());
        }
    }
    h
}

/// A problem with `path`'s shape, if it does not hold the catalog
/// entry's config and the preset's traces × epochs.
fn shape_problem(preset: &Preset, expected: &PathConfig, path: &PathData) -> Option<String> {
    let epochs_ok = path
        .traces
        .iter()
        .all(|t| t.records.len() == preset.epochs_per_trace);
    (path.config != *expected || path.traces.len() != preset.traces_per_path || !epochs_ok)
        .then(|| format!("path {} has the wrong config or shape", expected.name))
}

/// What a cold-generation unit generates, and how.
pub struct Generation<'a> {
    pub inputs: &'a Inputs,
    /// Catalog size; the unit takes every `stride`-th of these paths.
    pub paths: usize,
    pub stride: usize,
    pub workers: usize,
    /// The unit's cache directory, emptied before every unit.
    pub dir: &'a Path,
}

/// A cold-generation unit: the planned catalog paths regenerated into an
/// empty cache with the planned worker count, each shard then visited
/// once and its payload digested.
pub fn generate(plan: &Generation, run: u32, traced: bool, tracer: &Tracer) -> Unit {
    let (inputs, dir) = (plan.inputs, plan.dir);
    let preset = &inputs.preset;
    let mut unit = Unit {
        run,
        traced,
        ..Unit::default()
    };
    tracer.set(traced, run);
    let setup = Instant::now();
    let catalog: Vec<PathConfig> = tracer.span("synth.catalog", None, 0, |_| {
        let mut catalog = inputs.catalog();
        catalog.truncate(plan.paths);
        catalog.into_iter().step_by(plan.stride).collect()
    });
    unit.catalog_s = setup.elapsed().as_secs_f64();
    if let Err(e) = reset_dir(dir) {
        unit.problems
            .push(format!("cannot prepare {}: {e}", dir.display()));
        return unit;
    }
    set_generation_workers(plan.workers);
    unit.setup_s = setup.elapsed().as_secs_f64();

    let mut problems = Vec::new();
    let mut path_digests = Vec::with_capacity(catalog.len());
    let (mut epochs, mut encoded) = (0usize, 0u64);
    let (walk, t) = timed(traced, || {
        tracer.span("unit", None, u64::from(run), |unit_span| {
            tracer.span("data.walk", unit_span, 0, |walk| {
                Dataset::for_each_path_sharded(
                    dir,
                    preset,
                    &catalog,
                    |id| {
                        tracer.span("runner.generate_path", walk, id as u64, |_| {
                            generate_path(preset, &catalog[id])
                        })
                    },
                    |id, path| {
                        tracer.span("data.visit", walk, id as u64, |visit| {
                            problems.extend(shape_problem(preset, &catalog[id], path));
                            let json = tracer
                                .span("serde_json.to_string", visit, id as u64, |_| {
                                    serde_json::to_string(path)
                                })
                                .map_err(io::Error::other)?;
                            encoded += json.len() as u64;
                            epochs += path.traces.iter().map(|t| t.records.len()).sum::<usize>();
                            path_digests.push(fnv1a(FNV_OFFSET, json.as_bytes()));
                            Ok(())
                        })
                    },
                )
            })
        })
    });
    match walk {
        Ok(stats) if stats.hits == 0 && stats.regenerated() == catalog.len() => {
            unit.shards_hit = stats.hits;
            unit.shards_regenerated = stats.regenerated();
        }
        Ok(stats) => problems.push(format!("cold cache was not cold: {stats:?}")),
        Err(e) => problems.push(format!("streaming walk failed: {e}")),
    }
    if path_digests.len() != catalog.len() {
        problems.push(format!(
            "visited {} of {} paths",
            path_digests.len(),
            catalog.len()
        ));
    }
    unit.shard_bytes = shard_sizes(dir, catalog.len());
    unit.cache_bytes = unit.shard_bytes.iter().sum();
    Unit {
        wall_s: t.wall_s,
        cpu_s: t.cpu_s,
        timed: Some(t.span),
        paths: catalog.len(),
        epochs,
        encoded_bytes: encoded,
        digest: fold_digests(&path_digests),
        path_digests,
        problems,
        telemetry: t.telemetry,
        ..unit
    }
}

/// Per-(registry entry, class) league accumulation, as `fig24_league_table`
/// keeps it: one RMSRE per scored trace plus the epochs that were scored.
#[derive(Default)]
struct Cell {
    rmsres: Vec<f64>,
    scored_epochs: usize,
}

/// The league table as `fig24_league_table` writes `results/league_<preset>.csv`.
fn league_csv(cells: &BTreeMap<(usize, String), Cell>, registry: &[CatalogEntry]) -> String {
    let mut csv = LEAGUE_CSV_COLUMNS.join(",");
    csv.push('\n');
    for ((pos, class), cell) in cells {
        let q = |p| tputpred_stats::quantile(&cell.rmsres, p).unwrap_or(f64::NAN);
        let (p25, median, p75) = (q(0.25), q(0.5), q(0.75));
        let _ = writeln!(
            csv,
            "{},{class},{},{},{p25},{median},{p75}",
            registry[*pos].name,
            cell.rmsres.len(),
            cell.scored_epochs,
        );
    }
    csv
}

/// A warm-analysis unit over the cache `dir`: one batch load through
/// `runner::load_or_generate_sharded` (as every figure binary loads its
/// dataset) and one streaming walk through `runner::for_each_path` that
/// scores the whole predictor registry (as `fig24_league_table` does).
pub fn analyze(inputs: &Inputs, dir: &Path, run: u32, traced: bool, tracer: &Tracer) -> Unit {
    let preset = &inputs.preset;
    let mut unit = Unit {
        run,
        traced,
        ..Unit::default()
    };
    tracer.set(traced, run);
    let setup = Instant::now();
    let catalog = tracer.span("synth.catalog", None, 0, |_| inputs.catalog());
    unit.catalog_s = setup.elapsed().as_secs_f64();
    let registry = predictor_catalog();
    let cfg = fb_config(preset);
    set_generation_workers(1);
    unit.setup_s = setup.elapsed().as_secs_f64();

    let mut problems = Vec::new();
    let mut path_digests = Vec::with_capacity(catalog.len());
    let mut batch_digests = Vec::new();
    let mut cells: BTreeMap<(usize, String), Cell> = BTreeMap::new();
    let mut epochs = 0usize;
    let mut hits = 0usize;
    let mut regenerated = 0usize;
    let (csv, t) = timed(traced, || {
        tracer.span("unit", None, u64::from(run), |unit_span| {
            let batch = tracer.span("data.batch_load", unit_span, 0, |_| {
                load_or_generate_sharded(dir, preset)
            });
            match batch {
                Ok((dataset, stats)) => {
                    hits += stats.hits;
                    regenerated += stats.regenerated();
                    batch_digests = dataset.paths.iter().map(throughput_digest).collect();
                }
                Err(e) => problems.push(format!("batch load failed: {e}")),
            }
            let walk = tracer.span("data.walk", unit_span, 0, |walk| {
                for_each_path(dir, preset, |id, path| {
                    tracer.span("data.visit", walk, id as u64, |visit| {
                        problems.extend(shape_problem(preset, &catalog[id], path));
                        let class = path_class(&path.config.name).to_string();
                        for trace in &path.traces {
                            let observations = tracer.span(
                                "analysis.epoch_observations",
                                visit,
                                id as u64,
                                |_| epoch_observations(trace),
                            );
                            for (pos, entry) in registry.iter().enumerate() {
                                let scored =
                                    tracer.span("core.evaluate", visit, pos as u64, |_| {
                                        let mut predictor = (entry.make)(&cfg);
                                        let result = evaluate_epochs(&mut predictor, &observations);
                                        let scored = result.errors.iter().flatten().count();
                                        result.rmsre().map(|rmsre| (rmsre, scored))
                                    });
                                let Some((rmsre, scored)) = scored else {
                                    continue;
                                };
                                for key in [(pos, class.clone()), (pos, "all".to_string())] {
                                    let cell = cells.entry(key).or_default();
                                    cell.rmsres.push(rmsre);
                                    cell.scored_epochs += scored;
                                }
                            }
                            epochs += trace.records.len();
                        }
                        path_digests.push(throughput_digest(path));
                        Ok(())
                    })
                })
            });
            match walk {
                Ok(stats) => {
                    hits += stats.hits;
                    regenerated += stats.regenerated();
                }
                Err(e) => problems.push(format!("streaming walk failed: {e}")),
            }
            tracer.span("stats.aggregate", unit_span, 0, |_| {
                league_csv(&cells, &registry)
            })
        })
    });
    if regenerated != 0 || hits != 2 * catalog.len() {
        problems.push(format!(
            "warm cache was not warm: {hits} shard hits, {regenerated} regenerated"
        ));
    }
    if batch_digests != path_digests {
        problems.push("batch load and streaming walk read different data".to_string());
    }
    unit.shard_bytes = shard_sizes(dir, catalog.len());
    unit.cache_bytes = unit.shard_bytes.iter().sum();
    Unit {
        wall_s: t.wall_s,
        cpu_s: t.cpu_s,
        timed: Some(t.span),
        paths: catalog.len(),
        epochs,
        shards_hit: hits,
        shards_regenerated: regenerated,
        digest: fnv1a(FNV_OFFSET, csv.as_bytes()),
        path_digests,
        problems,
        telemetry: t.telemetry,
        ..unit
    }
}

/// Writes the analysis input cache for `inputs` into `dir` with two
/// generation workers. Run once per (seed, catalog) in a child process,
/// so neither its time nor its memory shows in a measured run.
pub fn prepare_analysis_cache(inputs: &Inputs, dir: &Path) -> io::Result<()> {
    set_generation_workers(2);
    load_or_generate_sharded(dir, &inputs.preset).map(|_| ())
}
