//! One benchmark run: set-up passes (each a warm-up unit in the other
//! tracing mode), measured units for the requested time, output checks,
//! and the report.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use tputpred_testbed::data::BEHAVIOR_HASH;

use crate::host::{self, Monitor};
use crate::metrics::{end_to_end, per_layer, Metric};
use crate::summary::median;
use crate::sys;
use crate::trace::{to_json_lines, Tracer};
use crate::unit::{self, Generation, Unit};
use crate::workload::{pin_for, Inputs, Workload};

/// The benchmark's scratch directory, relative to the repository root it
/// runs from.
pub const WORK_DIR: &str = ".bench_work";

/// Measured units per run, at least, whatever `--seconds` says.
pub const MIN_UNITS: usize = 2;

/// Set-up passes per run; `setup_s` is the median of their host times
/// (see [`crate::host`]).
pub const SETUP_PASSES: usize = 3;

#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    /// Catalog paths of one unit.
    pub paths: usize,
    pub seconds: f64,
    pub trace: bool,
}

/// The result of a run: the final JSON's fields plus the lines printed
/// before it.
#[derive(Debug)]
pub struct Report {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
    pub lines: Vec<String>,
}

impl Report {
    /// The one-line JSON object the benchmark prints last.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite number as JSON (every digit of the shortest round-trip
/// form); a non-finite one cannot be measured output and becomes 0.
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0".to_string()
    }
}

impl Config {
    fn inputs(&self) -> Inputs {
        Inputs::new(self.workload, self.seed, self.paths)
    }

    fn gen_dir(&self, which: &str) -> PathBuf {
        Path::new(WORK_DIR).join(self.workload.name()).join(which)
    }

    /// The analysis input cache for this seed and catalog size.
    pub fn analysis_cache_dir(&self) -> PathBuf {
        Path::new(WORK_DIR)
            .join(self.workload.name())
            .join(format!("seed-{}-paths-{}", self.seed, self.paths))
    }

    /// Runs one unit of the workload. A generation warm-up takes every
    /// [`Workload::warmup_stride`]-th catalog path on one worker, so that
    /// on `gen_synth1k` it checks worker-count independence too.
    fn unit(&self, run: u32, traced: bool, warmup: bool, tracer: &Tracer) -> Unit {
        let inputs = self.inputs();
        if !self.workload.generates() {
            return unit::analyze(&inputs, &self.analysis_cache_dir(), run, traced, tracer);
        }
        let dir = self.gen_dir(if warmup { "warmup" } else { "unit" });
        let (stride, workers) = if warmup {
            (self.workload.warmup_stride(), 1)
        } else {
            (1, self.workload.workers())
        };
        let plan = Generation {
            inputs: &inputs,
            paths: self.paths,
            stride,
            workers,
            dir: &dir,
        };
        unit::generate(&plan, run, traced, tracer)
    }
}

/// Makes sure the analysis input cache exists for this binary's behavior
/// hash, generating it in a child process when it does not. The marker
/// file only saves the check; every unit still verifies that all shards
/// were hits.
fn ensure_analysis_cache(cfg: &Config) -> Result<(), String> {
    let dir = cfg.analysis_cache_dir();
    let marker = dir.with_extension("ready");
    if fs::read_to_string(&marker).is_ok_and(|h| h == BEHAVIOR_HASH) {
        return Ok(());
    }
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let status = std::process::Command::new(exe)
        .args(["--prepare", "--workload", cfg.workload.name()])
        .args(["--seed", &cfg.seed.to_string()])
        .args(["--paths", &cfg.paths.to_string()])
        .status()
        .map_err(|e| format!("cannot start cache preparation: {e}"))?;
    if !status.success() {
        return Err(format!("cache preparation failed: {status}"));
    }
    fs::write(&marker, BEHAVIOR_HASH).map_err(|e| format!("{}: {e}", marker.display()))
}

/// The child-process side of [`ensure_analysis_cache`].
pub fn prepare(cfg: &Config) -> Result<(), String> {
    let dir = cfg.analysis_cache_dir();
    unit::prepare_analysis_cache(&cfg.inputs(), &dir).map_err(|e| format!("{}: {e}", dir.display()))
}

/// Output checks over a run's units: every measured unit (and every
/// warm-up, on the paths it covers) produced the same outputs, traced
/// units repeat the program's counters exactly, and pinned inputs match
/// their pin.
fn check(cfg: &Config, warmups: &[Unit], measured: &[Unit]) -> Vec<String> {
    let mut problems: Vec<String> = warmups
        .iter()
        .chain(measured)
        .flat_map(|u| {
            u.problems
                .iter()
                .map(move |p| format!("unit {}: {p}", u.run))
        })
        .collect();
    let reference = &measured[0];
    for u in &measured[1..] {
        if u.digest != reference.digest || u.path_digests != reference.path_digests {
            problems.push(format!(
                "unit {} output differs from unit {}",
                u.run, reference.run
            ));
        }
    }
    let sampled: Vec<u64> = reference
        .path_digests
        .iter()
        .step_by(cfg.workload.warmup_stride())
        .copied()
        .collect();
    for (pass, warmup) in warmups.iter().enumerate() {
        if sampled != warmup.path_digests {
            problems.push(format!(
                "set-up pass {} output differs from the measured units",
                pass + 1
            ));
        }
        if !cfg.workload.generates() && warmup.digest != reference.digest {
            problems.push(format!(
                "set-up pass {} league differs from the measured units",
                pass + 1
            ));
        }
    }
    let traced: Vec<&Unit> = measured.iter().filter(|u| u.traced).collect();
    let counters = |u: &Unit| u.telemetry.as_ref().map(|t| t.counters.clone());
    if traced.windows(2).any(|w| counters(w[0]) != counters(w[1])) {
        problems.push("traced units did not repeat the program's counters exactly".to_string());
    }
    if let Some(pin) = pin_for(cfg.workload, cfg.seed, cfg.paths) {
        if reference.digest != pin.digest {
            problems.push(format!(
                "output digest {:016x} != pinned {:016x}",
                reference.digest, pin.digest
            ));
        }
        let full_traced = warmups
            .iter()
            .filter(|u| u.paths == cfg.paths)
            .chain(traced.iter().copied());
        for u in full_traced {
            let events = u
                .telemetry
                .as_ref()
                .and_then(|t| t.counter("netsim.events"));
            if let (Some(want), Some(got)) = (pin.events, events) {
                if got != want {
                    problems.push(format!("unit {}: {got} events != pinned {want}", u.run));
                }
            }
        }
    }
    problems
}

fn unit_line(u: &Unit) -> String {
    let events = u
        .telemetry
        .as_ref()
        .and_then(|t| t.counter("netsim.events"))
        .map_or(String::new(), |e| format!(" events={e}"));
    format!(
        "# unit {} {}: setup={:.6}s wall={:.4}s cpu={:.4}s contention={:.4} samples={} host_wall={:.4}s host_cpu={:.4}s paths={} epochs={} cache={}B digest={:016x}{events}",
        u.run,
        if u.traced { "traced" } else { "untraced" },
        u.setup_s,
        u.wall_s,
        u.cpu_s,
        u.contention.m,
        u.contention.samples,
        u.host_wall_s(),
        u.host_cpu_s(),
        u.paths,
        u.epochs,
        u.cache_bytes,
        u.digest,
    )
}

/// Runs the benchmark as configured.
pub fn run(cfg: &Config) -> Result<Report, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut lines = vec![format!(
        "# perfbench workload={} seed={} paths={} seconds={} trace={} nproc={nproc} workers={} behavior_hash={BEHAVIOR_HASH} profile=release",
        cfg.workload.name(),
        cfg.seed,
        cfg.paths,
        cfg.seconds,
        u8::from(cfg.trace),
        cfg.workload.workers(),
    )];
    fs::create_dir_all(WORK_DIR).map_err(|e| format!("{WORK_DIR}: {e}"))?;
    if !cfg.workload.generates() {
        ensure_analysis_cache(cfg)?;
    }
    let tracer = Tracer::default();
    // The units run on the first `workers` cores this process may use,
    // each watched by a sampler (see `host`). Threads started from here
    // on, the program's workers included, inherit the restriction.
    let cores: Vec<usize> = host::allowed_cpus()
        .into_iter()
        .take(cfg.workload.workers())
        .collect();
    if cores.is_empty() {
        return Err("the kernel reports no core this process may run on".into());
    }
    host::pin_current_thread(&cores).map_err(|e| format!("cannot pin to cores {cores:?}: {e}"))?;
    let monitor = Monitor::start(&cores)?;
    let watch = |unit: &mut Unit, from: Instant, to: Instant| {
        let (from, to) = unit.timed.unwrap_or((from, to));
        unit.contention = monitor.contention(&cores, from, to);
        unit.cores = cores.len();
        unit.exponent = cfg.workload.contention_exponent();
    };

    // Each set-up pass builds the catalog (and registry), prepares the
    // cache directory and runs a warm-up unit, timed as a whole. Warm-ups
    // run in the other tracing mode: in an untraced run they read the
    // program's counters, in a traced run they do not, so every run
    // compares traced with untraced output.
    let mut warmups = Vec::with_capacity(SETUP_PASSES);
    let mut setup_samples = Vec::with_capacity(SETUP_PASSES);
    for pass in 1..=SETUP_PASSES {
        let pass_start = Instant::now();
        let mut warmup = cfg.unit(0, !cfg.trace, true, &tracer);
        let pass_end = Instant::now();
        let pass_s = (pass_end - pass_start).as_secs_f64();
        let seen = monitor.contention(&cores, pass_start, pass_end);
        let host_pass_s = (pass_s - seen.sampler_s / cores.len() as f64)
            / seen.factor(cfg.workload.contention_exponent());
        watch(&mut warmup, pass_start, pass_end);
        lines.push(format!(
            "{} (set-up pass {pass}, {pass_s:.4}s, host {host_pass_s:.4}s)",
            unit_line(&warmup)
        ));
        setup_samples.push(host_pass_s);
        warmups.push(warmup);
    }

    // Measured units; a traced run alternates traced and untraced ones,
    // so it measures tracing overhead within one process.
    let budget = Duration::from_secs_f64(cfg.seconds);
    let start = Instant::now();
    let mut measured: Vec<Unit> = Vec::new();
    while measured.len() < MIN_UNITS || start.elapsed() < budget {
        let run = measured.len() as u32 + 1;
        let traced = cfg.trace && run % 2 == 1;
        let unit_start = Instant::now();
        let mut u = cfg.unit(run, traced, false, &tracer);
        watch(&mut u, unit_start, Instant::now());
        lines.push(unit_line(&u));
        let failed = !u.problems.is_empty();
        measured.push(u);
        if failed {
            break;
        }
    }
    tracer.set(false, 0);
    drop(monitor);
    for dir in ["unit", "warmup"] {
        let _ = fs::remove_dir_all(cfg.gen_dir(dir));
    }

    let problems = check(cfg, &warmups, &measured);
    let attempted: usize = measured.iter().map(|u| u.paths).sum();
    let failed = if problems.is_empty() { 0 } else { attempted };
    lines.extend(problems.iter().map(|p| format!("# CHECK FAILED: {p}")));
    let checked = if pin_for(cfg.workload, cfg.seed, cfg.paths).is_some() {
        "its pin, repeatability and tracing purity"
    } else if cfg.workload == Workload::GenSynth1k {
        "repeatability, tracing purity and worker-count independence (no pin)"
    } else {
        "repeatability and tracing purity (no pin)"
    };
    lines.push(format!("# checked against {checked}"));
    lines.push(format!(
        "# error_rate {} ({failed} failed / {attempted} attempted)",
        failed as f64 / attempted as f64
    ));

    let (traced, untraced): (Vec<&Unit>, Vec<&Unit>) = measured.iter().partition(|u| u.traced);
    let metrics = if cfg.trace {
        let spans = tracer.spans();
        let (metrics, notes) = per_layer(
            &traced,
            &untraced,
            &spans,
            cfg.workload.workers(),
            cfg.inputs().preset.traces_per_path,
        );
        lines.extend(notes.into_iter().map(|n| format!("# {n}")));
        let path = records_dir().join(format!(
            "{}-seed{}.spans.jsonl",
            cfg.workload.name(),
            cfg.seed
        ));
        fs::write(&path, to_json_lines(&spans)).map_err(|e| format!("{}: {e}", path.display()))?;
        lines.push(format!("# spans: {}", path.display()));
        metrics
    } else {
        let peak_rss_mb = sys::peak_rss_mb().ok_or("the kernel reports no peak RSS (VmHWM)")?;
        end_to_end(&untraced, median(&setup_samples), peak_rss_mb)
    };
    lines.extend(
        metrics
            .iter()
            .map(|m| format!("{} {} {}", m.name, json_number(m.value), m.unit)),
    );
    let report = Report {
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics,
        lines,
    };
    let record = records_dir().join(format!(
        "{}-seed{}-trace{}.txt",
        cfg.workload.name(),
        cfg.seed,
        u8::from(cfg.trace)
    ));
    let text = format!("{}\n{}\n", report.lines.join("\n"), report.json());
    fs::write(&record, text).map_err(|e| format!("{}: {e}", record.display()))?;
    Ok(report)
}

fn records_dir() -> PathBuf {
    let dir = Path::new(WORK_DIR).join("records");
    let _ = fs::create_dir_all(&dir);
    dir
}
