//! The figure registry: every table, figure, ablation and diagnostic of
//! the evaluation is a module with one plain function,
//! `run(&Args) -> Result<Vec<Artifact>, String>`, listed in [`REGISTRY`]
//! under its module's name — the stem of its committed `results/*.txt`.
//! The `repro` binary runs any subset in one process and writes each
//! artifact with [`write_artifact`] into [`output_dir`].
//!
//! There is no shared pass and no trait: each entry loads what it needs
//! itself, and rereading the warm `quick` cache costs milliseconds. An
//! entry's bytes never depend on which entries ran before it: the one
//! process-global state, `obs` telemetry, is turned on only by
//! `fig25_resilience`, inside [`tputpred_obs::with_profiling`], which
//! resets the counters first.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

use crate::cli::Args;
use tputpred_netsim::link::LinkConfig;
use tputpred_netsim::sources::{ParetoOnOffSource, PoissonSource, Sink, Source, SourceConfig};
use tputpred_netsim::{LinkId, RateSchedule, Route, Simulator, Time};
use tputpred_probes::BulkTransfer;
use tputpred_tcp::TcpConfig;
use tputpred_testbed::Preset;

/// `writeln!` into an entry's `String` buffer. Appending to a `String`
/// cannot fail, so the `fmt::Result` is dropped here once instead of at
/// every call site.
macro_rules! outln {
    ($out:expr, $($arg:tt)*) => {{
        use std::fmt::Write as _;
        let _ = writeln!($out, $($arg)*);
    }};
}

/// The single-bottleneck ablations' cross traffic: one source of
/// `rate_bps` on `link` into a fresh sink, started at time zero —
/// Poisson, or Pareto on-off with `(duty_cycle, alpha, mean_on)`.
pub(crate) fn add_cross_traffic(
    sim: &mut Simulator,
    link: LinkId,
    rate_bps: f64,
    pareto: Option<(f64, f64, f64)>,
) {
    let (sink, _) = Sink::new();
    let cfg = SourceConfig {
        route: Route::direct(link),
        dst: sim.add_endpoint(Box::new(sink)),
        packet_size: 1000,
        base_rate_bps: rate_bps,
        schedule: RateSchedule::constant(1.0),
        stop: Time::MAX,
    };
    let source: Source = match pareto {
        Some((duty, alpha, on)) => ParetoOnOffSource::new(cfg, duty, alpha, on).into(),
        None => PoissonSource::new(cfg).into(),
    };
    sim.add_source(source, Time::ZERO);
}

/// The single-bottleneck testbed of the controlled ablations: a
/// simulator seeded with `seed`, the forward bottleneck `fwd`, and an
/// uncongested 1 Gb/s reverse link with the same delay.
pub(crate) fn dumbbell(seed: u64, fwd: LinkConfig) -> (Simulator, LinkId, LinkId) {
    let mut sim = Simulator::new(seed);
    let delay = fwd.delay;
    let fwd = sim.add_link(fwd);
    let rev = sim.add_link(LinkConfig::new(1e9, delay, 1000));
    (sim, fwd, rev)
}

/// One output file of a registry entry: a file name (no directory) and
/// its full text.
#[derive(Debug, Clone, PartialEq)]
pub struct Artifact {
    /// File name inside the output directory, e.g. `fig02_fb_error_cdf.txt`.
    pub file_name: String,
    /// The file's bytes.
    pub text: String,
}

impl Artifact {
    /// An artifact named `file_name` holding `text`.
    pub fn new(file_name: impl Into<String>, text: String) -> Artifact {
        Artifact {
            file_name: file_name.into(),
            text,
        }
    }
}

/// Back-to-back bulk transfers of the single-bottleneck ablations:
/// `epochs` transfers of `secs` seconds with `tcp` over `(fwd, rev)`,
/// the first at `first_s` seconds, each drained for 2 s and followed by
/// a 2 s gap. `each` sees every transfer once it has drained.
pub(crate) fn transfer_epochs(
    sim: &mut Simulator,
    (fwd, rev): (LinkId, LinkId),
    tcp: TcpConfig,
    first_s: u64,
    secs: u64,
    epochs: usize,
    mut each: impl FnMut(&BulkTransfer),
) {
    let mut t = Time::from_secs(first_s);
    for _ in 0..epochs {
        let stop = t + Time::from_secs(secs);
        let transfer =
            BulkTransfer::launch(sim, tcp, Route::direct(fwd), Route::direct(rev), t, stop);
        sim.run_until(stop + Time::from_secs(2));
        each(&transfer);
        t = sim.now() + Time::from_secs(2);
    }
}

/// A registry entry's function. The error is a message; `repro`
/// prefixes it with the entry name.
pub type RunFn = fn(&Args) -> Result<Vec<Artifact>, String>;

/// Declares each entry's module and lists it in [`REGISTRY`] under the
/// module's name (spelled by `stringify!`), so name and module cannot
/// drift apart and each is written once.
macro_rules! registry {
    ($($entry:ident)*) => {
        $(pub mod $entry;)*

        /// Every entry `repro` can run, in alphabetical order, each named
        /// as its module (and its `results/<name>.txt`).
        pub const REGISTRY: &[(&str, RunFn)] =
            &[$((stringify!($entry), $entry::run as RunFn)),*];
    };
}

registry! {
    abl_ar abl_availbw abl_buffer abl_congestion_events abl_faults abl_hybrid
    abl_multiplexing abl_nws abl_pftk_posthumous abl_red abl_reverse_path
    abl_tcp_flavor abl_utilization
    diag_calibration diag_one_path export_csv
    fig02_fb_error_cdf fig03_abs_increase_cdf fig04_rel_rtt_increase
    fig05_rel_loss_increase fig06_during_flow_inputs fig07_per_path_error
    fig08_throughput_vs_error fig09_loss_vs_error fig10_rtt_vs_error
    fig11_transfer_length fig12_window_limited_fb fig13_revised_pftk
    fig14_smoothed_inputs fig15_pathologies fig16_ma_error fig17_hw_error
    fig18_lso_sensitivity fig19_fb_rmsre_cdf fig20_cov_vs_rmsre
    fig21_path_classes fig22_window_limited_hb fig23_sampling_interval
    fig24_league_table fig25_resilience
    gen_dataset
}

/// Where `repro` writes a run's artifacts: `results/` for the `quick`
/// preset (the committed set), `results/<preset>/` for any other, so a
/// run at another scale never overwrites a committed file.
pub fn output_dir(preset: &Preset) -> PathBuf {
    let results = PathBuf::from("results");
    if preset.name == "quick" {
        results
    } else {
        results.join(&preset.name)
    }
}

/// Creates `dir` and the file `file_name` in it, returning a buffered
/// writer and the file's path. [`write_artifact`] writes through it; an
/// entry too large to hold as an [`Artifact`] (`export_csv`) streams
/// into it directly. Every error names the path it failed on.
pub fn create_artifact(dir: &Path, file_name: &str) -> Result<(BufWriter<File>, PathBuf), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("could not create {}: {e}", dir.display()))?;
    let path = dir.join(file_name);
    let file =
        File::create(&path).map_err(|e| format!("could not write {}: {e}", path.display()))?;
    Ok((BufWriter::new(file), path))
}

/// Writes `artifact` into `dir`, creating the directory first, and
/// returns the written path. Every error names the path it failed on.
pub fn write_artifact(dir: &Path, artifact: &Artifact) -> Result<PathBuf, String> {
    let (mut file, path) = create_artifact(dir, &artifact.file_name)?;
    (file
        .write_all(artifact.text.as_bytes())
        .and_then(|()| file.flush()))
    .map_err(|e| format!("could not write {}: {e}", path.display()))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::{abl_faults, fig25_resilience};
    use tputpred_testbed::{catalog_for, Preset};

    #[test]
    fn derived_presets_draw_from_their_base_catalog() {
        // A derived preset is cached and generated under its own name
        // and must keep its base's `catalog`: every sweep point of
        // abl_faults and the fig25 campaign must simulate the base
        // preset's paths, not silently fall back to catalog_2004.
        let mut strays = Vec::new();
        for name in Preset::names() {
            let base = Preset::by_name(name).expect("registered preset");
            let derived = abl_faults::rate_presets(&base)
                .into_iter()
                .chain(abl_faults::dwell_presets(&base))
                .map(|(_, preset)| preset)
                .chain([fig25_resilience::campaign_preset(&base)]);
            for preset in derived {
                let same_size = Preset {
                    paths: preset.paths,
                    ..base.clone()
                };
                if catalog_for(&preset) != catalog_for(&same_size) {
                    strays.push(format!("{} (from {name})", preset.name));
                }
            }
        }
        assert!(strays.is_empty(), "off the base catalog: {strays:?}");
    }
}
