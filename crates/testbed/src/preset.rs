//! Experiment scales: the paper-faithful structure at several sizes.
//!
//! The paper's full measurement campaign — 36 750 epochs, each ~2–3 min
//! of wall time — is a lot of simulated traffic. A [`Preset`] keeps the
//! *structure* (per-epoch timeline of Fig. 1, path diversity, per-trace
//! time-series shape) while scaling the sizes: `paper` is the faithful
//! scale, `quick` regenerates every figure in minutes, `tiny` fits CI.

use crate::faults::{FaultConfig, RegimeConfig};
use serde::{Deserialize, Serialize};
use tputpred_netsim::Time;
use tputpred_tcp::TcpConfig;

/// The path catalog a preset draws from (see
/// [`crate::runner::catalog_for`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CatalogKind {
    /// The 2004-style catalog ([`crate::path::catalog_2004`]).
    Y2004,
    /// The 2006-style catalog ([`crate::path::catalog_2006`]).
    Y2006,
    /// The procedural five-class catalog ([`crate::synth::synth_catalog`],
    /// DESIGN.md §15).
    Synth,
}

/// Every knob of a dataset-generation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Preset {
    /// Catalog label recorded into the dataset; also names the cache
    /// folder. It does not choose the catalog: `catalog` does.
    pub name: String,
    /// The catalog the paths are drawn from. Derived presets inherit it
    /// from their base through `..base`.
    pub catalog: CatalogKind,
    /// Paths in the catalog.
    pub paths: usize,
    /// Traces collected per path (the paper: 7).
    pub traces_per_path: usize,
    /// Measurement epochs per trace (the paper: 150).
    pub epochs_per_trace: usize,
    /// Time slot reserved for the pathload measurement at the start of
    /// each epoch.
    pub pathload_slot: Time,
    /// Ping-only window before the transfer (the paper: 60 s).
    pub pre_ping: Time,
    /// Target-transfer duration (the paper: 50 s; 120 s in the 2006 set).
    pub transfer: Time,
    /// Idle tail after the transfer(s), letting queues drain.
    pub epoch_gap: Time,
    /// Socket buffer of the main (congestion-limited) transfer: 1 MB.
    pub w_large: u32,
    /// Socket buffer of the extra window-limited transfer: 20 KB.
    pub w_small: u32,
    /// Whether each epoch also runs the W = 20 KB transfer (Figs. 12, 22).
    pub with_small_window: bool,
    /// Ping probing interval (the paper: 100 ms).
    pub ping_interval: Time,
    /// Catalog seed.
    pub seed: u64,
    /// Measurement fault probabilities (DESIGN.md §10). All stock
    /// presets use [`FaultConfig::none`]; the `abl_faults` sweep raises
    /// them.
    pub faults: FaultConfig,
    /// Correlated-outage regime chain modulating the fault rates
    /// (DESIGN.md §13). All stock presets use [`RegimeConfig::none`];
    /// `fig25_resilience` and the `abl_faults` dwell sweep raise it.
    pub regimes: RegimeConfig,
}

impl Preset {
    /// The paper-faithful scale: 35 paths × 7 traces × 150 epochs with the
    /// Fig. 1 durations. This is hours of CPU; use [`Preset::quick`] for
    /// figure regeneration.
    pub fn paper() -> Self {
        Preset {
            name: "paper".into(),
            catalog: CatalogKind::Y2004,
            paths: 35,
            traces_per_path: 7,
            epochs_per_trace: 150,
            pathload_slot: Time::from_secs(30),
            pre_ping: Time::from_secs(60),
            transfer: Time::from_secs(50),
            epoch_gap: Time::from_secs(10),
            w_large: 1 << 20,
            w_small: 20 * 1024,
            with_small_window: true,
            ping_interval: Time::from_millis(100),
            seed: 2004,
            faults: FaultConfig::none(),
            regimes: RegimeConfig::none(),
        }
    }

    /// A minutes-scale run preserving the structure: all 35 paths, 2
    /// traces each, 40 epochs per trace, with proportionally shortened
    /// epoch phases.
    pub fn quick() -> Self {
        Preset {
            name: "quick".into(),
            catalog: CatalogKind::Y2004,
            paths: 35,
            traces_per_path: 2,
            epochs_per_trace: 40,
            pathload_slot: Time::from_secs(12),
            pre_ping: Time::from_secs(12),
            transfer: Time::from_secs(10),
            epoch_gap: Time::from_secs(3),
            w_large: 1 << 20,
            w_small: 20 * 1024,
            with_small_window: true,
            ping_interval: Time::from_millis(100),
            seed: 2004,
            faults: FaultConfig::none(),
            regimes: RegimeConfig::none(),
        }
    }

    /// CI-sized: a handful of paths, one short trace each.
    pub fn tiny() -> Self {
        Preset {
            name: "tiny".into(),
            catalog: CatalogKind::Y2004,
            paths: 4,
            traces_per_path: 1,
            epochs_per_trace: 12,
            pathload_slot: Time::from_secs(8),
            pre_ping: Time::from_secs(6),
            transfer: Time::from_secs(6),
            epoch_gap: Time::from_secs(2),
            w_large: 1 << 20,
            w_small: 20 * 1024,
            with_small_window: true,
            ping_interval: Time::from_millis(100),
            seed: 2004,
            faults: FaultConfig::none(),
            regimes: RegimeConfig::none(),
        }
    }

    /// The 2006-set analogue (Fig. 11): fewer, longer transfers so prefix
    /// throughputs at ¼, ½ and full length can be compared. Scaled like
    /// [`Preset::quick`].
    pub fn quick_2006() -> Self {
        Preset {
            name: "quick-2006".into(),
            catalog: CatalogKind::Y2006,
            paths: 24,
            traces_per_path: 1,
            epochs_per_trace: 25,
            pathload_slot: Time::from_secs(12),
            pre_ping: Time::from_secs(12),
            transfer: Time::from_secs(24),
            epoch_gap: Time::from_secs(3),
            w_large: 1 << 20,
            w_small: 20 * 1024,
            with_small_window: false,
            ping_interval: Time::from_millis(100),
            seed: 2006,
            faults: FaultConfig::none(),
            regimes: RegimeConfig::none(),
        }
    }

    /// The procedural-catalog scale (DESIGN.md §15): 1000 synth paths
    /// across the five-class mix, one short trace each — comparable
    /// total simulated traffic to [`Preset::quick`], but 1000-path wide
    /// so the per-path rayon fan-out and the streaming shard API have
    /// something real to chew on.
    pub fn synth1k() -> Self {
        Preset {
            name: "synth1k".into(),
            catalog: CatalogKind::Synth,
            paths: 1000,
            traces_per_path: 1,
            epochs_per_trace: 6,
            pathload_slot: Time::from_secs(8),
            pre_ping: Time::from_secs(6),
            transfer: Time::from_secs(6),
            epoch_gap: Time::from_secs(2),
            w_large: 1 << 20,
            w_small: 20 * 1024,
            with_small_window: false,
            ping_interval: Time::from_millis(100),
            seed: 2080,
            faults: FaultConfig::none(),
            regimes: RegimeConfig::none(),
        }
    }

    /// [`Preset::synth1k`] at 10 000 paths (ROADMAP item 1's headline
    /// scale), with shorter traces so a full cold generation stays in
    /// minutes. Figure binaries must stream this one shard at a time —
    /// the whole `Dataset` does not belong in RAM.
    pub fn synth10k() -> Self {
        Preset {
            name: "synth10k".into(),
            paths: 10_000,
            epochs_per_trace: 4,
            ..Self::synth1k()
        }
    }

    /// Every registered preset name, in [`Preset::by_name`] order — the
    /// single source of truth the CLI derives its usage and error
    /// strings from.
    pub fn names() -> &'static [&'static str] {
        &[
            "paper",
            "quick",
            "tiny",
            "quick-2006",
            "synth1k",
            "synth10k",
        ]
    }

    /// Parses a preset by name (one of [`Preset::names`]) — the
    /// `--preset` flag of the figure binaries.
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "paper" => Some(Self::paper()),
            "quick" => Some(Self::quick()),
            "tiny" => Some(Self::tiny()),
            "quick-2006" => Some(Self::quick_2006()),
            "synth1k" => Some(Self::synth1k()),
            "synth10k" => Some(Self::synth10k()),
            _ => None,
        }
    }

    /// Duration of one epoch on the trace timeline.
    pub fn epoch_len(&self) -> Time {
        let mut len = self.pathload_slot + self.pre_ping + self.transfer + self.epoch_gap;
        if self.with_small_window {
            len += self.transfer + self.epoch_gap;
        }
        len
    }

    /// Total duration of one trace.
    pub fn trace_len(&self) -> Time {
        Time::from_nanos(self.epoch_len().as_nanos() * self.epochs_per_trace as u64)
    }

    /// TCP configuration of the large-window target flow.
    pub fn tcp_large(&self) -> TcpConfig {
        TcpConfig {
            max_window: self.w_large,
            ..TcpConfig::default()
        }
    }

    /// TCP configuration of the window-limited target flow.
    pub fn tcp_small(&self) -> TcpConfig {
        TcpConfig {
            max_window: self.w_small,
            ..TcpConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_preset_matches_the_campaign() {
        let p = Preset::paper();
        assert_eq!(p.paths * p.traces_per_path * p.epochs_per_trace, 36_750);
        assert_eq!(p.transfer, Time::from_secs(50));
        assert_eq!(p.pre_ping, Time::from_secs(60));
        assert_eq!(p.w_large, 1 << 20);
        assert_eq!(p.w_small, 20 * 1024);
    }

    #[test]
    fn epoch_length_includes_both_transfers_when_enabled() {
        let p = Preset::tiny();
        let without = Preset {
            with_small_window: false,
            ..p.clone()
        };
        assert_eq!(
            p.epoch_len().as_nanos() - without.epoch_len().as_nanos(),
            (p.transfer + p.epoch_gap).as_nanos()
        );
    }

    #[test]
    fn trace_length_is_epochs_times_epoch_len() {
        let p = Preset::quick();
        assert_eq!(
            p.trace_len().as_nanos(),
            p.epoch_len().as_nanos() * p.epochs_per_trace as u64
        );
    }

    #[test]
    fn by_name_round_trips_every_registered_name() {
        for name in Preset::names() {
            assert_eq!(
                Preset::by_name(name).map(|p| p.name),
                Some(name.to_string()),
                "registered name {name} must parse back to itself"
            );
        }
        assert!(Preset::by_name("nope").is_none());
    }

    #[test]
    fn synth_presets_scale_the_procedural_catalog() {
        let k1 = Preset::synth1k();
        let k10 = Preset::synth10k();
        assert_eq!(k1.paths, 1000);
        assert_eq!(k10.paths, 10_000);
        assert_eq!(k1.seed, k10.seed, "same catalog family, different size");
        assert!(k1.name.starts_with("synth") && k10.name.starts_with("synth"));
    }

    #[test]
    fn tcp_configs_use_the_preset_windows() {
        let p = Preset::quick();
        assert_eq!(p.tcp_large().max_window, 1 << 20);
        assert_eq!(p.tcp_small().max_window, 20 * 1024);
    }
}
