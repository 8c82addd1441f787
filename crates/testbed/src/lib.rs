//! # tputpred-testbed — the synthetic RON
//!
//! The paper's evaluation ran on the RON Internet testbed: 35 paths
//! (May 2004) plus 24 paths (March 2006), 7 traces per path, 150
//! measurement epochs per trace, each epoch following the Fig. 1
//! timeline: a pathload avail-bw measurement, 60 s of ping probing, and a
//! 50 s IPerf transfer (with ping continuing during the transfer). This
//! crate rebuilds that testbed on the simulator:
//!
//! * [`path`] — the path catalog: heterogeneous [`path::PathConfig`]s
//!   (DSL bottlenecks, transatlantic and trans-Pacific RTTs, US
//!   university paths) with per-path cross-traffic profiles covering the
//!   paper's diversity: utilization levels, elastic (persistent-TCP) vs
//!   inelastic (Poisson / Pareto on-off) cross traffic, and stochastic
//!   level shifts and outlier bursts.
//! * [`synth`] — procedural path catalogs (DESIGN.md §15): seeded
//!   class-mix sampling (DSL, ≥ 10 Mbps US, transatlantic,
//!   cellular-like, lossy-wireless) at any scale, calibrated against
//!   the hand-written 2004 catalog — the `synth1k`/`synth10k` presets.
//! * [`preset`] — experiment scales: [`preset::Preset::paper`] keeps the
//!   35×7×150 structure and full durations; [`preset::Preset::quick`]
//!   shrinks traces for minutes-scale regeneration;
//!   [`preset::Preset::tiny`] is CI-sized. Durations scale together so
//!   the *shape* of results is preserved.
//! * [`runner`] — epoch orchestration: per-trace simulation assembly,
//!   the epoch timeline, and dataset generation (one path per parallel
//!   job, cached or in memory).
//! * [`faults`] — deterministic measurement fault injection: a per-trace
//!   [`faults::FaultPlan`] (drawn from the trace seed, on its own RNG
//!   stream) schedules pathload aborts, prober outages, reply-loss
//!   bursts, truncated/failed transfers, and whole missing epochs — the
//!   failure modes of the real RON testbed (DESIGN.md §10).
//! * [`data`] — the dataset model ([`data::EpochRecord`],
//!   [`data::Dataset`]) with a per-path JSON shard cache, so every
//!   `repro` entry reuses one generated dataset instead of re-simulating. Degraded
//!   epochs carry a [`data::EpochStatus`] and `None` measurements;
//!   [`data::Dataset::complete_epochs`] yields only the fully-measured
//!   ones, as the paper's own post-processing did.

/// Behavior hashing: a digest of the source trees (netsim, tcp,
/// probes, testbed) whose code decides what a generated dataset
/// contains. Cached datasets are pure functions of (preset, seed,
/// simulator code); the first two are fingerprinted per shard, and
/// this digest covers the third so the shard cache
/// ([`data::Dataset::for_each_path_sharded`]) regenerates shards
/// produced by different simulation code — replacing the old "remember
/// to delete `data/*` after touching netsim/tcp/probes/testbed"
/// convention with a mechanical check. `build.rs` `include!`s this
/// module to bake the current hash in as [`data::BEHAVIOR_HASH`].
pub mod behavior_hash;
pub mod data;
pub mod faults;
pub mod path;
pub mod preset;
pub mod runner;
pub mod synth;

pub use data::{
    CompleteEpoch, Dataset, EpochFaults, EpochRecord, EpochStatus, PathData, ShardStats, TraceData,
};
pub use faults::{
    draw_regimes, EpochFaultPlan, FaultConfig, FaultPlan, OutageRegime, RegimeConfig, TransferFault,
};
pub use path::{catalog_2004, catalog_2006, CrossProfile, PathConfig};
pub use preset::{CatalogKind, Preset};
pub use runner::{
    catalog_for, for_each_path, generate, generate_path, load_or_generate_sharded, run_trace,
    set_generation_workers, trace_seed,
};
pub use synth::{class_counts, class_specs, synth_catalog, ClassSpec};
