//! The dataset model: what one epoch measures and how datasets persist.
//!
//! The cache is **sharded per path** (DESIGN.md §9): one
//! `path-<id>.json` per catalog path under `data/<preset>/`, plus a
//! `manifest.json`. Each shard embeds the [`BEHAVIOR_HASH`] of the
//! simulation source trees (netsim, tcp, probes, testbed) *and* a
//! fingerprint of (preset, path config): a cached path is a pure
//! function of (preset, config, simulator code), and the two digests
//! make all three inputs explicit.
//!
//! [`Dataset::for_each_path_sharded`] is the one cache core: it
//! classifies every shard from its envelope prefix, regenerates only
//! the stale, missing, or corrupt ones, and streams each path to a
//! visitor after a single full parse — recovering, not aborting, when a
//! shard turns out damaged at that parse. Walked or collected, the data
//! is bit-identical to a from-scratch generation (pinned by
//! `crates/testbed/tests/shard_pin.rs`).

use crate::behavior_hash::{fnv1a, FNV_OFFSET};
use crate::path::PathConfig;
use crate::preset::Preset;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::fs;
use std::io::{self, Read};
use std::path::Path as FsPath;
use tputpred_obs as obs;

/// Digest of the simulation source trees this binary was compiled
/// from, computed by `build.rs` (see `behavior_hash`).
pub const BEHAVIOR_HASH: &str = env!("TPUTPRED_BEHAVIOR_HASH");

/// How much of an epoch's measurement schedule actually ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum EpochStatus {
    /// Every scheduled measurement completed.
    #[default]
    Ok,
    /// At least one measurement failed; the surviving fields are valid.
    Degraded,
    /// The node was down: nothing was measured this epoch.
    Missing,
}

/// Which fault(s) hit an epoch — the dataset's record of what
/// `faults::FaultPlan` scheduled, so analysis can condition on failure
/// mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct EpochFaults {
    /// Whole epoch missing (node down).
    pub node_down: bool,
    /// Pathload ran but aborted without an estimate.
    pub pathload_failed: bool,
    /// The ping prober was down for part of the epoch.
    pub ping_outage: bool,
    /// A burst of probe replies was lost on the return path.
    pub reply_loss_burst: bool,
    /// The bulk transfer was cut short.
    pub transfer_truncated: bool,
    /// The bulk transfer never started.
    pub transfer_failed: bool,
}

impl EpochFaults {
    /// No fault hit this epoch.
    pub fn is_clean(&self) -> bool {
        *self == EpochFaults::default()
    }

    /// The [`EpochStatus`] these faults imply.
    pub fn status(&self) -> EpochStatus {
        if self.node_down {
            EpochStatus::Missing
        } else if self.is_clean() {
            EpochStatus::Ok
        } else {
            EpochStatus::Degraded
        }
    }
}

/// Everything one measurement epoch records (§4.1): the a-priori
/// estimates that feed FB prediction, the during-flow estimates of
/// Figs. 3–6, the actual throughput(s), and the target flow's own view
/// of the path.
///
/// Measurement fields are `Option`s: `None` means the measurement was
/// lost to a fault (see [`EpochRecord::faults`] for which one). On a
/// fault-free run — every stock preset — all fields are `Some` and
/// `status` is [`EpochStatus::Ok`]; [`EpochRecord::complete`] recovers
/// the plain-`f64` view the figure binaries consume.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EpochRecord {
    /// What ran: [`EpochStatus::Ok`], `Degraded`, or `Missing`.
    pub status: EpochStatus,
    /// Which faults hit (all-false on a clean epoch).
    pub faults: EpochFaults,
    /// Avail-bw estimate `Â` from the pathload measurement, bits/s.
    /// `None` when pathload aborted or the epoch is missing.
    pub a_hat: Option<f64>,
    /// A-priori RTT `T̂` from the pre-transfer ping window, seconds.
    /// `None` when an outage left the window with no probes.
    pub t_hat: Option<f64>,
    /// A-priori loss rate `p̂` from the pre-transfer ping window.
    pub p_hat: Option<f64>,
    /// RTT `T̃` from ping probes sent *during* the transfer, seconds.
    pub t_tilde: Option<f64>,
    /// Loss rate `p̃` from ping probes sent during the transfer.
    pub p_tilde: Option<f64>,
    /// Actual throughput `R` of the large-window (1 MB) transfer, bits/s.
    /// `None` when the transfer failed; present (over the shortened run)
    /// when it was merely truncated.
    pub r_large: Option<f64>,
    /// Actual throughput of the extra window-limited (20 KB) transfer,
    /// when the preset runs one and the epoch is not missing.
    pub r_small: Option<f64>,
    /// Throughput over the first quarter of the transfer (Fig. 11).
    /// `None` when the transfer failed or was truncated (a shortened
    /// run's prefixes are not comparable to full-length ones).
    pub r_prefix_quarter: Option<f64>,
    /// Throughput over the first half of the transfer (Fig. 11).
    pub r_prefix_half: Option<f64>,
    /// Loss events (fast retransmits + timeouts) the target flow itself
    /// saw — the model's "congestion events" (§3.3). Zero when no
    /// transfer ran.
    pub flow_loss_events: u64,
    /// The target flow's per-segment retransmission fraction.
    pub flow_retx_rate: f64,
    /// Mean RTT the target flow itself sampled, seconds.
    pub flow_rtt: f64,
    /// Ground truth: mean spare bottleneck capacity over the pre-transfer
    /// window (capacity × (1 − utilization)), bits/s. Not available to
    /// predictors; used for validation only.
    pub true_avail_bw: f64,
}

/// The plain-`f64` view of a fully-measured epoch — what every figure
/// binary consumes. Field meanings are exactly [`EpochRecord`]'s.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompleteEpoch {
    /// Avail-bw estimate `Â`, bits/s.
    pub a_hat: f64,
    /// A-priori RTT `T̂`, seconds.
    pub t_hat: f64,
    /// A-priori loss rate `p̂`.
    pub p_hat: f64,
    /// During-flow RTT `T̃`, seconds.
    pub t_tilde: f64,
    /// During-flow loss rate `p̃`.
    pub p_tilde: f64,
    /// Large-window transfer throughput `R`, bits/s.
    pub r_large: f64,
    /// Window-limited transfer throughput, when the preset ran one.
    pub r_small: Option<f64>,
    /// Throughput over the first quarter of the transfer.
    pub r_prefix_quarter: f64,
    /// Throughput over the first half of the transfer.
    pub r_prefix_half: f64,
    /// The target flow's own loss events.
    pub flow_loss_events: u64,
    /// The target flow's retransmission fraction.
    pub flow_retx_rate: f64,
    /// The target flow's mean RTT, seconds.
    pub flow_rtt: f64,
    /// Ground-truth spare capacity, bits/s.
    pub true_avail_bw: f64,
}

impl EpochRecord {
    /// The plain view, if every scheduled measurement is present — the
    /// paper's own post-processing rule: epochs with failed measurements
    /// are silently discarded. A truncated transfer does not count as
    /// complete (its prefix throughputs are unmeasured).
    pub fn complete(&self) -> Option<CompleteEpoch> {
        Some(CompleteEpoch {
            a_hat: self.a_hat?,
            t_hat: self.t_hat?,
            p_hat: self.p_hat?,
            t_tilde: self.t_tilde?,
            p_tilde: self.p_tilde?,
            r_large: self.r_large?,
            r_small: self.r_small,
            r_prefix_quarter: self.r_prefix_quarter?,
            r_prefix_half: self.r_prefix_half?,
            flow_loss_events: self.flow_loss_events,
            flow_retx_rate: self.flow_retx_rate,
            flow_rtt: self.flow_rtt,
            true_avail_bw: self.true_avail_bw,
        })
    }
}

/// One trace: a consecutive sequence of epochs on one path.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TraceData {
    /// Epoch records in time order.
    pub records: Vec<EpochRecord>,
}

impl TraceData {
    /// The throughput time series HB predictors forecast (large-window
    /// transfers, bits/s). Epochs whose transfer failed are **skipped**,
    /// not zero-filled: this is the HB degradation rule — a predictor
    /// simply never sees the gap, so it cannot misread one as a level
    /// shift (the paper's authors likewise drop failed epochs from their
    /// RON traces). Use [`TraceData::throughput_series_gappy`] when gap
    /// positions matter.
    pub fn throughput_series(&self) -> Vec<f64> {
        self.records.iter().filter_map(|r| r.r_large).collect()
    }

    /// The large-window series with gaps preserved: one slot per epoch,
    /// `None` where the transfer failed or the epoch is missing. Feed
    /// this to `tputpred_core::metrics::evaluate_gappy` when reported
    /// positions must index the epoch timeline.
    pub fn throughput_series_gappy(&self) -> Vec<Option<f64>> {
        self.records.iter().map(|r| r.r_large).collect()
    }

    /// The window-limited throughput series (gaps skipped), or `None`
    /// when the preset measured none at all.
    pub fn small_window_series(&self) -> Option<Vec<f64>> {
        let series: Vec<f64> = self.records.iter().filter_map(|r| r.r_small).collect();
        (!series.is_empty()).then_some(series)
    }
}

/// All traces of one path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PathData {
    /// The path's configuration (capacity, RTT, cross-traffic profile).
    pub config: PathConfig,
    /// The traces, in collection order.
    pub traces: Vec<TraceData>,
}

/// A complete synthetic measurement campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    /// The preset that generated this dataset.
    pub preset: Preset,
    /// Per-path data, catalog order.
    pub paths: Vec<PathData>,
}

impl Dataset {
    /// Iterates over every epoch record with its `(path, trace)` indices.
    pub fn epochs(&self) -> impl Iterator<Item = (usize, usize, &EpochRecord)> + '_ {
        self.paths.iter().enumerate().flat_map(|(pi, p)| {
            p.traces
                .iter()
                .enumerate()
                .flat_map(move |(ti, t)| t.records.iter().map(move |r| (pi, ti, r)))
        })
    }

    /// Iterates over the fully-measured epochs only, as plain-`f64`
    /// [`CompleteEpoch`] views with their `(path, trace)` indices —
    /// the paper's post-processing rule (degraded epochs are discarded)
    /// packaged for the figure binaries. On fault-free datasets this is
    /// every epoch.
    pub fn complete_epochs(&self) -> impl Iterator<Item = (usize, usize, CompleteEpoch)> + '_ {
        self.epochs()
            .filter_map(|(p, t, r)| r.complete().map(|c| (p, t, c)))
    }

    /// Total epoch count.
    pub fn epoch_count(&self) -> usize {
        self.epochs().count()
    }

    /// Epochs whose status is not [`EpochStatus::Ok`].
    pub fn degraded_count(&self) -> usize {
        self.epochs()
            .filter(|(_, _, r)| r.status != EpochStatus::Ok)
            .count()
    }

    /// The shard cache (DESIGN.md §9): walks `data/<preset>/`'s
    /// `path-<id>.json` shards and hands each path's data to `visit` in
    /// catalog order, regenerating through `regenerate_one` every shard
    /// this binary does not trust. No merged `Dataset` is ever
    /// materialized — each payload is dropped before the next one
    /// loads, so a 10 000-path preset costs O(one path) resident memory
    /// (DESIGN.md §15); `runner::load_or_generate_sharded` is this walk
    /// plus a collect of the paths, moved rather than copied.
    ///
    /// One classify → regenerate → visit cycle:
    ///
    /// 1. **Classify** reads only each shard's envelope prefix: a
    ///    trusted shard begins with its embedded [`BEHAVIOR_HASH`] and
    ///    the expected [`shard_fingerprint`] of (preset, path config),
    ///    so simulation-code edits invalidate every shard while preset
    ///    or catalog changes and cache damage invalidate only the
    ///    affected ones.
    /// 2. **Regenerate** hands the untrusted set to the crate's one
    ///    parallel fan-out, `regenerate_all`, whose job writes each
    ///    shard the moment it finishes (shards are independent files, so
    ///    parallel atomic writes cannot collide). Every path is a pure
    ///    function of (preset, config), so the bytes do not depend on the
    ///    worker count — `shard_pin.rs` pins multi-worker against
    ///    single-worker output and the walk against `runner::generate`,
    ///    the same fan-out collected in memory without the cache.
    /// 3. **Visit** parses each shard once, in full, and re-checks both
    ///    digests. A shard that fails here — damaged after classify, or
    ///    a body truncated behind an intact header — is regenerated on
    ///    the spot, saved, moved from `hits` to `stale`, and its fresh
    ///    payload visited: cache damage never stops the walk.
    ///
    /// Housekeeping on every walk: orphaned atomic-write temp files are
    /// swept, shards beyond the catalog (a shrunk preset) are removed,
    /// and the manifest is rewritten when out of date. An error from
    /// `visit` stops the walk and is returned as is.
    pub fn for_each_path_sharded<G, V>(
        dir: &FsPath,
        preset: &Preset,
        catalog: &[PathConfig],
        regenerate_one: G,
        mut visit: V,
    ) -> io::Result<ShardStats>
    where
        G: Fn(usize) -> PathData + Sync,
        V: FnMut(usize, &PathData) -> io::Result<()>,
    {
        Self::walk_shards(dir, preset, catalog, regenerate_one, |id, path| {
            visit(id, &path)
        })
    }

    /// The walk of [`Dataset::for_each_path_sharded`], handing each
    /// path to `visit` by value, so a caller that keeps the paths
    /// (`runner::load_or_generate_sharded`) moves them instead of
    /// copying them.
    pub(crate) fn walk_shards<G, V>(
        dir: &FsPath,
        preset: &Preset,
        catalog: &[PathConfig],
        regenerate_one: G,
        mut visit: V,
    ) -> io::Result<ShardStats>
    where
        G: Fn(usize) -> PathData + Sync,
        V: FnMut(usize, PathData) -> io::Result<()>,
    {
        fs::create_dir_all(dir)?;
        sweep_stale_temps(dir);
        remove_orphan_shards(dir, catalog.len());

        let fingerprints: Vec<String> = catalog
            .iter()
            .map(|config| shard_fingerprint(preset, config))
            .collect();
        let mut stats = ShardStats::default();
        let mut stale_ids: Vec<usize> = Vec::new();
        for (id, fingerprint) in fingerprints.iter().enumerate() {
            match header_trusted(&dir.join(shard_file_name(id)), fingerprint) {
                Ok(true) => stats.hits += 1,
                Err(e) if e.kind() == io::ErrorKind::NotFound => {
                    stats.missing += 1;
                    stale_ids.push(id);
                }
                // Generated by different simulation code or a different
                // (preset, config), or too short to hold an envelope.
                _ => {
                    stats.stale += 1;
                    stale_ids.push(id);
                }
            }
        }

        if !stale_ids.is_empty() {
            eprintln!(
                "# dataset '{}': {} shard(s) reused, regenerating {} \
                 ({} missing, {} stale) -> {}",
                preset.name,
                stats.hits,
                stale_ids.len(),
                stats.missing,
                stats.stale,
                dir.display()
            );
            regenerate_all(preset, &stale_ids, |id| {
                save_shard(dir, id, preset, &regenerate_one(id))
            })
            .into_iter()
            .collect::<io::Result<()>>()?;
        }
        write_manifest_if_changed(dir, preset, &fingerprints)?;

        for (id, fingerprint) in fingerprints.iter().enumerate() {
            let shard_path = dir.join(shard_file_name(id));
            let path = match load_shard(&shard_path) {
                Ok(shard) if shard_trusted(&shard, fingerprint) => shard.path,
                damaged => {
                    let why = damaged.map_or_else(|e| e.to_string(), |_| "digest mismatch".into());
                    eprintln!(
                        "# dataset '{}': {} unusable at visit ({why}); regenerating it",
                        preset.name,
                        shard_path.display()
                    );
                    if stale_ids.binary_search(&id).is_err() {
                        stats.hits -= 1;
                        stats.stale += 1;
                    }
                    let fresh = regenerate_all(preset, &[id], &regenerate_one).remove(0);
                    save_shard(dir, id, preset, &fresh)?;
                    fresh
                }
            };
            visit(id, path)?;
        }
        Ok(stats)
    }
}

/// The one parallel generation fan-out: runs `job` once per catalog
/// path in `ids` across [`rayon::current_num_threads`] workers and
/// returns the results in `ids` order. The shard walk regenerates
/// through it (its job saves each shard as it finishes) and so does
/// `runner::generate` (its job returns the path). Every path is a pure
/// function of (preset, config), so the results do not depend on the
/// worker count or on which other paths share the batch.
///
/// Telemetry (observation-only, the bytes are identical with it on or
/// off): the `testbed.workers` gauge and the `testbed.traces` counter,
/// and one `testbed.generate_wall` scope around the parallel phase, so a
/// profiled run can report parallel speedup (DESIGN.md §11).
pub(crate) fn regenerate_all<T: Send>(
    preset: &Preset,
    ids: &[usize],
    job: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    obs::gauge!("testbed.workers").set(rayon::current_num_threads() as f64);
    obs::counter!("testbed.traces").add((ids.len() * preset.traces_per_path) as u64);
    let mut gen_scope = obs::timer!("testbed.generate_wall").start();
    let results = ids.par_iter().map(|&id| job(id)).collect();
    gen_scope.stop();
    results
}

// --- Sharded per-path persistence (DESIGN.md §9) ------------------------

/// File name of the shard manifest inside a shard directory.
pub const SHARD_MANIFEST: &str = "manifest.json";

/// File name of the shard holding catalog path `id`.
pub fn shard_file_name(id: usize) -> String {
    format!("path-{id}.json")
}

/// Per-shard outcome counts of one [`Dataset::for_each_path_sharded`]
/// walk: how much of the cache was reusable and why the rest was not.
/// A shard whose envelope passed classify but whose full parse failed
/// at visit counts as `stale`, not as a hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ShardStats {
    /// Shards loaded from disk (behavior hash and fingerprint matched,
    /// and the payload parsed).
    pub hits: usize,
    /// Shards with no file on disk.
    pub missing: usize,
    /// Shards present but untrusted: behavior-hash or fingerprint
    /// mismatch, a short or unreadable envelope, or a payload that did
    /// not parse at visit.
    pub stale: usize,
}

impl ShardStats {
    /// Shards that had to be regenerated (`missing + stale`).
    pub fn regenerated(&self) -> usize {
        self.missing + self.stale
    }

    /// Total shards considered (`hits + regenerated`).
    pub fn total(&self) -> usize {
        self.hits + self.regenerated()
    }
}

/// The on-disk envelope of one shard, as [`load_shard`] reads it: one
/// path's data plus everything needed to decide whether this binary
/// can trust it. [`save_shard`] writes [`trusted_prefix`], the payload
/// and the closing brace, so both digests precede the payload and
/// classify reads only the prefix.
#[derive(Debug, Deserialize)]
struct ShardFile {
    /// [`BEHAVIOR_HASH`] at generation time.
    behavior_hash: String,
    /// [`shard_fingerprint`] of the (preset, path config) that
    /// generated this shard.
    config_fingerprint: String,
    /// The payload.
    path: PathData,
}

/// One manifest line: which shard file covers which catalog path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ManifestEntry {
    /// Catalog index.
    id: usize,
    /// Shard file name ([`shard_file_name`]).
    file: String,
    /// Expected [`shard_fingerprint`] of the shard.
    config_fingerprint: String,
}

/// `manifest.json`: a human-readable index of the shard directory.
/// Validity is decided per shard (each shard self-describes); the
/// manifest records what the directory *should* contain so a partially
/// written or hand-edited cache is easy to diagnose.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Manifest {
    /// [`BEHAVIOR_HASH`] at the last (re)generation.
    behavior_hash: String,
    /// The preset the shards belong to.
    preset: Preset,
    /// One entry per catalog path, in catalog order.
    shards: Vec<ManifestEntry>,
}

/// Fingerprint of everything *besides* simulation code that decides a
/// shard's contents: the full preset (epoch counts, durations, fault
/// rates, seed) and the path's own configuration. Hashed over the
/// serialized JSON of both, so any field change — however small —
/// invalidates exactly the shards it affects.
pub fn shard_fingerprint(preset: &Preset, config: &PathConfig) -> String {
    let preset_json = serde_json::to_string(preset).unwrap_or_default();
    let config_json = serde_json::to_string(config).unwrap_or_default();
    let mut h = fnv1a(FNV_OFFSET, preset_json.as_bytes());
    h = fnv1a(h, &[0]);
    h = fnv1a(h, config_json.as_bytes());
    h = fnv1a(h, &[0]);
    format!("{h:016x}")
}

/// Whether a shard on disk can be reused by this binary: its embedded
/// behavior hash must match the compiled-in [`BEHAVIOR_HASH`] and its
/// config fingerprint must match the expected
/// [`shard_fingerprint`] of the current (preset, path config).
fn shard_trusted(shard: &ShardFile, expected_fingerprint: &str) -> bool {
    shard.behavior_hash == BEHAVIOR_HASH && shard.config_fingerprint == expected_fingerprint
}

/// The bytes a trusted shard begins with: the envelope carrying the
/// current [`BEHAVIOR_HASH`] and `expected_fingerprint`, up to the start
/// of the payload (83 bytes — both digests are 16 hex digits).
/// [`save_shard`] writes it verbatim.
fn trusted_prefix(expected_fingerprint: &str) -> String {
    format!(
        "{{\"behavior_hash\":\"{BEHAVIOR_HASH}\",\"config_fingerprint\":\"{expected_fingerprint}\",\"path\":"
    )
}

/// Classifies the shard at `path` from its envelope prefix alone:
/// `Ok(true)` when it begins with [`trusted_prefix`], `Ok(false)` when
/// it begins with anything else, and an error when it cannot be opened
/// (`NotFound`: missing) or is too short to hold the prefix. The payload
/// is not read; the visit's full parse re-checks both digests.
fn header_trusted(path: &FsPath, expected_fingerprint: &str) -> io::Result<bool> {
    let prefix = trusted_prefix(expected_fingerprint);
    let mut head = vec![0u8; prefix.len()];
    fs::File::open(path)?.read_exact(&mut head)?;
    Ok(head == prefix.as_bytes())
}

/// Loads one shard envelope. The bytes of every shard that decodes are
/// counted in `data.bytes_decoded` (observation-only).
fn load_shard(path: &FsPath) -> io::Result<ShardFile> {
    let json = fs::read_to_string(path)?;
    let shard = serde_json::from_str(&json).map_err(io::Error::other)?;
    obs::counter!("data.bytes_decoded").add(json.len() as u64);
    Ok(shard)
}

/// Saves one shard atomically, embedding the current behavior hash and
/// the (preset, config) fingerprint. Its bytes are counted in
/// `data.bytes_encoded` (observation-only).
fn save_shard(dir: &FsPath, id: usize, preset: &Preset, data: &PathData) -> io::Result<()> {
    let mut json = trusted_prefix(&shard_fingerprint(preset, &data.config));
    data.serialize(&mut json);
    json.push('}');
    obs::counter!("data.bytes_encoded").add(json.len() as u64);
    write_atomic(&dir.join(shard_file_name(id)), &json)
}

/// Rewrites `manifest.json` when its expected content differs from
/// what is on disk (first generation, behavior-hash change, catalog
/// change, or a deleted/hand-edited manifest).
fn write_manifest_if_changed(
    dir: &FsPath,
    preset: &Preset,
    fingerprints: &[String],
) -> io::Result<()> {
    let manifest = Manifest {
        behavior_hash: BEHAVIOR_HASH.to_string(),
        preset: preset.clone(),
        shards: fingerprints
            .iter()
            .enumerate()
            .map(|(id, fingerprint)| ManifestEntry {
                id,
                file: shard_file_name(id),
                config_fingerprint: fingerprint.clone(),
            })
            .collect(),
    };
    let json = serde_json::to_string(&manifest).map_err(io::Error::other)?;
    let path = dir.join(SHARD_MANIFEST);
    if fs::read_to_string(&path).is_ok_and(|on_disk| on_disk == json) {
        return Ok(());
    }
    write_atomic(&path, &json)
}

/// Removes `path-<id>.json` shards beyond the catalog — left behind
/// when a preset shrinks its path count. Best-effort.
///
/// A file is a shard if and only if its name is the *canonical*
/// [`shard_file_name`] of its parsed id: `usize::from_str` alone also
/// accepts zero-padded (`path-007.json`) and signed (`path-+5.json`)
/// spellings that no load will ever consult — under a lenient parse
/// those mis-classify as live ids and survive every sweep (or, worse, a
/// padded spelling of an id beyond the catalog survives a shrink across
/// a digit boundary, e.g. 10000 → 9999). Anything matching the
/// `path-*.json` pattern without round-tripping is unreadable junk in a
/// directory this module owns, and is removed with the orphans.
fn remove_orphan_shards(dir: &FsPath, path_count: usize) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.filter_map(Result::ok) {
        let name = entry.file_name().to_string_lossy().into_owned();
        let live = name
            .strip_prefix("path-")
            .and_then(|rest| rest.strip_suffix(".json"))
            .and_then(|digits| digits.parse::<usize>().ok())
            .filter(|&id| shard_file_name(id) == name)
            .is_some_and(|id| id < path_count);
        if !live && name.starts_with("path-") && name.ends_with(".json") {
            let _ = fs::remove_file(entry.path());
        }
    }
}

/// Writes `json` to `path` atomically: a temp file in the destination
/// directory, then rename, so an interrupted save can never leave a
/// truncated cache behind. The temp name embeds the process id so
/// concurrent generators each write their own temp file; last rename
/// wins, and both outcomes are complete files with identical content
/// (generation is deterministic).
fn write_atomic(path: &FsPath, json: &str) -> io::Result<()> {
    let dir = path.parent().unwrap_or(FsPath::new("."));
    fs::create_dir_all(dir)?;
    let file_name = path.file_name().unwrap_or_default().to_string_lossy();
    let tmp = dir.join(format!(".{}.tmp.{}", file_name, std::process::id()));
    fs::write(&tmp, json)?;
    match fs::rename(&tmp, path) {
        Ok(()) => Ok(()),
        Err(e) => {
            let _ = fs::remove_file(&tmp);
            Err(e)
        }
    }
}

/// Sweeps orphaned atomic-write temp files (`.{name}.tmp.{pid}`) left
/// behind by a crash between [`write_atomic`]'s write and rename. Only
/// temps **no newer than the cache file they shadow** are removed: a
/// concurrent writer's in-flight temp is strictly newer than the cache
/// it is about to replace, while a crash leftover is older than the
/// cache some later save renamed into place. A leftover with no cache
/// file at all is kept for now — the shard it shadows is about to
/// regenerate, after which the next load sweeps it. Best-effort: IO
/// errors leave the temp for the next load.
fn sweep_stale_temps(dir: &FsPath) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.filter_map(Result::ok) {
        let name = entry.file_name().to_string_lossy().into_owned();
        let Some(target) = temp_target_name(&name) else {
            continue;
        };
        let temp_path = entry.path();
        let target_mtime = fs::metadata(dir.join(target)).and_then(|m| m.modified());
        let temp_mtime = fs::metadata(&temp_path).and_then(|m| m.modified());
        if let (Ok(temp_m), Ok(target_m)) = (temp_mtime, target_mtime) {
            if temp_m <= target_m {
                let _ = fs::remove_file(&temp_path);
            }
        }
    }
}

/// Parses an atomic-write temp file name: `.{name}.tmp.{pid}` yields
/// `Some(name)`, anything else `None`.
fn temp_target_name(file_name: &str) -> Option<&str> {
    let rest = file_name.strip_prefix('.')?;
    let (target, pid) = rest.rsplit_once(".tmp.")?;
    (!target.is_empty() && !pid.is_empty() && pid.bytes().all(|b| b.is_ascii_digit()))
        .then_some(target)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::catalog_2004;

    fn record(r: f64) -> EpochRecord {
        EpochRecord {
            status: EpochStatus::Ok,
            faults: EpochFaults::default(),
            a_hat: Some(5e6),
            t_hat: Some(0.05),
            p_hat: Some(0.0),
            t_tilde: Some(0.06),
            p_tilde: Some(0.01),
            r_large: Some(r),
            r_small: Some(r / 4.0),
            r_prefix_quarter: Some(r * 0.8),
            r_prefix_half: Some(r * 0.9),
            flow_loss_events: 2,
            flow_retx_rate: 0.01,
            flow_rtt: 0.055,
            true_avail_bw: 5.5e6,
        }
    }

    fn missing_record() -> EpochRecord {
        EpochRecord {
            status: EpochStatus::Missing,
            faults: EpochFaults {
                node_down: true,
                ..EpochFaults::default()
            },
            a_hat: None,
            t_hat: None,
            p_hat: None,
            t_tilde: None,
            p_tilde: None,
            r_large: None,
            r_small: None,
            r_prefix_quarter: None,
            r_prefix_half: None,
            flow_loss_events: 0,
            flow_retx_rate: 0.0,
            flow_rtt: 0.0,
            true_avail_bw: 5.5e6,
        }
    }

    fn dataset() -> Dataset {
        let config = catalog_2004(3, 1).remove(0);
        Dataset {
            preset: Preset::tiny(),
            paths: vec![PathData {
                config,
                traces: vec![
                    TraceData {
                        records: vec![record(1e6), record(2e6)],
                    },
                    TraceData {
                        records: vec![record(3e6)],
                    },
                ],
            }],
        }
    }

    #[test]
    fn epochs_iterates_in_order_with_indices() {
        let ds = dataset();
        let idx: Vec<(usize, usize, Option<f64>)> =
            ds.epochs().map(|(p, t, r)| (p, t, r.r_large)).collect();
        assert_eq!(
            idx,
            vec![(0, 0, Some(1e6)), (0, 0, Some(2e6)), (0, 1, Some(3e6))]
        );
        assert_eq!(ds.epoch_count(), 3);
        assert_eq!(ds.degraded_count(), 0);
    }

    #[test]
    fn throughput_series_extracts_large_window_runs() {
        let ds = dataset();
        assert_eq!(ds.paths[0].traces[0].throughput_series(), vec![1e6, 2e6]);
        assert_eq!(
            ds.paths[0].traces[0].small_window_series(),
            Some(vec![0.25e6, 0.5e6])
        );
    }

    #[test]
    fn gappy_series_keeps_positions_dense_series_skips() {
        let trace = TraceData {
            records: vec![record(1e6), missing_record(), record(3e6)],
        };
        assert_eq!(trace.throughput_series(), vec![1e6, 3e6]);
        assert_eq!(
            trace.throughput_series_gappy(),
            vec![Some(1e6), None, Some(3e6)]
        );
        assert_eq!(trace.small_window_series(), Some(vec![0.25e6, 0.75e6]));
    }

    #[test]
    fn complete_epochs_discards_degraded_records() {
        let mut ds = dataset();
        ds.paths[0].traces[0].records.push(missing_record());
        let mut degraded = record(4e6);
        degraded.status = EpochStatus::Degraded;
        degraded.faults.pathload_failed = true;
        degraded.a_hat = None;
        ds.paths[0].traces[1].records.push(degraded);
        assert_eq!(ds.epoch_count(), 5);
        assert_eq!(ds.degraded_count(), 2);
        let complete: Vec<f64> = ds.complete_epochs().map(|(_, _, c)| c.r_large).collect();
        assert_eq!(complete, vec![1e6, 2e6, 3e6]);
    }

    #[test]
    fn complete_view_mirrors_the_record_fields() {
        let r = record(2e6);
        let c = r.complete().unwrap();
        assert_eq!(Some(c.a_hat), r.a_hat);
        assert_eq!(Some(c.t_hat), r.t_hat);
        assert_eq!(Some(c.r_large), r.r_large);
        assert_eq!(c.r_small, r.r_small);
        assert_eq!(c.flow_loss_events, r.flow_loss_events);
        assert_eq!(missing_record().complete(), None);
    }

    #[test]
    fn fault_flags_imply_status() {
        assert_eq!(EpochFaults::default().status(), EpochStatus::Ok);
        let outage = EpochFaults {
            ping_outage: true,
            ..EpochFaults::default()
        };
        assert_eq!(outage.status(), EpochStatus::Degraded);
        let down = EpochFaults {
            node_down: true,
            transfer_failed: true,
            ..EpochFaults::default()
        };
        assert_eq!(down.status(), EpochStatus::Missing);
    }

    #[test]
    fn behavior_hash_is_a_hex_digest() {
        assert_eq!(BEHAVIOR_HASH.len(), 16);
        assert!(BEHAVIOR_HASH.bytes().all(|b| b.is_ascii_hexdigit()));
    }

    /// A unique scratch directory per test (tests share one process, so
    /// the pid alone does not discriminate).
    fn scratch(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("tputpred-{}-{}", tag, std::process::id()))
    }

    #[test]
    fn temp_target_name_parses_only_atomic_temp_names() {
        assert_eq!(temp_target_name(".ds.json.tmp.1234"), Some("ds.json"));
        assert_eq!(temp_target_name(".path-3.json.tmp.9"), Some("path-3.json"));
        // Name with an interior `.tmp.`: the *last* one is the marker.
        assert_eq!(temp_target_name(".a.tmp.b.tmp.77"), Some("a.tmp.b"));
        assert_eq!(temp_target_name("ds.json"), None, "no leading dot");
        assert_eq!(
            temp_target_name(".ds.json.tmp.12x"),
            None,
            "pid not numeric"
        );
        assert_eq!(temp_target_name(".ds.json.tmp."), None, "empty pid");
        assert_eq!(temp_target_name(".tmp.123"), None, "empty target");
        assert_eq!(temp_target_name(".hidden-file"), None);
    }

    fn shard_catalog() -> Vec<PathConfig> {
        catalog_2004(3, 1)
    }

    fn path_data(config: &PathConfig, r: f64) -> PathData {
        PathData {
            config: config.clone(),
            traces: vec![TraceData {
                records: vec![record(r)],
            }],
        }
    }

    fn stats(hits: usize, missing: usize, stale: usize) -> ShardStats {
        ShardStats {
            hits,
            missing,
            stale,
        }
    }

    /// What one walk did: its counts, the ids it regenerated (sorted —
    /// the fan-out finishes in any order), and what it visited.
    struct Walk {
        stats: ShardStats,
        regenerated: Vec<usize>,
        visited: Vec<(usize, PathData)>,
    }

    /// Walks `dir` with the canonical fake regeneration: path `i` gets
    /// throughput `(i+1) MHz` so shards are distinguishable.
    fn walk(dir: &FsPath, preset: &Preset, catalog: &[PathConfig]) -> Walk {
        let regenerated = std::sync::Mutex::new(Vec::new());
        let mut visited = Vec::new();
        let stats = Dataset::for_each_path_sharded(
            dir,
            preset,
            catalog,
            |id| {
                regenerated.lock().unwrap().push(id);
                path_data(&catalog[id], (id as f64 + 1.0) * 1e6)
            },
            |id, p| {
                visited.push((id, p.clone()));
                Ok(())
            },
        )
        .unwrap();
        let mut regenerated = regenerated.into_inner().unwrap();
        regenerated.sort_unstable();
        Walk {
            stats,
            regenerated,
            visited,
        }
    }

    /// A fresh scratch shard directory holding a cold walk's shards.
    fn warm_dir(tag: &str, catalog: &[PathConfig]) -> std::path::PathBuf {
        let dir = scratch(tag);
        let _ = std::fs::remove_dir_all(&dir);
        walk(&dir, &Preset::tiny(), catalog);
        dir
    }

    #[test]
    fn cold_walk_generates_then_warm_walk_hits() {
        let dir = scratch("shard-cold");
        let _ = std::fs::remove_dir_all(&dir);
        let preset = Preset::tiny();
        let catalog = shard_catalog();
        let cold = walk(&dir, &preset, &catalog);
        assert_eq!(cold.stats, stats(0, 3, 0));
        assert_eq!(cold.stats.regenerated(), 3);
        assert_eq!(cold.regenerated, vec![0, 1, 2]);
        let expected: Vec<(usize, PathData)> = (0..3)
            .map(|id| (id, path_data(&catalog[id], (id as f64 + 1.0) * 1e6)))
            .collect();
        assert_eq!(cold.visited, expected, "visits arrive in catalog order");
        for id in 0..3 {
            assert!(dir.join(shard_file_name(id)).is_file());
        }
        assert!(dir.join(SHARD_MANIFEST).is_file());

        let warm = walk(&dir, &preset, &catalog);
        assert_eq!(warm.stats, stats(3, 0, 0));
        assert!(warm.regenerated.is_empty(), "warm walk must not regenerate");
        assert_eq!(warm.visited, expected, "warm walk reads the identical data");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn saved_shard_starts_with_the_trusted_prefix_and_loads_back() {
        // Classify trusts a shard on its first bytes alone, so the
        // writer must emit exactly that prefix, and the full parse must
        // read the envelope it completes.
        let dir = scratch("shard-envelope");
        let _ = std::fs::remove_dir_all(&dir);
        let preset = Preset::tiny();
        let catalog = shard_catalog();
        let data = path_data(&catalog[0], 1e6);
        save_shard(&dir, 0, &preset, &data).unwrap();
        let file = dir.join(shard_file_name(0));
        let fingerprint = shard_fingerprint(&preset, &catalog[0]);
        let prefix = trusted_prefix(&fingerprint);
        assert_eq!(prefix.len(), 83);
        let json = std::fs::read_to_string(&file).unwrap();
        assert!(
            json.starts_with(&prefix),
            "envelope {} does not start with {prefix}",
            &json[..prefix.len().min(json.len())]
        );
        assert!(header_trusted(&file, &fingerprint).unwrap());
        let shard = load_shard(&file).unwrap();
        assert!(shard_trusted(&shard, &fingerprint));
        assert_eq!(shard.path, data);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_shard_regenerates_only_itself() {
        // Header intact, body cut off: classify trusts the shard, the
        // visit's full parse does not — it regenerates there, alone.
        let catalog = shard_catalog();
        let dir = warm_dir("shard-corrupt", &catalog);
        let shard = dir.join(shard_file_name(1));
        let full = std::fs::read(&shard).unwrap();
        std::fs::write(&shard, &full[..full.len() / 2]).unwrap();
        let w = walk(&dir, &Preset::tiny(), &catalog);
        assert_eq!(w.regenerated, vec![1], "only the damaged shard regenerates");
        assert_eq!(w.stats, stats(2, 0, 1));
        assert_eq!(w.visited.len(), 3);
        assert_eq!(
            std::fs::read(&shard).unwrap(),
            full,
            "shard rewritten whole"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn deleted_shard_counts_missing_and_regenerates() {
        let catalog = shard_catalog();
        let dir = warm_dir("shard-missing", &catalog);
        std::fs::remove_file(dir.join(shard_file_name(2))).unwrap();
        let w = walk(&dir, &Preset::tiny(), &catalog);
        assert_eq!(w.regenerated, vec![2]);
        assert_eq!(w.stats, stats(2, 1, 0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_behavior_hash_triggers_regeneration() {
        // A shard written by "different simulation code": same payload,
        // a different hash in its envelope.
        let catalog = shard_catalog();
        let dir = warm_dir("shard-hash", &catalog);
        let shard = dir.join(shard_file_name(0));
        let json = std::fs::read_to_string(&shard).unwrap();
        let other = if BEHAVIOR_HASH == "0123456789abcdef" {
            "fedcba9876543210"
        } else {
            "0123456789abcdef"
        };
        std::fs::write(&shard, json.replacen(BEHAVIOR_HASH, other, 1)).unwrap();
        let w = walk(&dir, &Preset::tiny(), &catalog);
        assert_eq!(w.regenerated, vec![0], "stale shard must regenerate");
        assert_eq!(w.stats, stats(2, 0, 1));
        // The rewritten shard carries the current hash: hit next time.
        assert_eq!(walk(&dir, &Preset::tiny(), &catalog).stats, stats(3, 0, 0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn config_change_invalidates_only_that_shard() {
        let mut catalog = shard_catalog();
        let dir = warm_dir("shard-config", &catalog);
        catalog[2].capacity_bps *= 2.0;
        let w = walk(&dir, &Preset::tiny(), &catalog);
        assert_eq!(w.regenerated, vec![2]);
        assert_eq!(w.stats, stats(2, 0, 1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn preset_change_invalidates_every_shard() {
        let catalog = shard_catalog();
        let dir = warm_dir("shard-preset", &catalog);
        let changed = Preset {
            seed: Preset::tiny().seed + 1,
            ..Preset::tiny()
        };
        let w = walk(&dir, &changed, &catalog);
        assert_eq!(w.regenerated, vec![0, 1, 2]);
        assert_eq!(w.stats, stats(0, 0, 3));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn orphan_shards_beyond_the_catalog_are_removed() {
        let catalog = shard_catalog();
        let dir = warm_dir("shard-orphan", &catalog);
        let orphan = dir.join(shard_file_name(7));
        std::fs::write(&orphan, "{}").unwrap();
        let w = walk(&dir, &Preset::tiny(), &catalog);
        assert!(w.regenerated.is_empty());
        assert!(!orphan.exists(), "shards past the catalog must be removed");
        assert!(dir.join(shard_file_name(2)).is_file(), "live shards stay");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn walk_leaves_no_temp_files_behind() {
        let catalog = shard_catalog();
        let dir = warm_dir("shard-no-temps", &catalog);
        let mut entries: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        entries.sort();
        assert_eq!(
            entries,
            vec![SHARD_MANIFEST, "path-0.json", "path-1.json", "path-2.json"],
            "only the renamed shards and the manifest remain"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_temp_file_is_swept_on_walk() {
        let dir = scratch("temp-sweep");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let catalog = shard_catalog();
        // Plant the crash leftover *before* its shard exists, then let a
        // cold walk write the shard: the temp's mtime is <= the shard's,
        // exactly the state a crash between write and rename leaves
        // after a later successful save.
        let temp = dir.join(format!(".path-0.json.tmp.{}", std::process::id() + 1));
        std::fs::write(&temp, "{\"partial\":").unwrap();
        walk(&dir, &Preset::tiny(), &catalog);
        assert!(
            temp.is_file(),
            "precondition: leftover outlives the cold walk"
        );
        let w = walk(&dir, &Preset::tiny(), &catalog);
        assert_eq!(w.stats, stats(3, 0, 0));
        assert!(!temp.exists(), "stale temp must be swept on the next walk");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn temp_newer_than_its_shard_survives_the_sweep() {
        let catalog = shard_catalog();
        let dir = warm_dir("temp-keep", &catalog);
        let shard = dir.join(shard_file_name(0));
        // Rewind the shard's mtime so the temp planted next is strictly
        // newer — the signature of a concurrent writer's in-flight file.
        let old = std::fs::FileTimes::new()
            .set_modified(std::time::UNIX_EPOCH + std::time::Duration::from_secs(1));
        std::fs::File::options()
            .append(true)
            .open(&shard)
            .unwrap()
            .set_times(old)
            .unwrap();
        let temp = dir.join(format!(".path-0.json.tmp.{}", std::process::id() + 1));
        std::fs::write(&temp, "{\"in-flight\":").unwrap();
        walk(&dir, &Preset::tiny(), &catalog);
        assert!(temp.is_file(), "an in-flight temp must not be swept");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shard_fingerprint_separates_presets_and_configs() {
        let catalog = shard_catalog();
        let tiny = Preset::tiny();
        let quick = Preset::quick();
        let fp = shard_fingerprint(&tiny, &catalog[0]);
        assert_eq!(fp.len(), 16);
        assert!(fp.bytes().all(|b| b.is_ascii_hexdigit()));
        assert_eq!(fp, shard_fingerprint(&tiny, &catalog[0]), "deterministic");
        assert_ne!(fp, shard_fingerprint(&tiny, &catalog[1]));
        assert_ne!(fp, shard_fingerprint(&quick, &catalog[0]));
    }

    #[test]
    fn orphan_sweep_is_exact_at_a_digit_boundary() {
        // The 10000 → 9999 shrink: the last live id (9999) and the first
        // orphan (10000) differ in digit count; a sweep keyed on parsed
        // ids must keep one and remove the other, in both directions.
        let dir = scratch("orphan-boundary");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(shard_file_name(9999)), "{}").unwrap();
        std::fs::write(dir.join(shard_file_name(10000)), "{}").unwrap();
        remove_orphan_shards(&dir, 10000);
        assert!(
            dir.join(shard_file_name(9999)).is_file(),
            "id 9999 is live at path_count 10000"
        );
        assert!(
            !dir.join(shard_file_name(10000)).exists(),
            "id 10000 is an orphan at path_count 10000"
        );
        remove_orphan_shards(&dir, 9999);
        assert!(
            !dir.join(shard_file_name(9999)).exists(),
            "id 9999 is an orphan once the catalog shrinks to 9999"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn orphan_sweep_removes_non_canonical_shard_names() {
        // `parse::<usize>` alone accepts zero-padded and signed
        // spellings that no load ever consults — under the old lenient
        // sweep, `path-007.json` parsed to a live id and survived
        // forever. Only the canonical `shard_file_name` round trip names
        // a shard; everything else matching `path-*.json` is junk.
        let dir = scratch("orphan-canonical");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for junk in ["path-007.json", "path-+5.json", "path-abc.json"] {
            std::fs::write(dir.join(junk), "{}").unwrap();
        }
        std::fs::write(dir.join(shard_file_name(1)), "{}").unwrap();
        std::fs::write(dir.join(SHARD_MANIFEST), "{}").unwrap();
        let temp = dir.join(".path-1.json.tmp.99");
        std::fs::write(&temp, "{").unwrap();
        remove_orphan_shards(&dir, 3);
        for junk in ["path-007.json", "path-+5.json", "path-abc.json"] {
            assert!(!dir.join(junk).exists(), "{junk} must be swept");
        }
        assert!(dir.join(shard_file_name(1)).is_file(), "canonical stays");
        assert!(dir.join(SHARD_MANIFEST).is_file(), "manifest untouched");
        assert!(temp.is_file(), "atomic temps belong to the temp sweep");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn streaming_visit_error_aborts_the_walk() {
        let dir = scratch("stream-abort");
        let _ = std::fs::remove_dir_all(&dir);
        let preset = Preset::tiny();
        let catalog = shard_catalog();
        let mut seen = 0usize;
        let err = Dataset::for_each_path_sharded(
            &dir,
            &preset,
            &catalog,
            |id| path_data(&catalog[id], 1e6),
            |id, _| {
                seen += 1;
                if id == 1 {
                    Err(io::Error::other("sink full"))
                } else {
                    Ok(())
                }
            },
        )
        .unwrap_err();
        assert_eq!(err.to_string(), "sink full");
        assert_eq!(seen, 2, "the walk stops at the failing visit");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
