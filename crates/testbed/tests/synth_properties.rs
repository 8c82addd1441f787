//! Property tests for the procedural path catalog (DESIGN.md §15):
//! `synth_catalog(n, seed)` must be a bitwise-deterministic pure
//! function of its inputs, every sampled path must sit inside its
//! class's documented calibration ranges ([`class_specs`]), and every
//! synth path must map to a distinct shard fingerprint so the per-path
//! cache can never alias two paths onto one `path-<id>.json`.

use proptest::prelude::*;
use std::collections::BTreeSet;
use tputpred_testbed::data::shard_fingerprint;
use tputpred_testbed::{class_counts, class_specs, synth_catalog, PathConfig, Preset};

/// Walks the class-block layout, yielding each path with its spec.
fn with_specs(catalog: &[PathConfig]) -> Vec<(&PathConfig, usize)> {
    let counts = class_counts(catalog.len());
    let mut out = Vec::with_capacity(catalog.len());
    let mut at = 0usize;
    for (class, &count) in counts.iter().enumerate() {
        for _ in 0..count {
            out.push((&catalog[at], class));
            at += 1;
        }
    }
    assert_eq!(at, catalog.len(), "class blocks must tile the catalog");
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Same `(n, seed)` → the same catalog, down to the serialized
    /// bytes (the form the shard cache persists).
    #[test]
    fn synth_catalog_is_bitwise_deterministic(
        n in 1usize..400,
        seed in 0u64..u64::MAX,
    ) {
        let a = synth_catalog(n, seed);
        let b = synth_catalog(n, seed);
        prop_assert_eq!(&a, &b);
        let ja = serde_json::to_string(&a).map_err(|e| TestCaseError(format!("serialize: {e}")))?;
        let jb = serde_json::to_string(&b).map_err(|e| TestCaseError(format!("serialize: {e}")))?;
        prop_assert_eq!(ja, jb);
    }

    /// Every sampled parameter lands inside the documented range of the
    /// path's class spec — the ranges DESIGN.md §15 records as the
    /// calibration contract.
    #[test]
    fn every_path_sits_inside_its_class_ranges(
        n in 1usize..400,
        seed in 0u64..u64::MAX,
    ) {
        let catalog = synth_catalog(n, seed);
        let specs = class_specs();
        for (path, class) in with_specs(&catalog) {
            let spec = &specs[class];
            prop_assert!(
                path.name.starts_with(spec.prefix),
                "{} not of class {}", path.name, spec.prefix
            );
            if spec.capacity_steps_bps.is_empty() {
                let (lo, hi) = spec.capacity_range_bps;
                prop_assert!(
                    path.capacity_bps >= lo && path.capacity_bps < hi,
                    "{}: capacity {} outside [{lo}, {hi})", path.name, path.capacity_bps
                );
            } else {
                prop_assert!(
                    spec.capacity_steps_bps
                        .iter()
                        .any(|t| (t - path.capacity_bps).abs() < 1e-6),
                    "{}: capacity {} not a class tier", path.name, path.capacity_bps
                );
            }
            let rtt = path.base_rtt();
            let (rlo, rhi) = spec.rtt_range_s;
            // from_secs_f64 rounds to whole nanoseconds.
            prop_assert!(
                rtt >= rlo - 1e-9 && rtt < rhi + 1e-9,
                "{}: rtt {rtt} outside [{rlo}, {rhi})", path.name
            );
            prop_assert!(
                path.buffer_packets >= spec.min_buffer_packets,
                "{}: buffer {} below class floor {}",
                path.name, path.buffer_packets, spec.min_buffer_packets
            );
            let bdp_pkts = (path.capacity_bps * rtt / 8.0 / 1500.0).max(1.0);
            let deepest = spec
                .buffer_bdp_range
                .1
                .max(spec.buffer_bdp_congested_range.1);
            prop_assert!(
                f64::from(path.buffer_packets)
                    <= (bdp_pkts * deepest).max(f64::from(spec.min_buffer_packets)) + 1.0,
                "{}: buffer {} deeper than {deepest} BDP", path.name, path.buffer_packets
            );
            let (slo, shi) = spec.shifts_range;
            prop_assert!(
                path.cross.shifts_per_trace >= slo && path.cross.shifts_per_trace < shi,
                "{}: shifts {} outside [{slo}, {shi})", path.name, path.cross.shifts_per_trace
            );
            let (blo, bhi) = spec.bursts_range;
            prop_assert!(
                path.cross.bursts_per_trace >= blo && path.cross.bursts_per_trace < bhi,
                "{}: bursts {} outside [{blo}, {bhi})", path.name, path.cross.bursts_per_trace
            );
            if let Some((plo, phi)) = spec.pareto_fraction_range {
                prop_assert!(
                    path.cross.pareto_fraction >= plo && path.cross.pareto_fraction < phi,
                    "{}: pareto share {} outside [{plo}, {phi})",
                    path.name, path.cross.pareto_fraction
                );
            }
        }
    }

    /// No two synth paths fingerprint alike under one preset: the shard
    /// cache keys `path-<id>.json` by catalog slot, and staleness by
    /// [`shard_fingerprint`], so a collision would let one path's shard
    /// satisfy another's cache probe.
    #[test]
    fn shard_fingerprints_are_pairwise_distinct(
        n in 2usize..300,
        seed in 0u64..u64::MAX,
    ) {
        let preset = Preset {
            paths: n,
            seed,
            ..Preset::by_name("synth1k").unwrap_or_else(Preset::quick)
        };
        let catalog = synth_catalog(n, seed);
        let fingerprints: BTreeSet<String> = catalog
            .iter()
            .map(|config| shard_fingerprint(&preset, config))
            .collect();
        prop_assert_eq!(fingerprints.len(), catalog.len(), "fingerprint collision");
    }
}
