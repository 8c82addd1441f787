//! Procedural path catalogs: seeded class-mix sampling at any scale.
//!
//! The paper's conclusions rest on 35 hand-picked RON paths (§4.1). To
//! ask whether FB-vs-HB predictability is a property of *path classes*
//! rather than of those particular paths, [`synth_catalog`] samples an
//! arbitrarily large catalog — a pure function of `(seed, size)`, at a
//! fixed class mix ([`class_counts`]) — across five classes (DESIGN.md
//! §15):
//!
//! * **`dsl`** — sub-2 Mbps DSL bottlenecks, calibrated to the
//!   [`crate::path::catalog_2004`] DSL block.
//! * **`us`** — ≥ 10 Mbps US university paths (the 2004 majority).
//! * **`eu-us`** — transatlantic paths: same capacity tiers, 90–140 ms
//!   RTT.
//! * **`cell`** — cellular-like paths after the empirical conditional
//!   method's LTE/HSPA+ traces (ECM, \[arXiv:2111.14080\]): a few Mbps,
//!   long and variable RTT, deep bufferbloat-style buffers, and
//!   frequent cross-load level shifts standing in for channel-rate
//!   variation.
//! * **`wless`** — lossy wireless links (the regime the
//!   `network_listener` probe/scheduler stack targets): shallow
//!   buffers, heavily bursty heavy-tailed cross traffic, so the target
//!   flow sees genuine non-congestion-style loss epochs.
//!
//! Class names follow the `class-<digits>` shape that
//! `bench::path_class` strips, so per-class league tables group synth
//! paths for free. Cross-traffic draws reuse
//! `crate::path::draw_cross`'s 2004-calibrated congested/quiet split,
//! with per-class overrides only where a class is *defined* by
//! deviating from it (shift rate, burstiness, Pareto share).

use crate::path::{draw_cross, PathConfig};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use tputpred_netsim::Time;

/// Salt folded into the catalog seed so a synth catalog never shares an
/// RNG stream with `catalog_2004(seed)` / `catalog_2006(seed)`.
const SYNTH_SALT: u64 = 0x5359_4E54_4800_0001;

/// One synthesized path class: the documented sampling ranges the
/// property tests check every generated path against.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassSpec {
    /// Path-name prefix; names are `<prefix>-<index>`, matching the
    /// `class-<digits>` shape `path_class` strips for per-class tables.
    pub prefix: &'static str,
    /// Discrete capacity tiers (empty → draw uniformly from
    /// `capacity_range_bps` instead).
    pub capacity_steps_bps: &'static [f64],
    /// Bottleneck capacity bounds; discrete tiers also lie inside.
    pub capacity_range_bps: (f64, f64),
    /// Round-trip propagation delay bounds.
    pub rtt_range_s: (f64, f64),
    /// Probability a path of this class is drawn congested (the
    /// paper-calibrated high-utilization regime of `draw_cross`).
    pub congested_prob: f64,
    /// Bottleneck buffer as a multiple of the path BDP: quiet paths.
    pub buffer_bdp_range: (f64, f64),
    /// Bottleneck buffer as a multiple of the path BDP: congested paths.
    pub buffer_bdp_congested_range: (f64, f64),
    /// Buffer floor in 1500-byte packets.
    pub min_buffer_packets: u32,
    /// Cross-load level shifts per trace (channel-rate variation on
    /// `cell`, the 2004 default elsewhere).
    pub shifts_range: (f64, f64),
    /// Outlier load bursts per trace.
    pub bursts_range: (f64, f64),
    /// Override of `draw_cross`'s Pareto share (`None` keeps the
    /// congestion-calibrated draw); `wless` pins it high so loss is
    /// burst-driven rather than queue-occupancy-driven.
    pub pareto_fraction_range: Option<(f64, f64)>,
}

/// The five class specs, in catalog block order. Ranges for the first
/// three mirror `catalog_2004`'s hand-written blocks (DESIGN.md §15
/// records the calibration).
pub fn class_specs() -> &'static [ClassSpec; 5] {
    const US_TIERS: &[f64] = &[10e6, 20e6, 45e6];
    static SPECS: [ClassSpec; 5] = [
        ClassSpec {
            prefix: "dsl",
            capacity_steps_bps: &[],
            capacity_range_bps: (0.8e6, 1.6e6),
            rtt_range_s: (0.030, 0.080),
            congested_prob: 0.4,
            buffer_bdp_range: (0.75, 3.0),
            buffer_bdp_congested_range: (2.0, 4.0),
            min_buffer_packets: 12,
            shifts_range: (0.0, 3.0),
            bursts_range: (0.0, 4.0),
            pareto_fraction_range: None,
        },
        ClassSpec {
            prefix: "us",
            capacity_steps_bps: US_TIERS,
            capacity_range_bps: (10e6, 45e6),
            rtt_range_s: (0.010, 0.080),
            congested_prob: 0.4,
            buffer_bdp_range: (0.75, 3.0),
            buffer_bdp_congested_range: (2.0, 4.0),
            min_buffer_packets: 12,
            shifts_range: (0.0, 3.0),
            bursts_range: (0.0, 4.0),
            pareto_fraction_range: None,
        },
        ClassSpec {
            prefix: "eu-us",
            capacity_steps_bps: US_TIERS,
            capacity_range_bps: (10e6, 45e6),
            rtt_range_s: (0.090, 0.140),
            congested_prob: 0.4,
            buffer_bdp_range: (0.75, 3.0),
            buffer_bdp_congested_range: (2.0, 4.0),
            min_buffer_packets: 12,
            shifts_range: (0.0, 3.0),
            bursts_range: (0.0, 4.0),
            pareto_fraction_range: None,
        },
        ClassSpec {
            // ECM-style cellular: modest rate, long RTT, bufferbloat
            // (multi-BDP queues), and a channel whose effective rate
            // wanders — modeled as frequent cross-load level shifts.
            prefix: "cell",
            capacity_steps_bps: &[],
            capacity_range_bps: (2e6, 8e6),
            rtt_range_s: (0.060, 0.150),
            congested_prob: 0.5,
            buffer_bdp_range: (3.0, 6.0),
            buffer_bdp_congested_range: (3.0, 6.0),
            min_buffer_packets: 16,
            shifts_range: (4.0, 12.0),
            bursts_range: (2.0, 6.0),
            pareto_fraction_range: None,
        },
        ClassSpec {
            // Lossy wireless: shallow buffers + heavily bursty
            // heavy-tailed cross load, so epochs see loss spikes that
            // are not sustained congestion.
            prefix: "wless",
            capacity_steps_bps: &[],
            capacity_range_bps: (5e6, 25e6),
            rtt_range_s: (0.020, 0.060),
            congested_prob: 0.45,
            buffer_bdp_range: (0.3, 1.0),
            buffer_bdp_congested_range: (0.3, 1.0),
            min_buffer_packets: 8,
            shifts_range: (0.0, 3.0),
            bursts_range: (4.0, 10.0),
            pareto_fraction_range: Some((0.5, 0.9)),
        },
    ];
    &SPECS
}

/// Fraction of the catalog drawn from each class, in [`class_specs`]
/// order (dsl/us/eu-us/cell/wless): the 2004 composition (dsl/us/eu-us)
/// extended with the two regimes the paper never measured.
const CLASS_SHARES: [f64; 5] = [0.15, 0.35, 0.15, 0.20, 0.15];

/// Apportions `n` paths across the five classes (in [`class_specs`]
/// order, at 15/35/15/20/15 %) by largest remainder: totals always sum
/// to `n`, ties break toward earlier classes, and every class rounds
/// from its exact quota, never truncates to zero wholesale.
pub fn class_counts(n: usize) -> [usize; 5] {
    // Normalize by the shares' sum, which is 1 only up to rounding: the
    // quotas must stay bit-identical for a seed's cached synth shards to
    // keep their paths in the same classes.
    let total: f64 = CLASS_SHARES.iter().sum();
    let exact: Vec<f64> = CLASS_SHARES.iter().map(|s| s / total * n as f64).collect();
    let mut counts = [0usize; 5];
    let mut assigned = 0usize;
    for (count, quota) in counts.iter_mut().zip(&exact) {
        *count = quota.floor() as usize;
        assigned += *count;
    }
    // Largest fractional remainder first; class order breaks ties
    // deterministically.
    let mut order: Vec<usize> = (0..counts.len()).collect();
    order.sort_by(|&a, &b| {
        let (ra, rb) = (exact[a] - exact[a].floor(), exact[b] - exact[b].floor());
        rb.partial_cmp(&ra)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    for k in 0..n.saturating_sub(assigned) {
        counts[order[k % counts.len()]] += 1;
    }
    counts
}

/// Draws one path of `spec`'s class. `idx_in_class` numbers the path
/// within its class block (the name suffix); `id` is its catalog slot.
fn synth_path(rng: &mut StdRng, id: usize, idx_in_class: usize, spec: &ClassSpec) -> PathConfig {
    let congested = rng.random_bool(spec.congested_prob);
    let capacity_bps = if spec.capacity_steps_bps.is_empty() {
        rng.random_range(spec.capacity_range_bps.0..spec.capacity_range_bps.1)
    } else {
        spec.capacity_steps_bps[rng.random_range(0..spec.capacity_steps_bps.len())]
    };
    let rtt_s = rng.random_range(spec.rtt_range_s.0..spec.rtt_range_s.1);
    let bdp_pkts = (capacity_bps * rtt_s / 8.0 / 1500.0).max(1.0);
    let (lo, hi) = if congested {
        spec.buffer_bdp_congested_range
    } else {
        spec.buffer_bdp_range
    };
    let buffer_packets =
        ((bdp_pkts * rng.random_range(lo..hi)) as u32).max(spec.min_buffer_packets);
    let mut cross = draw_cross(rng, congested);
    cross.shifts_per_trace = rng.random_range(spec.shifts_range.0..spec.shifts_range.1);
    cross.bursts_per_trace = rng.random_range(spec.bursts_range.0..spec.bursts_range.1);
    if let Some((p_lo, p_hi)) = spec.pareto_fraction_range {
        cross.pareto_fraction = rng.random_range(p_lo..p_hi);
    }
    PathConfig {
        id,
        name: format!("{}-{:02}", spec.prefix, idx_in_class),
        capacity_bps,
        one_way: Time::from_secs_f64(rtt_s / 2.0),
        buffer_packets,
        cross,
        seed: rng.random::<u64>(),
    }
}

/// A procedural catalog of `n` paths — a pure function of `(n, seed)`;
/// same inputs, bitwise-identical catalog. Paths are laid out in class
/// blocks (`dsl`, `us`, `eu-us`, `cell`, `wless`) sized by
/// [`class_counts`], with catalog ids `0..n`; one RNG stream draws the
/// whole catalog, so a path's parameters depend on its position, never
/// on wall clock or host.
pub fn synth_catalog(n: usize, seed: u64) -> Vec<PathConfig> {
    assert!(n >= 1, "catalog needs at least one path");
    let mut rng = StdRng::seed_from_u64(seed ^ SYNTH_SALT);
    let counts = class_counts(n);
    let mut paths = Vec::with_capacity(n);
    for (spec, &count) in class_specs().iter().zip(&counts) {
        for idx_in_class in 0..count {
            let id = paths.len();
            paths.push(synth_path(&mut rng, id, idx_in_class, spec));
        }
    }
    assert_eq!(paths.len(), n, "class counts must sum to the catalog size");
    paths
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_mix_counts_sum_and_follow_the_shares() {
        let counts = class_counts(1000);
        assert_eq!(counts.iter().sum::<usize>(), 1000);
        assert_eq!(counts, [150, 350, 150, 200, 150]);
        // Small n still sums exactly and favors the big classes.
        for n in 1..40 {
            let c = class_counts(n);
            assert_eq!(c.iter().sum::<usize>(), n, "n={n}");
        }
    }

    #[test]
    fn catalog_ids_are_contiguous_and_names_follow_class_blocks() {
        let cat = synth_catalog(100, 7);
        assert_eq!(cat.len(), 100);
        for (i, p) in cat.iter().enumerate() {
            assert_eq!(p.id, i);
        }
        let counts = class_counts(100);
        let mut at = 0usize;
        for (spec, &count) in class_specs().iter().zip(&counts) {
            for k in 0..count {
                assert_eq!(cat[at].name, format!("{}-{:02}", spec.prefix, k));
                at += 1;
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = synth_catalog(20, 1);
        let b = synth_catalog(20, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn synth_stream_is_independent_of_handwritten_catalogs() {
        // The salt keeps synth_catalog(seed) off catalog_2004(seed)'s
        // RNG stream: same seed, unrelated paths.
        let synth = synth_catalog(10, 2004);
        let hand = crate::path::catalog_2004(10, 2004);
        assert!(synth
            .iter()
            .zip(&hand)
            .all(|(s, h)| (s.capacity_bps - h.capacity_bps).abs() > 1e-9 || s.seed != h.seed));
    }
}
