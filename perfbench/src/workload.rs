//! The benchmark's workloads: which preset each one runs, at which size
//! and worker count, and how `--seed` turns into the program's inputs.

use tputpred_testbed::{catalog_for, PathConfig, Preset};

/// One named workload of `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cold generation of a mix-preserving `quick` catalog, one worker.
    GenQuick,
    /// Cold generation of a mix-preserving `synth1k` catalog, two workers.
    GenSynth1k,
    /// Warm analysis (batch load + streaming league walk) of the `quick` cache.
    AnalyzeQuick,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::GenQuick,
        Workload::GenSynth1k,
        Workload::AnalyzeQuick,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::GenQuick => "gen_quick",
            Workload::GenSynth1k => "gen_synth1k",
            Workload::AnalyzeQuick => "analyze_quick",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The stock preset the workload is cut from; its `seed` is the
    /// workload's default `--seed`.
    pub fn base_preset(self) -> Preset {
        match self {
            Workload::GenQuick | Workload::AnalyzeQuick => Preset::quick(),
            Workload::GenSynth1k => Preset::synth1k(),
        }
    }

    /// Catalog size of one measured unit. `catalog_2004` always holds
    /// one kr-us path and rounds the other classes to their share, so
    /// `catalog_2004(10)` (2 dsl, 1 eu-us, 1 kr-us, 6 us: 20/10/10/60 %)
    /// is the smallest catalog close to the full `quick` mix (7/5/1/22 of
    /// 35: 20/14/3/63 %). 150 synth paths keep the five-class mix (23 dsl,
    /// 53 us, 22 eu-us, 30 cell, 22 wless). The analysis runs over the
    /// full `quick` catalog.
    pub fn default_paths(self) -> usize {
        match self {
            Workload::GenQuick => 10,
            Workload::GenSynth1k => 150,
            Workload::AnalyzeQuick => Preset::quick().paths,
        }
    }

    /// A warm-up unit takes every this many catalog paths: on `gen_quick`
    /// the first path only (a dsl path, a fraction of a second), on
    /// `gen_synth1k` 19 paths of every class. The analysis warm-up is a
    /// whole unit.
    pub fn warmup_stride(self) -> usize {
        match self {
            Workload::GenQuick => 10,
            Workload::GenSynth1k => 8,
            Workload::AnalyzeQuick => 1,
        }
    }

    /// Generation workers of a measured unit (the analysis regenerates
    /// nothing, so its worker count only matters if the cache is damaged).
    pub fn workers(self) -> usize {
        match self {
            Workload::GenQuick | Workload::AnalyzeQuick => 1,
            Workload::GenSynth1k => 2,
        }
    }

    /// `β` of `t = t₀ · m^β` (see [`crate::host`]): how strongly the
    /// workload's time follows the samplers' contention `m`. Fitted by
    /// least squares over units timed together with their samplers, in two
    /// stretches of host load (`README.md`): the analysis, which spends
    /// most of its time validating and parsing shard text, follows it more
    /// steeply than the simulation does.
    pub fn contention_exponent(self) -> f64 {
        match self {
            Workload::GenQuick | Workload::GenSynth1k => 1.1,
            Workload::AnalyzeQuick => 1.3,
        }
    }

    /// Whether the workload simulates (a cold cache) or only reads.
    pub fn generates(self) -> bool {
        self != Workload::AnalyzeQuick
    }
}

/// The inputs of one run: the preset and catalog the program receives.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub preset: Preset,
    pub seed: u64,
}

impl Inputs {
    /// The preset for `paths` catalog paths and workload seed `seed`.
    ///
    /// Generation workloads keep the stock preset (and so the stock
    /// catalog structure: capacities, RTTs, buffers, cross-traffic
    /// profiles) and move `seed` into the per-path traffic seeds (see
    /// [`Inputs::catalog`]), so every seed simulates a comparable amount
    /// of traffic. The analysis workload uses `seed` as the `quick`
    /// catalog seed, exactly as a figure binary would; its cost follows
    /// the shard bytes and epoch count, which the seed barely moves.
    pub fn new(workload: Workload, seed: u64, paths: usize) -> Self {
        let mut preset = workload.base_preset();
        preset.paths = paths;
        if !workload.generates() {
            preset.seed = seed;
        }
        Inputs { preset, seed }
    }

    /// The catalog a unit generates or reads. Each path's traffic seed
    /// is shifted by the workload seed's offset from the preset seed; at
    /// the preset's own seed the shift is zero and the catalog is exactly
    /// `catalog_for(preset)`.
    pub fn catalog(&self) -> Vec<PathConfig> {
        let shift = self
            .seed
            .wrapping_sub(self.preset.seed)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut catalog = catalog_for(&self.preset);
        for path in &mut catalog {
            path.seed = path.seed.wrapping_add(shift);
        }
        catalog
    }
}

/// Pinned outputs for known (workload, seed, paths) inputs: the output
/// digest and, for generation, the exact simulator event count.
pub struct Pin {
    pub workload: Workload,
    pub seed: u64,
    pub paths: usize,
    pub digest: u64,
    pub events: Option<u64>,
}

/// Events of one full cold `quick` generation, as recorded in
/// `results/BENCH_gen_quick.json` (a self-test keeps the two equal).
pub const FULL_QUICK_EVENTS: u64 = 739_634_358;

/// Every pinned output. The `gen_quick` 35-path entry and the
/// `analyze_quick` entry are the full `quick` catalog: the first matches
/// the payload of the shards `runner::load_or_generate_sharded` writes
/// for `quick` and the event count of `results/BENCH_gen_quick.json`; the
/// second is the digest of the committed `results/league_quick.csv`.
pub const PINS: &[Pin] = &[
    Pin {
        workload: Workload::GenQuick,
        seed: 2004,
        paths: 10,
        digest: 0x797d_0428_b98d_f2ef,
        events: Some(161_122_678),
    },
    Pin {
        workload: Workload::GenQuick,
        seed: 2004,
        paths: 35,
        digest: 0x026b_3d62_e48c_2322,
        events: Some(FULL_QUICK_EVENTS),
    },
    Pin {
        workload: Workload::GenSynth1k,
        seed: 2080,
        paths: 150,
        digest: 0xf856_1b1b_5690_5b6e,
        events: Some(97_617_056),
    },
    Pin {
        workload: Workload::AnalyzeQuick,
        seed: 2004,
        paths: 35,
        digest: 0x7ea4_ad71_60eb_c9eb,
        events: None,
    },
];

/// The pin for these inputs, if any.
pub fn pin_for(workload: Workload, seed: u64, paths: usize) -> Option<&'static Pin> {
    PINS.iter()
        .find(|p| p.workload == workload && p.seed == seed && p.paths == paths)
}
