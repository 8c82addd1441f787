//! The sharded cache's correctness guard (DESIGN.md §9): a dataset
//! assembled from per-path shards must be **bit-identical** to a
//! from-scratch `generate()` — whether the shards were written cold in
//! one pass, reloaded warm, or partially regenerated after targeted
//! damage. Compared both as structured values and as serialized JSON,
//! so a float that survives `PartialEq` but differs in bits would still
//! be caught.
//!
//! Faults are enabled so the degraded/missing epoch paths shard and
//! merge correctly too.

use std::fs;
use std::path::PathBuf;

use tputpred_netsim::Time;
use tputpred_testbed::data::{shard_file_name, SHARD_MANIFEST};
use tputpred_testbed::{
    catalog_for, for_each_path, generate, load_or_generate_sharded, CatalogKind, FaultConfig,
    Preset, RegimeConfig, ShardStats,
};

fn pin_preset() -> Preset {
    Preset {
        name: "shardpin".into(),
        catalog: CatalogKind::Y2004,
        paths: 4,
        traces_per_path: 1,
        epochs_per_trace: 2,
        pathload_slot: Time::from_secs(6),
        pre_ping: Time::from_secs(5),
        transfer: Time::from_secs(4),
        epoch_gap: Time::from_secs(2),
        w_large: 1 << 20,
        w_small: 20 * 1024,
        with_small_window: true,
        ping_interval: Time::from_millis(100),
        seed: 4321,
        // Faults on: Option-valued measurements must survive the shard
        // round trip bit-for-bit as well.
        faults: FaultConfig::default(),
        // Regimes on: regime-modulated epochs must survive the shard
        // round trip bit-for-bit too.
        regimes: RegimeConfig::flaky(),
    }
}

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("tputpred-shardpin-{}-{}", tag, std::process::id()))
}

#[test]
fn sharded_load_is_bit_identical_to_from_scratch_generation() {
    let preset = pin_preset();
    let reference = generate(&preset);
    let reference_json = serde_json::to_string(&reference).expect("dataset serializes");
    let dir = scratch("main");
    let _ = fs::remove_dir_all(&dir);

    // Cold: every shard generated, then merged in catalog order.
    let (cold, cold_stats) = load_or_generate_sharded(&dir, &preset).expect("cold load");
    assert_eq!(
        cold_stats,
        ShardStats {
            hits: 0,
            missing: preset.paths,
            stale: 0
        }
    );
    assert_eq!(cold, reference, "cold sharded generation diverged");
    assert_eq!(
        serde_json::to_string(&cold).expect("serializes"),
        reference_json,
        "cold sharded generation changed serialized bytes"
    );
    assert!(dir.join(SHARD_MANIFEST).is_file(), "manifest written");

    // Warm: pure reload from shards.
    let (warm, warm_stats) = load_or_generate_sharded(&dir, &preset).expect("warm load");
    assert_eq!(
        warm_stats,
        ShardStats {
            hits: preset.paths,
            missing: 0,
            stale: 0
        }
    );
    assert_eq!(
        serde_json::to_string(&warm).expect("serializes"),
        reference_json,
        "warm sharded reload changed serialized bytes"
    );

    // Targeted damage: corrupt one shard, delete another — only those
    // two regenerate, and the merge is still bit-identical.
    fs::write(dir.join(shard_file_name(1)), "{\"truncated").expect("corrupt shard");
    fs::remove_file(dir.join(shard_file_name(3))).expect("delete shard");
    let (patched, patched_stats) = load_or_generate_sharded(&dir, &preset).expect("patched load");
    assert_eq!(
        patched_stats,
        ShardStats {
            hits: preset.paths - 2,
            missing: 1,
            stale: 1
        }
    );
    assert_eq!(
        serde_json::to_string(&patched).expect("serializes"),
        reference_json,
        "partially regenerated dataset changed serialized bytes"
    );

    fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn multi_worker_generation_is_bit_identical_to_single_worker() {
    // The synth-preset acceptance bar (DESIGN.md §15): worker count
    // changes only the wall clock, never the bytes. Generate the same
    // preset cold through the streaming API under 1 worker and under 4,
    // and byte-compare every shard file — then check both against the
    // batch loader too.
    let preset = pin_preset();
    let dir_one = scratch("w1");
    let dir_four = scratch("w4");
    let _ = fs::remove_dir_all(&dir_one);
    let _ = fs::remove_dir_all(&dir_four);

    let mut visited_one = Vec::new();
    rayon::with_num_threads(1, || {
        for_each_path(&dir_one, &preset, |id, path| {
            visited_one.push((id, path.config.name.clone()));
            Ok(())
        })
        .expect("single-worker streaming generation")
    });
    rayon::with_num_threads(4, || {
        for_each_path(&dir_four, &preset, |_, _| Ok(())).expect("four-worker streaming generation")
    });

    // The visitor runs in catalog order regardless of the fan-out.
    let catalog = catalog_for(&preset);
    assert_eq!(
        visited_one,
        catalog
            .iter()
            .enumerate()
            .map(|(id, c)| (id, c.name.clone()))
            .collect::<Vec<_>>(),
        "streaming visit order diverged from the catalog"
    );

    for id in 0..preset.paths {
        let one = fs::read(dir_one.join(shard_file_name(id))).expect("worker-1 shard");
        let four = fs::read(dir_four.join(shard_file_name(id))).expect("worker-4 shard");
        assert_eq!(one, four, "shard {id} differs across worker counts");
    }

    // And both agree with the batch API on a warm read.
    let reference = generate(&preset);
    let (warm, stats) = load_or_generate_sharded(&dir_four, &preset).expect("warm load");
    assert_eq!(
        stats,
        ShardStats {
            hits: preset.paths,
            missing: 0,
            stale: 0
        },
        "multi-worker shards were not trusted warm"
    );
    assert_eq!(
        warm, reference,
        "multi-worker shards diverged from generate()"
    );

    fs::remove_dir_all(&dir_one).expect("cleanup");
    fs::remove_dir_all(&dir_four).expect("cleanup");
}
