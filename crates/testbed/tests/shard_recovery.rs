//! Visit-time recovery of the shard cache (DESIGN.md §9). Classify
//! trusts a shard on its envelope prefix; the visit's full parse is the
//! last word. A shard that passes the first and fails the second — here
//! truncated *during* the walk, after classify already trusted it — is
//! regenerated on the spot: the walk finishes, the visitor sees exactly
//! what a from-scratch generation produces, and the counts say what
//! happened.

use std::fs;
use std::sync::Mutex;

use tputpred_netsim::Time;
use tputpred_testbed::data::shard_file_name;
use tputpred_testbed::{
    catalog_for, for_each_path, generate_path, CatalogKind, Dataset, FaultConfig, PathData, Preset,
    RegimeConfig, ShardStats,
};

fn recovery_preset() -> Preset {
    Preset {
        name: "shardrecovery".into(),
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
        seed: 8765,
        faults: FaultConfig::default(),
        regimes: RegimeConfig::flaky(),
    }
}

#[test]
fn shard_damaged_after_classify_is_regenerated_at_visit() {
    let preset = recovery_preset();
    let catalog = catalog_for(&preset);
    let dir = std::env::temp_dir().join(format!("tputpred-shardrecovery-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    for_each_path(&dir, &preset, |_, _| Ok(())).expect("cold walk");

    // Shard 0 is missing, so classify sends it to regeneration; shard 1
    // is whole, so classify trusts it. Regenerating 0 then cuts shard
    // 1's body off behind its intact header.
    fs::remove_file(dir.join(shard_file_name(0))).expect("delete shard 0");
    let shard_one = dir.join(shard_file_name(1));
    let regenerated = Mutex::new(Vec::new());
    let mut visited: Vec<(usize, PathData)> = Vec::new();
    let stats = Dataset::for_each_path_sharded(
        &dir,
        &preset,
        &catalog,
        |id| {
            if id == 0 {
                let bytes = fs::read(&shard_one).expect("read shard 1");
                fs::write(&shard_one, &bytes[..bytes.len() / 2]).expect("truncate shard 1");
            }
            regenerated.lock().expect("lock").push(id);
            generate_path(&preset, &catalog[id])
        },
        |id, path| {
            visited.push((id, path.clone()));
            Ok(())
        },
    )
    .expect("damage after classify must not stop the walk");

    assert_eq!(
        stats,
        ShardStats {
            hits: preset.paths - 2,
            missing: 1,
            stale: 1
        },
        "the damaged shard moves from hits to stale"
    );
    let mut regenerated = regenerated.into_inner().expect("lock");
    regenerated.sort_unstable();
    assert_eq!(regenerated, vec![0, 1]);
    assert_eq!(
        visited.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
        (0..preset.paths).collect::<Vec<_>>(),
        "every path visited once, in catalog order"
    );
    for (id, path) in &visited {
        assert_eq!(
            serde_json::to_string(path).expect("serializes"),
            serde_json::to_string(&generate_path(&preset, &catalog[*id])).expect("serializes"),
            "path {id} diverged from generate_path()"
        );
    }

    // The recovered shard was saved whole: the next walk trusts it all.
    let warm = for_each_path(&dir, &preset, |_, _| Ok(())).expect("warm walk");
    assert_eq!(
        warm,
        ShardStats {
            hits: preset.paths,
            missing: 0,
            stale: 0
        }
    );

    fs::remove_dir_all(&dir).expect("cleanup");
}
