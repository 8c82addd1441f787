//! Robustness of the shard decoder (DESIGN.md §9): damaged shard text
//! must come back as a typed error, never as a panic, so the walk can
//! regenerate the shard instead of dying.
//!
//! The sweep feeds `serde_json::from_str::<PathData>` every truncation
//! of one quick-shaped payload (2 traces × 40 epochs, as a `quick` shard
//! carries) plus single-character substitutions at a fixed stride. At
//! the file level, a shard whose header is intact but whose body holds
//! a byte that is not UTF-8 must be regenerated at visit.

use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};

use tputpred_netsim::Time;
use tputpred_testbed::data::shard_file_name;
use tputpred_testbed::{
    catalog_for, for_each_path, generate_path, CatalogKind, Dataset, FaultConfig, PathData, Preset,
    RegimeConfig, ShardStats,
};

fn mutation_preset() -> Preset {
    Preset {
        name: "decodemutation".into(),
        catalog: CatalogKind::Y2004,
        paths: 3,
        traces_per_path: 2,
        epochs_per_trace: 4,
        pathload_slot: Time::from_secs(6),
        pre_ping: Time::from_secs(5),
        transfer: Time::from_secs(4),
        epoch_gap: Time::from_secs(2),
        w_large: 1 << 20,
        w_small: 20 * 1024,
        with_small_window: true,
        ping_interval: Time::from_millis(100),
        seed: 5150,
        // Faults and regimes on, so the payload holds `null`
        // measurements and fault records next to plain numbers.
        faults: FaultConfig::default(),
        regimes: RegimeConfig::flaky(),
    }
}

/// A path with the `quick` preset's shape: one small simulated path
/// whose records repeat up to 2 traces × 40 epochs. Simulating the
/// full quick durations would take minutes at the test profile's
/// opt-level; the decoder only sees the text.
fn quick_shaped_path() -> PathData {
    let preset = mutation_preset();
    let mut path = generate_path(&preset, &catalog_for(&preset)[0]);
    let quick = Preset::quick();
    assert_eq!(path.traces.len(), quick.traces_per_path);
    for trace in &mut path.traces {
        let simulated = trace.records.clone();
        trace.records = simulated
            .iter()
            .cycle()
            .take(quick.epochs_per_trace)
            .cloned()
            .collect();
    }
    path
}

/// Decodes `text`, turning a panic into a test failure that names the
/// mutation.
fn decode(text: &str, what: &dyn Fn() -> String) -> Result<PathData, serde_json::Error> {
    catch_unwind(AssertUnwindSafe(|| serde_json::from_str::<PathData>(text)))
        .unwrap_or_else(|_| panic!("decoder panicked on {}", what()))
}

#[test]
fn every_truncation_decodes_to_an_error_without_panicking() {
    let text = serde_json::to_string(&quick_shaped_path()).expect("serializes");
    assert!(text.len() > 20_000, "payload is {} bytes", text.len());
    let cuts: Vec<usize> = (0..text.len())
        .filter(|&i| text.is_char_boundary(i))
        .collect();
    for &cut in &cuts {
        let err = decode(&text[..cut], &|| format!("truncation at byte {cut}"))
            .err()
            .unwrap_or_else(|| panic!("truncation at byte {cut} decoded"));
        assert!(
            err.offset().is_some_and(|at| at <= cut),
            "truncation at byte {cut}: {err}"
        );
    }
    let whole: PathData = serde_json::from_str(&text).expect("the whole payload decodes");
    assert_eq!(serde_json::to_string(&whole).expect("serializes"), text);
}

#[test]
fn single_character_substitutions_never_panic() {
    // Prime, so the substituted positions drift across the payload's
    // repeating record layout instead of hitting one field each time.
    const STRIDE: usize = 31;
    const SUBSTITUTES: [&str; 10] = ["\"", "\\", "}", "]", ",", "0", "-", "e", "é", "𝄞"];
    let text = serde_json::to_string(&quick_shaped_path()).expect("serializes");
    let mut mutated = String::with_capacity(text.len() + 4);
    let mut decoded = 0usize;
    for (at, original) in text.char_indices().step_by(STRIDE) {
        for substitute in SUBSTITUTES {
            mutated.clear();
            mutated.push_str(&text[..at]);
            mutated.push_str(substitute);
            mutated.push_str(&text[at + original.len_utf8()..]);
            let outcome = decode(&mutated, &|| {
                format!("`{original}` -> `{substitute}` at byte {at}")
            });
            decoded += outcome.is_ok() as usize;
        }
    }
    // Substituting a digit for a digit is still a valid payload, so
    // some mutations must decode: the sweep reaches the typed layer,
    // not only the text layer.
    assert!(decoded > 0, "no substitution decoded");
}

#[test]
fn shard_body_that_is_not_utf8_is_regenerated_at_visit() {
    let preset = mutation_preset();
    let catalog = catalog_for(&preset);
    let dir = std::env::temp_dir().join(format!("tputpred-decodemut-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    for_each_path(&dir, &preset, |_, _| Ok(())).expect("cold walk");

    // Keep the envelope prefix classify compares; put a byte that can
    // never occur in UTF-8 in the middle of the body, so reading the
    // file as text fails with `InvalidData` before any JSON is parsed.
    let shard = dir.join(shard_file_name(1));
    let mut bytes = fs::read(&shard).expect("read shard 1");
    let middle = bytes.len() / 2;
    bytes[middle] = 0xFF;
    fs::write(&shard, &bytes).expect("damage shard 1");

    let mut visited: Vec<(usize, PathData)> = Vec::new();
    let stats = Dataset::for_each_path_sharded(
        &dir,
        &preset,
        &catalog,
        |id| generate_path(&preset, &catalog[id]),
        |id, path| {
            visited.push((id, path.clone()));
            Ok(())
        },
    )
    .expect("a shard that is not UTF-8 must not stop the walk");

    assert_eq!(
        stats,
        ShardStats {
            hits: preset.paths - 1,
            missing: 0,
            stale: 1
        }
    );
    assert_eq!(
        visited.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
        (0..preset.paths).collect::<Vec<_>>()
    );
    for (id, path) in &visited {
        assert_eq!(
            serde_json::to_string(path).expect("serializes"),
            serde_json::to_string(&generate_path(&preset, &catalog[*id])).expect("serializes"),
            "path {id} diverged from generate_path()"
        );
    }
    assert!(
        fs::read_to_string(&shard).is_ok(),
        "the regenerated shard was saved whole"
    );

    fs::remove_dir_all(&dir).expect("cleanup");
}
