//! Computes the behavior hash — a digest of the source trees that
//! determine dataset contents (netsim, tcp, probes, testbed) — and
//! exposes it to the crate as the `TPUTPRED_BEHAVIOR_HASH` env var.
//! The shard cache (`Dataset::for_each_path_sharded`) compares it
//! against the hash embedded in every `data/<preset>/path-<id>.json`
//! shard and regenerates stale shards automatically.

// Shares the hashing code with the crate itself (src/behavior_hash.rs
// is std-only for exactly this reason).
mod behavior_hash {
    include!("src/behavior_hash.rs");
}
use behavior_hash::hash_source_dirs;
use std::path::Path;

fn main() {
    let manifest = std::env::var("CARGO_MANIFEST_DIR").unwrap();
    let manifest = Path::new(&manifest);
    let dirs = [
        manifest.join("../netsim/src"),
        manifest.join("../tcp/src"),
        manifest.join("../probes/src"),
        manifest.join("src"),
    ];
    for dir in &dirs {
        // A directory path re-runs the build script when anything under
        // it changes, keeping the baked-in hash current.
        println!("cargo:rerun-if-changed={}", dir.display());
    }
    let refs: Vec<&Path> = dirs.iter().map(|d| d.as_path()).collect();
    println!(
        "cargo:rustc-env=TPUTPRED_BEHAVIOR_HASH={}",
        hash_source_dirs(&refs)
    );
}
