// Behavior hashing: a digest of the source trees whose code decides
// what a generated dataset contains. Module-level docs live on the
// `pub mod behavior_hash;` declaration in lib.rs: this file is also
// `include!`d by build.rs (which computes the hash of the real crates
// at compile time), where inner doc comments are not accepted — and
// for the same reason it must stay std-only and self-contained.

use std::fs;
use std::path::Path;

/// The FNV-1a 64-bit offset basis: the state [`fnv1a`] starts from.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a, 64-bit. Stable, dependency-free, and plenty for change
/// detection (this guards against staleness, not adversaries). The
/// shard fingerprints use it too.
pub(crate) fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    let mut h = hash;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Hashes every file under `dirs` (recursively) as a sorted sequence of
/// `(relative path, contents)` pairs, returning a hex digest. Sorting
/// makes the digest independent of directory-walk order; including the
/// relative path makes renames count as changes.
pub fn hash_source_dirs(dirs: &[&Path]) -> String {
    let mut files: Vec<(String, Vec<u8>)> = Vec::new();
    for dir in dirs {
        let mut paths = Vec::new();
        collect_files(dir, dir, &mut paths);
        for rel in paths {
            let bytes = fs::read(dir.join(&rel)).unwrap_or_default();
            files.push((rel, bytes));
        }
    }
    files.sort();
    let mut h = FNV_OFFSET;
    for (rel, bytes) in &files {
        h = fnv1a(h, rel.as_bytes());
        h = fnv1a(h, &[0]);
        h = fnv1a(h, bytes);
        h = fnv1a(h, &[0]);
    }
    format!("{h:016x}")
}

fn collect_files(root: &Path, dir: &Path, out: &mut Vec<String>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.filter_map(Result::ok) {
        let path = entry.path();
        if path.is_dir() {
            collect_files(root, &path, out);
        } else if let Ok(rel) = path.strip_prefix(root) {
            out.push(rel.to_string_lossy().replace('\\', "/"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir()
            .join("tputpred-behavior-hash")
            .join(format!("{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn digest_changes_when_file_contents_change() {
        let dir = scratch("contents");
        fs::write(dir.join("a.rs"), "fn a() {}").unwrap();
        let before = hash_source_dirs(&[&dir]);
        fs::write(dir.join("a.rs"), "fn a() { /* edited */ }").unwrap();
        let after = hash_source_dirs(&[&dir]);
        assert_ne!(before, after);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn digest_changes_when_files_are_added_or_renamed() {
        let dir = scratch("names");
        fs::write(dir.join("a.rs"), "fn a() {}").unwrap();
        let one = hash_source_dirs(&[&dir]);
        fs::write(dir.join("b.rs"), "fn b() {}").unwrap();
        let two = hash_source_dirs(&[&dir]);
        assert_ne!(one, two);
        fs::remove_file(dir.join("b.rs")).unwrap();
        fs::rename(dir.join("a.rs"), dir.join("c.rs")).unwrap();
        let renamed = hash_source_dirs(&[&dir]);
        assert_ne!(one, renamed);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn digest_is_deterministic_and_walk_order_independent() {
        let dir = scratch("det");
        for name in ["z.rs", "a.rs", "m/mid.rs"] {
            let p = dir.join(name);
            fs::create_dir_all(p.parent().unwrap()).unwrap();
            fs::write(&p, name).unwrap();
        }
        assert_eq!(hash_source_dirs(&[&dir]), hash_source_dirs(&[&dir]));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compiled_in_hash_matches_a_fresh_walk_of_the_live_tree() {
        // The build-script hash baked into the binary must agree with
        // hashing the same directories now — otherwise the staleness
        // guard would invalidate caches spuriously (or never).
        let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        let dirs = [
            manifest.join("../netsim/src"),
            manifest.join("../tcp/src"),
            manifest.join("../probes/src"),
            manifest.join("src"),
        ];
        let refs: Vec<&Path> = dirs.iter().map(|d| d.as_path()).collect();
        assert_eq!(crate::data::BEHAVIOR_HASH, hash_source_dirs(&refs));
    }
}
