//! The figure registry and the committed `results/` stay in step: every
//! registry entry has a committed output, every committed `results/*.txt`
//! has an entry that regenerates it, and an entry's artifact written
//! through the library's one write function is byte-identical to the
//! committed file. Also pins where artifacts go and that write errors
//! name their path. No simulation and no dataset cache: the byte check
//! uses `fig15_pathologies`, whose traces are synthetic.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

use tputpred_bench::figures::{output_dir, write_artifact, REGISTRY};
use tputpred_bench::{Args, Artifact};
use tputpred_testbed::Preset;

fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

fn committed_files() -> BTreeSet<String> {
    let dir = results_dir();
    fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("results dir {}: {e}", dir.display()))
        .filter_map(Result::ok)
        .filter(|e| e.path().is_file())
        .filter_map(|e| e.file_name().into_string().ok())
        .collect()
}

#[test]
fn registry_names_are_unique() {
    let mut seen = BTreeSet::new();
    for (name, _) in REGISTRY {
        assert!(
            seen.insert(*name),
            "registry entry '{name}' is listed twice"
        );
    }
}

#[test]
fn every_entry_has_a_committed_file_and_every_committed_text_has_an_entry() {
    let committed = committed_files();
    for (name, _) in REGISTRY {
        // `export_csv` is the one entry whose main artifact is not
        // `<name>.txt`: it writes the per-epoch CSV of its preset.
        let expected = if *name == "export_csv" {
            "epochs_quick.csv".to_string()
        } else {
            format!("{name}.txt")
        };
        assert!(
            committed.contains(&expected),
            "registry entry '{name}' has no committed results/{expected} — \
             regenerate it with `repro {name}` and commit it"
        );
    }
    for file in committed.iter().filter(|f| f.ends_with(".txt")) {
        let stem = file.trim_end_matches(".txt");
        assert!(
            REGISTRY.iter().any(|(name, _)| *name == stem),
            "results/{file} has no registry entry — register its generator or delete it"
        );
    }
}

#[test]
fn fig15_artifact_matches_the_committed_file_byte_for_byte() {
    let (_, run) = REGISTRY
        .iter()
        .find(|(name, _)| *name == "fig15_pathologies")
        .expect("fig15_pathologies is registered");
    let artifacts = run(&Args::default()).expect("fig15 is synthetic and cannot fail");
    let dir = std::env::temp_dir().join(format!("tputpred-registry-{}", std::process::id()));
    for artifact in &artifacts {
        write_artifact(&dir, artifact).expect("temp dir is writable");
    }
    let written = fs::read(dir.join("fig15_pathologies.txt")).expect("artifact was written");
    let committed =
        fs::read(results_dir().join("fig15_pathologies.txt")).expect("committed file exists");
    let _ = fs::remove_dir_all(&dir);
    assert!(
        written == committed,
        "fig15_pathologies drifted from results/fig15_pathologies.txt — \
         regenerate with `repro fig15_pathologies` if the change is intended"
    );
}

#[test]
fn quick_writes_to_results_and_other_presets_to_a_subfolder() {
    assert_eq!(output_dir(&Preset::quick()), PathBuf::from("results"));
    assert_eq!(
        output_dir(&Preset::quick_2006()),
        PathBuf::from("results/quick-2006")
    );
}

#[test]
fn write_errors_name_the_path() {
    let dir = std::env::temp_dir().join(format!("tputpred-artifact-{}", std::process::id()));
    fs::create_dir_all(&dir).expect("temp dir");
    // A regular file where the output directory should be.
    let blocker = dir.join("not-a-dir");
    fs::write(&blocker, "").expect("blocker file");
    let err = write_artifact(&blocker, &Artifact::new("x.txt", "x\n".into())).unwrap_err();
    let _ = fs::remove_dir_all(&dir);
    assert!(err.contains(&blocker.display().to_string()), "{err}");
}

#[test]
fn repro_reports_every_failing_entry_runs_the_rest_and_exits_one() {
    let dir = std::env::temp_dir().join(format!("tputpred-repro-{}", std::process::id()));
    fs::create_dir_all(&dir).expect("temp dir");
    // Regular files where the output folder and the dataset cache
    // should be: fig15's write fails, and fig02 fails to load its cache
    // before it could simulate anything.
    fs::write(dir.join("results"), "").expect("blocker file");
    fs::write(dir.join("data"), "").expect("blocker file");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([
            "--preset",
            "tiny",
            "fig15_pathologies",
            "fig02_fb_error_cdf",
        ])
        .current_dir(&dir)
        .output()
        .expect("repro runs");
    let _ = fs::remove_dir_all(&dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    for report in [
        "fig15_pathologies: could not create results/tiny",
        "fig02_fb_error_cdf: dataset at data/tiny",
    ] {
        assert!(
            stderr.contains(report),
            "'{report}' not reported:\n{stderr}"
        );
    }
}
