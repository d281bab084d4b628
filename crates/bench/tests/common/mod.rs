//! Shared by the cross-process bench tests: spawn a real bench binary in
//! its own scratch working directory and collect what it wrote.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;
use std::process::Command;

/// Runs the bench binary at `bin` with `--quick` plus `args` in a fresh
/// (emptied) `workdir` and returns every file it wrote, keyed by file
/// name.
///
/// A quick run must write only under `results/quick/`, never over a
/// full-size file in `results/`; this checks that too.
pub fn run_quick(bin: &str, workdir: &Path, args: &[&str]) -> BTreeMap<String, Vec<u8>> {
    if workdir.exists() {
        fs::remove_dir_all(workdir).expect("stale scratch dir removable");
    }
    fs::create_dir_all(workdir).expect("scratch dir");
    let out = Command::new(bin)
        .arg("--quick")
        .args(args)
        .current_dir(workdir)
        .output()
        .expect("bench binary runs");
    assert!(
        out.status.success(),
        "{bin} --quick {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let results = workdir.join("results");
    let top: Vec<_> = fs::read_dir(&results)
        .expect("results dir written")
        .filter_map(Result::ok)
        .map(|e| e.file_name())
        .collect();
    assert_eq!(top, ["quick"], "a --quick run wrote outside results/quick/");
    let written: BTreeMap<String, Vec<u8>> = fs::read_dir(results.join("quick"))
        .expect("results/quick dir written")
        .filter_map(Result::ok)
        .map(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            (name, fs::read(e.path()).expect("artifact readable"))
        })
        .collect();
    assert!(!written.is_empty(), "bench produced no output");
    written
}

/// Asserts two [`run_quick`] results hold the same files, byte for byte;
/// `why` says what a difference would mean.
pub fn assert_same_artifacts(
    a: &BTreeMap<String, Vec<u8>>,
    b: &BTreeMap<String, Vec<u8>>,
    why: &str,
) {
    assert_eq!(
        a.keys().collect::<Vec<_>>(),
        b.keys().collect::<Vec<_>>(),
        "the two runs wrote different file sets: {why}"
    );
    for (name, bytes) in a {
        assert!(b[name] == *bytes, "{name} differs between the runs: {why}");
    }
}
