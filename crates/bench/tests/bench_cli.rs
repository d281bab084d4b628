//! Every bench binary that `scripts/reproduce_all.sh` runs, and
//! `perf_smoke`, parses one command line first (`fmoe_bench::cli`): an
//! argument it does not know, or a malformed value, exits with status 2
//! before anything runs, so a mistyped flag can never start a full-size
//! sweep that rewrites the committed results.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// The bin names the manifest runs: the first word of every entry of
/// its `PAPER_BINS` and `EXTENSION_BINS` arrays.
fn manifest_bins() -> Vec<String> {
    let script = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scripts/reproduce_all.sh");
    let text = fs::read_to_string(script).expect("manifest readable");
    let mut bins = Vec::new();
    let mut in_list = false;
    for line in text.lines().map(str::trim) {
        if line.ends_with("_BINS=(") {
            in_list = true;
        } else if line == ")" {
            in_list = false;
        } else if in_list && !line.is_empty() && !line.starts_with('#') {
            let entry = line.trim_matches('"');
            bins.extend(entry.split_whitespace().next().map(str::to_string));
        }
    }
    bins
}

/// The built bench binary `name`: Cargo builds every binary of the
/// package beside `perf_smoke` before it runs this test.
fn bin_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_BIN_EXE_perf_smoke"))
        .with_file_name(format!("{name}{}", std::env::consts::EXE_SUFFIX))
}

/// Runs `name args` in an empty scratch directory of its own and returns
/// its output and every file name it left there.
fn run_in_scratch(name: &str, args: &[&str]) -> (Output, Vec<String>) {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("bench_cli")
        .join(format!("{name}{}", args.join("_")));
    if dir.exists() {
        fs::remove_dir_all(&dir).expect("stale scratch dir removable");
    }
    fs::create_dir_all(&dir).expect("scratch dir");
    let out = Command::new(bin_path(name))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("bench binary runs");
    let left = fs::read_dir(&dir)
        .expect("scratch dir readable")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    (out, left)
}

/// Asserts `name args` exited with status 2, printed the usage to stderr
/// and nothing to stdout, and wrote no file.
fn assert_refused(name: &str, args: &[&str]) {
    let (out, left) = run_in_scratch(name, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{name} {args:?}: {stderr}");
    assert!(stderr.contains("usage:"), "{name} {args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{name} {args:?} printed to stdout");
    assert!(left.is_empty(), "{name} {args:?} wrote {left:?}");
}

#[test]
fn every_manifest_binary_refuses_an_unknown_flag_and_writes_nothing() {
    let bins = manifest_bins();
    assert!(
        bins.len() >= 20 && bins.iter().any(|b| b == "fig9_overall"),
        "manifest parse found only {bins:?}"
    );
    for name in bins.iter().map(String::as_str).chain(["perf_smoke"]) {
        assert_refused(name, &["--no-such-flag"]);
    }
}

#[test]
fn malformed_values_and_undeclared_flags_are_refused() {
    // A bad `--jobs` must not fall back to the default and run the sweep.
    for args in [&["--jobs", "x"][..], &["--jobs=0"], &["--jobs"]] {
        assert_refused("fig9_overall", args);
    }
    // A flag another binary declares is unknown here.
    assert_refused("table1_models", &["--trace"]);
    assert_refused("fig3_entropy", &["--heatmap=1"]);
}

#[test]
fn help_lists_the_declared_flags_and_runs_nothing() {
    let (out, left) = run_in_scratch("fig9_overall", &["--help"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    for flag in ["--quick", "--jobs N", "--trace", "--help"] {
        assert!(stdout.contains(flag), "{flag} missing from:\n{stdout}");
    }
    assert!(left.is_empty(), "--help wrote {left:?}");
}
