//! The `fmoe-lint` command-line contract, checked on the built binary:
//! which invocations are refused, the exit code on the chain fixture
//! workspaces, and that two processes print the same bytes.

use std::path::PathBuf;
use std::process::{Command, Output};

fn fixture_root(kind: &str) -> PathBuf {
    [
        env!("CARGO_MANIFEST_DIR"),
        "tests",
        "fixtures",
        "chain",
        kind,
    ]
    .iter()
    .collect()
}

/// Runs `fmoe-lint ARGS` from the working directory `cwd`.
fn run_from(cwd: PathBuf, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fmoe-lint"))
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("spawn fmoe-lint")
}

/// Runs `fmoe-lint ARGS` with the `chain/KIND` fixture as the working
/// directory.
fn run(kind: &str, args: &[&str]) -> Output {
    run_from(fixture_root(kind), args)
}

/// Each case exits 2, prints the usage and names what it refused.
#[test]
fn removed_unknown_and_refused_invocations_exit_2_with_the_usage() {
    let cases: &[(&[&str], &str)] = &[
        (&["--workspace", "--fix"], "--fix"),
        (&["--workspace", "--fix", "--dry-run"], "--fix"),
        (&["--workspace", "--dry-run"], "--dry-run"),
        (&["--workspace", "--format", "sarif"], "--format"),
        (&["--workspace", "--format", "text"], "--format"),
        (&["--workspace", "--no-such-flag"], "--no-such-flag"),
        (
            &["--pedantic-panics", "crates/a/src/lib.rs"],
            "--pedantic-panics",
        ),
        (
            &["--workspace", "--allowlist", "no-such-lint.toml"],
            "no-such-lint.toml",
        ),
    ];
    for (args, named) in cases {
        let out = run("good", args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains("usage: fmoe-lint") && stderr.contains(named),
            "{args:?} must name {named} and print the usage: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} wrote to stdout");
    }
}

#[test]
fn deny_all_exit_code_follows_the_fixture() {
    let good = run("good", &["--workspace", "--deny-all"]);
    assert_eq!(
        good.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&good.stderr)
    );
    let bad = run("bad", &["--workspace", "--deny-all"]);
    assert_eq!(
        bad.status.code(),
        Some(1),
        "{}",
        String::from_utf8_lossy(&bad.stderr)
    );
    assert!(good.stdout.is_empty() && bad.stdout.is_empty());
}

#[test]
fn two_processes_print_byte_identical_diagnostics() {
    let first = run("bad", &["--workspace", "--deny-all"]);
    let second = run("bad", &["--workspace", "--deny-all"]);
    let text = String::from_utf8_lossy(&first.stderr);
    assert!(text.contains("[error]"), "no findings rendered: {text}");
    assert_eq!(first.stderr, second.stderr);
}

/// Runs `fmoe-lint ARGS` from `crates/DIR` of this workspace.
fn run_in_crate(dir: &str, args: &[&str]) -> Output {
    run_from(
        [env!("CARGO_MANIFEST_DIR"), "..", dir].iter().collect(),
        args,
    )
}

/// FILE arguments resolve against the working directory and are
/// classified by their workspace-relative path, so lint.toml's
/// `crates/model/src/gate.rs` entry still suppresses from `crates/model`.
#[test]
fn file_mode_reads_paths_from_the_working_directory() {
    let cache = run_in_crate("cache", &["--deny-all", "src/cache.rs"]);
    let stderr = String::from_utf8_lossy(&cache.stderr);
    assert_eq!(cache.status.code(), Some(0), "{stderr}");
    assert!(stderr.contains("1 file(s), 0 error(s)"), "{stderr}");

    let gate = run_in_crate("model", &["--deny-all", "src/gate.rs"]);
    let stderr = String::from_utf8_lossy(&gate.stderr);
    assert_eq!(gate.status.code(), Some(0), "{stderr}");
    assert!(stderr.contains("1 suppressed by lint.toml"), "{stderr}");
}

/// An unreadable FILE is an I/O error: exit 2, naming the file.
#[test]
fn unreadable_file_exits_2_and_names_it() {
    let out = run_in_crate("cache", &["src/no_such_file.rs"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("src/no_such_file.rs"), "{stderr}");
    assert!(out.stdout.is_empty());
}
