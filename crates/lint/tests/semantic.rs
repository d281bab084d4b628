//! End-to-end tests of the semantic stage (parser → call graph →
//! taint) over the on-disk chain fixture workspaces under
//! `tests/fixtures/chain/`.

use fmoe_lint::{lint_workspace_with, LintOptions};
use std::path::PathBuf;

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

fn opts() -> LintOptions {
    LintOptions {
        sim_path_crates: vec!["a".into(), "b".into(), "c".into()],
        pedantic_panics: false,
    }
}

#[test]
fn fm010_locks_the_exact_diagnostic_format() {
    let root = fixture_root("bad");
    let report = lint_workspace_with(&root, &root.join("lint.toml"), &opts()).expect("lint run");
    let d = report
        .diagnostics
        .iter()
        .find(|d| d.code == "FM010" && d.path == "crates/a/src/lib.rs")
        .expect("FM010 fires on a::f");
    assert_eq!(
        d.message,
        "public `a::f` transitively reaches a panic site (panic! in `c::h` at \
         crates/c/src/lib.rs:9); call chain: a::f → b::g → c::h"
    );
}

#[test]
fn bad_chain_workspace_reports_all_three_transitive_rules() {
    let root = fixture_root("bad");
    let report = lint_workspace_with(&root, &root.join("lint.toml"), &opts()).expect("lint run");
    let codes: Vec<&str> = report.diagnostics.iter().map(|d| d.code).collect();
    assert!(codes.contains(&"FM010"), "panic chain: {codes:?}");
    assert!(codes.contains(&"FM011"), "clock chain: {codes:?}");
    assert!(codes.contains(&"FM012"), "dyn dispatch: {codes:?}");

    let fm011 = report
        .diagnostics
        .iter()
        .find(|d| d.code == "FM011")
        .expect("FM011 present");
    assert!(
        fm011.message.contains("a::tick → b::now_ms"),
        "clock chain text: {}",
        fm011.message
    );
    let fm012 = report
        .diagnostics
        .iter()
        .find(|d| d.code == "FM012")
        .expect("FM012 present");
    assert!(
        fm012.message.contains("Alpha::decide") && fm012.message.contains("Beta::decide"),
        "FM012 must list the dirty implementors: {}",
        fm012.message
    );
}

#[test]
fn good_chain_workspace_is_clean() {
    let root = fixture_root("good");
    let report = lint_workspace_with(&root, &root.join("lint.toml"), &opts()).expect("lint run");
    let rendered: String = report.diagnostics.iter().map(ToString::to_string).collect();
    assert_eq!(
        report.errors(true),
        0,
        "good chain fixture must lint clean under deny-all:\n{rendered}"
    );
}

#[test]
fn rendered_diagnostics_are_byte_identical_across_independent_runs() {
    let root = fixture_root("bad");
    let render = || -> String {
        let report =
            lint_workspace_with(&root, &root.join("lint.toml"), &opts()).expect("lint run");
        report.diagnostics.iter().map(ToString::to_string).collect()
    };
    let first = render();
    assert_eq!(
        first,
        render(),
        "rendered diagnostics must be deterministic across runs"
    );
    assert!(first.contains(": FM010 [error] "), "{first}");
}
