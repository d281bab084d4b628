//! CLI for `fmoe-lint`. See the library docs for the rule catalog.
//!
//! ```text
//! cargo run -p fmoe-lint -- --workspace [--deny-all] [--pedantic-panics]
//! cd crates/cache && cargo run -p fmoe-lint -- src/cache.rs
//! ```
//!
//! FILE arguments resolve against the working directory, like
//! `--allowlist`; each file is classified by its path relative to the
//! workspace root.
//!
//! Diagnostics and the summary line are text on stderr; stdout carries
//! only `--help`. Exit codes: 0 clean, 1 findings at failing severity,
//! 2 usage or I/O error.

#![forbid(unsafe_code)]

use fmoe_lint::{lint_files, lint_workspace_with, walk, LintOptions, LintReport, Severity};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: fmoe-lint (--workspace | FILE...) [options]

  FILE                  a source file, relative to the working directory
  --workspace           lint every workspace src/ tree (token rules
                        FM001-FM008 plus the cross-crate taint rules
                        FM010-FM012)
  --deny-all            treat warnings as errors
  --allowlist PATH      lint.toml location (default: <root>/lint.toml);
                        an explicit PATH must be readable
  --pedantic-panics     with --workspace: widen FM010 panic seeds to
                        slice indexing and non-literal division";

fn main() -> ExitCode {
    let mut workspace = false;
    let mut deny_all = false;
    let mut pedantic = false;
    let mut allowlist: Option<PathBuf> = None;
    let mut files: Vec<PathBuf> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workspace" => workspace = true,
            "--deny-all" => deny_all = true,
            "--pedantic-panics" => pedantic = true,
            "--allowlist" => match args.next() {
                Some(p) => allowlist = Some(PathBuf::from(p)),
                None => return usage_error("--allowlist needs a path"),
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            flag if flag.starts_with("--") => return usage_error(&format!("unknown flag {flag}")),
            path => files.push(PathBuf::from(path)),
        }
    }
    if !workspace && files.is_empty() {
        return usage_error("give --workspace or at least one FILE");
    }
    // FM010 runs only in workspace mode, so in FILE mode the flag would
    // be silently ignored.
    if pedantic && !workspace {
        return usage_error("--pedantic-panics needs --workspace");
    }
    // The library reads a missing allowlist as an empty one (fixture
    // workspaces have none); a path given by hand must exist, or every
    // intended exception would be reported as a finding.
    if let Some(path) = &allowlist {
        if let Err(e) = std::fs::read_to_string(path) {
            return usage_error(&format!("cannot read allowlist {}: {e}", path.display()));
        }
    }

    let cwd = match std::env::current_dir() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("fmoe-lint: cannot determine working directory: {e}");
            return ExitCode::from(2);
        }
    };
    let root = match walk::find_workspace_root(&cwd) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("fmoe-lint: {e}");
            return ExitCode::from(2);
        }
    };
    let allowlist_path = allowlist.unwrap_or_else(|| root.join("lint.toml"));

    let opts = LintOptions {
        pedantic_panics: pedantic,
        ..LintOptions::default()
    };
    let report = if workspace {
        lint_workspace_with(&root, &allowlist_path, &opts)
    } else {
        lint_files(&root, &files, &allowlist_path)
    };
    match report {
        Ok(report) => render(&report, deny_all),
        Err(e) => {
            eprintln!("fmoe-lint: {e}");
            ExitCode::from(2)
        }
    }
}

/// Prints `fmoe-lint: MSG` and the usage on stderr; exit code 2.
fn usage_error(msg: &str) -> ExitCode {
    eprintln!("fmoe-lint: {msg}\n{USAGE}");
    ExitCode::from(2)
}

/// Prints the diagnostics and the summary line on stderr; computes the
/// exit code.
fn render(report: &LintReport, deny_all: bool) -> ExitCode {
    for d in &report.diagnostics {
        let shown = if deny_all && d.severity == Severity::Warning {
            let mut promoted = d.clone();
            promoted.severity = Severity::Error;
            promoted
        } else {
            d.clone()
        };
        eprint!("{shown}");
    }
    let errors = report.errors(deny_all);
    eprintln!(
        "fmoe-lint: {} file(s), {} error(s), {} warning(s), {} suppressed by lint.toml",
        report.files,
        errors,
        report.warnings(deny_all),
        report.suppressed
    );
    if errors > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
