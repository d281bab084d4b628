//! `fmoe-lint`: in-repo static analysis enforcing the determinism &
//! no-panic contract (DESIGN.md §10).
//!
//! The whole value of this reproduction rests on bit-reproducible
//! discrete-event simulation: seeded runs must be byte-identical, and
//! library code must never panic mid-sweep. This crate is the tooling
//! layer that keeps the contract true *statically*:
//!
//! | Code  | Rule |
//! |-------|------|
//! | FM001 | unordered `HashMap`/`HashSet` in simulation-path crates |
//! | FM002 | wall-clock time sources outside `fmoe-bench` |
//! | FM003 | unseeded randomness (`thread_rng`, `rand::random`, `from_entropy`) |
//! | FM004 | `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!`/`unimplemented!` in library code |
//! | FM005 | exact float `==`/`!=` comparisons |
//! | FM006 | lossy `as` casts on byte-size / virtual-time quantities |
//! | FM007 | shared-state hazards in thread-spawning modules |
//! | FM008 | sim-path crate root missing `#![forbid(unsafe_code)]` |
//! | FM010 | public sim-path API transitively reaches a panic site |
//! | FM011 | sim-path code transitively reaches a wall clock / unseeded RNG |
//! | FM012 | `dyn` dispatch where no implementor is contract-clean |
//!
//! FM001–FM008 are token-level rules over a single file. FM010–FM012
//! are *semantic*: a second stage ([`parser`] → [`graph`] → [`taint`])
//! parses items, builds the cross-crate call graph, and propagates
//! panic / wall-clock / randomness taint caller-ward, so a public API
//! that reaches `panic!` three crates away is still caught. The one
//! output is text: each [`Diagnostic`] renders as
//! `path:line:col: CODE [severity] message` plus the offending line, in
//! location order, so two runs over the same tree print the same bytes.
//!
//! Intended violations are suppressed via the checked-in `lint.toml`
//! allowlist; every entry must carry a non-empty justification (FM000
//! polices the allowlist itself).
//!
//! Run it with:
//!
//! ```text
//! cargo run -p fmoe-lint -- --workspace --deny-all
//! ```
//!
//! The implementation is dependency-free and uses its own small Rust
//! lexer ([`lexer`]) that understands strings, comments, `cfg(test)`
//! blocks, and attribute spans — consistent with the vendored-stub
//! offline build, no `syn` required.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod allowlist;
pub mod diag;
pub mod graph;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod taint;
pub mod walk;

pub use allowlist::Allowlist;
pub use diag::{Diagnostic, Severity};
pub use rules::{lint_source, FileContext, FileKind};

use std::fs;
use std::path::{Path, PathBuf};

/// Outcome of a full lint run, ready for rendering and exit-code logic.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Diagnostics that survived the allowlist, sorted by location.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of findings suppressed by `lint.toml`.
    pub suppressed: usize,
    /// Number of files linted.
    pub files: usize,
}

impl LintReport {
    /// Number of error-severity diagnostics (after `deny_all` promotion,
    /// every diagnostic counts).
    #[must_use]
    pub fn errors(&self, deny_all: bool) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| deny_all || d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity diagnostics (zero under `deny_all`).
    #[must_use]
    pub fn warnings(&self, deny_all: bool) -> usize {
        if deny_all {
            0
        } else {
            self.diagnostics
                .iter()
                .filter(|d| d.severity == Severity::Warning)
                .count()
        }
    }
}

/// Knobs for a workspace lint run.
#[derive(Debug, Clone)]
pub struct LintOptions {
    /// Directory names (under `crates/`) treated as simulation-path.
    pub sim_path_crates: Vec<String>,
    /// Widen FM010's panic seeds to slice indexing and non-literal
    /// division (`--pedantic-panics`).
    pub pedantic_panics: bool,
}

impl Default for LintOptions {
    fn default() -> Self {
        Self {
            sim_path_crates: rules::SIM_PATH_CRATES
                .iter()
                .map(|s| (*s).to_string())
                .collect(),
            pedantic_panics: false,
        }
    }
}

/// Lints every workspace `src/` tree rooted at `root`, applying the
/// allowlist at `allowlist_path` when present. Runs both the
/// token-level rules (FM001–FM008) and the cross-crate semantic stage
/// (FM010–FM012) with default options.
///
/// # Errors
///
/// Returns an [`std::io::Error`] when a source file cannot be read.
pub fn lint_workspace(root: &Path, allowlist_path: &Path) -> std::io::Result<LintReport> {
    lint_workspace_with(root, allowlist_path, &LintOptions::default())
}

/// [`lint_workspace`] with explicit [`LintOptions`].
///
/// # Errors
///
/// Returns an [`std::io::Error`] when a source file cannot be read.
pub fn lint_workspace_with(
    root: &Path,
    allowlist_path: &Path,
    opts: &LintOptions,
) -> std::io::Result<LintReport> {
    let sim = &opts.sim_path_crates;
    // Token stage over the flat file walk.
    let files = walk::workspace_sources(root)?;
    let mut raw = Vec::new();
    for file in &files {
        let rel = walk::relative_display(root, file);
        let source = fs::read_to_string(file)?;
        let ctx = FileContext::classify_with(&rel, sim);
        raw.extend(lint_source(&ctx, &source));
    }
    // Semantic stage over the per-crate source map.
    let crates = walk::workspace_crates(root)?;
    let mut crate_texts = Vec::with_capacity(crates.len());
    for krate in crates {
        let mut texts = Vec::with_capacity(krate.files.len());
        for file in &krate.files {
            let rel = walk::relative_display(root, file);
            texts.push((rel, fs::read_to_string(file)?));
        }
        crate_texts.push((krate, texts));
    }
    let g = graph::CallGraph::build(&crate_texts, sim);
    raw.extend(taint::semantic_diagnostics(&g, opts.pedantic_panics));
    Ok(apply_allowlist(raw, allowlist_path, files.len(), true))
}

/// Lints an explicit set of files. Each path is read as given, so a
/// relative one resolves against the working directory, and is
/// classified by its path relative to the workspace `root`.
///
/// # Errors
///
/// Returns an [`std::io::Error`] that names the file when a source file
/// cannot be read.
pub fn lint_files(
    root: &Path,
    paths: &[PathBuf],
    allowlist_path: &Path,
) -> std::io::Result<LintReport> {
    let root = fs::canonicalize(root)?;
    let mut raw = Vec::new();
    for path in paths {
        let named =
            |e: std::io::Error| std::io::Error::new(e.kind(), format!("{}: {e}", path.display()));
        let source = fs::read_to_string(path).map_err(named)?;
        let rel = walk::relative_display(&root, &fs::canonicalize(path).map_err(named)?);
        let ctx = FileContext::classify(&rel);
        raw.extend(lint_source(&ctx, &source));
    }
    Ok(apply_allowlist(raw, allowlist_path, paths.len(), false))
}

/// Filters raw findings through the allowlist and appends allowlist
/// hygiene diagnostics (parse problems, empty justifications, and —
/// for workspace runs only — stale entries, as errors).
fn apply_allowlist(
    raw: Vec<Diagnostic>,
    allowlist_path: &Path,
    files: usize,
    check_unused: bool,
) -> LintReport {
    let toml_display = allowlist_path.file_name().map_or_else(
        || "lint.toml".to_string(),
        |n| n.to_string_lossy().to_string(),
    );
    let (mut allow, mut diagnostics) = match fs::read_to_string(allowlist_path) {
        Ok(text) => Allowlist::parse(&toml_display, &text),
        Err(_) => (Allowlist::default(), Vec::new()),
    };
    let mut suppressed = 0usize;
    for d in raw {
        if allow.suppresses(&d) {
            suppressed += 1;
        } else {
            diagnostics.push(d);
        }
    }
    if check_unused {
        diagnostics.extend(allow.unused_warnings(&toml_display));
    }
    diagnostics.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.col, a.code).cmp(&(b.path.as_str(), b.line, b.col, b.code))
    });
    LintReport {
        diagnostics,
        suppressed,
        files,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn this_workspace_is_clean_under_deny_all() {
        let cwd = std::env::current_dir().expect("cwd");
        let root = walk::find_workspace_root(&cwd).expect("workspace root");
        let report = lint_workspace(&root, &root.join("lint.toml")).expect("lint run");
        let rendered: String = report.diagnostics.iter().map(ToString::to_string).collect();
        assert_eq!(
            report.errors(true),
            0,
            "workspace must stay lint-clean under --deny-all:\n{rendered}"
        );
    }
}
