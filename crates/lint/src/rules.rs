//! The FM001–FM008 rule implementations.
//!
//! Every rule is a pure function over the token stream produced by
//! [`crate::lexer::lex`], the per-token test-region markers from
//! [`crate::lexer::mark_test_regions`], and a [`FileContext`] describing
//! where the file sits in the workspace. Rules never read types — they
//! are deliberate, documented heuristics, and intended false positives
//! are suppressed through the checked-in `lint.toml` allowlist.

use crate::diag::{Diagnostic, Severity};
use crate::lexer::{lex, mark_test_regions, Token, TokenKind};

/// How a file participates in the build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Part of a crate's library (`src/*.rs` except `src/bin/`).
    Library,
    /// A binary target (`src/bin/*.rs` or `src/main.rs`).
    Binary,
    /// Test or bench code (`tests/`, `benches/`); most rules skip these.
    TestOrBench,
}

/// Where a file sits in the workspace, for rule gating.
#[derive(Debug, Clone)]
pub struct FileContext {
    /// Repo-relative path, used in diagnostics and allowlist matching.
    pub path: String,
    /// How the file participates in the build.
    pub kind: FileKind,
    /// `true` for crates on the simulation path (core, cache, memsim,
    /// serving, baselines, model, workload, trace): iteration order can
    /// leak into plans, evictions, and CSV output, so unordered
    /// containers are banned outright (FM001).
    pub sim_path: bool,
    /// `true` for bench-crate *binaries* (and `tests/`/`benches/`
    /// targets), the only places wall-clock time is legitimate (FM002).
    /// The bench crate's library — the harness, `ParallelRunner`,
    /// report/plot writers — feeds deterministic artifacts and stays
    /// under the same no-wall-clock contract as the simulation crates.
    pub wall_clock_allowed: bool,
    /// `true` for the crate root (`src/lib.rs`), where crate-level
    /// attributes like `#![forbid(unsafe_code)]` must live (FM008).
    pub is_crate_root: bool,
}

/// Directory names (under `crates/`) of simulation-path crates.
pub const SIM_PATH_CRATES: &[&str] = &[
    "core",
    "cache",
    "memsim",
    "serving",
    "baselines",
    "model",
    "workload",
    "trace",
    "cluster",
    "faults",
];

impl FileContext {
    /// Classifies a repo-relative path (`crates/cache/src/cache.rs`,
    /// `src/lib.rs`, …) into a [`FileContext`] with the default
    /// [`SIM_PATH_CRATES`] set.
    #[must_use]
    pub fn classify(path: &str) -> Self {
        Self::classify_with(path, SIM_PATH_CRATES)
    }

    /// Classifies a repo-relative path against an explicit set of
    /// simulation-path crate directory names (used by fixture corpora
    /// and by `LintOptions`-driven runs).
    #[must_use]
    pub fn classify_with<S: AsRef<str>>(path: &str, sim_crates: &[S]) -> Self {
        let crate_dir = path
            .strip_prefix("crates/")
            .and_then(|rest| rest.split('/').next())
            .unwrap_or("");
        let kind = if path.contains("/tests/") || path.contains("/benches/") {
            FileKind::TestOrBench
        } else if path.contains("/src/bin/") || path.ends_with("src/main.rs") {
            FileKind::Binary
        } else {
            FileKind::Library
        };
        Self {
            path: path.to_string(),
            kind,
            sim_path: sim_crates.iter().any(|s| s.as_ref() == crate_dir),
            wall_clock_allowed: crate_dir == "bench" && kind != FileKind::Library,
            is_crate_root: path.ends_with("src/lib.rs"),
        }
    }
}

/// Integer/float types that lose information when a byte-size or
/// virtual-time `u64`/`usize` is cast into them.
const NARROW_TYPES: &[&str] = &["u32", "u16", "u8", "i32", "i16", "i8", "f32"];

/// Identifier suffixes that mark a quantity as a byte size or a virtual
/// time, where lossy casts corrupt simulation results silently.
const SIZEISH_SUFFIXES: &[&str] = &[
    "bytes", "size", "len", "ns", "nanos", "capacity", "budget", "time",
];

/// Runs every rule over one file's source text.
#[must_use]
pub fn lint_source(ctx: &FileContext, source: &str) -> Vec<Diagnostic> {
    let tokens = lex(source);
    let in_test = mark_test_regions(&tokens);
    let lines: Vec<&str> = source.lines().collect();
    let mut out = Vec::new();

    let diag = |code: &'static str,
                severity: Severity,
                tok: &Token,
                message: String,
                lines: &[&str]|
     -> Diagnostic {
        Diagnostic {
            code,
            severity,
            path: ctx.path.clone(),
            line: tok.line,
            col: tok.col,
            message,
            line_text: lines
                .get(tok.line as usize - 1)
                .map_or_else(String::new, |l| (*l).to_string()),
        }
    };

    let file_spawns_threads = tokens
        .windows(3)
        .any(|w| w[0].is_ident("thread") && w[1].is_punct("::") && w[2].is_ident("spawn"));

    // FM008: simulation-path crate roots must forbid unsafe code. The
    // check is token-level (`#` `!` `[` `forbid` `(` `unsafe_code` `)`
    // `]`), so comments and formatting don't matter.
    if ctx.sim_path && ctx.is_crate_root {
        let has_forbid = tokens.windows(8).any(|w| {
            w[0].is_punct("#")
                && w[1].is_punct("!")
                && w[2].is_punct("[")
                && w[3].is_ident("forbid")
                && w[4].is_punct("(")
                && w[5].is_ident("unsafe_code")
                && w[6].is_punct(")")
                && w[7].is_punct("]")
        });
        if !has_forbid {
            out.push(Diagnostic {
                code: "FM008",
                severity: Severity::Error,
                path: ctx.path.clone(),
                line: 1,
                col: 1,
                message: "simulation-path crate root is missing \
                          `#![forbid(unsafe_code)]`: the determinism contract \
                          (DESIGN.md §10) requires it so no unsafe block can \
                          introduce UB-dependent behavior"
                    .to_string(),
                line_text: lines.first().map_or_else(String::new, |l| (*l).to_string()),
            });
        }
    }

    for (i, tok) in tokens.iter().enumerate() {
        if in_test[i] || ctx.kind == FileKind::TestOrBench {
            continue;
        }
        let prev = i.checked_sub(1).and_then(|j| tokens.get(j));
        let next = tokens.get(i + 1);
        let next2 = tokens.get(i + 2);

        // FM001: unordered containers on the simulation path.
        if ctx.sim_path
            && tok.kind == TokenKind::Ident
            && (tok.text == "HashMap" || tok.text == "HashSet")
        {
            let ordered = if tok.text == "HashMap" {
                "BTreeMap"
            } else {
                "BTreeSet"
            };
            out.push(diag(
                "FM001",
                Severity::Error,
                tok,
                format!(
                    "`{}` in a simulation-path crate: iteration order is \
                     unspecified and can leak into plans, evictions, or CSV \
                     output — use `{}` or sort before any order-observable use",
                    tok.text, ordered
                ),
                &lines,
            ));
        }

        // FM002: wall-clock time outside the bench crate.
        if !ctx.wall_clock_allowed {
            let instant_now = tok.is_ident("Instant")
                && next.is_some_and(|t| t.is_punct("::"))
                && next2.is_some_and(|t| t.is_ident("now"));
            if instant_now || tok.is_ident("SystemTime") {
                out.push(diag(
                    "FM002",
                    Severity::Error,
                    tok,
                    "wall-clock time source outside `fmoe-bench`: simulation \
                     code must use `VirtualClock` so runs are bit-reproducible"
                        .to_string(),
                    &lines,
                ));
            }
        }

        // FM003: unseeded randomness.
        let rand_random = tok.is_ident("rand")
            && next.is_some_and(|t| t.is_punct("::"))
            && next2.is_some_and(|t| t.is_ident("random"));
        if tok.is_ident("thread_rng") || tok.is_ident("from_entropy") || rand_random {
            out.push(diag(
                "FM003",
                Severity::Error,
                tok,
                "unseeded randomness: only the seeded generators in \
                 `fmoe_stats::rng` are allowed, so every run is replayable \
                 from its seed"
                    .to_string(),
                &lines,
            ));
        }

        // FM004: panicking calls in library code.
        if ctx.kind == FileKind::Library {
            let method_call =
                prev.is_some_and(|t| t.is_punct(".")) && next.is_some_and(|t| t.is_punct("("));
            if method_call && (tok.is_ident("unwrap") || tok.is_ident("expect")) {
                out.push(diag(
                    "FM004",
                    Severity::Error,
                    tok,
                    format!(
                        "`{}()` in library code: return a typed error, make \
                         the constructor infallible, or allowlist it in \
                         `lint.toml` with a proof of unreachability",
                        tok.text
                    ),
                    &lines,
                ));
            }
            let macro_bang = next.is_some_and(|t| t.is_punct("!"));
            if macro_bang
                && (tok.is_ident("panic")
                    || tok.is_ident("unreachable")
                    || tok.is_ident("todo")
                    || tok.is_ident("unimplemented"))
            {
                out.push(diag(
                    "FM004",
                    Severity::Error,
                    tok,
                    format!(
                        "`{}!` in library code: a panic mid-sweep aborts the \
                         whole experiment — return a typed error instead",
                        tok.text
                    ),
                    &lines,
                ));
            }
        }

        // FM005: exact float equality.
        if (tok.is_punct("==") || tok.is_punct("!="))
            && (prev.is_some_and(|t| t.kind == TokenKind::Float)
                || next.is_some_and(|t| t.kind == TokenKind::Float))
        {
            out.push(diag(
                "FM005",
                Severity::Warning,
                tok,
                "exact float comparison: floats accumulate rounding error — \
                 compare with a tolerance, or allowlist this as an exact \
                 sentinel in `lint.toml`"
                    .to_string(),
                &lines,
            ));
        }

        // FM006a: f64 round-trip casts on integers.
        if tok.is_ident("as")
            && next.is_some_and(|t| t.is_ident("f64"))
            && next2.is_some_and(|t| t.is_ident("as"))
            && tokens
                .get(i + 3)
                .is_some_and(|t| matches!(t.text.as_str(), "u64" | "usize" | "i64"))
        {
            out.push(diag(
                "FM006",
                Severity::Warning,
                tok,
                "`as f64 as <int>` round-trip: values above 2^53 silently \
                 lose precision — stay in integer arithmetic"
                    .to_string(),
                &lines,
            ));
        }

        // FM006b: narrowing casts on size/time-named quantities.
        if tok.kind == TokenKind::Ident
            && next.is_some_and(|t| t.is_ident("as"))
            && next2.is_some_and(|t| NARROW_TYPES.contains(&t.text.as_str()))
        {
            let lower = tok.text.to_ascii_lowercase();
            if SIZEISH_SUFFIXES.iter().any(|s| lower.ends_with(s)) {
                let target = next2.map_or("", |t| t.text.as_str());
                out.push(diag(
                    "FM006",
                    Severity::Warning,
                    tok,
                    format!(
                        "lossy `as {target}` cast on `{}`: byte-size and \
                         virtual-time quantities must stay in u64/usize (use \
                         `try_from` if narrowing is really intended)",
                        tok.text
                    ),
                    &lines,
                ));
            }
        }

        // FM007: race-hazard heuristic in thread-spawning modules.
        if file_spawns_threads {
            let hazardous = tok.is_ident("RefCell")
                || tok.is_ident("UnsafeCell")
                || (tok.is_ident("Cell") && next.is_some_and(|t| t.is_punct("<")))
                || (tok.is_ident("Rc") && next.is_some_and(|t| t.is_punct("<")))
                || (tok.is_ident("static") && next.is_some_and(|t| t.is_ident("mut")))
                || (tok.is_ident("sync")
                    && next.is_some_and(|t| t.is_punct("::"))
                    && next2.is_some_and(|t| t.is_ident("Mutex")));
            if hazardous {
                out.push(diag(
                    "FM007",
                    Severity::Error,
                    tok,
                    "shared-state hazard in a thread-spawning module: only \
                     `parking_lot::RwLock` and channels (`std::sync::mpsc`, crossbeam) are approved \
                     for cross-thread state (see DESIGN.md §10)"
                        .to_string(),
                    &lines,
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib_ctx(path: &str) -> FileContext {
        FileContext::classify(path)
    }

    fn codes(ctx: &FileContext, src: &str) -> Vec<&'static str> {
        lint_source(ctx, src).into_iter().map(|d| d.code).collect()
    }

    #[test]
    fn classify_kinds_and_crates() {
        let c = FileContext::classify("crates/cache/src/cache.rs");
        assert_eq!(c.kind, FileKind::Library);
        assert!(c.sim_path);
        assert!(!c.wall_clock_allowed);
        let b = FileContext::classify("crates/bench/src/bin/fmoe_sim.rs");
        assert_eq!(b.kind, FileKind::Binary);
        assert!(!b.sim_path);
        assert!(b.wall_clock_allowed);
        // The bench *library* (harness, ParallelRunner, report writers)
        // produces deterministic artifacts: no wall clock there.
        let h = FileContext::classify("crates/bench/src/harness.rs");
        assert_eq!(h.kind, FileKind::Library);
        assert!(!h.wall_clock_allowed);
        let t = FileContext::classify("crates/memsim/tests/faults.rs");
        assert_eq!(t.kind, FileKind::TestOrBench);
        // Fault schedules feed the engines' virtual-time math directly:
        // the faults crate is sim-path and under the full contract.
        let f = FileContext::classify("crates/faults/src/replica.rs");
        assert_eq!(f.kind, FileKind::Library);
        assert!(f.sim_path);
        let root = FileContext::classify("src/lib.rs");
        assert_eq!(root.kind, FileKind::Library);
        assert!(!root.sim_path);
    }

    #[test]
    fn classify_covers_arena_cache_files() {
        // The arena-backed core and its eviction policies are sim-path
        // library code under the full contract (FM001/FM008):
        // no hash containers, no wall clocks, forbid(unsafe_code).
        for path in ["crates/cache/src/arena.rs", "crates/cache/src/policy.rs"] {
            let ctx = FileContext::classify(path);
            assert_eq!(ctx.kind, FileKind::Library, "{path}");
            assert!(ctx.sim_path, "{path} must be sim-path");
            assert!(!ctx.wall_clock_allowed, "{path}");
        }
        // Their integration tests are exempt from library-only rules
        // (FM004 unwrap rules, etc.) like any other test file.
        let t = FileContext::classify("crates/cache/tests/oracle_diff.rs");
        assert_eq!(t.kind, FileKind::TestOrBench);
    }

    #[test]
    fn fm001_only_fires_on_sim_path() {
        let src = "use std::collections::HashMap;";
        assert_eq!(codes(&lib_ctx("crates/cache/src/x.rs"), src), ["FM001"]);
        assert!(codes(&lib_ctx("crates/bench/src/x.rs"), src).is_empty());
    }

    #[test]
    fn fm002_allows_bench_binaries_only() {
        let src = "let t = Instant::now();";
        assert_eq!(codes(&lib_ctx("crates/stats/src/x.rs"), src), ["FM002"]);
        // Bench binaries (perf_smoke and friends) may time themselves…
        assert!(codes(&lib_ctx("crates/bench/src/bin/perf_smoke.rs"), src).is_empty());
        // …but the bench library feeds deterministic CSVs and may not.
        assert_eq!(
            codes(&lib_ctx("crates/bench/src/harness.rs"), src),
            ["FM002"]
        );
    }

    #[test]
    fn fm004_skips_bins_and_tests() {
        let src = "fn f() { x.unwrap(); }";
        assert_eq!(codes(&lib_ctx("crates/stats/src/x.rs"), src), ["FM004"]);
        assert!(codes(&lib_ctx("crates/bench/src/bin/b.rs"), src).is_empty());
        let in_test = "#[cfg(test)]\nmod tests { fn f() { x.unwrap(); } }";
        assert!(codes(&lib_ctx("crates/stats/src/x.rs"), in_test).is_empty());
    }

    #[test]
    fn fm008_requires_forbid_unsafe_in_sim_crate_roots() {
        let bare = "pub mod x;\n";
        let with_attr = "#![forbid(unsafe_code)]\npub mod x;\n";
        assert_eq!(codes(&lib_ctx("crates/cache/src/lib.rs"), bare), ["FM008"]);
        assert!(codes(&lib_ctx("crates/cache/src/lib.rs"), with_attr).is_empty());
        // Non-root files and non-sim crates are exempt.
        assert!(codes(&lib_ctx("crates/cache/src/cache.rs"), bare).is_empty());
        assert!(codes(&lib_ctx("crates/bench/src/lib.rs"), bare).is_empty());
    }

    #[test]
    fn fm007_requires_thread_spawn_in_file() {
        let hazard = "fn f() { let c = RefCell::new(0); }";
        assert!(codes(&lib_ctx("crates/stats/src/x.rs"), hazard).is_empty());
        let spawning = format!("fn g() {{ std::thread::spawn(|| ()); }}\n{hazard}");
        assert_eq!(
            codes(&lib_ctx("crates/stats/src/x.rs"), &spawning),
            ["FM007"]
        );
    }
}
