//! Cross-process determinism: a bench binary run twice must emit
//! byte-identical CSVs (DESIGN.md §10), and a parallel `--jobs N` run
//! must emit the same bytes as a sequential one (DESIGN.md §12).
//!
//! The in-process tests in `tests/determinism.rs` would miss anything
//! keyed off process state — `HashMap` iteration order reseeds per
//! process, so hash-order leakage is only visible across *separate*
//! invocations. This spawns the real `fig9_overall --quick` binary
//! twice, each in its own scratch working directory, and diffs the
//! `results/quick/` artifacts byte for byte.

mod common;

use common::{assert_same_artifacts, run_quick};
use std::path::Path;

const BIN: &str = env!("CARGO_BIN_EXE_fig9_overall");

#[test]
fn quick_bench_csvs_are_byte_identical_across_processes() {
    let base = Path::new(env!("CARGO_TARGET_TMPDIR")).join("csv_determinism");
    let first = run_quick(BIN, &base.join("run1"), &[]);
    let second = run_quick(BIN, &base.join("run2"), &[]);
    assert_same_artifacts(
        &first,
        &second,
        "two identical --quick runs must agree; the bench pipeline leaked \
         nondeterminism (hash order, wall clock, or unseeded randomness)",
    );
}

#[test]
fn parallel_and_sequential_runs_emit_identical_csv_bytes() {
    // The ParallelRunner contract (DESIGN.md §12): fanning sweep cells
    // across worker threads must not change a single output byte. Run
    // the same bench sequentially and with four workers and diff every
    // artifact.
    let base = Path::new(env!("CARGO_TARGET_TMPDIR")).join("csv_jobs_determinism");
    let sequential = run_quick(BIN, &base.join("jobs1"), &["--jobs", "1"]);
    let parallel = run_quick(BIN, &base.join("jobs4"), &["--jobs", "4"]);
    assert_same_artifacts(
        &sequential,
        &parallel,
        "--jobs 1 and --jobs 4 differ; parallel execution must reassemble \
         results in input order and leak no scheduling nondeterminism",
    );
}
