//! Cross-process determinism: a parallel `--jobs N` run of a bench
//! binary must emit the same CSV bytes as a sequential one (DESIGN.md
//! §12), and two runs must agree across processes (DESIGN.md §10).
//!
//! The in-process tests in `tests/determinism.rs` would miss anything
//! keyed off process state — `HashMap` iteration order reseeds per
//! process, so hash-order leakage is only visible across *separate*
//! invocations. This spawns the real `fig9_overall --quick` binary
//! twice, once with `--jobs 1` and once with `--jobs 4`, each in its own
//! scratch working directory, and diffs the `results/quick/` artifacts
//! byte for byte: one pair of processes covers both contracts.

mod common;

use common::{assert_same_artifacts, run_quick};
use std::path::Path;

const BIN: &str = env!("CARGO_BIN_EXE_fig9_overall");

#[test]
fn parallel_and_sequential_runs_emit_identical_csv_bytes() {
    // The ParallelRunner contract (DESIGN.md §12): fanning sweep cells
    // across worker threads must not change a single output byte. Run
    // the same bench sequentially and with four workers, in two
    // processes, and diff every artifact.
    let base = Path::new(env!("CARGO_TARGET_TMPDIR")).join("csv_jobs_determinism");
    let sequential = run_quick(BIN, &base.join("jobs1"), &["--jobs", "1"]);
    let parallel = run_quick(BIN, &base.join("jobs4"), &["--jobs", "4"]);
    assert_same_artifacts(
        &sequential,
        &parallel,
        "--jobs 1 and --jobs 4 differ; parallel execution must reassemble \
         results in input order and leak no scheduling or per-process \
         nondeterminism (hash order, wall clock, or unseeded randomness)",
    );
}
