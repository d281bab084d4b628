//! Cross-process checks for `fig17_ep_all2all`:
//!
//! * determinism — a `--quick --jobs 1` run and a `--quick --jobs 4`
//!   run, each in its own scratch working directory, must write
//!   byte-identical `results/quick/` artifacts (DESIGN.md §10/§12);
//! * the headline trade-off — parsing the summary CSV must show EP
//!   beating host offloading on P99 in the per-GPU-fixed regime, and a
//!   memory-constrained EP cell losing to offloading.

mod common;

use common::{assert_same_artifacts, run_quick};
use std::path::Path;

const BIN: &str = env!("CARGO_BIN_EXE_fig17_ep_all2all");

#[test]
fn ep_bench_is_deterministic_across_processes_and_jobs() {
    let base = Path::new(env!("CARGO_TARGET_TMPDIR")).join("fig17_determinism");
    let sequential = run_quick(BIN, &base.join("jobs1"), &["--jobs", "1"]);
    let parallel = run_quick(BIN, &base.join("jobs4"), &["--jobs", "4"]);
    assert_same_artifacts(
        &sequential,
        &parallel,
        "--jobs 1 and --jobs 4 differ: the EP sweep or CSV pipeline leaked \
         scheduling nondeterminism",
    );
}

#[test]
fn summary_renders_both_directions_of_the_latency_memory_trade_off() {
    let base = Path::new(env!("CARGO_TARGET_TMPDIR")).join("fig17_tradeoff");
    let files = run_quick(BIN, &base.join("run"), &["--jobs", "2"]);
    let text = std::str::from_utf8(&files["fig17_ep_summary.csv"]).expect("summary CSV is UTF-8");

    // Columns: mode,offload_p99_ms,best_ep_p99_ms,best_ep_cell,
    //          worst_ep_p99_ms,best_winner,worst_winner
    let mut per_gpu_fixed_ep_wins = false;
    let mut some_cell_loses_to_offload = false;
    for line in text.lines().skip(1) {
        let cols: Vec<&str> = line.split(',').collect();
        assert_eq!(cols.len(), 7, "summary row shape: {line}");
        if cols[0] == "per-gpu-fixed" {
            per_gpu_fixed_ep_wins = cols[5] == "ep_wins";
        }
        if cols[6] == "offload_wins" {
            some_cell_loses_to_offload = true;
        }
    }
    assert!(
        per_gpu_fixed_ep_wins,
        "per-GPU-fixed budgets must let EP beat host offloading on P99"
    );
    assert!(
        some_cell_loses_to_offload,
        "some memory-constrained EP cell must lose the P99 race to offloading"
    );
}
