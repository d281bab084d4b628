//! Cross-process checks for `fig13_cluster_chaos`:
//!
//! * determinism — a `--quick --jobs 1` run and a `--quick --jobs 4`
//!   run, each in its own scratch working directory, must write
//!   byte-identical `results/quick/` artifacts (DESIGN.md §10/§12);
//! * the headline claim — parsing the summary CSV must show the
//!   donor-warmed restart recovering the pre-crash fleet hit rate in
//!   strictly fewer post-recovery requests than the cold restart in
//!   every (intensity, policy) cell, while paying real warmup bytes.

mod common;

use common::{assert_same_artifacts, run_quick};
use std::path::Path;

const BIN: &str = env!("CARGO_BIN_EXE_fig13_cluster_chaos");

#[test]
fn chaos_bench_is_deterministic_across_processes_and_jobs() {
    let base = Path::new(env!("CARGO_TARGET_TMPDIR")).join("fig13_determinism");
    let sequential = run_quick(BIN, &base.join("jobs1"), &["--jobs", "1"]);
    let parallel = run_quick(BIN, &base.join("jobs4"), &["--jobs", "4"]);
    assert_same_artifacts(
        &sequential,
        &parallel,
        "--jobs 1 and --jobs 4 differ: the chaos dispatch or CSV pipeline \
         leaked scheduling nondeterminism",
    );
}

#[test]
fn donor_warmed_recovers_faster_than_cold_in_the_quick_sweep() {
    let base = Path::new(env!("CARGO_TARGET_TMPDIR")).join("fig13_recovery");
    let files = run_quick(BIN, &base.join("run"), &["--jobs", "2"]);
    let text =
        std::str::from_utf8(&files["fig13_cluster_chaos.csv"]).expect("summary CSV is UTF-8");

    // Columns: intensity,policy,warmup,served,shed,goodput,avail,
    // hit_rate,p99_ms,failovers,warmup_mb,recovery_reqs
    let mut cells: Vec<(String, String, String, f64, u64)> = Vec::new();
    for line in text.lines().skip(1) {
        let cols: Vec<&str> = line.split(',').collect();
        cells.push((
            cols[0].to_string(),
            cols[1].to_string(),
            cols[2].to_string(),
            cols[10].parse().expect("warmup_mb"),
            cols[11].parse().expect("recovery_reqs"),
        ));
    }
    let mut compared = 0;
    for (intensity, policy, warmup, warm_mb, warm_reqs) in &cells {
        if warmup != "donor-warmed" {
            continue;
        }
        let (_, _, _, cold_mb, cold_reqs) = cells
            .iter()
            .find(|(i, p, w, _, _)| i == intensity && p == policy && w == "cold")
            .expect("cold cell for the same intensity and policy");
        assert!(
            warm_reqs < cold_reqs,
            "donor-warmed restart did not recover faster than cold at \
             intensity {intensity}, {policy}: {warm_reqs} vs {cold_reqs}"
        );
        assert!(*warm_mb > 0.0, "donor-warmed restart copies real bytes");
        assert_eq!(*cold_mb, 0.0, "cold restart copies nothing");
        compared += 1;
    }
    assert!(compared > 0, "the quick sweep must contain warmup pairs");
}
