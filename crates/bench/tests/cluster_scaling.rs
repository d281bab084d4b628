//! Cross-process checks for `fig12_cluster_scaling`:
//!
//! * determinism — a `--quick --jobs 1` run and a `--quick --jobs 4`
//!   run, each in its own scratch working directory, must write
//!   byte-identical `results/quick/` artifacts (DESIGN.md §10/§12);
//! * the headline claim — parsing the summary CSV must show semantic
//!   affinity beating (or tying) round-robin on fleet cache hit rate in
//!   every multi-replica cell, at equal shed counts.

mod common;

use common::{assert_same_artifacts, run_quick};
use std::path::Path;

const BIN: &str = env!("CARGO_BIN_EXE_fig12_cluster_scaling");

#[test]
fn cluster_bench_is_deterministic_across_processes_and_jobs() {
    let base = Path::new(env!("CARGO_TARGET_TMPDIR")).join("fig12_determinism");
    let sequential = run_quick(BIN, &base.join("jobs1"), &["--jobs", "1"]);
    let parallel = run_quick(BIN, &base.join("jobs4"), &["--jobs", "4"]);
    assert_same_artifacts(
        &sequential,
        &parallel,
        "--jobs 1 and --jobs 4 differ: the cluster dispatch or CSV pipeline \
         leaked scheduling nondeterminism",
    );
}

#[test]
fn affinity_beats_round_robin_on_fleet_hit_rate_in_the_quick_sweep() {
    let base = Path::new(env!("CARGO_TARGET_TMPDIR")).join("fig12_hit_rate");
    let files = run_quick(BIN, &base.join("run"), &["--jobs", "2"]);
    let text =
        std::str::from_utf8(&files["fig12_cluster_scaling.csv"]).expect("summary CSV is UTF-8");

    // Columns: replicas,rate,policy,served,shed,hit_rate,...
    let mut cells: Vec<(usize, String, String, usize, f64)> = Vec::new();
    for line in text.lines().skip(1) {
        let cols: Vec<&str> = line.split(',').collect();
        cells.push((
            cols[0].parse().expect("replicas"),
            cols[1].to_string(),
            cols[2].to_string(),
            cols[4].parse().expect("shed"),
            cols[5].parse().expect("hit_rate"),
        ));
    }
    let mut multi_replica_cells = 0;
    for (replicas, rate, policy, shed, hit) in &cells {
        if *replicas < 2 || policy != "semantic-affinity" {
            continue;
        }
        let (_, _, _, rr_shed, rr_hit) = cells
            .iter()
            .find(|(r, s, p, _, _)| r == replicas && s == rate && p == "round-robin")
            .expect("round-robin cell for the same load");
        assert_eq!(shed, rr_shed, "hit rates compared at unequal shed counts");
        assert!(
            hit >= rr_hit,
            "semantic affinity lost fleet hit rate to round-robin at \
             {replicas} replicas, rate {rate}: {hit:.4} < {rr_hit:.4}"
        );
        multi_replica_cells += 1;
    }
    assert!(
        multi_replica_cells > 0,
        "the quick sweep must contain multi-replica cells"
    );
}
