//! The fig11 eviction-policy companion table: SIEVE must beat (or tie)
//! FIFO on the Zipf-skewed trace at every cache size, and the whole
//! binary must emit byte-identical CSVs whether the sweep runs on one
//! worker or four, in separate OS processes.

mod common;

use common::{assert_same_artifacts, run_quick};
use std::collections::{BTreeMap, HashMap};
use std::path::Path;

const BIN: &str = env!("CARGO_BIN_EXE_fig11_cache_limits");

/// Parses `fig11_policy_miss.csv` into (slots → policy → miss ratio).
fn parse_policy_miss(bytes: &[u8]) -> Vec<(u64, HashMap<String, f64>)> {
    let text = String::from_utf8_lossy(bytes);
    let mut lines = text.lines();
    let header: Vec<&str> = lines.next().expect("header row").split(',').collect();
    assert_eq!(header[0], "slots");
    lines
        .filter(|l| !l.trim().is_empty())
        .map(|line| {
            let cells: Vec<&str> = line.split(',').collect();
            assert_eq!(cells.len(), header.len(), "ragged row: {line}");
            let slots: u64 = cells[0].parse().expect("slots cell");
            let ratios = header[1..]
                .iter()
                .zip(&cells[1..])
                .map(|(name, cell)| {
                    let ratio: f64 = cell.parse().expect("ratio cell");
                    assert!((0.0..=1.0).contains(&ratio), "{name}: {ratio}");
                    ((*name).to_string(), ratio)
                })
                .collect();
            (slots, ratios)
        })
        .collect()
}

/// SIEVE must not miss more than FIFO at any swept size, and must beat
/// it somewhere.
fn assert_sieve_never_misses_more_than_fifo(files: &BTreeMap<String, Vec<u8>>) {
    let rows = parse_policy_miss(&files["fig11_policy_miss.csv"]);
    assert!(rows.len() >= 3, "at least three cache sizes swept");
    for (slots, ratios) in &rows {
        let sieve = ratios["SIEVE"];
        let fifo = ratios["FIFO"];
        assert!(
            sieve <= fifo,
            "{slots} slots: SIEVE ({sieve}) must not miss more than FIFO ({fifo}) \
             on a Zipf-skewed trace — the visited bit exists to spare hot experts"
        );
    }
    // The sweep must show real skew sensitivity somewhere, not a
    // degenerate all-equal table.
    assert!(
        rows.iter().any(|(_, r)| r["SIEVE"] < r["FIFO"]),
        "SIEVE should strictly beat FIFO at some size on a skewed trace"
    );
}

/// One pair of runs serves both checks: the policy table is read from
/// the `--jobs 1` artifacts, which the `--jobs 4` run must match byte
/// for byte.
#[test]
fn fig11_jobs1_and_jobs4_agree_and_sieve_never_misses_more_than_fifo() {
    let base = Path::new(env!("CARGO_TARGET_TMPDIR")).join("fig11_policies_jobs");
    let sequential = run_quick(BIN, &base.join("jobs1"), &["--jobs", "1"]);
    let parallel = run_quick(BIN, &base.join("jobs4"), &["--jobs", "4"]);
    assert_same_artifacts(
        &sequential,
        &parallel,
        "--jobs 1 and --jobs 4 differ: the sweep leaked scheduling nondeterminism",
    );
    assert_sieve_never_misses_more_than_fifo(&sequential);
}
