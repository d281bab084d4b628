//! Trace-export contract for the bench pipeline: `fig9_overall --quick
//! --trace` must emit a Chrome-trace JSON that (a) parses as valid JSON
//! and (b) is byte-identical across two separate processes — the trace
//! recorder is part of the determinism surface (DESIGN.md §10), not an
//! exception to it.

mod common;

use common::{assert_same_artifacts, run_quick};
use std::path::Path;

const BIN: &str = env!("CARGO_BIN_EXE_fig9_overall");

#[test]
fn quick_bench_trace_export_is_valid_json_and_cross_process_deterministic() {
    let base = Path::new(env!("CARGO_TARGET_TMPDIR")).join("chrome_trace");
    let first = run_quick(BIN, &base.join("run1"), &["--trace"]);

    let chrome_json =
        std::str::from_utf8(&first["fig9_overall_trace.json"]).expect("trace JSON is UTF-8");
    fmoe_trace::json::validate(chrome_json)
        .unwrap_or_else(|e| panic!("Chrome-trace export is not valid JSON: {e:?}"));
    assert!(
        chrome_json.contains("\"traceEvents\""),
        "export must carry the Chrome-trace top-level key"
    );
    assert!(
        !first["fig9_overall_phases.csv"].is_empty()
            && !first["fig9_overall_metrics.csv"].is_empty(),
        "phase and metrics CSVs must be non-empty"
    );

    let second = run_quick(BIN, &base.join("run2"), &["--trace"]);
    assert_same_artifacts(
        &first,
        &second,
        "the trace JSON, phase breakdown and metrics CSV must not change \
         between two identical --trace runs",
    );
}
