//! End-to-end tests of the `fmoe_sim` command-line tool: spawn the real
//! binary and check its contract (exit codes, output shape, the
//! serve → save-store → analyze-store round trip).

use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

/// `<CARGO_TARGET_TMPDIR>/fmoe_sim_cli/<name>`, created.
fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join("fmoe_sim_cli")
        .join(name);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Runs `fmoe_sim` in a scratch directory of its own, so the CSVs it
/// writes under `results/` land outside the source tree and no two calls
/// (tests run in parallel) write the same file.
fn fmoe_sim(args: &[&str]) -> (bool, String) {
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let call = CALLS.fetch_add(1, Ordering::Relaxed);
    let out = Command::new(env!("CARGO_BIN_EXE_fmoe_sim"))
        .args(args)
        .current_dir(scratch(&format!("call{call}")))
        .output()
        .expect("binary runs");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.success(), text)
}

#[test]
fn list_prints_the_registries() {
    let (ok, text) = fmoe_sim(&["list"]);
    assert!(ok);
    for needle in ["mixtral", "deepseek", "sharegpt", "swapmoe", "oracle"] {
        assert!(text.contains(needle), "missing {needle} in: {text}");
    }
}

#[test]
fn serve_offline_prints_metrics() {
    let (ok, text) = fmoe_sim(&[
        "serve",
        "--model",
        "small",
        "--dataset",
        "tiny",
        "--requests",
        "2",
        "--decode",
        "4",
    ]);
    assert!(ok, "{text}");
    assert!(text.contains("Small-Test-MoE"));
    assert!(text.contains("TTFT"));
    assert!(text.contains('%'), "hit rate column expected: {text}");
}

#[test]
fn serve_online_with_slots_runs_continuous_batching() {
    let (ok, text) = fmoe_sim(&[
        "serve",
        "--model",
        "small",
        "--dataset",
        "tiny",
        "--requests",
        "3",
        "--decode",
        "4",
        "--online",
        "--slots",
        "2",
    ]);
    assert!(ok, "{text}");
    assert!(text.contains("(online)"));
}

#[test]
fn an_unusable_command_line_exits_2_with_the_usage_before_anything_runs() {
    for args in [
        &[][..],
        &["bogus"],
        &["list", "--no-such-flag"],
        &["serve", "--model", "gpt5"],
        &["serve", "--requests", "x"],
        &["serve", "--seed", "-1"],
        &["sweep", "--param", "nonsense", "--values", "1"],
        &["analyze-store"],
    ] {
        let name = format!("refused{}", args.join("_"));
        let _ = std::fs::remove_dir_all(scratch(&name));
        let dir = scratch(&name);
        let out = Command::new(env!("CARGO_BIN_EXE_fmoe_sim"))
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
        let left = std::fs::read_dir(&dir).expect("scratch dir").count();
        assert_eq!(left, 0, "{args:?} wrote files");
    }
}

#[test]
fn unknown_names_fail_with_a_clear_error() {
    let (ok, text) = fmoe_sim(&["serve", "--model", "gpt5"]);
    assert!(!ok);
    assert!(text.contains("unknown --model"), "{text}");
    let (ok, text) = fmoe_sim(&["sweep", "--param", "nonsense", "--values", "1"]);
    assert!(!ok);
    assert!(
        text.contains("unknown sweep param") || text.contains("error"),
        "{text}"
    );
}

#[test]
fn store_round_trip_through_the_cli() {
    let store_path = scratch("store").join("cli_store.fmoe");
    let store_str = store_path.to_str().unwrap();

    let (ok, text) = fmoe_sim(&[
        "serve",
        "--model",
        "small",
        "--dataset",
        "tiny",
        "--requests",
        "2",
        "--decode",
        "4",
        "--save-store",
        store_str,
    ]);
    assert!(ok, "{text}");
    assert!(text.contains("saved"), "{text}");
    assert!(store_path.exists());

    let (ok, text) = fmoe_sim(&["analyze-store", "--file", store_str]);
    assert!(ok, "{text}");
    assert!(text.contains("entries:"));
    assert!(text.contains("8 layers x 8 experts"));
    std::fs::remove_file(&store_path).unwrap();
}

#[test]
fn timeline_renders_events() {
    let (ok, text) = fmoe_sim(&[
        "timeline",
        "--model",
        "small",
        "--dataset",
        "tiny",
        "--requests",
        "2",
    ]);
    assert!(ok, "{text}");
    // One `events_text` line per trace record: iteration begins and ends
    // pair up, and every layer's gate span is there.
    let lines = |kind: &str| text.lines().filter(|l| l.contains(kind)).count();
    let begins = lines(" B iteration ");
    assert!(begins > 0, "{text}");
    assert_eq!(begins, lines(" E iteration "), "{text}");
    assert!(lines(" X gate ") >= begins, "{text}");
}

#[test]
fn sweep_emits_one_row_per_value() {
    let (ok, text) = fmoe_sim(&[
        "sweep",
        "--param",
        "distance",
        "--values",
        "1,4",
        "--model",
        "small",
        "--dataset",
        "tiny",
        "--requests",
        "2",
        "--decode",
        "4",
    ]);
    assert!(ok, "{text}");
    // Both sweep values appear as leading row labels.
    assert!(
        text.lines().any(|l| l.trim_start().starts_with("1 ")),
        "{text}"
    );
    assert!(
        text.lines().any(|l| l.trim_start().starts_with("4 ")),
        "{text}"
    );
}
