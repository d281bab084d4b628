//! Perf regression gate: judges several `perf_smoke` runs of the head
//! against several of its parent, made on the same machine (DESIGN.md
//! §16). `scripts/perf_ab.sh` makes the runs and calls this binary.
//!
//! Gate contract ([`fmoe_bench::perf::gate`]):
//!
//! * A scenario fails when its head median `iters_per_s` is more than
//!   15% below the parent median and below the parent's lower quartile.
//! * A parent scenario missing from the head fails.
//! * The matcher fast path falling behind its reference scan (head
//!   medians) fails.
//!
//! Exit status: 0 pass, 1 fail, 2 when the inputs cannot be compared
//! (unreadable file, an empty side, runs with different `--jobs`). The
//! delta table is printed on every verdict.
//!
//! ```sh
//! cargo run --release -p fmoe-bench --bin perf_gate -- \
//!     --parent parent-*.json --head head-*.json
//! ```

use fmoe_bench::perf::{self, PerfReport};

fn load(path: &str) -> Result<PerfReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    PerfReport::from_json(&text).map_err(|e| format!("{path}: {e}"))
}

/// Splits `--parent a.json b.json … --head c.json …` into the two sides.
fn sides(args: &[String]) -> Result<(Vec<PerfReport>, Vec<PerfReport>), String> {
    let (mut parent, mut head) = (Vec::new(), Vec::new());
    let mut side = None;
    for arg in args {
        match arg.as_str() {
            "--parent" => side = Some(&mut parent),
            "--head" => side = Some(&mut head),
            path => side
                .as_mut()
                .ok_or_else(|| format!("`{path}` is neither after --parent nor after --head"))?
                .push(load(path)?),
        }
    }
    Ok((parent, head))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = sides(&args).and_then(|(parent, head)| {
        println!(
            "perf_gate: {} head runs vs {} parent runs (reference = parent median)",
            head.len(),
            parent.len()
        );
        perf::gate(&parent, &head).map_err(|e| e.to_string())
    });
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perf_gate: {e}");
            std::process::exit(2);
        }
    };
    print!("{}", outcome.delta_table());
    if outcome.passed() {
        println!("perf_gate: PASS");
    } else {
        println!(
            "perf_gate: FAIL — a scenario regressed beyond {:.0}% and the parent's scatter (see table)",
            perf::TOLERANCE * 100.0
        );
        std::process::exit(1);
    }
}
