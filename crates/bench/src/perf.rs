//! Perf-report schema and the A/B regression gate (DESIGN.md §16).
//!
//! `perf_smoke` writes one [`PerfReport`] per run to `BENCH_perf.json`.
//! `scripts/perf_ab.sh` runs it for the parent commit and for the head
//! on the same machine, in alternating rounds, and `perf_gate` judges the
//! two sets of runs with [`gate`]:
//!
//! * **Head against parent, per scenario.** A scenario fails when its
//!   head median `iters_per_s` is more than [`TOLERANCE`] below the
//!   parent median *and* below the parent's lower quartile, so a
//!   slowdown must be both large and outside the parent's own scatter.
//!   A parent scenario missing from the head fails.
//! * **Matcher fast path ≥ reference scan**, on the head medians (within
//!   [`TOLERANCE`]).
//!
//! Runs made with different `--jobs` cannot be compared: [`gate`]
//! returns a [`GateError`] for them instead of a verdict.
//!
//! The workspace deliberately has no JSON dependency: [`PerfReport::to_json`]
//! writes the schema by hand, and [`PerfReport::from_json`] reads it
//! through the workspace's one JSON reader, [`fmoe_trace::json::parse`],
//! ignoring fields it does not know. No wall clocks here: timing stays
//! in the bench *binaries* (FM002).

use fmoe_stats::EmpiricalCdf;
use fmoe_trace::json::{self, Value};
use std::fmt;

/// The largest fractional slowdown of a scenario's median, head against
/// parent, that passes whatever the scatter (also the matcher
/// invariant's slack).
pub const TOLERANCE: f64 = 0.15;

/// One timed scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfRecord {
    /// Stable scenario name (`sweep_offline_jobs1`, …).
    pub scenario: String,
    /// Wall time of the whole scenario, milliseconds.
    pub wall_ms: f64,
    /// Scenario iterations per second.
    pub iters_per_s: f64,
    /// Worker threads the scenario used.
    pub jobs: usize,
}

/// Everything one `perf_smoke` run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfReport {
    /// `--jobs` as requested on the command line.
    pub jobs: usize,
    /// Per-scenario timings.
    pub records: Vec<PerfRecord>,
}

impl PerfReport {
    /// The record for `scenario`, if this run produced one.
    #[must_use]
    pub fn record(&self, scenario: &str) -> Option<&PerfRecord> {
        self.records.iter().find(|r| r.scenario == scenario)
    }

    /// Serializes to the `BENCH_perf.json` schema.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"bench\": \"perf_smoke\",\n");
        out.push_str(&format!("  \"jobs\": {},\n", self.jobs));
        out.push_str("  \"records\": [\n");
        for (i, r) in self.records.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"scenario\": \"{}\", \"wall_ms\": {:.3}, \"iters_per_s\": {:.3}, \"jobs\": {}}}{}\n",
                r.scenario,
                r.wall_ms,
                r.iters_per_s,
                r.jobs,
                if i + 1 == self.records.len() { "" } else { "," }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses the `BENCH_perf.json` schema. Strict enough to reject a
    /// truncated or foreign file with a message, lenient about field
    /// order, whitespace and fields it does not read (reports from
    /// older commits carry a few more).
    pub fn from_json(s: &str) -> Result<Self, String> {
        let value = json::parse(s).map_err(|e| e.to_string())?;
        if value.as_object().is_none() {
            return Err("top level is not an object".into());
        }
        let jobs = value
            .get("jobs")
            .and_then(Value::as_f64)
            .ok_or("missing numeric field `jobs`")?;
        let records_val = value
            .get("records")
            .and_then(Value::as_array)
            .ok_or("missing array field `records`")?;
        let mut records = Vec::with_capacity(records_val.len());
        for rv in records_val {
            if rv.as_object().is_none() {
                return Err("record is not an object".into());
            }
            let rnum = |name: &str| -> Result<f64, String> {
                rv.get(name)
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("record missing numeric field `{name}`"))
            };
            records.push(PerfRecord {
                scenario: rv
                    .get("scenario")
                    .and_then(Value::as_str)
                    .ok_or("record missing string field `scenario`")?
                    .to_string(),
                wall_ms: rnum("wall_ms")?,
                iters_per_s: rnum("iters_per_s")?,
                jobs: rnum("jobs")? as usize,
            });
        }
        Ok(PerfReport {
            jobs: jobs as usize,
            records,
        })
    }
}

// ---------------------------------------------------------------------
// Gate logic.

/// Why two sets of runs cannot be compared.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GateError {
    /// One side (`"parent"` or `"head"`) has no runs.
    NoRuns(&'static str),
    /// Not every run used the same `--jobs`.
    JobsMismatch {
        /// The first parent run's `--jobs`.
        expected: usize,
        /// The `--jobs` of the first run that differs.
        found: usize,
    },
}

impl fmt::Display for GateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GateError::NoRuns(side) => write!(f, "no {side} runs to compare"),
            GateError::JobsMismatch { expected, found } => write!(
                f,
                "runs used different --jobs ({expected} and {found}); rerun both sides with one value"
            ),
        }
    }
}

impl std::error::Error for GateError {}

/// One line of the gate's delta table.
#[derive(Debug, Clone)]
pub struct GateCheck {
    /// What was compared.
    pub name: String,
    /// The parent median, or the head's reference-scan median for the
    /// matcher invariant.
    pub reference: Option<f64>,
    /// The head median (the fast path's, for the matcher invariant).
    pub measured: Option<f64>,
    /// Whether the check holds.
    pub passed: bool,
    /// How far off, or what is missing.
    pub detail: String,
}

/// The full gate result.
#[derive(Debug, Clone)]
pub struct GateOutcome {
    /// Every check, in evaluation order.
    pub checks: Vec<GateCheck>,
}

impl GateOutcome {
    /// Whether every check holds.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }

    /// An aligned, human-readable delta table (`perf_gate` prints it on
    /// every run).
    #[must_use]
    pub fn delta_table(&self) -> String {
        let fmt_opt = |v: Option<f64>| match v {
            Some(x) => format!("{x:>12.1}"),
            None => format!("{:>12}", "-"),
        };
        let mut out = format!(
            "{:<40} {:>12} {:>12} {:>6}  {}\n",
            "check", "reference", "measured", "status", "detail"
        );
        for c in &self.checks {
            out.push_str(&format!(
                "{:<40} {} {} {:>6}  {}\n",
                c.name,
                fmt_opt(c.reference),
                fmt_opt(c.measured),
                if c.passed { "pass" } else { "FAIL" },
                c.detail
            ));
        }
        out
    }
}

/// Every run's `iters_per_s` for `scenario`.
fn samples(runs: &[PerfReport], scenario: &str) -> EmpiricalCdf {
    EmpiricalCdf::new(
        runs.iter()
            .filter_map(|r| r.record(scenario))
            .map(|r| r.iters_per_s)
            .collect(),
    )
}

/// Compares the `head` runs against the `parent` runs of the same
/// machine (see the module docs for the rule).
///
/// # Errors
///
/// [`GateError`] when a side has no runs or the runs disagree on
/// `--jobs`.
pub fn gate(parent: &[PerfReport], head: &[PerfReport]) -> Result<GateOutcome, GateError> {
    let first = parent.first().ok_or(GateError::NoRuns("parent"))?;
    if head.is_empty() {
        return Err(GateError::NoRuns("head"));
    }
    if let Some(r) = parent.iter().chain(head).find(|r| r.jobs != first.jobs) {
        return Err(GateError::JobsMismatch {
            expected: first.jobs,
            found: r.jobs,
        });
    }

    let mut scenarios: Vec<&str> = Vec::new();
    for r in parent.iter().flat_map(|run| &run.records) {
        if !scenarios.contains(&r.scenario.as_str()) {
            scenarios.push(&r.scenario);
        }
    }
    let mut checks = Vec::with_capacity(scenarios.len() + 1);
    for scenario in scenarios {
        let base = samples(parent, scenario);
        let (reference, measured) = (base.median(), samples(head, scenario).median());
        let (passed, detail) = match (reference, base.quantile(0.25), measured) {
            (Some(p_med), Some(p_q1), Some(h_med)) => {
                let ratio = h_med / p_med;
                (
                    ratio >= 1.0 - TOLERANCE || h_med >= p_q1,
                    format!("{:+.1}% (parent q1 {p_q1:.1})", (ratio - 1.0) * 100.0),
                )
            }
            (_, _, None) => (false, "scenario missing from head".to_string()),
            _ => (false, "no finite parent timing".to_string()),
        };
        checks.push(GateCheck {
            name: format!("{scenario} iters/s"),
            reference,
            measured,
            passed,
            detail,
        });
    }

    let fast = samples(head, "matcher_semantic_fast").median();
    let reference = samples(head, "matcher_semantic_reference").median();
    let (passed, detail) = match (fast, reference) {
        (Some(f), Some(r)) => (f >= r * (1.0 - TOLERANCE), format!("{:.2}x", f / r)),
        _ => (false, "matcher scenarios missing from head".to_string()),
    };
    checks.push(GateCheck {
        name: "matcher fast >= reference (head)".to_string(),
        reference,
        measured: fast,
        passed,
        detail,
    });
    Ok(GateOutcome { checks })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Per-round scatter around a scenario's median, as a factor: the
    /// 10-round spread of a quick run on a 2-vCPU VM is about this wide.
    const SCATTER: [f64; 10] = [0.80, 1.12, 0.95, 1.04, 0.88, 1.20, 1.00, 0.92, 1.08, 1.00];

    fn run(factor: f64) -> PerfReport {
        let record = |scenario: &str, iters_per_s: f64| PerfRecord {
            scenario: scenario.to_string(),
            wall_ms: 100.0,
            iters_per_s: iters_per_s * factor,
            jobs: 1,
        };
        PerfReport {
            jobs: 2,
            records: vec![
                record("sweep_offline_jobs1", 4.5),
                record("matcher_semantic_fast", 20000.0),
                record("matcher_semantic_reference", 10000.0),
                record("router_prefill", 12000.0),
            ],
        }
    }

    /// One run per factor.
    fn runs(factors: [f64; 10]) -> Vec<PerfReport> {
        factors.iter().map(|&f| run(f)).collect()
    }

    /// `SCATTER` mirrored around 1: other values, the same median.
    fn mirrored() -> [f64; 10] {
        SCATTER.map(|s| 2.0 - s)
    }

    fn scale_scenario(runs: &mut [PerfReport], scenario: &str, factor: f64) {
        for r in runs.iter_mut().flat_map(|run| &mut run.records) {
            if r.scenario == scenario {
                r.iters_per_s *= factor;
            }
        }
    }

    fn failed(outcome: &GateOutcome) -> Vec<&str> {
        outcome
            .checks
            .iter()
            .filter(|c| !c.passed)
            .map(|c| c.name.as_str())
            .collect()
    }

    #[test]
    fn json_round_trips_the_slim_schema() {
        let original = run(1.0);
        let json = original.to_json();
        for retired in ["parallelism", "mode", "sweep_speedup"] {
            assert!(!json.contains(retired), "{json}");
        }
        assert_eq!(PerfReport::from_json(&json), Ok(original));
    }

    #[test]
    fn from_json_reads_reports_with_retired_fields() {
        // Parents from before the A/B gate still write these fields.
        let old = "{\"bench\": \"perf_smoke\", \"jobs\": 2, \"parallelism\": 2, \
                   \"mode\": \"quick\", \"sweep_speedup\": null, \"records\": [\
                   {\"scenario\": \"router_decode\", \"wall_ms\": 1.5, \"iters_per_s\": 2.0, \"jobs\": 1}]}";
        let report = PerfReport::from_json(old).expect("old schema parses");
        assert_eq!(report.jobs, 2);
        assert_eq!(report.records[0].scenario, "router_decode");
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(PerfReport::from_json("").is_err());
        assert!(PerfReport::from_json("{\"jobs\": }").is_err());
        assert!(PerfReport::from_json("[1, 2, 3]").is_err());
        assert!(PerfReport::from_json("{\"jobs\": 1}").is_err());
        let trailing = format!("{} extra", run(1.0).to_json());
        assert!(PerfReport::from_json(&trailing).is_err());
    }

    #[test]
    fn gate_passes_identical_sets() {
        let set = runs(SCATTER);
        let outcome = gate(&set, &set).expect("comparable");
        assert!(outcome.passed(), "{}", outcome.delta_table());
    }

    #[test]
    fn gate_passes_parent_sized_scatter_around_the_same_median() {
        let outcome = gate(&runs(SCATTER), &runs(mirrored())).expect("comparable");
        assert!(outcome.passed(), "{}", outcome.delta_table());
    }

    #[test]
    fn gate_fails_a_scenario_at_half_speed() {
        let parent = runs(SCATTER);
        let mut head = runs(mirrored());
        scale_scenario(&mut head, "router_prefill", 0.5);
        let outcome = gate(&parent, &head).expect("comparable");
        assert_eq!(
            failed(&outcome),
            ["router_prefill iters/s"],
            "{}",
            outcome.delta_table()
        );
    }

    #[test]
    fn gate_needs_a_large_drop_outside_the_parent_scatter() {
        // A 20% drop in the median fails when it leaves the parent's
        // lower quartile behind…
        let parent = runs(SCATTER);
        let mut head = runs(SCATTER);
        scale_scenario(&mut head, "sweep_offline_jobs1", 0.8);
        assert_eq!(
            failed(&gate(&parent, &head).expect("comparable")),
            ["sweep_offline_jobs1 iters/s"]
        );
        // …passes when the parent itself scattered that low…
        let mut wide = runs(SCATTER);
        for run in wide.iter_mut().take(3) {
            run.records[0].iters_per_s *= 0.5;
        }
        assert!(gate(&wide, &head).expect("comparable").passed());
        // …and a drop within the tolerance passes whatever the scatter.
        let mut near = runs(SCATTER);
        scale_scenario(&mut near, "sweep_offline_jobs1", 0.9);
        assert!(gate(&parent, &near).expect("comparable").passed());
    }

    #[test]
    fn gate_fails_on_a_parent_scenario_missing_from_head() {
        let parent = runs(SCATTER);
        let mut head = runs(SCATTER);
        for run in &mut head {
            run.records.retain(|r| r.scenario != "router_prefill");
        }
        let outcome = gate(&parent, &head).expect("comparable");
        assert_eq!(failed(&outcome), ["router_prefill iters/s"]);
        assert!(outcome.checks.iter().any(|c| c.detail.contains("missing")));
    }

    #[test]
    fn gate_fails_when_matcher_fast_path_loses_to_reference() {
        let mut set = runs(SCATTER);
        scale_scenario(&mut set, "matcher_semantic_fast", 0.25);
        let outcome = gate(&set, &set).expect("comparable");
        assert_eq!(failed(&outcome), ["matcher fast >= reference (head)"]);
    }

    #[test]
    fn gate_rejects_mismatched_jobs_and_empty_sides() {
        let parent = runs(SCATTER);
        let mut head = runs(SCATTER);
        head[3].jobs = 4;
        assert_eq!(
            gate(&parent, &head).err(),
            Some(GateError::JobsMismatch {
                expected: 2,
                found: 4
            })
        );
        assert_eq!(gate(&[], &parent).err(), Some(GateError::NoRuns("parent")));
        assert_eq!(gate(&parent, &[]).err(), Some(GateError::NoRuns("head")));
    }

    #[test]
    fn delta_table_is_aligned_and_complete() {
        let set = runs(SCATTER);
        let outcome = gate(&set, &set).expect("comparable");
        let table = outcome.delta_table();
        // Four scenarios plus the matcher invariant, under one header.
        assert_eq!(outcome.checks.len(), 5);
        assert_eq!(table.lines().count(), outcome.checks.len() + 1);
        assert!(table.contains("reference"));
        assert!(table.contains("status"));
    }
}
