//! Perf-baseline schema and regression gate (DESIGN.md §16).
//!
//! `perf_smoke` writes a [`PerfReport`] to `BENCH_perf.json`; the
//! committed `BENCH_baseline.json` is the same schema frozen at a known
//! good commit. `perf_gate` (and `perf_smoke` itself, informationally)
//! compare the two with [`gate`]:
//!
//! * **Portable invariants** hold on any machine: `sweep_speedup` must
//!   not drop below 1.0 whenever a parallel sweep actually ran, and the
//!   structure-of-arrays matcher fast path must not be slower than its
//!   reference scan.
//! * **Absolute wall-clock comparisons** (requests/sec, matcher
//!   queries/sec, …) are only meaningful between runs on comparable
//!   hardware, so they apply the 15% tolerance **only when the
//!   parallelism + mode fingerprint matches** and are skipped (visibly,
//!   never silently) otherwise. A baseline scenario missing from the
//!   current run fails whatever the fingerprint.
//!
//! Speedups whose numerator or denominator wall time rounds to zero are
//! `None` — serialized as JSON `null` — and skip their gate check
//! rather than reporting a bogus `0.0` or `inf`.
//!
//! The JSON is hand-rolled both ways (the workspace deliberately has no
//! JSON dependency); [`PerfReport::from_json`] is a tiny recursive-
//! descent parser over exactly the value grammar the schema uses. No
//! wall clocks here: timing stays in the bench *binaries* (FM002).

/// Default regression tolerance: 15% (the CI gate contract).
pub const DEFAULT_TOLERANCE: f64 = 0.15;

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

/// Workload size of a `perf_smoke` run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunMode {
    /// CI-sized: seconds, not minutes.
    Quick,
    /// The original full-size workload.
    Full,
}

impl RunMode {
    /// Serialized form.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            RunMode::Quick => "quick",
            RunMode::Full => "full",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        match s {
            "quick" => Some(RunMode::Quick),
            "full" => Some(RunMode::Full),
            _ => None,
        }
    }
}

/// Everything one `perf_smoke` run measured, plus the hardware
/// fingerprint that decides which baseline comparisons are meaningful.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfReport {
    /// `--jobs` as requested on the command line.
    pub jobs: usize,
    /// The machine's available parallelism at run time. Absolute
    /// wall-clock comparisons across runs are only made when this (and
    /// [`Self::mode`]) match.
    pub parallelism: usize,
    /// Workload size.
    pub mode: RunMode,
    /// jobs1 / jobsN sweep wall-time ratio. `None` when no parallel run
    /// happened (one effective worker) or a wall time rounded to zero.
    pub sweep_speedup: Option<f64>,
    /// Per-scenario timings.
    pub records: Vec<PerfRecord>,
}

/// Wall-time ratio `baseline_ms / candidate_ms`, or `None` when either
/// side rounds to zero — a sub-millisecond measurement carries no
/// information, and `0.0` / `inf` would poison downstream gates.
#[must_use]
pub fn speedup(baseline_ms: f64, candidate_ms: f64) -> Option<f64> {
    (baseline_ms > 0.0 && candidate_ms > 0.0).then(|| baseline_ms / candidate_ms)
}

fn json_f64_opt(v: Option<f64>) -> String {
    match v {
        Some(x) => format!("{x:.3}"),
        None => "null".to_string(),
    }
}

impl PerfReport {
    /// The record for `scenario`, if this run produced one.
    #[must_use]
    pub fn record(&self, scenario: &str) -> Option<&PerfRecord> {
        self.records.iter().find(|r| r.scenario == scenario)
    }

    /// Serializes to the `BENCH_perf.json` schema. Speedups that could
    /// not be measured are emitted as `null`, never `0.0`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"bench\": \"perf_smoke\",\n");
        out.push_str(&format!("  \"jobs\": {},\n", self.jobs));
        out.push_str(&format!("  \"parallelism\": {},\n", self.parallelism));
        out.push_str(&format!("  \"mode\": \"{}\",\n", self.mode.as_str()));
        out.push_str(&format!(
            "  \"sweep_speedup\": {},\n",
            json_f64_opt(self.sweep_speedup)
        ));
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
    /// order and whitespace.
    pub fn from_json(s: &str) -> Result<Self, String> {
        let value = parse_json(s)?;
        let obj = value.as_obj().ok_or("top level is not an object")?;
        let num_field = |name: &str| -> Result<f64, String> {
            obj_get(obj, name)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("missing numeric field `{name}`"))
        };
        let opt_field = |name: &str| -> Result<Option<f64>, String> {
            match obj_get(obj, name) {
                Some(JsonValue::Null) => Ok(None),
                Some(v) => v
                    .as_f64()
                    .map(Some)
                    .ok_or_else(|| format!("field `{name}` is neither a number nor null")),
                None => Err(format!("missing field `{name}`")),
            }
        };
        let mode_str = obj_get(obj, "mode")
            .and_then(JsonValue::as_str)
            .ok_or("missing string field `mode`")?;
        let mode = RunMode::parse(mode_str).ok_or_else(|| format!("unknown mode `{mode_str}`"))?;
        let records_val = obj_get(obj, "records")
            .and_then(JsonValue::as_arr)
            .ok_or("missing array field `records`")?;
        let mut records = Vec::with_capacity(records_val.len());
        for rv in records_val {
            let ro = rv.as_obj().ok_or("record is not an object")?;
            let rnum = |name: &str| -> Result<f64, String> {
                obj_get(ro, name)
                    .and_then(JsonValue::as_f64)
                    .ok_or_else(|| format!("record missing numeric field `{name}`"))
            };
            records.push(PerfRecord {
                scenario: obj_get(ro, "scenario")
                    .and_then(JsonValue::as_str)
                    .ok_or("record missing string field `scenario`")?
                    .to_string(),
                wall_ms: rnum("wall_ms")?,
                iters_per_s: rnum("iters_per_s")?,
                jobs: rnum("jobs")? as usize,
            });
        }
        Ok(PerfReport {
            jobs: num_field("jobs")? as usize,
            parallelism: num_field("parallelism")? as usize,
            mode,
            sweep_speedup: opt_field("sweep_speedup")?,
            records,
        })
    }
}

// ---------------------------------------------------------------------
// Minimal JSON value parser (objects, arrays, strings, numbers, null,
// booleans) — just enough for the schema above, no escapes beyond `\"`
// and `\\` (the schema never emits others).

#[derive(Debug, Clone, PartialEq)]
enum JsonValue {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<JsonValue>),
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(a) => Some(a),
            _ => None,
        }
    }

    fn as_obj(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(o) => Some(o),
            _ => None,
        }
    }
}

fn obj_get<'a>(obj: &'a [(String, JsonValue)], name: &str) -> Option<&'a JsonValue> {
    obj.iter().find(|(k, _)| k == name).map(|(_, v)| v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

fn parse_json(s: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn consume(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected `{}` at byte {}",
                char::from(byte),
                self.pos
            ))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b'n') if self.eat_literal("null") => Ok(JsonValue::Null),
            Some(b't') if self.eat_literal("true") => Ok(JsonValue::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(JsonValue::Bool(false)),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.consume(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.consume(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.consume(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.consume(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        _ => return Err(format!("unsupported escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Advance one whole UTF-8 scalar so multi-byte text
                    // in scenario names round-trips.
                    let rest = &self.bytes[self.pos..];
                    let step = match std::str::from_utf8(rest)
                        .ok()
                        .and_then(|s| s.chars().next())
                    {
                        Some(c) => {
                            out.push(c);
                            c.len_utf8()
                        }
                        None => return Err(format!("invalid UTF-8 at byte {}", self.pos)),
                    };
                    self.pos += step;
                }
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(JsonValue::Num)
            .ok_or_else(|| format!("malformed number at byte {start}"))
    }
}

// ---------------------------------------------------------------------
// Gate logic.

/// Verdict of one gate check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckStatus {
    /// Within tolerance / invariant holds.
    Pass,
    /// Regression beyond tolerance / invariant broken.
    Fail,
    /// Not comparable on this pair of runs (reason in `detail`).
    Skip,
}

/// One line of the gate's delta table.
#[derive(Debug, Clone)]
pub struct GateCheck {
    /// What was compared.
    pub name: String,
    /// Baseline value, when one applies.
    pub baseline: Option<f64>,
    /// Current value, when one was measured.
    pub current: Option<f64>,
    /// Verdict.
    pub status: CheckStatus,
    /// Human-readable explanation (why skipped / how far off).
    pub detail: String,
}

/// The full gate result.
#[derive(Debug, Clone)]
pub struct GateOutcome {
    /// Every check, in evaluation order.
    pub checks: Vec<GateCheck>,
}

impl GateOutcome {
    /// Whether no check failed (skips do not fail the gate).
    #[must_use]
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.status != CheckStatus::Fail)
    }

    /// An aligned, human-readable delta table (printed by the CI step on
    /// failure, and by `perf_smoke` informationally).
    #[must_use]
    pub fn delta_table(&self) -> String {
        let fmt_opt = |v: Option<f64>| match v {
            Some(x) => format!("{x:>12.3}"),
            None => format!("{:>12}", "-"),
        };
        let mut out = format!(
            "{:<34} {:>12} {:>12} {:>8}  {}\n",
            "check", "baseline", "current", "status", "detail"
        );
        for c in &self.checks {
            let status = match c.status {
                CheckStatus::Pass => "pass",
                CheckStatus::Fail => "FAIL",
                CheckStatus::Skip => "skip",
            };
            out.push_str(&format!(
                "{:<34} {} {} {:>8}  {}\n",
                c.name,
                fmt_opt(c.baseline),
                fmt_opt(c.current),
                status,
                c.detail
            ));
        }
        out
    }
}

/// Compares `current` against `baseline` (see module docs for the
/// portable-vs-absolute split). `tolerance` is the allowed fractional
/// regression, e.g. `0.15`.
#[must_use]
pub fn gate(baseline: &PerfReport, current: &PerfReport, tolerance: f64) -> GateOutcome {
    let mut checks = Vec::new();

    // Portable invariant: whenever a parallel sweep ran, it must beat
    // sequential. A `null` speedup means no parallel run was possible
    // (one effective worker) — skipped, not failed.
    checks.push(match current.sweep_speedup {
        Some(s) if s < 1.0 => GateCheck {
            name: "sweep_speedup >= 1.0".to_string(),
            baseline: None,
            current: Some(s),
            status: CheckStatus::Fail,
            detail: format!("parallel sweep slower than sequential ({s:.3}x)"),
        },
        Some(s) => GateCheck {
            name: "sweep_speedup >= 1.0".to_string(),
            baseline: None,
            current: Some(s),
            status: CheckStatus::Pass,
            detail: String::new(),
        },
        None => GateCheck {
            name: "sweep_speedup >= 1.0".to_string(),
            baseline: None,
            current: None,
            status: CheckStatus::Skip,
            detail: format!(
                "no parallel sweep ran (parallelism={})",
                current.parallelism
            ),
        },
    });

    // Portable invariant: the matcher fast path must not be slower than
    // its reference scan (tolerance absorbs timer noise).
    checks.push(
        match (
            current.record("matcher_semantic_fast"),
            current.record("matcher_semantic_reference"),
        ) {
            (Some(fast), Some(reference))
                if fast.iters_per_s > 0.0 && reference.iters_per_s > 0.0 =>
            {
                let floor = reference.iters_per_s * (1.0 - tolerance);
                let failed = fast.iters_per_s < floor;
                GateCheck {
                    name: "matcher fast >= reference".to_string(),
                    baseline: Some(reference.iters_per_s),
                    current: Some(fast.iters_per_s),
                    status: if failed {
                        CheckStatus::Fail
                    } else {
                        CheckStatus::Pass
                    },
                    detail: if failed {
                        "fast-path matcher slower than the reference scan".to_string()
                    } else {
                        String::new()
                    },
                }
            }
            _ => GateCheck {
                name: "matcher fast >= reference".to_string(),
                baseline: None,
                current: None,
                status: CheckStatus::Skip,
                detail: "matcher scenarios missing or unmeasurable".to_string(),
            },
        },
    );

    // Absolute comparisons: per-scenario throughput vs the baseline,
    // only on matching hardware/workload fingerprints. A scenario the
    // current run lacks fails on any fingerprint, so a deleted or renamed
    // scenario cannot hide behind a machine change.
    let comparable = baseline.parallelism == current.parallelism && baseline.mode == current.mode;
    for base in &baseline.records {
        let name = format!("{} iters/s", base.scenario);
        let check = match current.record(&base.scenario) {
            None => GateCheck {
                name,
                baseline: Some(base.iters_per_s),
                current: None,
                status: CheckStatus::Fail,
                detail: "scenario missing from current run".to_string(),
            },
            Some(cur) if !comparable => GateCheck {
                name,
                baseline: Some(base.iters_per_s),
                current: Some(cur.iters_per_s),
                status: CheckStatus::Skip,
                detail: format!(
                    "fingerprint differs (baseline parallelism={} mode={}, current parallelism={} mode={})",
                    baseline.parallelism,
                    baseline.mode.as_str(),
                    current.parallelism,
                    current.mode.as_str()
                ),
            },
            Some(cur) if base.iters_per_s > 0.0 && cur.iters_per_s > 0.0 => {
                let floor = base.iters_per_s * (1.0 - tolerance);
                let failed = cur.iters_per_s < floor;
                let delta = (cur.iters_per_s - base.iters_per_s) / base.iters_per_s * 100.0;
                GateCheck {
                    name,
                    baseline: Some(base.iters_per_s),
                    current: Some(cur.iters_per_s),
                    status: if failed {
                        CheckStatus::Fail
                    } else {
                        CheckStatus::Pass
                    },
                    detail: format!("{delta:+.1}%"),
                }
            }
            Some(cur) => GateCheck {
                name,
                baseline: Some(base.iters_per_s),
                current: Some(cur.iters_per_s),
                status: CheckStatus::Skip,
                detail: "wall time rounded to zero; not comparable".to_string(),
            },
        };
        checks.push(check);
    }

    GateOutcome { checks }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> PerfReport {
        PerfReport {
            jobs: 4,
            parallelism: 1,
            mode: RunMode::Quick,
            sweep_speedup: None,
            records: vec![
                PerfRecord {
                    scenario: "sweep_offline_jobs1".to_string(),
                    wall_ms: 1234.5,
                    iters_per_s: 12.15,
                    jobs: 1,
                },
                PerfRecord {
                    scenario: "matcher_semantic_fast".to_string(),
                    wall_ms: 10.0,
                    iters_per_s: 20000.0,
                    jobs: 1,
                },
                PerfRecord {
                    scenario: "matcher_semantic_reference".to_string(),
                    wall_ms: 20.0,
                    iters_per_s: 10000.0,
                    jobs: 1,
                },
            ],
        }
    }

    #[test]
    fn to_json_emits_null_for_unmeasurable_speedups() {
        // Satellite: a denominator that rounds to zero must yield `null`
        // in the JSON — never `0.000` (which the gate would read as a
        // catastrophic regression).
        let json = report().to_json();
        assert!(json.contains("\"sweep_speedup\": null"), "{json}");
        assert!(!json.contains("\"sweep_speedup\": 0.000"), "{json}");
        assert!(json.contains("\"parallelism\": 1"), "{json}");
        assert!(json.contains("\"mode\": \"quick\""), "{json}");
    }

    #[test]
    fn json_round_trips() {
        let original = report();
        let parsed = PerfReport::from_json(&original.to_json());
        assert_eq!(parsed, Ok(original));
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(PerfReport::from_json("").is_err());
        assert!(PerfReport::from_json("{\"jobs\": }").is_err());
        assert!(PerfReport::from_json("[1, 2, 3]").is_err());
        assert!(PerfReport::from_json("{\"jobs\": 1}").is_err());
        let trailing = format!("{} extra", report().to_json());
        assert!(PerfReport::from_json(&trailing).is_err());
    }

    #[test]
    fn speedup_is_none_when_either_side_rounds_to_zero() {
        assert_eq!(speedup(0.0, 10.0), None);
        assert_eq!(speedup(10.0, 0.0), None);
        assert_eq!(speedup(0.0, 0.0), None);
        let s = speedup(20.0, 10.0);
        assert!(s.is_some_and(|v| (v - 2.0).abs() < 1e-12));
    }

    #[test]
    fn gate_passes_identical_runs() {
        let r = report();
        let outcome = gate(&r, &r, DEFAULT_TOLERANCE);
        assert!(outcome.passed(), "{}", outcome.delta_table());
        // The unmeasurable sweep_speedup is skipped, not failed.
        assert!(outcome
            .checks
            .iter()
            .any(|c| c.name.starts_with("sweep_speedup") && c.status == CheckStatus::Skip));
    }

    #[test]
    fn gate_fails_on_throughput_regression_beyond_tolerance() {
        let base = report();
        let mut cur = report();
        if let Some(r) = cur
            .records
            .iter_mut()
            .find(|r| r.scenario == "sweep_offline_jobs1")
        {
            r.iters_per_s = base.records[0].iters_per_s * 0.80; // -20% < -15%
        }
        let outcome = gate(&base, &cur, DEFAULT_TOLERANCE);
        assert!(!outcome.passed(), "{}", outcome.delta_table());
        // Within tolerance passes.
        let mut ok = report();
        if let Some(r) = ok
            .records
            .iter_mut()
            .find(|r| r.scenario == "sweep_offline_jobs1")
        {
            r.iters_per_s = base.records[0].iters_per_s * 0.90; // -10% > -15%
        }
        assert!(gate(&base, &ok, DEFAULT_TOLERANCE).passed());
    }

    #[test]
    fn gate_fails_on_sub_unity_sweep_speedup() {
        let base = report();
        let mut cur = report();
        cur.sweep_speedup = Some(0.876);
        let outcome = gate(&base, &cur, DEFAULT_TOLERANCE);
        assert!(!outcome.passed());
        assert!(outcome
            .checks
            .iter()
            .any(|c| c.name.starts_with("sweep_speedup") && c.status == CheckStatus::Fail));
    }

    #[test]
    fn gate_skips_absolute_comparisons_across_fingerprints() {
        let base = report();
        let mut cur = report();
        cur.parallelism = 4; // different machine
        if let Some(r) = cur
            .records
            .iter_mut()
            .find(|r| r.scenario == "sweep_offline_jobs1")
        {
            r.iters_per_s = 0.1; // would be a huge "regression"
        }
        let outcome = gate(&base, &cur, DEFAULT_TOLERANCE);
        assert!(outcome.passed(), "{}", outcome.delta_table());
        assert!(outcome
            .checks
            .iter()
            .any(|c| c.status == CheckStatus::Skip && c.detail.contains("fingerprint")));
    }

    #[test]
    fn gate_fails_on_missing_scenario_across_fingerprints() {
        let base = report();
        let mut cur = report();
        cur.parallelism = 4; // different machine
        cur.records.retain(|r| r.scenario != "sweep_offline_jobs1");
        let outcome = gate(&base, &cur, DEFAULT_TOLERANCE);
        assert!(!outcome.passed(), "{}", outcome.delta_table());
        assert!(outcome
            .checks
            .iter()
            .any(|c| c.name.starts_with("sweep_offline_jobs1")
                && c.status == CheckStatus::Fail
                && c.detail.contains("missing")));
    }

    #[test]
    fn gate_fails_when_matcher_fast_path_loses_to_reference() {
        let base = report();
        let mut cur = report();
        if let Some(r) = cur
            .records
            .iter_mut()
            .find(|r| r.scenario == "matcher_semantic_fast")
        {
            r.iters_per_s = 5000.0; // reference does 10000
        }
        // Same fingerprint would also fail the absolute check; isolate
        // the portable invariant by changing the fingerprint.
        cur.parallelism = 8;
        let outcome = gate(&base, &cur, DEFAULT_TOLERANCE);
        assert!(!outcome.passed());
        assert!(outcome
            .checks
            .iter()
            .any(|c| c.name.contains("matcher fast") && c.status == CheckStatus::Fail));
    }

    #[test]
    fn delta_table_is_aligned_and_complete() {
        let r = report();
        let outcome = gate(&r, &r, DEFAULT_TOLERANCE);
        let table = outcome.delta_table();
        assert_eq!(table.lines().count(), outcome.checks.len() + 1);
        assert!(table.contains("baseline"));
        assert!(table.contains("status"));
    }
}
