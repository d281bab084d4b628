//! Metric records, the percentile rule, and the one-line JSON result the
//! benchmark prints last.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Fewest samples a reported percentile must leave above it: p90 over
/// 100 requests leaves exactly 10.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Nearest-rank `q`-quantile of `values`, or `None` when fewer than
/// [`MIN_TAIL_SAMPLES`] samples lie above the chosen rank.
#[must_use]
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    let n = values.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    if n < rank + MIN_TAIL_SAMPLES {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Median of wall-clock samples (the mean of the middle pair for an even
/// count); `NaN` for no samples.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// One reported number with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The value as measured.
    pub value: f64,
    /// Unit, e.g. `ms`, `s`, `tok/s`, `count`.
    pub unit: String,
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunResult {
    /// Every output check passed.
    pub correct: bool,
    /// Requests sent, over every measured pass.
    pub attempted: u64,
    /// Requests neither served nor shed by the SLO policy.
    pub failed: u64,
    /// Metrics by name.
    pub metrics: BTreeMap<String, Metric>,
}

impl RunResult {
    /// Records `name = value unit`.
    pub fn put(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.insert(
            name.to_owned(),
            Metric {
                value,
                unit: unit.to_owned(),
            },
        );
    }

    /// One-line JSON. Values print in Rust's shortest round-trip form, so
    /// every measured digit survives; a non-finite value prints as `null`
    /// (the caller fails the run before that can happen).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, metric)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let value = if metric.value.is_finite() {
                format!("{}", metric.value)
            } else {
                "null".to_owned()
            };
            let _ = write!(
                out,
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                quote(name),
                quote(&metric.unit)
            );
        }
        out.push_str("}}");
        out
    }

    /// Parses a line written by [`Self::to_json`] (the round-trip test's
    /// reader).
    ///
    /// # Errors
    ///
    /// Describes the first malformed or missing field.
    #[cfg(test)]
    pub fn from_json(text: &str) -> Result<Self, String> {
        let mut parser = Parser {
            text: text.as_bytes(),
            at: 0,
        };
        let Json::Object(fields) = parser.value()? else {
            return Err("result is not an object".into());
        };
        parser.skip_space();
        if parser.at != parser.text.len() {
            return Err(format!("trailing text at byte {}", parser.at));
        }
        let field = |name: &str| {
            fields
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("missing {name:?}"))
        };
        let count = |name: &str| match field(name)? {
            Json::Number(n) if *n >= 0.0 && n.fract() == 0.0 => Ok(*n as u64),
            _ => Err(format!("{name:?} is not a whole number")),
        };
        let Json::Bool(correct) = field("correct")? else {
            return Err("\"correct\" is not a boolean".into());
        };
        let Json::Object(entries) = field("metrics")? else {
            return Err("\"metrics\" is not an object".into());
        };
        let mut metrics = BTreeMap::new();
        for (name, entry) in entries {
            let Json::Object(parts) = entry else {
                return Err(format!("metric {name:?} is not an object"));
            };
            let (mut value, mut unit) = (None, None);
            for (key, part) in parts {
                match (key.as_str(), part) {
                    ("value", Json::Number(n)) => value = Some(*n),
                    ("unit", Json::String(s)) => unit = Some(s.clone()),
                    _ => return Err(format!("metric {name:?} has a bad field {key:?}")),
                }
            }
            let (Some(value), Some(unit)) = (value, unit) else {
                return Err(format!("metric {name:?} lacks a value or unit"));
            };
            metrics.insert(name.clone(), Metric { value, unit });
        }
        Ok(Self {
            correct: *correct,
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
        })
    }
}

/// A JSON string literal for `s` (metric names and units are plain ASCII;
/// quotes and backslashes are escaped regardless).
fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        if c == '"' || c == '\\' {
            out.push('\\');
        }
        out.push(c);
    }
    out.push('"');
    out
}

/// The JSON subset [`RunResult::to_json`] writes.
#[cfg(test)]
enum Json {
    Bool(bool),
    Number(f64),
    String(String),
    Object(Vec<(String, Json)>),
}

#[cfg(test)]
struct Parser<'a> {
    text: &'a [u8],
    at: usize,
}

#[cfg(test)]
impl Parser<'_> {
    fn skip_space(&mut self) {
        while self.text.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> Result<(), String> {
        self.skip_space();
        if self.text.get(self.at) == Some(&byte) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", byte as char, self.at))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_space();
        match self.text.get(self.at) {
            Some(b'{') => self.object(),
            Some(b'"') => self.string().map(Json::String),
            Some(b't') => self.word("true", Json::Bool(true)),
            Some(b'f') => self.word("false", Json::Bool(false)),
            Some(_) => self.number(),
            None => Err("unexpected end of input".into()),
        }
    }

    fn word(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.text[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.at))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        while self
            .text
            .get(self.at)
            .is_some_and(|b| b.is_ascii_digit() || b"+-.eE".contains(b))
        {
            self.at += 1;
        }
        std::str::from_utf8(&self.text[start..self.at])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Number)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut bytes = Vec::new();
        loop {
            match self.text.get(self.at) {
                Some(b'"') => {
                    self.at += 1;
                    return String::from_utf8(bytes).map_err(|e| e.to_string());
                }
                Some(b'\\') => {
                    let escaped = self.text.get(self.at + 1).ok_or("unterminated escape")?;
                    bytes.push(*escaped);
                    self.at += 2;
                }
                Some(&b) => {
                    bytes.push(b);
                    self.at += 1;
                }
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_space();
        if self.text.get(self.at) == Some(&b'}') {
            self.at += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_space();
            let key = self.string()?;
            self.eat(b':')?;
            fields.push((key, self.value()?));
            self.skip_space();
            match self.text.get(self.at) {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.at)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: u32) -> Vec<f64> {
        (1..=n).map(f64::from).collect()
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        assert_eq!(percentile(&ramp(100), 0.9), Some(90.0));
        assert_eq!(percentile(&ramp(99), 0.9), None, "9 samples beyond p90");
        assert_eq!(percentile(&ramp(20), 0.5), Some(10.0));
        assert_eq!(percentile(&ramp(19), 0.5), None, "9 samples beyond p50");
        assert_eq!(percentile(&[], 0.5), None);
        // Order of the input does not matter.
        let mut shuffled = ramp(100);
        shuffled.reverse();
        assert_eq!(percentile(&shuffled, 0.5), Some(50.0));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn metrics_json_round_trips() {
        let mut result = RunResult {
            correct: true,
            attempted: 1200,
            failed: 0,
            metrics: BTreeMap::new(),
        };
        result.put("latency_p90_ms", 1_234.567_890_123_4, "ms");
        result.put("sim_tokens_per_s", 0.1 + 0.2, "tok/s");
        result.put("setup_s", 1e-7, "s");
        result.put("cache.lookups", 54_321.0, "count");
        result.put("odd \"name\"", -2.5e300, "1/s");
        let line = result.to_json();
        assert!(!line.contains('\n'));
        let back = RunResult::from_json(&line).expect("own output parses");
        assert_eq!(back, result, "{line}");
        // Bit-exact values, not merely close ones.
        for (name, metric) in &result.metrics {
            assert_eq!(metric.value.to_bits(), back.metrics[name].value.to_bits());
        }
    }

    #[test]
    fn malformed_results_are_refused() {
        assert!(RunResult::from_json("").is_err());
        assert!(RunResult::from_json("{\"correct\": true}").is_err());
        assert!(RunResult::from_json(
            "{\"correct\": 1, \"attempted\": 1, \"failed\": 0, \"metrics\": {}}"
        )
        .is_err());
        assert!(RunResult::from_json(
            "{\"correct\": true, \"attempted\": 1.5, \"failed\": 0, \"metrics\": {}}"
        )
        .is_err());
    }
}
