//! Deterministic metrics: counters, gauges, fixed-bucket histograms.
//!
//! Everything is keyed by name in `BTreeMap`s so iteration (and thus
//! every rendered export) is lexicographically ordered — no hash-order
//! nondeterminism, per the FM001 contract. Histograms use fixed upper
//! bounds chosen at registration time; observations are integer
//! nanoseconds/bytes, never floats, so two identical runs render the
//! same bytes.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Default histogram bucket upper bounds (inclusive), in nanoseconds:
/// 1µs, 10µs, 100µs, 1ms, 10ms, 100ms, 1s. Observations beyond the last
/// bound land in the overflow bucket.
pub const DEFAULT_LATENCY_BOUNDS_NS: [u64; 7] = [
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
];

/// A histogram with fixed, inclusive upper-bound buckets plus one
/// overflow bucket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FixedHistogram {
    bounds: Vec<u64>,
    counts: Vec<u64>,
    total: u64,
    sum: u64,
}

impl FixedHistogram {
    /// Build a histogram over the given upper bounds. Bounds are sorted
    /// and deduplicated; `counts` gets one extra overflow bucket.
    #[must_use]
    pub fn new(bounds: &[u64]) -> Self {
        let mut bounds: Vec<u64> = bounds.to_vec();
        bounds.sort_unstable();
        bounds.dedup();
        let counts = vec![0; bounds.len() + 1];
        FixedHistogram {
            bounds,
            counts,
            total: 0,
            sum: 0,
        }
    }

    /// Record one observation.
    pub fn observe(&mut self, value: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.total += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Total number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Saturating sum of all observed values.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The configured upper bounds (sorted, deduplicated).
    #[must_use]
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Per-bucket counts; the final entry is the overflow bucket.
    #[must_use]
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }
}

/// Named counters, gauges, and histograms with deterministic iteration.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
    histograms: BTreeMap<String, FixedHistogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Whether no metric has been touched yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Add `delta` to a counter, creating it at zero first.
    pub fn add(&mut self, name: &str, delta: u64) {
        let slot = match self.counters.get_mut(name) {
            Some(v) => v,
            None => self.counters.entry(name.to_string()).or_insert(0),
        };
        *slot = slot.saturating_add(delta);
    }

    /// Current value of a counter (zero if never touched).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Set a gauge to `value`.
    pub fn set_gauge(&mut self, name: &str, value: u64) {
        match self.gauges.get_mut(name) {
            Some(v) => *v = value,
            None => {
                self.gauges.insert(name.to_string(), value);
            }
        }
    }

    /// Current value of a gauge, if it was ever set.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.get(name).copied()
    }

    /// Register a histogram with explicit bucket bounds. Observing into
    /// an unregistered name uses [`DEFAULT_LATENCY_BOUNDS_NS`].
    pub fn register_histogram(&mut self, name: &str, bounds: &[u64]) {
        if !self.histograms.contains_key(name) {
            self.histograms
                .insert(name.to_string(), FixedHistogram::new(bounds));
        }
    }

    /// Observe a value into the named histogram.
    pub fn observe(&mut self, name: &str, value: u64) {
        if let Some(h) = self.histograms.get_mut(name) {
            h.observe(value);
            return;
        }
        let mut h = FixedHistogram::new(&DEFAULT_LATENCY_BOUNDS_NS);
        h.observe(value);
        self.histograms.insert(name.to_string(), h);
    }

    /// The named histogram, if any observation or registration created it.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&FixedHistogram> {
        self.histograms.get(name)
    }

    /// Iterate counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Iterate gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, u64)> {
        self.gauges.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Render the registry as CSV with header `kind,name,field,value`.
    /// Rows are emitted in deterministic (kind, name, field) order;
    /// histograms expand to one row per bucket plus `count` and `sum`.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from("kind,name,field,value\n");
        for (name, value) in &self.counters {
            let _ = writeln!(out, "counter,{name},value,{value}");
        }
        for (name, value) in &self.gauges {
            let _ = writeln!(out, "gauge,{name},value,{value}");
        }
        for (name, hist) in &self.histograms {
            for (i, count) in hist.bucket_counts().iter().enumerate() {
                match hist.bounds().get(i) {
                    Some(bound) => {
                        let _ = writeln!(out, "histogram,{name},le_{bound},{count}");
                    }
                    None => {
                        let _ = writeln!(out, "histogram,{name},le_inf,{count}");
                    }
                }
            }
            let _ = writeln!(out, "histogram,{name},count,{}", hist.count());
            let _ = writeln!(out, "histogram,{name},sum,{}", hist.sum());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_inclusive_upper_bounds() {
        let mut h = FixedHistogram::new(&[10, 100]);
        h.observe(10); // lands in le_10 (inclusive)
        h.observe(11); // lands in le_100
        h.observe(101); // overflow
        assert_eq!(h.bucket_counts(), &[1, 1, 1]);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 122);
    }

    #[test]
    fn bounds_are_sorted_and_deduped() {
        let h = FixedHistogram::new(&[100, 10, 100, 1]);
        assert_eq!(h.bounds(), &[1, 10, 100]);
        assert_eq!(h.bucket_counts().len(), 4);
    }

    #[test]
    fn csv_render_is_deterministic_and_ordered() {
        let mut m = MetricsRegistry::new();
        m.add("b.count", 2);
        m.add("a.count", 1);
        m.set_gauge("z.gauge", 9);
        m.register_histogram("lat", &[100]);
        m.observe("lat", 50);
        let csv = m.to_csv();
        let expected = "kind,name,field,value\n\
                        counter,a.count,value,1\n\
                        counter,b.count,value,2\n\
                        gauge,z.gauge,value,9\n\
                        histogram,lat,le_100,1\n\
                        histogram,lat,le_inf,0\n\
                        histogram,lat,count,1\n\
                        histogram,lat,sum,50\n";
        assert_eq!(csv, expected);
        assert_eq!(csv, m.clone().to_csv(), "render is pure");
    }

    #[test]
    fn unregistered_observation_uses_default_bounds() {
        let mut m = MetricsRegistry::new();
        m.observe("x", 5_000);
        let h = m.histogram("x").unwrap();
        assert_eq!(h.bounds(), &DEFAULT_LATENCY_BOUNDS_NS);
        assert_eq!(h.count(), 1);
    }
}
