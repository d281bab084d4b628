//! [`TraceSink`] — the handle the simulation threads through itself.
//!
//! A sink is either *disabled* (the default: a `None`, so every emission
//! is one branch and an immediate return — no allocation, no clock
//! reads, no observable effect on the run) or *recording*, in which case
//! it shares one [`RingRecorder`] + [`MetricsRegistry`] behind an
//! `Arc<Mutex<..>>`. Cloning a recording sink clones the handle, not
//! the buffer, so the serving engine can hand the same sink to its
//! transfer engine and expert cache and all three interleave into one
//! causally-ordered timeline.
//!
//! The handle is `Send + Sync`, so structures that *contain* a sink (the
//! serving engine, transfer engine and expert cache) stay `Send + Sync`
//! too. The simulation path itself stays single-threaded by design
//! (DESIGN.md §10 — determinism forbids cross-thread interleaving in the
//! sim path); the disabled-path cost is still a pointer-sized `Option`
//! check, and the enabled path pays one uncontended lock per emission.

use crate::event::{Marker, Nanos, Phase, TraceRecord};
use crate::metrics::MetricsRegistry;
use crate::recorder::RingRecorder;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

#[derive(Debug)]
struct SinkState {
    recorder: RingRecorder,
    metrics: MetricsRegistry,
}

fn lock(state: &Mutex<SinkState>) -> MutexGuard<'_, SinkState> {
    // A panic while holding the lock poisons it; tracing is
    // observation-only, so recover the inner state rather than
    // propagating the poison.
    state.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Cheaply clonable tracing handle. See the module docs.
#[derive(Debug, Clone, Default)]
pub struct TraceSink {
    inner: Option<Arc<Mutex<SinkState>>>,
}

impl TraceSink {
    /// A sink that records nothing. Every emission is a no-op; this is
    /// the zero-cost default every component starts with.
    #[must_use]
    pub fn disabled() -> Self {
        TraceSink { inner: None }
    }

    /// A sink recording into a fresh ring buffer of `capacity` records.
    #[must_use]
    pub fn recording(capacity: usize) -> Self {
        TraceSink {
            inner: Some(Arc::new(Mutex::new(SinkState {
                recorder: RingRecorder::with_capacity(capacity),
                metrics: MetricsRegistry::new(),
            }))),
        }
    }

    /// Whether emissions are being recorded.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Open a phase span at virtual time `at_ns`.
    pub fn begin(&self, at_ns: Nanos, phase: Phase, request: u64, layer: u32) {
        if let Some(state) = &self.inner {
            lock(state).recorder.begin(at_ns, phase, request, layer);
        }
    }

    /// Close a phase span at virtual time `at_ns`.
    pub fn end(&self, at_ns: Nanos, phase: Phase, request: u64, layer: u32) {
        if let Some(state) = &self.inner {
            lock(state).recorder.end(at_ns, phase, request, layer);
        }
    }

    /// Record a complete interval retroactively at its end time.
    #[allow(clippy::too_many_arguments)]
    pub fn span(
        &self,
        end_ns: Nanos,
        phase: Phase,
        request: u64,
        layer: u32,
        gpu: u32,
        dur_ns: Nanos,
        bytes: u64,
    ) {
        if let Some(state) = &self.inner {
            lock(state)
                .recorder
                .span(end_ns, phase, request, layer, gpu, dur_ns, bytes);
        }
    }

    /// Record a point event.
    #[allow(clippy::too_many_arguments)]
    pub fn instant(
        &self,
        at_ns: Nanos,
        marker: Marker,
        request: u64,
        layer: u32,
        slot: u32,
        gpu: u32,
        value: u64,
    ) {
        if let Some(state) = &self.inner {
            lock(state)
                .recorder
                .instant(at_ns, marker, request, layer, slot, gpu, value);
        }
    }

    /// Add `delta` to the named counter.
    pub fn count(&self, name: &str, delta: u64) {
        if let Some(state) = &self.inner {
            lock(state).metrics.add(name, delta);
        }
    }

    /// Set the named gauge to `value`.
    pub fn set_gauge(&self, name: &str, value: u64) {
        if let Some(state) = &self.inner {
            lock(state).metrics.set_gauge(name, value);
        }
    }

    /// Observe `value` into the named fixed-bucket histogram.
    pub fn observe(&self, name: &str, value: u64) {
        if let Some(state) = &self.inner {
            lock(state).metrics.observe(name, value);
        }
    }

    /// Drain every buffered record (closing still-open spans). Returns
    /// an empty vec on a disabled sink.
    #[must_use]
    pub fn take_records(&self) -> Vec<TraceRecord> {
        match &self.inner {
            Some(state) => lock(state).recorder.take(),
            None => Vec::new(),
        }
    }

    /// Snapshot the metrics registry. Empty on a disabled sink.
    #[must_use]
    pub fn metrics_snapshot(&self) -> MetricsRegistry {
        match &self.inner {
            Some(state) => lock(state).metrics.clone(),
            None => MetricsRegistry::new(),
        }
    }

    /// Records evicted by ring overflow so far. Zero on a disabled sink.
    #[must_use]
    pub fn dropped_records(&self) -> u64 {
        match &self.inner {
            Some(state) => lock(state).recorder.dropped(),
            None => 0,
        }
    }

    /// Records whose out-of-order timestamp was clamped forward so far
    /// (see [`RingRecorder::clamped`]). Zero on a disabled sink.
    #[must_use]
    pub fn clamped_records(&self) -> u64 {
        match &self.inner {
            Some(state) => lock(state).recorder.clamped(),
            None => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{NO_GPU, NO_LAYER, NO_REQUEST, NO_VALUE};

    #[test]
    fn disabled_sink_records_and_counts_nothing() {
        let sink = TraceSink::disabled();
        sink.begin(10, Phase::Gate, 1, 0);
        sink.end(20, Phase::Gate, 1, 0);
        sink.count("x", 3);
        sink.observe("h", 42);
        assert!(!sink.is_enabled());
        assert!(sink.take_records().is_empty());
        assert!(sink.metrics_snapshot().is_empty());
        assert_eq!(sink.dropped_records(), 0);
        assert_eq!(sink.clamped_records(), 0);
    }

    #[test]
    fn clones_share_one_recorder() {
        let sink = TraceSink::recording(16);
        let clone = sink.clone();
        sink.instant(
            5,
            Marker::CacheInsert,
            NO_REQUEST,
            NO_LAYER,
            3,
            NO_GPU,
            NO_VALUE,
        );
        clone.instant(
            7,
            Marker::CacheEvict,
            NO_REQUEST,
            NO_LAYER,
            4,
            NO_GPU,
            NO_VALUE,
        );
        let recs = sink.take_records();
        assert_eq!(recs.len(), 2, "clone writes land in the shared buffer");
        assert!(
            clone.take_records().is_empty(),
            "take drains for all handles"
        );
    }

    #[test]
    fn sink_handles_are_send_and_sync() {
        // Every engine component embeds a sink; losing these bounds
        // would make them all `!Send`, so pin them here at the source.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TraceSink>();
    }

    #[test]
    fn metrics_flow_through_the_sink() {
        let sink = TraceSink::recording(4);
        sink.count("engine.iterations", 2);
        sink.count("engine.iterations", 1);
        sink.set_gauge("cache.resident_bytes", 77);
        sink.observe("latency_ns", 1_500);
        let snap = sink.metrics_snapshot();
        assert_eq!(snap.counter("engine.iterations"), 3);
        assert_eq!(snap.gauge("cache.resident_bytes"), Some(77));
        assert_eq!(snap.histogram("latency_ns").map(|h| h.count()), Some(1));
    }
}
