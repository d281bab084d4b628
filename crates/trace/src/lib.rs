//! Deterministic observability for the fMoE simulation.
//!
//! Every phase the paper decomposes per-request time into — queueing,
//! gating, prefetch issue, wire transfers, expert compute, evictions,
//! degraded serving — is recorded here as a structured event stamped with
//! **virtual** time. There are no wall clocks anywhere in this crate:
//! identical inputs produce byte-identical traces, so a trace diff is a
//! regression test, not a flake.
//!
//! The pieces:
//!
//! * [`event`] — the event taxonomy: [`event::Phase`] spans,
//!   [`event::Marker`] point events, and the [`event::TraceRecord`] the
//!   recorder stores.
//! * [`recorder`] — a preallocated ring buffer ([`recorder::RingRecorder`])
//!   that clamps timestamps monotone, balances span open/close, and drops
//!   oldest-first on overflow (counting every drop).
//! * [`sink`] — [`sink::TraceSink`], the cheaply clonable handle threaded
//!   through the serving engine, transfer engine, and expert cache. A
//!   disabled sink (the default) makes every emission a no-op branch, so
//!   serving output with tracing off is byte-identical to a build without
//!   tracing at all.
//! * [`metrics`] — [`metrics::MetricsRegistry`]: counters, gauges, and
//!   fixed-bucket histograms keyed by name, deterministically ordered.
//! * [`export`] — Chrome-trace JSON (`chrome://tracing`-loadable), the
//!   canonical golden-trace text format, and per-phase totals for the
//!   bench CSVs.
//! * [`json`] — a minimal dependency-free JSON validator used to prove
//!   exports are well-formed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod export;
pub mod json;
pub mod metrics;
pub mod recorder;
pub mod sink;

pub use event::{
    Marker, Nanos, Phase, TraceEvent, TraceRecord, NO_GPU, NO_LAYER, NO_REQUEST, NO_SLOT, NO_VALUE,
};
pub use export::{chrome_trace_json, events_text, phase_totals};
pub use metrics::{FixedHistogram, MetricsRegistry};
pub use recorder::RingRecorder;
pub use sink::TraceSink;

#[cfg(test)]
mod proptests;
