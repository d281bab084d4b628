//! MoE serving-engine simulator.
//!
//! This crate is the shared harness every offloading policy runs on —
//! mirroring the paper's methodology, which ported all baselines onto one
//! codebase (MoE-Infinity's) "for a fair comparison" (§6.1). It owns:
//!
//! * [`predictor`] — the [`predictor::ExpertPredictor`] trait that
//!   policies (fMoE and all baselines) implement, plus the context types
//!   they observe. Policies see only what real systems see: semantic
//!   embeddings and gate outputs as they are produced.
//! * [`engine`] — the prefill/decode iteration loop: per layer, attention →
//!   gate → expert hit/miss resolution (with blocking on-demand loads) →
//!   expert compute, with background prefetch traffic overlapping compute
//!   on the simulated PCIe links.
//! * [`metrics`] — TTFT, TPOT, hit rates, and the per-operation latency
//!   breakdown of the paper's Figure 15.
//! * [`online`] — the trace-driven FCFS scheduler for the online-serving
//!   experiments (Figure 10).
//! * [`placement`] — expert-placement policies for expert parallelism:
//!   which GPU owns each expert inside a multi-GPU replica (Figure 17).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod metrics;
pub mod online;
pub mod placement;
pub mod predictor;

pub use engine::{EngineBuilder, EngineConfig, ExpertParallelConfig, ServeError, ServingEngine};
pub use metrics::{AggregateMetrics, Breakdown, PerGpuBreakdown, RequestMetrics};
pub use online::{
    serve, serve_event_fcfs, FcfsOutcome, OnlineReport, OnlineResult, Scheduler, ServeOptions,
    ShedRequest, SloAction, SloPolicy,
};
pub use placement::{
    FmoeMapPlacement, LayerContiguousPlacement, LoadBalancedPlacement, PlacementPolicy,
    RoundRobinPlacement,
};
pub use predictor::{ExpertPredictor, IterationContext, NoPrefetch, PredictorTiming, PrefetchPlan};

#[cfg(test)]
mod proptests;
