//! MoE model substrate for the fMoE reproduction.
//!
//! The paper serves real checkpoints (Mixtral-8×7B, Qwen1.5-MoE-A2.7B,
//! Phi-3.5-MoE) through HuggingFace Transformers. Offloading policies never
//! look at weight *values*, though — they consume the gate networks'
//! probability distributions and pay compute/transfer *time*. This crate
//! provides exactly those two surfaces:
//!
//! * [`config`] / [`presets`] — architectural descriptions of the three
//!   evaluated models (paper Table 1): layer count `L`, experts per layer
//!   `J`, activated experts `K`, hidden sizes, and per-expert weight bytes.
//! * [`expert`] — the strongly-typed expert identifier.
//! * [`dense`] — flat bitset/array containers keyed by dense expert
//!   index, the allocation-free hot-path replacement for `BTreeMap`
//!   (DESIGN.md §16).
//! * [`gate`] — a synthetic router that reproduces the statistical
//!   structure the paper measures on real routers (peaked per-iteration
//!   distributions, balanced long-run routing, semantic-cluster-conditioned
//!   trajectories, decaying inter-layer correlation). See `DESIGN.md` §3.
//! * [`history`] — routing a request history on every core, handed back
//!   in history order, for the predictors' offline fills.
//! * [`compute`] — an analytical roofline cost model for attention and
//!   expert FFN execution, used by the serving engine to advance virtual
//!   time.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compute;
pub mod config;
pub mod dense;
pub mod expert;
pub mod gate;
pub mod history;
pub mod presets;

pub use compute::{CostModel, GpuSpec};
pub use config::{ModelConfig, BYTES_PER_PARAM_FP16};
pub use dense::{DenseIdMap, DenseIdSet};
pub use expert::ExpertId;
pub use gate::{GateParams, GateSimulator, RequestRouting};
pub use history::{HistoryRequest, HistoryRouter, RoutedRequest};

#[cfg(test)]
mod proptests;
