//! # fMoE: fine-grained expert offloading for MoE serving
//!
//! This crate is the paper's primary contribution — the policy layer that
//! tames the latency–memory trade-off in Mixture-of-Experts serving by
//! tracking expert selection behaviour at *iteration* granularity:
//!
//! * [`map`] — the **expert map** data structure (§4.1): the per-iteration
//!   collection of gate probability distributions `{P_1 … P_L}`, richer
//!   than request-level hit counts both in time (per iteration) and in
//!   value (full distributions, not binary selections).
//! * [`store`] — the **Expert Map Store** (§4.4): a capacity-bounded
//!   collection of historical `(semantic embedding, expert map)` pairs
//!   with redundancy-scored deduplication
//!   (`RDY = d/L·sem + (L−d)/L·traj`).
//! * [`matcher`] — the **Expert Map Matcher** (§4.2): *semantic* search
//!   (Eq. 4) for the first `d` layers where no trajectory exists yet, and
//!   incremental *trajectory* search (Eq. 5) for layers `d+1 … L`.
//! * [`selection`] — **similarity-aware expert selection** (§4.3): the
//!   dynamic threshold `δ = clip(1 − score, 0, 1)` that prefetches more
//!   experts when the matched map is dubious and fewer when it is
//!   trustworthy, plus the prefetch priority `PRI = p / (l − l_now)`.
//! * [`predictor`] — [`FmoePredictor`], wiring the above into the
//!   `fmoe-serving` policy interface, with ablation switches for every
//!   design ingredient (trajectory-only, no dynamic threshold, …).
//!
//! ## Quick start
//!
//! ```
//! use fmoe::{FmoeConfig, FmoePredictor};
//! use fmoe_model::presets;
//!
//! let model = presets::small_test_model();
//! let config = FmoeConfig::for_model(&model);
//! let predictor = FmoePredictor::new(model, config);
//! assert_eq!(predictor.store_len(), 0); // fills as requests are served
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod map;
pub mod matcher;
pub mod persist;
pub mod predictor;
pub mod selection;
pub mod store;

pub use config::FmoeConfig;
pub use map::ExpertMap;
pub use matcher::{MatchResult, Matcher};
pub use predictor::FmoePredictor;
pub use selection::{prefetch_priority, select_experts};
pub use store::{ExpertMapStore, ReplacementPolicy, StoreStats};

#[cfg(test)]
mod proptests;
