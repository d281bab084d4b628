//! Statistics utilities shared across the fMoE reproduction workspace.
//!
//! This crate has no knowledge of MoE serving; it provides the numeric
//! primitives the rest of the workspace builds on:
//!
//! * [`entropy`] — Shannon entropy of probability distributions and count
//!   vectors (used for the coarse- vs. fine-grained predictability analysis
//!   of the paper's Figure 3).
//! * [`pearson`] — Pearson correlation coefficient (Figure 8).
//! * [`cosine`] — cosine similarity, including the pairwise batched form the
//!   Expert Map Matcher uses (paper Equations 4 and 5).
//! * [`cdf`] — empirical CDFs and percentile queries (Figure 10).
//! * [`summary`] — streaming mean/variance/min/max accumulators.
//! * [`histogram`] — fixed-bin histograms for latency distributions.
//! * [`rng`] — deterministic, splittable random-number utilities so every
//!   experiment in the workspace is reproducible bit-for-bit.
//!
//! All floating point work is `f64`; vectors are plain slices so callers can
//! use whatever storage they like.
//!
//! ```
//! use fmoe_stats::{shannon_entropy, cosine_similarity, pearson_correlation};
//!
//! // A peaked gate distribution is far more predictable than a balanced one.
//! let peaked = [0.85, 0.10, 0.03, 0.02];
//! let balanced = [0.25; 4];
//! assert!(shannon_entropy(&peaked) < 1.0);
//! assert_eq!(shannon_entropy(&balanced), 2.0);
//!
//! assert!(cosine_similarity(&[1.0, 0.0], &[1.0, 0.1]) > 0.99);
//! let r = pearson_correlation(&[1.0, 2.0, 3.0], &[10.0, 20.0, 30.0]).unwrap();
//! assert!((r - 1.0).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cdf;
pub mod cosine;
pub mod entropy;
pub mod histogram;
pub mod pearson;
pub mod rng;
pub mod summary;

pub use cdf::EmpiricalCdf;
pub use cosine::{
    add_row_dots, argmax_cosine_slab, cosine_from_norms, cosine_similarity, pairwise_cosine,
    top_k_cosine_slab,
};
pub use entropy::{normalized_shannon_entropy, shannon_entropy, shannon_entropy_of_counts};
pub use histogram::Histogram;
pub use pearson::pearson_correlation;
pub use rng::{hash_to_unit, DeterministicRng, SplitMix64};
pub use summary::Summary;

#[cfg(test)]
mod proptests;
