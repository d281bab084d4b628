//! Byte-budgeted multi-GPU expert cache for MoE offloading.
//!
//! Experts have a fixed *home GPU* (the paper's round-robin expert-parallel
//! placement, §5) and can only be resident there. The cache enforces a
//! per-GPU byte budget; when an insert would exceed it, a pluggable
//! [`policy::EvictionPolicy`] picks victims:
//!
//! * [`policy::LruPolicy`] — least-recently-used, as in Mixtral-Offloading.
//! * [`policy::LfuPolicy`] — least-frequently-used, as in MoE-Infinity.
//! * [`policy::FmoePriorityPolicy`] — fMoE's joint priority
//!   `PRI^evict = 1 / (p · freq)` (paper §4.5): evict the expert with the
//!   smallest product of searched-map probability and cache visit
//!   frequency.
//! * [`policy::SievePolicy`] — SIEVE (NSDI '24): a lazy-promotion hand
//!   sweep where a hit is a single visited-bit flip, no list surgery.
//! * [`policy::FifoPolicy`] — strict insertion-order eviction, the
//!   scan-resistance baseline SIEVE is measured against.
//!
//! The residency core is an arena-allocated intrusive list
//! ([`arena::LinkArena`]: `Vec<Option<Node>>` + `u32` indices, no
//! unsafe). The baseline policies keep their per-expert state in one
//! dense table type, rows by layer, and every policy evaluates each
//! victim candidate once.
//!
//! The cache is a pure bookkeeping structure: it knows nothing about
//! virtual time beyond the monotone counter callers pass for recency, and
//! nothing about transfers — the serving engine coordinates both.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod cache;
pub mod policy;
pub mod stats;
mod table;

pub use cache::{ExpertCache, InsertOutcome};
pub use policy::{
    EvictionPolicy, FifoPolicy, FmoePriorityPolicy, LfuPolicy, LruPolicy, PolicyKind, SievePolicy,
};
pub use stats::CacheStats;

#[cfg(test)]
mod proptests;
