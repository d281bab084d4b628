//! Hardware substrate simulator for the fMoE reproduction.
//!
//! The paper's testbed is six RTX 3090s connected to host memory over
//! PCIe 4.0 ×16 (32 GB/s). Offloading systems live and die by how expert
//! weight traffic interleaves with compute on that fabric:
//!
//! * prefetches run *in the background*, overlapping compute;
//! * a mispredicted expert triggers an **on-demand load** that blocks the
//!   forward pass and — in fMoE's design (§4.5) — *pauses all prefetch
//!   traffic* until the missed expert arrives;
//! * every byte of bandwidth spent on a wrong prefetch delays later
//!   traffic.
//!
//! This crate models exactly that: a [`clock::VirtualClock`] in integer
//! nanoseconds, [`link::Link`] descriptions of PCIe/NVLink paths, per-GPU
//! [`topology::Topology`], and a [`transfer::TransferEngine`] that
//! simulates per-link FIFO prefetch queues with preemptive on-demand
//! loads. It is policy-agnostic: jobs are opaque `u64` tags.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod all2all;
pub mod clock;
pub mod link;
pub mod topology;
pub mod transfer;

pub use all2all::{all2all_layer_time, gate_skew, All2AllBackend};
pub use clock::{Nanos, VirtualClock};
pub use link::Link;
pub use topology::{GpuId, Topology, TopologyBuilder, TopologyError};
pub use transfer::{
    FailedTransfer, OnDemandOutcome, RetryPolicy, TransferEngine, TransferError, TransferStats,
};

pub use fmoe_faults::FaultSchedule;

#[cfg(test)]
mod proptests;
