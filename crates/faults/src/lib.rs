//! Deterministic fault injection for the fMoE serving simulator.
//!
//! Real offloading deployments do not run on pristine hardware: PCIe
//! links share bandwidth with other tenants, DMA engines hiccup, and
//! host memory comes under pressure from co-located processes. This
//! crate models those disturbances as a *schedule* of fault events
//! evaluated against the simulation's virtual clock, so every run is
//! exactly reproducible from a seed:
//!
//! * **Bandwidth degradation windows** — during `[start, end)` a GPU's
//!   host link runs at a fraction of nominal bandwidth.
//! * **Link stalls** — a degradation window with factor `0.0`: no bytes
//!   move until the window closes.
//! * **Transient transfer failures** — individual transfer attempts fail
//!   with a configured probability, decided by a pure hash of
//!   `(seed, gpu, tag, attempt)` so replays agree.
//! * **Memory-pressure spikes** — during `[start, end)` the effective
//!   expert-cache budget shrinks by a factor.
//!
//! Above the link level, [`ReplicaFaultSchedule`] models faults at
//! *fleet* scope — whole-replica crash windows, brownout (slow
//! degradation) windows, and planned drain/restart events — consumed by
//! the cluster dispatcher for failover routing and warm restart.
//!
//! The crate is deliberately dependency-free (time is `u64` nanoseconds,
//! GPUs and replicas are `u32` indices) so `fmoe-memsim` and
//! `fmoe-cluster` can consume it without a dependency cycle.
//! [`FaultSchedule::none`] and [`ReplicaFaultSchedule::none`] are the
//! identity schedules and the consumers' defaults: a fault-free run is a
//! run under them, through the same code path as a faulty one, and no
//! consumer holds an optional schedule.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod replica;
pub mod schedule;

pub use replica::{
    ReplicaFaultSchedule, ReplicaFaultScheduleBuilder, ReplicaTransition, TransitionKind,
};
pub use schedule::{FaultSchedule, FaultScheduleBuilder, LinkSegment, PressureWindow};
