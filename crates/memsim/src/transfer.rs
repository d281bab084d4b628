//! The transfer engine: per-GPU host↔device links with background
//! prefetch queues and preemptive on-demand loads.
//!
//! Semantics (matching the paper's §4.5 "On-demand expert loading"):
//!
//! * Prefetch jobs are FIFO per link and consume bandwidth in the
//!   background while virtual time advances.
//! * An on-demand load **pauses** the link's prefetch queue, transfers
//!   immediately, and the queue resumes afterward — "fMoE pauses all
//!   expert prefetching tasks and immediately loads missed experts".
//! * Jobs can be cancelled while still queued (e.g. the target layer has
//!   already executed, or the expert arrived via an on-demand load).
//!
//! The engine is purely virtual-time driven: callers advance it explicitly
//! and collect completion events. Job identity is an opaque `u64` tag.
//!
//! # Failure semantics
//!
//! Every run moves bytes under a [`FaultSchedule`] (see
//! [`TransferEngine::set_fault_schedule`]); a non-inert one makes the
//! link fabric imperfect:
//!
//! * bandwidth-degradation windows scale wire time; full stalls freeze the
//!   link (including setup) until the window closes;
//! * a job reaching its last byte may suffer a **transient failure**: its
//!   bytes are discarded and it re-enqueues at the tail with capped
//!   exponential backoff (virtual time, see [`RetryPolicy`]); after
//!   `max_retries` it fails permanently and is reported via
//!   [`TransferEngine::drain_failures`];
//! * on-demand loads accept a deadline
//!   ([`TransferEngine::on_demand_load_with_deadline`]): when the projected
//!   completion overshoots it, the engine falls back to a smaller degraded
//!   payload (e.g. half precision) instead of blocking indefinitely.
//!
//! A fault-free run is the same path under [`FaultSchedule::none`], the
//! default: one nominal bandwidth segment forever and no transient
//! failure, so there is exactly one link body and one on-demand
//! projection.

use crate::clock::Nanos;
use crate::link::Link;
use crate::topology::{GpuId, Topology};
use fmoe_faults::FaultSchedule;
use fmoe_trace::{Marker, Phase, TraceSink, NO_LAYER, NO_REQUEST, NO_SLOT};
use serde::Serialize;
use std::collections::VecDeque;
use std::fmt;

/// Bandwidth factors below this are treated as a full stall to avoid
/// astronomically scaled wire times.
const STALL_EPSILON: f64 = 1e-6;

/// Typed error for fallible transfer operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferError {
    /// The GPU index is outside the engine's topology.
    UnknownGpu {
        /// The offending GPU index.
        gpu: u32,
        /// Number of GPUs the engine was built with.
        num_gpus: usize,
    },
    /// A load could not finish by its deadline, even degraded.
    DeadlineExceeded {
        /// Projected completion time of the (possibly degraded) load.
        projected: Nanos,
        /// The deadline that was missed.
        deadline: Nanos,
    },
}

impl fmt::Display for TransferError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransferError::UnknownGpu { gpu, num_gpus } => {
                write!(f, "GPU {gpu} outside topology of {num_gpus} GPUs")
            }
            TransferError::DeadlineExceeded {
                projected,
                deadline,
            } => write!(
                f,
                "load projected to finish at {projected} ns, past deadline {deadline} ns"
            ),
        }
    }
}

impl std::error::Error for TransferError {}

/// Retry/backoff policy for transient transfer failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct RetryPolicy {
    /// Retries before a job fails permanently.
    pub max_retries: u32,
    /// Backoff before the first retry, virtual ns.
    pub base_backoff_ns: Nanos,
    /// Cap on the exponentially growing backoff, virtual ns.
    pub max_backoff_ns: Nanos,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 6,
            base_backoff_ns: 50_000,
            max_backoff_ns: 5_000_000,
        }
    }
}

impl RetryPolicy {
    /// Backoff after the `attempt`-th failed attempt (0-based), doubling
    /// each time up to the cap.
    #[must_use]
    pub fn backoff_after(&self, attempt: u32) -> Nanos {
        let shift = attempt.min(20);
        self.base_backoff_ns
            .saturating_mul(1 << shift)
            .min(self.max_backoff_ns)
    }
}

/// A prefetch job that exhausted its retries and failed permanently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailedTransfer {
    /// The job's tag, as passed to `submit_prefetch`.
    pub tag: u64,
    /// GPU whose link carried the job.
    pub gpu: GpuId,
    /// Virtual time of the final failed attempt.
    pub failed_at: Nanos,
    /// Total attempts made (initial + retries).
    pub attempts: u32,
}

/// Result of an on-demand load performed under a deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OnDemandOutcome {
    /// Virtual time at which the load completed.
    pub completed_at: Nanos,
    /// Bytes actually moved (the fallback size when degraded).
    pub bytes_loaded: u64,
    /// Whether the engine fell back to the degraded payload.
    pub degraded: bool,
    /// Whether even the final payload missed the deadline.
    pub missed_deadline: bool,
    /// Transient-failure retries absorbed by this load.
    pub retries: u32,
}

/// A completed prefetch job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The job's tag, as passed to `submit_prefetch`.
    pub tag: u64,
    /// GPU whose link carried the job.
    pub gpu: GpuId,
    /// Virtual time at which the last byte arrived.
    pub completed_at: Nanos,
    /// Size of the transferred payload.
    pub bytes: u64,
}

/// Aggregate transfer statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct TransferStats {
    /// Completed prefetch jobs.
    pub prefetch_jobs: u64,
    /// Bytes moved by completed prefetch jobs.
    pub prefetch_bytes: u64,
    /// On-demand loads performed.
    pub on_demand_loads: u64,
    /// Bytes moved on demand.
    pub on_demand_bytes: u64,
    /// Total virtual nanoseconds spent blocked on on-demand loads.
    pub on_demand_blocked_ns: Nanos,
    /// Prefetch jobs cancelled before completion.
    pub cancelled_jobs: u64,
    /// Transient faults injected by the active fault schedule.
    pub faults_injected: u64,
    /// Retry attempts re-enqueued after transient failures.
    pub retries: u64,
    /// Prefetch jobs that exhausted retries and failed permanently.
    pub failed_jobs: u64,
    /// Total virtual nanoseconds of retry backoff delay.
    pub backoff_ns: Nanos,
    /// On-demand loads that fell back to a degraded payload to meet a
    /// deadline.
    pub degraded_on_demand: u64,
    /// On-demand loads that missed their deadline outright.
    pub missed_deadlines: u64,
    /// Warm-restart cache-seeding bulk loads performed.
    pub warmup_loads: u64,
    /// Bytes moved by warm-restart cache seeding.
    pub warmup_bytes: u64,
    /// Total virtual nanoseconds spent inside warmup transfers.
    pub warmup_ns: Nanos,
}

#[derive(Debug, Clone)]
struct Job {
    tag: u64,
    setup_remaining: Nanos,
    bytes_remaining: f64,
    total_bytes: u64,
    /// 0-based attempt number (incremented on each transient failure).
    attempt: u32,
    /// Retry backoff: the job makes no progress before this instant.
    not_before: Nanos,
}

#[derive(Debug, Clone)]
struct LinkState {
    link: Link,
    queue: VecDeque<Job>,
    synced_at: Nanos,
}

impl LinkState {
    /// Simulates the link from `synced_at` to `target`, popping completed
    /// jobs into `completions`: integrates progress piecewise over the
    /// schedule's bandwidth segments, honors retry backoff, and injects
    /// transient failures at completion instants. Under
    /// [`FaultSchedule::none`] there is one nominal segment and no
    /// failure, so jobs simply pay setup then wire time in FIFO order.
    #[allow(clippy::too_many_arguments)]
    fn advance_to(
        &mut self,
        target: Nanos,
        gpu: GpuId,
        completions: &mut Vec<Completion>,
        failures: &mut Vec<FailedTransfer>,
        schedule: &FaultSchedule,
        retry: &RetryPolicy,
        stats: &mut TransferStats,
        trace: &TraceSink,
    ) {
        debug_assert!(target >= self.synced_at, "link time cannot rewind");
        let gpu_idx = gpu.index() as u32;
        let mut now = self.synced_at;
        while now < target {
            if self.queue.is_empty() {
                break;
            }
            let seg = schedule.link_segment(gpu_idx, now);
            let seg_end = seg.until.min(target);
            // A stall freezes the link — setup included — to the end of
            // the window.
            if seg.factor < STALL_EPSILON {
                now = seg_end.max(now + 1).min(target);
                continue;
            }
            let Some(job) = self.queue.front_mut() else {
                break;
            };
            // Retry backoff: the head-of-line job sits idle until
            // eligible (failed jobs re-enqueue at the tail, so this only
            // stalls the link once the queue has drained to them).
            if job.not_before > now {
                now = job.not_before.min(seg_end);
                continue;
            }
            let budget = seg_end - now;
            if budget == 0 {
                now = seg_end.max(now + 1).min(target);
                continue;
            }
            // Setup latency runs at nominal speed under degradation.
            if job.setup_remaining > 0 {
                let pay = job.setup_remaining.min(budget);
                job.setup_remaining -= pay;
                now += pay;
                continue;
            }
            // Wire time is stretched by the reciprocal bandwidth factor.
            let wire_nominal = self.link.wire_time(job.bytes_remaining.ceil() as u64);
            let wire_needed = scale_wire_time(wire_nominal, seg.factor);
            if wire_needed > budget {
                job.bytes_remaining -= self.link.bytes_in(budget) * seg.factor;
                job.bytes_remaining = job.bytes_remaining.max(0.0);
                now = seg_end;
            } else {
                now += wire_needed;
                let Some(mut job) = self.queue.pop_front() else {
                    break;
                };
                if schedule.fails_transfer(gpu_idx, job.tag, job.attempt) {
                    stats.faults_injected += 1;
                    if job.attempt >= retry.max_retries {
                        stats.failed_jobs += 1;
                        failures.push(FailedTransfer {
                            tag: job.tag,
                            gpu,
                            failed_at: now,
                            attempts: job.attempt + 1,
                        });
                    } else {
                        let backoff = retry.backoff_after(job.attempt);
                        stats.retries += 1;
                        stats.backoff_ns = stats.backoff_ns.saturating_add(backoff);
                        trace.instant(
                            now,
                            Marker::TransferRetry,
                            NO_REQUEST,
                            NO_LAYER,
                            NO_SLOT,
                            gpu.0,
                            backoff,
                        );
                        trace.count("transfer.retries", 1);
                        job.attempt += 1;
                        job.setup_remaining = self.link.setup_latency;
                        job.bytes_remaining = job.total_bytes as f64;
                        job.not_before = now.saturating_add(backoff);
                        self.queue.push_back(job);
                    }
                } else {
                    completions.push(Completion {
                        tag: job.tag,
                        gpu,
                        completed_at: now,
                        bytes: job.total_bytes,
                    });
                }
            }
        }
        self.synced_at = target;
    }
}

/// Stretches nominal wire time by `1 / factor`, saturating.
fn scale_wire_time(nominal: Nanos, factor: f64) -> Nanos {
    if factor >= 1.0 {
        return nominal;
    }
    let scaled = (nominal as f64 / factor).ceil();
    if scaled >= Nanos::MAX as f64 {
        Nanos::MAX
    } else {
        scaled as Nanos
    }
}

/// Completion instant of an isolated (queue-frozen) transfer of `bytes`
/// starting at `start`, integrating the schedule's bandwidth segments.
/// Saturates at `Nanos::MAX`: a transfer a stall holds until then never
/// lands.
fn transfer_done_at(
    link: &Link,
    schedule: &FaultSchedule,
    gpu: u32,
    bytes: u64,
    start: Nanos,
) -> Nanos {
    let mut t = start;
    let mut setup = link.setup_latency;
    let mut wire_remaining = link.wire_time(bytes) as f64;
    loop {
        if t == Nanos::MAX {
            return Nanos::MAX;
        }
        let seg = schedule.link_segment(gpu, t);
        let seg_end = seg.until;
        if seg.factor < STALL_EPSILON {
            // Stalled: jump to the end of the window.
            t = seg_end.max(t + 1);
            continue;
        }
        if setup > 0 {
            let span = seg_end.saturating_sub(t);
            let pay = setup.min(span);
            setup -= pay;
            t += pay;
            if setup > 0 {
                continue;
            }
        }
        let span_left = seg_end.saturating_sub(t);
        let wire_here = span_left as f64 * seg.factor;
        if wire_remaining <= wire_here {
            return t.saturating_add((wire_remaining / seg.factor).ceil() as Nanos);
        }
        wire_remaining -= wire_here;
        t = seg_end;
    }
}

/// Per-GPU transfer simulation. See the module docs for semantics.
///
/// ```
/// use fmoe_memsim::{GpuId, Topology, TransferEngine};
///
/// let mut engine = TransferEngine::new(&Topology::single_gpu(8 << 30));
/// engine.submit_prefetch(GpuId(0), 1, 32 << 20, 0);
/// // An on-demand load pauses the prefetch and runs immediately.
/// let done = engine.on_demand_load(GpuId(0), 32 << 20, 0);
/// engine.advance_to(done + 20_000_000);
/// // The paused prefetch finished after the on-demand load.
/// let completions = engine.drain_completions();
/// assert_eq!(completions.len(), 1);
/// assert!(completions[0].completed_at > done);
/// ```
#[derive(Debug, Clone)]
pub struct TransferEngine {
    links: Vec<LinkState>,
    completions: Vec<Completion>,
    failures: Vec<FailedTransfer>,
    stats: TransferStats,
    /// The installed fault schedule; [`FaultSchedule::none`] for a
    /// fault-free run.
    faults: FaultSchedule,
    retry: RetryPolicy,
    /// Sequence counter giving each on-demand load a distinct identity
    /// for deterministic failure decisions.
    on_demand_seq: u64,
    /// Observability sink; disabled by default (zero-cost no-op).
    trace: TraceSink,
}

/// Pure projection of one on-demand load under the active fault
/// schedule: where it lands, how many transient retries it absorbed,
/// and how much backoff delay those retries added.
#[derive(Debug, Clone, Copy)]
struct OnDemandProjection {
    done: Nanos,
    retries: u32,
    backoff_ns: Nanos,
}

impl TransferEngine {
    /// Creates an engine with one independent host link per GPU in the
    /// topology.
    #[must_use]
    pub fn new(topology: &Topology) -> Self {
        let links = topology
            .gpus()
            .map(|_| LinkState {
                link: topology.host_link,
                queue: VecDeque::new(),
                synced_at: 0,
            })
            .collect();
        Self {
            links,
            completions: Vec::new(),
            failures: Vec::new(),
            stats: TransferStats::default(),
            faults: FaultSchedule::none(),
            retry: RetryPolicy::default(),
            on_demand_seq: 0,
            trace: TraceSink::disabled(),
        }
    }

    /// Installs an observability sink. Transfer spans, retry markers,
    /// and counters are emitted into it; with a disabled sink (the
    /// default) every emission is a no-op and timings are untouched.
    pub fn set_trace_sink(&mut self, trace: TraceSink) {
        self.trace = trace;
    }

    /// Installs a fault schedule, replacing the current one.
    /// [`FaultSchedule::none`] (the default) is the fault-free run: the
    /// same link body and on-demand projection, under one nominal
    /// segment and no transient failures.
    pub fn set_fault_schedule(&mut self, schedule: FaultSchedule) {
        self.faults = schedule;
    }

    /// The installed fault schedule ([`FaultSchedule::none`] unless one
    /// was set).
    #[must_use]
    pub fn fault_schedule(&self) -> &FaultSchedule {
        &self.faults
    }

    /// Overrides the retry/backoff policy for transient failures.
    pub fn set_retry_policy(&mut self, retry: RetryPolicy) {
        self.retry = retry;
    }

    /// The active retry/backoff policy.
    #[must_use]
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    fn link_mut(&mut self, gpu: GpuId) -> &mut LinkState {
        &mut self.links[gpu.index()]
    }

    /// Validates a GPU index against the topology.
    fn check_gpu(&self, gpu: GpuId) -> Result<(), TransferError> {
        if gpu.index() < self.links.len() {
            Ok(())
        } else {
            Err(TransferError::UnknownGpu {
                gpu: gpu.0,
                num_gpus: self.links.len(),
            })
        }
    }

    /// Advances every link to `now`, accruing prefetch progress.
    pub fn advance_to(&mut self, now: Nanos) {
        let Self {
            links,
            completions,
            failures,
            stats,
            faults,
            retry,
            trace,
            ..
        } = self;
        for (i, link) in links.iter_mut().enumerate() {
            if now > link.synced_at {
                link.advance_to(
                    now,
                    GpuId(i as u32),
                    completions,
                    failures,
                    faults,
                    retry,
                    stats,
                    trace,
                );
            }
        }
    }

    /// Enqueues a background prefetch of `bytes` to `gpu`.
    ///
    /// The engine is first advanced to `now`; the job then joins the tail
    /// of the link's FIFO queue.
    pub fn submit_prefetch(&mut self, gpu: GpuId, tag: u64, bytes: u64, now: Nanos) {
        self.advance_to(now);
        let setup = self.links[gpu.index()].link.setup_latency;
        self.link_mut(gpu).queue.push_back(Job {
            tag,
            setup_remaining: setup,
            bytes_remaining: bytes as f64,
            total_bytes: bytes,
            attempt: 0,
            not_before: 0,
        });
    }

    /// Performs a blocking on-demand load of `bytes` to `gpu` starting at
    /// `now`, pausing the link's prefetch queue for its duration.
    ///
    /// Returns the virtual time at which the load completes. Under an
    /// active fault schedule the duration reflects bandwidth windows and
    /// transient-failure retries (without a deadline the load retries
    /// until the policy's cap, then completes regardless — an on-demand
    /// load cannot be abandoned, the forward pass needs the weights).
    pub fn on_demand_load(&mut self, gpu: GpuId, bytes: u64, now: Nanos) -> Nanos {
        self.blocking_load(gpu, bytes, now, Nanos::MAX, bytes, false)
            .completed_at
    }

    /// A warm-restart seeding transfer: one bulk load of `bytes` onto
    /// `gpu`'s link starting at `now`, returning the completion instant.
    ///
    /// Used when a restarted cluster replica copies cache residency (and
    /// its donor's Expert Map Store snapshot) from a healthy peer. The
    /// transfer occupies the link exactly like an on-demand load — the
    /// prefetch queue makes no progress until it completes — but is
    /// booked under separate warmup counters so recovery cost stays
    /// distinguishable from steady-state miss servicing. Faults on the
    /// link (degradation windows, transient failures) apply as usual.
    pub fn warmup_load(&mut self, gpu: GpuId, bytes: u64, now: Nanos) -> Nanos {
        self.blocking_load(gpu, bytes, now, Nanos::MAX, bytes, true)
            .completed_at
    }

    /// Like [`Self::on_demand_load`], but with a completion deadline and
    /// a degraded fallback payload (typically half-precision weights).
    ///
    /// When the projected completion of the full payload overshoots
    /// `deadline`, the engine loads `fallback_bytes` instead and flags
    /// the outcome as degraded. If even the fallback misses the deadline
    /// the load still runs to completion (the simulation must progress),
    /// with `missed_deadline` set so callers can account an SLO
    /// violation. With `deadline = Nanos::MAX` this is exactly
    /// [`Self::on_demand_load`].
    pub fn on_demand_load_with_deadline(
        &mut self,
        gpu: GpuId,
        bytes: u64,
        now: Nanos,
        deadline: Nanos,
        fallback_bytes: u64,
    ) -> Result<OnDemandOutcome, TransferError> {
        self.check_gpu(gpu)?;
        Ok(self.blocking_load(gpu, bytes, now, deadline, fallback_bytes, false))
    }

    /// The one blocking-load body: projects the load (falling back to
    /// `fallback_bytes` when the full payload would overshoot
    /// `deadline`), freezes the link's prefetch queue until it lands,
    /// and books it as a warmup or an on-demand load.
    fn blocking_load(
        &mut self,
        gpu: GpuId,
        bytes: u64,
        now: Nanos,
        deadline: Nanos,
        fallback_bytes: u64,
        warmup: bool,
    ) -> OnDemandOutcome {
        self.advance_to(now);
        // One logical load = one on-demand identity, even when both the
        // full and fallback payloads are projected: faults, retries, and
        // backoff are accounted only for the projection actually taken.
        let od_tag = self.next_on_demand_tag();
        let full = self.project_on_demand(gpu, od_tag, bytes, now);
        let (chosen, bytes_loaded, degraded) = if full.done > deadline && fallback_bytes < bytes {
            (
                self.project_on_demand(gpu, od_tag, fallback_bytes, now),
                fallback_bytes,
                true,
            )
        } else {
            (full, bytes, false)
        };
        let done = chosen.done;
        let missed_deadline = done > deadline;
        self.account_on_demand_retries(&chosen);
        // The prefetch queue is frozen during [now, done): simply declare
        // the link already synced to `done` without giving jobs progress.
        self.link_mut(gpu).synced_at = done;
        // Time totals saturate: a load an endless stall holds lands at
        // `Nanos::MAX`, and a second one must not overflow them.
        if warmup {
            self.stats.warmup_loads += 1;
            self.stats.warmup_bytes += bytes_loaded;
            self.stats.warmup_ns = self.stats.warmup_ns.saturating_add(done - now);
        } else {
            self.stats.on_demand_loads += 1;
            self.stats.on_demand_bytes += bytes_loaded;
            self.stats.on_demand_blocked_ns =
                self.stats.on_demand_blocked_ns.saturating_add(done - now);
        }
        if degraded {
            self.stats.degraded_on_demand += 1;
        }
        if missed_deadline {
            self.stats.missed_deadlines += 1;
        }
        self.trace.span(
            done,
            Phase::Transfer,
            NO_REQUEST,
            NO_LAYER,
            gpu.0,
            done - now,
            bytes_loaded,
        );
        self.trace.count(
            if warmup {
                "transfer.warmup_loads"
            } else {
                "transfer.on_demand_loads"
            },
            1,
        );
        if degraded {
            self.trace.instant(
                done,
                Marker::OnDemandDegraded,
                NO_REQUEST,
                NO_LAYER,
                NO_SLOT,
                gpu.0,
                bytes_loaded,
            );
            self.trace.count("transfer.degraded_on_demand", 1);
        }
        if missed_deadline {
            self.trace.instant(
                done,
                Marker::MissedDeadline,
                NO_REQUEST,
                NO_LAYER,
                NO_SLOT,
                gpu.0,
                done - deadline,
            );
            self.trace.count("transfer.missed_deadlines", 1);
        }
        OnDemandOutcome {
            completed_at: done,
            bytes_loaded,
            degraded,
            missed_deadline,
            retries: chosen.retries,
        }
    }

    /// Allocates the next on-demand identity. The high bit marks the tag
    /// space as on-demand so failure decisions never collide with
    /// prefetch tags. Exactly one identity is consumed per logical load.
    fn next_on_demand_tag(&mut self) -> u64 {
        self.on_demand_seq += 1;
        self.on_demand_seq | (1 << 63)
    }

    /// Projects the completion time of an on-demand load under the
    /// installed fault schedule, absorbing transient-failure retries
    /// (bounded by the retry policy). Pure: no stats or sequence state
    /// is touched, so callers can project alternative payloads and then
    /// account only the projection they commit to.
    fn project_on_demand(
        &self,
        gpu: GpuId,
        od_tag: u64,
        bytes: u64,
        now: Nanos,
    ) -> OnDemandProjection {
        let schedule = &self.faults;
        let gpu_idx = gpu.index() as u32;
        let link = self.links[gpu.index()].link;
        let mut t = now;
        let mut retries = 0u32;
        let mut backoff_total: Nanos = 0;
        loop {
            let done = transfer_done_at(&link, schedule, gpu_idx, bytes, t);
            if retries < self.retry.max_retries && schedule.fails_transfer(gpu_idx, od_tag, retries)
            {
                let backoff = self.retry.backoff_after(retries);
                backoff_total = backoff_total.saturating_add(backoff);
                retries += 1;
                t = done.saturating_add(backoff);
            } else {
                return OnDemandProjection {
                    done,
                    retries,
                    backoff_ns: backoff_total,
                };
            }
        }
    }

    /// Folds a committed on-demand projection into the counters: each
    /// absorbed retry is one injected fault, one retry, and its backoff.
    fn account_on_demand_retries(&mut self, proj: &OnDemandProjection) {
        self.stats.faults_injected += u64::from(proj.retries);
        self.stats.retries += u64::from(proj.retries);
        self.stats.backoff_ns = self.stats.backoff_ns.saturating_add(proj.backoff_ns);
        if proj.retries > 0 {
            self.trace
                .count("transfer.retries", u64::from(proj.retries));
        }
    }

    /// Promotes a queued job to the front of its link's queue (the
    /// forward pass needs it *now*); the preempted front job keeps its
    /// partial progress and resumes afterward. Returns `false` when the
    /// tag is not queued (already completed or never submitted).
    pub fn promote_to_front(&mut self, gpu: GpuId, tag: u64, now: Nanos) -> bool {
        self.advance_to(now);
        let link = self.link_mut(gpu);
        let Some(pos) = link.queue.iter().position(|j| j.tag == tag) else {
            return false;
        };
        if pos > 0 {
            if let Some(job) = link.queue.remove(pos) {
                link.queue.push_front(job);
            }
        }
        true
    }

    /// Cancels a queued (or partially transferred) prefetch job by tag.
    ///
    /// Returns `true` if a job was removed. The engine is advanced to
    /// `now` first, so a job that completed before `now` is *not*
    /// cancellable.
    pub fn cancel_prefetch(&mut self, gpu: GpuId, tag: u64, now: Nanos) -> bool {
        self.advance_to(now);
        let link = self.link_mut(gpu);
        let before = link.queue.len();
        link.queue.retain(|j| j.tag != tag);
        let removed = link.queue.len() < before;
        if removed {
            self.stats.cancelled_jobs += 1;
            self.trace.instant(
                now,
                Marker::PrefetchCancelled,
                NO_REQUEST,
                NO_LAYER,
                NO_SLOT,
                gpu.0,
                tag,
            );
            self.trace.count("transfer.cancelled_jobs", 1);
        }
        removed
    }

    /// Cancels every queued prefetch on all links.
    pub fn cancel_all_prefetches(&mut self, now: Nanos) {
        self.advance_to(now);
        let mut cancelled = 0;
        for link in &mut self.links {
            cancelled += link.queue.len() as u64;
            link.queue.clear();
        }
        self.stats.cancelled_jobs += cancelled;
        if cancelled > 0 {
            self.trace.count("transfer.cancelled_jobs", cancelled);
        }
    }

    /// Number of jobs currently queued (including in flight) on a GPU's
    /// link.
    #[must_use]
    pub fn queued_jobs(&self, gpu: GpuId) -> usize {
        self.links[gpu.index()].queue.len()
    }

    /// Estimated completion time of a specific queued job, accounting for
    /// everything queued ahead of it. `None` when the tag is not queued
    /// on this link (never submitted, already completed, or cancelled).
    #[must_use]
    pub fn completion_time_of(&self, gpu: GpuId, tag: u64) -> Option<Nanos> {
        let link = &self.links[gpu.index()];
        let mut t = link.synced_at;
        for job in &link.queue {
            t += job.setup_remaining + link.link.wire_time(job.bytes_remaining.ceil() as u64);
            if job.tag == tag {
                return Some(t);
            }
        }
        None
    }

    /// Takes all completion events accumulated since the last drain,
    /// ordered by completion time.
    pub fn drain_completions(&mut self) -> Vec<Completion> {
        for c in &self.completions {
            self.stats.prefetch_jobs += 1;
            self.stats.prefetch_bytes += c.bytes;
        }
        let mut out = std::mem::take(&mut self.completions);
        out.sort_by_key(|c| c.completed_at);
        if self.trace.is_enabled() && !out.is_empty() {
            for c in &out {
                // Wire occupancy approximated by the nominal transfer
                // time; queueing delay is visible as the gap to the
                // preceding events on the same GPU track.
                let dur = self.links[c.gpu.index()].link.transfer_time(c.bytes);
                self.trace.span(
                    c.completed_at,
                    Phase::Transfer,
                    NO_REQUEST,
                    NO_LAYER,
                    c.gpu.0,
                    dur,
                    c.bytes,
                );
            }
            self.trace.count("transfer.prefetch_jobs", out.len() as u64);
        }
        out
    }

    /// Takes all permanent prefetch failures accumulated since the last
    /// drain, ordered by failure time. Callers should stop waiting for
    /// these tags — they will never complete.
    pub fn drain_failures(&mut self) -> Vec<FailedTransfer> {
        let mut out = std::mem::take(&mut self.failures);
        out.sort_by_key(|f| f.failed_at);
        if self.trace.is_enabled() && !out.is_empty() {
            for f in &out {
                self.trace.instant(
                    f.failed_at,
                    Marker::TransferFailed,
                    NO_REQUEST,
                    NO_LAYER,
                    NO_SLOT,
                    f.gpu.0,
                    u64::from(f.attempts),
                );
            }
            self.trace.count("transfer.failed_jobs", out.len() as u64);
        }
        out
    }

    /// Cumulative statistics.
    #[must_use]
    pub fn stats(&self) -> TransferStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(n: u32) -> TransferEngine {
        let mut topo = Topology::paper_testbed();
        topo.num_gpus = n;
        TransferEngine::new(&topo)
    }

    const MB: u64 = 1024 * 1024;
    fn link() -> Link {
        Link::pcie4_x16()
    }

    #[test]
    fn single_prefetch_completes_after_transfer_time() {
        let mut e = engine(1);
        e.submit_prefetch(GpuId(0), 1, 320 * MB, 0);
        let t = link().transfer_time(320 * MB);
        e.advance_to(t - 1);
        assert!(e.drain_completions().is_empty());
        e.advance_to(t);
        let done = e.drain_completions();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].tag, 1);
        assert_eq!(done[0].completed_at, t);
    }

    #[test]
    fn fifo_jobs_complete_in_order() {
        let mut e = engine(1);
        e.submit_prefetch(GpuId(0), 1, 100 * MB, 0);
        e.submit_prefetch(GpuId(0), 2, 100 * MB, 0);
        let t1 = link().transfer_time(100 * MB);
        let t2 = t1 + link().transfer_time(100 * MB);
        e.advance_to(t2 + 1);
        let done = e.drain_completions();
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].tag, 1);
        assert_eq!(done[1].tag, 2);
        assert_eq!(done[0].completed_at, t1);
        assert_eq!(done[1].completed_at, t2);
    }

    #[test]
    fn gpus_have_independent_links() {
        let mut e = engine(2);
        e.submit_prefetch(GpuId(0), 1, 100 * MB, 0);
        e.submit_prefetch(GpuId(1), 2, 100 * MB, 0);
        let t = link().transfer_time(100 * MB);
        e.advance_to(t);
        let done = e.drain_completions();
        // Both complete at the same time: no shared-bandwidth contention.
        assert_eq!(done.len(), 2);
        assert!(done.iter().all(|c| c.completed_at == t));
    }

    #[test]
    fn on_demand_pauses_prefetch() {
        let mut e = engine(1);
        e.submit_prefetch(GpuId(0), 1, 100 * MB, 0);
        // Let half the prefetch run, then preempt with an on-demand load.
        let half = link().transfer_time(100 * MB) / 2;
        let od_done = e.on_demand_load(GpuId(0), 50 * MB, half);
        assert_eq!(od_done, half + link().transfer_time(50 * MB));
        // The prefetch resumes after od_done and finishes late by exactly
        // the on-demand duration.
        let expected = link().transfer_time(100 * MB) + link().transfer_time(50 * MB);
        e.advance_to(expected + 1);
        let done = e.drain_completions();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].completed_at, expected);
    }

    #[test]
    fn on_demand_tracks_blocking_stats() {
        let mut e = engine(1);
        let done = e.on_demand_load(GpuId(0), 64 * MB, 1000);
        let s = e.stats();
        assert_eq!(s.on_demand_loads, 1);
        assert_eq!(s.on_demand_bytes, 64 * MB);
        assert_eq!(s.on_demand_blocked_ns, done - 1000);
    }

    #[test]
    fn warmup_load_books_separate_counters_and_pauses_prefetch() {
        let mut e = engine(1);
        e.submit_prefetch(GpuId(0), 1, 100 * MB, 0);
        let half = link().transfer_time(100 * MB) / 2;
        let done = e.warmup_load(GpuId(0), 64 * MB, half);
        assert_eq!(done, half + link().transfer_time(64 * MB));
        let s = e.stats();
        assert_eq!(s.warmup_loads, 1);
        assert_eq!(s.warmup_bytes, 64 * MB);
        assert_eq!(s.warmup_ns, done - half);
        // Warmup is not an on-demand miss.
        assert_eq!(s.on_demand_loads, 0);
        assert_eq!(s.on_demand_bytes, 0);
        // The prefetch queue was frozen for the warmup's duration.
        let expected = link().transfer_time(100 * MB) + link().transfer_time(64 * MB);
        e.advance_to(expected + 1);
        let finished = e.drain_completions();
        assert_eq!(finished.len(), 1);
        assert_eq!(finished[0].completed_at, expected);
    }

    #[test]
    fn cancel_removes_queued_job() {
        let mut e = engine(1);
        e.submit_prefetch(GpuId(0), 1, 100 * MB, 0);
        e.submit_prefetch(GpuId(0), 2, 100 * MB, 0);
        assert!(e.cancel_prefetch(GpuId(0), 2, 0));
        assert!(!e.cancel_prefetch(GpuId(0), 2, 0));
        e.advance_to(link().transfer_time(100 * MB) * 3);
        assert_eq!(e.drain_completions().len(), 1);
        assert_eq!(e.stats().cancelled_jobs, 1);
    }

    #[test]
    fn cancel_after_completion_fails() {
        let mut e = engine(1);
        e.submit_prefetch(GpuId(0), 1, 10 * MB, 0);
        let t = link().transfer_time(10 * MB);
        assert!(!e.cancel_prefetch(GpuId(0), 1, t));
        assert_eq!(e.drain_completions().len(), 1);
    }

    #[test]
    fn cancel_all_clears_every_link() {
        let sink = TraceSink::recording(64);
        let mut e = engine(2);
        e.set_trace_sink(sink.clone());
        e.submit_prefetch(GpuId(0), 1, 10 * MB, 0);
        e.submit_prefetch(GpuId(1), 2, 10 * MB, 0);
        e.cancel_all_prefetches(0);
        assert_eq!(e.queued_jobs(GpuId(0)), 0);
        assert_eq!(e.queued_jobs(GpuId(1)), 0);
        assert_eq!(e.stats().cancelled_jobs, 2);
        // The trace counter books a bulk cancel exactly as the stats do.
        assert_eq!(
            sink.metrics_snapshot().counter("transfer.cancelled_jobs"),
            2
        );
    }

    #[test]
    fn partial_progress_is_preserved_across_advances() {
        let mut e = engine(1);
        e.submit_prefetch(GpuId(0), 1, 100 * MB, 0);
        let total = link().transfer_time(100 * MB);
        // Advance in many tiny steps; the completion time must not drift
        // by more than rounding.
        let steps = 97;
        for i in 1..=steps {
            e.advance_to(total * i / steps);
        }
        let done = e.drain_completions();
        assert_eq!(done.len(), 1);
        let drift = done[0].completed_at.abs_diff(total);
        assert!(drift < 1_000, "drift {drift} ns");
    }

    #[test]
    fn promote_reorders_the_queue() {
        let mut e = engine(1);
        e.submit_prefetch(GpuId(0), 1, 100 * MB, 0);
        e.submit_prefetch(GpuId(0), 2, 100 * MB, 0);
        e.submit_prefetch(GpuId(0), 3, 100 * MB, 0);
        // Promote the tail job to the front at time zero.
        assert!(e.promote_to_front(GpuId(0), 3, 0));
        e.advance_to(3 * link().transfer_time(100 * MB) + 1);
        let done = e.drain_completions();
        let order: Vec<u64> = done.iter().map(|c| c.tag).collect();
        assert_eq!(order, vec![3, 1, 2]);
    }

    #[test]
    fn promote_preserves_partial_progress_of_the_preempted_job() {
        let mut e = engine(1);
        e.submit_prefetch(GpuId(0), 1, 100 * MB, 0);
        e.submit_prefetch(GpuId(0), 2, 100 * MB, 0);
        // Let job 1 transfer half, then promote job 2 past it.
        let half = link().transfer_time(100 * MB) / 2;
        assert!(e.promote_to_front(GpuId(0), 2, half));
        // completion_time_of reflects the new order: job 2 finishes a
        // full transfer after `half`, then job 1's remaining half.
        let c2 = e.completion_time_of(GpuId(0), 2).unwrap();
        let c1 = e.completion_time_of(GpuId(0), 1).unwrap();
        assert_eq!(c2, half + link().transfer_time(100 * MB));
        // Job 1 already paid its setup and half its wire time.
        let remaining_wire = link().wire_time(100 * MB) - (half - link().setup_latency);
        assert!(c1.abs_diff(c2 + remaining_wire) < 1000, "c1={c1}, c2={c2}");
        e.advance_to(c1 + 1);
        assert_eq!(e.drain_completions().len(), 2);
    }

    #[test]
    fn promote_missing_or_front_tags() {
        let mut e = engine(1);
        assert!(!e.promote_to_front(GpuId(0), 9, 0));
        e.submit_prefetch(GpuId(0), 1, 10 * MB, 0);
        // Promoting the current front is a no-op that reports success.
        assert!(e.promote_to_front(GpuId(0), 1, 0));
        let t = link().transfer_time(10 * MB);
        e.advance_to(t);
        assert_eq!(e.drain_completions().len(), 1);
    }

    #[test]
    fn completion_time_of_accounts_queue_order() {
        let mut e = engine(1);
        e.submit_prefetch(GpuId(0), 1, 50 * MB, 0);
        e.submit_prefetch(GpuId(0), 2, 50 * MB, 0);
        let t = link().transfer_time(50 * MB);
        assert_eq!(e.completion_time_of(GpuId(0), 1), Some(t));
        assert_eq!(e.completion_time_of(GpuId(0), 2), Some(2 * t));
        assert_eq!(e.completion_time_of(GpuId(0), 3), None);
    }

    #[test]
    fn zero_byte_transfer_costs_setup_only() {
        let mut e = engine(1);
        let done = e.on_demand_load(GpuId(0), 0, 0);
        assert_eq!(done, link().setup_latency);
    }

    #[test]
    fn degraded_window_stretches_wire_time() {
        let mut e = engine(1);
        // Half bandwidth over a window wide enough to cover everything.
        e.set_fault_schedule(
            FaultSchedule::builder(1)
                .degrade_link(Some(0), 0, Nanos::MAX - 1, 0.5)
                .build(),
        );
        e.submit_prefetch(GpuId(0), 1, 100 * MB, 0);
        let nominal = link().transfer_time(100 * MB);
        let expected = link().setup_latency + 2 * link().wire_time(100 * MB);
        e.advance_to(2 * nominal + 1);
        let done = e.drain_completions();
        assert_eq!(done.len(), 1);
        assert!(
            done[0].completed_at.abs_diff(expected) < 1_000,
            "completed {} vs expected {expected}",
            done[0].completed_at
        );
    }

    #[test]
    fn stall_window_freezes_link() {
        let stall_len = 2_000_000;
        let mut e = engine(1);
        e.set_fault_schedule(
            FaultSchedule::builder(1)
                .stall_link(Some(0), 0, stall_len)
                .build(),
        );
        e.submit_prefetch(GpuId(0), 1, 10 * MB, 0);
        let nominal = link().transfer_time(10 * MB);
        e.advance_to(stall_len + nominal + 1);
        let done = e.drain_completions();
        assert_eq!(done.len(), 1);
        assert!(
            done[0].completed_at.abs_diff(stall_len + nominal) < 1_000,
            "completed {}",
            done[0].completed_at
        );
    }

    #[test]
    fn transient_failures_retry_and_eventually_complete() {
        // Rate 1.0 fails every attempt: jobs exhaust retries and fail
        // permanently — but never hang.
        let mut e = engine(1);
        e.set_fault_schedule(
            FaultSchedule::builder(3)
                .transient_failure_rate(1.0)
                .build(),
        );
        e.submit_prefetch(GpuId(0), 7, 10 * MB, 0);
        e.advance_to(60 * crate::clock::SECOND);
        assert!(e.drain_completions().is_empty());
        let failures = e.drain_failures();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].tag, 7);
        assert_eq!(failures[0].attempts, e.retry_policy().max_retries + 1);
        let s = e.stats();
        assert_eq!(s.failed_jobs, 1);
        assert_eq!(s.retries, u64::from(e.retry_policy().max_retries));
        assert_eq!(
            s.faults_injected,
            u64::from(e.retry_policy().max_retries) + 1
        );
        assert!(s.backoff_ns > 0);
    }

    #[test]
    fn moderate_failure_rate_retries_then_completes() {
        let mut e = engine(1);
        e.set_fault_schedule(
            FaultSchedule::builder(11)
                .transient_failure_rate(0.5)
                .build(),
        );
        for tag in 0..20 {
            e.submit_prefetch(GpuId(0), tag, MB, 0);
        }
        e.advance_to(60 * crate::clock::SECOND);
        let done = e.drain_completions();
        let failed = e.drain_failures();
        assert_eq!(done.len() + failed.len(), 20);
        assert!(!done.is_empty(), "at 0.5 rate most jobs should complete");
        assert!(e.stats().retries > 0);
    }

    #[test]
    fn backoff_grows_exponentially_to_cap() {
        let p = RetryPolicy {
            max_retries: 10,
            base_backoff_ns: 1_000,
            max_backoff_ns: 16_000,
        };
        assert_eq!(p.backoff_after(0), 1_000);
        assert_eq!(p.backoff_after(1), 2_000);
        assert_eq!(p.backoff_after(4), 16_000);
        assert_eq!(p.backoff_after(9), 16_000);
    }

    #[test]
    fn deadline_fallback_degrades_payload() {
        let mut e = engine(1);
        // Quarter bandwidth: the full 100 MB cannot make a deadline that
        // the 50 MB fallback can.
        e.set_fault_schedule(
            FaultSchedule::builder(5)
                .degrade_link(Some(0), 0, Nanos::MAX - 1, 0.25)
                .build(),
        );
        let full_time = link().setup_latency + 4 * link().wire_time(100 * MB);
        let half_time = link().setup_latency + 4 * link().wire_time(50 * MB);
        let deadline = (full_time + half_time) / 2;
        let out = e
            .on_demand_load_with_deadline(GpuId(0), 100 * MB, 0, deadline, 50 * MB)
            .unwrap();
        assert!(out.degraded);
        assert!(!out.missed_deadline, "degraded load should meet deadline");
        assert_eq!(out.bytes_loaded, 50 * MB);
        assert!(out.completed_at <= deadline);
        let s = e.stats();
        assert_eq!(s.degraded_on_demand, 1);
        assert_eq!(s.missed_deadlines, 0);
        assert_eq!(s.on_demand_bytes, 50 * MB);
    }

    #[test]
    fn hopeless_deadline_is_flagged_not_hung() {
        // A stall that never ends holds the load until `Nanos::MAX`: the
        // projection saturates there instead of spinning, and a second
        // such load does not overflow the blocked-time total.
        for stall_end in [10_000_000, Nanos::MAX] {
            let mut e = engine(1);
            e.set_fault_schedule(
                FaultSchedule::builder(5)
                    .stall_link(Some(0), 0, stall_end)
                    .build(),
            );
            for now in [0, 1_000] {
                let out = e
                    .on_demand_load_with_deadline(GpuId(0), 100 * MB, now, now + 1_000, 50 * MB)
                    .unwrap();
                assert!(out.missed_deadline);
                assert!(out.completed_at >= stall_end);
            }
            assert_eq!(e.stats().missed_deadlines, 2);
            assert!(e.stats().on_demand_blocked_ns >= stall_end - 1_000);
        }
    }

    #[test]
    fn deadline_load_without_faults_matches_plain_load() {
        // With `deadline = Nanos::MAX` the deadline variant is the plain
        // load — same completion, stats, trace records and counters —
        // both fault-free and under a heavy schedule whose windows and
        // transient failures hit the loads.
        let heavy = FaultSchedule::synthetic(7, 1.0, 2_000_000_000, 1);
        assert!(!heavy.is_inert());
        for schedule in [FaultSchedule::none(), heavy] {
            let sink_a = fmoe_trace::TraceSink::recording(1024);
            let sink_b = fmoe_trace::TraceSink::recording(1024);
            let mut a = engine(1);
            let mut b = engine(1);
            for (e, sink) in [(&mut a, &sink_a), (&mut b, &sink_b)] {
                e.set_trace_sink(sink.clone());
                e.set_fault_schedule(schedule.clone());
                e.submit_prefetch(GpuId(0), 1, 50 * MB, 0);
            }
            let mut now = 1000;
            let mut slowed = false;
            for _ in 0..16 {
                let plain = a.on_demand_load(GpuId(0), 64 * MB, now);
                let out = b
                    .on_demand_load_with_deadline(GpuId(0), 64 * MB, now, Nanos::MAX, 32 * MB)
                    .unwrap();
                assert_eq!(out.completed_at, plain);
                assert!(!out.degraded);
                assert!(!out.missed_deadline);
                slowed |= plain - now > link().transfer_time(64 * MB);
                now = plain + 1000;
            }
            a.advance_to(now);
            b.advance_to(now);
            assert_eq!(a.drain_completions(), b.drain_completions());
            assert_eq!(a.stats(), b.stats());
            assert_eq!(sink_a.take_records(), sink_b.take_records());
            assert_eq!(sink_a.metrics_snapshot(), sink_b.metrics_snapshot());
            let faulty = !schedule.is_inert();
            assert_eq!(
                (slowed, a.stats().retries > 0),
                (faulty, faulty),
                "faults must stretch and retry some load, and only faults"
            );
        }
    }

    #[test]
    fn unknown_gpu_is_a_typed_error() {
        let mut e = engine(2);
        let err = e
            .on_demand_load_with_deadline(GpuId(9), MB, 0, Nanos::MAX, MB / 2)
            .unwrap_err();
        assert_eq!(
            err,
            TransferError::UnknownGpu {
                gpu: 9,
                num_gpus: 2
            }
        );
        assert!(err.to_string().contains("GPU 9"));
    }

    #[test]
    fn completion_exactly_at_deadline_is_not_missed() {
        // Deadlines are inclusive: a load whose last byte lands exactly
        // at the deadline instant is neither degraded nor missed.
        let mut e = engine(1);
        let deadline = 1_000 + link().transfer_time(64 * MB);
        let out = e
            .on_demand_load_with_deadline(GpuId(0), 64 * MB, 1_000, deadline, 32 * MB)
            .unwrap();
        assert_eq!(out.completed_at, deadline);
        assert!(!out.degraded);
        assert!(!out.missed_deadline);
        assert_eq!(e.stats().missed_deadlines, 0);
        assert_eq!(e.stats().degraded_on_demand, 0);
    }

    #[test]
    fn stall_window_starting_exactly_at_deadline_does_not_delay_completion() {
        // A fault window opening at the very instant the transfer
        // finishes must not touch it: windows are half-open [start, end)
        // and the last byte lands at `start`.
        let mut e = engine(1);
        let deadline = link().transfer_time(64 * MB);
        e.set_fault_schedule(
            FaultSchedule::builder(9)
                .stall_link(Some(0), deadline, deadline + 10_000_000)
                .build(),
        );
        let out = e
            .on_demand_load_with_deadline(GpuId(0), 64 * MB, 0, deadline, 32 * MB)
            .unwrap();
        assert_eq!(out.completed_at, deadline);
        assert!(!out.degraded);
        assert!(!out.missed_deadline);
    }

    #[test]
    fn overlapping_degradation_windows_compound_on_the_wire() {
        // Two half-bandwidth windows covering the same span behave like
        // one quarter-bandwidth window.
        let wide = Nanos::MAX - 1;
        let mut stacked = engine(1);
        stacked.set_fault_schedule(
            FaultSchedule::builder(5)
                .degrade_link(Some(0), 0, wide, 0.5)
                .degrade_link(Some(0), 0, wide, 0.5)
                .build(),
        );
        let mut quartered = engine(1);
        quartered.set_fault_schedule(
            FaultSchedule::builder(5)
                .degrade_link(Some(0), 0, wide, 0.25)
                .build(),
        );
        let a = stacked.on_demand_load(GpuId(0), 50 * MB, 0);
        let b = quartered.on_demand_load(GpuId(0), 50 * MB, 0);
        assert_eq!(a, b, "overlapping windows must multiply factors");
        assert_eq!(a, link().setup_latency + 4 * link().wire_time(50 * MB));
    }

    #[test]
    fn zero_length_fault_windows_are_inert() {
        // A [t, t) window covers nothing; a schedule made only of such
        // windows is inert and times every transfer like the default.
        let schedule = FaultSchedule::builder(3)
            .stall_link(Some(0), 5_000, 5_000)
            .degrade_link(Some(0), 9_000, 9_000, 0.25)
            .memory_pressure(7_000, 7_000, 0.5)
            .build();
        assert!(schedule.is_inert());
        let mut plain = engine(1);
        let mut faulty = engine(1);
        faulty.set_fault_schedule(schedule);
        for e in [&mut plain, &mut faulty] {
            e.submit_prefetch(GpuId(0), 1, 50 * MB, 0);
            let od = e.on_demand_load(GpuId(0), 20 * MB, 4_000);
            e.advance_to(od + link().transfer_time(100 * MB));
        }
        assert_eq!(plain.drain_completions(), faulty.drain_completions());
        assert_eq!(plain.stats(), faulty.stats());
    }

    #[test]
    fn degraded_deadline_load_counts_one_load_plus_retries() {
        // Regression for the retry double-count: projecting both the
        // full and fallback payloads used to burn two on-demand
        // identities and charge both projections' faults and backoff to
        // the stats. A retried, degraded load must count as exactly one
        // load plus the *chosen* projection's retries.
        let mut e = engine(1);
        e.set_retry_policy(RetryPolicy {
            max_retries: 2,
            base_backoff_ns: 1_000,
            max_backoff_ns: 4_000,
        });
        e.set_fault_schedule(
            FaultSchedule::builder(5)
                .degrade_link(Some(0), 0, Nanos::MAX - 1, 0.25)
                .transient_failure_rate(1.0)
                .build(),
        );
        // Every attempt fails, so both payloads absorb exactly
        // max_retries retries: done = 3 * duration + (1000 + 2000).
        let dur_full = link().setup_latency + 4 * link().wire_time(100 * MB);
        let dur_fb = link().setup_latency + 4 * link().wire_time(50 * MB);
        let full_done = 3 * dur_full + 3_000;
        let fb_done = 3 * dur_fb + 3_000;
        let deadline = (full_done + fb_done) / 2;
        let out = e
            .on_demand_load_with_deadline(GpuId(0), 100 * MB, 0, deadline, 50 * MB)
            .unwrap();
        assert!(out.degraded);
        assert!(!out.missed_deadline);
        assert_eq!(out.completed_at, fb_done);
        assert_eq!(out.retries, 2);
        let s = e.stats();
        assert_eq!(
            s.on_demand_loads, 1,
            "one logical load, not one per projection"
        );
        assert_eq!(s.retries, 2);
        assert_eq!(
            s.faults_injected, 2,
            "only the chosen projection's faults count"
        );
        assert_eq!(
            s.backoff_ns, 3_000,
            "only the chosen projection's backoff counts"
        );
        assert_eq!(s.degraded_on_demand, 1);
        assert_eq!(s.missed_deadlines, 0);
    }

    #[test]
    fn trace_sink_records_transfer_activity_without_perturbing_timings() {
        let sink = fmoe_trace::TraceSink::recording(1024);
        let mut traced = engine(1);
        traced.set_trace_sink(sink.clone());
        let mut plain = engine(1);
        for e in [&mut plain, &mut traced] {
            e.submit_prefetch(GpuId(0), 1, 50 * MB, 0);
            let od = e.on_demand_load(GpuId(0), 20 * MB, 1_000);
            e.advance_to(od + link().transfer_time(100 * MB));
        }
        assert_eq!(plain.drain_completions(), traced.drain_completions());
        assert_eq!(plain.stats(), traced.stats());
        let records = sink.take_records();
        assert!(!records.is_empty(), "transfer spans must be recorded");
        let spans = records
            .iter()
            .filter(|r| {
                matches!(
                    r.event,
                    fmoe_trace::TraceEvent::Span {
                        phase: fmoe_trace::Phase::Transfer,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(spans, 2, "one on-demand span + one drained prefetch span");
        let metrics = sink.metrics_snapshot();
        assert_eq!(metrics.counter("transfer.on_demand_loads"), 1);
        assert_eq!(metrics.counter("transfer.prefetch_jobs"), 1);
    }

    #[test]
    fn failed_jobs_count_as_resolved_in_conservation() {
        // submitted == completed + cancelled + failed must hold so the
        // serving engine can reconcile its in-flight map.
        let mut e = engine(1);
        e.set_fault_schedule(
            FaultSchedule::builder(13)
                .transient_failure_rate(0.7)
                .build(),
        );
        for tag in 0..30 {
            e.submit_prefetch(GpuId(0), tag, MB, 0);
        }
        e.cancel_prefetch(GpuId(0), 29, 0);
        e.advance_to(120 * crate::clock::SECOND);
        let done = e.drain_completions().len() as u64;
        let failed = e.drain_failures().len() as u64;
        let s = e.stats();
        assert_eq!(done + failed + s.cancelled_jobs, 30);
        assert_eq!(s.failed_jobs, failed);
    }
}
