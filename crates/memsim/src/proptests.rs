//! Property-based tests for the transfer engine: conservation, ordering
//! and timing invariants under arbitrary schedules.

#![cfg(test)]

use crate::link::Link;
use crate::topology::{GpuId, Topology};
use crate::transfer::{RetryPolicy, TransferEngine};
use fmoe_faults::FaultSchedule;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Prefetch { gpu: u8, bytes: u32 },
    OnDemand { gpu: u8, bytes: u32 },
    Advance { delta: u32 },
    Cancel { gpu: u8, tag_back: u8 },
    Promote { gpu: u8, tag_back: u8 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        ((0u8..3), (1u32..64_000_000)).prop_map(|(gpu, bytes)| Op::Prefetch { gpu, bytes }),
        ((0u8..3), (1u32..64_000_000)).prop_map(|(gpu, bytes)| Op::OnDemand { gpu, bytes }),
        (1u32..10_000_000).prop_map(|delta| Op::Advance { delta }),
        ((0u8..3), (0u8..8)).prop_map(|(gpu, tag_back)| Op::Cancel { gpu, tag_back }),
        ((0u8..3), (0u8..8)).prop_map(|(gpu, tag_back)| Op::Promote { gpu, tag_back }),
    ]
}

/// Random but well-formed fault schedules: `synthetic` is the generator
/// the chaos bench uses, so these tests cover exactly the schedules that
/// run in anger. Intensity 0 yields the inert schedule.
fn schedule_strategy() -> impl Strategy<Value = FaultSchedule> {
    ((0u64..1_000_000), (0u32..101)).prop_map(|(seed, pct)| {
        FaultSchedule::synthetic(seed, f64::from(pct) / 100.0, 60 * crate::clock::SECOND, 3)
    })
}

/// A submitted prefetch; a test's `Vec<Submitted>` is indexed by tag.
struct Submitted {
    gpu: u8,
    at: u64,
    bytes: u64,
}

/// The tag of the `back`-th most recent prefetch submitted to `gpu`.
fn nth_latest_tag(submitted: &[Submitted], gpu: u8, back: u8) -> Option<u64> {
    let mut tags = (0..submitted.len()).filter(|&tag| submitted[tag].gpu == gpu);
    tags.nth_back(usize::from(back)).map(|tag| tag as u64)
}

/// Drains the engine's completions and fails on any that landed before
/// its submit instant plus setup and the exact wire time of its payload,
/// `ceil(bytes * 1e9 / bandwidth)` in integers. (`Link::wire_time`
/// divides in floating point first, which can round a whole-nanosecond
/// wire time up by one; a transfer split over several advances pays the
/// exact time.)
fn check_no_early_completion(engine: &mut TransferEngine, submitted: &[Submitted]) {
    let link = Link::pcie4_x16();
    for c in engine.drain_completions() {
        let job = &submitted[c.tag as usize];
        let wire = (u128::from(job.bytes) * 1_000_000_000).div_ceil(link.bandwidth as u128);
        let earliest = job.at + link.setup_latency + wire as u64;
        prop_assert!(
            c.completed_at >= earliest,
            "tag {} completed at {} before {}",
            c.tag,
            c.completed_at,
            earliest
        );
    }
}

fn topo() -> Topology {
    Topology::builder()
        .num_gpus(3)
        .gpu_memory_bytes(8 << 30)
        .host_link(Link::pcie4_x16())
        .peer_link(Link::nvlink())
        .host_memory_bytes(64 << 30)
        .build()
        .expect("valid test topology")
}

proptest! {
    /// Every submitted prefetch is eventually either completed exactly
    /// once or cancelled exactly once — nothing is lost or duplicated.
    #[test]
    fn jobs_are_conserved(ops in prop::collection::vec(op_strategy(), 1..120)) {
        let mut engine = TransferEngine::new(&topo());
        let mut now = 0u64;
        let mut next_tag = 0u64;
        let mut submitted = 0u64;
        let mut completed = 0u64;
        let mut live_tags: Vec<(u8, u64)> = Vec::new();

        for op in ops {
            match op {
                Op::Prefetch { gpu, bytes } => {
                    engine.submit_prefetch(GpuId(u32::from(gpu)), next_tag, u64::from(bytes), now);
                    live_tags.push((gpu, next_tag));
                    next_tag += 1;
                    submitted += 1;
                }
                Op::OnDemand { gpu, bytes } => {
                    let done = engine.on_demand_load(GpuId(u32::from(gpu)), u64::from(bytes), now);
                    prop_assert!(done > now);
                }
                Op::Advance { delta } => {
                    now += u64::from(delta);
                    engine.advance_to(now);
                }
                Op::Cancel { gpu, tag_back } => {
                    if let Some(&(g, tag)) =
                        live_tags.iter().filter(|(g, _)| *g == gpu).rev().nth(usize::from(tag_back))
                    {
                        let _ = engine.cancel_prefetch(GpuId(u32::from(g)), tag, now);
                    }
                }
                Op::Promote { gpu, tag_back } => {
                    if let Some(&(g, tag)) =
                        live_tags.iter().filter(|(g, _)| *g == gpu).rev().nth(usize::from(tag_back))
                    {
                        let _ = engine.promote_to_front(GpuId(u32::from(g)), tag, now);
                    }
                }
            }
            for c in engine.drain_completions() {
                prop_assert!(c.completed_at <= now.max(c.completed_at));
                completed += 1;
            }
        }
        // Drain everything left.
        now += 60_000_000_000;
        engine.advance_to(now);
        completed += engine.drain_completions().len() as u64;
        let cancelled = engine.stats().cancelled_jobs;
        prop_assert_eq!(completed + cancelled, submitted,
            "completed {} + cancelled {} != submitted {}", completed, cancelled, submitted);
    }

    /// Completion timestamps are monotone within a drain, and never in
    /// the future relative to the engine's synced time.
    #[test]
    fn completions_are_ordered(ops in prop::collection::vec(op_strategy(), 1..80)) {
        let mut engine = TransferEngine::new(&topo());
        let mut now = 0u64;
        let mut next_tag = 0u64;
        for op in ops {
            match op {
                Op::Prefetch { gpu, bytes } => {
                    engine.submit_prefetch(GpuId(u32::from(gpu)), next_tag, u64::from(bytes), now);
                    next_tag += 1;
                }
                Op::OnDemand { gpu, bytes } => {
                    now = engine.on_demand_load(GpuId(u32::from(gpu)), u64::from(bytes), now);
                }
                Op::Advance { delta } => {
                    now += u64::from(delta);
                    engine.advance_to(now);
                }
                _ => {}
            }
            let completions = engine.drain_completions();
            for w in completions.windows(2) {
                prop_assert!(w[0].completed_at <= w[1].completed_at);
            }
        }
    }

    /// An isolated transfer's completion time equals the analytic
    /// link formula, regardless of when we sample progress.
    #[test]
    fn isolated_transfer_timing_is_exact(
        bytes in 1u64..1_000_000_000,
        step_count in 1usize..20,
    ) {
        let mut engine = TransferEngine::new(&topo());
        engine.submit_prefetch(GpuId(0), 7, bytes, 0);
        let expected = Link::pcie4_x16().transfer_time(bytes);
        let step = (expected / step_count as u64).max(1);
        let mut t = 0;
        while t < expected {
            t += step;
            engine.advance_to(t);
        }
        engine.advance_to(expected + 1_000_000);
        let done = engine.drain_completions();
        prop_assert_eq!(done.len(), 1);
        // Allow rounding drift proportional to the number of partial
        // advances.
        let drift = done[0].completed_at.abs_diff(expected);
        prop_assert!(drift <= 2 * step_count as u64 + 2, "drift {} ns", drift);
    }

    /// On-demand loads always take exactly setup + wire time, no matter
    /// what background traffic exists.
    #[test]
    fn on_demand_duration_is_deterministic(
        background in prop::collection::vec((0u8..3, 1u32..32_000_000), 0..10),
        bytes in 1u64..500_000_000,
        at in 0u64..1_000_000_000,
    ) {
        let mut engine = TransferEngine::new(&topo());
        for (i, &(gpu, b)) in background.iter().enumerate() {
            engine.submit_prefetch(GpuId(u32::from(gpu)), i as u64, u64::from(b), 0);
        }
        let done = engine.on_demand_load(GpuId(1), bytes, at);
        prop_assert_eq!(done - at, Link::pcie4_x16().transfer_time(bytes));
    }

    /// Conservation survives the failure model: under an arbitrary fault
    /// schedule, every submitted prefetch resolves exactly once — as a
    /// completion, a cancellation, or a permanent failure. Retries never
    /// lose a job or double-count one.
    #[test]
    fn jobs_are_conserved_under_faults(
        ops in prop::collection::vec(op_strategy(), 1..120),
        schedule in schedule_strategy(),
    ) {
        let mut engine = TransferEngine::new(&topo());
        engine.set_fault_schedule(schedule);
        let mut now = 0u64;
        let mut next_tag = 0u64;
        let mut submitted = 0u64;
        let mut completed = 0u64;
        let mut failed = 0u64;
        let mut live_tags: Vec<(u8, u64)> = Vec::new();

        for op in ops {
            match op {
                Op::Prefetch { gpu, bytes } => {
                    engine.submit_prefetch(GpuId(u32::from(gpu)), next_tag, u64::from(bytes), now);
                    live_tags.push((gpu, next_tag));
                    next_tag += 1;
                    submitted += 1;
                }
                Op::OnDemand { gpu, bytes } => {
                    let done = engine.on_demand_load(GpuId(u32::from(gpu)), u64::from(bytes), now);
                    prop_assert!(done > now);
                }
                Op::Advance { delta } => {
                    now += u64::from(delta);
                    engine.advance_to(now);
                }
                Op::Cancel { gpu, tag_back } => {
                    if let Some(&(g, tag)) =
                        live_tags.iter().filter(|(g, _)| *g == gpu).rev().nth(usize::from(tag_back))
                    {
                        let _ = engine.cancel_prefetch(GpuId(u32::from(g)), tag, now);
                    }
                }
                Op::Promote { gpu, tag_back } => {
                    if let Some(&(g, tag)) =
                        live_tags.iter().filter(|(g, _)| *g == gpu).rev().nth(usize::from(tag_back))
                    {
                        let _ = engine.promote_to_front(GpuId(u32::from(g)), tag, now);
                    }
                }
            }
            completed += engine.drain_completions().len() as u64;
            failed += engine.drain_failures().len() as u64;
        }
        // Drain everything left — long enough to outlast every fault
        // window, retry backoff, and crippled-link transfer.
        now += 600 * crate::clock::SECOND;
        engine.advance_to(now);
        completed += engine.drain_completions().len() as u64;
        failed += engine.drain_failures().len() as u64;
        let cancelled = engine.stats().cancelled_jobs;
        prop_assert_eq!(completed + cancelled + failed, submitted,
            "completed {} + cancelled {} + failed {} != submitted {}",
            completed, cancelled, failed, submitted);
    }

    /// Completion timestamps stay monotone within each drain and never
    /// run ahead of the engine's synced time, faults or not.
    #[test]
    fn completions_stay_ordered_under_faults(
        ops in prop::collection::vec(op_strategy(), 1..80),
        schedule in schedule_strategy(),
    ) {
        let mut engine = TransferEngine::new(&topo());
        engine.set_fault_schedule(schedule);
        let mut now = 0u64;
        let mut next_tag = 0u64;
        for op in ops {
            match op {
                Op::Prefetch { gpu, bytes } => {
                    engine.submit_prefetch(GpuId(u32::from(gpu)), next_tag, u64::from(bytes), now);
                    next_tag += 1;
                }
                Op::OnDemand { gpu, bytes } => {
                    now = engine.on_demand_load(GpuId(u32::from(gpu)), u64::from(bytes), now);
                }
                Op::Advance { delta } => {
                    now += u64::from(delta);
                    engine.advance_to(now);
                }
                _ => {}
            }
            let completions = engine.drain_completions();
            for w in completions.windows(2) {
                prop_assert!(w[0].completed_at <= w[1].completed_at);
            }
            for c in &completions {
                prop_assert!(c.completed_at <= now.max(c.completed_at));
            }
            for f in engine.drain_failures() {
                prop_assert!(f.failed_at <= now, "failure reported from the future");
            }
        }
    }

    /// TransferStats totals reconcile exactly with the per-job events the
    /// engine hands out: drained completions match `prefetch_jobs` and
    /// `prefetch_bytes`, drained failures match `failed_jobs`, and every
    /// failed job burned through the full retry budget.
    #[test]
    fn stats_reconcile_with_drained_events(
        ops in prop::collection::vec(op_strategy(), 1..100),
        schedule in schedule_strategy(),
    ) {
        let retry = RetryPolicy::default();
        let mut engine = TransferEngine::new(&topo());
        engine.set_fault_schedule(schedule);
        engine.set_retry_policy(retry);
        let mut now = 0u64;
        let mut next_tag = 0u64;
        let mut drained_jobs = 0u64;
        let mut drained_bytes = 0u64;
        let mut drained_failures = 0u64;

        for op in ops {
            match op {
                Op::Prefetch { gpu, bytes } => {
                    engine.submit_prefetch(GpuId(u32::from(gpu)), next_tag, u64::from(bytes), now);
                    next_tag += 1;
                }
                Op::OnDemand { gpu, bytes } => {
                    now = engine.on_demand_load(GpuId(u32::from(gpu)), u64::from(bytes), now);
                }
                Op::Advance { delta } => {
                    now += u64::from(delta);
                    engine.advance_to(now);
                }
                _ => {}
            }
            for c in engine.drain_completions() {
                drained_jobs += 1;
                drained_bytes += c.bytes;
            }
            for f in engine.drain_failures() {
                drained_failures += 1;
                prop_assert_eq!(f.attempts, retry.max_retries + 1,
                    "a permanent failure must have used every attempt");
            }
        }
        now += 600 * crate::clock::SECOND;
        engine.advance_to(now);
        for c in engine.drain_completions() {
            drained_jobs += 1;
            drained_bytes += c.bytes;
        }
        drained_failures += engine.drain_failures().len() as u64;

        let stats = engine.stats();
        prop_assert_eq!(stats.prefetch_jobs, drained_jobs);
        prop_assert_eq!(stats.prefetch_bytes, drained_bytes);
        prop_assert_eq!(stats.failed_jobs, drained_failures);
        prop_assert!(stats.faults_injected >= stats.retries,
            "every retry was provoked by an injected fault");
        if stats.retries > 0 {
            prop_assert!(stats.backoff_ns > 0, "retries imply backoff time");
        }
    }

    /// Under `FaultSchedule::none()` the one link body lands every job
    /// exactly where `completion_time_of` predicted just before the
    /// advance that completed it.
    #[test]
    fn fault_free_completions_match_completion_time_of(
        ops in prop::collection::vec(op_strategy(), 1..80),
    ) {
        let mut engine = TransferEngine::new(&topo());
        engine.set_fault_schedule(FaultSchedule::none());
        let mut now = 0u64;
        let mut submitted: Vec<Submitted> = Vec::new();
        for op in ops {
            match op {
                Op::Prefetch { gpu, bytes } => {
                    let tag = submitted.len() as u64;
                    engine.submit_prefetch(GpuId(u32::from(gpu)), tag, u64::from(bytes), now);
                    submitted.push(Submitted { gpu, at: now, bytes: u64::from(bytes) });
                }
                Op::OnDemand { gpu, bytes } => {
                    let _ = engine.on_demand_load(GpuId(u32::from(gpu)), u64::from(bytes), now);
                }
                Op::Advance { delta } => {
                    // Drain first, so only this advance's completions count.
                    let _ = engine.drain_completions();
                    let predicted: Vec<Option<u64>> = submitted
                        .iter()
                        .enumerate()
                        .map(|(tag, job)| {
                            engine.completion_time_of(GpuId(u32::from(job.gpu)), tag as u64)
                        })
                        .collect();
                    now += u64::from(delta);
                    engine.advance_to(now);
                    for c in engine.drain_completions() {
                        let expected = predicted[c.tag as usize];
                        prop_assert_eq!(Some(c.completed_at), expected, "tag {}", c.tag);
                    }
                }
                Op::Cancel { gpu, tag_back } => {
                    if let Some(tag) = nth_latest_tag(&submitted, gpu, tag_back) {
                        let _ = engine.cancel_prefetch(GpuId(u32::from(gpu)), tag, now);
                    }
                }
                Op::Promote { gpu, tag_back } => {
                    if let Some(tag) = nth_latest_tag(&submitted, gpu, tag_back) {
                        let _ = engine.promote_to_front(GpuId(u32::from(gpu)), tag, now);
                    }
                }
            }
        }
    }

    /// Under any fault schedule, no job completes before its submit time
    /// plus the setup and wire time of its payload: degradation, stalls,
    /// queueing and retries only ever delay a transfer.
    #[test]
    fn no_job_completes_before_its_nominal_transfer_time(
        ops in prop::collection::vec(op_strategy(), 1..120),
        schedule in schedule_strategy(),
    ) {
        let mut engine = TransferEngine::new(&topo());
        engine.set_fault_schedule(schedule);
        let mut now = 0u64;
        let mut submitted: Vec<Submitted> = Vec::new();
        for op in ops {
            match op {
                Op::Prefetch { gpu, bytes } => {
                    let tag = submitted.len() as u64;
                    engine.submit_prefetch(GpuId(u32::from(gpu)), tag, u64::from(bytes), now);
                    submitted.push(Submitted { gpu, at: now, bytes: u64::from(bytes) });
                }
                Op::OnDemand { gpu, bytes } => {
                    now = engine.on_demand_load(GpuId(u32::from(gpu)), u64::from(bytes), now);
                }
                Op::Advance { delta } => {
                    now += u64::from(delta);
                    engine.advance_to(now);
                }
                Op::Cancel { gpu, tag_back } => {
                    if let Some(tag) = nth_latest_tag(&submitted, gpu, tag_back) {
                        let _ = engine.cancel_prefetch(GpuId(u32::from(gpu)), tag, now);
                    }
                }
                Op::Promote { gpu, tag_back } => {
                    if let Some(tag) = nth_latest_tag(&submitted, gpu, tag_back) {
                        let _ = engine.promote_to_front(GpuId(u32::from(gpu)), tag, now);
                    }
                }
            }
            check_no_early_completion(&mut engine, &submitted);
        }
        now += 600 * crate::clock::SECOND;
        engine.advance_to(now);
        check_no_early_completion(&mut engine, &submitted);
    }
}
