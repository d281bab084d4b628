//! Replica-level fault tolerance: crash reconciliation, health-aware
//! routing, warm restart, and the inert-schedule identity.

use fmoe::{FmoeConfig, FmoePredictor};
use fmoe_cluster::{AffinityConfig, Cluster, FailoverConfig, RoutingPolicy, WarmupMode};
use fmoe_faults::ReplicaFaultSchedule;
use fmoe_memsim::Topology;
use fmoe_model::{
    presets, GateParams, GateSimulator, GpuSpec, HistoryRequest, ModelConfig, RequestRouting,
};
use fmoe_serving::{EngineBuilder, EngineConfig, ServingEngine, SloPolicy};
use fmoe_trace::{Marker, TraceSink};
use fmoe_workload::{AzureTraceSpec, DatasetSpec, TraceEvent};

fn model() -> ModelConfig {
    presets::small_test_model()
}

fn gate() -> GateSimulator {
    let m = model();
    GateSimulator::new(m.clone(), GateParams::for_model(&m))
}

fn engine_config() -> EngineConfig {
    let m = model();
    EngineConfig {
        cache_budget_bytes: m.expert_bytes() * 16,
        preload_all: false,
        max_decode_iterations: Some(4),
        context_collection_ns: 10_000,
        framework_overhead_per_layer_ns: 50_000,
        ..EngineConfig::paper_default()
    }
}

fn builder() -> EngineBuilder {
    ServingEngine::builder(gate(), GpuSpec::rtx_3090(), Topology::single_gpu(8 << 30))
        .config(engine_config())
}

fn predictor() -> FmoePredictor {
    let m = model();
    FmoePredictor::new(m.clone(), FmoeConfig::for_model(&m))
}

fn warmed_predictor(clusters: &[u64]) -> FmoePredictor {
    let mut p = predictor();
    let hist: Vec<HistoryRequest> = clusters
        .iter()
        .enumerate()
        .map(|(i, &cluster)| HistoryRequest {
            routing: RequestRouting {
                cluster,
                request_seed: 900 + i as u64,
            },
            prompt_tokens: 24,
            iterations: 3,
        })
        .collect();
    p.populate_from_history(&gate(), &hist, 3);
    p
}

fn trace(n: u64) -> Vec<TraceEvent> {
    let mut spec = AzureTraceSpec::paper_online_serving(DatasetSpec::tiny_test());
    spec.num_requests = n;
    spec.generate()
}

/// A burst of `burst` requests at t = 0 followed by `late` stragglers at
/// `late_at` — the shape every crash test needs: the burst stacks FCFS
/// queues, a crash window opens inside the backlog, and the stragglers'
/// arrivals advance virtual time past the transition instants.
fn burst_then_late(burst: usize, late: usize, late_at: u64) -> Vec<TraceEvent> {
    let mut events = trace((burst + late) as u64);
    for (i, e) in events.iter_mut().enumerate() {
        e.arrival_ns = if i < burst { 0 } else { late_at };
    }
    events
}

fn cluster(n: usize, policy: RoutingPolicy, slo: Option<SloPolicy>) -> Cluster {
    let mut c = Cluster::new(gate(), policy, slo);
    for _ in 0..n {
        c.add_replica(builder(), Box::new(predictor()));
    }
    c
}

#[test]
fn inert_schedule_is_byte_identical_to_no_schedule() {
    let events = trace(12);
    let run = |schedule: Option<ReplicaFaultSchedule>| {
        let mut c = Cluster::new(gate(), RoutingPolicy::JoinShortestQueue, None);
        for _ in 0..2 {
            c.add_replica(
                builder().trace_sink(TraceSink::recording(1 << 16)),
                Box::new(predictor()),
            );
        }
        if let Some(s) = schedule {
            c.set_replica_fault_schedule(s, FailoverConfig::default());
        }
        let report = c.dispatch(&events);
        (
            format!("{report:?}"),
            format!("{:?}", c.take_merged_trace()),
        )
    };
    let baseline = run(None);
    assert_eq!(
        baseline,
        run(Some(ReplicaFaultSchedule::none())),
        "ReplicaFaultSchedule::none() must be a perfect identity"
    );
    // A schedule built only from dropped no-op windows is inert too.
    let noop = ReplicaFaultSchedule::builder(7)
        .crash(0, 500, 500)
        .brownout(1, 100, 200, 1.0)
        .drain(0, 90, 90)
        .build();
    assert!(noop.is_inert());
    assert_eq!(baseline, run(Some(noop)));
}

#[test]
fn crash_fails_over_unfinished_work() {
    // 8 requests stack both replicas at t = 0; replica 1 crashes at
    // t = 1ms with its whole backlog unfinished; 4 stragglers at t = 1s
    // advance time past the transition.
    let events = burst_then_late(8, 4, 1_000_000_000);
    let mut c = cluster(2, RoutingPolicy::RoundRobin, None);
    c.set_replica_fault_schedule(
        ReplicaFaultSchedule::builder(1)
            .crash(1, 1_000_000, u64::MAX)
            .build(),
        FailoverConfig::default(),
    );
    let report = c.dispatch(&events);
    assert_eq!(report.failover.crashes, 1);
    assert_eq!(report.failover.recoveries, 0, "window never closes");
    assert!(
        report.failover.failed_over >= 4,
        "replica 1's backlog fails over: {:?}",
        report.failover
    );
    assert_eq!(
        report.failover.failover_completed, report.failover.failed_over,
        "every failed-over request completes on the survivor"
    );
    assert_eq!(report.failover.failover_shed, 0);
    assert_eq!(report.failover.no_healthy_shed, 0);
    assert!(report.accounting_balances(), "{:?}", report.failover);
    // Everything invalidated left replica 1; nothing it reports finishes
    // after the crash instant.
    for r in &report.replicas[1].results {
        assert!(r.finish_ns <= 1_000_000);
    }
    // The stragglers route around the dead replica.
    assert!(report.replicas[0].results.len() >= 8 + 4);
}

#[test]
fn redispatch_cap_sheds_instead_of_ping_ponging() {
    let events = burst_then_late(8, 2, 1_000_000_000);
    let mut c = cluster(2, RoutingPolicy::RoundRobin, None);
    c.set_replica_fault_schedule(
        ReplicaFaultSchedule::builder(1)
            .crash(1, 1_000_000, u64::MAX)
            .build(),
        FailoverConfig {
            max_redispatches: 0,
            warmup: WarmupMode::Cold,
        },
    );
    let report = c.dispatch(&events);
    assert_eq!(report.failover.failed_over, 0);
    assert!(
        report.failover.failover_shed >= 4,
        "cap 0 sheds every invalidated request: {:?}",
        report.failover
    );
    assert_eq!(
        report.failover.failover_shed as usize,
        report.failover_shed.len()
    );
    assert!(report.accounting_balances());
    for s in &report.failover_shed {
        assert_eq!(s.arrival_ns, 0);
        assert_eq!(s.queued_ns, 1_000_000, "shed at the crash instant");
    }
}

#[test]
fn full_outage_sheds_at_cluster_level() {
    let mut events = trace(5);
    for e in &mut events {
        e.arrival_ns = 500;
    }
    let mut c = cluster(2, RoutingPolicy::JoinShortestQueue, None);
    c.set_replica_fault_schedule(
        ReplicaFaultSchedule::builder(1)
            .crash(0, 0, u64::MAX)
            .crash(1, 0, u64::MAX)
            .build(),
        FailoverConfig::default(),
    );
    let report = c.dispatch(&events);
    assert_eq!(report.total_served(), 0);
    assert_eq!(report.failover.no_healthy_shed, 5);
    assert_eq!(report.failover_shed.len(), 5);
    assert!(report.accounting_balances());
}

#[test]
fn drain_window_diverts_without_failover() {
    // Replica 1 drains over the stragglers' arrival window: they all
    // land on replica 0, nothing is invalidated, and the cache survives.
    // One final arrival after the window closes fires the DrainEnd
    // transition (transitions are processed lazily, on arrivals).
    let mut events = trace(11);
    for (i, e) in events.iter_mut().enumerate() {
        e.arrival_ns = match i {
            0..=5 => 0,
            6..=9 => 1_000_000_000,
            _ => 3_000_000_000,
        };
    }
    let mut c = cluster(2, RoutingPolicy::RoundRobin, None);
    c.set_replica_fault_schedule(
        ReplicaFaultSchedule::builder(1)
            .drain(1, 500_000_000, 2_000_000_000)
            .build(),
        FailoverConfig::default(),
    );
    let report = c.dispatch(&events);
    assert_eq!(report.failover.drains, 1);
    assert_eq!(report.failover.crashes, 0);
    assert_eq!(report.failover.failed_over, 0);
    assert!(report.accounting_balances());
    // The burst split 3/3; the 4 mid-drain stragglers all avoided the
    // draining replica; the post-drain arrival resumed the rotation.
    assert_eq!(report.replicas[0].results.len(), 3 + 4);
    assert_eq!(
        report.replicas[1].results.len(),
        3 + 1,
        "drained queue completes and the replica rejoins"
    );
    // Drain start and end markers appear in the merged timeline even
    // with engine sinks disabled.
    let merged = c.take_merged_trace();
    let drains: Vec<u64> = merged
        .iter()
        .filter_map(|r| match r.record.event {
            fmoe_trace::TraceEvent::Instant {
                marker: Marker::ReplicaDrain,
                value,
                ..
            } => Some(value),
            _ => None,
        })
        .collect();
    assert_eq!(drains, vec![1, 0], "drain open then close");
}

#[test]
fn brownout_penalizes_jsq_scoring() {
    // Two idle replicas, one browned out: JSQ must prefer the healthy
    // one for every arrival even though both queues drain between the
    // widely spaced requests.
    let mut events = trace(6);
    for (i, e) in events.iter_mut().enumerate() {
        e.arrival_ns = i as u64 * 10_000_000_000;
    }
    let mut c = cluster(2, RoutingPolicy::JoinShortestQueue, None);
    c.set_replica_fault_schedule(
        ReplicaFaultSchedule::builder(1)
            .brownout(0, 0, u64::MAX, 4.0)
            .build(),
        FailoverConfig::default(),
    );
    let report = c.dispatch(&events);
    assert_eq!(report.replicas[0].results.len(), 0);
    assert_eq!(report.replicas[1].results.len(), 6);
    assert!(report.accounting_balances());
}

#[test]
fn crash_recovery_restarts_cold_and_serves_again() {
    let events = burst_then_late(6, 6, 3_000_000_000);
    let mut c = cluster(2, RoutingPolicy::RoundRobin, None);
    c.set_replica_fault_schedule(
        ReplicaFaultSchedule::builder(1)
            .crash(1, 1_000_000, 2_000_000_000)
            .build(),
        FailoverConfig {
            max_redispatches: 3,
            warmup: WarmupMode::Cold,
        },
    );
    let report = c.dispatch(&events);
    assert_eq!(report.failover.crashes, 1);
    assert_eq!(report.failover.recoveries, 1);
    assert_eq!(
        report.failover.warmup_transfers, 0,
        "cold restart copies nothing"
    );
    assert_eq!(report.failover.warmup_bytes, 0);
    assert!(report.accounting_balances());
    // The restarted replica serves stragglers again (round robin deals
    // it half of the 6 post-recovery arrivals).
    assert_eq!(report.replicas[1].results.len(), 3);
    // Lifetime cache counters still include the pre-crash segment.
    let post_restart = c.replica_engine(1).expect("replica exists").cache_stats();
    assert!(
        report.replicas[1].cache.accesses() > post_restart.accesses(),
        "report carries pre-crash cache accesses across the restart"
    );
}

#[test]
fn donor_warmed_restart_pays_transfer_and_recovers_hit_rate_faster() {
    // Phase 1 builds both caches; replica 1 crashes and recovers; phase
    // 2 measures the restarted replica's post-restart hit rate. The
    // donor-warmed restart starts from the donor's residency + store and
    // must beat the cold restart from the very same schedule.
    let run = |warmup: WarmupMode| {
        let events = burst_then_late(10, 8, 3_000_000_000);
        let mut c = Cluster::new(gate(), RoutingPolicy::RoundRobin, None);
        for _ in 0..2 {
            c.add_replica(builder(), Box::new(warmed_predictor(&[0, 1, 2, 3])));
        }
        c.set_replica_fault_schedule(
            ReplicaFaultSchedule::builder(1)
                .crash(1, 1_000_000, 2_000_000_000)
                .build(),
            FailoverConfig {
                max_redispatches: 3,
                warmup,
            },
        );
        let report = c.dispatch(&events);
        assert!(report.accounting_balances());
        assert_eq!(report.failover.recoveries, 1);
        let post_restart = c.replica_engine(1).expect("replica exists").cache_stats();
        (report, post_restart)
    };

    let (cold_report, cold_cache) = run(WarmupMode::Cold);
    let (warm_report, warm_cache) = run(WarmupMode::DonorWarmed);

    assert_eq!(cold_report.failover.warmup_transfers, 0);
    assert_eq!(warm_report.failover.warmup_transfers, 1);
    assert!(warm_report.failover.warmup_bytes > 0);
    assert!(
        warm_report.failover.warmup_ns > 0,
        "the donor copy costs virtual time"
    );
    assert!(
        warm_cache.hit_rate() > cold_cache.hit_rate(),
        "donor-warmed restart must recover hit rate faster: warm {} vs cold {}",
        warm_cache.hit_rate(),
        cold_cache.hit_rate()
    );
}

#[test]
fn dispatch_under_faults_is_byte_identical_across_runs() {
    let events = burst_then_late(8, 6, 3_000_000_000);
    let horizon = 4_000_000_000;
    for policy in [
        RoutingPolicy::RoundRobin,
        RoutingPolicy::JoinShortestQueue,
        RoutingPolicy::SemanticAffinity(AffinityConfig::default()),
    ] {
        let run = || {
            let mut c = Cluster::new(gate(), policy, None);
            for _ in 0..3 {
                c.add_replica(
                    builder().trace_sink(TraceSink::recording(1 << 16)),
                    Box::new(warmed_predictor(&[0, 1, 2, 3])),
                );
            }
            c.set_replica_fault_schedule(
                ReplicaFaultSchedule::synthetic(42, 0.8, horizon, 3),
                FailoverConfig {
                    max_redispatches: 2,
                    warmup: WarmupMode::DonorWarmed,
                },
            );
            let report = c.dispatch(&events);
            (
                format!("{report:?}"),
                format!("{:?}", c.take_merged_trace()),
            )
        };
        assert_eq!(
            run(),
            run(),
            "{} chaos must be deterministic",
            policy.name()
        );
    }
}

#[test]
fn shed_requests_do_not_inflate_queue_depth_stats() {
    // Regression (queue-depth bookkeeping): a shed request never joins
    // the FIFO queue, so it must not raise max/mean depth accounting.
    // With shed(0), the first t = 0 arrival serves (depth 1) and every
    // later one sheds against the observed depth of 1.
    let mut events = trace(10);
    for e in &mut events {
        e.arrival_ns = 0;
    }
    let mut c = cluster(1, RoutingPolicy::RoundRobin, Some(SloPolicy::shed(0)));
    let report = c.dispatch(&events);
    let r = &report.replicas[0];
    assert_eq!(r.results.len(), 1);
    assert_eq!(r.shed.len(), 9);
    assert_eq!(
        r.max_queue_depth, 1,
        "shed requests must not stack the depth statistics"
    );
    assert!((r.mean_queue_depth - 1.0).abs() < 1e-12);
}

#[test]
fn jsq_does_not_over_count_shed_replicas() {
    // Regression (queue-depth bookkeeping): sheds leave the virtual
    // queue model untouched, so JSQ keeps routing by *served* backlog
    // only. Both replicas serve exactly one request from a t = 0 burst
    // and their depth stats agree.
    let mut events = trace(8);
    for e in &mut events {
        e.arrival_ns = 0;
    }
    let mut c = cluster(
        2,
        RoutingPolicy::JoinShortestQueue,
        Some(SloPolicy::shed(0)),
    );
    let report = c.dispatch(&events);
    assert_eq!(report.replicas[0].results.len(), 1);
    assert_eq!(report.replicas[1].results.len(), 1);
    assert_eq!(report.total_served() + report.total_shed(), 8);
    for r in &report.replicas {
        assert_eq!(
            r.max_queue_depth, 1,
            "replica {} over-counts shed requests",
            r.replica
        );
    }
}

#[test]
fn routing_stats_partition_affinity_dispatches() {
    // Dedicated fallback-path coverage: one warmed replica draws every
    // request by affinity; a tight imbalance factor diverts the burst's
    // tail to JSQ. Every dispatched request lands in exactly one
    // RoutingStats bucket.
    let mut events = trace(8);
    for e in &mut events {
        e.arrival_ns = 0;
    }
    let mut c = Cluster::new(
        gate(),
        RoutingPolicy::SemanticAffinity(AffinityConfig {
            imbalance_factor: 0.5,
        }),
        None,
    );
    c.add_replica(builder(), Box::new(warmed_predictor(&[0, 1, 2, 3])));
    c.add_replica(builder(), Box::new(predictor()));
    let report = c.dispatch(&events);
    let routed = report.routing.affinity_routed
        + report.routing.jsq_fallbacks
        + report.routing.cold_fallbacks;
    assert_eq!(
        routed, 8,
        "buckets partition the dispatch: {:?}",
        report.routing
    );
    assert!(report.routing.affinity_routed > 0);
    assert!(report.routing.jsq_fallbacks > 0);
    assert_eq!(
        report.routing.cold_fallbacks, 0,
        "a warmed replica leaves no cold starts"
    );
}

#[test]
fn routing_stats_count_cold_start_fallbacks() {
    // Dedicated fallback-path coverage: with every store empty the
    // affinity router cold-falls back to JSQ until serving populates a
    // store, after which the counter stops moving.
    let events = trace(6);
    let mut c = Cluster::new(
        gate(),
        RoutingPolicy::SemanticAffinity(AffinityConfig::default()),
        None,
    );
    for _ in 0..2 {
        c.add_replica(builder(), Box::new(predictor()));
    }
    let first = c.dispatch(&events);
    assert!(first.routing.cold_fallbacks >= 1);
    assert_eq!(
        first.routing.affinity_routed + first.routing.jsq_fallbacks + first.routing.cold_fallbacks,
        6,
        "{:?}",
        first.routing
    );
    // The stores now have history; a second dispatch routes by affinity
    // and leaves the cold counter exactly where it was.
    let second = c.dispatch(&trace(4));
    assert_eq!(second.routing.cold_fallbacks, first.routing.cold_fallbacks);
    assert_eq!(
        second.routing.affinity_routed
            + second.routing.jsq_fallbacks
            + second.routing.cold_fallbacks,
        10,
        "{:?}",
        second.routing
    );
    assert!(second.routing.affinity_routed > first.routing.affinity_routed);
}

#[test]
fn warm_restart_books_replays_as_warmup_not_demand_insertions() {
    // Regression: warm-seeded experts used to be counted as regular
    // `insertions`, so lifetime accounting (pre-crash snapshot merged
    // with the post-restart segment) inflated demand insertions by the
    // replayed residents. They must land in `warmup_inserts` instead,
    // and the lookup identity must hold per replica and fleet-wide.
    let run = |warmup: WarmupMode| {
        let events = burst_then_late(10, 8, 3_000_000_000);
        let mut c = Cluster::new(gate(), RoutingPolicy::RoundRobin, None);
        for _ in 0..2 {
            c.add_replica(builder(), Box::new(warmed_predictor(&[0, 1, 2, 3])));
        }
        c.set_replica_fault_schedule(
            ReplicaFaultSchedule::builder(1)
                .crash(1, 1_000_000, 2_000_000_000)
                .build(),
            FailoverConfig {
                max_redispatches: 3,
                warmup,
            },
        );
        c.dispatch(&events)
    };

    let cold = run(WarmupMode::Cold);
    let warm = run(WarmupMode::DonorWarmed);
    assert!(cold.cache_accounting_balances());
    assert!(warm.cache_accounting_balances());
    assert_eq!(
        cold.replicas[1].cache.warmup_inserts, 0,
        "cold restart replays nothing"
    );
    assert!(
        warm.replicas[1].cache.warmup_inserts > 0,
        "donor-warmed restart must book its replays under warmup_inserts"
    );
    assert_eq!(
        warm.replicas[0].cache.warmup_inserts, 0,
        "the donor itself replays nothing"
    );
    for report in [&cold, &warm] {
        for r in &report.replicas {
            assert_eq!(
                r.cache.hits + r.cache.misses,
                r.cache.lookups,
                "per-replica lookup identity"
            );
        }
    }
}
