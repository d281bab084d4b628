//! Cluster determinism, routing behaviour, and single-engine equivalence.

use fmoe::{FmoeConfig, FmoePredictor};
use fmoe_cluster::{AffinityConfig, Cluster, RoutingPolicy};
use fmoe_memsim::Topology;
use fmoe_model::{
    presets, GateParams, GateSimulator, GpuSpec, HistoryRequest, ModelConfig, RequestRouting,
};
use fmoe_serving::{
    serve, EngineBuilder, EngineConfig, NoPrefetch, ServeOptions, ServingEngine, SloPolicy,
};
use fmoe_trace::TraceSink;
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

/// A predictor warmed with history drawn from the given semantic
/// clusters, so its store answers affinity queries for those clusters.
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

fn cluster(n: usize, policy: RoutingPolicy, slo: Option<SloPolicy>) -> Cluster {
    let mut c = Cluster::new(gate(), policy, slo);
    for _ in 0..n {
        c.add_replica(builder(), Box::new(predictor()));
    }
    c
}

#[test]
fn dispatch_is_byte_identical_across_runs() {
    let events = trace(18);
    for policy in [
        RoutingPolicy::RoundRobin,
        RoutingPolicy::JoinShortestQueue,
        RoutingPolicy::SemanticAffinity(AffinityConfig::default()),
    ] {
        let run = || {
            let mut c = cluster(3, policy, None);
            let report = c.dispatch(&events);
            format!("{report:?}")
        };
        assert_eq!(run(), run(), "{} must be deterministic", policy.name());
    }
}

#[test]
fn merged_trace_is_byte_identical_across_runs() {
    let events = trace(12);
    let run = || {
        let mut c = Cluster::new(gate(), RoutingPolicy::RoundRobin, None);
        for _ in 0..2 {
            c.add_replica(
                builder().trace_sink(TraceSink::recording(1 << 16)),
                Box::new(predictor()),
            );
        }
        c.dispatch(&events);
        format!("{:?}", c.take_merged_trace())
    };
    assert_eq!(run(), run());
}

#[test]
fn one_replica_cluster_matches_plain_serve() {
    let events = trace(12);

    let mut single_engine = builder().build();
    let mut single_pred = predictor();
    let report = serve(
        &mut single_engine,
        &events,
        &mut single_pred,
        &ServeOptions::fcfs(),
    )
    .expect("fcfs serving is infallible");

    for policy in [
        RoutingPolicy::RoundRobin,
        RoutingPolicy::JoinShortestQueue,
        RoutingPolicy::SemanticAffinity(AffinityConfig::default()),
    ] {
        let mut c = cluster(1, policy, None);
        let cluster_report = c.dispatch(&events);
        assert_eq!(
            format!("{:?}", cluster_report.replicas[0].results),
            format!("{:?}", report.results),
            "1-replica {} cluster must equal single-engine serve",
            policy.name()
        );
    }
}

#[test]
fn one_replica_cluster_matches_plain_serve_under_slo() {
    let mut events = trace(8);
    for e in &mut events {
        e.arrival_ns = 0;
    }
    let slo = SloPolicy::shed(0);

    let mut single_engine = builder().build();
    let mut single_pred = predictor();
    let report = serve(
        &mut single_engine,
        &events,
        &mut single_pred,
        &ServeOptions::fcfs().with_slo(slo),
    )
    .expect("fcfs serving is infallible");

    let mut c = cluster(1, RoutingPolicy::RoundRobin, Some(slo));
    let cluster_report = c.dispatch(&events);
    assert_eq!(
        format!("{:?}", cluster_report.replicas[0].results),
        format!("{:?}", report.results)
    );
    assert_eq!(
        format!("{:?}", cluster_report.replicas[0].shed),
        format!("{:?}", report.shed)
    );
    assert_eq!(cluster_report.total_shed(), report.shed.len());
}

#[test]
fn round_robin_cycles_replicas() {
    let events = trace(9);
    let mut c = cluster(3, RoutingPolicy::RoundRobin, None);
    let report = c.dispatch(&events);
    for r in &report.replicas {
        assert_eq!(r.results.len(), 3, "round robin deals evenly");
    }
}

#[test]
fn jsq_spreads_simultaneous_arrivals() {
    let mut events = trace(9);
    for e in &mut events {
        e.arrival_ns = 0;
    }
    let mut c = cluster(3, RoutingPolicy::JoinShortestQueue, None);
    let report = c.dispatch(&events);
    let served: Vec<usize> = report.replicas.iter().map(|r| r.results.len()).collect();
    let max = *served.iter().max().unwrap();
    let min = *served.iter().min().unwrap();
    assert!(min >= 1, "every replica takes work: {served:?}");
    assert!(max - min <= 1, "JSQ balances a uniform burst: {served:?}");
    // All-idle ties break toward replica 0 first.
    assert_eq!(
        report.replicas[0].results[0].request_id,
        events[0].prompt.id
    );
}

#[test]
fn affinity_with_no_history_falls_back_to_jsq() {
    let events = trace(6);
    let mut c = Cluster::new(
        gate(),
        RoutingPolicy::SemanticAffinity(AffinityConfig::default()),
        None,
    );
    for _ in 0..2 {
        // NoPrefetch keeps no history: affinity is always `None`.
        c.add_replica(builder(), Box::new(NoPrefetch));
    }
    let report = c.dispatch(&events);
    assert_eq!(report.routing.cold_fallbacks, 6);
    assert_eq!(report.routing.affinity_routed, 0);
    assert_eq!(report.routing.jsq_fallbacks, 0);
    assert_eq!(report.total_served(), 6);
}

#[test]
fn affinity_prefers_the_replica_with_history() {
    let events = trace(10);
    let mut c = Cluster::new(
        gate(),
        RoutingPolicy::SemanticAffinity(AffinityConfig::default()),
        None,
    );
    // Replica 0 is cold (empty store → no affinity signal); replica 1
    // has seen every cluster the tiny dataset routes.
    c.add_replica(builder(), Box::new(predictor()));
    c.add_replica(builder(), Box::new(warmed_predictor(&[0, 1, 2, 3])));
    let report = c.dispatch(&events);
    assert_eq!(report.routing.affinity_routed, 10);
    assert_eq!(report.replicas[1].results.len(), 10);
    assert!(report.replicas[0].results.is_empty());
}

#[test]
fn imbalance_escape_hatch_diverts_overload() {
    // Everyone arrives at once and replica 0 is the unique affinity
    // target; a tight imbalance factor must divert the pile-up to the
    // idle replica.
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
    assert!(report.routing.jsq_fallbacks > 0, "{:?}", report.routing);
    assert!(
        !report.replicas[1].results.is_empty(),
        "diverted requests land on the idle replica"
    );
    assert_eq!(report.total_served(), 8);
}

#[test]
fn shed_accounting_reconciles_under_slo() {
    let mut events = trace(10);
    for e in &mut events {
        e.arrival_ns = 0;
    }
    let mut c = cluster(2, RoutingPolicy::RoundRobin, Some(SloPolicy::shed(0)));
    let report = c.dispatch(&events);
    assert_eq!(report.total_served() + report.total_shed(), 10);
    assert!(report.total_shed() > 0, "a t=0 burst must shed");
    assert!(report.goodput() > 0.0 && report.goodput() < 1.0);
    for r in &report.replicas {
        for s in &r.shed {
            assert!(s.queued_ns > 0);
        }
    }
}

#[test]
fn merged_trace_is_time_ordered_and_attributed() {
    let events = trace(8);
    let mut c = Cluster::new(gate(), RoutingPolicy::RoundRobin, None);
    for _ in 0..2 {
        c.add_replica(
            builder().trace_sink(TraceSink::recording(1 << 16)),
            Box::new(predictor()),
        );
    }
    c.dispatch(&events);
    let merged = c.take_merged_trace();
    assert!(!merged.is_empty());
    for w in merged.windows(2) {
        assert!(
            w[0].record.at_ns <= w[1].record.at_ns,
            "merged timeline must be time-ordered"
        );
        if w[0].record.at_ns == w[1].record.at_ns && w[0].replica != w[1].replica {
            assert!(w[0].replica <= w[1].replica, "ties break by replica id");
        }
    }
    let replicas: std::collections::BTreeSet<usize> = merged.iter().map(|r| r.replica).collect();
    assert_eq!(replicas.len(), 2, "both replicas contribute records");
    // Draining leaves the sinks empty.
    assert!(c.take_merged_trace().is_empty());
}

#[test]
fn empty_cluster_serves_nothing() {
    let events = trace(4);
    let mut c = Cluster::new(gate(), RoutingPolicy::RoundRobin, None);
    let report = c.dispatch(&events);
    assert!(report.replicas.is_empty());
    assert_eq!(report.total_served(), 0);
    assert_eq!(report.goodput(), 0.0);
}

#[test]
fn queue_depths_are_tracked() {
    let mut events = trace(6);
    for e in &mut events {
        e.arrival_ns = 0;
    }
    let mut c = cluster(1, RoutingPolicy::RoundRobin, None);
    let report = c.dispatch(&events);
    let r = &report.replicas[0];
    assert_eq!(r.results.len(), 6);
    assert_eq!(r.max_queue_depth, 6, "a t=0 burst stacks the whole queue");
    assert!(r.mean_queue_depth > 1.0);
    assert!(r.latency_quantile_ns(0.5).is_some());
}

/// EP×DP composition: a fleet of multi-GPU EP replicas serves the same
/// trace deterministically, and the fleet report attributes per-GPU
/// compute and all2all time inside every replica.
#[test]
fn ep_replicas_compose_with_data_parallel_dispatch() {
    use fmoe_serving::{ExpertParallelConfig, LoadBalancedPlacement};

    let events = trace(12);
    let run = || {
        let topo = Topology::builder()
            .num_gpus(2)
            .gpu_memory_bytes(8 << 30)
            .build()
            .expect("valid test topology");
        let config = EngineConfig {
            expert_parallel: Some(ExpertParallelConfig::default()),
            ..engine_config()
        };
        let mut c = Cluster::new(gate(), RoutingPolicy::RoundRobin, None);
        for _ in 0..2 {
            let b = ServingEngine::builder(gate(), GpuSpec::rtx_3090(), topo.clone())
                .config(config.clone())
                .placement_policy(&LoadBalancedPlacement::uniform());
            c.add_replica(b, Box::new(predictor()));
        }
        c.dispatch(&events)
    };

    let a = run();
    let b = run();
    assert_eq!(
        format!("{a:?}"),
        format!("{b:?}"),
        "EP fleet dispatch must be deterministic"
    );

    assert!(a.accounting_balances());
    assert_eq!(a.replicas.len(), 2);
    for r in &a.replicas {
        assert!(!r.results.is_empty(), "round-robin feeds every replica");
        assert_eq!(r.per_gpu.num_gpus(), 2, "breakdown covers both GPUs");
        let compute: u64 = (0..2).map(|g| r.per_gpu.compute_ns[g]).sum();
        let all2all: u64 = (0..2).map(|g| r.per_gpu.all2all_ns[g]).sum();
        assert!(compute > 0, "expert compute attributed to GPUs");
        assert!(all2all > 0, "token routing charged as all2all time");
    }

    // Single-GPU replicas must report an all-zero all2all row: the EP
    // config is inert without peers.
    let mut single = Cluster::new(gate(), RoutingPolicy::RoundRobin, None);
    single.add_replica(builder(), Box::new(predictor()));
    let s = single.dispatch(&events);
    assert!(s.replicas[0].per_gpu.all2all_ns.iter().all(|&ns| ns == 0));
}
