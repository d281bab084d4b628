//! Figure 12 (cluster extension): multi-replica scaling under three
//! routing policies — round-robin, join-shortest-queue, and fMoE's
//! semantic-affinity routing.
//!
//! Each cell replays the same LMSYS-style clustered workload (Azure
//! arrival timings, rate scaled with the sweep) through a
//! [`fmoe_cluster::Cluster`] of N replicas. Every replica starts with an
//! Expert Map Store warmed on a *disjoint shard* of the dataset's
//! semantic clusters — the steady state a fleet reaches when requests
//! were ever routed with any locality at all — and keeps learning
//! online. The policies then differ only in where they send each
//! arriving request:
//!
//! * **round-robin** ignores both load and history (the fleet baseline);
//! * **jsq** chases load only;
//! * **semantic-affinity** sends each prompt to the replica whose store
//!   has seen similar prompts (via the `top_k_cosine_slab` fast path),
//!   with a JSQ escape hatch under imbalance.
//!
//! The shape to look for: at equal load and equal shed counts (no SLO —
//! nothing sheds), semantic affinity wins fleet cache hit rate over
//! round-robin, because each replica's cache serves a narrower expert
//! population. The price shows up in the queue-depth columns.
//!
//! ```sh
//! cargo run --release -p fmoe-bench --bin fig12_cluster_scaling [--quick] [--jobs N]
//! ```
//!
//! `--jobs N` fans the independent (replicas, rate, policy) cells across
//! worker threads; output bytes are identical to a sequential run.

use fmoe::{FmoeConfig, FmoePredictor};
use fmoe_bench::cli::{Cli, JOBS};
use fmoe_bench::harness::ParallelRunner;
use fmoe_bench::report::{write_csv, Table};
use fmoe_cluster::{AffinityConfig, Cluster, RoutingPolicy};
use fmoe_memsim::Topology;
use fmoe_model::{
    presets, GateParams, GateSimulator, GpuSpec, HistoryRequest, ModelConfig, RequestRouting,
};
use fmoe_serving::{EngineConfig, ServingEngine};
use fmoe_workload::{AzureTraceSpec, DatasetSpec, TraceEvent};

fn model() -> ModelConfig {
    presets::small_test_model()
}

fn gate() -> GateSimulator {
    let m = model();
    GateSimulator::new(m.clone(), GateParams::for_model(&m))
}

/// The clustered workload: LMSYS-style prompts on Azure-style arrivals,
/// with the arrival *rate* scaled by `rate_scale` (interarrival means
/// divided) so the sweep holds per-replica load constant as the fleet
/// grows.
fn trace(num_requests: u64, rate_scale: f64) -> Vec<TraceEvent> {
    let mut spec = AzureTraceSpec::paper_online_serving(DatasetSpec::lmsys_chat());
    spec.num_requests = num_requests;
    spec.quiet_interarrival_ms /= rate_scale;
    spec.burst_interarrival_ms /= rate_scale;
    spec.generate()
}

/// A replica predictor warmed on its shard of the dataset's semantic
/// clusters (cluster id mod replica count), so the fleet starts in the
/// specialized steady state affinity routing converges to.
fn warmed_predictor(replica: usize, replicas: usize) -> FmoePredictor {
    let m = model();
    let mut p = FmoePredictor::new(m.clone(), FmoeConfig::for_model(&m));
    let clusters = DatasetSpec::lmsys_chat().num_clusters;
    let hist: Vec<HistoryRequest> = (0..clusters)
        .filter(|c| (*c as usize) % replicas == replica)
        .map(|c| HistoryRequest {
            routing: RequestRouting {
                cluster: c,
                request_seed: 7_000 + c,
            },
            prompt_tokens: 32,
            iterations: 3,
        })
        .collect();
    p.populate_from_history(&gate(), &hist, 3);
    p
}

/// What one (replicas, rate, policy) cell contributes to the report,
/// computed inside the worker and formatted afterwards on the main
/// thread.
struct CellOutcome {
    served: usize,
    shed: usize,
    fleet_hit_rate: f64,
    p50_ms: f64,
    p99_ms: f64,
    max_queue_depth: usize,
    affinity_routed: u64,
    jsq_fallbacks: u64,
    cold_fallbacks: u64,
    cdf_points: Vec<(f64, f64)>,
}

fn run_cell(replicas: usize, rate_scale: f64, policy: RoutingPolicy, requests: u64) -> CellOutcome {
    let m = model();
    // Fleet arrival rate grows with the replica count so per-replica
    // load stays constant across the sweep.
    let events = trace(requests, rate_scale * replicas as f64);
    let mut cluster = Cluster::new(gate(), policy, None);
    for replica in 0..replicas {
        let config = EngineConfig {
            // A quarter of the experts fit: pressure enough that routing
            // locality decides the hit rate.
            cache_budget_bytes: m.expert_bytes() * 16,
            preload_all: false,
            max_decode_iterations: Some(4),
            context_collection_ns: 10_000,
            framework_overhead_per_layer_ns: 50_000,
            ..EngineConfig::paper_default()
        };
        let engine =
            ServingEngine::builder(gate(), GpuSpec::rtx_3090(), Topology::single_gpu(8 << 30))
                .config(config);
        cluster.add_replica(engine, Box::new(warmed_predictor(replica, replicas)));
    }
    let report = cluster.dispatch(&events);
    let cdf = report.fleet_latency_cdf();
    CellOutcome {
        served: report.total_served(),
        shed: report.total_shed(),
        fleet_hit_rate: report.fleet_hit_rate(),
        p50_ms: report.fleet_latency_quantile_ns(0.5).unwrap_or(0.0) / 1e6,
        p99_ms: report.fleet_latency_quantile_ns(0.99).unwrap_or(0.0) / 1e6,
        max_queue_depth: report
            .replicas
            .iter()
            .map(|r| r.max_queue_depth)
            .max()
            .unwrap_or(0),
        affinity_routed: report.routing.affinity_routed,
        jsq_fallbacks: report.routing.jsq_fallbacks,
        cold_fallbacks: report.routing.cold_fallbacks,
        cdf_points: cdf
            .points(33)
            .into_iter()
            .map(|(ns, frac)| (ns / 1e6, frac))
            .collect(),
    }
}

fn policies() -> [RoutingPolicy; 3] {
    [
        RoutingPolicy::RoundRobin,
        RoutingPolicy::JoinShortestQueue,
        RoutingPolicy::SemanticAffinity(AffinityConfig::default()),
    ]
}

fn main() {
    let cli = Cli::parse(&[JOBS]);
    let quick = cli.quick;
    let runner = ParallelRunner::from_cli(&cli);
    let requests: u64 = if quick { 32 } else { 96 };
    let replica_counts: &[usize] = if quick { &[1, 4] } else { &[1, 2, 4, 8] };
    let rate_scales: &[f64] = if quick { &[1.0, 4.0] } else { &[1.0, 2.0, 4.0] };

    let mut points = Vec::new();
    for &replicas in replica_counts {
        for &scale in rate_scales {
            for policy in policies() {
                points.push((replicas, scale, policy));
            }
        }
    }
    let outcomes = runner.run(&points, |_, &(replicas, scale, policy)| {
        run_cell(replicas, scale, policy, requests)
    });

    let mut table = Table::new(
        "Figure 12: cluster scaling — routing policy vs fleet locality and load",
        &[
            "replicas",
            "rate",
            "policy",
            "served",
            "shed",
            "hit_rate",
            "p50_ms",
            "p99_ms",
            "max_queue",
            "affinity",
            "jsq_fb",
            "cold_fb",
        ],
    );
    let mut cdf_table = Table::new(
        "Figure 12 raw fleet latency CDF points",
        &["replicas", "rate", "policy", "latency_ms", "fraction"],
    );
    for ((replicas, scale, policy), outcome) in points.iter().zip(&outcomes) {
        table.row(vec![
            replicas.to_string(),
            format!("{scale:.1}"),
            policy.name().into(),
            outcome.served.to_string(),
            outcome.shed.to_string(),
            format!("{:.4}", outcome.fleet_hit_rate),
            format!("{:.1}", outcome.p50_ms),
            format!("{:.1}", outcome.p99_ms),
            outcome.max_queue_depth.to_string(),
            outcome.affinity_routed.to_string(),
            outcome.jsq_fallbacks.to_string(),
            outcome.cold_fallbacks.to_string(),
        ]);
        for &(ms, frac) in &outcome.cdf_points {
            cdf_table.row(vec![
                replicas.to_string(),
                format!("{scale:.1}"),
                policy.name().into(),
                format!("{ms:.3}"),
                format!("{frac:.6}"),
            ]);
        }
    }
    table.print();

    // The cluster claim under test: at equal load and equal shed counts,
    // semantic-affinity routing beats round-robin on fleet cache hit
    // rate once there is more than one replica to specialize.
    for &replicas in replica_counts {
        if replicas < 2 {
            continue;
        }
        for &scale in rate_scales {
            let hit = |wanted: &str| {
                points
                    .iter()
                    .zip(&outcomes)
                    .find(|((r, s, p), _)| *r == replicas && *s == scale && p.name() == wanted)
                    .map(|(_, o)| (o.fleet_hit_rate, o.shed))
                    .expect("cell exists")
            };
            let (affinity, affinity_shed) = hit("semantic-affinity");
            let (round_robin, rr_shed) = hit("round-robin");
            assert_eq!(
                affinity_shed, rr_shed,
                "hit rates compared at unequal shed counts ({replicas}x @ {scale})"
            );
            assert!(
                affinity >= round_robin,
                "semantic affinity must not lose fleet hit rate to round-robin \
                 at {replicas} replicas, rate {scale}: {affinity:.4} < {round_robin:.4}"
            );
            println!(
                "affinity vs round-robin @ {replicas} replicas, rate {scale:.1}: \
                 hit rate {affinity:.4} vs {round_robin:.4}"
            );
        }
    }

    let path = write_csv(&cli, &table, "fig12_cluster_scaling").expect("write CSV");
    println!("\nwrote {}", path.display());
    let path = write_csv(&cli, &cdf_table, "fig12_cluster_cdf").expect("write CSV");
    println!("wrote {}", path.display());
}
