//! Figure 13 (cluster extension): fleet behaviour under replica chaos —
//! crash/recovery schedules, health-aware failover routing, and warm
//! restart.
//!
//! Each cell replays the same clustered workload through a 3-replica
//! [`fmoe_cluster::Cluster`] with a deterministic, builder-based
//! [`fmoe_faults::ReplicaFaultSchedule`]: `intensity` scales how many
//! replicas crash (replica 0 is always spared so a failover target and
//! warm-restart donor exist), with every crash window placed well inside
//! the arrival span so recovery is observable. The sweep crosses crash
//! intensity × routing policy × warmup mode:
//!
//! * **cold** restarts rejoin immediately with an empty cache and a
//!   reset Expert Map Store;
//! * **donor-warmed** restarts copy the healthiest peer's store and
//!   cache residency first, paying the copy through `fmoe-memsim`
//!   before rejoining.
//!
//! The headline: donor-warmed recovery climbs back to the pre-crash
//! fleet hit rate in fewer post-recovery requests than a cold restart —
//! asserted for every cell — at the price of warmup bytes and a later
//! rejoin. Goodput, availability, and the fleet P99 show what the
//! crashes themselves cost.
//!
//! ```sh
//! cargo run --release -p fmoe-bench --bin fig13_cluster_chaos [--quick] [--jobs N]
//! ```
//!
//! `--jobs N` fans the independent cells across worker threads; output
//! bytes are identical to a sequential run. The single-replica analogue
//! (fault injection inside one engine's transfer fabric) is
//! `chaos_faults`.

use fmoe::{FmoeConfig, FmoePredictor};
use fmoe_bench::cli::{Cli, JOBS};
use fmoe_bench::harness::ParallelRunner;
use fmoe_bench::report::{write_csv, Table};
use fmoe_cluster::{AffinityConfig, Cluster, FailoverConfig, RoutingPolicy, WarmupMode};
use fmoe_faults::ReplicaFaultSchedule;
use fmoe_memsim::Topology;
use fmoe_model::{
    presets, GateParams, GateSimulator, GpuSpec, HistoryRequest, ModelConfig, RequestRouting,
};
use fmoe_serving::{EngineConfig, ServingEngine};
use fmoe_workload::{AzureTraceSpec, DatasetSpec, TraceEvent};

const REPLICAS: usize = 3;

/// A restarted replica counts as recovered once its cumulative
/// post-restart hit rate reaches this fraction of the pre-crash fleet
/// hit rate. Exact parity is unreachable in general: while a replica is
/// down, affinity routing migrates its semantic shard to the survivors,
/// so its post-restart traffic mix differs from the one that produced
/// the pre-crash number.
const RECOVERY_MARGIN: f64 = 0.95;

fn model() -> ModelConfig {
    presets::small_test_model()
}

fn gate() -> GateSimulator {
    let m = model();
    GateSimulator::new(m.clone(), GateParams::for_model(&m))
}

/// Fleet-sized arrival groups: requests land three at a time (one per
/// replica under any load-balancing tie-break) with headroom between
/// groups, so the cells measure fault handling rather than saturation
/// and no replica starves on tie-breaks. The group right before each
/// crash window slides to 1 ms before it, so every crash interrupts
/// queued work and exercises failover.
fn trace(num_requests: u64, spacing_ns: u64, crash_starts: &[u64]) -> Vec<TraceEvent> {
    let mut spec = AzureTraceSpec::paper_online_serving(DatasetSpec::lmsys_chat());
    spec.num_requests = num_requests;
    let mut events = spec.generate();
    let group_ns = spacing_ns * REPLICAS as u64;
    for (i, e) in events.iter_mut().enumerate() {
        let base = (i as u64 / REPLICAS as u64) * group_ns;
        e.arrival_ns = base;
        for &start in crash_starts {
            if base < start && base + group_ns >= start {
                e.arrival_ns = start - 1_000_000;
            }
        }
    }
    events
}

/// A replica predictor warmed on its shard of the dataset's semantic
/// clusters, as in `fig12_cluster_scaling`.
fn warmed_predictor(replica: usize) -> FmoePredictor {
    let m = model();
    let mut p = FmoePredictor::new(m.clone(), FmoeConfig::for_model(&m));
    let clusters = DatasetSpec::lmsys_chat().num_clusters;
    let hist: Vec<HistoryRequest> = (0..clusters)
        .filter(|c| (*c as usize) % REPLICAS == replica)
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

/// Deterministic crash plan for one cell: `intensity` in (0, 1] scales
/// how many of the non-donor replicas crash. Windows are staggered
/// through the middle of the arrival span so every crash interrupts
/// in-flight work and every recovery leaves arrivals to measure with.
fn crash_plan(intensity: f64, span_ns: u64) -> (ReplicaFaultSchedule, Vec<(usize, u64, u64)>) {
    let crashes = ((intensity * (REPLICAS - 1) as f64).round() as usize).clamp(1, REPLICAS - 1);
    // Outage length grows with intensity as well, so cells that round to
    // the same crash count still sweep distinct downtime fractions.
    let len = (span_ns as f64 * 0.1 * (0.5 + intensity)) as u64;
    let mut windows = Vec::new();
    let mut b = ReplicaFaultSchedule::builder(13);
    for i in 0..crashes {
        let replica = 1 + i % (REPLICAS - 1);
        let start = span_ns * (4 + 3 * i as u64) / 20;
        b = b.crash(replica as u32, start, start + len);
        windows.push((replica, start, start + len));
    }
    (b.build(), windows)
}

/// What one (intensity, policy, warmup) cell contributes to the report.
struct CellOutcome {
    served: usize,
    shed: usize,
    goodput: f64,
    mean_availability: f64,
    fleet_hit_rate: f64,
    p99_ms: f64,
    failed_over: u64,
    warmup_mb: f64,
    /// Post-recovery requests until every crashed replica's cumulative
    /// post-restart hit rate reached [`RECOVERY_MARGIN`] of the
    /// pre-crash fleet hit rate; `requests + 1` when one never did.
    recovery_requests: u64,
    cdf_points: Vec<(f64, f64)>,
}

fn run_cell(
    intensity: f64,
    policy: RoutingPolicy,
    warmup: WarmupMode,
    requests: u64,
) -> CellOutcome {
    let m = model();
    let spacing_ns = 5_000_000;
    let span_ns = requests * spacing_ns;
    let (schedule, windows) = crash_plan(intensity, span_ns);
    let first_crash = windows.iter().map(|&(_, s, _)| s).min().unwrap_or(0);
    let crash_starts: Vec<u64> = windows.iter().map(|&(_, s, _)| s).collect();
    let events = trace(requests, spacing_ns, &crash_starts);

    let mut cluster = Cluster::new(gate(), policy, None);
    for replica in 0..REPLICAS {
        let config = EngineConfig {
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
        cluster.add_replica(engine, Box::new(warmed_predictor(replica)));
    }
    cluster.set_replica_fault_schedule(
        schedule,
        FailoverConfig {
            max_redispatches: 3,
            warmup,
        },
    );

    // Dispatch one event at a time so the recovery climb is observable:
    // snapshot the fleet hit rate just before the first crash, then for
    // each crashed replica count the requests arriving after its
    // recovery until its cumulative post-restart hit rate climbs back
    // to that pre-crash level.
    let mut pre_crash_hit: Option<f64> = None;
    let mut recovered_at: Vec<Option<u64>> = vec![None; windows.len()];
    let mut post_recovery_seen: Vec<u64> = vec![0; windows.len()];
    let mut report = None;
    for event in &events {
        if event.arrival_ns >= first_crash && pre_crash_hit.is_none() {
            let so_far: Option<&fmoe_cluster::ClusterReport> = report.as_ref();
            pre_crash_hit = Some(so_far.map_or(0.0, |r| r.fleet_hit_rate()));
        }
        report = Some(cluster.dispatch(std::slice::from_ref(event)));
        for (i, &(replica, _, end)) in windows.iter().enumerate() {
            if event.arrival_ns <= end {
                continue;
            }
            post_recovery_seen[i] += 1;
            if recovered_at[i].is_none() {
                let stats = cluster
                    .replica_engine(replica)
                    .expect("replica exists")
                    .cache_stats();
                if std::env::var("FIG13_DEBUG").is_ok() {
                    eprintln!(
                        "dbg {} {} i={intensity} w{i} r{replica} seen={} acc={} hr={:.4} thr={:.4}",
                        policy.name(),
                        warmup.name(),
                        post_recovery_seen[i],
                        stats.accesses(),
                        stats.hit_rate(),
                        pre_crash_hit.unwrap_or(0.0)
                    );
                }
                let threshold = RECOVERY_MARGIN * pre_crash_hit.unwrap_or(0.0);
                if stats.accesses() > 0 && stats.hit_rate() >= threshold {
                    recovered_at[i] = Some(post_recovery_seen[i]);
                }
            }
        }
    }
    let report = report.expect("at least one event dispatched");
    assert!(
        report.accounting_balances(),
        "lost requests at intensity {intensity}, {}, {}",
        policy.name(),
        warmup.name()
    );
    assert_eq!(report.failover.crashes as usize, windows.len());
    assert_eq!(report.failover.recoveries as usize, windows.len());

    // Availability from the schedule itself: fraction of the arrival
    // span each replica was up, averaged over the fleet.
    let downtime: u64 = windows
        .iter()
        .map(|&(_, s, e)| e.min(span_ns).saturating_sub(s.min(span_ns)))
        .sum();
    let mean_availability = 1.0 - downtime as f64 / (span_ns as f64 * REPLICAS as f64);

    let recovery_requests = recovered_at
        .iter()
        .map(|r| r.unwrap_or(requests + 1))
        .max()
        .unwrap_or(0);
    let cdf = report.fleet_latency_cdf();
    CellOutcome {
        served: report.total_served(),
        shed: report.total_shed(),
        goodput: report.goodput(),
        mean_availability,
        fleet_hit_rate: report.fleet_hit_rate(),
        p99_ms: report.fleet_latency_quantile_ns(0.99).unwrap_or(0.0) / 1e6,
        failed_over: report.failover.failed_over,
        warmup_mb: report.failover.warmup_bytes as f64 / 1e6,
        recovery_requests,
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
    let requests: u64 = if quick { 48 } else { 96 };
    let intensities: &[f64] = if quick {
        &[0.5, 1.0]
    } else {
        &[0.5, 0.75, 1.0]
    };

    let mut points = Vec::new();
    for &intensity in intensities {
        for policy in policies() {
            for warmup in [WarmupMode::Cold, WarmupMode::DonorWarmed] {
                points.push((intensity, policy, warmup));
            }
        }
    }
    let outcomes = runner.run(&points, |_, &(intensity, policy, warmup)| {
        run_cell(intensity, policy, warmup, requests)
    });

    let mut table = Table::new(
        "Figure 13: cluster chaos — crash intensity vs failover and warm restart",
        &[
            "intensity",
            "policy",
            "warmup",
            "served",
            "shed",
            "goodput",
            "avail",
            "hit_rate",
            "p99_ms",
            "failovers",
            "warmup_mb",
            "recovery_reqs",
        ],
    );
    let mut cdf_table = Table::new(
        "Figure 13 raw fleet latency CDF points",
        &["intensity", "policy", "warmup", "latency_ms", "fraction"],
    );
    for ((intensity, policy, warmup), outcome) in points.iter().zip(&outcomes) {
        table.row(vec![
            format!("{intensity:.2}"),
            policy.name().into(),
            warmup.name().into(),
            outcome.served.to_string(),
            outcome.shed.to_string(),
            format!("{:.4}", outcome.goodput),
            format!("{:.4}", outcome.mean_availability),
            format!("{:.4}", outcome.fleet_hit_rate),
            format!("{:.1}", outcome.p99_ms),
            outcome.failed_over.to_string(),
            format!("{:.2}", outcome.warmup_mb),
            outcome.recovery_requests.to_string(),
        ]);
        for &(ms, frac) in &outcome.cdf_points {
            cdf_table.row(vec![
                format!("{intensity:.2}"),
                policy.name().into(),
                warmup.name().into(),
                format!("{ms:.3}"),
                format!("{frac:.6}"),
            ]);
        }
    }
    table.print();

    // The chaos claim under test: seeding a restarted replica from the
    // healthiest peer wins back the pre-crash fleet hit rate in no more
    // post-recovery requests than a cold restart, in every cell.
    for &intensity in intensities {
        for policy in policies() {
            let cell = |wanted: WarmupMode| {
                points
                    .iter()
                    .zip(&outcomes)
                    .find(|((i, p, w), _)| {
                        *i == intensity && p.name() == policy.name() && *w == wanted
                    })
                    .map(|(_, o)| (o.recovery_requests, o.warmup_mb))
                    .expect("cell exists")
            };
            let (cold, _) = cell(WarmupMode::Cold);
            let (warm, warm_mb) = cell(WarmupMode::DonorWarmed);
            assert!(
                warm < cold,
                "donor-warmed restart must recover the pre-crash fleet hit rate in fewer \
                 post-recovery requests than cold at intensity {intensity}, {}: \
                 {warm} vs {cold}",
                policy.name()
            );
            assert!(warm_mb > 0.0, "donor-warmed restart copies real bytes");
            println!(
                "recovery @ intensity {intensity:.2}, {}: donor-warmed {warm} vs cold {cold} \
                 post-recovery requests ({warm_mb:.2} MB copied)",
                policy.name()
            );
        }
    }

    let path = write_csv(&cli, &table, "fig13_cluster_chaos").expect("write CSV");
    println!("\nwrote {}", path.display());
    let path = write_csv(&cli, &cdf_table, "fig13_cluster_chaos_cdf").expect("write CSV");
    println!("wrote {}", path.display());
}
