//! The benchmark's three workloads: inputs made from a seed, set-up in
//! timed stages, one measured serving pass, and the pass's output checks.
//!
//! Every workload drives the simulator through public entry points only:
//! `CellConfig` + `ServingEngine::serve_request` (offline),
//! `fmoe_serving::serve` (online) and `Cluster::dispatch` (cluster).

use crate::probe::{lock, Probe, Probed, SharedProbe};
use fmoe::{FmoeConfig, FmoePredictor};
use fmoe_bench::harness::{coverage_probe, CellConfig, CoverageStats, System};
use fmoe_cache::CacheStats;
use fmoe_cluster::{AffinityConfig, Cluster, RoutingPolicy, RoutingStats};
use fmoe_memsim::{Topology, TransferStats};
use fmoe_model::{presets, GateSimulator, GpuSpec, ModelConfig};
use fmoe_serving::{
    serve, Breakdown, EngineConfig, ExpertParallelConfig, ExpertPredictor, RequestMetrics,
    ServeOptions, ServingEngine, SloPolicy,
};
use fmoe_stats::hash_to_unit;
use fmoe_trace::{phase_totals, Marker, TraceSink};
use fmoe_workload::{split, AzureTraceSpec, DatasetSpec, Prompt, TraceEvent};
use std::time::{Duration, Instant};

/// Decode iterations per request are capped here on every workload, so a
/// pass serves a fixed, bounded amount of work.
const MAX_DECODE: u64 = 16;
/// Records one engine trace sink can hold; a sink pass fails its check if
/// any were dropped.
const SINK_CAPACITY: usize = 1 << 21;
/// Measured prompts the coverage probe replays (a prefix of the pass).
const COVERAGE_PROMPTS: usize = 40;

/// `offline-fmoe`: history prompts populating the Expert Map Store.
const OFFLINE_HISTORY: usize = 200;
/// `offline-fmoe`: measured closed-loop requests.
const OFFLINE_REQUESTS: usize = 100;
/// `online-burst`: requests on the arrival trace. With 150 the tail of
/// TTFT (p90, 15 samples beyond) swung by up to 21% between seeds.
const ONLINE_REQUESTS: usize = 300;
/// `online-burst`: continuous-batching slots.
const ONLINE_SLOTS: usize = 8;
/// `online-burst`: the paper's Azure interarrival times are stretched by
/// this factor (⅛ of the paper's rate), which puts the engine near its
/// knee: bursts build queues of several seconds and about 10% of requests
/// are shed. At ¼ of the rate about 15% are shed.
const ONLINE_SLOWDOWN: f64 = 8.0;
/// `online-burst`: a request still queued this long is shed.
const ONLINE_MAX_QUEUE_NS: u64 = 8_000_000_000;
/// `cluster-affinity`: replicas, each an expert-parallel GPU group.
const REPLICAS: usize = 4;
/// `cluster-affinity`: GPUs per replica.
const GPUS_PER_REPLICA: u32 = 2;
/// `cluster-affinity`: requests on the arrival trace.
const CLUSTER_REQUESTS: usize = 120;
/// `cluster-affinity`: interarrival stretch. Affinity routing piles a
/// burst onto the replicas whose stores match it, so at any rate whose
/// burst gaps are shorter than a request's ~3.4 s service time replica
/// queues grow with the burst, and fleet latency percentiles swing by
/// 10–40% between seeds (the paper's rate saturates the fleet outright).
/// At 1/150 of the paper's rate burst gaps are ~7.5 s and every replica
/// queue stays short.
const CLUSTER_SLOWDOWN: f64 = 150.0;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper §6.2 offline cell: Mixtral-8x7B, LMSYS, closed loop.
    OfflineFmoe,
    /// Paper §6.3 online serving: ShareGPT on bursty arrivals.
    OnlineBurst,
    /// Four Phi-3.5-MoE expert-parallel replicas behind affinity routing.
    ClusterAffinity,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::OfflineFmoe,
        Workload::OnlineBurst,
        Workload::ClusterAffinity,
    ];

    /// The name passed to `--workload`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::OfflineFmoe => "offline-fmoe",
            Workload::OnlineBurst => "online-burst",
            Workload::ClusterAffinity => "cluster-affinity",
        }
    }

    /// Parses a `--workload` value.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// TTFT and TPOT limits in milliseconds that `slo_attainment` counts
    /// a served request against.
    #[must_use]
    pub fn slo_ms(self) -> (f64, f64) {
        match self {
            Workload::OfflineFmoe => (650.0, 235.0),
            Workload::OnlineBurst => (1_000.0, 500.0),
            Workload::ClusterAffinity => (1_200.0, 200.0),
        }
    }

    /// Builds everything up to the first measured request, timing each
    /// stage; `instrument` selects what the measured pass carries.
    #[must_use]
    pub fn setup(self, seed: u64, instrument: &Instrument) -> (Prepared, Stages) {
        match self {
            Workload::OfflineFmoe => setup_offline(seed, instrument),
            Workload::OnlineBurst => setup_online(seed, instrument),
            Workload::ClusterAffinity => setup_cluster(seed, instrument),
        }
    }
}

/// What a serving pass carries besides the simulator itself.
#[derive(Clone)]
pub enum Instrument {
    /// Nothing: the uninstrumented pass end-to-end metrics come from.
    Plain,
    /// The timing wrapper around every predictor.
    Probed(SharedProbe),
    /// A recording trace sink in every engine.
    Sink,
}

/// Wall time of each set-up stage.
#[derive(Debug, Default, Clone, Copy)]
pub struct Stages {
    /// Router (gate simulator) construction.
    pub router: Duration,
    /// Prompt sampling, history split and arrival-trace generation.
    pub inputs: Duration,
    /// Predictor construction and history population.
    pub populate: Duration,
    /// Engine or cluster construction.
    pub engine: Duration,
    /// Unmeasured warm-up requests.
    pub warmup: Duration,
    /// Wall time from the start of set-up to the first measured request,
    /// read on its own clock.
    pub total: Duration,
}

impl Stages {
    /// Sum of the five stages.
    #[must_use]
    pub fn sum(&self) -> Duration {
        self.router + self.inputs + self.populate + self.engine + self.warmup
    }
}

/// Contiguous stage timer: each `lap` returns the time since the last.
struct Laps(Instant);

impl Laps {
    fn lap(&mut self) -> Duration {
        let now = Instant::now();
        let spent = now - self.0;
        self.0 = now;
        spent
    }
}

/// A workload ready to serve its measured inputs once.
pub struct Prepared {
    /// The router every engine of the workload shares.
    pub gate: GateSimulator,
    /// One engine's topology (every replica has the same).
    pub topology: Topology,
    /// One engine's expert-cache budget.
    pub budget_bytes: u64,
    /// The measured prompts, in send order.
    prompts: Vec<Prompt>,
    server: Server,
    arrivals: Option<Vec<TraceEvent>>,
    history: Vec<Prompt>,
    sinks: Vec<TraceSink>,
    cell: CellConfig,
}

enum Server {
    Engine {
        engine: Box<ServingEngine>,
        predictor: Box<dyn ExpertPredictor>,
    },
    Cluster(Box<Cluster>),
}

/// Boxes `predictor`, wrapped when the pass is probed.
fn boxed(
    predictor: FmoePredictor,
    model: &ModelConfig,
    instrument: &Instrument,
    replica: usize,
) -> Box<dyn ExpertPredictor> {
    match instrument {
        Instrument::Probed(probe) => Box::new(Probed::new(
            predictor,
            probe.clone(),
            replica,
            model.experts_per_layer,
        )),
        _ => Box::new(predictor),
    }
}

/// An fMoE predictor with an empty Expert Map Store.
fn empty_predictor(cell: &CellConfig) -> FmoePredictor {
    let config = FmoeConfig::for_model(&cell.model).with_distance(cell.prefetch_distance);
    FmoePredictor::new(cell.model.clone(), config)
}

/// First dataset prompt id for `seed`: each seed draws its own sample of
/// the dataset, and the dataset's distributions stay fixed.
fn first_id(seed: u64) -> u64 {
    seed.wrapping_add(1).wrapping_mul(1 << 24)
}

/// The paper's Azure-style arrival trace stretched by `slowdown`. The
/// trace — its arrival instants and its pool of prompts — is fixed, as the
/// paper replays one fixed Azure trace sample; the seed shuffles which
/// prompt rides on which arrival, so each seed changes arrival order,
/// routing and cache history while the pool's length distribution, on
/// which the latency percentiles mostly depend, stays put.
fn arrivals(dataset: &DatasetSpec, seed: u64, requests: usize, slowdown: f64) -> Vec<TraceEvent> {
    let mut spec = AzureTraceSpec::paper_online_serving(dataset.clone());
    spec.num_requests = requests as u64;
    spec.quiet_interarrival_ms *= slowdown;
    spec.burst_interarrival_ms *= slowdown;
    let mut events = spec.generate();
    // Fisher-Yates over the prompts, driven by the seed.
    for i in (1..events.len()).rev() {
        let u = hash_to_unit(&[seed, i as u64, 0x5EED]);
        let j = ((u * (i + 1) as f64) as usize).min(i);
        let (a, b) = (events[i].prompt, events[j].prompt);
        events[i].prompt = b;
        events[j].prompt = a;
    }
    events
}

/// Installs a recording sink when the pass asks for one (after warm-up,
/// so it covers exactly the measured requests).
fn install_sink(engine: &mut ServingEngine, instrument: &Instrument) -> Vec<TraceSink> {
    match instrument {
        Instrument::Sink => {
            let sink = TraceSink::recording(SINK_CAPACITY);
            engine.set_trace_sink(sink.clone());
            vec![sink]
        }
        _ => Vec::new(),
    }
}

fn setup_offline(seed: u64, instrument: &Instrument) -> (Prepared, Stages) {
    let start = Instant::now();
    let mut laps = Laps(start);
    let mut stages = Stages::default();
    let mut cell = CellConfig::new(
        presets::mixtral_8x7b(),
        DatasetSpec::lmsys_chat(),
        System::Fmoe,
    );
    cell.max_decode = MAX_DECODE;
    let gate = cell.gate();
    stages.router = laps.lap();

    // Walk the seed's prompt ids until both sides of the paper's 70/30
    // split are full, so every seed populates and serves the same counts.
    let (mut history, mut test) = (Vec::new(), Vec::new());
    let mut id = first_id(seed);
    while history.len() < OFFLINE_HISTORY || test.len() < OFFLINE_REQUESTS {
        let prompt = cell.dataset.prompt(id);
        id += 1;
        let (h, _) = split::paper_split(&[prompt]);
        if h.is_empty() {
            if test.len() < OFFLINE_REQUESTS {
                test.push(prompt);
            }
        } else if history.len() < OFFLINE_HISTORY {
            history.push(prompt);
        }
    }
    stages.inputs = laps.lap();

    let predictor = cell.fmoe_predictor(&gate, &history);
    stages.populate = laps.lap();

    let mut engine = cell.engine(gate.clone());
    let mut predictor = boxed(predictor, &cell.model, instrument, 0);
    stages.engine = laps.lap();

    for prompt in history.iter().take(cell.warmup_requests) {
        let _ = engine.serve_request(*prompt, predictor.as_mut());
    }
    let _ = engine.take_breakdown();
    stages.warmup = laps.lap();
    stages.total = start.elapsed();

    if let Instrument::Probed(probe) = instrument {
        // Keep only the store size: the probe measures the measured pass.
        let mut probe = lock(probe);
        let store_entries = std::mem::take(&mut probe.store_entries);
        *probe = Probe {
            store_entries,
            ..Probe::default()
        };
    }
    let sinks = install_sink(&mut engine, instrument);
    let prepared = Prepared {
        gate,
        topology: cell.topology.clone(),
        budget_bytes: cell.cache_budget_bytes,
        prompts: test,
        server: Server::Engine {
            engine: Box::new(engine),
            predictor,
        },
        arrivals: None,
        history,
        sinks,
        cell,
    };
    (prepared, stages)
}

fn setup_online(seed: u64, instrument: &Instrument) -> (Prepared, Stages) {
    let start = Instant::now();
    let mut laps = Laps(start);
    let mut stages = Stages::default();
    let mut cell = CellConfig::new(
        presets::mixtral_8x7b(),
        DatasetSpec::sharegpt(),
        System::Fmoe,
    );
    cell.max_decode = MAX_DECODE;
    let gate = cell.gate();
    stages.router = laps.lap();

    let events = arrivals(&cell.dataset, seed, ONLINE_REQUESTS, ONLINE_SLOWDOWN);
    stages.inputs = laps.lap();

    // Online: the Expert Map Store starts empty and fills as requests
    // stream in (paper §6.3).
    let predictor = empty_predictor(&cell);
    stages.populate = laps.lap();

    let mut engine = cell.engine(gate.clone());
    let predictor = boxed(predictor, &cell.model, instrument, 0);
    stages.engine = laps.lap();
    stages.warmup = laps.lap();
    stages.total = start.elapsed();

    let sinks = install_sink(&mut engine, instrument);
    let prepared = Prepared {
        gate,
        topology: cell.topology.clone(),
        budget_bytes: cell.cache_budget_bytes,
        prompts: events.iter().map(|e| e.prompt).collect(),
        server: Server::Engine {
            engine: Box::new(engine),
            predictor,
        },
        arrivals: Some(events),
        history: Vec::new(),
        sinks,
        cell,
    };
    (prepared, stages)
}

fn setup_cluster(seed: u64, instrument: &Instrument) -> (Prepared, Stages) {
    let start = Instant::now();
    let mut laps = Laps(start);
    let mut stages = Stages::default();
    let mut cell = CellConfig::new(
        presets::phi35_moe(),
        DatasetSpec::lmsys_chat(),
        System::Fmoe,
    );
    cell.max_decode = MAX_DECODE;
    cell.topology = Topology::builder()
        .num_gpus(GPUS_PER_REPLICA)
        .build()
        .expect("a two-GPU topology is valid");
    let gate = cell.gate();
    stages.router = laps.lap();

    let events = arrivals(&cell.dataset, seed, CLUSTER_REQUESTS, CLUSTER_SLOWDOWN);
    stages.inputs = laps.lap();

    // Every replica's store starts cold.
    let predictors: Vec<FmoePredictor> = (0..REPLICAS).map(|_| empty_predictor(&cell)).collect();
    stages.populate = laps.lap();

    let config = EngineConfig {
        cache_budget_bytes: cell.cache_budget_bytes,
        max_decode_iterations: Some(MAX_DECODE),
        expert_parallel: Some(ExpertParallelConfig::default()),
        ..EngineConfig::paper_default()
    };
    let mut cluster = Cluster::new(
        gate.clone(),
        RoutingPolicy::SemanticAffinity(AffinityConfig::default()),
        None,
    );
    let mut sinks = Vec::new();
    for (replica, predictor) in predictors.into_iter().enumerate() {
        let mut builder =
            ServingEngine::builder(gate.clone(), GpuSpec::rtx_3090(), cell.topology.clone())
                .policy(System::Fmoe.cache_policy(cell.model.experts_per_layer))
                .config(config.clone());
        if let Instrument::Sink = instrument {
            let sink = TraceSink::recording(SINK_CAPACITY);
            builder = builder.trace_sink(sink.clone());
            sinks.push(sink);
        }
        cluster.add_replica(builder, boxed(predictor, &cell.model, instrument, replica));
    }
    stages.engine = laps.lap();
    stages.warmup = laps.lap();
    stages.total = start.elapsed();

    let prepared = Prepared {
        gate,
        topology: cell.topology.clone(),
        budget_bytes: cell.cache_budget_bytes,
        prompts: events.iter().map(|e| e.prompt).collect(),
        server: Server::Cluster(Box::new(cluster)),
        arrivals: Some(events),
        history: Vec::new(),
        sinks,
        cell,
    };
    (prepared, stages)
}

/// One served request's virtual outputs.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    /// Scheduled arrival (closed loop: when the client sent it).
    pub arrival_ns: u64,
    /// When serving began.
    pub start_ns: u64,
    /// When its last token was emitted.
    pub finish_ns: u64,
    /// The engine's per-request metrics.
    pub metrics: RequestMetrics,
}

impl Row {
    /// Latency from the scheduled arrival, so queueing counts.
    #[must_use]
    pub fn latency_ns(&self) -> u64 {
        self.finish_ns - self.arrival_ns
    }

    /// Queueing before serving began.
    #[must_use]
    pub fn queue_ns(&self) -> u64 {
        self.start_ns - self.arrival_ns
    }
}

/// Cluster routing and queue statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClusterStats {
    /// Routing-decision counters.
    pub routing: RoutingStats,
    /// Largest queue depth any replica saw.
    pub queue_depth_max: usize,
    /// Mean of the replicas' mean queue depths.
    pub queue_depth_mean: f64,
    /// Most served by one replica over the mean served per replica.
    pub served_imbalance: f64,
}

/// Everything one measured serving pass produced.
pub struct Outcome {
    /// Requests sent.
    pub sent: usize,
    /// Served requests, in the order the entry point reported them.
    pub rows: Vec<Row>,
    /// Ids of requests the SLO policy shed.
    pub shed: Vec<u64>,
    /// Expert-cache counters, pooled over engines.
    pub cache: CacheStats,
    /// Transfer counters, one per engine.
    pub transfer: Vec<TransferStats>,
    /// Per-iteration virtual-time breakdown, summed over engines; `None`
    /// on a cluster pass without trace sinks (the cluster does not expose
    /// its engines' `Breakdown`).
    pub breakdown: Option<Breakdown>,
    /// Busiest GPU's all2all time, over every engine.
    pub all2all_max_gpu_ns: u64,
    /// Cluster statistics (cluster workload only).
    pub cluster: Option<ClusterStats>,
    /// Named output checks of this pass.
    pub checks: Vec<(&'static str, bool)>,
    /// Wall time inside the serving entry point(s).
    pub engine_wall: Duration,
    /// Wall time of the whole measured serving phase.
    pub serve_wall: Duration,
}

/// The synchronous `Breakdown` components that must add up to
/// `iteration_total_ns`.
#[must_use]
fn synchronous_ns(b: &Breakdown) -> u64 {
    let matching = if b.matching_synchronous {
        b.matching_ns
    } else {
        0
    };
    b.context_collection_ns
        + matching
        + b.on_demand_wait_ns
        + b.blocking_prefetch_ns
        + b.compute_ns
        + b.all2all_ns
}

impl Prepared {
    /// Serves the measured inputs once and collects the outcome.
    ///
    /// # Errors
    ///
    /// The serving entry point's error, as text.
    pub fn serve(&mut self) -> Result<Outcome, String> {
        match &mut self.server {
            Server::Engine { engine, predictor } => serve_engine(
                engine,
                predictor.as_mut(),
                &self.prompts,
                self.arrivals.as_deref(),
                &self.sinks,
            ),
            Server::Cluster(cluster) => serve_cluster(
                cluster,
                self.arrivals.as_deref().unwrap_or_default(),
                &self.sinks,
                &self.topology,
            ),
        }
    }

    /// Prediction coverage of a fresh predictor — populated from history
    /// where the workload has one, empty otherwise — over a prefix of the
    /// measured prompts.
    #[must_use]
    pub fn coverage(&self) -> CoverageStats {
        let mut fresh = if self.history.is_empty() {
            empty_predictor(&self.cell)
        } else {
            self.cell.fmoe_predictor(&self.gate, &self.history)
        };
        let prompts = &self.prompts[..self.prompts.len().min(COVERAGE_PROMPTS)];
        coverage_probe(&self.gate, &mut fresh, prompts, 1 + MAX_DECODE)
    }
}

/// One engine: closed loop over `prompts` with `serve_request`, or open
/// loop over `arrivals` with `serve`.
fn serve_engine(
    engine: &mut ServingEngine,
    predictor: &mut dyn ExpertPredictor,
    prompts: &[Prompt],
    arrivals: Option<&[TraceEvent]>,
    sinks: &[TraceSink],
) -> Result<Outcome, String> {
    let sent = prompts.len();
    let start = Instant::now();
    let mut rows = Vec::with_capacity(sent);
    let mut shed = Vec::new();
    let mut engine_wall = Duration::ZERO;
    let mut checks = Vec::new();
    match arrivals {
        None => {
            for prompt in prompts {
                let arrival_ns = engine.now();
                let call = Instant::now();
                let metrics = engine.serve_request(*prompt, predictor);
                engine_wall += call.elapsed();
                rows.push(Row {
                    arrival_ns,
                    start_ns: arrival_ns,
                    finish_ns: engine.now(),
                    metrics,
                });
            }
        }
        Some(events) => {
            let options = ServeOptions::continuous(ONLINE_SLOTS)
                .with_slo(SloPolicy::shed(ONLINE_MAX_QUEUE_NS));
            let call = Instant::now();
            let report = serve(engine, events, predictor, &options).map_err(|e| e.to_string())?;
            engine_wall = call.elapsed();
            checks.push((
                "online: results + shed == requests sent",
                report.results.len() + report.shed.len() == sent,
            ));
            rows.extend(report.results.iter().map(|r| Row {
                arrival_ns: r.arrival_ns,
                start_ns: r.start_ns,
                finish_ns: r.finish_ns,
                metrics: r.metrics,
            }));
            shed.extend(report.shed.iter().map(|s| s.request_id));
        }
    }
    let serve_wall = start.elapsed();
    let breakdown = engine.take_breakdown();
    checks.push((
        "breakdown: synchronous components == iteration_total_ns",
        synchronous_ns(&breakdown) == breakdown.iteration_total_ns,
    ));
    let cache = engine.cache_stats();
    checks.push(("cache: hits + misses == lookups", cache.check_invariants()));
    checks.push(sink_check(sinks));
    Ok(Outcome {
        sent,
        rows,
        shed,
        cache,
        transfer: vec![engine.transfer_stats()],
        breakdown: Some(breakdown),
        all2all_max_gpu_ns: max_of(&engine.per_gpu_breakdown().all2all_ns),
        cluster: None,
        checks,
        engine_wall,
        serve_wall,
    })
}

/// The cluster: one `dispatch` over the arrival trace.
fn serve_cluster(
    cluster: &mut Cluster,
    events: &[TraceEvent],
    sinks: &[TraceSink],
    topology: &Topology,
) -> Result<Outcome, String> {
    let sent = events.len();
    let start = Instant::now();
    let report = cluster.dispatch(events);
    let engine_wall = start.elapsed();
    let serve_wall = start.elapsed();
    let rows: Vec<Row> = report
        .replicas
        .iter()
        .flat_map(|r| &r.results)
        .map(|r| Row {
            arrival_ns: r.arrival_ns,
            start_ns: r.start_ns,
            finish_ns: r.finish_ns,
            metrics: r.metrics,
        })
        .collect();
    let shed = report
        .replicas
        .iter()
        .flat_map(|r| &r.shed)
        .chain(&report.failover_shed)
        .map(|s| s.request_id)
        .collect();
    let cache = report
        .replicas
        .iter()
        .fold(CacheStats::default(), |acc, r| acc.merged(&r.cache));
    let served: Vec<f64> = report
        .replicas
        .iter()
        .map(|r| r.results.len() as f64)
        .collect();
    let replicas = report.replicas.len().max(1) as f64;
    let mean_served = served.iter().sum::<f64>() / replicas;
    let stats = ClusterStats {
        routing: report.routing,
        queue_depth_max: report
            .replicas
            .iter()
            .map(|r| r.max_queue_depth)
            .max()
            .unwrap_or(0),
        queue_depth_mean: report
            .replicas
            .iter()
            .map(|r| r.mean_queue_depth)
            .sum::<f64>()
            / replicas,
        served_imbalance: served.iter().copied().fold(0.0, f64::max)
            / mean_served.max(f64::MIN_POSITIVE),
    };
    let checks = vec![
        (
            "cluster: dispatched == served + shed",
            report.accounting_balances() && report.dispatched == sent as u64,
        ),
        (
            "cluster: every cache's hits + misses == lookups",
            report.cache_accounting_balances(),
        ),
        sink_check(sinks),
    ];
    let transfer = (0..cluster.num_replicas())
        .filter_map(|i| cluster.replica_engine(i))
        .map(ServingEngine::transfer_stats)
        .collect();
    Ok(Outcome {
        sent,
        rows,
        shed,
        cache,
        transfer,
        breakdown: (!sinks.is_empty()).then(|| breakdown_from_sinks(sinks, topology)),
        all2all_max_gpu_ns: report
            .replicas
            .iter()
            .map(|r| max_of(&r.per_gpu.all2all_ns))
            .max()
            .unwrap_or(0),
        cluster: Some(stats),
        checks,
        engine_wall,
        serve_wall,
    })
}

fn max_of(values: &[u64]) -> u64 {
    values.iter().copied().max().unwrap_or(0)
}

fn sink_check(sinks: &[TraceSink]) -> (&'static str, bool) {
    (
        "trace sinks dropped no records",
        sinks.iter().all(|s| s.dropped_records() == 0),
    )
}

/// Rebuilds the engines' `Breakdown` from their recorded traces: phase
/// spans give the time components, the iteration counter the count, and
/// each peer-fetch marker's payload the peer-link time the engine charged
/// for it. The LM-head compute is not a traced span, so `compute_ns` here
/// leaves it out.
fn breakdown_from_sinks(sinks: &[TraceSink], topology: &Topology) -> Breakdown {
    let mut b = Breakdown::default();
    for sink in sinks {
        let records = sink.take_records();
        let totals = phase_totals(&records);
        let phase = |name: &str| totals.get(name).copied().unwrap_or(0);
        b.context_collection_ns += phase("context_collect");
        b.matching_ns += phase("prefetch_issue");
        b.compute_ns += phase("gate") + phase("compute");
        b.on_demand_wait_ns += phase("on_demand_wait");
        b.all2all_ns += phase("all2all");
        b.iteration_total_ns += phase("iteration");
        b.iterations += sink.metrics_snapshot().counter("engine.iterations");
        for record in &records {
            if let fmoe_trace::TraceEvent::Instant {
                marker: Marker::PeerFetch,
                value,
                ..
            } = record.event
            {
                b.peer_fetches += 1;
                b.peer_fetch_ns += topology.peer_link.transfer_time(value);
            }
        }
    }
    b
}

impl Outcome {
    /// Tokens the pass produced: one per prefill plus one per decode.
    #[must_use]
    pub fn tokens(&self) -> u64 {
        self.rows
            .iter()
            .map(|r| 1 + r.metrics.decode_iterations)
            .sum()
    }

    /// FNV-1a digest of every virtual per-request output and every shed
    /// id: equal digests mean bit-identical simulated results.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut feed = |value: u64| {
            for byte in value.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0100_0000_01b3);
            }
        };
        for row in &self.rows {
            let m = &row.metrics;
            for value in [
                m.request_id,
                row.arrival_ns,
                row.start_ns,
                row.finish_ns,
                m.ttft_ns,
                m.decode_ns,
                m.decode_iterations,
                m.total_ns,
                m.expert_hits,
                m.expert_misses,
                m.degraded_hits,
                m.degraded_loads,
                u64::from(m.served_degraded),
            ] {
                feed(value);
            }
        }
        for &id in &self.shed {
            feed(id);
        }
        hash
    }

    /// Requests neither served nor shed.
    #[must_use]
    pub fn lost(&self) -> usize {
        self.sent.saturating_sub(self.rows.len() + self.shed.len())
    }
}
