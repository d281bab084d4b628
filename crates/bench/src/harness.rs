//! Shared experiment harness.

use crate::cli::Cli;
use fmoe::{FmoeConfig, FmoePredictor};
use fmoe_baselines::{
    DeepSpeedPredictor, MixtralOffloadingPredictor, MoeInfinityPredictor, OraclePredictor,
    ProMoePredictor, SwapMoePredictor,
};
use fmoe_cache::{EvictionPolicy, FmoePriorityPolicy, LfuPolicy, LruPolicy};
use fmoe_memsim::Topology;
use fmoe_model::gate::{GateScratch, TokenSpan};
use fmoe_model::{GateParams, GateSimulator, GpuSpec, HistoryRequest, ModelConfig};
use fmoe_serving::{
    AggregateMetrics, Breakdown, EngineConfig, ExpertPredictor, IterationContext, RequestMetrics,
    ServingEngine,
};
use fmoe_trace::{MetricsRegistry, TraceRecord, TraceSink};
use fmoe_workload::{split, DatasetSpec, Prompt};

/// The systems compared throughout the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    /// fMoE (this paper).
    Fmoe,
    /// MoE-Infinity (request-level EAM, LFU, synchronous).
    MoeInfinity,
    /// ProMoE (stride predictor stand-in, LFU, asynchronous).
    ProMoe,
    /// Mixtral-Offloading (distance-1 speculation, LRU, synchronous).
    MixtralOffloading,
    /// DeepSpeed-Inference (expert-agnostic, pure on-demand).
    DeepSpeed,
    /// SwapMoE (slow-adapting critical-expert set; related work).
    SwapMoe,
    /// Oracle upper bound (ground-truth prefetch).
    Oracle,
    /// No offloading: every expert resident.
    NoOffload,
}

impl System {
    /// The paper's Fig. 9 lineup, in plot order.
    #[must_use]
    pub fn paper_lineup() -> [System; 5] {
        [
            System::DeepSpeed,
            System::MixtralOffloading,
            System::ProMoe,
            System::MoeInfinity,
            System::Fmoe,
        ]
    }

    /// Display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            System::Fmoe => "fMoE",
            System::MoeInfinity => "MoE-Infinity",
            System::ProMoe => "ProMoE",
            System::MixtralOffloading => "Mixtral-Offloading",
            System::DeepSpeed => "DeepSpeed-Inference",
            System::SwapMoe => "SwapMoE",
            System::Oracle => "Oracle",
            System::NoOffload => "No-offload",
        }
    }

    /// The cache policy each system ships with. `experts_per_layer`
    /// parameterizes fMoE's neutral prior (`1/J`).
    #[must_use]
    pub fn cache_policy(self, experts_per_layer: u32) -> Box<dyn EvictionPolicy> {
        match self {
            System::Fmoe => Box::new(
                FmoePriorityPolicy::new()
                    .with_neutral_probability(1.0 / f64::from(experts_per_layer.max(1))),
            ),
            System::MixtralOffloading => Box::new(LruPolicy::new()),
            System::MoeInfinity | System::ProMoe | System::DeepSpeed | System::SwapMoe => {
                Box::new(LfuPolicy::new())
            }
            System::Oracle | System::NoOffload => Box::new(LruPolicy::new()),
        }
    }
}

/// One experiment cell: `(model, dataset, system)` plus knobs.
#[derive(Debug, Clone)]
pub struct CellConfig {
    /// Model under test.
    pub model: ModelConfig,
    /// Prompt dataset.
    pub dataset: DatasetSpec,
    /// Offloading system.
    pub system: System,
    /// Total expert-cache budget in bytes.
    pub cache_budget_bytes: u64,
    /// GPU topology (defaults to the paper's six-GPU testbed).
    pub topology: Topology,
    /// Prompts sampled from the dataset before the 70/30 split.
    pub total_prompts: u64,
    /// Decode-length cap per request (experiment speed).
    pub max_decode: u64,
    /// Iterations stored per history request (bounds the offline store).
    pub max_history_iterations: u64,
    /// Test prompts served (after the split; the first `n`).
    pub test_requests: usize,
    /// Unmeasured warm-up requests served first (from the history split),
    /// so reported metrics reflect steady-state serving rather than a
    /// stone-cold cache — the paper's offline runs likewise measure with
    /// warm system state.
    pub warmup_requests: usize,
    /// Batch size for lockstep serving.
    pub batch_size: usize,
    /// Prefetch distance for distance-parameterized systems.
    pub prefetch_distance: u32,
    /// Mixed-precision staging threshold (extension; `None` = lossless).
    pub low_precision_threshold: Option<f64>,
    /// On-demand load deadline (failure model; `None` = block until
    /// done). Deadline misses fall back to half-precision payloads.
    pub on_demand_deadline_ns: Option<u64>,
    /// Router seed (vary for confidence runs).
    pub gate_seed: u64,
}

impl CellConfig {
    /// Paper-comparable defaults for a `(model, dataset, system)` cell.
    ///
    /// The default budget is 40% of the model's total expert bytes: large
    /// enough that prefetching can win, small enough that offloading
    /// pressure exists for every model (the paper's testbed likewise held
    /// a fraction of each model's experts once dense weights and KV cache
    /// were resident).
    #[must_use]
    pub fn new(model: ModelConfig, dataset: DatasetSpec, system: System) -> Self {
        let budget = (model.total_expert_bytes() as f64 * 0.4) as u64;
        Self {
            model,
            dataset,
            system,
            cache_budget_bytes: budget,
            topology: Topology::paper_testbed(),
            total_prompts: 120,
            max_decode: 24,
            max_history_iterations: 6,
            test_requests: 16,
            warmup_requests: 4,
            batch_size: 1,
            prefetch_distance: 3,
            low_precision_threshold: None,
            on_demand_deadline_ns: None,
            gate_seed: 0xF0E1_D2C3_B4A5_9687,
        }
    }

    /// Builds the router for this cell.
    #[must_use]
    pub fn gate(&self) -> GateSimulator {
        let params = GateParams::for_model(&self.model).with_seed(self.gate_seed);
        GateSimulator::new(self.model.clone(), params)
    }

    /// The 70/30 prompt split for this cell.
    #[must_use]
    pub fn split(&self) -> (Vec<Prompt>, Vec<Prompt>) {
        let prompts = self.dataset.prompts(self.total_prompts);
        split::paper_split(&prompts)
    }

    /// Builds the concrete fMoE predictor for this cell, pre-populated
    /// from the history split (exposed so tools can keep the concrete
    /// type, e.g. to persist its store).
    #[must_use]
    pub fn fmoe_predictor(&self, gate: &GateSimulator, history: &[Prompt]) -> FmoePredictor {
        let config = FmoeConfig::for_model(&self.model).with_distance(self.prefetch_distance);
        let mut p = FmoePredictor::new(self.model.clone(), config);
        let hist: Vec<HistoryRequest> = history.iter().map(|pr| pr.history_request()).collect();
        p.populate_from_history(gate, &hist, self.max_history_iterations);
        p
    }

    /// Builds the system's predictor, pre-populated with the history
    /// split where the system uses history.
    #[must_use]
    pub fn predictor(&self, gate: &GateSimulator, history: &[Prompt]) -> Box<dyn ExpertPredictor> {
        match self.system {
            System::Fmoe => Box::new(self.fmoe_predictor(gate, history)),
            System::MoeInfinity => {
                let mut p =
                    MoeInfinityPredictor::new(&self.model).with_distance(self.prefetch_distance);
                let hist: Vec<HistoryRequest> =
                    history.iter().map(|pr| pr.history_request()).collect();
                p.populate_from_history(gate, &hist, self.max_history_iterations);
                Box::new(p)
            }
            System::ProMoe => {
                Box::new(ProMoePredictor::new(&self.model).with_distance(self.prefetch_distance))
            }
            System::MixtralOffloading => {
                // Native distance 1 regardless of the cell's d (its design).
                Box::new(MixtralOffloadingPredictor::new(&self.model))
            }
            System::DeepSpeed => Box::new(DeepSpeedPredictor::new()),
            System::SwapMoe => Box::new(SwapMoePredictor::new(&self.model)),
            System::Oracle => Box::new(OraclePredictor::new(gate.clone(), self.prefetch_distance)),
            System::NoOffload => Box::new(DeepSpeedPredictor::new()),
        }
    }

    /// Builds the engine for this cell.
    #[must_use]
    pub fn engine(&self, gate: GateSimulator) -> ServingEngine {
        let preload = self.system == System::NoOffload;
        let budget = if preload {
            // No-offload needs everything resident (plus slack for
            // integer division across GPUs).
            self.model.total_expert_bytes()
                + self.model.expert_bytes() * u64::from(self.topology.num_gpus)
        } else {
            self.cache_budget_bytes
        };
        let config = EngineConfig {
            cache_budget_bytes: budget,
            preload_all: preload,
            max_decode_iterations: Some(self.max_decode),
            context_collection_ns: 1_200_000,
            framework_overhead_per_layer_ns: 3_000_000,
            low_precision_threshold: self.low_precision_threshold,
            on_demand_deadline_ns: self.on_demand_deadline_ns,
            ..EngineConfig::paper_default()
        };
        ServingEngine::builder(gate, GpuSpec::rtx_3090(), self.topology.clone())
            .policy(self.system.cache_policy(self.model.experts_per_layer))
            .config(config)
            .build()
    }

    /// Runs the standard offline experiment: populate from the 70%
    /// history split, serve the test split, aggregate.
    #[must_use]
    pub fn run_offline(&self) -> SystemOutcome {
        self.run_offline_with(TraceSink::disabled()).outcome
    }

    /// [`Self::run_offline`] with a recording trace sink installed:
    /// same schedule and metrics (tracing is observation-only — locked
    /// by the workspace determinism suite), plus the captured trace
    /// records and metrics snapshot for export.
    #[must_use]
    pub fn run_offline_traced(&self, capacity: usize) -> TracedOutcome {
        self.run_offline_with(TraceSink::recording(capacity))
    }

    fn run_offline_with(&self, sink: TraceSink) -> TracedOutcome {
        let gate = self.gate();
        let (history, test) = self.split();
        let mut predictor = self.predictor(&gate, &history);
        let mut engine = self.engine(gate);
        engine.set_trace_sink(sink.clone());
        // Warm-up phase: serve a few history prompts unmeasured.
        for prompt in history.iter().take(self.warmup_requests) {
            let _ = engine.serve_request(*prompt, predictor.as_mut());
        }
        let _ = engine.take_breakdown();
        let mut requests: Vec<RequestMetrics> = Vec::new();
        let test: Vec<Prompt> = test.into_iter().take(self.test_requests).collect();
        for batch in test.chunks(self.batch_size.max(1)) {
            requests.extend(engine.serve_batch(batch, predictor.as_mut()));
        }
        TracedOutcome {
            outcome: SystemOutcome {
                system: self.system,
                aggregate: AggregateMetrics::from_requests(&requests),
                requests,
                breakdown: engine.take_breakdown(),
                cache_stats: engine.cache_stats(),
                transfer_stats: engine.transfer_stats(),
            },
            records: sink.take_records(),
            metrics: sink.metrics_snapshot(),
            dropped_records: sink.dropped_records(),
        }
    }
}

/// An offline cell run plus its captured trace.
#[derive(Debug)]
pub struct TracedOutcome {
    /// The usual offline outcome (identical to [`CellConfig::run_offline`]).
    pub outcome: SystemOutcome,
    /// Every trace record the run emitted (oldest first).
    pub records: Vec<TraceRecord>,
    /// Counters, gauges, and histograms the run accumulated.
    pub metrics: MetricsRegistry,
    /// Records lost to ring overflow (0 unless `capacity` was too small).
    pub dropped_records: u64,
}

/// Everything one offline cell run produces.
#[derive(Debug)]
pub struct SystemOutcome {
    /// The system that ran.
    pub system: System,
    /// Aggregated serving metrics.
    pub aggregate: AggregateMetrics,
    /// Per-request metrics.
    pub requests: Vec<RequestMetrics>,
    /// Per-operation latency breakdown.
    pub breakdown: Breakdown,
    /// Cache statistics.
    pub cache_stats: fmoe_cache::CacheStats,
    /// Transfer statistics.
    pub transfer_stats: fmoe_memsim::TransferStats,
}

/// Prediction-coverage probe: replays requests through a predictor
/// (without the hardware simulation) and measures the fraction of truly
/// activated experts covered by the plans issued for their layer, plus
/// the mean number of experts planned per layer.
///
/// This isolates *prediction quality* from cache/bandwidth effects — used
/// for Fig. 4, Fig. 8 and Fig. 12a, where the paper compares pattern-
/// tracking approaches.
#[must_use]
pub fn coverage_probe(
    gate: &GateSimulator,
    predictor: &mut dyn ExpertPredictor,
    test: &[Prompt],
    max_iterations: u64,
) -> CoverageStats {
    let layers = gate.config().num_layers;
    let mut covered = 0u64;
    let mut total = 0u64;
    let mut planned_count = 0u64;
    let mut planned_layers = 0u64;
    let mut scratch = GateScratch::default();
    for prompt in test {
        let iters = prompt.iterations().min(max_iterations).max(1);
        for iteration in 0..iters {
            let span = if iteration == 0 {
                TokenSpan::prefill(prompt.prompt_tokens)
            } else {
                TokenSpan::single(prompt.prompt_tokens + iteration - 1)
            };
            let ctx = IterationContext {
                element: 0,
                request_id: prompt.id,
                iteration,
                is_prefill: iteration == 0,
                span,
                embedding: gate.semantic_embedding(prompt.routing, iteration),
                routing: prompt.routing,
            };
            let mut planned: Vec<Vec<u32>> = vec![Vec::new(); layers as usize];
            for plan in predictor.begin_iteration(&ctx) {
                if !plan.advisory {
                    planned[plan.expert.layer as usize].push(plan.expert.slot);
                }
            }
            let mut realized: Vec<Vec<f64>> = Vec::with_capacity(layers as usize);
            let mut activated: Vec<Vec<u32>> = Vec::with_capacity(layers as usize);
            for layer in 0..layers {
                gate.route_into(prompt.routing, iteration, layer, span, &mut scratch);
                for plan in predictor.observe_gate(&ctx, layer, &scratch.dist) {
                    if !plan.advisory {
                        planned[plan.expert.layer as usize].push(plan.expert.slot);
                    }
                }
                realized.push(scratch.dist.clone());
                activated.push(scratch.activated.clone());
            }
            for (activated, planned) in activated.iter().zip(&planned) {
                total += activated.len() as u64;
                covered += activated.iter().filter(|s| planned.contains(s)).count() as u64;
                planned_count += planned.len() as u64;
                planned_layers += 1;
            }
            predictor.end_iteration(&ctx, &realized);
        }
    }
    CoverageStats {
        coverage: covered as f64 / total.max(1) as f64,
        mean_planned_per_layer: planned_count as f64 / planned_layers.max(1) as f64,
    }
}

/// Output of [`coverage_probe`].
#[derive(Debug, Clone, Copy)]
pub struct CoverageStats {
    /// Fraction of activated experts covered by that layer's plans.
    pub coverage: f64,
    /// Mean experts planned per layer (memory/bandwidth proxy).
    pub mean_planned_per_layer: f64,
}

/// Deterministic fan-out of independent sweep points across scoped
/// worker threads.
///
/// The determinism contract (DESIGN.md §12):
///
/// * **Per-point isolation** — every sweep point builds its own seeded
///   RNG, gate, and engine inside its closure (as [`CellConfig`] runs
///   do), so points share no mutable state and compute the same values
///   on any schedule.
/// * **Index-ordered collection** — workers claim indices from an atomic
///   counter and return `(index, result)` pairs; results are reassembled
///   into input order before anyone observes them. CSV output is
///   therefore **byte-identical** across `--jobs` settings, locked by
///   the cross-mode test in `crates/bench/tests/csv_determinism.rs`.
///
/// The runner itself touches no wall clock and no randomness, so it
/// stays inside fmoe-lint's FM002/FM003 envelope even though it lives in
/// the bench crate's library.
///
/// **Worker clamping.** Requested workers beyond the machine's available
/// parallelism only add contention: sweep points are CPU-bound, so extra
/// threads time-slice the same cores and the scheduling overhead makes
/// the "parallel" run *slower* than sequential (a `--jobs 4` run on a
/// one-core container measured ~0.88x). [`Self::new`] therefore clamps
/// to [`Self::available_parallelism`]; with one effective worker the
/// runner degenerates to the plain sequential loop. Results are
/// byte-identical either way, so the clamp only changes wall time.
#[derive(Debug, Clone, Copy)]
pub struct ParallelRunner {
    jobs: usize,
}

impl ParallelRunner {
    /// A runner with a fixed worker count, clamped to
    /// `1..=available_parallelism` (see the type docs for why
    /// oversubscription is never useful for these workloads).
    #[must_use]
    pub fn new(jobs: usize) -> Self {
        Self {
            jobs: jobs.max(1).min(Self::available_parallelism()),
        }
    }

    /// A runner that fans out to exactly `jobs` workers even past the
    /// machine's core count. Only for tests and measurement harnesses
    /// that must exercise the threaded path regardless of hardware;
    /// experiment binaries should use [`Self::new`].
    #[must_use]
    pub fn unclamped(jobs: usize) -> Self {
        Self { jobs: jobs.max(1) }
    }

    /// The machine's available parallelism (at least 1).
    #[must_use]
    pub fn available_parallelism() -> usize {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    }

    /// A runner of the parsed command line's `--jobs N`, defaulting to
    /// the machine's available parallelism.
    #[must_use]
    pub fn from_cli(cli: &Cli) -> Self {
        Self::new(cli.jobs())
    }

    /// The worker count this runner fans out to (post-clamp for runners
    /// built with [`Self::new`]).
    #[must_use]
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Maps `f` over `items`, in parallel across up to [`Self::jobs`]
    /// workers, returning results in **input order**. `f` receives each
    /// item's index alongside the item. With one worker (or one item)
    /// this degenerates to a plain sequential loop.
    ///
    /// # Panics
    ///
    /// A panic inside `f` is propagated to the caller after the scope
    /// joins (no result is silently dropped).
    pub fn run<I, T, F>(&self, items: &[I], f: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        F: Fn(usize, &I) -> T + Sync,
    {
        if self.jobs == 1 || items.len() <= 1 {
            return items
                .iter()
                .enumerate()
                .map(|(i, item)| f(i, item))
                .collect();
        }
        let next = std::sync::atomic::AtomicUsize::new(0);
        let workers = self.jobs.min(items.len());
        let mut slots: Vec<Option<T>> = Vec::with_capacity(items.len());
        slots.resize_with(items.len(), || None);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut local: Vec<(usize, T)> = Vec::new();
                        loop {
                            let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            if i >= items.len() {
                                break;
                            }
                            local.push((i, f(i, &items[i])));
                        }
                        local
                    })
                })
                .collect();
            for handle in handles {
                let local = handle
                    .join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
                for (i, value) in local {
                    slots[i] = Some(value);
                }
            }
        });
        let out: Vec<T> = slots.into_iter().flatten().collect();
        assert_eq!(
            out.len(),
            items.len(),
            "every sweep point must produce exactly one result"
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmoe_model::presets;

    fn tiny_cell(system: System) -> CellConfig {
        let mut cell = CellConfig::new(
            presets::small_test_model(),
            DatasetSpec::tiny_test(),
            system,
        );
        cell.total_prompts = 30;
        cell.test_requests = 3;
        cell.warmup_requests = 1;
        cell.max_decode = 6;
        cell.max_history_iterations = 3;
        // Small model: scale the budget to its tiny experts.
        cell.cache_budget_bytes = cell.model.expert_bytes() * 24;
        cell
    }

    #[test]
    fn every_system_runs_offline_and_reports() {
        for system in System::paper_lineup().into_iter().chain([
            System::SwapMoe,
            System::Oracle,
            System::NoOffload,
        ]) {
            let out = tiny_cell(system).run_offline();
            assert_eq!(out.system, system);
            assert_eq!(out.aggregate.requests, 3, "{}", system.name());
            assert!(out.aggregate.mean_ttft_ms > 0.0, "{}", system.name());
            assert!(out.breakdown.iterations > 0, "{}", system.name());
            if system == System::NoOffload {
                assert!(
                    (out.aggregate.hit_rate - 1.0).abs() < 1e-9,
                    "No-offload must never miss"
                );
            }
        }
    }

    #[test]
    fn predictor_names_match_system_names() {
        for system in System::paper_lineup().into_iter().chain([System::SwapMoe]) {
            let cell = tiny_cell(system);
            let gate = cell.gate();
            let (history, _) = cell.split();
            let predictor = cell.predictor(&gate, &history);
            match system {
                // DeepSpeed's engine behaviour is configured via the
                // predictor trait; NoOffload reuses it.
                System::NoOffload => {}
                _ => assert_eq!(predictor.name(), system.name()),
            }
        }
    }

    #[test]
    fn split_is_deterministic_per_cell() {
        let cell = tiny_cell(System::Fmoe);
        let (h1, t1) = cell.split();
        let (h2, t2) = cell.split();
        assert_eq!(h1, h2);
        assert_eq!(t1, t2);
        assert!(!h1.is_empty() && !t1.is_empty());
    }

    #[test]
    fn run_offline_is_reproducible() {
        let a = tiny_cell(System::Fmoe).run_offline();
        let b = tiny_cell(System::Fmoe).run_offline();
        assert_eq!(a.requests, b.requests);
    }

    #[test]
    fn coverage_probe_bounds() {
        let cell = tiny_cell(System::Fmoe);
        let gate = cell.gate();
        let (history, test) = cell.split();
        let mut p = cell.predictor(&gate, &history);
        let stats = coverage_probe(&gate, p.as_mut(), &test, 4);
        assert!((0.0..=1.0).contains(&stats.coverage));
        assert!(stats.mean_planned_per_layer >= 0.0);
        assert!(stats.mean_planned_per_layer <= f64::from(cell.model.experts_per_layer));
    }

    #[test]
    fn parallel_runner_preserves_input_order() {
        // `unclamped` keeps the threaded path exercised even on a
        // single-core runner, where `new` would fall back to sequential.
        let items: Vec<u64> = (0..97).collect();
        let sequential = ParallelRunner::new(1).run(&items, |i, &x| (i, x * x));
        for jobs in [2, 3, 8, 128] {
            let parallel = ParallelRunner::unclamped(jobs).run(&items, |i, &x| (i, x * x));
            assert_eq!(parallel, sequential, "jobs={jobs}");
        }
    }

    #[test]
    fn parallel_runner_clamps_to_available_parallelism() {
        let avail = ParallelRunner::available_parallelism();
        assert!(avail >= 1);
        assert_eq!(ParallelRunner::new(usize::MAX).jobs(), avail);
        assert_eq!(ParallelRunner::new(0).jobs(), 1);
        assert_eq!(ParallelRunner::unclamped(avail + 7).jobs(), avail + 7);
    }

    #[test]
    fn parallel_runner_handles_empty_and_singleton_inputs() {
        let none: Vec<u32> = Vec::new();
        assert!(ParallelRunner::new(4).run(&none, |_, &x| x).is_empty());
        assert_eq!(
            ParallelRunner::new(4).run(&[7u32], |i, &x| x + i as u32),
            vec![7]
        );
    }

    #[test]
    fn parallel_runner_matches_sequential_on_sweep_cells() {
        // The real use: full benchmark cells computed in parallel must be
        // indistinguishable from the sequential run.
        let cells: Vec<CellConfig> = System::paper_lineup().into_iter().map(tiny_cell).collect();
        let seq = ParallelRunner::new(1).run(&cells, |_, cell| cell.run_offline());
        let par = ParallelRunner::unclamped(4).run(&cells, |_, cell| cell.run_offline());
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.system, b.system);
            assert_eq!(a.requests, b.requests);
        }
    }

    #[test]
    #[should_panic(expected = "sweep point 3 exploded")]
    fn parallel_runner_propagates_worker_panics() {
        let items: Vec<u32> = (0..8).collect();
        ParallelRunner::unclamped(4).run(&items, |i, _| {
            assert!(i != 3, "sweep point 3 exploded");
            i
        });
    }
}
