//! The serving engine: a discrete-event simulation of MoE inference with
//! expert offloading.
//!
//! One engine instance owns the simulated hardware (expert cache, PCIe
//! transfer engine, virtual clock) and serves requests through a policy
//! implementing [`ExpertPredictor`]. Per iteration it executes the
//! paper's Step ①-⑤ loop (§3.2):
//!
//! 1. **Context collection** — semantic embedding + trajectory snapshot
//!    (synchronous, charged to the critical path).
//! 2. **Prediction** — `begin_iteration` before layer 0, `observe_gate`
//!    after each gate. Synchronous policies block compute; asynchronous
//!    policies only delay when their prefetches are *issued*.
//! 3. **Prefetching** — plans stream to the per-GPU PCIe links and
//!    overlap compute.
//! 4. **Expert serving** — activated experts found resident are hits;
//!    misses block on on-demand loads that pause prefetch traffic.
//! 5. **Map update** — `end_iteration` with the realized expert map
//!    (asynchronous).
//!
//! Experts execute in parallel across their home GPUs (expert
//! parallelism); attention/gate/shared-expert compute is modeled with the
//! roofline cost model.

use crate::metrics::{Breakdown, PerGpuBreakdown, RequestMetrics};
use crate::placement::PlacementPolicy;
use crate::predictor::{ExpertPredictor, IterationContext, PredictorTiming, PrefetchPlan};
use fmoe_cache::{EvictionPolicy, ExpertCache, InsertOutcome};
use fmoe_memsim::{
    all2all_layer_time, FaultSchedule, GpuId, Nanos, RetryPolicy, Topology, TransferEngine,
    VirtualClock,
};
use fmoe_model::gate::{GateScratch, TokenSpan};
use fmoe_model::{CostModel, DenseIdMap, DenseIdSet, ExpertId, GateSimulator, GpuSpec};
use fmoe_trace::{Marker, Phase, TraceSink, NO_GPU, NO_LAYER, NO_REQUEST, NO_SLOT, NO_VALUE};
use fmoe_workload::Prompt;

/// Engine tuning knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Total expert-cache budget across all GPUs, in bytes.
    pub cache_budget_bytes: u64,
    /// Load every expert into GPU memory up front (the No-offload
    /// reference). Requires a budget that actually fits the model.
    pub preload_all: bool,
    /// Truncate decoding after this many iterations (experiment speed
    /// cap); `None` serves the full answer.
    pub max_decode_iterations: Option<u64>,
    /// Synchronous per-iteration context-collection cost (paper Fig. 15).
    pub context_collection_ns: Nanos,
    /// Host-side framework overhead per transformer layer (kernel launch,
    /// Python dispatch in the HF Transformers / MoE-Infinity substrate the
    /// paper builds on — the paper notes all systems' latency "is
    /// inherently impacted by MoE-Infinity's implementation", §6.2).
    pub framework_overhead_per_layer_ns: Nanos,
    /// KV-cache-aware budgeting (off by default): when set, the expert
    /// cache's effective budget each iteration is `cache_budget_bytes`
    /// minus the live KV-cache bytes of the active batch — experts yield
    /// GPU memory to growing contexts and reclaim it as requests retire.
    pub kv_aware_budget: bool,
    /// Mixed-precision extension (Hobbit-style, off by default): prefetch
    /// plans whose probability falls below this threshold are staged at
    /// half precision — half the transfer time and half the cache bytes —
    /// and accesses they serve count as `degraded_hits`. On-demand loads
    /// are always full precision.
    pub low_precision_threshold: Option<f64>,
    /// Deadline for blocking on-demand loads (off by default): when set,
    /// an on-demand load projected to finish later than `now + deadline`
    /// (e.g. because link faults degraded the wire) falls back to a
    /// half-precision payload instead of blocking indefinitely. Degraded
    /// loads count as `degraded_loads` in [`RequestMetrics`].
    pub on_demand_deadline_ns: Option<Nanos>,
    /// Expert parallelism inside the replica (off by default): when set
    /// on a multi-GPU topology, each MoE layer pays a gate-skew-aware
    /// all2all on the peer links, and missing experts evicted to a peer
    /// device can be fetched peer-to-peer instead of from host
    /// (DESIGN.md §17). `None` (or a single-GPU topology) is
    /// byte-identical to the pre-EP engine.
    pub expert_parallel: Option<ExpertParallelConfig>,
}

/// Expert-parallelism knobs for a multi-GPU replica (DESIGN.md §17).
/// A miss on an expert that still sits in a peer device's bounded spill
/// pool is always served over the peer link instead of reloading from
/// host.
#[derive(Debug, Clone, Copy, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ExpertParallelConfig {
    /// All2all kernel family used for per-layer token routing.
    pub backend: fmoe_memsim::All2AllBackend,
}

/// Number of experts the peer spill pool can hold (spare aggregate
/// device memory outside the cache budget). Oldest spills drop first
/// when full.
const PEER_POOL_SLOTS: usize = 16;

impl Default for EngineConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

impl EngineConfig {
    /// Defaults matching the paper's offline setup: 48 GB of expert cache
    /// across the testbed and full answers.
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            cache_budget_bytes: 48 * (1u64 << 30),
            preload_all: false,
            max_decode_iterations: None,
            context_collection_ns: 1_200_000,           // 1.2 ms
            framework_overhead_per_layer_ns: 3_000_000, // 3 ms/layer host dispatch
            kv_aware_budget: false,
            low_precision_threshold: None,
            on_demand_deadline_ns: None,
            expert_parallel: None,
        }
    }

    /// Caps decode length.
    #[must_use]
    pub fn with_max_decode(mut self, iters: u64) -> Self {
        self.max_decode_iterations = Some(iters);
        self
    }
}

/// Typed error for the fallible serving entry points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// Online-scheduler bookkeeping lost track of a request — an engine
    /// invariant violation surfaced as an error instead of a panic.
    UnknownRequest {
        /// The request the scheduler could not account for.
        request_id: u64,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnknownRequest { request_id } => {
                write!(f, "request {request_id} finished without being admitted")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// Per-request bookkeeping during a batch run.
#[derive(Debug)]
struct Element {
    prompt: Prompt,
    /// Stable batch-slot id: the key predictors use for per-request
    /// state. Slots are reused only after their occupant finishes.
    slot: usize,
    iteration: u64,
    /// Tokens processed so far (context length).
    position: u64,
    /// Total iterations this element will run (after the decode cap;
    /// at least one, the prefill).
    total_iterations: u64,
    start_ns: Nanos,
    ttft_ns: Option<Nanos>,
    finished_ns: Nanos,
    decode_iterations: u64,
    hits: u64,
    misses: u64,
    degraded_hits: u64,
    /// On-demand loads that fell back to reduced precision for this
    /// element (deadline misses or SLO-degraded serving).
    degraded_loads: u64,
    /// `true` when the request runs in SLO-degraded mode: on-demand
    /// loads that only degraded elements need move half payloads.
    degraded: bool,
    /// Realized per-layer distributions of the current iteration. The
    /// `L` rows live as long as the element: each layer overwrites its
    /// row in place, and every iteration runs all `L` layers before
    /// step 5 reads them.
    realized_map: Vec<Vec<f64>>,
    /// The per-request part of every iteration's semantic embedding
    /// (`GateSimulator::embedding_request_part`), computed at admission.
    embedding_request_part: Vec<f64>,
    /// Activated expert slots per layer of the current iteration, kept
    /// like `realized_map`.
    activated: Vec<Vec<u32>>,
}

/// Sets `rows[layer]` to `values`, reusing the row's allocation; the
/// first iteration, which reaches each layer in order, appends the row.
fn overwrite_row<T: Clone>(rows: &mut Vec<Vec<T>>, layer: u32, values: &[T]) {
    if let Some(row) = rows.get_mut(layer as usize) {
        row.clear();
        row.extend_from_slice(values);
    } else {
        debug_assert_eq!(rows.len(), layer as usize, "layers run in order");
        rows.push(values.to_vec());
    }
}

/// Batch-wide quantities every layer of one iteration reads; constant
/// for the iteration.
#[derive(Debug, Clone, Copy)]
struct BatchShape {
    /// Tokens routed this iteration: whole prompts for prefills, one
    /// per decoding request.
    tokens: u64,
    /// Longest context any element attends over this iteration.
    context_len: u64,
    /// Whether any element runs SLO-degraded.
    any_degraded: bool,
}

impl BatchShape {
    fn of(elements: &[Element]) -> Self {
        Self {
            tokens: elements.iter().map(|e| e.span().count).sum(),
            context_len: elements
                .iter()
                .map(|e| e.position + e.span().count)
                .max()
                .unwrap_or(1),
            any_degraded: elements.iter().any(|e| e.degraded),
        }
    }
}

/// Reusable per-iteration working memory. `run_iteration` is the
/// engine's hot loop; these collections used to be constructed with
/// `Vec::new()`/`BTreeSet::new()` on every call (and every layer). They
/// now live on the engine, are taken with `std::mem::take` for the
/// duration of an iteration, and are restored afterwards — `Vec::clear`
/// and the dense tables' `clear` keep the backing allocation, so
/// steady-state iterations allocate nothing for this bookkeeping.
///
/// The expert-keyed members are flat dense-index tables
/// ([`DenseIdSet`]/[`DenseIdMap`], DESIGN.md §16) rather than
/// `BTreeSet`/`BTreeMap`: lookups become array loads, and ascending
/// dense-index iteration equals `ExpertId`'s `Ord`, so everything the
/// old ordered collections guaranteed about iteration order is
/// preserved byte-for-byte.
#[derive(Debug, Default)]
struct IterationScratch {
    /// Iteration-start prediction plans (semantic window).
    begin_plans: Vec<PrefetchPlan>,
    /// Per-layer gate-observation plans.
    layer_plans: Vec<PrefetchPlan>,
    /// Union of activated experts for the current layer (dense bitset).
    union: DenseIdSet,
    /// Experts a full-precision element activated in the current layer
    /// (maintained only while a degraded element is live).
    full_precision: DenseIdSet,
    /// Pre-load residency per needed expert (keyed access only).
    residency: DenseIdMap<bool>,
    /// In-flight transfers the layer must wait for.
    waited_inflight: Vec<ExpertId>,
    /// Experts needing blocking on-demand loads.
    missing: Vec<ExpertId>,
    /// Per-GPU link availability during on-demand serving; `None` means
    /// the link has not been touched this layer (the old `BTreeMap`'s
    /// "absent").
    per_gpu_now: Vec<Option<Nanos>>,
    /// Experts whose on-demand load moved a reduced payload.
    loaded: DenseIdMap<u64>,
    /// Stale prefetch jobs collected for cancellation.
    stale: Vec<(u64, ExpertId)>,
    /// Stage pins whose target layer has passed.
    passed: Vec<ExpertId>,
    /// Per-element iteration contexts, computed once per iteration. The
    /// context is constant for the whole iteration, so predictors borrow
    /// it at every layer; each slot's embedding buffer is reused from
    /// iteration to iteration.
    contexts: Vec<IterationContext>,
    /// Per-GPU expert-FFN time accumulator for
    /// [`ServingEngine::expert_compute_time`].
    compute_per_gpu: Vec<Nanos>,
    /// Per-owner-GPU routed token-assignment counts for the EP all2all
    /// (zeroed each layer; unused when EP is off).
    tokens_to_gpu: Vec<u64>,
    /// Per-GPU all2all busy-time accumulator for one layer.
    a2a_per_gpu: Vec<Nanos>,
    /// Router working memory: one fused pass per (element, layer).
    gate: GateScratch,
    /// The embedding phase row of the element being contextualized.
    phase_row: Vec<f64>,
}

impl IterationScratch {
    /// Sizes the fixed-capacity tables for the model/topology. A no-op
    /// after the first call (capacities never change for one engine),
    /// so the steady state allocates nothing here.
    fn ensure_model(&mut self, num_experts: usize, num_gpus: usize) {
        if self.union.capacity() != num_experts {
            self.union = DenseIdSet::with_capacity(num_experts);
            self.full_precision = DenseIdSet::with_capacity(num_experts);
            self.residency = DenseIdMap::with_capacity(num_experts);
            self.loaded = DenseIdMap::with_capacity(num_experts);
        }
        if self.per_gpu_now.len() != num_gpus {
            self.per_gpu_now = vec![None; num_gpus];
            self.compute_per_gpu = vec![0; num_gpus];
            self.tokens_to_gpu = vec![0; num_gpus];
            self.a2a_per_gpu = vec![0; num_gpus];
        }
    }
}

/// Adds per-GPU times from `from` into `into`.
fn accumulate(into: &mut [Nanos], from: &[Nanos]) {
    for (t, &v) in into.iter_mut().zip(from) {
        *t += v;
    }
}

/// Runtime state for expert parallelism: the configuration plus the
/// peer spill pool — experts evicted from their owner GPU that still
/// live in a peer device's spare memory, FIFO-bounded, servable over
/// the peer link. Tiny (≤ [`PEER_POOL_SLOTS`] entries), so membership is
/// a dense bitset and order a plain vector.
struct EpState {
    config: ExpertParallelConfig,
    /// Membership: dense expert indices currently spilled to a peer.
    members: DenseIdSet,
    /// Spill order, oldest first.
    fifo: Vec<usize>,
}

impl EpState {
    fn new(config: ExpertParallelConfig, num_experts: usize) -> Self {
        Self {
            config,
            members: DenseIdSet::with_capacity(num_experts),
            fifo: Vec::new(),
        }
    }

    /// Records an eviction into the spill pool, dropping the oldest
    /// spill when full.
    fn spill(&mut self, dense: usize) {
        if self.members.contains(dense) {
            return;
        }
        self.members.insert(dense);
        self.fifo.push(dense);
        if self.fifo.len() > PEER_POOL_SLOTS {
            let oldest = self.fifo.remove(0);
            self.members.remove(oldest);
        }
    }

    /// Claims `dense` from the pool (a peer fetch consumes the copy).
    fn take(&mut self, dense: usize) -> bool {
        if !self.members.remove(dense) {
            return false;
        }
        self.fifo.retain(|&d| d != dense);
        true
    }

    fn clear(&mut self) {
        self.members.clear();
        self.fifo.clear();
    }
}

impl Element {
    /// Whether the request has run all its iterations.
    fn is_done(&self) -> bool {
        self.iteration >= self.total_iterations
    }

    fn span(&self) -> TokenSpan {
        if self.iteration == 0 {
            TokenSpan::prefill(self.prompt.prompt_tokens)
        } else {
            TokenSpan::single(self.position)
        }
    }

    /// The current iteration's context, carrying `embedding`.
    fn context(&self, embedding: Vec<f64>) -> IterationContext {
        IterationContext {
            element: self.slot,
            request_id: self.prompt.id,
            iteration: self.iteration,
            is_prefill: self.iteration == 0,
            span: self.span(),
            embedding,
            routing: self.prompt.routing,
        }
    }

    /// The finished request's metrics (serving time only; queueing is
    /// the scheduler's concern).
    fn metrics(&self) -> RequestMetrics {
        let ttft = self.ttft_ns.unwrap_or(self.finished_ns - self.start_ns);
        let total = self.finished_ns - self.start_ns;
        RequestMetrics {
            request_id: self.prompt.id,
            ttft_ns: ttft,
            decode_ns: total - ttft,
            decode_iterations: self.decode_iterations,
            total_ns: total,
            expert_hits: self.hits,
            expert_misses: self.misses,
            degraded_hits: self.degraded_hits,
            degraded_loads: self.degraded_loads,
            served_degraded: self.degraded,
        }
    }
}

/// The serving engine. See the module docs.
///
/// ```
/// use fmoe_cache::LruPolicy;
/// use fmoe_memsim::Topology;
/// use fmoe_model::{presets, GateSimulator, GpuSpec};
/// use fmoe_serving::{predictor::NoPrefetch, EngineConfig, ServingEngine};
/// use fmoe_workload::DatasetSpec;
///
/// let model = presets::tiny_test_model();
/// let mut engine = ServingEngine::new(
///     GateSimulator::with_defaults(model.clone()),
///     GpuSpec::rtx_3090(),
///     Topology::single_gpu(8 << 30),
///     Box::new(LruPolicy::new()),
///     EngineConfig {
///         cache_budget_bytes: model.expert_bytes() * 8,
///         max_decode_iterations: Some(4),
///         ..EngineConfig::paper_default()
///     },
/// );
/// let metrics = engine.serve_request(DatasetSpec::tiny_test().prompt(0), &mut NoPrefetch);
/// assert!(metrics.ttft_ns > 0);
/// assert!(metrics.expert_hits + metrics.expert_misses > 0);
/// ```
pub struct ServingEngine {
    gate: GateSimulator,
    cost: CostModel,
    topology: Topology,
    cache: ExpertCache,
    transfer: TransferEngine,
    clock: VirtualClock,
    /// Experts with a transfer in flight, as a dense bitset over their
    /// transfer tags (tag == dense expert index, so the id is
    /// recoverable from the tag alone). Ascending iteration equals
    /// ascending tag order — what the old `BTreeMap<u64, ExpertId>`
    /// iterated in.
    in_flight: DenseIdSet,
    /// Requests currently in the batch, in admission order (see
    /// [`Self::admit`]).
    active: Vec<Element>,
    /// Reusable slot ids freed by finished requests.
    free_slots: Vec<usize>,
    /// Next fresh slot id.
    next_slot: usize,
    /// Prefetched experts staged for a layer that has not executed yet:
    /// pinned so eviction cannot undo a deliberate prefetch before use
    /// (all real offloading runtimes protect staged weights this way).
    /// Dense bitset by expert index; ascending iteration equals the old
    /// `BTreeSet<ExpertId>` order.
    staged: DenseIdSet,
    breakdown: Breakdown,
    config: EngineConfig,
    /// Reusable per-iteration working memory (see [`IterationScratch`]).
    scratch: IterationScratch,
    /// Structured-event trace sink (disabled by default — every emission
    /// is then a single branch). Clones of this handle are shared with
    /// the transfer engine and expert cache so all three interleave into
    /// one causally-ordered virtual-time timeline.
    trace: TraceSink,
    /// Expert-parallel runtime state; `None` when EP is off or the
    /// topology has a single GPU — that path is byte-identical to the
    /// pre-EP engine.
    ep: Option<EpState>,
    /// Per-GPU compute/all2all/transfer attribution over the engine's
    /// lifetime (pure bookkeeping; never read by the sim path).
    per_gpu: PerGpuBreakdown,
}

/// Fluent constructor for [`ServingEngine`], started by
/// [`ServingEngine::builder`]: the model, device and topology, plus the
/// eviction policy, [`EngineConfig`], trace sink and placement policy, so
/// a fully configured engine is buildable in one expression. The
/// `fmoe-cluster` crate constructs replicas exclusively through this
/// builder; the individual setters on [`ServingEngine`] remain for
/// runtime retuning (fault schedule, retry policy, budgets).
pub struct EngineBuilder {
    gate: GateSimulator,
    gpu: GpuSpec,
    topology: Topology,
    policy: Box<dyn EvictionPolicy>,
    config: EngineConfig,
    trace_sink: TraceSink,
    assignment: Option<Vec<u32>>,
}

impl EngineBuilder {
    /// Computes and installs an expert owner table from a
    /// [`PlacementPolicy`] evaluated against this builder's model and
    /// topology. Overrides the default round-robin for `home_gpu` and
    /// everything downstream of it (caching, transfers, all2all routing).
    #[must_use]
    pub fn placement_policy(mut self, policy: &dyn PlacementPolicy) -> Self {
        self.assignment = Some(policy.assign(self.gate.config(), self.topology.num_gpus));
        self
    }

    /// Replaces the eviction policy (default: LRU).
    #[must_use]
    pub fn policy(mut self, policy: Box<dyn EvictionPolicy>) -> Self {
        self.policy = policy;
        self
    }

    /// Replaces the whole engine configuration.
    #[must_use]
    pub fn config(mut self, config: EngineConfig) -> Self {
        self.config = config;
        self
    }

    /// Installs a structured-event trace sink (default: disabled).
    #[must_use]
    pub fn trace_sink(mut self, sink: TraceSink) -> Self {
        self.trace_sink = sink;
        self
    }

    /// Builds the engine, delegating to [`ServingEngine::new`] and the
    /// existing setters so builder-built and hand-assembled engines are
    /// indistinguishable.
    #[must_use]
    pub fn build(self) -> ServingEngine {
        let mut engine =
            ServingEngine::new(self.gate, self.gpu, self.topology, self.policy, self.config);
        engine.set_trace_sink(self.trace_sink);
        if let Some(owners) = self.assignment {
            engine.set_expert_assignment(owners);
        }
        engine
    }
}

impl ServingEngine {
    /// Starts an [`EngineBuilder`] for one model on one topology, with
    /// the paper-default [`EngineConfig`] and an LRU eviction policy.
    #[must_use]
    pub fn builder(gate: GateSimulator, gpu: GpuSpec, topology: Topology) -> EngineBuilder {
        EngineBuilder {
            gate,
            gpu,
            topology,
            policy: Box::new(fmoe_cache::LruPolicy::new()),
            config: EngineConfig::paper_default(),
            trace_sink: TraceSink::disabled(),
            assignment: None,
        }
    }

    /// Builds an engine for one model on one topology.
    #[must_use]
    pub fn new(
        gate: GateSimulator,
        gpu: GpuSpec,
        topology: Topology,
        policy: Box<dyn EvictionPolicy>,
        config: EngineConfig,
    ) -> Self {
        let model = gate.config().clone();
        let num_experts = model.num_layers as usize * model.experts_per_layer as usize;
        let cache = ExpertCache::new(&model, config.cache_budget_bytes, topology.num_gpus, policy);
        let transfer = TransferEngine::new(&topology);
        let cost = CostModel::new(model, gpu);
        let ep = config
            .expert_parallel
            .filter(|_| topology.num_gpus > 1)
            .map(|c| EpState::new(c, num_experts));
        let mut engine = Self {
            gate,
            cost,
            topology,
            cache,
            transfer,
            clock: VirtualClock::new(),
            in_flight: DenseIdSet::with_capacity(num_experts),
            active: Vec::new(),
            free_slots: Vec::new(),
            next_slot: 0,
            staged: DenseIdSet::with_capacity(num_experts),
            breakdown: Breakdown::default(),
            config,
            scratch: IterationScratch::default(),
            trace: TraceSink::disabled(),
            ep,
            per_gpu: PerGpuBreakdown::default(),
        };
        engine
            .per_gpu
            .ensure_gpus(engine.topology.num_gpus as usize);
        if engine.config.preload_all {
            engine.preload_all_experts();
        }
        engine
    }

    /// Inserts every routed expert into the cache at time zero (the
    /// No-offload reference). Experts that do not fit are skipped.
    fn preload_all_experts(&mut self) {
        let experts: Vec<ExpertId> = self.gate.config().all_experts().collect();
        for e in experts {
            let _ = self.cache.insert(e, 0);
        }
    }

    /// The model being served.
    #[must_use]
    pub fn model(&self) -> &fmoe_model::ModelConfig {
        self.gate.config()
    }

    /// Current virtual time.
    #[must_use]
    pub fn now(&self) -> Nanos {
        self.clock.now()
    }

    /// Advances the engine's idle time to `target` (used by the online
    /// scheduler between arrivals). No-op if `target` is in the past.
    pub fn idle_until(&mut self, target: Nanos) {
        if target > self.clock.now() {
            self.clock.advance_to(target);
            self.absorb_completions();
        }
    }

    /// Cache statistics so far.
    #[must_use]
    pub fn cache_stats(&self) -> fmoe_cache::CacheStats {
        self.cache.stats()
    }

    /// Transfer statistics so far.
    #[must_use]
    pub fn transfer_stats(&self) -> fmoe_memsim::TransferStats {
        self.transfer.stats()
    }

    /// Takes the accumulated per-operation breakdown, resetting it.
    pub fn take_breakdown(&mut self) -> Breakdown {
        std::mem::take(&mut self.breakdown)
    }

    /// Per-GPU compute/all2all/transfer attribution accumulated over
    /// the engine's lifetime (DESIGN.md §17).
    #[must_use]
    pub fn per_gpu_breakdown(&self) -> &PerGpuBreakdown {
        &self.per_gpu
    }

    /// Installs an explicit expert owner table (dense expert index →
    /// GPU), normally produced by a [`PlacementPolicy`] via
    /// [`EngineBuilder::placement_policy`]. Affects `home_gpu` and
    /// everything downstream; intended before any request is served.
    pub fn set_expert_assignment(&mut self, owners: Vec<u32>) {
        self.cache.set_assignment(owners);
    }

    /// Installs a trace sink. Clones of the handle are forwarded to the
    /// transfer engine and expert cache so engine spans, wire activity,
    /// and cache churn land in one shared timeline. Pass
    /// [`TraceSink::disabled`] to turn tracing back off.
    pub fn set_trace_sink(&mut self, sink: TraceSink) {
        self.transfer.set_trace_sink(sink.clone());
        self.cache.set_trace_sink(sink.clone());
        self.trace = sink;
    }

    /// The engine's trace sink (disabled unless one was installed).
    #[must_use]
    pub fn trace_sink(&self) -> &TraceSink {
        &self.trace
    }

    /// Retunes the expert-cache budget at runtime (SwapMoE-style tunable
    /// memory). Evictions happen immediately; in-flight prefetches are
    /// unaffected (they may be rejected at completion if the shrunken
    /// budget cannot host them).
    pub fn set_cache_budget(&mut self, total_bytes: u64) -> usize {
        self.config.cache_budget_bytes = total_bytes;
        self.cache.set_total_budget(total_bytes).len()
    }

    /// Current expert-cache budget in bytes.
    #[must_use]
    pub fn cache_budget(&self) -> u64 {
        self.config.cache_budget_bytes
    }

    /// Installs a fault schedule in the transfer engine, which holds the
    /// engine's only copy: link degradations and transient failures
    /// apply to transfers, memory-pressure windows squeeze the
    /// expert-cache budget at iteration boundaries.
    /// [`FaultSchedule::none`] (the default) is the fault-free run.
    pub fn set_fault_schedule(&mut self, schedule: FaultSchedule) {
        self.transfer.set_fault_schedule(schedule);
    }

    /// The installed fault schedule ([`FaultSchedule::none`] unless one
    /// was set).
    #[must_use]
    pub fn fault_schedule(&self) -> &FaultSchedule {
        self.transfer.fault_schedule()
    }

    /// Retunes the transfer engine's retry/backoff policy for transient
    /// faults.
    pub fn set_retry_policy(&mut self, retry: RetryPolicy) {
        self.transfer.set_retry_policy(retry);
    }

    /// Experts currently resident in the cache, in stable (sorted) order.
    /// A cluster uses this as the donor set when warm-seeding a
    /// restarted replica.
    #[must_use]
    pub fn resident_experts(&self) -> Vec<ExpertId> {
        self.cache.resident_experts().collect()
    }

    /// Restarts the engine at virtual instant `at` after a replica
    /// crash: the cache empties, staged/in-flight transfer state is
    /// dropped (the fabric died with the process — a fresh
    /// [`TransferEngine`] is built, inheriting the installed trace sink,
    /// fault schedule, and retry policy), and the clock is *replaced*
    /// rather than rewound, since the eager simulation may have run past
    /// the crash instant serving work the crash invalidated.
    ///
    /// Returns the pre-crash [`fmoe_cache::CacheStats`] snapshot:
    /// `ExpertCache::clear` resets counters, so lifetime accounting must
    /// carry the snapshot externally (see `fmoe_cache::CacheStats::merged`).
    pub fn restart_at(&mut self, at: Nanos) -> fmoe_cache::CacheStats {
        let pre_crash = self.cache.stats();
        self.cache.clear();
        self.staged.clear();
        self.in_flight.clear();
        self.active.clear();
        self.free_slots.clear();
        self.next_slot = 0;
        if let Some(ep) = self.ep.as_mut() {
            // Spilled peer copies died with the replica's device memory.
            ep.clear();
        }
        let mut transfer = TransferEngine::new(&self.topology);
        transfer.set_trace_sink(self.trace.clone());
        transfer.set_fault_schedule(self.transfer.fault_schedule().clone());
        transfer.set_retry_policy(self.transfer.retry_policy());
        self.transfer = transfer;
        self.clock = VirtualClock::new();
        self.clock.advance_to(at);
        pre_crash
    }

    /// Seeds the (just-restarted) engine's cache with `experts`, paying
    /// the bulk transfer cost of the payload — `experts.len() ×` expert
    /// size, plus `extra_bytes` of side state (e.g. a donor's Expert Map
    /// Store snapshot) charged to GPU 0's link — through the memsim
    /// links starting at `now`. Per-GPU payloads move in parallel (one
    /// link each); the returned instant is when the *last* link
    /// finishes, and the engine idles forward to it, so the replica
    /// accepts no work during warmup.
    pub fn warm_seed(&mut self, experts: &[ExpertId], extra_bytes: u64, now: Nanos) -> Nanos {
        let num_gpus = self.topology.num_gpus.max(1) as usize;
        let mut per_gpu_bytes = vec![0u64; num_gpus];
        per_gpu_bytes[0] += extra_bytes;
        for &e in experts {
            let gpu = self.cache.home_gpu(e) as usize % num_gpus;
            per_gpu_bytes[gpu] += self.cache.expert_bytes();
        }
        let mut done = now;
        for (gpu, &bytes) in per_gpu_bytes.iter().enumerate() {
            if bytes > 0 {
                done = done.max(self.transfer.warmup_load(GpuId(gpu as u32), bytes, now));
            }
        }
        for &e in experts {
            let _ = self.cache.insert_warm(e, done);
        }
        self.idle_until(done);
        done
    }

    /// Admits a request into the engine's batch: it joins at the next
    /// iteration boundary, prefilling while earlier requests keep
    /// decoding — the continuous batching modern serving systems use
    /// instead of static batches. A `degraded` request trades quality for
    /// latency: on-demand loads that only degraded requests need move
    /// half-precision payloads. Returns the request's stable slot id.
    ///
    /// TTFT is measured from admission; queueing before admission is the
    /// scheduler's concern (see `online::serve`).
    pub fn admit(&mut self, prompt: Prompt, degraded: bool) -> usize {
        let slot = self.free_slots.pop().unwrap_or_else(|| {
            let s = self.next_slot;
            self.next_slot += 1;
            s
        });
        let total = match self.config.max_decode_iterations {
            Some(cap) => prompt.iterations().min(1 + cap),
            None => prompt.iterations(),
        };
        let mut embedding_request_part = Vec::new();
        self.gate
            .embedding_request_part(prompt.routing, &mut embedding_request_part);
        self.active.push(Element {
            prompt,
            slot,
            iteration: 0,
            position: 0,
            total_iterations: total,
            start_ns: self.clock.now(),
            ttft_ns: None,
            finished_ns: self.clock.now(),
            decode_iterations: 0,
            hits: 0,
            misses: 0,
            degraded_hits: 0,
            degraded_loads: 0,
            degraded,
            realized_map: Vec::new(),
            embedding_request_part,
            activated: Vec::new(),
        });
        slot
    }

    /// Runs **one** iteration over the batch and returns the metrics of
    /// every request that finished during it. Finished requests free
    /// their slots for the next admission. A no-op returning an empty
    /// vec when the batch is empty.
    pub fn step(&mut self, predictor: &mut dyn ExpertPredictor) -> Vec<RequestMetrics> {
        let mut finished = Vec::new();
        self.step_with(predictor, |e| finished.push(e.metrics()));
        finished
    }

    /// [`Self::step`], handing each finished element to `on_finished`
    /// in admission order. The batch is partitioned in place, so the
    /// live requests keep their admission order and the batch's
    /// allocation survives the iteration.
    fn step_with(
        &mut self,
        predictor: &mut dyn ExpertPredictor,
        mut on_finished: impl FnMut(&Element),
    ) {
        if self.active.is_empty() {
            return;
        }
        let mut elements = std::mem::take(&mut self.active);
        self.run_iteration(&mut elements, predictor);
        let free_slots = &mut self.free_slots;
        elements.retain(|e| {
            if e.is_done() {
                free_slots.push(e.slot);
                on_finished(e);
            }
            !e.is_done()
        });
        self.active = elements;
    }

    /// Steps until the batch is empty and returns every finished
    /// request's metrics in admission order. Emptying the batch resets
    /// the slot allocator, so the next batch on the idle engine gets
    /// slots `0..n` in admission order again.
    pub(crate) fn drain(&mut self, predictor: &mut dyn ExpertPredictor) -> Vec<RequestMetrics> {
        // Admission position by slot: slots are unique within the batch
        // and nothing is admitted while it drains. (Request ids may
        // repeat, so they cannot key the order.)
        let admitted: Vec<usize> = self.active.iter().map(|e| e.slot).collect();
        let mut metrics = vec![RequestMetrics::default(); admitted.len()];
        while !self.active.is_empty() {
            self.step_with(predictor, |e| {
                if let Some(pos) = admitted.iter().position(|&slot| slot == e.slot) {
                    metrics[pos] = e.metrics();
                }
            });
        }
        self.free_slots.clear();
        self.next_slot = 0;
        metrics
    }

    /// Requests currently in the batch.
    #[must_use]
    pub fn active_requests(&self) -> usize {
        self.active.len()
    }

    /// Serves one request at full precision and returns its metrics.
    /// Requests already admitted run alongside it; use
    /// [`Self::serve_batch`] to collect their metrics too.
    pub fn serve_request(
        &mut self,
        prompt: Prompt,
        predictor: &mut dyn ExpertPredictor,
    ) -> RequestMetrics {
        self.serve_batch(&[prompt], predictor)
            .pop()
            .unwrap_or_default()
    }

    /// Serves a lockstep batch: admits every prompt at full precision,
    /// then runs until the batch drains. Returns every finished request
    /// in admission order — on an idle engine, the order of `prompts`.
    /// An empty slice on an idle engine returns an empty vec.
    pub fn serve_batch(
        &mut self,
        prompts: &[Prompt],
        predictor: &mut dyn ExpertPredictor,
    ) -> Vec<RequestMetrics> {
        for &prompt in prompts {
            self.admit(prompt, false);
        }
        self.drain(predictor)
    }

    /// Runs one lockstep iteration over the batch: the paper's Step ①–⑤
    /// loop, one named step per stage. Every element is live:
    /// [`Self::step_with`] removes requests as they finish.
    fn run_iteration(&mut self, elements: &mut [Element], predictor: &mut dyn ExpertPredictor) {
        debug_assert!(
            elements.iter().all(|el| !el.is_done()),
            "finished request reached run_iteration"
        );
        let mut scratch = std::mem::take(&mut self.scratch);
        let iter_start = self.clock.now();
        self.breakdown.iterations += 1;
        self.trace
            .begin(iter_start, Phase::Iteration, NO_REQUEST, NO_LAYER);
        self.trace.count("engine.iterations", 1);
        let timing = predictor.timing();
        self.breakdown.matching_synchronous = timing.synchronous;
        let num_layers = self.gate.config().num_layers;
        scratch.ensure_model(
            num_layers as usize * self.gate.config().experts_per_layer as usize,
            self.topology.num_gpus as usize,
        );

        self.collect_context(elements, &mut scratch);
        self.set_iteration_budget(elements);

        // Step 2a: iteration-start prediction (semantic search window).
        scratch.begin_plans.clear();
        for ctx in &scratch.contexts {
            scratch.begin_plans.extend(predictor.begin_iteration(ctx));
        }
        self.issue_plans(&scratch.begin_plans, &timing);

        let shape = BatchShape::of(elements);
        for layer in 0..num_layers {
            self.run_layer(layer, shape, elements, predictor, &timing, &mut scratch);
        }

        // LM head / embedding: critical-path compute with no trace span
        // (the one clock advance outside `charge`).
        let head = self.cost.embedding_time(shape.tokens);
        self.clock.advance(head);
        self.breakdown.compute_ns += head;

        self.finish_iteration(elements, predictor, &timing, &scratch.contexts);
        self.breakdown.iteration_total_ns += self.clock.now() - iter_start;
        self.trace
            .end(self.clock.now(), Phase::Iteration, NO_REQUEST, NO_LAYER);
        // Hand the working memory back for the next iteration; the
        // backing allocations survive the round-trip.
        self.scratch = scratch;
    }

    /// Charges `ns` of critical-path time to `phase`: advances the
    /// clock, books the phase's [`Breakdown`] field, and emits the
    /// phase's span ending at the new instant. Every engine-side
    /// critical-path charge goes through here except the LM head, which
    /// books compute without a span.
    fn charge(&mut self, phase: Phase, layer: u32, ns: Nanos) {
        let field = match phase {
            Phase::ContextCollect => &mut self.breakdown.context_collection_ns,
            Phase::Gate | Phase::Compute => &mut self.breakdown.compute_ns,
            Phase::All2All => &mut self.breakdown.all2all_ns,
            Phase::PrefetchIssue => &mut self.breakdown.matching_ns,
            // Not engine charges: the scheduler books queueing, the
            // transfer engine its wire spans, and on-demand waits and
            // iterations are Begin/End intervals.
            Phase::Queue | Phase::Transfer | Phase::OnDemandWait | Phase::Iteration => return,
        };
        *field += ns;
        self.clock.advance(ns);
        self.trace
            .span(self.clock.now(), phase, NO_REQUEST, layer, NO_GPU, ns, 0);
    }

    /// Step ①: context collection (synchronous), then the iteration
    /// boundary — stale prefetches pruned, pins released.
    fn collect_context(&mut self, elements: &[Element], scratch: &mut IterationScratch) {
        // One context per element for the whole iteration: every field
        // is constant until step 5's bookkeeping, so predictors at each
        // layer see exactly what per-call construction produced. Each
        // context slot keeps its embedding buffer from the last
        // iteration, and the embedding is composed from the element's
        // request part, so an iteration allocates no embedding.
        scratch.contexts.truncate(elements.len());
        for (i, el) in elements.iter().enumerate() {
            let mut embedding = scratch
                .contexts
                .get_mut(i)
                .map(|ctx| std::mem::take(&mut ctx.embedding))
                .unwrap_or_default();
            self.gate
                .embedding_phase_row(el.iteration, &mut scratch.phase_row);
            self.gate.compose_embedding(
                el.prompt.routing,
                el.iteration,
                &el.embedding_request_part,
                &scratch.phase_row,
                &mut embedding,
            );
            let ctx = el.context(embedding);
            match scratch.contexts.get_mut(i) {
                Some(slot) => *slot = ctx,
                None => scratch.contexts.push(ctx),
            }
        }
        self.charge(
            Phase::ContextCollect,
            NO_LAYER,
            self.config.context_collection_ns,
        );

        // Stale-prefetch pruning: jobs still queued from the previous
        // iteration target a phase that has passed — drop them so the
        // links start the iteration clean. Stage pins from the previous
        // iteration are released likewise.
        self.prune_stale_prefetches(None, &mut scratch.stale);
        self.cache.unpin_all();
        self.cache.notify_iteration_boundary();
        self.staged.clear();
    }

    /// KV-aware budgeting and memory-pressure faults both squeeze the
    /// expert cache; the effective budget is recomputed every iteration
    /// so pressure windows release their squeeze when they close.
    fn set_iteration_budget(&mut self, elements: &[Element]) {
        let faults = self.transfer.fault_schedule();
        if !self.config.kv_aware_budget && faults.is_inert() {
            return;
        }
        let pressure = faults.budget_factor(self.clock.now());
        let mut effective = self.config.cache_budget_bytes;
        if pressure < 1.0 {
            effective = (effective as f64 * pressure) as u64;
        }
        if self.config.kv_aware_budget {
            let kv_per_token = self.gate.config().kv_bytes_per_token();
            let live_kv: u64 = elements
                .iter()
                .map(|e| (e.position + e.span().count) * kv_per_token)
                .sum();
            effective = effective.saturating_sub(live_kv);
        }
        if pressure < 1.0 {
            self.trace.instant(
                self.clock.now(),
                Marker::BudgetPressure,
                NO_REQUEST,
                NO_LAYER,
                NO_SLOT,
                NO_GPU,
                effective,
            );
            self.trace.count("engine.budget_pressure_iterations", 1);
        }
        let _ = self.cache.set_total_budget(effective);
    }

    /// One transformer layer: gate, all2all dispatch, resolve, step ④,
    /// expert compute, all2all combine, and pin release.
    fn run_layer(
        &mut self,
        layer: u32,
        shape: BatchShape,
        elements: &mut [Element],
        predictor: &mut dyn ExpertPredictor,
        timing: &PredictorTiming,
        scratch: &mut IterationScratch,
    ) {
        // Drop queued prefetches whose target layer has already
        // executed this iteration — they can no longer help.
        if layer > 0 {
            self.prune_stale_prefetches(Some(layer), &mut scratch.stale);
        }
        self.gate_layer(layer, shape, elements, predictor, timing, scratch);
        let combine_ns = self.all2all_dispatch(layer, elements, scratch);
        // Absorb prefetches that have landed by now.
        self.absorb_completions();
        self.resolve_layer(layer, elements, predictor, timing, scratch);
        if !scratch.waited_inflight.is_empty() || !scratch.missing.is_empty() {
            self.load_missing(layer, shape, elements, timing, scratch);
        }

        // Expert FFN compute: per-GPU serial, cross-GPU parallel.
        let expert_compute =
            self.expert_compute_time(&scratch.union, shape.tokens, &mut scratch.compute_per_gpu);
        self.charge(Phase::Compute, layer, expert_compute);
        accumulate(&mut self.per_gpu.compute_ns, &scratch.compute_per_gpu);
        // EP all2all combine: expert outputs return to each token's
        // source GPU — the mirror of the dispatch.
        if combine_ns > 0 {
            self.charge(Phase::All2All, layer, combine_ns);
        }
        // Release this layer's pins; staged experts for *future*
        // layers stay protected until their layer executes.
        let j = self.gate.config().experts_per_layer;
        for d in scratch.union.iter() {
            self.cache.unpin(ExpertId::from_dense_index(d, j));
            self.staged.remove(d);
        }
        scratch.passed.clear();
        scratch
            .passed
            .extend(self.staged.iter_experts(j).filter(|e| e.layer <= layer));
        for &e in &scratch.passed {
            self.cache.unpin(e);
            self.staged.remove(e.dense_index(j));
        }
        self.cache.notify_layer_done(layer);
    }

    /// Attention + gate + shared-expert compute, then the gate ground
    /// truth per element (the union of activated experts) and step 2b,
    /// the predictor's `observe_gate`.
    fn gate_layer(
        &mut self,
        layer: u32,
        shape: BatchShape,
        elements: &mut [Element],
        predictor: &mut dyn ExpertPredictor,
        timing: &PredictorTiming,
        scratch: &mut IterationScratch,
    ) {
        // Attention + gate + always-on shared experts + host dispatch.
        let compute = self.cost.attention_time(shape.tokens, shape.context_len)
            + self.cost.gate_time(shape.tokens)
            + self.cost.shared_expert_time(shape.tokens)
            + self.config.framework_overhead_per_layer_ns;
        self.charge(Phase::Gate, layer, compute);

        let j = self.gate.config().experts_per_layer;
        scratch.union.clear();
        scratch.layer_plans.clear();
        if shape.any_degraded {
            scratch.full_precision.clear();
        }
        for (el, ctx) in elements.iter_mut().zip(&scratch.contexts) {
            self.gate.route_into(
                el.prompt.routing,
                el.iteration,
                layer,
                el.span(),
                &mut scratch.gate,
            );
            for &slot in &scratch.gate.activated {
                let d = layer as usize * j as usize + slot as usize;
                scratch.union.insert(d);
                if shape.any_degraded && !el.degraded {
                    scratch.full_precision.insert(d);
                }
            }
            overwrite_row(&mut el.realized_map, layer, &scratch.gate.dist);
            overwrite_row(&mut el.activated, layer, &scratch.gate.activated);
            scratch
                .layer_plans
                .extend(predictor.observe_gate(ctx, layer, &scratch.gate.dist));
        }
        self.issue_plans(&scratch.layer_plans, timing);
    }

    /// EP all2all dispatch: each token's hidden activation moves to the
    /// owner GPUs of its activated experts over the peer fabric,
    /// bottlenecked by the most-loaded owner (gate skew). Charges the
    /// dispatch half and returns the symmetric combine half, which is
    /// charged after expert compute. Zero when EP is off.
    fn all2all_dispatch(
        &mut self,
        layer: u32,
        elements: &[Element],
        scratch: &mut IterationScratch,
    ) -> Nanos {
        let Some(backend) = self.ep.as_ref().map(|s| s.config.backend) else {
            return 0;
        };
        scratch.tokens_to_gpu.fill(0);
        for el in elements {
            let tokens = el.span().count;
            for &slot in &el.activated[layer as usize] {
                let gpu = self.cache.home_gpu(ExpertId::new(layer, slot)) as usize;
                if let Some(t) = scratch.tokens_to_gpu.get_mut(gpu) {
                    *t += tokens;
                }
            }
        }
        let bytes_per_token =
            u64::from(self.gate.config().hidden_dim) * fmoe_model::BYTES_PER_PARAM_FP16;
        let total = all2all_layer_time(
            &self.topology,
            backend,
            &scratch.tokens_to_gpu,
            bytes_per_token,
            &mut scratch.a2a_per_gpu,
        );
        if total == 0 {
            return 0;
        }
        let dispatch = total / 2;
        self.charge(Phase::All2All, layer, dispatch);
        accumulate(&mut self.per_gpu.all2all_ns, &scratch.a2a_per_gpu);
        total - dispatch
    }

    /// Classifies each needed expert — resident, in flight (a prefetch
    /// is mid-transfer: wait for the remainder rather than cancel and
    /// reload), or missing (full on-demand load) — records every
    /// (element, expert) access, and pins the resident ones.
    fn resolve_layer(
        &mut self,
        layer: u32,
        elements: &mut [Element],
        predictor: &dyn ExpertPredictor,
        timing: &PredictorTiming,
        scratch: &mut IterationScratch,
    ) {
        let j = self.gate.config().experts_per_layer;
        let now = self.clock.now();
        scratch.residency.clear();
        scratch.waited_inflight.clear();
        scratch.missing.clear();
        for d in scratch.union.iter() {
            let e = ExpertId::from_dense_index(d, j);
            if self.cache.contains(e) {
                scratch.residency.insert(d, true);
            } else if self.in_flight.contains(d) {
                // For blocking policies (Mixtral-Offloading) the wait
                // is the design — the speculated expert counts as a
                // hit; for async policies a late prefetch is a miss.
                scratch.residency.insert(d, timing.blocking_prefetch);
                scratch.waited_inflight.push(e);
            } else {
                scratch.residency.insert(d, false);
                scratch.missing.push(e);
            }
        }
        // Expert-agnostic layer streaming (DeepSpeed-Inference): the
        // policy cannot tell which experts are needed or resident, so
        // any miss streams the layer's *entire* expert blob from host
        // memory — resident experts included.
        if predictor.loads_entire_layer() && !scratch.missing.is_empty() {
            scratch.missing.clear();
            scratch
                .missing
                .extend((0..j).map(|slot| ExpertId::new(layer, slot)));
        }
        for el in elements.iter_mut() {
            for &slot in &el.activated[layer as usize] {
                let e = ExpertId::new(layer, slot);
                // Stats + policy bookkeeping recorded once per
                // (element, expert) access, against pre-load residency.
                if scratch.residency.get(e.dense_index(j)) == Some(&true) {
                    el.hits += 1;
                    self.trace.count("engine.expert_hits", 1);
                    if self.cache.is_degraded(e) {
                        el.degraded_hits += 1;
                    }
                } else {
                    el.misses += 1;
                    self.trace.count("engine.expert_misses", 1);
                }
                self.cache.record_access(e, now);
            }
        }

        // Pin resident activated experts before loading the rest, so
        // insertions cannot evict what this layer is about to run.
        for e in scratch.union.iter_experts(j) {
            self.cache.pin(e);
        }
    }

    /// Step ④: wait for needed in-flight transfers and issue blocking
    /// on-demand loads, chained per GPU link, parallel across GPUs.
    /// Prefetch queues pause during on-demand loads. Each miss takes one
    /// path: a peer fetch when a peer holds a spilled copy, otherwise a
    /// host load under the configured deadline (`Nanos::MAX` without
    /// one, which is exactly the plain blocking load).
    fn load_missing(
        &mut self,
        layer: u32,
        shape: BatchShape,
        elements: &mut [Element],
        timing: &PredictorTiming,
        scratch: &mut IterationScratch,
    ) {
        let j = self.gate.config().experts_per_layer;
        let start = self.clock.now();
        let bytes = self.cache.expert_bytes();
        self.trace
            .begin(start, Phase::OnDemandWait, NO_REQUEST, layer);
        // Per-GPU start times: on-demand loads on a link begin after the
        // needed in-flight jobs on that link complete.
        scratch.per_gpu_now.fill(None);
        let mut inflight_done = start;
        // Promote every needed transfer first; estimating completion
        // before all promotions are in would go stale as soon as a
        // second job jumps the same link's queue.
        for &e in &scratch.waited_inflight {
            let gpu = self.cache.home_gpu(e);
            self.trace.instant(
                start,
                Marker::InFlightWait,
                NO_REQUEST,
                e.layer,
                e.slot,
                gpu,
                NO_VALUE,
            );
            self.trace.count("engine.inflight_waits", 1);
            // The forward pass needs this transfer now: jump it ahead
            // of background prefetch traffic on its link.
            self.transfer
                .promote_to_front(GpuId(gpu), e.dense_index(j) as u64, start);
        }
        for &e in &scratch.waited_inflight {
            let gpu = self.cache.home_gpu(e);
            let tag = e.dense_index(j) as u64;
            if let Some(done) = self.transfer.completion_time_of(GpuId(gpu), tag) {
                let entry = scratch.per_gpu_now[gpu as usize].get_or_insert(start);
                *entry = (*entry).max(done);
                inflight_done = inflight_done.max(done);
            }
        }
        // On-demand payload sizes: full precision normally, half
        // precision when only SLO-degraded elements need the expert or
        // when a deadline miss forces the fallback. `loaded` records
        // what actually moved so the cache insert matches the wire.
        scratch.loaded.clear();
        for &e in &scratch.missing {
            let d = e.dense_index(j);
            let gpu = self.cache.home_gpu(e);
            let t0 = scratch.per_gpu_now[gpu as usize].map_or(start, |t| t.max(start));
            let want = if shape.any_degraded && !scratch.full_precision.contains(d) {
                bytes / 2
            } else {
                bytes
            };
            // Peer-to-peer tier: a copy spilled to a peer device serves
            // the miss over the fast peer link instead of re-reading
            // host memory (and without pausing the host-side prefetch
            // queues). The pool only fills when peer fetching is on.
            let (done, moved) = if self.ep.as_mut().is_some_and(|ep| ep.take(d)) {
                let done = t0 + self.topology.peer_link.transfer_time(want);
                self.trace.instant(
                    t0,
                    Marker::PeerFetch,
                    NO_REQUEST,
                    e.layer,
                    e.slot,
                    gpu,
                    want,
                );
                self.trace.count("engine.peer_fetches", 1);
                self.breakdown.peer_fetches += 1;
                self.breakdown.peer_fetch_ns += done - t0;
                (done, want)
            } else {
                self.trace.instant(
                    t0,
                    Marker::OnDemandLoad,
                    NO_REQUEST,
                    e.layer,
                    e.slot,
                    gpu,
                    want,
                );
                self.trace.count("engine.on_demand_loads", 1);
                let deadline = self
                    .config
                    .on_demand_deadline_ns
                    .map_or(Nanos::MAX, |d| t0.saturating_add(d));
                match self.transfer.on_demand_load_with_deadline(
                    GpuId(gpu),
                    want,
                    t0,
                    deadline,
                    want / 2,
                ) {
                    Ok(outcome) => (outcome.completed_at, outcome.bytes_loaded),
                    // `home_gpu` only yields GPUs in the topology; if that
                    // ever breaks, the load moves nothing rather than panic.
                    Err(_) => (t0, want),
                }
            };
            // Each missing expert is visited once per layer, so this
            // never overwrites an earlier payload.
            if moved < bytes {
                scratch.loaded.insert(d, moved);
            }
            if let Some(t) = self.per_gpu.transfer_ns.get_mut(gpu as usize) {
                *t += done.saturating_sub(t0);
            }
            scratch.per_gpu_now[gpu as usize] = Some(done);
        }
        let done = scratch
            .per_gpu_now
            .iter()
            .flatten()
            .fold(start, |a, &b| a.max(b));
        // Breakdown: the in-flight portion of the stall is the policy's
        // synchronous-prefetch cost when it blocks by design; everything
        // else is on-demand waiting.
        let inflight_stall = inflight_done.saturating_sub(start);
        if timing.blocking_prefetch {
            self.breakdown.blocking_prefetch_ns += inflight_stall;
            self.breakdown.on_demand_wait_ns += (done - start) - inflight_stall;
        } else {
            self.breakdown.on_demand_wait_ns += done - start;
        }
        self.clock.advance_to(done);
        self.trace.end(done, Phase::OnDemandWait, NO_REQUEST, layer);
        // Fold arrived prefetches (including the waited ones) in.
        self.absorb_completions();
        let now = self.clock.now();
        for &e in &scratch.waited_inflight {
            self.cache.pin(e);
        }
        for &e in &scratch.missing {
            let outcome = match scratch.loaded.get(e.dense_index(j)) {
                Some(&sz) => self.cache.insert_sized(e, sz, now),
                None => self.cache.insert(e, now),
            };
            match outcome {
                InsertOutcome::Inserted { evicted } => {
                    self.spill(&evicted);
                    self.cache.pin(e);
                }
                InsertOutcome::AlreadyResident => {
                    self.cache.pin(e);
                }
                InsertOutcome::Rejected => {
                    // Budget cannot hold this layer's working set: the
                    // expert streams through a staging buffer and is not
                    // resident afterward.
                }
            }
        }
        // Attribute degraded loads to the elements that activated those
        // experts (mirrors the hit/miss accounting in `resolve_layer`).
        if !scratch.loaded.is_empty() {
            for el in elements.iter_mut() {
                for &slot in &el.activated[layer as usize] {
                    let d = ExpertId::new(layer, slot).dense_index(j);
                    el.degraded_loads += u64::from(scratch.loaded.contains(d));
                }
            }
        }
    }

    /// Step ⑤: map update (asynchronous) and per-element bookkeeping.
    /// The contexts built in step ① are still current — nothing since
    /// mutated their inputs.
    fn finish_iteration(
        &mut self,
        elements: &mut [Element],
        predictor: &mut dyn ExpertPredictor,
        timing: &PredictorTiming,
        contexts: &[IterationContext],
    ) {
        for (el, ctx) in elements.iter_mut().zip(contexts) {
            predictor.end_iteration(ctx, &el.realized_map);
            self.breakdown.update_async_ns += timing.update_ns;

            if el.iteration == 0 {
                el.position = el.prompt.prompt_tokens;
                el.ttft_ns = Some(self.clock.now() - el.start_ns);
            } else {
                el.position += 1;
                el.decode_iterations += 1;
            }
            el.iteration += 1;
            if el.is_done() {
                el.finished_ns = self.clock.now();
                let total = el.finished_ns - el.start_ns;
                self.trace.instant(
                    el.finished_ns,
                    Marker::RequestFinished,
                    el.prompt.id,
                    NO_LAYER,
                    NO_SLOT,
                    NO_GPU,
                    total,
                );
                self.trace.count("engine.requests_finished", 1);
                self.trace.observe("engine.request_total_ns", total);
                if let Some(ttft) = el.ttft_ns {
                    self.trace.observe("engine.request_ttft_ns", ttft);
                }
            }
        }
    }

    /// Expert FFN time for a layer: experts grouped by home GPU run
    /// serially per GPU and in parallel across GPUs. `per_gpu` is the
    /// caller's scratch (one slot per GPU, zeroed here); the max over the
    /// full zero-initialized slice equals the max over touched GPUs
    /// because per-GPU sums are non-negative and `union` is non-empty.
    fn expert_compute_time(
        &self,
        union: &DenseIdSet,
        batch_tokens: u64,
        per_gpu: &mut [Nanos],
    ) -> Nanos {
        if union.is_empty() {
            return 0;
        }
        let j = self.gate.config().experts_per_layer;
        let k = u64::from(self.gate.config().top_k);
        let tokens_per_expert = ((batch_tokens * k) as f64 / union.len() as f64)
            .ceil()
            .max(1.0) as u64;
        per_gpu.fill(0);
        for e in union.iter_experts(j) {
            let gpu = self.cache.home_gpu(e) as usize;
            if let Some(slot) = per_gpu.get_mut(gpu) {
                *slot += self.cost.expert_time(tokens_per_expert);
            }
        }
        per_gpu.iter().copied().max().unwrap_or(0)
    }

    /// Submits prefetch plans to the transfer engine. Matching latency
    /// is always booked; synchronous policies stall compute for it (a
    /// real interval on the critical path) and issue immediately, while
    /// asynchronous ones match off-path and issue after the latency.
    fn issue_plans(&mut self, plans: &[PrefetchPlan], timing: &PredictorTiming) {
        if plans.is_empty() {
            return;
        }
        let at = if timing.synchronous {
            if timing.latency_ns > 0 {
                self.charge(Phase::PrefetchIssue, NO_LAYER, timing.latency_ns);
            }
            self.clock.now()
        } else {
            self.breakdown.matching_ns += timing.latency_ns;
            self.clock.now() + timing.latency_ns
        };
        let j = self.gate.config().experts_per_layer;
        let full_bytes = self.cache.expert_bytes();
        for plan in plans {
            self.cache.update_probability(plan.expert, plan.probability);
            if plan.advisory || self.cache.contains(plan.expert) {
                continue;
            }
            let tag = plan.expert.dense_index(j) as u64;
            if self.in_flight.contains(tag as usize) {
                continue;
            }
            // Mixed-precision extension: dubious experts load quantized.
            let bytes = match self.config.low_precision_threshold {
                Some(threshold) if plan.probability < threshold => full_bytes / 2,
                _ => full_bytes,
            };
            if bytes > self.cache.per_gpu_budget() {
                continue; // can never be cached
            }
            let gpu = GpuId(self.cache.home_gpu(plan.expert));
            self.transfer.submit_prefetch(gpu, tag, bytes, at);
            // Recorded at `now`, not at the (possibly future) issue time:
            // the recorder's timeline is monotone and a future stamp would
            // drag later events forward. The scheduled issue time rides in
            // `value` instead.
            self.trace.instant(
                self.clock.now(),
                Marker::PrefetchIssued,
                NO_REQUEST,
                plan.expert.layer,
                plan.expert.slot,
                gpu.0,
                at,
            );
            self.trace.count("engine.prefetches_issued", 1);
            self.in_flight.insert(tag as usize);
        }
    }

    /// Records evicted experts into the EP peer spill pool: under EP,
    /// they linger in spare peer-device memory for a while (the
    /// peer-fetch tier). No-op when EP is off.
    fn spill(&mut self, evicted: &[ExpertId]) {
        let j = self.gate.config().experts_per_layer;
        if let Some(ep) = self.ep.as_mut() {
            for v in evicted {
                ep.spill(v.dense_index(j));
            }
        }
    }

    /// Cancels queued prefetch jobs that can no longer be useful: with
    /// `before_layer = Some(l)`, jobs targeting layers `< l` of the
    /// current iteration; with `None`, every queued job (iteration
    /// boundary — a new iteration routes differently).
    fn prune_stale_prefetches(
        &mut self,
        before_layer: Option<u32>,
        stale: &mut Vec<(u64, ExpertId)>,
    ) {
        self.absorb_completions();
        let j = self.gate.config().experts_per_layer;
        let now = self.clock.now();
        stale.clear();
        stale.extend(
            self.in_flight
                .iter()
                .map(|d| (d as u64, ExpertId::from_dense_index(d, j)))
                .filter(|(_, e)| before_layer.is_none_or(|l| e.layer < l)),
        );
        for &(tag, expert) in stale.iter() {
            let gpu = GpuId(self.cache.home_gpu(expert));
            if self.transfer.cancel_prefetch(gpu, tag, now) {
                self.in_flight.remove(tag as usize);
            }
        }
        self.absorb_completions();
    }

    /// Folds completed prefetch transfers into the cache, stage-pinning
    /// them until their target layer executes.
    fn absorb_completions(&mut self) {
        self.transfer.advance_to(self.clock.now());
        let j = self.gate.config().experts_per_layer;
        for c in self.transfer.drain_completions() {
            // Tags *are* dense expert indices, so membership alone
            // reconstructs the expert — no tag→expert map needed.
            if !self.in_flight.remove(c.tag as usize) {
                continue;
            }
            let expert = ExpertId::from_dense_index(c.tag as usize, j);
            self.breakdown.prefetch_async_ns += self.topology.host_link.wire_time(c.bytes);
            self.trace.instant(
                c.completed_at,
                Marker::PrefetchArrived,
                NO_REQUEST,
                expert.layer,
                expert.slot,
                c.gpu.0,
                c.bytes,
            );
            self.trace.count("engine.prefetch_arrivals", 1);
            let outcome = self.cache.insert_sized(expert, c.bytes, c.completed_at);
            if let InsertOutcome::Inserted { evicted } = &outcome {
                self.spill(evicted);
            }
            if matches!(
                outcome,
                InsertOutcome::Inserted { .. } | InsertOutcome::AlreadyResident
            ) && self.cache.pin(expert)
            {
                self.staged.insert(c.tag as usize);
            }
        }
        // Transfers that exhausted their retries are lost: release the
        // in-flight slot so the expert can be re-requested (as a fresh
        // prefetch or an on-demand load) instead of being waited on.
        for f in self.transfer.drain_failures() {
            if self.in_flight.remove(f.tag as usize) {
                let expert = ExpertId::from_dense_index(f.tag as usize, j);
                self.trace.instant(
                    f.failed_at,
                    Marker::PrefetchFailed,
                    NO_REQUEST,
                    expert.layer,
                    expert.slot,
                    f.gpu.0,
                    u64::from(f.attempts),
                );
                self.trace.count("engine.prefetch_failures", 1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::NoPrefetch;
    use fmoe_cache::LruPolicy;
    use fmoe_model::{presets, GateParams};
    use fmoe_trace::{TraceEvent, TraceRecord};
    use fmoe_workload::DatasetSpec;

    fn tiny_engine(cache_slots_total: u64, preload: bool) -> ServingEngine {
        let cfg = presets::tiny_test_model();
        let gate = GateSimulator::new(cfg.clone(), GateParams::for_model(&cfg));
        let topology = Topology::single_gpu(8 << 30);
        let budget = cfg.expert_bytes() * cache_slots_total;
        let config = EngineConfig {
            cache_budget_bytes: budget,
            preload_all: preload,
            max_decode_iterations: Some(8),
            context_collection_ns: 1000,
            framework_overhead_per_layer_ns: 10_000,
            ..EngineConfig::paper_default()
        };
        ServingEngine::new(
            gate,
            GpuSpec::rtx_3090(),
            topology,
            Box::new(LruPolicy::new()),
            config,
        )
    }

    fn prompt(id: u64) -> Prompt {
        DatasetSpec::tiny_test().prompt(id)
    }

    #[test]
    fn serves_a_request_and_reports_metrics() {
        let mut e = tiny_engine(8, false);
        let m = e.serve_request(prompt(0), &mut NoPrefetch);
        assert!(m.ttft_ns > 0);
        assert!(m.total_ns >= m.ttft_ns);
        assert_eq!(m.total_ns - m.ttft_ns, m.decode_ns);
        assert!(m.expert_hits + m.expert_misses > 0);
        // Every iteration touches at least top_k experts per layer.
        let min_accesses = (1 + m.decode_iterations) * 4 /*layers*/ * 2 /*top_k*/;
        assert!(m.expert_hits + m.expert_misses >= min_accesses);
    }

    #[test]
    fn preloaded_cache_never_misses() {
        // Budget covers all 16 experts of the tiny model.
        let mut e = tiny_engine(16, true);
        let m = e.serve_request(prompt(1), &mut NoPrefetch);
        assert_eq!(m.expert_misses, 0);
        assert!(m.expert_hits > 0);
    }

    #[test]
    fn cold_cache_misses_then_warms_up() {
        let mut e = tiny_engine(16, false);
        let first = e.serve_request(prompt(2), &mut NoPrefetch);
        assert!(first.expert_misses > 0);
        // Second identical request: the cache now holds everything it
        // touched (capacity fits the whole model).
        let second = e.serve_request(prompt(2), &mut NoPrefetch);
        assert!(second.hit_rate() > first.hit_rate());
    }

    #[test]
    fn smaller_cache_is_slower() {
        let mut large = tiny_engine(16, false);
        let mut small = tiny_engine(2, false);
        let p = prompt(3);
        // Warm both with one pass, then measure.
        let _ = large.serve_request(p, &mut NoPrefetch);
        let _ = small.serve_request(p, &mut NoPrefetch);
        let ml = large.serve_request(p, &mut NoPrefetch);
        let ms = small.serve_request(p, &mut NoPrefetch);
        assert!(ms.total_ns >= ml.total_ns);
        assert!(ms.hit_rate() <= ml.hit_rate());
    }

    #[test]
    fn decode_cap_limits_iterations() {
        let mut e = tiny_engine(8, false);
        let m = e.serve_request(prompt(4), &mut NoPrefetch);
        assert!(m.decode_iterations <= 8);
    }

    #[test]
    fn clock_advances_monotonically_across_requests() {
        let mut e = tiny_engine(8, false);
        let t0 = e.now();
        let _ = e.serve_request(prompt(5), &mut NoPrefetch);
        let t1 = e.now();
        assert!(t1 > t0);
        let _ = e.serve_request(prompt(6), &mut NoPrefetch);
        assert!(e.now() > t1);
    }

    #[test]
    fn batch_returns_metrics_per_request() {
        let mut e = tiny_engine(8, false);
        let ps = [prompt(7), prompt(8), prompt(9)];
        let ms = e.serve_batch(&ps, &mut NoPrefetch);
        assert_eq!(ms.len(), 3);
        for (m, p) in ms.iter().zip(&ps) {
            assert_eq!(m.request_id, p.id);
            assert!(m.total_ns > 0);
        }
    }

    #[test]
    fn empty_batch_on_idle_engine_is_empty() {
        let mut e = tiny_engine(8, false);
        assert!(e.serve_batch(&[], &mut NoPrefetch).is_empty());
        assert_eq!(e.now(), 0, "nothing ran");
    }

    #[test]
    fn serve_batch_drains_running_requests_in_admission_order() {
        let mut e = tiny_engine(8, false);
        e.admit(prompt(20), false);
        e.admit(prompt(21), false);
        assert!(
            e.step(&mut NoPrefetch).is_empty(),
            "prefill finishes no one"
        );
        let ms = e.serve_batch(&[prompt(22), prompt(23)], &mut NoPrefetch);
        let ids: Vec<u64> = ms.iter().map(|m| m.request_id).collect();
        assert_eq!(ids, [20, 21, 22, 23]);
        assert_eq!(e.active_requests(), 0);
    }

    /// `prompt(id)` with its answer cut to `output_tokens`.
    fn prompt_len(id: u64, output_tokens: u64) -> Prompt {
        Prompt {
            output_tokens,
            ..prompt(id)
        }
    }

    #[test]
    fn serve_batch_returns_admission_order_not_finish_order() {
        let mut e = tiny_engine(8, false);
        // Finish order is 2, then the second 1, then the first 1: the
        // first-admitted request finishes last, and two prompts share id 1.
        let ms = e.serve_batch(
            &[prompt_len(1, 6), prompt_len(2, 2), prompt_len(1, 4)],
            &mut NoPrefetch,
        );
        let ids: Vec<u64> = ms.iter().map(|m| m.request_id).collect();
        assert_eq!(ids, [1, 2, 1]);
        let decodes: Vec<u64> = ms.iter().map(|m| m.decode_iterations).collect();
        assert_eq!(decodes, [5, 1, 3]);
        // All three started together, so total time is finish order:
        // the batch really was reordered.
        assert!(ms[1].total_ns < ms[2].total_ns && ms[2].total_ns < ms[0].total_ns);
    }

    /// Records the slot of every request at its prefill iteration.
    #[derive(Default)]
    struct SlotRecorder {
        seen: Vec<(u64, usize)>,
    }

    impl ExpertPredictor for SlotRecorder {
        fn name(&self) -> String {
            "SlotRecorder".into()
        }

        fn timing(&self) -> crate::predictor::PredictorTiming {
            crate::predictor::PredictorTiming::free()
        }

        fn begin_iteration(&mut self, ctx: &IterationContext) -> Vec<PrefetchPlan> {
            if ctx.is_prefill {
                self.seen.push((ctx.request_id, ctx.element));
            }
            Vec::new()
        }

        fn observe_gate(
            &mut self,
            _ctx: &IterationContext,
            _layer: u32,
            _distribution: &[f64],
        ) -> Vec<PrefetchPlan> {
            Vec::new()
        }

        fn end_iteration(&mut self, _ctx: &IterationContext, _realized_map: &[Vec<f64>]) {}
    }

    #[test]
    fn back_to_back_batches_get_slots_in_input_order() {
        let mut e = tiny_engine(8, false);
        let mut recorder = SlotRecorder::default();
        let _ = e.serve_batch(&[prompt(24), prompt(25), prompt(26)], &mut recorder);
        let _ = e.serve_batch(&[prompt(27), prompt(28), prompt(29)], &mut recorder);
        assert_eq!(
            recorder.seen,
            [(24, 0), (25, 1), (26, 2), (27, 0), (28, 1), (29, 2)]
        );
    }

    #[test]
    fn cache_trace_counters_match_cache_stats() {
        let mut e = tiny_engine(4, false);
        let sink = record_trace(&mut e);
        let seeded = [ExpertId::new(0, 0), ExpertId::new(1, 1)];
        let _ = e.warm_seed(&seeded, 0, 0);
        let _ = e.serve_batch(&[prompt(30), prompt(31)], &mut NoPrefetch);
        let m = sink.metrics_snapshot();
        let s = e.cache_stats();
        assert_eq!(s.warmup_inserts, 2);
        assert_eq!(m.counter("cache.warmup_inserts"), s.warmup_inserts);
        assert_eq!(m.counter("cache.insertions"), s.insertions);
        assert_eq!(m.counter("cache.hits"), s.hits);
        assert_eq!(m.counter("cache.misses"), s.misses);
        assert_eq!(m.counter("cache.evictions"), s.evictions);
        assert_eq!(m.counter("cache.rejected_inserts"), s.rejected_inserts);
    }

    #[test]
    fn breakdown_accumulates() {
        let mut e = tiny_engine(8, false);
        let _ = e.serve_request(prompt(10), &mut NoPrefetch);
        let b = e.take_breakdown();
        assert!(b.iterations > 0);
        assert!(b.compute_ns > 0);
        assert!(b.context_collection_ns > 0);
        assert!(b.on_demand_wait_ns > 0, "cold cache must wait on loads");
        // take_breakdown resets.
        let b2 = e.take_breakdown();
        assert_eq!(b2.iterations, 0);
    }

    /// Installs a recording trace sink on `e` and returns a handle to it.
    fn record_trace(e: &mut ServingEngine) -> TraceSink {
        let sink = TraceSink::recording(1 << 16);
        e.set_trace_sink(sink.clone());
        sink
    }

    /// Values of every `marker` instant in `records`.
    fn marker_values(records: &[TraceRecord], marker: Marker) -> Vec<u64> {
        records
            .iter()
            .filter_map(|r| match r.event {
                TraceEvent::Instant {
                    marker: m, value, ..
                } if m == marker => Some(value),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn trace_records_a_consistent_execution_trace() {
        let mut e = tiny_engine(8, false);
        let sink = record_trace(&mut e);
        let _ = e.serve_request(prompt(12), &mut NoPrefetch);
        let records = sink.take_records();
        assert!(!records.is_empty());
        // Timestamps are monotone.
        for w in records.windows(2) {
            assert!(w[0].at_ns <= w[1].at_ns);
        }
        // Iteration begins and ends pair up; a cold cache shows
        // on-demand loads.
        let iteration = |r: &&TraceRecord, begin: bool| match r.event {
            TraceEvent::Begin { phase, .. } => begin && phase == Phase::Iteration,
            TraceEvent::End { phase, .. } => !begin && phase == Phase::Iteration,
            _ => false,
        };
        let begins = records.iter().filter(|r| iteration(r, true)).count();
        let ends = records.iter().filter(|r| iteration(r, false)).count();
        assert!(begins > 0);
        assert_eq!(begins, ends);
        assert!(!marker_values(&records, Marker::OnDemandLoad).is_empty());
        // Disabled again: nothing accrues.
        e.set_trace_sink(TraceSink::disabled());
        let _ = e.serve_request(prompt(13), &mut NoPrefetch);
        assert!(sink.take_records().is_empty());
    }

    #[test]
    fn idle_until_advances_clock() {
        let mut e = tiny_engine(8, false);
        e.idle_until(1_000_000);
        assert_eq!(e.now(), 1_000_000);
        // Idle into the past is a no-op.
        e.idle_until(10);
        assert_eq!(e.now(), 1_000_000);
    }

    #[test]
    fn ttft_reflects_prefill_and_decode_cost_accrues() {
        let mut e = tiny_engine(8, false);
        let m = e.serve_request(prompt(11), &mut NoPrefetch);
        if m.decode_iterations > 0 {
            assert!(m.decode_ns > 0);
            assert!(m.tpot_ns() > 0.0);
        }
    }

    #[test]
    fn inert_fault_schedule_changes_nothing() {
        let mut plain = tiny_engine(8, false);
        let mut faulted = tiny_engine(8, false);
        faulted.set_fault_schedule(FaultSchedule::none());
        let a = plain.serve_request(prompt(30), &mut NoPrefetch);
        let b = faulted.serve_request(prompt(30), &mut NoPrefetch);
        assert_eq!(a, b);
    }

    #[test]
    fn degraded_request_moves_half_payloads_and_is_flagged() {
        let mut e = tiny_engine(8, false);
        e.admit(prompt(31), true);
        let m = e.drain(&mut NoPrefetch)[0];
        assert!(m.served_degraded);
        assert!(
            m.degraded_loads > 0,
            "cold cache on-demand loads all run degraded"
        );
        // Degraded mode is scoped to the one request.
        let m2 = e.serve_request(prompt(32), &mut NoPrefetch);
        assert!(!m2.served_degraded);
        // A degraded request stalls less on the wire than a full-precision
        // cold start of the same prompt.
        let mut full = tiny_engine(8, false);
        let mf = full.serve_request(prompt(31), &mut NoPrefetch);
        assert!(m.total_ns < mf.total_ns);
    }

    #[test]
    fn degradation_is_per_request_inside_a_shared_batch() {
        let mut e = tiny_engine(8, false);
        e.admit(prompt(37), true);
        e.admit(prompt(38), false);
        let mut finished = Vec::new();
        while e.active_requests() > 0 {
            finished.extend(e.step(&mut NoPrefetch));
        }
        let by_id = |id: u64| finished.iter().find(|m| m.request_id == id).copied();
        let degraded = by_id(37).expect("degraded request finishes");
        let full = by_id(38).expect("full-precision request finishes");
        assert!(degraded.served_degraded);
        assert!(
            degraded.degraded_loads > 0,
            "cold-cache loads only the degraded request needs run degraded"
        );
        assert!(!full.served_degraded);
        assert_eq!(
            full.degraded_loads, 0,
            "experts a full-precision request activates load at full precision"
        );
    }

    #[test]
    fn deadline_fallback_bounds_stalls_under_link_faults() {
        // A link degraded to 2% of nominal bandwidth for the whole run.
        let schedule = FaultSchedule::builder(7)
            .degrade_link(None, 0, u64::MAX, 0.02)
            .build();

        let mut no_deadline = tiny_engine(8, false);
        no_deadline.set_fault_schedule(schedule.clone());
        let slow = no_deadline.serve_request(prompt(33), &mut NoPrefetch);
        assert_eq!(slow.degraded_loads, 0);

        let mut with_deadline = tiny_engine(8, false);
        with_deadline.set_fault_schedule(schedule);
        // Tighter than any transfer on the crippled link can manage.
        with_deadline.config.on_demand_deadline_ns = Some(1_000);
        let sink = record_trace(&mut with_deadline);
        let bounded = with_deadline.serve_request(prompt(33), &mut NoPrefetch);
        assert!(
            bounded.degraded_loads > 0,
            "the crippled link cannot meet the deadline at full precision"
        );
        assert!(bounded.total_ns < slow.total_ns);
        assert!(!marker_values(&sink.take_records(), Marker::OnDemandDegraded).is_empty());
    }

    #[test]
    fn memory_pressure_window_squeezes_and_releases_budget() {
        let schedule = FaultSchedule::builder(9)
            .memory_pressure(0, 10 * fmoe_memsim::clock::SECOND, 0.3)
            .build();
        let mut e = tiny_engine(8, false);
        e.set_fault_schedule(schedule);
        let sink = record_trace(&mut e);
        let m = e.serve_request(prompt(34), &mut NoPrefetch);
        assert!(m.total_ns > 0, "pressure degrades but never wedges");
        let squeezed = marker_values(&sink.take_records(), Marker::BudgetPressure);
        assert!(!squeezed.is_empty(), "pressure window must be recorded");
        for b in squeezed {
            assert!(b < e.cache_budget());
        }
    }

    /// Prefetches every expert of the next layer — enough background
    /// traffic for transient-failure tests.
    struct NextLayerPrefetch;

    impl crate::predictor::ExpertPredictor for NextLayerPrefetch {
        fn name(&self) -> String {
            "NextLayerPrefetch".into()
        }

        fn timing(&self) -> crate::predictor::PredictorTiming {
            crate::predictor::PredictorTiming::free()
        }

        fn begin_iteration(&mut self, _ctx: &IterationContext) -> Vec<PrefetchPlan> {
            Vec::new()
        }

        fn observe_gate(
            &mut self,
            _ctx: &IterationContext,
            layer: u32,
            distribution: &[f64],
        ) -> Vec<PrefetchPlan> {
            let next = layer + 1;
            if next >= 4 {
                return Vec::new(); // tiny_test_model has 4 layers
            }
            (0..distribution.len() as u32)
                .map(|slot| PrefetchPlan::fetch(ExpertId::new(next, slot), 0.9))
                .collect()
        }

        fn end_iteration(&mut self, _ctx: &IterationContext, _realized_map: &[Vec<f64>]) {}
    }

    #[test]
    fn failed_prefetches_never_wedge_the_engine() {
        // Every transfer attempt fails: all prefetches exhaust their
        // retries and die; serving falls back to on-demand loads, which
        // themselves retry — the run must still terminate.
        let schedule = FaultSchedule::builder(11)
            .transient_failure_rate(1.0)
            .build();
        let mut e = tiny_engine(8, false);
        e.set_fault_schedule(schedule.clone());
        // No retries: the first fault kills the job. (With retries, stale
        // pruning at the next layer usually cancels a job before it can
        // exhaust its attempts — prefetches only live for about a layer.)
        e.set_retry_policy(RetryPolicy {
            max_retries: 0,
            base_backoff_ns: 1_000,
            max_backoff_ns: 1_000,
        });
        let sink = record_trace(&mut e);
        let m = e.serve_request(prompt(35), &mut NextLayerPrefetch);
        assert!(m.total_ns > 0);
        let stats = e.transfer_stats();
        assert!(stats.failed_jobs > 0, "prefetches must die under rate 1.0");
        assert!(stats.faults_injected > 0);
        assert!(!marker_values(&sink.take_records(), Marker::PrefetchFailed).is_empty());

        // With the default policy the same storm shows up as retries and
        // backoff time instead of permanent failures.
        let mut patient = tiny_engine(8, false);
        patient.set_fault_schedule(schedule);
        let m2 = patient.serve_request(prompt(35), &mut NextLayerPrefetch);
        assert!(m2.total_ns > 0);
        let stats2 = patient.transfer_stats();
        assert!(stats2.retries > 0);
        assert!(stats2.backoff_ns > 0);
    }

    #[test]
    fn moderate_faults_only_slow_serving_down() {
        let horizon = 60 * fmoe_memsim::clock::SECOND;
        let mut clean = tiny_engine(8, false);
        let base = clean.serve_request(prompt(36), &mut NextLayerPrefetch);

        let mut faulty = tiny_engine(8, false);
        faulty.set_fault_schedule(FaultSchedule::synthetic(3, 0.5, horizon, 1));
        let hit = faulty.serve_request(prompt(36), &mut NextLayerPrefetch);
        assert!(hit.total_ns >= base.total_ns, "faults cannot speed you up");
        assert_eq!(
            base.expert_hits + base.expert_misses,
            hit.expert_hits + hit.expert_misses,
            "faults change timing, not the token/expert schedule"
        );
    }
}
