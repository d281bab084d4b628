//! Serving-API surface suite.
//!
//! The unified [`fmoe_serving::serve`] entry point is the only way to
//! drive trace-driven serving (the four legacy `serve_trace*` wrappers
//! are gone), and `EngineBuilder` is the only sugared way to assemble an
//! engine. This suite pins that surface: the builder must assemble the
//! exact engine the setters do, a placement policy must install the
//! owner table a manual assignment would, and expert parallelism must
//! be inert unless explicitly enabled on a multi-GPU topology.

use fmoe::{FmoeConfig, FmoePredictor};
use fmoe_cache::FmoePriorityPolicy;
use fmoe_memsim::Topology;
use fmoe_model::{presets, GateParams, GateSimulator, GpuSpec};
use fmoe_serving::{
    serve, EngineConfig, ExpertParallelConfig, LayerContiguousPlacement, PlacementPolicy,
    RoundRobinPlacement, ServeOptions, ServingEngine,
};
use fmoe_trace::TraceSink;
use fmoe_workload::{AzureTraceSpec, DatasetSpec, TraceEvent};

fn engine_with(config: EngineConfig, topology: Topology) -> ServingEngine {
    let m = presets::small_test_model();
    let gate = GateSimulator::new(m.clone(), GateParams::for_model(&m));
    let mut e = ServingEngine::new(
        gate,
        GpuSpec::rtx_3090(),
        topology,
        Box::new(FmoePriorityPolicy::new()),
        config,
    );
    e.set_trace_sink(TraceSink::recording(1 << 16));
    e
}

fn base_config() -> EngineConfig {
    let m = presets::small_test_model();
    EngineConfig {
        cache_budget_bytes: m.expert_bytes() * 16,
        preload_all: false,
        max_decode_iterations: Some(4),
        context_collection_ns: 10_000,
        framework_overhead_per_layer_ns: 50_000,
        ..EngineConfig::paper_default()
    }
}

fn engine() -> ServingEngine {
    engine_with(base_config(), Topology::single_gpu(8 << 30))
}

fn predictor() -> FmoePredictor {
    let m = presets::small_test_model();
    FmoePredictor::new(m.clone(), FmoeConfig::for_model(&m))
}

fn trace(n: u64) -> Vec<TraceEvent> {
    let mut spec = AzureTraceSpec::paper_online_serving(DatasetSpec::tiny_test());
    spec.num_requests = n;
    spec.generate()
}

/// Everything observable about a serving run, rendered to bytes: the
/// per-request results and the canonical trace text. Equality here is
/// the API's behavioural contract.
fn drain(engine: &mut ServingEngine, results: String) -> String {
    format!(
        "results:\n{results}\ntrace:\n{}",
        fmoe_trace::events_text(&engine.trace_sink().take_records())
    )
}

fn fingerprint_of(mut engine: ServingEngine, events: &[TraceEvent]) -> String {
    let mut predictor = predictor();
    let report = serve(&mut engine, events, &mut predictor, &ServeOptions::fcfs())
        .expect("fcfs is infallible");
    let results = format!("{:?}", report.results);
    drain(&mut engine, results)
}

#[test]
fn builder_built_engine_matches_hand_assembled_engine() {
    let events = trace(8);
    let unified = fingerprint_of(engine(), &events);

    // Same configuration through EngineBuilder instead of the setters.
    let m = presets::small_test_model();
    let gate = GateSimulator::new(m.clone(), GateParams::for_model(&m));
    let built_engine =
        ServingEngine::builder(gate, GpuSpec::rtx_3090(), Topology::single_gpu(8 << 30))
            .policy(Box::new(FmoePriorityPolicy::new()))
            .config(base_config())
            .trace_sink(TraceSink::recording(1 << 16))
            .build();
    let built = fingerprint_of(built_engine, &events);
    assert_eq!(
        unified, built,
        "EngineBuilder must assemble the exact engine the setters do"
    );
}

/// Expert parallelism on a single-GPU topology is a no-op: the config
/// may be present, but with one GPU there is nothing to shard, so the
/// run must stay byte-identical to an EP-free engine.
#[test]
fn expert_parallel_is_inert_on_single_gpu_topologies() {
    let events = trace(8);
    let plain = fingerprint_of(engine(), &events);
    let ep = fingerprint_of(
        engine_with(
            EngineConfig {
                expert_parallel: Some(ExpertParallelConfig::default()),
                ..base_config()
            },
            Topology::single_gpu(8 << 30),
        ),
        &events,
    );
    assert_eq!(plain, ep, "EP config must be inert on one GPU");
}

/// `EngineBuilder::placement_policy` is sugar for computing the
/// assignment and installing it with `set_expert_assignment`. The
/// round-robin table reproduces the engine's default placement, and the
/// layer-contiguous one moves experts off it.
#[test]
fn builder_placement_policy_matches_manual_assignment() {
    let events = trace(8);
    let m = presets::small_test_model();
    let topo = Topology::builder()
        .num_gpus(4)
        .gpu_memory_bytes(8 << 30)
        .build()
        .expect("valid test topology");
    let config = EngineConfig {
        expert_parallel: Some(ExpertParallelConfig::default()),
        ..base_config()
    };
    let default_placement = fingerprint_of(engine_with(config.clone(), topo.clone()), &events);

    let policies: [&dyn PlacementPolicy; 2] = [&RoundRobinPlacement, &LayerContiguousPlacement];
    for policy in policies {
        let gate = GateSimulator::new(m.clone(), GateParams::for_model(&m));
        let via_builder = ServingEngine::builder(gate, GpuSpec::rtx_3090(), topo.clone())
            .policy(Box::new(FmoePriorityPolicy::new()))
            .config(config.clone())
            .placement_policy(policy)
            .trace_sink(TraceSink::recording(1 << 16))
            .build();
        let sugar = fingerprint_of(via_builder, &events);

        let mut by_hand = engine_with(config.clone(), topo.clone());
        by_hand.set_expert_assignment(policy.assign(&m, topo.num_gpus));
        let manual = fingerprint_of(by_hand, &events);

        assert_eq!(
            sugar,
            manual,
            "placement_policy({}) must install exactly the policy's assignment",
            policy.name()
        );
        assert_eq!(
            sugar == default_placement,
            policy.name() == "round-robin",
            "only round-robin reproduces the default placement ({})",
            policy.name()
        );
    }
}
