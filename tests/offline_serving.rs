//! Cross-crate integration: the full offline pipeline — dataset → split →
//! history population → engine serving — for fMoE and the baselines, on a
//! scaled-down model so the suite stays fast.

use fmoe::{FmoeConfig, FmoePredictor};
use fmoe_baselines::{DeepSpeedPredictor, MixtralOffloadingPredictor, OraclePredictor};
use fmoe_cache::{FmoePriorityPolicy, LruPolicy};
use fmoe_memsim::Topology;
use fmoe_model::{presets, GateParams, GateSimulator, GpuSpec, HistoryRequest, ModelConfig};
use fmoe_serving::{
    AggregateMetrics, EngineConfig, ExpertPredictor, RequestMetrics, ServingEngine,
};
use fmoe_workload::{split, DatasetSpec, Prompt};

fn model() -> ModelConfig {
    presets::small_test_model()
}

fn gate() -> GateSimulator {
    GateSimulator::new(model(), GateParams::for_model(&model()))
}

fn engine(slots_total: u64, policy_fmoe: bool) -> ServingEngine {
    let m = model();
    let policy: Box<dyn fmoe_cache::EvictionPolicy> = if policy_fmoe {
        Box::new(FmoePriorityPolicy::new().with_neutral_probability(1.0 / 8.0))
    } else {
        Box::new(LruPolicy::new())
    };
    let mut topo = Topology::paper_testbed();
    topo.num_gpus = 2;
    ServingEngine::new(
        gate(),
        GpuSpec::rtx_3090(),
        topo,
        policy,
        EngineConfig {
            cache_budget_bytes: m.expert_bytes() * slots_total,
            preload_all: false,
            max_decode_iterations: Some(10),
            context_collection_ns: 10_000,
            framework_overhead_per_layer_ns: 50_000,
            ..EngineConfig::paper_default()
        },
    )
}

fn workload() -> (Vec<Prompt>, Vec<Prompt>) {
    let prompts = DatasetSpec::tiny_test().prompts(60);
    split::paper_split(&prompts)
}

fn run(
    predictor: &mut dyn ExpertPredictor,
    slots: u64,
    fmoe_policy: bool,
) -> (AggregateMetrics, Vec<RequestMetrics>) {
    let (history, test) = workload();
    let mut engine = engine(slots, fmoe_policy);
    // Warm up with a couple of history prompts.
    for p in history.iter().take(2) {
        let _ = engine.serve_request(*p, predictor);
    }
    let metrics: Vec<RequestMetrics> = test
        .iter()
        .take(10)
        .map(|p| engine.serve_request(*p, predictor))
        .collect();
    (AggregateMetrics::from_requests(&metrics), metrics)
}

fn fmoe_predictor() -> FmoePredictor {
    let m = model();
    let mut p = FmoePredictor::new(m.clone(), FmoeConfig::for_model(&m));
    let (history, _) = workload();
    let hist: Vec<HistoryRequest> = history.iter().map(|pr| pr.history_request()).collect();
    p.populate_from_history(&gate(), &hist, 5);
    p
}

#[test]
fn fmoe_beats_no_prefetch_under_pressure() {
    // Budget: half the experts (32 of 64).
    let (fmoe_agg, _) = run(&mut fmoe_predictor(), 32, true);
    let (base_agg, _) = run(&mut DeepSpeedPredictor::new(), 32, false);
    assert!(
        fmoe_agg.hit_rate > base_agg.hit_rate + 0.1,
        "fMoE hit {} vs DeepSpeed {}",
        fmoe_agg.hit_rate,
        base_agg.hit_rate
    );
    assert!(
        fmoe_agg.mean_tpot_ms < base_agg.mean_tpot_ms,
        "fMoE TPOT {} vs DeepSpeed {}",
        fmoe_agg.mean_tpot_ms,
        base_agg.mean_tpot_ms
    );
}

#[test]
fn oracle_bounds_fmoe() {
    let (fmoe_agg, _) = run(&mut fmoe_predictor(), 32, true);
    let mut oracle = OraclePredictor::new(gate(), 3);
    let (oracle_agg, _) = run(&mut oracle, 32, false);
    assert!(
        oracle_agg.hit_rate >= fmoe_agg.hit_rate - 0.02,
        "oracle {} should not lose to fMoE {}",
        oracle_agg.hit_rate,
        fmoe_agg.hit_rate
    );
    assert!(oracle_agg.mean_tpot_ms <= fmoe_agg.mean_tpot_ms * 1.05);
}

#[test]
fn speculation_blocking_trades_latency_for_hits() {
    let m = model();
    let mut spec = MixtralOffloadingPredictor::new(&m);
    let (spec_agg, _) = run(&mut spec, 16, false);
    let (base_agg, _) = run(&mut DeepSpeedPredictor::new(), 16, false);
    // The blocking speculative loader achieves a much higher hit rate
    // than the expert-agnostic streamer at the same tight budget.
    assert!(
        spec_agg.hit_rate > base_agg.hit_rate,
        "speculation hit {} vs streaming {}",
        spec_agg.hit_rate,
        base_agg.hit_rate
    );
}

#[test]
fn larger_cache_never_hurts_fmoe() {
    let (small, _) = run(&mut fmoe_predictor(), 16, true);
    let (large, _) = run(&mut fmoe_predictor(), 64, true);
    assert!(large.hit_rate >= small.hit_rate - 0.02);
    assert!(large.mean_tpot_ms <= small.mean_tpot_ms * 1.05);
}

#[test]
fn store_grows_during_serving_and_respects_capacity() {
    let mut p = fmoe_predictor();
    let before = p.store_len();
    let (_, metrics) = run(&mut p, 32, true);
    assert!(!metrics.is_empty());
    assert!(p.store_len() >= before.min(p.config().store_capacity));
    assert!(p.store_len() <= p.config().store_capacity);
}

#[test]
fn results_are_reproducible_end_to_end() {
    let (a, am) = run(&mut fmoe_predictor(), 32, true);
    let (b, bm) = run(&mut fmoe_predictor(), 32, true);
    assert_eq!(am, bm);
    assert!((a.mean_ttft_ms - b.mean_ttft_ms).abs() < 1e-12);
    assert!((a.hit_rate - b.hit_rate).abs() < 1e-12);
}
