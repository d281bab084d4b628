//! Integration tests for the extension features layered on top of the
//! paper's design: tunable memory budgets (SwapMoE-style) and
//! mixed-precision expert staging (Hobbit-style).

use fmoe::{FmoeConfig, FmoePredictor};
use fmoe_cache::FmoePriorityPolicy;
use fmoe_memsim::Topology;
use fmoe_model::{presets, GateParams, GateSimulator, GpuSpec, HistoryRequest, ModelConfig};
use fmoe_serving::{EngineConfig, ServingEngine};
use fmoe_workload::{split, DatasetSpec, Prompt};

fn model() -> ModelConfig {
    presets::small_test_model()
}

fn engine(slots: u64, low_precision: Option<f64>) -> ServingEngine {
    let m = model();
    let gate = GateSimulator::new(m.clone(), GateParams::for_model(&m));
    let mut topo = Topology::paper_testbed();
    topo.num_gpus = 2;
    ServingEngine::new(
        gate,
        GpuSpec::rtx_3090(),
        topo,
        Box::new(FmoePriorityPolicy::new().with_neutral_probability(1.0 / 8.0)),
        EngineConfig {
            cache_budget_bytes: m.expert_bytes() * slots,
            preload_all: false,
            max_decode_iterations: Some(10),
            context_collection_ns: 10_000,
            framework_overhead_per_layer_ns: 50_000,
            low_precision_threshold: low_precision,
            ..EngineConfig::paper_default()
        },
    )
}

fn predictor() -> FmoePredictor {
    let m = model();
    let gate = GateSimulator::new(m.clone(), GateParams::for_model(&m));
    let mut p = FmoePredictor::new(m.clone(), FmoeConfig::for_model(&m));
    let (history, _) = workload();
    let hist: Vec<HistoryRequest> = history.iter().map(|pr| pr.history_request()).collect();
    p.populate_from_history(&gate, &hist, 5);
    p
}

fn workload() -> (Vec<Prompt>, Vec<Prompt>) {
    let prompts = DatasetSpec::tiny_test().prompts(50);
    split::paper_split(&prompts)
}

#[test]
fn budget_shrink_mid_serving_stays_consistent() {
    let mut eng = engine(48, None);
    let mut p = predictor();
    let (_, test) = workload();
    let m = model();

    let _ = eng.serve_request(test[0], &mut p);
    let full_budget = eng.cache_budget();
    assert_eq!(full_budget, m.expert_bytes() * 48);

    // Shrink to a quarter; evictions happen immediately.
    let evicted = eng.set_cache_budget(m.expert_bytes() * 12);
    assert!(evicted > 0, "shrinking a warm cache must evict");
    assert_eq!(eng.cache_budget(), m.expert_bytes() * 12);

    // Serving continues correctly under the tighter budget.
    let tight = eng.serve_request(test[1], &mut p);
    assert!(tight.expert_hits + tight.expert_misses > 0);

    // Growing back restores headroom; the next request performs at least
    // as well as the tight one on hit rate (same prompt replayed).
    let _ = eng.set_cache_budget(m.expert_bytes() * 48);
    let roomy = eng.serve_request(test[1], &mut p);
    assert!(roomy.hit_rate() >= tight.hit_rate() - 0.05);
}

#[test]
fn mixed_precision_produces_degraded_hits_only_when_enabled() {
    let (_, test) = workload();

    let mut lossless_engine = engine(16, None);
    let mut p1 = predictor();
    let mut lossless_degraded = 0;
    for t in test.iter().take(6) {
        lossless_degraded += lossless_engine.serve_request(*t, &mut p1).degraded_hits;
    }
    assert_eq!(lossless_degraded, 0, "lossless serving must never degrade");

    // An aggressive threshold quantizes most prefetches.
    let mut lossy_engine = engine(16, Some(0.9));
    let mut p2 = predictor();
    let mut lossy_degraded = 0;
    let mut hits = 0;
    for t in test.iter().take(6) {
        let m = lossy_engine.serve_request(*t, &mut p2);
        lossy_degraded += m.degraded_hits;
        hits += m.expert_hits;
    }
    assert!(
        lossy_degraded > 0,
        "aggressive quantization must produce degraded hits (hits={hits})"
    );
    assert!(lossy_degraded <= hits);
}

#[test]
fn mixed_precision_never_degrades_on_demand_loads() {
    // With a policy that never prefetches, every expert arrives through
    // the on-demand path, which is always full precision — no matter how
    // aggressive the quantization threshold is.
    let mut eng = engine(16, Some(0.9));
    let mut p = fmoe_serving::predictor::NoPrefetch;
    let (_, test) = workload();
    for t in test.iter().take(4) {
        let metrics = eng.serve_request(*t, &mut p);
        assert_eq!(metrics.degraded_hits, 0);
    }
}

#[test]
fn degraded_fraction_aggregates() {
    use fmoe_serving::{AggregateMetrics, RequestMetrics};
    let rm = |hits: u64, degraded: u64| RequestMetrics {
        request_id: 0,
        ttft_ns: 1,
        decode_ns: 1,
        decode_iterations: 1,
        total_ns: 2,
        expert_hits: hits,
        expert_misses: 10 - hits,
        degraded_hits: degraded,
        degraded_loads: 0,
        served_degraded: false,
    };
    let a = AggregateMetrics::from_requests(&[rm(8, 4), rm(6, 0)]);
    // 4 degraded of 20 accesses.
    assert!((a.degraded_fraction - 0.2).abs() < 1e-12);
}

#[test]
fn kv_aware_budget_squeezes_and_reclaims() {
    use fmoe_serving::predictor::NoPrefetch;
    let m = model();
    let gate = GateSimulator::new(m.clone(), GateParams::for_model(&m));
    let mut topo = Topology::paper_testbed();
    topo.num_gpus = 2;
    // Budget sized so a long context visibly eats into expert slots.
    let budget = m.expert_bytes() * 32;
    let mut eng = ServingEngine::new(
        gate,
        GpuSpec::rtx_3090(),
        topo,
        Box::new(FmoePriorityPolicy::new()),
        EngineConfig {
            cache_budget_bytes: budget,
            max_decode_iterations: Some(6),
            kv_aware_budget: true,
            ..EngineConfig::paper_default()
        },
    );
    // A very long prompt: its KV cache is worth several experts.
    let long = Prompt {
        id: 1,
        routing: fmoe_model::RequestRouting {
            cluster: 1,
            request_seed: 1,
        },
        prompt_tokens: (4 * m.expert_bytes() / m.kv_bytes_per_token()).max(1),
        output_tokens: 4,
    };
    let _ = eng.serve_request(long, &mut NoPrefetch);
    // During the long request the cache was squeezed; the engine's base
    // budget is unchanged and serving completed consistently.
    assert_eq!(eng.cache_budget(), budget);
    let short = Prompt {
        id: 2,
        routing: fmoe_model::RequestRouting {
            cluster: 1,
            request_seed: 2,
        },
        prompt_tokens: 8,
        output_tokens: 4,
    };
    let metrics = eng.serve_request(short, &mut NoPrefetch);
    assert!(metrics.expert_hits + metrics.expert_misses > 0);
}

#[test]
fn continuous_batching_with_fmoe_predictor() {
    use fmoe_serving::online::{serve, ServeOptions};
    use fmoe_workload::AzureTraceSpec;
    let m = model();
    let mut predictor = FmoePredictor::new(m.clone(), FmoeConfig::for_model(&m));
    let mut eng = engine(32, None);
    let mut spec = AzureTraceSpec::paper_online_serving(DatasetSpec::tiny_test());
    spec.num_requests = 10;
    let trace = spec.generate();
    let results = serve(
        &mut eng,
        &trace,
        &mut predictor,
        &ServeOptions::continuous(3),
    )
    .expect("continuous serving succeeds")
    .results;
    assert_eq!(results.len(), 10);
    // The store learned online despite slot reuse across requests.
    assert!(predictor.store_len() > 10);
    for r in &results {
        assert!(r.metrics.expert_hits + r.metrics.expert_misses > 0);
        assert!(r.finish_ns > r.arrival_ns);
    }
}

#[test]
fn store_persistence_round_trips_through_predictor() {
    let p1 = predictor();
    let dir = std::env::temp_dir().join("fmoe_ext_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("warm_store.fmoe");
    p1.save_store_to_path(&path).unwrap();

    let m = model();
    let mut p2 = FmoePredictor::new(m.clone(), FmoeConfig::for_model(&m));
    assert_eq!(p2.store_len(), 0);
    p2.load_store_from_path(&path).unwrap();
    assert_eq!(p2.store_len(), p1.store_len());

    // Mismatched model dimensions are rejected.
    let tiny = presets::tiny_test_model();
    let mut p3 = FmoePredictor::new(tiny.clone(), FmoeConfig::for_model(&tiny));
    assert!(p3.load_store_from_path(&path).is_err());
    std::fs::remove_file(&path).unwrap();
}
