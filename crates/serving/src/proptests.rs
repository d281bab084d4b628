//! Property-based tests for the serving engine: metric and accounting
//! invariants under arbitrary workloads and configurations.

#![cfg(test)]

use crate::engine::{EngineConfig, ServingEngine};
use crate::predictor::NoPrefetch;
use fmoe_cache::LruPolicy;
use fmoe_memsim::Topology;
use fmoe_model::{presets, GateParams, GateSimulator, GpuSpec, RequestRouting};
use fmoe_workload::Prompt;
use proptest::prelude::*;

fn engine(slots: u64, gpus: u32, max_decode: u64) -> ServingEngine {
    let cfg = presets::tiny_test_model();
    let gate = GateSimulator::new(cfg.clone(), GateParams::for_model(&cfg));
    let mut topo = Topology::paper_testbed();
    topo.num_gpus = gpus;
    let config = EngineConfig {
        cache_budget_bytes: cfg.expert_bytes() * slots * u64::from(gpus),
        preload_all: false,
        max_decode_iterations: Some(max_decode),
        context_collection_ns: 1000,
        framework_overhead_per_layer_ns: 10_000,
        ..EngineConfig::paper_default()
    };
    ServingEngine::new(
        gate,
        GpuSpec::rtx_3090(),
        topo,
        Box::new(LruPolicy::new()),
        config,
    )
}

fn prompt() -> impl Strategy<Value = Prompt> {
    (0u64..1000, 0u64..32, any::<u64>(), 1u64..128, 1u64..24).prop_map(
        |(id, cluster, seed, prompt_tokens, output_tokens)| Prompt {
            id,
            routing: RequestRouting {
                cluster,
                request_seed: seed,
            },
            prompt_tokens,
            output_tokens,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Metric identities hold for any request on any configuration.
    #[test]
    fn metrics_are_internally_consistent(
        p in prompt(),
        slots in 1u64..8,
        gpus in 1u32..4,
        max_decode in 1u64..12,
    ) {
        let mut e = engine(slots, gpus, max_decode);
        let m = e.serve_request(p, &mut NoPrefetch);
        prop_assert_eq!(m.request_id, p.id);
        prop_assert!(m.ttft_ns > 0);
        prop_assert_eq!(m.total_ns, m.ttft_ns + m.decode_ns);
        prop_assert!(m.decode_iterations <= max_decode);
        prop_assert!(m.decode_iterations < p.iterations());
        // Every iteration accesses at least top_k experts per layer.
        let iterations = 1 + m.decode_iterations;
        let min_accesses = iterations * 4 * 2; // L=4, K=2
        let max_accesses = iterations * 4 * 4; // at most J per layer
        let accesses = m.expert_hits + m.expert_misses;
        prop_assert!(accesses >= min_accesses, "{} < {}", accesses, min_accesses);
        prop_assert!(accesses <= max_accesses, "{} > {}", accesses, max_accesses);
        prop_assert!((0.0..=1.0).contains(&m.hit_rate()));
    }

    /// Virtual time strictly advances across requests, and serving the
    /// same prompt twice on a fresh engine is bit-for-bit reproducible.
    #[test]
    fn engine_is_deterministic(
        p in prompt(),
        slots in 1u64..8,
    ) {
        let mut e1 = engine(slots, 2, 8);
        let mut e2 = engine(slots, 2, 8);
        let m1 = e1.serve_request(p, &mut NoPrefetch);
        let m2 = e2.serve_request(p, &mut NoPrefetch);
        prop_assert_eq!(m1, m2);
        prop_assert_eq!(e1.now(), e2.now());
        let before = e1.now();
        let _ = e1.serve_request(p, &mut NoPrefetch);
        prop_assert!(e1.now() > before);
    }

    /// Batched serving preserves per-request identity and the batch's
    /// lockstep timing invariants.
    #[test]
    fn batch_invariants(
        prompts in prop::collection::vec(prompt(), 1..4),
        slots in 2u64..8,
    ) {
        let mut e = engine(slots, 2, 6);
        let ms = e.serve_batch(&prompts, &mut NoPrefetch);
        prop_assert_eq!(ms.len(), prompts.len());
        for (m, p) in ms.iter().zip(&prompts) {
            prop_assert_eq!(m.request_id, p.id);
            prop_assert!(m.total_ns > 0);
        }
        // Lockstep: all elements share the prefill, so TTFT is equal.
        let ttft0 = ms[0].ttft_ns;
        prop_assert!(ms.iter().all(|m| m.ttft_ns == ttft0));
    }

    /// Cache accounting and request accounting agree on total accesses.
    #[test]
    fn cache_stats_match_request_stats(p in prompt()) {
        let mut e = engine(4, 2, 6);
        let m = e.serve_request(p, &mut NoPrefetch);
        let cs = e.cache_stats();
        prop_assert_eq!(cs.hits, m.expert_hits);
        prop_assert_eq!(cs.misses, m.expert_misses);
    }

    /// Continuous batching conserves requests and respects slot limits
    /// under arbitrary admit/step interleavings.
    #[test]
    fn continuous_batching_conserves_requests(
        prompts in prop::collection::vec(prompt(), 1..8),
        step_bursts in prop::collection::vec(1usize..4, 1..12),
    ) {
        let mut e = engine(6, 2, 4);
        let mut admitted = 0usize;
        let mut finished = 0usize;
        let mut pending = prompts.clone();
        // Ensure unique ids (the scheduler contract).
        for (i, p) in pending.iter_mut().enumerate() {
            p.id = i as u64;
        }
        let mut bursts = step_bursts.into_iter();
        while admitted < prompts.len() || e.active_requests() > 0 {
            // Admit up to 3 at a time.
            while admitted < prompts.len() && e.active_requests() < 3 {
                let _ = e.admit(pending[admitted], false);
                admitted += 1;
            }
            let steps = bursts.next().unwrap_or(1);
            for _ in 0..steps {
                finished += e.step(&mut NoPrefetch).len();
                prop_assert!(e.active_requests() <= 3);
            }
        }
        prop_assert_eq!(finished, prompts.len());
        prop_assert_eq!(e.active_requests(), 0);
    }

    /// The breakdown's critical-path components add up exactly to the
    /// total iteration time.
    #[test]
    fn breakdown_components_fit_iteration_total(p in prompt()) {
        let mut e = engine(4, 2, 6);
        let _ = e.serve_request(p, &mut NoPrefetch);
        let b = e.take_breakdown();
        prop_assert!(b.iterations > 0);
        let matching = if b.matching_synchronous { b.matching_ns } else { 0 };
        let sync = b.context_collection_ns
            + matching
            + b.compute_ns
            + b.on_demand_wait_ns
            + b.blocking_prefetch_ns
            + b.all2all_ns;
        prop_assert_eq!(sync, b.iteration_total_ns);
    }
}
