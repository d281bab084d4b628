//! Property-based tests for the gate simulator and cost model.

#![cfg(test)]

use crate::compute::{CostModel, GpuSpec};
use crate::config::ModelConfig;
use crate::gate::{reference, GateParams, GateScratch, GateSimulator, RequestRouting, TokenSpan};
use crate::presets;
use proptest::prelude::*;

fn small_gate() -> GateSimulator {
    let cfg = presets::small_test_model();
    GateSimulator::new(cfg.clone(), GateParams::for_model(&cfg))
}

fn routing() -> impl Strategy<Value = RequestRouting> {
    (0u64..64, any::<u64>()).prop_map(|(cluster, request_seed)| RequestRouting {
        cluster,
        request_seed,
    })
}

/// The four evaluation presets, each with its default router.
fn preset_gates() -> Vec<GateSimulator> {
    [
        presets::mixtral_8x7b(),
        presets::qwen15_moe_a27b(),
        presets::phi35_moe(),
        presets::deepseek_moe_16b(),
    ]
    .into_iter()
    .map(GateSimulator::with_defaults)
    .collect()
}

/// Span lengths of every routing regime: an empty span (routed as one
/// token), a decode token, a prefill under the token cap, and a prefill
/// over it (subsampled).
fn span_count() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), Just(1u64), 2u64..=128, 129u64..600]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn fused_route_is_bit_identical_to_the_per_token_formula(
        preset in 0usize..4,
        req in routing(),
        iteration in 0u64..1000,
        start in 0u64..4096,
        count in span_count(),
    ) {
        let gates = preset_gates();
        let g = &gates[preset];
        let span = TokenSpan { start, count };
        // A scratch last used on a model of a different `J`.
        let mut scratch = GateScratch::default();
        gates[(preset + 1) % gates.len()].route_into(req, iteration, 0, span, &mut scratch);
        for layer in 0..g.config().num_layers {
            g.route_into(req, iteration, layer, span, &mut scratch);
            let want = reference::iteration_distribution(g, req, iteration, layer, span);
            prop_assert_eq!(scratch.dist.len(), want.len());
            for (got, want) in scratch.dist.iter().zip(&want) {
                prop_assert_eq!(got.to_bits(), want.to_bits());
            }
            prop_assert_eq!(
                &scratch.activated,
                &reference::activated_slots(g, req, iteration, layer, span)
            );
        }
        let layer = (iteration % u64::from(g.config().num_layers)) as u32;
        let dist = g.token_distribution(req, iteration, layer, start);
        let want = reference::token_distribution(g, req, iteration, layer, start);
        prop_assert!(dist.iter().zip(&want).all(|(a, b)| a.to_bits() == b.to_bits()));
        prop_assert_eq!(
            g.token_top_k(req, iteration, layer, start),
            reference::token_top_k(g, req, iteration, layer, start)
        );
    }
}

/// The models the router tests interleave: `J` of 8 (the small test
/// model and Mixtral-8x7B), 16 (Phi-3.5-MoE) and 60 (Qwen1.5-MoE), so a
/// reused scratch meets every change of width.
fn interleaved_gates() -> Vec<GateSimulator> {
    [
        presets::small_test_model(),
        presets::mixtral_8x7b(),
        presets::phi35_moe(),
        presets::qwen15_moe_a27b(),
    ]
    .into_iter()
    .map(GateSimulator::with_defaults)
    .collect()
}

/// One wrapper call: which model, which wrapper, which coordinates.
fn wrapper_call() -> impl Strategy<Value = (usize, u8, RequestRouting, u64, u32, u64, u64)> {
    (
        0usize..4,
        0u8..4,
        routing(),
        0u64..200,
        0u32..64,
        0u64..2048,
        span_count(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_wrapper_is_bit_identical_to_the_reference_when_calls_interleave(
        calls in proptest::collection::vec(wrapper_call(), 1..40),
    ) {
        let gates = interleaved_gates();
        // Consecutive calls change model, output and span kind.
        for (model, wrapper, req, iteration, layer, start, count) in calls {
            let g = &gates[model];
            let layer = layer % g.config().num_layers;
            let span = TokenSpan { start, count };
            match wrapper {
                0 => {
                    let got = g.iteration_distribution(req, iteration, layer, span);
                    let want = reference::iteration_distribution(g, req, iteration, layer, span);
                    prop_assert_eq!(bits(&got), bits(&want));
                }
                1 => prop_assert_eq!(
                    g.activated_slots(req, iteration, layer, span),
                    reference::activated_slots(g, req, iteration, layer, span)
                ),
                2 => {
                    let got = g.token_distribution(req, iteration, layer, start);
                    let want = reference::token_distribution(g, req, iteration, layer, start);
                    prop_assert_eq!(bits(&got), bits(&want));
                }
                _ => prop_assert_eq!(
                    g.token_top_k(req, iteration, layer, start),
                    reference::token_top_k(g, req, iteration, layer, start)
                ),
            }
        }
    }

    #[test]
    fn one_output_modes_fill_only_their_output_in_a_reused_scratch(
        calls in proptest::collection::vec(wrapper_call(), 1..12),
    ) {
        let gates = interleaved_gates();
        let (mut fused, mut scratch) = (GateScratch::default(), GateScratch::default());
        for (model, _, req, iteration, layer, start, count) in calls {
            let g = &gates[model];
            let layer = layer % g.config().num_layers;
            let span = TokenSpan { start, count };
            let dist = bits(&reference::iteration_distribution(g, req, iteration, layer, span));
            let activated = reference::activated_slots(g, req, iteration, layer, span);
            g.route_into(req, iteration, layer, span, &mut fused);
            prop_assert_eq!(bits(&fused.dist), dist.clone());
            prop_assert_eq!(&fused.activated, &activated);
            g.route_distribution_into(req, iteration, layer, span, &mut scratch);
            prop_assert_eq!(bits(&scratch.dist), dist);
            prop_assert!(scratch.activated.is_empty());
            g.route_activations_into(req, iteration, layer, span, &mut scratch);
            prop_assert_eq!(&scratch.activated, &activated);
            prop_assert!(scratch.dist.is_empty());
        }
    }

    #[test]
    fn composed_embeddings_are_bit_identical_to_the_four_term_sum(
        requests in proptest::collection::vec(routing(), 1..6),
        preset in 0usize..4,
    ) {
        let g = &interleaved_gates()[preset];
        // Phase rows computed once and shared by every request, as the
        // history fill's lanes share them.
        let phase_rows: Vec<Vec<f64>> = (0..=40u64)
            .map(|iteration| {
                let mut row = Vec::new();
                g.embedding_phase_row(iteration, &mut row);
                row
            })
            .collect();
        let (mut request_part, mut composed) = (Vec::new(), Vec::new());
        for req in requests {
            g.embedding_request_part(req, &mut request_part);
            for (iteration, phase_row) in (0..=40u64).zip(&phase_rows) {
                let want = bits(&reference::semantic_embedding(g, req, iteration));
                g.compose_embedding(req, iteration, &request_part, phase_row, &mut composed);
                prop_assert_eq!(bits(&composed), want.clone());
                prop_assert_eq!(bits(&g.semantic_embedding(req, iteration)), want);
            }
        }
    }
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #[test]
    fn distributions_are_always_normalized(
        req in routing(),
        iteration in 0u64..1000,
        layer in 0u32..8,
        token in 0u64..4096,
    ) {
        let g = small_gate();
        let d = g.token_distribution(req, iteration, layer, token);
        prop_assert_eq!(d.len(), 8);
        let sum: f64 = d.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
        prop_assert!(d.iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    #[test]
    fn iteration_distribution_is_normalized_for_any_span(
        req in routing(),
        iteration in 0u64..100,
        layer in 0u32..8,
        start in 0u64..1000,
        count in 1u64..600,
    ) {
        let g = small_gate();
        let d = g.iteration_distribution(req, iteration, layer, TokenSpan { start, count });
        let sum: f64 = d.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn activated_slots_are_sorted_unique_and_cover_top_k(
        req in routing(),
        iteration in 0u64..100,
        layer in 0u32..8,
        prompt_len in 1u64..400,
    ) {
        let g = small_gate();
        let slots = g.activated_slots(req, iteration, layer, TokenSpan::prefill(prompt_len));
        prop_assert!(slots.len() >= g.config().top_k as usize);
        prop_assert!(slots.len() <= g.config().experts_per_layer as usize);
        for w in slots.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
        prop_assert!(slots.iter().all(|&s| s < g.config().experts_per_layer));
    }

    #[test]
    fn router_is_a_pure_function(
        req in routing(),
        iteration in 0u64..100,
        layer in 0u32..8,
        token in 0u64..1024,
    ) {
        let g1 = small_gate();
        let g2 = small_gate();
        prop_assert_eq!(
            g1.token_distribution(req, iteration, layer, token),
            g2.token_distribution(req, iteration, layer, token)
        );
        prop_assert_eq!(
            g1.semantic_embedding(req, iteration),
            g2.semantic_embedding(req, iteration)
        );
    }

    #[test]
    fn embeddings_are_unit_norm(req in routing(), iteration in 0u64..500) {
        let g = small_gate();
        let e = g.semantic_embedding(req, iteration);
        let n: f64 = e.iter().map(|x| x * x).sum::<f64>().sqrt();
        prop_assert!((n - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cost_model_is_monotone_in_tokens(
        t1 in 1u64..2000,
        t2 in 1u64..2000,
        ctx in 1u64..4096,
    ) {
        let m = CostModel::new(presets::mixtral_8x7b(), GpuSpec::rtx_3090());
        let (lo, hi) = (t1.min(t2), t1.max(t2));
        prop_assert!(m.expert_time(lo) <= m.expert_time(hi));
        prop_assert!(m.attention_time(lo, ctx) <= m.attention_time(hi, ctx));
        prop_assert!(m.gate_time(lo) <= m.gate_time(hi));
        prop_assert!(m.embedding_time(lo) <= m.embedding_time(hi));
    }

    #[test]
    fn parameter_accounting_is_consistent(
        layers in 1u32..40,
        j in 2u32..32,
        k in 1u32..8,
        hidden_exp in 5u32..9,
        ffn_exp in 5u32..10,
    ) {
        let k = k.min(j);
        let cfg = ModelConfig {
            name: "prop".into(),
            num_layers: layers,
            experts_per_layer: j,
            top_k: k,
            shared_experts_per_layer: 0,
            hidden_dim: 1 << hidden_exp,
            expert_ffn_dim: 1 << ffn_exp,
            shared_expert_ffn_dim: 0,
            num_attention_heads: 4,
            num_kv_heads: 2,
            vocab_size: 1000,
        };
        prop_assert!(cfg.validate().is_ok());
        prop_assert!(cfg.active_params() <= cfg.total_params());
        prop_assert_eq!(cfg.total_experts(), u64::from(layers) * u64::from(j));
        prop_assert_eq!(
            cfg.total_expert_bytes(),
            cfg.total_experts() * cfg.expert_bytes()
        );
        prop_assert_eq!(cfg.all_experts().count() as u64, cfg.total_experts());
        // Dense params + expert params == total.
        prop_assert_eq!(
            cfg.dense_params() + cfg.total_experts() * cfg.params_per_expert(),
            cfg.total_params()
        );
    }
}
