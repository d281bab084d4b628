//! Mixtral-Offloading-style speculative prefetching (Eliseev & Mazur,
//! 2023).
//!
//! The system exploits the residual stream: the gate's inputs change
//! slowly between adjacent layers, so the *current* layer's distribution
//! is a usable speculation for the *next* layer. It prefetches the top
//! speculated experts for layer `l + 1` while layer `l` executes, and its
//! cache is LRU.
//!
//! Faithfulness notes (matching §6.1/§6.2 of the paper):
//!
//! * prefetch distance is fixed at 1 — which is why its hit rate is the
//!   best of the baselines (Fig. 9) but collapses when forced to larger
//!   distances (Fig. 12a's "Speculate" curve, our `with_distance`);
//! * speculation runs *synchronously*, so its latency lands on the
//!   critical path, making its TTFT/TPOT worse than the async systems
//!   despite the hit rate.

use fmoe_model::{ExpertId, ModelConfig};
use fmoe_serving::{ExpertPredictor, IterationContext, PredictorTiming, PrefetchPlan};

/// Speculative distance-`d` prefetcher with synchronous issuance.
#[derive(Debug, Clone)]
pub struct MixtralOffloadingPredictor {
    num_layers: u32,
    distance: u32,
    prefetch_per_layer: usize,
    latency_ns: u64,
}

impl MixtralOffloadingPredictor {
    /// Creates the baseline with its native distance of 1 and a prefetch
    /// width of `K + 1`.
    #[must_use]
    pub fn new(model: &ModelConfig) -> Self {
        Self {
            num_layers: model.num_layers,
            distance: 1,
            prefetch_per_layer: model.top_k as usize + 1,
            // Synchronous speculation + LRU bookkeeping per layer, on the
            // critical path (the Python-side cache management of the
            // original implementation).
            latency_ns: 2_500_000,
        }
    }

    /// Forces a non-native speculation distance (the Fig. 12a "Speculate"
    /// ablation sweeps this).
    #[must_use]
    pub fn with_distance(mut self, d: u32) -> Self {
        self.distance = d.max(1);
        self
    }

    /// The speculation distance in use.
    #[must_use]
    pub fn distance(&self) -> u32 {
        self.distance
    }
}

impl ExpertPredictor for MixtralOffloadingPredictor {
    fn name(&self) -> String {
        "Mixtral-Offloading".into()
    }

    fn timing(&self) -> PredictorTiming {
        PredictorTiming {
            latency_ns: self.latency_ns,
            synchronous: true,
            blocking_prefetch: true,
            update_ns: 0,
        }
    }

    fn begin_iteration(&mut self, _ctx: &IterationContext) -> Vec<PrefetchPlan> {
        // No history, no semantic signal: nothing to go on before the
        // first gate fires.
        Vec::new()
    }

    fn observe_gate(
        &mut self,
        ctx: &IterationContext,
        layer: u32,
        distribution: &[f64],
    ) -> Vec<PrefetchPlan> {
        // Speculation exploits the residual stream of a *single* decoded
        // token; during prefill (hundreds of tokens, near-uniform
        // aggregate) the next-layer guess carries no signal and the
        // original system does not speculate there.
        if ctx.is_prefill {
            return Vec::new();
        }
        let target = layer + self.distance;
        if target >= self.num_layers {
            return Vec::new();
        }
        let mut ranked: Vec<(usize, f64)> = distribution.iter().copied().enumerate().collect();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked
            .into_iter()
            .take(self.prefetch_per_layer)
            .map(|(slot, p)| PrefetchPlan::fetch(ExpertId::new(target, slot as u32), p))
            .collect()
    }

    fn end_iteration(&mut self, _ctx: &IterationContext, _realized_map: &[Vec<f64>]) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmoe_model::gate::TokenSpan;
    use fmoe_model::{presets, RequestRouting};

    fn ctx() -> IterationContext {
        IterationContext {
            element: 0,
            request_id: 0,
            iteration: 1,
            is_prefill: false,
            span: TokenSpan::single(5),
            embedding: vec![1.0],
            routing: RequestRouting {
                cluster: 0,
                request_seed: 0,
            },
        }
    }

    #[test]
    fn speculates_current_distribution_onto_next_layer() {
        let m = presets::small_test_model();
        let mut p = MixtralOffloadingPredictor::new(&m);
        let dist = [0.05, 0.6, 0.25, 0.04, 0.02, 0.02, 0.01, 0.01];
        let plans = p.observe_gate(&ctx(), 2, &dist);
        // top_k = 2 → width 3.
        assert_eq!(plans.len(), 3);
        assert!(plans.iter().all(|pl| pl.expert.layer == 3));
        assert_eq!(plans[0].expert.slot, 1);
        assert_eq!(plans[1].expert.slot, 2);
        assert_eq!(plans[2].expert.slot, 0);
    }

    #[test]
    fn no_speculation_past_last_layer() {
        let m = presets::small_test_model();
        let mut p = MixtralOffloadingPredictor::new(&m);
        let last = m.num_layers - 1;
        assert!(p.observe_gate(&ctx(), last, &[1.0; 8]).is_empty());
    }

    #[test]
    fn forced_distance_shifts_target() {
        let m = presets::small_test_model();
        let mut p = MixtralOffloadingPredictor::new(&m).with_distance(4);
        let plans = p.observe_gate(&ctx(), 1, &[0.5, 0.3, 0.1, 0.05, 0.03, 0.01, 0.005, 0.005]);
        assert!(plans.iter().all(|pl| pl.expert.layer == 5));
        assert_eq!(p.distance(), 4);
    }

    #[test]
    fn is_synchronous() {
        let m = presets::small_test_model();
        let p = MixtralOffloadingPredictor::new(&m);
        assert!(p.timing().synchronous);
        assert!(p.timing().latency_ns > 0);
    }

    #[test]
    fn begin_iteration_is_empty() {
        let m = presets::small_test_model();
        let mut p = MixtralOffloadingPredictor::new(&m);
        assert!(p.begin_iteration(&ctx()).is_empty());
    }
}
