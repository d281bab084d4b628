//! SwapMoE-style critical-expert serving (Kong et al., 2023; related
//! work §7).
//!
//! SwapMoE maintains a slowly-adapting set of *critical experts* in GPU
//! memory sized to a tunable budget, refreshed as the workload shifts,
//! rather than predicting per-iteration activations. We model it as a
//! popularity-tracked working set: an exponential moving average of expert
//! activation counts picks the top set, which is (re)staged at request
//! boundaries; within a request it does not speculate at all.

use fmoe_model::{ExpertId, ModelConfig};
use fmoe_serving::{ExpertPredictor, IterationContext, PredictorTiming, PrefetchPlan};

/// The SwapMoE stand-in predictor.
#[derive(Debug, Clone)]
pub struct SwapMoePredictor {
    num_layers: u32,
    experts_per_layer: u32,
    top_k: u32,
    /// Experts kept in the critical set, per layer.
    critical_per_layer: usize,
    /// EMA decay applied at request boundaries.
    alpha: f64,
    /// Flattened `L·J` EMA of activation mass.
    ema: Vec<f64>,
    /// Requests observed (the set only re-stages between requests).
    requests_seen: u64,
}

impl SwapMoePredictor {
    /// Creates the baseline with a critical set sized like the other
    /// baselines' per-layer prefetch width (`K + 1`).
    #[must_use]
    pub fn new(model: &ModelConfig) -> Self {
        let lj = (model.num_layers * model.experts_per_layer) as usize;
        Self {
            num_layers: model.num_layers,
            experts_per_layer: model.experts_per_layer,
            top_k: model.top_k,
            critical_per_layer: model.top_k as usize + 1,
            alpha: 0.2,
            ema: vec![0.0; lj],
            requests_seen: 0,
        }
    }

    fn flat(&self, layer: u32, slot: usize) -> usize {
        (layer * self.experts_per_layer) as usize + slot
    }

    /// Current critical set: top experts per layer by EMA mass.
    fn critical_set(&self) -> Vec<PrefetchPlan> {
        let j = self.experts_per_layer as usize;
        let mut plans = Vec::new();
        for layer in 0..self.num_layers {
            let base = (layer * self.experts_per_layer) as usize;
            let row = &self.ema[base..base + j];
            let total: f64 = row.iter().sum();
            let mut ranked: Vec<(usize, f64)> = row
                .iter()
                .map(|&c| if total > 0.0 { c / total } else { 0.0 })
                .enumerate()
                .collect();
            ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            for &(slot, p) in ranked.iter().take(self.critical_per_layer) {
                if p > 0.0 {
                    plans.push(PrefetchPlan::fetch(ExpertId::new(layer, slot as u32), p));
                }
            }
        }
        plans
    }
}

impl ExpertPredictor for SwapMoePredictor {
    fn name(&self) -> String {
        "SwapMoE".into()
    }

    fn timing(&self) -> PredictorTiming {
        // The set refresh is infrequent and off the critical path.
        PredictorTiming {
            latency_ns: 150_000,
            synchronous: false,
            blocking_prefetch: false,
            update_ns: 100_000,
        }
    }

    fn begin_iteration(&mut self, ctx: &IterationContext) -> Vec<PrefetchPlan> {
        if ctx.iteration == 0 {
            self.requests_seen += 1;
            // Re-stage the critical set at the request boundary.
            return self.critical_set();
        }
        Vec::new()
    }

    fn observe_gate(
        &mut self,
        _ctx: &IterationContext,
        layer: u32,
        distribution: &[f64],
    ) -> Vec<PrefetchPlan> {
        // Track, never speculate: top-K of the realized distribution feeds
        // the EMA that the next request's critical set is drawn from.
        let mut ranked: Vec<(usize, f64)> = distribution.iter().copied().enumerate().collect();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        for &(slot, _) in ranked.iter().take(self.top_k as usize) {
            let idx = self.flat(layer, slot);
            self.ema[idx] = (1.0 - self.alpha) * self.ema[idx] + self.alpha;
        }
        Vec::new()
    }

    fn end_iteration(&mut self, _ctx: &IterationContext, _realized_map: &[Vec<f64>]) {}

    fn reset(&mut self) {
        self.ema.iter_mut().for_each(|e| *e = 0.0);
        self.requests_seen = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmoe_model::gate::TokenSpan;
    use fmoe_model::{presets, RequestRouting};

    fn ctx(iteration: u64) -> IterationContext {
        IterationContext {
            element: 0,
            request_id: 1,
            iteration,
            is_prefill: iteration == 0,
            span: TokenSpan::single(4),
            embedding: vec![1.0],
            routing: RequestRouting {
                cluster: 0,
                request_seed: 0,
            },
        }
    }

    #[test]
    fn stages_nothing_before_any_history() {
        let mut p = SwapMoePredictor::new(&presets::small_test_model());
        assert!(p.begin_iteration(&ctx(0)).is_empty());
    }

    #[test]
    fn critical_set_tracks_popular_experts() {
        let m = presets::small_test_model();
        let mut p = SwapMoePredictor::new(&m);
        // Layer 2's expert 5 dominates observed traffic.
        let mut dist = vec![0.01; 8];
        dist[5] = 0.93;
        for _ in 0..10 {
            let _ = p.observe_gate(&ctx(1), 2, &dist);
        }
        let plans = p.begin_iteration(&ctx(0));
        assert!(plans
            .iter()
            .any(|pl| pl.expert.layer == 2 && pl.expert.slot == 5));
        // All plans respect the per-layer width.
        for layer in 0..m.num_layers {
            let n = plans.iter().filter(|pl| pl.expert.layer == layer).count();
            assert!(n <= p.critical_per_layer);
        }
    }

    #[test]
    fn never_speculates_mid_request() {
        let mut p = SwapMoePredictor::new(&presets::small_test_model());
        assert!(p
            .observe_gate(&ctx(1), 0, &[0.9, 0.1, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
            .is_empty());
        assert!(p.begin_iteration(&ctx(3)).is_empty());
    }

    #[test]
    fn reset_clears_history() {
        let mut p = SwapMoePredictor::new(&presets::small_test_model());
        let mut dist = vec![0.01; 8];
        dist[1] = 0.93;
        let _ = p.observe_gate(&ctx(1), 0, &dist);
        p.reset();
        assert!(p.begin_iteration(&ctx(0)).is_empty());
    }
}
