//! MoE-Infinity-style request-level activation tracking (Xue et al.,
//! 2024).
//!
//! MoE-Infinity records an **Expert Activation Matrix** (EAM) per request:
//! the count of activations per `(layer, expert)` aggregated over *all*
//! iterations of the request. During serving it matches the in-progress
//! request's partial EAM against a collection of historical EAMs and
//! prefetches the matched matrix's hottest experts; for the initial layers
//! it falls back to global popularity. Prediction and prefetch are
//! synchronous (the paper notes forward computation cannot proceed before
//! they finish, §4.3).
//!
//! This is precisely the *coarse-grained* design the paper argues against:
//! aggregating over iterations erases the iteration-level structure
//! (Fig. 3), so the matched matrix's per-layer ranking carries little
//! signal for *this* iteration — the mechanism behind its low hit rate in
//! Fig. 9 and the "Hit count" ablation curve in Fig. 12a.

use fmoe_model::{ExpertId, GateSimulator, HistoryRequest, HistoryRouter, ModelConfig};
use fmoe_serving::{ExpertPredictor, IterationContext, PredictorTiming, PrefetchPlan};
use fmoe_stats::cosine_similarity;
use std::collections::BTreeMap;

/// The request-level EAM baseline.
#[derive(Debug)]
pub struct MoeInfinityPredictor {
    num_layers: u32,
    experts_per_layer: u32,
    top_k: u32,
    distance: u32,
    /// Upcoming layers prefetched per observation: MoE-Infinity's EAM
    /// match guides prefetching across the request's remaining layers,
    /// not a single target (Xue et al. §4).
    prefetch_window: u32,
    prefetch_per_layer: usize,
    collection_capacity: usize,
    latency_ns: u64,
    /// Historical request-level matrices, flattened `L·J`, count-valued.
    collection: Vec<Vec<f64>>,
    /// Global activation counts (the "most popular experts" fallback).
    popularity: Vec<f64>,
    /// In-progress request matrices per batch element.
    current: BTreeMap<usize, Vec<f64>>,
}

impl MoeInfinityPredictor {
    /// Creates the baseline with the paper-comparable defaults: distance
    /// 3, width `K + 1`, a 1000-matrix collection.
    #[must_use]
    pub fn new(model: &ModelConfig) -> Self {
        let lj = (model.num_layers * model.experts_per_layer) as usize;
        Self {
            num_layers: model.num_layers,
            experts_per_layer: model.experts_per_layer,
            top_k: model.top_k,
            distance: 3,
            prefetch_window: 4,
            prefetch_per_layer: model.top_k as usize + 1,
            collection_capacity: 1000,
            latency_ns: 500_000, // synchronous matrix matching per layer
            collection: Vec::new(),
            popularity: vec![0.0; lj],
            current: BTreeMap::new(),
        }
    }

    /// Overrides the prefetch distance (sensitivity experiments).
    #[must_use]
    pub fn with_distance(mut self, d: u32) -> Self {
        self.distance = d.max(1);
        self
    }

    /// Overrides the prefetch-window depth.
    #[must_use]
    pub fn with_window(mut self, window: u32) -> Self {
        self.prefetch_window = window.max(1);
        self
    }

    /// Number of matrices currently in the collection.
    #[must_use]
    pub fn collection_len(&self) -> usize {
        self.collection.len()
    }

    fn lj(&self) -> usize {
        (self.num_layers * self.experts_per_layer) as usize
    }

    fn flat_index(&self, layer: u32, slot: usize) -> usize {
        (layer * self.experts_per_layer) as usize + slot
    }

    /// Adds a finished request's matrix to the collection (FIFO capped).
    fn commit_matrix(&mut self, matrix: Vec<f64>) {
        if matrix.iter().all(|&c| c == 0.0) {
            return;
        }
        for (pop, &c) in self.popularity.iter_mut().zip(&matrix) {
            *pop += c;
        }
        if self.collection.len() == self.collection_capacity {
            self.collection.remove(0);
        }
        self.collection.push(matrix);
    }

    /// Records top-K activations of one distribution into a matrix.
    fn record(&self, matrix: &mut [f64], layer: u32, distribution: &[f64]) {
        let mut ranked: Vec<(usize, f64)> = distribution.iter().copied().enumerate().collect();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        for &(slot, _) in ranked.iter().take(self.top_k as usize) {
            matrix[self.flat_index(layer, slot)] += 1.0;
        }
    }

    /// Top experts of `matrix` restricted to `layer`.
    fn top_of_layer(&self, matrix: &[f64], layer: u32) -> Vec<(usize, f64)> {
        let j = self.experts_per_layer as usize;
        let base = (layer * self.experts_per_layer) as usize;
        let row = &matrix[base..base + j];
        let total: f64 = row.iter().sum();
        let mut ranked: Vec<(usize, f64)> = row
            .iter()
            .map(|&c| if total > 0.0 { c / total } else { 0.0 })
            .enumerate()
            .collect();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked.truncate(self.prefetch_per_layer);
        ranked
    }

    /// Pre-populates the EAM collection by replaying historical requests
    /// through the router — the paper prepares MoE-Infinity's matrix
    /// collection before evaluation "for a fair comparison" (§6.1). The
    /// requests are routed on every core ([`HistoryRouter`]) and
    /// aggregated here in history order.
    pub fn populate_from_history(
        &mut self,
        gate: &GateSimulator,
        history: &[HistoryRequest],
        max_iterations_per_request: u64,
    ) {
        let j = self.experts_per_layer as usize;
        HistoryRouter::new(gate, max_iterations_per_request).for_each(history, |routed| {
            let mut matrix = vec![0.0; self.lj()];
            for map in &routed.maps {
                for (layer, row) in (0..self.num_layers).zip(map.chunks_exact(j)) {
                    self.record(&mut matrix, layer, row);
                }
            }
            self.commit_matrix(matrix);
        });
    }
}

impl ExpertPredictor for MoeInfinityPredictor {
    fn name(&self) -> String {
        "MoE-Infinity".into()
    }

    fn timing(&self) -> PredictorTiming {
        PredictorTiming {
            latency_ns: self.latency_ns,
            synchronous: true,
            blocking_prefetch: false,
            update_ns: 200_000,
        }
    }

    fn begin_iteration(&mut self, ctx: &IterationContext) -> Vec<PrefetchPlan> {
        if ctx.iteration == 0 {
            // New request: commit the previous one on this slot.
            if let Some(prev) = self.current.remove(&ctx.element) {
                self.commit_matrix(prev);
            }
            self.current.insert(ctx.element, vec![0.0; self.lj()]);
        }
        // Initial layers: global popularity (the coarse-grained rule).
        let popularity = self.popularity.clone();
        let d = self.distance.min(self.num_layers);
        let mut plans = Vec::new();
        for layer in 0..d {
            for (slot, p) in self.top_of_layer(&popularity, layer) {
                if p > 0.0 {
                    plans.push(PrefetchPlan::fetch(ExpertId::new(layer, slot as u32), p));
                }
            }
        }
        plans
    }

    fn observe_gate(
        &mut self,
        ctx: &IterationContext,
        layer: u32,
        distribution: &[f64],
    ) -> Vec<PrefetchPlan> {
        // Aggregate into the request's partial matrix (request-level!).
        let lj = self.lj();
        let mut partial = self
            .current
            .remove(&ctx.element)
            .unwrap_or_else(|| vec![0.0; lj]);
        self.record(&mut partial, layer, distribution);
        self.current.insert(ctx.element, partial.clone());

        let target = layer + self.distance;
        if target >= self.num_layers || self.collection.is_empty() {
            return Vec::new();
        }
        // Request-level cosine match of the partial matrix.
        let mut best = (0usize, f64::NEG_INFINITY);
        for (i, m) in self.collection.iter().enumerate() {
            let s = cosine_similarity(&partial, m);
            if s > best.1 {
                best = (i, s);
            }
        }
        let matched = self.collection[best.0].clone();
        let end = (target + self.prefetch_window).min(self.num_layers);
        let mut plans = Vec::new();
        for t in target..end {
            plans.extend(
                self.top_of_layer(&matched, t)
                    .into_iter()
                    .filter(|&(_, p)| p > 0.0)
                    .map(|(slot, p)| PrefetchPlan::fetch(ExpertId::new(t, slot as u32), p)),
            );
        }
        plans
    }

    fn end_iteration(&mut self, _ctx: &IterationContext, _realized_map: &[Vec<f64>]) {}

    fn reset(&mut self) {
        self.collection.clear();
        self.current.clear();
        self.popularity = vec![0.0; self.lj()];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmoe_model::gate::{GateScratch, TokenSpan};
    use fmoe_model::{presets, GateParams, RequestRouting};

    fn gate() -> GateSimulator {
        let cfg = presets::small_test_model();
        GateSimulator::new(cfg.clone(), GateParams::for_model(&cfg))
    }

    fn history(cluster: u64, n: u64) -> Vec<HistoryRequest> {
        (0..n)
            .map(|i| HistoryRequest {
                routing: RequestRouting {
                    cluster,
                    request_seed: 500 + i,
                },
                prompt_tokens: 16,
                iterations: 6,
            })
            .collect()
    }

    fn ctx(iteration: u64) -> IterationContext {
        IterationContext {
            element: 0,
            request_id: 1,
            iteration,
            is_prefill: iteration == 0,
            span: TokenSpan::single(16 + iteration),
            embedding: vec![1.0],
            routing: RequestRouting {
                cluster: 1,
                request_seed: 9,
            },
        }
    }

    #[test]
    fn populate_builds_collection_and_popularity() {
        let g = gate();
        let mut p = MoeInfinityPredictor::new(g.config());
        p.populate_from_history(&g, &history(1, 5), 4);
        assert_eq!(p.collection_len(), 5);
        assert!(p.popularity.iter().sum::<f64>() > 0.0);
    }

    /// The fill as one sequential loop on the calling thread: route each
    /// iteration's layers into the request's matrix, then commit it.
    fn populate_sequentially(
        p: &mut MoeInfinityPredictor,
        gate: &GateSimulator,
        history: &[HistoryRequest],
        max_iterations_per_request: u64,
    ) {
        let mut scratch = GateScratch::default();
        for req in history {
            let mut matrix = vec![0.0; p.lj()];
            let iters = req.iterations.min(max_iterations_per_request).max(1);
            for iter in 0..iters {
                let span = if iter == 0 {
                    TokenSpan::prefill(req.prompt_tokens)
                } else {
                    TokenSpan::single(req.prompt_tokens + iter - 1)
                };
                for layer in 0..p.num_layers {
                    gate.route_into(req.routing, iter, layer, span, &mut scratch);
                    p.record(&mut matrix, layer, &scratch.dist);
                }
            }
            p.commit_matrix(matrix);
        }
    }

    #[test]
    fn populated_collection_equals_the_sequential_fill() {
        let g = gate();
        let cap = u64::from(g.params().prefill_token_cap);
        // Prompts below and past the prefill cap, iterations of 0 and
        // above the per-request cap, and more requests than the
        // collection holds, so its FIFO cap runs.
        let history: Vec<HistoryRequest> = (0..30u64)
            .map(|i| HistoryRequest {
                routing: RequestRouting {
                    cluster: i % 4,
                    request_seed: 700 + i,
                },
                prompt_tokens: [2, 33, cap + 5][(i % 3) as usize],
                iterations: [0, 3, 9][(i % 3) as usize],
            })
            .collect();
        let mut parallel = MoeInfinityPredictor::new(g.config());
        let mut oracle = MoeInfinityPredictor::new(g.config());
        parallel.collection_capacity = 12;
        oracle.collection_capacity = 12;
        parallel.populate_from_history(&g, &history, 5);
        populate_sequentially(&mut oracle, &g, &history, 5);
        assert_eq!(parallel.collection_len(), 12);
        let bits = |rows: &[Vec<f64>]| -> Vec<Vec<u64>> {
            rows.iter()
                .map(|r| r.iter().map(|x| x.to_bits()).collect())
                .collect()
        };
        assert_eq!(bits(&parallel.collection), bits(&oracle.collection));
        assert_eq!(
            bits(std::slice::from_ref(&parallel.popularity)),
            bits(std::slice::from_ref(&oracle.popularity))
        );
    }

    #[test]
    fn initial_layers_use_popularity() {
        let g = gate();
        let mut p = MoeInfinityPredictor::new(g.config());
        // Empty history: nothing to prefetch.
        assert!(p.begin_iteration(&ctx(0)).is_empty());
        p.populate_from_history(&g, &history(1, 5), 4);
        let plans = p.begin_iteration(&ctx(0));
        assert!(!plans.is_empty());
        assert!(plans.iter().all(|pl| pl.expert.layer < 3));
    }

    #[test]
    fn matching_targets_layer_plus_d() {
        let g = gate();
        let mut p = MoeInfinityPredictor::new(g.config());
        p.populate_from_history(&g, &history(1, 5), 4);
        let c = ctx(1);
        let _ = p.begin_iteration(&c);
        let dist = g.iteration_distribution(c.routing, 1, 0, c.span);
        let plans = p.observe_gate(&c, 0, &dist);
        assert!(!plans.is_empty());
        // Window of layers starting at l + d.
        assert!(plans.iter().all(|pl| (3..7).contains(&pl.expert.layer)));
        assert!(plans.iter().any(|pl| pl.expert.layer == 3));
    }

    #[test]
    fn request_matrix_commits_on_next_request() {
        let g = gate();
        let mut p = MoeInfinityPredictor::new(g.config());
        let c = ctx(0);
        let _ = p.begin_iteration(&c);
        let dist = g.iteration_distribution(c.routing, 0, 0, c.span);
        let _ = p.observe_gate(&c, 0, &dist);
        assert_eq!(p.collection_len(), 0);
        // Next request on the same element commits the matrix.
        let _ = p.begin_iteration(&ctx(0));
        assert_eq!(p.collection_len(), 1);
    }

    #[test]
    fn collection_is_capacity_bounded() {
        let g = gate();
        let mut p = MoeInfinityPredictor::new(g.config());
        p.collection_capacity = 3;
        p.populate_from_history(&g, &history(2, 10), 2);
        assert_eq!(p.collection_len(), 3);
    }

    #[test]
    fn reset_clears_state() {
        let g = gate();
        let mut p = MoeInfinityPredictor::new(g.config());
        p.populate_from_history(&g, &history(1, 3), 2);
        p.reset();
        assert_eq!(p.collection_len(), 0);
        assert_eq!(p.popularity.iter().sum::<f64>(), 0.0);
    }

    #[test]
    fn is_synchronous() {
        let p = MoeInfinityPredictor::new(gate().config());
        assert!(p.timing().synchronous);
    }
}
