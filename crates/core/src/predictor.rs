//! [`FmoePredictor`]: the full fMoE policy behind the `fmoe-serving`
//! predictor interface.
//!
//! Per iteration (paper §3.2 workflow):
//!
//! * `begin_iteration` — **semantic search** over the Expert Map Store
//!   selects the best historical iteration by embedding similarity; its
//!   map's layers `1…d` drive prefetch plans for the window the
//!   trajectory cannot reach yet.
//! * `observe_gate(l)` — the realized distribution extends the
//!   **incremental trajectory search**; the best match's layer `l + d`
//!   drives that target layer's plans.
//! * Both paths size their selections with the **similarity-aware
//!   threshold** `δ = clip(1 − score)` and order plans by
//!   `PRI = p / (l − l_now)`.
//! * `end_iteration` — the realized map and embedding are inserted into
//!   the store (redundancy-deduplicated at capacity).
//!
//! Every ingredient can be ablated through [`FmoeConfig`], reproducing
//! the paper's Fig. 12a variants.

use crate::config::FmoeConfig;
use crate::map::ExpertMap;
use crate::matcher::{MatchResult, Matcher, SemanticScan, TrajectoryTracker};
use crate::selection::{prefetch_priority, rank_into, threshold_len, SelectedExpert};
use crate::store::ExpertMapStore;
use fmoe_model::{ExpertId, GateParams, GateSimulator, HistoryRequest, HistoryRouter, ModelConfig};
use fmoe_serving::{ExpertPredictor, IterationContext, PredictorTiming, PrefetchPlan};
use std::ops::Range;

#[derive(Debug, Default)]
struct ElementState {
    semantic: SemanticScan,
    tracker: TrajectoryTracker,
}

/// Element `element`'s state, created default-initialized on first use.
/// Batch element slots are small dense integers (`0..batch width`), so
/// the table is a flat `Vec` indexed by slot: grown on first sight of a
/// wider batch, allocation-free at steady state.
fn state_mut(elements: &mut Vec<ElementState>, element: usize) -> &mut ElementState {
    if element >= elements.len() {
        elements.resize_with(element + 1, ElementState::default);
    }
    &mut elements[element]
}

/// Reused buffers of [`FmoePredictor::plans`]: at steady state a call
/// allocates only the `Vec` it returns.
#[derive(Debug, Default)]
struct PlanScratch {
    /// The searched row being planned, ranked as `select_experts` ranks
    /// it.
    ranked: Vec<SelectedExpert>,
    /// `(PRI, plan)` for every selected expert, in target-layer order.
    scored: Vec<(f64, PrefetchPlan)>,
    /// Eviction advisories for the slots left unselected.
    advisories: Vec<PrefetchPlan>,
}

/// How many experts of a ranked searched row the configured rule
/// selects: `select_experts`'s similarity-aware count — prefill
/// iterations floor the threshold mass (see
/// [`FmoeConfig::prefill_coverage_floor`]) — or `select_top_n`'s fixed
/// one.
fn selected_len(
    config: &FmoeConfig,
    ranked: &[SelectedExpert],
    score: f64,
    is_prefill: bool,
) -> usize {
    if config.use_dynamic_threshold {
        let effective_score = if is_prefill {
            score.min(1.0 - config.prefill_coverage_floor)
        } else {
            score
        };
        threshold_len(
            ranked,
            effective_score,
            config.min_prefetch_per_layer,
            config.max_prefetch_per_layer,
        )
    } else {
        config.fixed_prefetch_count.min(ranked.len())
    }
}

/// The fMoE offloading policy.
#[derive(Debug)]
pub struct FmoePredictor {
    model: ModelConfig,
    config: FmoeConfig,
    store: ExpertMapStore,
    /// Per-batch-slot state (see [`state_mut`]).
    elements: Vec<ElementState>,
    plan_scratch: PlanScratch,
}

impl FmoePredictor {
    /// Creates the policy with an empty Expert Map Store.
    #[must_use]
    pub fn new(model: ModelConfig, config: FmoeConfig) -> Self {
        let store = ExpertMapStore::new(
            config.store_capacity,
            model.num_layers as usize,
            model.experts_per_layer as usize,
            config.prefetch_distance,
        )
        .with_replacement(config.store_replacement);
        Self {
            model,
            config,
            store,
            elements: Vec::new(),
            plan_scratch: PlanScratch::default(),
        }
    }

    /// Number of maps currently stored.
    #[must_use]
    pub fn store_len(&self) -> usize {
        self.store.len()
    }

    /// Read access to the store (analysis/benches).
    #[must_use]
    pub fn store(&self) -> &ExpertMapStore {
        &self.store
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &FmoeConfig {
        &self.config
    }

    /// Saves the Expert Map Store to a file, so a later serving session
    /// can start warm (see [`crate::persist`]).
    ///
    /// # Errors
    ///
    /// Propagates file I/O errors.
    pub fn save_store_to_path(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        self.store.save_to_path(path)
    }

    /// Replaces the predictor's store with one loaded from a file.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; `InvalidData`, keeping the current store,
    /// when the file's maps or embeddings do not match this predictor's
    /// model.
    pub fn load_store_from_path(
        &mut self,
        path: impl AsRef<std::path::Path>,
    ) -> std::io::Result<()> {
        self.adopt(ExpertMapStore::load_from_path(path)?)
    }

    /// Replaces the store with `store` when it holds this model's `L × J`
    /// maps and embeddings of its width (or none yet); else
    /// `InvalidData`, and nothing changes. The width is the simulated
    /// router's, `GateParams::for_model`'s `embedding_dim`.
    fn adopt(&mut self, store: ExpertMapStore) -> std::io::Result<()> {
        let width = GateParams::for_model(&self.model).embedding_dim as usize;
        let fits = store.num_layers() == self.model.num_layers as usize
            && store.experts_per_layer() == self.model.experts_per_layer as usize
            && store.embedding_dim().is_none_or(|d| d == width);
        if !fits {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "stored maps or embeddings do not match this predictor's dimensions",
            ));
        }
        self.store = store;
        self.elements.clear();
        Ok(())
    }

    /// Pre-populates the store by replaying historical requests through
    /// the router — the paper's offline setup, where 70% of each dataset's
    /// context data is stored before evaluation (§6.1). The requests are
    /// routed on every core ([`HistoryRouter`]) and inserted here in
    /// history order, so the store is the one a sequential fill builds.
    /// An iteration whose embedding the store refuses is not recorded.
    pub fn populate_from_history(
        &mut self,
        gate: &GateSimulator,
        history: &[HistoryRequest],
        max_iterations_per_request: u64,
    ) {
        let j = self.model.experts_per_layer as usize;
        let store = &mut self.store;
        HistoryRouter::new(gate, max_iterations_per_request)
            .with_embeddings()
            .for_each(history, |routed| {
                for (map, embedding) in routed.maps.into_iter().zip(routed.embeddings) {
                    let _ = store.insert(embedding, ExpertMap::from_flat(map, j));
                }
            });
    }

    /// Prefetch plans from match `m`'s stored map for the target
    /// `layers`, priority-ordered against `current_layer` (`-1` before
    /// layer 0), followed — when `advise` — by eviction advisories for
    /// every unselected slot.
    ///
    /// Per layer it selects what `select_experts` / `select_top_n` would
    /// and builds `PRI = p / (l − l_now)` plans, then stable-sorts them
    /// by priority when ordering is on. The buffers are reused across
    /// calls.
    pub(crate) fn plans(
        &mut self,
        m: MatchResult,
        is_prefill: bool,
        layers: Range<u32>,
        current_layer: i64,
        advise: bool,
    ) -> Vec<PrefetchPlan> {
        let PlanScratch {
            ranked,
            scored,
            advisories,
        } = &mut self.plan_scratch;
        scored.clear();
        advisories.clear();
        let entry = self.store.entry(m.entry_index);
        let neutral = 1.0 / f64::from(self.model.experts_per_layer);
        let confidence = m.score.clamp(0.0, 1.0);
        for t in layers {
            let searched = entry.layer(t as usize);
            rank_into(searched, ranked);
            let selected = &ranked[..selected_len(&self.config, ranked, m.score, is_prefill)];
            for &(slot, p) in selected {
                let plan = PrefetchPlan::fetch(ExpertId::new(t, slot as u32), p);
                scored.push((prefetch_priority(p, t, current_layer), plan));
            }
            if !advise {
                continue;
            }
            // §4.5: the searched map's probabilities also drive eviction
            // priority for *cached* experts — advise the non-selected
            // slots so unlikely residents become eviction candidates.
            // The forecast is confidence-weighted: a dubious match must
            // not confidently punish residents, so the advised value is
            // pulled toward the neutral prior as the score drops.
            for (slot, &p) in searched.iter().enumerate() {
                if !selected.iter().any(|&(s, _)| s == slot) {
                    let advised = confidence * p + (1.0 - confidence) * neutral;
                    advisories.push(PrefetchPlan::advise(ExpertId::new(t, slot as u32), advised));
                }
            }
        }
        if self.config.use_priority_ordering {
            scored.sort_by(|a, b| b.0.total_cmp(&a.0));
        }
        let mut plans = Vec::with_capacity(scored.len() + advisories.len());
        plans.extend(scored.iter().map(|&(_, plan)| plan));
        plans.extend_from_slice(advisories);
        plans
    }
}

impl ExpertPredictor for FmoePredictor {
    fn name(&self) -> String {
        if self.config.use_semantic_search && self.config.use_dynamic_threshold {
            "fMoE".into()
        } else if self.config.use_semantic_search {
            "fMoE (T+S)".into()
        } else {
            "fMoE (T)".into()
        }
    }

    fn timing(&self) -> PredictorTiming {
        PredictorTiming {
            latency_ns: self.config.matching_latency_ns,
            synchronous: self.config.synchronous_matcher,
            blocking_prefetch: false,
            update_ns: self.config.update_latency_ns,
        }
    }

    fn begin_iteration(&mut self, ctx: &IterationContext) -> Vec<PrefetchPlan> {
        let state = state_mut(&mut self.elements, ctx.element);
        state.tracker.reset(&self.store);

        if !self.config.use_semantic_search {
            return Vec::new();
        }
        // An embedding the store refuses plans nothing.
        let Ok(Some(m)) = state.semantic.search(&self.store, &ctx.embedding) else {
            return Vec::new();
        };
        let d = self.config.prefetch_distance.min(self.model.num_layers);
        self.plans(m, ctx.is_prefill, 0..d, -1, false)
    }

    fn observe_gate(
        &mut self,
        ctx: &IterationContext,
        layer: u32,
        distribution: &[f64],
    ) -> Vec<PrefetchPlan> {
        let state = state_mut(&mut self.elements, ctx.element);
        state.tracker.observe_layer(&self.store, distribution);

        let target = layer + self.config.prefetch_distance;
        if target >= self.model.num_layers || self.store.is_empty() {
            return Vec::new();
        }
        let Some(m) = state.tracker.best(&self.store) else {
            return Vec::new();
        };
        let window_end = (target + self.config.prefetch_window).min(self.model.num_layers);
        self.plans(
            m,
            ctx.is_prefill,
            target..window_end,
            i64::from(layer),
            true,
        )
    }

    fn end_iteration(&mut self, ctx: &IterationContext, realized_map: &[Vec<f64>]) {
        if realized_map.len() != self.model.num_layers as usize {
            return;
        }
        let map = ExpertMap::from_rows(realized_map);
        // The element's tracker observed this map layer by layer and its
        // semantic scan searched this embedding; their dots, caught up
        // with this iteration's earlier inserts, score the deduplication.
        let (traj_dots, sem_dots): (&[f64], &[f64]) = if self.store.dedups_next_insert() {
            let state = state_mut(&mut self.elements, ctx.element);
            (
                state.tracker.catch_up(&self.store, map.flat()),
                state.semantic.catch_up(&self.store, &ctx.embedding),
            )
        } else {
            (&[], &[])
        };
        // A map or embedding of another shape is refused and not recorded.
        let _ = self
            .store
            .insert_scored(&ctx.embedding, &map, traj_dots, sem_dots);
    }

    fn reset(&mut self) {
        self.store.clear();
        self.elements.clear();
    }

    fn semantic_affinity(&self, embedding: &[f64]) -> Option<f64> {
        // Mean cosine score of the store's best AFFINITY_TOP_K matches —
        // through the same slab kernel as the semantic search, so the
        // signal costs one slab scan. A single best match would be noisy
        // (one lucky map dominates); averaging a few asks "has this
        // replica seen a *population* of similar prompts".
        const AFFINITY_TOP_K: usize = 4;
        let matches = Matcher::semantic_top_k(&self.store, embedding, AFFINITY_TOP_K).ok()?;
        if matches.is_empty() {
            return None;
        }
        let sum: f64 = matches.iter().map(|m| m.score).sum();
        Some(sum / matches.len() as f64)
    }

    fn warm_state(&self) -> Option<Vec<u8>> {
        // The wire encoding used for on-disk persistence doubles as the
        // donor-warmed restart payload; its byte length is the transfer
        // cost a recovering replica pays to copy this store.
        if self.store.is_empty() {
            return None;
        }
        let mut buf = Vec::new();
        self.store.save_to(&mut buf).ok()?;
        Some(buf)
    }

    fn restore_warm_state(&mut self, snapshot: &[u8]) -> bool {
        let mut r = snapshot;
        ExpertMapStore::load_from(&mut r)
            .and_then(|store| self.adopt(store))
            .is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::ReplacementPolicy;
    use fmoe_model::gate::{GateScratch, TokenSpan};
    use fmoe_model::{presets, RequestRouting};

    fn gate() -> GateSimulator {
        let cfg = presets::small_test_model();
        GateSimulator::new(cfg.clone(), GateParams::for_model(&cfg))
    }

    fn predictor() -> FmoePredictor {
        let cfg = presets::small_test_model();
        FmoePredictor::new(cfg.clone(), FmoeConfig::for_model(&cfg))
    }

    fn history(cluster: u64, n: u64) -> Vec<HistoryRequest> {
        (0..n)
            .map(|i| HistoryRequest {
                routing: RequestRouting {
                    cluster,
                    request_seed: 1000 + i,
                },
                prompt_tokens: 16,
                iterations: 6,
            })
            .collect()
    }

    fn ctx_for(g: &GateSimulator, routing: RequestRouting, iteration: u64) -> IterationContext {
        IterationContext {
            element: 0,
            request_id: 7,
            iteration,
            is_prefill: iteration == 0,
            span: TokenSpan::single(16 + iteration),
            embedding: g.semantic_embedding(routing, iteration),
            routing,
        }
    }

    #[test]
    fn empty_store_produces_no_plans() {
        let g = gate();
        let mut p = predictor();
        let routing = RequestRouting {
            cluster: 1,
            request_seed: 7,
        };
        let ctx = ctx_for(&g, routing, 0);
        assert!(p.begin_iteration(&ctx).is_empty());
        let dist = g.iteration_distribution(routing, 0, 0, ctx.span);
        assert!(p.observe_gate(&ctx, 0, &dist).is_empty());
    }

    #[test]
    fn populate_fills_store_and_respects_capacity() {
        let g = gate();
        let mut p = predictor();
        p.populate_from_history(&g, &history(1, 10), 4);
        assert_eq!(p.store_len(), 40);
        let cap = p.config().store_capacity;
        p.populate_from_history(&g, &history(2, 2000), 1);
        assert!(p.store_len() <= cap);
    }

    /// The fill as one sequential loop on the calling thread: route each
    /// iteration's layers, then insert its map and embedding.
    fn populate_sequentially(
        p: &mut FmoePredictor,
        gate: &GateSimulator,
        history: &[HistoryRequest],
        max_iterations_per_request: u64,
    ) {
        let layers = p.model.num_layers;
        let j = p.model.experts_per_layer as usize;
        let mut scratch = GateScratch::default();
        for req in history {
            let iters = req.iterations.min(max_iterations_per_request).max(1);
            for iter in 0..iters {
                let span = if iter == 0 {
                    TokenSpan::prefill(req.prompt_tokens)
                } else {
                    TokenSpan::single(req.prompt_tokens + iter - 1)
                };
                let mut flat = Vec::with_capacity(layers as usize * j);
                for l in 0..layers {
                    gate.route_into(req.routing, iter, l, span, &mut scratch);
                    flat.extend_from_slice(&scratch.dist);
                }
                let embedding = gate.semantic_embedding(req.routing, iter);
                let _ = p.store.insert(embedding, ExpertMap::from_flat(flat, j));
            }
        }
    }

    fn store_bytes(p: &FmoePredictor) -> Vec<u8> {
        let mut bytes = Vec::new();
        p.store().save_to(&mut bytes).unwrap();
        bytes
    }

    #[test]
    fn populated_store_is_byte_identical_to_the_sequential_fill() {
        let g = gate();
        let cfg = presets::small_test_model();
        let cap = u64::from(g.params().prefill_token_cap);
        // Prompts below and past the prefill cap, iterations of 0 and
        // above the per-request cap, and enough of them to overflow the
        // store, so every replacement rule and its RNG run.
        let history: Vec<HistoryRequest> = (0..40u64)
            .map(|i| HistoryRequest {
                routing: RequestRouting {
                    cluster: i % 7,
                    request_seed: 500 + i,
                },
                prompt_tokens: [3, 40, cap + 9][(i % 3) as usize],
                iterations: [0, 2, 5, 11][(i % 4) as usize],
            })
            .collect();
        for policy in [
            ReplacementPolicy::Redundancy,
            ReplacementPolicy::Fifo,
            ReplacementPolicy::Random,
        ] {
            let mut config = FmoeConfig::for_model(&cfg);
            config.store_capacity = 48;
            config.store_replacement = policy;
            let mut parallel = FmoePredictor::new(cfg.clone(), config.clone());
            let mut oracle = FmoePredictor::new(cfg.clone(), config);
            parallel.populate_from_history(&g, &history, 6);
            populate_sequentially(&mut oracle, &g, &history, 6);
            assert_eq!(
                parallel.store_len(),
                48,
                "{policy:?}: the store must overflow"
            );
            assert_eq!(store_bytes(&parallel), store_bytes(&oracle), "{policy:?}");
        }
    }

    #[test]
    fn semantic_window_covers_first_d_layers() {
        let g = gate();
        let mut p = predictor();
        p.populate_from_history(&g, &history(3, 8), 4);
        let routing = RequestRouting {
            cluster: 3,
            request_seed: 999_999,
        };
        let plans = p.begin_iteration(&ctx_for(&g, routing, 0));
        assert!(!plans.is_empty());
        let d = p.config().prefetch_distance;
        assert!(plans.iter().all(|plan| plan.expert.layer < d));
        // Constraint 8 floor: at least K+1 per covered layer.
        let layer0 = plans.iter().filter(|pl| pl.expert.layer == 0).count();
        assert!(layer0 >= p.config().min_prefetch_per_layer);
    }

    #[test]
    fn trajectory_plans_target_layer_plus_d() {
        let g = gate();
        let mut p = predictor();
        p.populate_from_history(&g, &history(4, 8), 4);
        let routing = RequestRouting {
            cluster: 4,
            request_seed: 555_555,
        };
        let ctx = ctx_for(&g, routing, 1);
        let _ = p.begin_iteration(&ctx);
        let dist = g.iteration_distribution(routing, 1, 0, ctx.span);
        let plans = p.observe_gate(&ctx, 0, &dist);
        let d = p.config().prefetch_distance;
        let w = p.config().prefetch_window;
        assert!(!plans.is_empty());
        // Fetch plans cover the window [d, d+w); advisories may also
        // appear for the same layers.
        assert!(plans
            .iter()
            .all(|plan| plan.expert.layer >= d && plan.expert.layer < d + w));
        assert!(plans
            .iter()
            .any(|plan| !plan.advisory && plan.expert.layer == d));
    }

    #[test]
    fn no_plans_beyond_last_layer() {
        let g = gate();
        let mut p = predictor();
        p.populate_from_history(&g, &history(5, 4), 2);
        let routing = RequestRouting {
            cluster: 5,
            request_seed: 1,
        };
        let ctx = ctx_for(&g, routing, 0);
        let _ = p.begin_iteration(&ctx);
        let last = g.config().num_layers - 1;
        for l in 0..=last {
            let dist = g.iteration_distribution(routing, 0, l, ctx.span);
            let plans = p.observe_gate(&ctx, l, &dist);
            if l + p.config().prefetch_distance >= g.config().num_layers {
                assert!(plans.is_empty(), "layer {l} should have no target");
            }
        }
    }

    /// Coverage of the true activations by the predictor's plans, at a
    /// *fixed* prefetch budget (dynamic threshold off), restricted to the
    /// layers the given phase covers.
    fn plan_coverage(
        g: &GateSimulator,
        store_cluster: u64,
        query_cluster: u64,
        semantic_window_only: bool,
    ) -> f64 {
        let cfg = presets::small_test_model();
        let fc = FmoeConfig::for_model(&cfg).without_dynamic_threshold();
        let d = fc.prefetch_distance;
        let mut p = FmoePredictor::new(cfg, fc);
        p.populate_from_history(g, &history(store_cluster, 12), 8);
        let routing = RequestRouting {
            cluster: query_cluster,
            request_seed: 31337,
        };
        let mut hits = 0usize;
        let mut total = 0usize;
        for iter in 0..6u64 {
            let ctx = ctx_for(g, routing, iter);
            let mut planned: Vec<Vec<u32>> = vec![Vec::new(); g.config().num_layers as usize];
            for plan in p.begin_iteration(&ctx) {
                planned[plan.expert.layer as usize].push(plan.expert.slot);
            }
            for l in 0..g.config().num_layers {
                let dist = g.iteration_distribution(routing, iter, l, ctx.span);
                for plan in p.observe_gate(&ctx, l, &dist) {
                    planned[plan.expert.layer as usize].push(plan.expert.slot);
                }
            }
            for l in 0..g.config().num_layers {
                if semantic_window_only && l >= d {
                    continue;
                }
                let activated = g.activated_slots(routing, iter, l, ctx.span);
                for slot in activated {
                    total += 1;
                    if planned[l as usize].contains(&slot) {
                        hits += 1;
                    }
                }
            }
        }
        hits as f64 / total.max(1) as f64
    }

    #[test]
    fn same_cluster_semantic_window_beats_cross_cluster() {
        // The semantic search claim (§4.2): for the first d layers — where
        // no trajectory exists — history from the same semantic population
        // predicts activations far better than history from an unrelated
        // one, at an equal prefetch budget.
        let g = gate();
        let same = plan_coverage(&g, 6, 6, true);
        let cross = plan_coverage(&g, 7, 6, true);
        assert!(
            same > cross + 0.15,
            "same-cluster window coverage {same} vs cross-cluster {cross}"
        );
        assert!(same > 0.55, "same-cluster window coverage too weak: {same}");
    }

    #[test]
    fn full_request_coverage_is_strong_with_matching_history() {
        let g = gate();
        let same = plan_coverage(&g, 6, 6, false);
        assert!(same > 0.6, "full-request coverage too weak: {same}");
    }

    #[test]
    fn warm_state_round_trips_through_a_cold_peer() {
        let g = gate();
        let mut donor = predictor();
        donor.populate_from_history(&g, &history(6, 10), 6);
        assert!(donor.store_len() > 0);
        let snapshot = donor.warm_state().expect("populated store snapshots");

        let mut restarted = predictor();
        assert!(
            restarted.warm_state().is_none(),
            "empty store has no warm state"
        );
        assert!(restarted.restore_warm_state(&snapshot));
        assert_eq!(restarted.store_len(), donor.store_len());
        // The restored store carries the donor's semantic history: the
        // affinity signal agrees between donor and restarted peer up to
        // the wire encoding's quantization.
        let routing = RequestRouting {
            cluster: 6,
            request_seed: 4242,
        };
        let emb = g.semantic_embedding(routing, 0);
        let donor_affinity = donor.semantic_affinity(&emb).expect("donor has history");
        let restored_affinity = restarted
            .semantic_affinity(&emb)
            .expect("restored peer has history");
        assert!(
            (donor_affinity - restored_affinity).abs() < 1e-6,
            "affinity drifted through snapshot: {donor_affinity} vs {restored_affinity}"
        );
    }

    #[test]
    fn restore_warm_state_rejects_garbage_and_keeps_state() {
        let g = gate();
        let mut p = predictor();
        p.populate_from_history(&g, &history(6, 4), 6);
        let before = p.store_len();
        assert!(!p.restore_warm_state(b"not a store snapshot"));
        assert_eq!(p.store_len(), before);
    }

    /// A populated store of the small model's `L × J` whose embeddings
    /// are one value wider than the predictor's.
    fn foreign_width_store() -> ExpertMapStore {
        let cfg = presets::small_test_model();
        let (l, j) = (cfg.num_layers as usize, cfg.experts_per_layer as usize);
        let width = GateParams::for_model(&cfg).embedding_dim as usize + 1;
        let mut store = ExpertMapStore::new(16, l, j, 3);
        let map = ExpertMap::from_flat(vec![1.0 / j as f64; l * j], j);
        store.insert(vec![0.5; width], map).unwrap();
        store
    }

    #[test]
    fn load_store_from_path_rejects_another_embedding_width_and_keeps_state() {
        let g = gate();
        let mut p = predictor();
        p.populate_from_history(&g, &history(6, 4), 6);
        let before = p.store_len();
        let path = std::env::temp_dir().join(format!(
            "fmoe_foreign_width_{}_{:?}.fmoe",
            std::process::id(),
            std::thread::current().id()
        ));
        foreign_width_store().save_to_path(&path).unwrap();
        let loaded = p.load_store_from_path(&path);
        std::fs::remove_file(&path).unwrap();
        assert_eq!(loaded.unwrap_err().kind(), std::io::ErrorKind::InvalidData);
        assert_eq!(p.store_len(), before);
        assert_eq!(p.store().embedding_dim(), Some(64));
    }

    #[test]
    fn restore_warm_state_rejects_another_embedding_width_and_keeps_state() {
        let g = gate();
        let mut p = predictor();
        p.populate_from_history(&g, &history(6, 4), 6);
        let before = p.store_len();
        let mut snapshot = Vec::new();
        foreign_width_store().save_to(&mut snapshot).unwrap();
        assert!(!p.restore_warm_state(&snapshot));
        assert_eq!(p.store_len(), before);
        assert_eq!(p.store().embedding_dim(), Some(64));
        // A query of the foreign width is refused, not searched.
        let foreign = vec![0.5; 65];
        assert!(p.semantic_affinity(&foreign).is_none());
        let routing = RequestRouting {
            cluster: 6,
            request_seed: 4242,
        };
        assert!(p
            .semantic_affinity(&g.semantic_embedding(routing, 0))
            .is_some());
    }

    #[test]
    fn end_iteration_refuses_a_map_of_another_shape() {
        // Element 0 observes rows wider than the store's, element 1's
        // insert then replaces an entry at capacity, so element 0's dedup
        // re-dots that entry against the wide rows before the refusal.
        let g = gate();
        let cfg = presets::small_test_model();
        let config = FmoeConfig::for_model(&cfg).with_capacity(&cfg, 4);
        let mut p = FmoePredictor::new(cfg.clone(), config);
        p.populate_from_history(&g, &history(8, 2), 2);
        assert_eq!(p.store_len(), 4);
        let routing = RequestRouting {
            cluster: 8,
            request_seed: 3,
        };
        let wide_ctx = ctx_for(&g, routing, 1);
        let mut ctx = ctx_for(&g, routing, 2);
        ctx.element = 1;
        let wide = vec![vec![0.1; cfg.experts_per_layer as usize + 2]; cfg.num_layers as usize];
        let rows: Vec<Vec<f64>> = (0..cfg.num_layers)
            .map(|l| g.iteration_distribution(routing, 2, l, ctx.span))
            .collect();
        let _ = p.begin_iteration(&wide_ctx);
        for (l, row) in (0..).zip(&wide) {
            let _ = p.observe_gate(&wide_ctx, l, row);
        }
        p.end_iteration(&ctx, &rows);
        let before: Vec<u64> = p.store().entries().map(|e| e.id()).collect();
        p.end_iteration(&wide_ctx, &wide);
        let after: Vec<u64> = p.store().entries().map(|e| e.id()).collect();
        assert_eq!(after, before);
    }

    #[test]
    fn end_iteration_grows_store() {
        let g = gate();
        let mut p = predictor();
        let routing = RequestRouting {
            cluster: 8,
            request_seed: 2,
        };
        let ctx = ctx_for(&g, routing, 0);
        let rows: Vec<Vec<f64>> = (0..g.config().num_layers)
            .map(|l| g.iteration_distribution(routing, 0, l, ctx.span))
            .collect();
        p.end_iteration(&ctx, &rows);
        assert_eq!(p.store_len(), 1);
        // Incomplete maps (mid-iteration abort) are ignored.
        p.end_iteration(&ctx, &rows[..2]);
        assert_eq!(p.store_len(), 1);
    }

    #[test]
    fn reset_empties_everything() {
        let g = gate();
        let mut p = predictor();
        p.populate_from_history(&g, &history(9, 3), 2);
        assert!(p.store_len() > 0);
        p.reset();
        assert_eq!(p.store_len(), 0);
    }

    #[test]
    fn timing_is_asynchronous() {
        let p = predictor();
        let t = p.timing();
        assert!(!t.synchronous);
        assert!(t.latency_ns > 0);
    }

    #[test]
    fn ablation_names() {
        let cfg = presets::small_test_model();
        let full = FmoePredictor::new(cfg.clone(), FmoeConfig::for_model(&cfg));
        assert_eq!(full.name(), "fMoE");
        let ts = FmoePredictor::new(
            cfg.clone(),
            FmoeConfig::for_model(&cfg).without_dynamic_threshold(),
        );
        assert_eq!(ts.name(), "fMoE (T+S)");
        let t = FmoePredictor::new(cfg.clone(), FmoeConfig::for_model(&cfg).trajectory_only());
        assert_eq!(t.name(), "fMoE (T)");
    }
}
