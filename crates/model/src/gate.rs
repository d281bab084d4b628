//! Synthetic gate-network (router) simulator.
//!
//! This is the load-bearing substitution of the reproduction (see
//! `DESIGN.md` §3): we cannot run real Mixtral/Qwen/Phi routers, but every
//! design decision in the paper is justified by four *statistical*
//! properties of those routers, which this simulator reproduces with
//! tunable strength:
//!
//! * **P1 — peaked per-iteration distributions** (paper Fig. 3a/3b): each
//!   `(iteration, layer)` softmax concentrates around a moving "center"
//!   expert via a ring kernel with high amplitude.
//! * **P2 — balanced long-run routing** (Fig. 3b/3c, the load-balancing
//!   loss): the center sweeps the expert ring with a per-cluster stride, so
//!   activation counts aggregated over iterations flatten toward uniform.
//! * **P3 — semantic determinism** (Fig. 8): the center's phase is a
//!   function of the prompt's semantic cluster, and the same cluster also
//!   generates the prompt's embedding, so similar embeddings imply similar
//!   expert trajectories.
//! * **P4 — decaying inter-layer correlation** (Fig. 4): the center moves
//!   slowly across layers (`layer_rate` experts/layer), so a layer's
//!   distribution predicts nearby layers well and distant layers poorly —
//!   exactly the residual-stream speculation behaviour ProMoE and
//!   Mixtral-Offloading rely on.
//!
//! All randomness is *stateless*, hashed from `(seed, request, iteration,
//! layer, expert, token)` coordinates, so any component can replay the
//! router's output for any coordinate without shared mutable state.

use crate::config::ModelConfig;
use fmoe_stats::rng::{gumbel_of, hash_fold, hash_to_unit, normal_noise, HASH_INIT};
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// Tunable parameters of the synthetic router.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GateParams {
    /// Peak logit amplitude of the ring kernel (P1 strength).
    pub amplitude: f64,
    /// Width of the ring kernel, in experts.
    pub kernel_width: f64,
    /// Scale of the *iteration-shared* Gumbel noise added to logits: the
    /// component every token of the iteration sees identically (controls
    /// the achievable prediction accuracy — the paper's expert hit rate
    /// ceiling).
    pub iteration_noise: f64,
    /// Scale of the residual *per-token* Gumbel noise. Kept smaller than
    /// the shared component: tokens of one prompt route coherently, so a
    /// prefill's activated union stays well below the full expert set
    /// (real prompts do not touch every expert of every layer).
    pub token_noise: f64,
    /// Center drift per token *position within the iteration's span*, in
    /// experts: consecutive prompt tokens sweep the expert ring slowly,
    /// so longer prompts activate more (but not all) experts.
    pub token_spread: f64,
    /// Scale of a *static* per-(layer, expert) logit bias. Real MoE
    /// models keep mild expert-popularity skew at inference time despite
    /// the load-balancing training loss; this is the signal frequency-
    /// based caching (LFU, MoE-Infinity) exploits.
    pub expert_bias: f64,
    /// Softmax temperature.
    pub temperature: f64,
    /// Center movement per layer, in experts (P4 decay rate).
    pub layer_rate: f64,
    /// Std-dev of the per-(request, iteration) center jitter, in experts.
    pub iteration_jitter: f64,
    /// Magnitude of the constant per-request center offset, in experts.
    pub request_drift: f64,
    /// Dimensionality of the semantic embeddings the simulator emits.
    ///
    /// Real models emit `hidden_dim`-wide embeddings; the simulated
    /// semantic signal is low-rank (cluster direction + request/iteration
    /// noise), so a reduced width preserves the similarity structure while
    /// keeping map search cheap. `ModelConfig::hidden_dim` bounds it.
    pub embedding_dim: u32,
    /// Relative weight of per-request noise in the semantic embedding.
    pub embedding_request_noise: f64,
    /// Relative weight of the iteration-phase direction in the semantic
    /// embedding. Real embedding-layer outputs evolve with the generated
    /// sequence, which is what lets fMoE's semantic search find maps from
    /// the *matching point* of similar requests; this component carries
    /// that signal.
    pub embedding_phase_weight: f64,
    /// Relative weight of per-iteration noise in the semantic embedding.
    pub embedding_iteration_noise: f64,
    /// Maximum number of prefill tokens actually routed; longer prompts are
    /// subsampled uniformly (documented simulator shortcut — the union of
    /// activated experts saturates long before this cap).
    pub prefill_token_cap: u32,
    /// Master seed; distinct seeds give statistically independent routers.
    pub seed: u64,
}

impl GateParams {
    /// Parameters scaled to a model's expert count.
    ///
    /// Width, layer rate and drift scale linearly with `J` so all three
    /// evaluation models exhibit the same *relative* structure, matching
    /// the paper's observation that its findings hold across models.
    #[must_use]
    pub fn for_model(config: &ModelConfig) -> Self {
        let j = f64::from(config.experts_per_layer);
        Self {
            amplitude: 6.0,
            kernel_width: (j / 8.0).max(1.0),
            iteration_noise: 0.85,
            token_noise: 0.5,
            token_spread: 0.03 * (j / 8.0).max(1.0),
            expert_bias: 0.4,
            temperature: 1.0,
            layer_rate: 0.05 * j,
            iteration_jitter: 0.03 * j,
            request_drift: 0.06 * j,
            embedding_dim: 64.min(config.hidden_dim),
            embedding_request_noise: 0.35,
            embedding_phase_weight: 0.55,
            embedding_iteration_noise: 0.12,
            prefill_token_cap: 128,
            seed: 0xF0E1_D2C3_B4A5_9687,
        }
    }

    /// Same parameters with a different master seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Routing identity of one request: which semantic cluster generated it and
/// its private drift seed.
///
/// Produced by `fmoe-workload`'s prompt generators; the gate simulator is
/// deliberately ignorant of datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RequestRouting {
    /// Semantic cluster index (topic) of the prompt.
    pub cluster: u64,
    /// Per-request seed: two requests from the same cluster still differ.
    pub request_seed: u64,
}

/// Contiguous span of token positions processed by one iteration.
///
/// Prefill processes `[0, prompt_len)` in a single iteration; decode
/// iteration `i` processes the single position `prompt_len + i - 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TokenSpan {
    /// First token position in the span.
    pub start: u64,
    /// Number of tokens in the span (>= 1).
    pub count: u64,
}

impl TokenSpan {
    /// A single-token span (decode iterations).
    #[must_use]
    pub fn single(position: u64) -> Self {
        Self {
            start: position,
            count: 1,
        }
    }

    /// A prefill span covering positions `[0, prompt_len)`.
    #[must_use]
    pub fn prefill(prompt_len: u64) -> Self {
        Self {
            start: 0,
            count: prompt_len.max(1),
        }
    }
}

// Domain-separation tags for the hash streams.
const TAG_BASE: u64 = 0x01;
const TAG_STRIDE: u64 = 0x02;
const TAG_DRIFT: u64 = 0x03;
const TAG_JITTER: u64 = 0x04;
const TAG_TOKEN: u64 = 0x05;
const TAG_ITER_NOISE: u64 = 0x0A;
const TAG_EXPERT_BIAS: u64 = 0x0B;
const TAG_EMB_CLUSTER: u64 = 0x06;
const TAG_EMB_REQUEST: u64 = 0x07;
const TAG_EMB_ITER: u64 = 0x08;
const TAG_EMB_PHASE: u64 = 0x09;

/// Reusable working memory of [`GateSimulator::route_into`] and its
/// one-output modes.
///
/// One scratch serves any number of calls, on any model: every call
/// resizes the buffers to its model's `J` and overwrites them, so a
/// caller that keeps one scratch routes without allocating once the
/// buffers have grown. A mode that does not compute an output leaves it
/// empty.
#[derive(Debug, Clone, Default)]
pub struct GateScratch {
    /// The iteration distribution of the last call (length `J`); empty
    /// after an activations-only pass.
    pub dist: Vec<f64>,
    /// The slots the last call activated: the union of every routed
    /// token's top-K, ascending; empty after a distribution-only pass.
    pub activated: Vec<u32>,
    /// One token's logits, then (in place) its softmax numerators.
    logits: Vec<f64>,
    /// Per slot: the hash state folded through `(seed, request_seed,
    /// iteration, layer, slot)`.
    slot_hash: Vec<u64>,
    /// Per slot: the scaled iteration-shared gumbel.
    shared: Vec<f64>,
    /// Per slot: the static expert bias of this layer.
    bias: Vec<f64>,
    /// Per slot: whether any routed token activated it.
    hit: Vec<bool>,
    /// The last token's top-K, highest logit first.
    top: Vec<u32>,
}

/// The synthetic router for one model.
///
/// ```
/// use fmoe_model::{presets, GateSimulator, RequestRouting};
/// use fmoe_model::gate::{GateScratch, TokenSpan};
///
/// let gate = GateSimulator::with_defaults(presets::small_test_model());
/// let req = RequestRouting { cluster: 3, request_seed: 42 };
/// let mut scratch = GateScratch::default();
/// gate.route_into(req, 0, 2, TokenSpan::single(10), &mut scratch);
/// assert_eq!(scratch.dist.len(), 8);
/// assert!((scratch.dist.iter().sum::<f64>() - 1.0).abs() < 1e-9);
/// assert_eq!(scratch.activated.len(), 2); // one token, top-2
/// // Deterministic: the same coordinates always route identically.
/// assert_eq!(scratch.dist, gate.iteration_distribution(req, 0, 2, TokenSpan::single(10)));
/// ```
#[derive(Debug, Clone)]
pub struct GateSimulator {
    config: ModelConfig,
    params: GateParams,
    /// Static expert bias, `L×J` row-major; built on first route so
    /// constructing a router stays O(1).
    bias: OnceLock<Vec<f64>>,
}

impl GateSimulator {
    /// Creates a router for `config` with the given parameters.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails validation — constructing a router for an
    /// inconsistent model is a programming error.
    #[must_use]
    pub fn new(config: ModelConfig, params: GateParams) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid model config: {e}"));
        Self {
            config,
            params,
            bias: OnceLock::new(),
        }
    }

    /// Convenience constructor with [`GateParams::for_model`] defaults.
    ///
    /// # Panics
    ///
    /// Inherits [`Self::new`]'s panic on an invalid `config`.
    #[must_use]
    pub fn with_defaults(config: ModelConfig) -> Self {
        let params = GateParams::for_model(&config);
        Self::new(config, params)
    }

    /// The model this router belongs to.
    #[must_use]
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// The router's parameters.
    #[must_use]
    pub fn params(&self) -> &GateParams {
        &self.params
    }

    /// The kernel center (a real-valued position on the expert ring) for a
    /// given coordinate.
    fn center(&self, req: RequestRouting, iteration: u64, layer: u32) -> f64 {
        let j = f64::from(self.config.experts_per_layer);
        let p = &self.params;
        let base = hash_to_unit(&[p.seed, req.cluster, TAG_BASE]) * j;
        // Stride in [0.2, 0.8]·J: fast enough to flatten aggregates (P2),
        // distinct per cluster (P3).
        let stride = (0.2 + 0.6 * hash_to_unit(&[p.seed, req.cluster, TAG_STRIDE])) * j;
        let drift =
            (hash_to_unit(&[p.seed, req.request_seed, TAG_DRIFT]) - 0.5) * 2.0 * p.request_drift;
        let jitter =
            normal_noise(&[p.seed, req.request_seed, iteration, TAG_JITTER]) * p.iteration_jitter;
        base + iteration as f64 * stride + f64::from(layer) * p.layer_rate + drift + jitter
    }

    /// The static logit bias of expert `slot` at `layer`.
    fn expert_bias(&self, layer: u32, slot: u32) -> f64 {
        let p = &self.params;
        p.expert_bias * normal_noise(&[p.seed, u64::from(layer), u64::from(slot), TAG_EXPERT_BIAS])
    }

    /// Softmax distribution over experts for one token — the `P_l^{(i)}`
    /// of the paper, at token granularity (the token is treated as its
    /// span's first position, as in every decode iteration).
    ///
    /// A distribution-only pass: no token's top-K is computed.
    #[must_use]
    pub fn token_distribution(
        &self,
        req: RequestRouting,
        iteration: u64,
        layer: u32,
        token: u64,
    ) -> Vec<f64> {
        self.iteration_distribution(req, iteration, layer, TokenSpan::single(token))
    }

    /// Top-K expert slots for one token, highest probability first.
    ///
    /// An activations-only pass: no token's softmax is computed.
    #[must_use]
    pub fn token_top_k(
        &self,
        req: RequestRouting,
        iteration: u64,
        layer: u32,
        token: u64,
    ) -> Vec<u32> {
        let mut scratch = GateScratch::default();
        let span = TokenSpan::single(token);
        self.route_activations_into(req, iteration, layer, span, &mut scratch);
        scratch.top
    }

    /// The iteration-level gate distribution: the mean of the per-token
    /// distributions over the span (for decode spans this is just the
    /// single token's distribution).
    ///
    /// This is the row an expert map records for `(iteration, layer)`.
    /// A distribution-only pass, which skips every token's top-K;
    /// callers that also need the activated set should make one
    /// [`Self::route_into`] call instead.
    #[must_use]
    pub fn iteration_distribution(
        &self,
        req: RequestRouting,
        iteration: u64,
        layer: u32,
        span: TokenSpan,
    ) -> Vec<f64> {
        let mut scratch = GateScratch::default();
        self.route_distribution_into(req, iteration, layer, span, &mut scratch);
        scratch.dist
    }

    /// The set of expert slots activated by the span at this layer: the
    /// union of every token's top-K. Sorted ascending.
    ///
    /// An activations-only pass, which skips every token's softmax;
    /// callers that also need the distribution should make one
    /// [`Self::route_into`] call instead.
    #[must_use]
    pub fn activated_slots(
        &self,
        req: RequestRouting,
        iteration: u64,
        layer: u32,
        span: TokenSpan,
    ) -> Vec<u32> {
        let mut scratch = GateScratch::default();
        self.route_activations_into(req, iteration, layer, span, &mut scratch);
        scratch.activated
    }

    /// Routes one `(request, iteration, layer, span)`: fills
    /// `scratch.dist` with the iteration distribution and
    /// `scratch.activated` with the activated slots, from one logits pass
    /// per routed token.
    ///
    /// Per token and slot the logit is
    /// `amplitude·kernel + bias + σ_iter·shared + σ_tok·per_token`
    /// (DESIGN.md §3). Everything but the kernel and the per-token gumbel
    /// is the same for every token of the call, so it is computed once:
    /// the center, the per-slot shared gumbel, the layer's bias row (from
    /// a table built on first use) and the hash state of
    /// `(seed, request_seed, iteration, layer, slot)`, from which each
    /// per-token gumbel folds only `(token, TAG_TOKEN)`. The f64
    /// operations and their order are those of the per-token formula, so
    /// the output is bit-identical to it.
    pub fn route_into(
        &self,
        req: RequestRouting,
        iteration: u64,
        layer: u32,
        span: TokenSpan,
        scratch: &mut GateScratch,
    ) {
        self.route_pass::<true, true>(req, iteration, layer, span, scratch);
    }

    /// [`Self::route_into`] without the activated set: fills
    /// `scratch.dist` and leaves `scratch.activated` empty, skipping every
    /// token's top-K. `scratch.dist` is bit-identical to `route_into`'s.
    pub(crate) fn route_distribution_into(
        &self,
        req: RequestRouting,
        iteration: u64,
        layer: u32,
        span: TokenSpan,
        scratch: &mut GateScratch,
    ) {
        self.route_pass::<true, false>(req, iteration, layer, span, scratch);
    }

    /// [`Self::route_into`] without the distribution: fills
    /// `scratch.activated` and leaves `scratch.dist` empty, skipping every
    /// token's softmax. `scratch.activated` equals `route_into`'s.
    pub(crate) fn route_activations_into(
        &self,
        req: RequestRouting,
        iteration: u64,
        layer: u32,
        span: TokenSpan,
        scratch: &mut GateScratch,
    ) {
        self.route_pass::<false, true>(req, iteration, layer, span, scratch);
    }

    /// The one loop body of the three routing modes: `DIST` computes the
    /// distribution (each token's softmax), `ACT` the activated set (each
    /// token's top-K). Both read the same logits, so a mode that skips an
    /// output computes the other exactly as the fused pass does.
    fn route_pass<const DIST: bool, const ACT: bool>(
        &self,
        req: RequestRouting,
        iteration: u64,
        layer: u32,
        span: TokenSpan,
        scratch: &mut GateScratch,
    ) {
        let p = &self.params;
        let j = self.config.experts_per_layer as usize;
        let k = (self.config.top_k as usize).min(j);
        let center = self.center(req, iteration, layer);
        let width = p.kernel_width.max(1e-6);
        let temperature = p.temperature.max(1e-9);
        let ring = f64::from(self.config.experts_per_layer);

        let GateScratch {
            dist,
            activated,
            logits,
            slot_hash,
            shared,
            bias,
            hit,
            top,
        } = scratch;
        let prefix = hash_fold(
            HASH_INIT,
            &[p.seed, req.request_seed, iteration, u64::from(layer)],
        );
        slot_hash.clear();
        slot_hash.extend((0..j as u64).map(|slot| hash_fold(prefix, &[slot])));
        shared.clear();
        shared.extend(
            slot_hash
                .iter()
                .map(|&h| p.iteration_noise * gumbel_of(hash_fold(h, &[TAG_ITER_NOISE]))),
        );
        bias.clear();
        match self
            .bias_table()
            .get(layer as usize * j..(layer as usize + 1) * j)
        {
            Some(row) => bias.extend_from_slice(row),
            // Layers past the model's depth are not tabled.
            None => {
                bias.extend((0..self.config.experts_per_layer).map(|s| self.expert_bias(layer, s)))
            }
        }
        dist.clear();
        hit.clear();
        top.clear();
        activated.clear();
        if DIST {
            dist.resize(j, 0.0);
        }
        if ACT {
            hit.resize(j, false);
        }
        logits.resize(j, 0.0);

        let count = span.count.max(1);
        let cap = u64::from(p.prefill_token_cap.max(1));
        let routed = count.min(cap);
        for i in 0..routed {
            // Spans longer than the cap are subsampled uniformly.
            let token = if count <= cap {
                span.start + i
            } else {
                span.start + (i as f64 * (count as f64 / cap as f64)) as u64
            };
            let c = (center + p.token_spread * (token - span.start) as f64).rem_euclid(ring);
            for (slot, logit) in logits.iter_mut().enumerate() {
                let d = (slot as f64 - c).abs();
                let d = d.min(ring - d);
                let kernel = (-(d / width).powi(2)).exp();
                let per_token = gumbel_of(hash_fold(slot_hash[slot], &[token, TAG_TOKEN]));
                *logit =
                    p.amplitude * kernel + bias[slot] + shared[slot] + p.token_noise * per_token;
            }

            if ACT {
                top_k_into(logits, k, top);
                for &slot in top.iter() {
                    hit[slot as usize] = true;
                }
            }
            if DIST {
                // Softmax, accumulated into the span mean.
                let max = logits.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                for l in logits.iter_mut() {
                    *l = ((*l - max) / temperature).exp();
                }
                let sum: f64 = logits.iter().sum();
                for (a, e) in dist.iter_mut().zip(logits.iter()) {
                    *a += e / sum;
                }
            }
        }
        if DIST {
            let n = routed as f64;
            for a in dist.iter_mut() {
                *a /= n;
            }
        }
        if ACT {
            activated.extend((0..j as u32).filter(|&slot| hit[slot as usize]));
        }
    }

    /// The `L×J` static-bias table, built on first call.
    fn bias_table(&self) -> &[f64] {
        self.bias.get_or_init(|| {
            (0..self.config.num_layers)
                .flat_map(|l| (0..self.config.experts_per_layer).map(move |s| (l, s)))
                .map(|(l, s)| self.expert_bias(l, s))
                .collect()
        })
    }

    /// The semantic embedding the model's embedding layer would emit for
    /// this request at this iteration (unit norm).
    ///
    /// Composition: cluster direction + per-request noise + a shared
    /// iteration-phase direction + per-iteration noise, with the weights
    /// from [`GateParams`] — low-rank semantics, as described in
    /// `DESIGN.md` §3. The phase direction is keyed by the iteration index
    /// alone: it models how the embedding-layer output drifts as the
    /// sequence grows, letting semantic search align a new request with
    /// historical iterations at the same point of generation.
    ///
    /// Composed from its three parts ([`Self::embedding_request_part`],
    /// [`Self::embedding_phase_row`], [`Self::compose_embedding`]); a
    /// caller that embeds many iterations of one request, or one
    /// iteration of many requests, computes the shared parts once.
    #[must_use]
    pub fn semantic_embedding(&self, req: RequestRouting, iteration: u64) -> Vec<f64> {
        let (mut request, mut phase, mut out) = (Vec::new(), Vec::new(), Vec::new());
        self.embedding_request_part(req, &mut request);
        self.embedding_phase_row(iteration, &mut phase);
        self.compose_embedding(req, iteration, &request, &phase, &mut out);
        out
    }

    /// Writes the per-request part of [`Self::semantic_embedding`] into
    /// `out`: the cluster direction plus the weighted request noise, one
    /// value per embedding dimension.
    pub fn embedding_request_part(&self, req: RequestRouting, out: &mut Vec<f64>) {
        let p = &self.params;
        out.clear();
        out.extend((0..u64::from(p.embedding_dim)).map(|k| {
            let cluster = normal_noise(&[p.seed, req.cluster, k, TAG_EMB_CLUSTER]);
            let request = normal_noise(&[p.seed, req.request_seed, k, TAG_EMB_REQUEST]);
            cluster + p.embedding_request_noise * request
        }));
    }

    /// Writes the weighted iteration-phase row of
    /// [`Self::semantic_embedding`] into `out`: keyed by the iteration
    /// index alone, so every request shares it.
    pub fn embedding_phase_row(&self, iteration: u64, out: &mut Vec<f64>) {
        let p = &self.params;
        out.clear();
        out.extend((0..u64::from(p.embedding_dim)).map(|k| {
            p.embedding_phase_weight * normal_noise(&[p.seed, iteration, k, TAG_EMB_PHASE])
        }));
    }

    /// Writes [`Self::semantic_embedding`]`(req, iteration)` into `out`
    /// from its cached parts: `request_part` (from
    /// [`Self::embedding_request_part`] for `req`) plus `phase_row` (from
    /// [`Self::embedding_phase_row`] for `iteration`) plus the weighted
    /// per-(request, iteration) noise, normalized. The sum runs in the
    /// order of the four-term formula, `((cluster + request) + phase) +
    /// noise`, so the result is bit-identical to it.
    pub fn compose_embedding(
        &self,
        req: RequestRouting,
        iteration: u64,
        request_part: &[f64],
        phase_row: &[f64],
        out: &mut Vec<f64>,
    ) {
        let p = &self.params;
        out.clear();
        out.extend((0u64..).zip(request_part.iter().zip(phase_row)).map(
            |(k, (&request, &phase))| {
                let iter = normal_noise(&[p.seed, req.request_seed, iteration, k, TAG_EMB_ITER]);
                request + phase + p.embedding_iteration_noise * iter
            },
        ));
        let norm = out.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm > 0.0 {
            for x in out.iter_mut() {
                *x /= norm;
            }
        }
    }
}

/// Writes the indices of the `k` largest `values` into `top`, highest
/// first, ties broken toward lower indices (`total_cmp`), without
/// allocating once `top` has grown to `k`.
fn top_k_into(values: &[f64], k: usize, top: &mut Vec<u32>) {
    top.clear();
    for (i, &v) in values.iter().enumerate() {
        // Scanning in index order, an equal value never displaces an
        // earlier index: only a strictly greater one moves ahead.
        let pos = top
            .iter()
            .position(|&o| values[o as usize].total_cmp(&v).is_lt())
            .unwrap_or(top.len());
        if pos < k {
            top.truncate(k - 1);
            top.insert(pos, i as u32);
        }
    }
}

/// The router as first written, one token at a time: every logit hashes
/// its own noise and bias, and every token allocates its logits, softmax
/// and top-K; and the semantic embedding as one sum per dimension. This
/// is the specification [`GateSimulator::route_into`], its one-output
/// modes and [`GateSimulator::semantic_embedding`] are pinned to bit for
/// bit (`crate::proptests`); it never runs outside tests.
#[cfg(test)]
pub(crate) mod reference {
    use super::{
        GateSimulator, RequestRouting, TokenSpan, TAG_EMB_CLUSTER, TAG_EMB_ITER, TAG_EMB_PHASE,
        TAG_EMB_REQUEST, TAG_EXPERT_BIAS, TAG_ITER_NOISE, TAG_TOKEN,
    };
    use fmoe_stats::rng::{gumbel_noise, normal_noise};

    /// The semantic embedding as one four-term sum per dimension, every
    /// normal drawn afresh: the specification
    /// [`GateSimulator::semantic_embedding`]'s composition from cached
    /// parts is pinned to.
    pub fn semantic_embedding(g: &GateSimulator, req: RequestRouting, iteration: u64) -> Vec<f64> {
        let p = &g.params;
        let mut v: Vec<f64> = (0..u64::from(p.embedding_dim))
            .map(|k| {
                let cluster = normal_noise(&[p.seed, req.cluster, k, TAG_EMB_CLUSTER]);
                let request = normal_noise(&[p.seed, req.request_seed, k, TAG_EMB_REQUEST]);
                let phase = normal_noise(&[p.seed, iteration, k, TAG_EMB_PHASE]);
                let iter = normal_noise(&[p.seed, req.request_seed, iteration, k, TAG_EMB_ITER]);
                cluster
                    + p.embedding_request_noise * request
                    + p.embedding_phase_weight * phase
                    + p.embedding_iteration_noise * iter
            })
            .collect();
        let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm > 0.0 {
            for x in &mut v {
                *x /= norm;
            }
        }
        v
    }

    /// Circular (ring) distance between expert slot `slot` and a
    /// real-valued center position.
    fn ring_distance(g: &GateSimulator, slot: u32, center: f64) -> f64 {
        let j = f64::from(g.config.experts_per_layer);
        let c = center.rem_euclid(j);
        let d = (f64::from(slot) - c).abs();
        d.min(j - d)
    }

    /// Raw logits over the `J` routed experts for one token at relative
    /// position `offset` within the iteration's span (0 for decode).
    pub fn token_logits_at(
        g: &GateSimulator,
        req: RequestRouting,
        iteration: u64,
        layer: u32,
        token: u64,
        offset: u64,
    ) -> Vec<f64> {
        let p = &g.params;
        let center = g.center(req, iteration, layer) + p.token_spread * offset as f64;
        let width = p.kernel_width.max(1e-6);
        (0..g.config.experts_per_layer)
            .map(|slot| {
                let d = ring_distance(g, slot, center);
                let kernel = (-(d / width).powi(2)).exp();
                let shared = gumbel_noise(&[
                    p.seed,
                    req.request_seed,
                    iteration,
                    u64::from(layer),
                    u64::from(slot),
                    TAG_ITER_NOISE,
                ]);
                let per_token = gumbel_noise(&[
                    p.seed,
                    req.request_seed,
                    iteration,
                    u64::from(layer),
                    u64::from(slot),
                    token,
                    TAG_TOKEN,
                ]);
                let bias = p.expert_bias
                    * normal_noise(&[p.seed, u64::from(layer), u64::from(slot), TAG_EXPERT_BIAS]);
                p.amplitude * kernel + bias + p.iteration_noise * shared + p.token_noise * per_token
            })
            .collect()
    }

    /// Numerically-stable softmax with temperature.
    pub fn softmax(logits: &[f64], temperature: f64) -> Vec<f64> {
        let t = temperature.max(1e-9);
        let max = logits.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let exps: Vec<f64> = logits.iter().map(|&l| ((l - max) / t).exp()).collect();
        let sum: f64 = exps.iter().sum();
        exps.into_iter().map(|e| e / sum).collect()
    }

    /// Indices of the `k` largest values, ties broken toward lower
    /// indices, returned in descending-value order.
    pub fn top_k_indices(values: &[f64], k: usize) -> Vec<u32> {
        let mut idx: Vec<u32> = (0..values.len() as u32).collect();
        idx.sort_by(|&a, &b| {
            values[b as usize]
                .total_cmp(&values[a as usize])
                .then(a.cmp(&b))
        });
        idx.truncate(k);
        idx
    }

    /// Uniformly subsamples a span down to the prefill token cap.
    pub fn sample_tokens(g: &GateSimulator, span: TokenSpan) -> Vec<u64> {
        let count = span.count.max(1);
        let cap = u64::from(g.params.prefill_token_cap.max(1));
        if count <= cap {
            (span.start..span.start + count).collect()
        } else {
            let step = count as f64 / cap as f64;
            (0..cap)
                .map(|i| span.start + (i as f64 * step) as u64)
                .collect()
        }
    }

    /// Softmax distribution over experts for one token.
    pub fn token_distribution(
        g: &GateSimulator,
        req: RequestRouting,
        iteration: u64,
        layer: u32,
        token: u64,
    ) -> Vec<f64> {
        softmax(
            &token_logits_at(g, req, iteration, layer, token, 0),
            g.params.temperature,
        )
    }

    /// Top-K expert slots for one token, highest probability first.
    pub fn token_top_k(
        g: &GateSimulator,
        req: RequestRouting,
        iteration: u64,
        layer: u32,
        token: u64,
    ) -> Vec<u32> {
        let logits = token_logits_at(g, req, iteration, layer, token, 0);
        top_k_indices(&logits, g.config.top_k as usize)
    }

    /// The mean of the per-token distributions over the span.
    pub fn iteration_distribution(
        g: &GateSimulator,
        req: RequestRouting,
        iteration: u64,
        layer: u32,
        span: TokenSpan,
    ) -> Vec<f64> {
        let tokens = sample_tokens(g, span);
        let mut acc = vec![0.0; g.config.experts_per_layer as usize];
        for &t in &tokens {
            let logits = token_logits_at(g, req, iteration, layer, t, t - span.start);
            let dist = softmax(&logits, g.params.temperature);
            for (a, d) in acc.iter_mut().zip(dist) {
                *a += d;
            }
        }
        let n = tokens.len() as f64;
        for a in &mut acc {
            *a /= n;
        }
        acc
    }

    /// The union of every token's top-K, sorted ascending.
    pub fn activated_slots(
        g: &GateSimulator,
        req: RequestRouting,
        iteration: u64,
        layer: u32,
        span: TokenSpan,
    ) -> Vec<u32> {
        let mut hit = vec![false; g.config.experts_per_layer as usize];
        for &t in &sample_tokens(g, span) {
            let logits = token_logits_at(g, req, iteration, layer, t, t - span.start);
            for slot in top_k_indices(&logits, g.config.top_k as usize) {
                hit[slot as usize] = true;
            }
        }
        hit.iter()
            .enumerate()
            .filter_map(|(i, &h)| h.then_some(i as u32))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use fmoe_stats::entropy::shannon_entropy_of_counts;

    fn sim() -> GateSimulator {
        GateSimulator::with_defaults(presets::small_test_model())
    }

    fn req(cluster: u64, seed: u64) -> RequestRouting {
        RequestRouting {
            cluster,
            request_seed: seed,
        }
    }

    #[test]
    fn distributions_are_normalized() {
        let g = sim();
        for iter in 0..5 {
            for layer in 0..g.config().num_layers {
                let d = g.token_distribution(req(1, 7), iter, layer, 0);
                let sum: f64 = d.iter().sum();
                assert!((sum - 1.0).abs() < 1e-9);
                assert!(d.iter().all(|&p| p >= 0.0));
            }
        }
    }

    #[test]
    fn router_is_deterministic() {
        let g1 = sim();
        let g2 = sim();
        let a = g1.token_distribution(req(3, 11), 4, 2, 9);
        let b = g2.token_distribution(req(3, 11), 4, 2, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = presets::small_test_model();
        let g1 = GateSimulator::new(cfg.clone(), GateParams::for_model(&cfg).with_seed(1));
        let g2 = GateSimulator::new(cfg.clone(), GateParams::for_model(&cfg).with_seed(2));
        assert_ne!(
            g1.token_distribution(req(3, 11), 4, 2, 9),
            g2.token_distribution(req(3, 11), 4, 2, 9)
        );
    }

    #[test]
    fn p1_iteration_distributions_are_peaked() {
        // The per-iteration distribution entropy must sit well below the
        // uniform bound.
        let g = sim();
        let j = g.config().experts_per_layer as f64;
        let mut mean_entropy = 0.0;
        let mut n = 0.0;
        for iter in 0..20 {
            let d = g.iteration_distribution(req(2, 5), iter, 3, TokenSpan::single(iter));
            mean_entropy += fmoe_stats::shannon_entropy(&d);
            n += 1.0;
        }
        mean_entropy /= n;
        assert!(
            mean_entropy < 0.75 * j.log2(),
            "fine-grained entropy {mean_entropy} vs uniform {}",
            j.log2()
        );
    }

    #[test]
    fn p2_aggregated_counts_flatten() {
        // Request-level (aggregated) expert activation counts approach
        // uniform: entropy of aggregate >> entropy of single iterations.
        let g = sim();
        let j = g.config().experts_per_layer as usize;
        let mut counts = vec![0.0; j];
        let mut fine_entropies = Vec::new();
        for iter in 0..200 {
            let slots = g.activated_slots(req(4, 9), iter, 2, TokenSpan::single(iter));
            let mut fine = vec![0.0; j];
            for s in slots {
                counts[s as usize] += 1.0;
                fine[s as usize] += 1.0;
            }
            fine_entropies.push(shannon_entropy_of_counts(&fine));
        }
        let coarse = shannon_entropy_of_counts(&counts);
        let fine_mean = fine_entropies.iter().sum::<f64>() / fine_entropies.len() as f64;
        assert!(
            coarse > fine_mean + 0.8,
            "coarse {coarse} should exceed fine {fine_mean}"
        );
        assert!(coarse > 0.9 * (j as f64).log2(), "coarse entropy {coarse}");
    }

    #[test]
    fn p3_same_cluster_routes_similarly() {
        // Two requests from one cluster share trajectories far more than
        // requests from different clusters.
        let g = sim();
        let sim_same = trajectory_cosine(&g, req(1, 100), req(1, 200));
        let sim_diff = trajectory_cosine(&g, req(1, 100), req(2, 300));
        assert!(
            sim_same > sim_diff + 0.15,
            "same-cluster {sim_same} vs cross-cluster {sim_diff}"
        );
    }

    fn trajectory_cosine(g: &GateSimulator, a: RequestRouting, b: RequestRouting) -> f64 {
        let mut va = Vec::new();
        let mut vb = Vec::new();
        for iter in 0..8 {
            for layer in 0..g.config().num_layers {
                va.extend(g.iteration_distribution(a, iter, layer, TokenSpan::single(iter)));
                vb.extend(g.iteration_distribution(b, iter, layer, TokenSpan::single(iter)));
            }
        }
        fmoe_stats::cosine_similarity(&va, &vb)
    }

    #[test]
    fn p4_interlayer_correlation_decays() {
        // Using layer l's distribution to predict layer l+d gets worse as d
        // grows.
        let g = sim();
        let r = req(6, 42);
        let overlap_at = |d: u32| -> f64 {
            let mut total = 0.0;
            let mut n = 0.0;
            for iter in 0..40u64 {
                for l in 0..(g.config().num_layers - d) {
                    let from = g.token_top_k(r, iter, l, iter);
                    let to = g.token_top_k(r, iter, l + d, iter);
                    let inter = from.iter().filter(|s| to.contains(s)).count();
                    total += inter as f64 / to.len() as f64;
                    n += 1.0;
                }
            }
            total / n
        };
        let d1 = overlap_at(1);
        let d4 = overlap_at(4);
        assert!(d1 > d4 + 0.1, "overlap d=1 {d1} vs d=4 {d4}");
        assert!(d1 > 0.5, "adjacent-layer overlap too weak: {d1}");
    }

    #[test]
    fn embeddings_cluster() {
        let g = sim();
        let e1 = g.semantic_embedding(req(1, 10), 0);
        let e2 = g.semantic_embedding(req(1, 20), 3);
        let e2_same_iter = g.semantic_embedding(req(1, 20), 0);
        let e3 = g.semantic_embedding(req(9, 30), 0);
        let same_cluster = fmoe_stats::cosine_similarity(&e1, &e2);
        let same_cluster_same_iter = fmoe_stats::cosine_similarity(&e1, &e2_same_iter);
        let diff = fmoe_stats::cosine_similarity(&e1, &e3);
        assert!(
            same_cluster > 0.55,
            "same-cluster similarity {same_cluster}"
        );
        // Matching generation phase adds signal on top of the cluster.
        assert!(
            same_cluster_same_iter > same_cluster + 0.1,
            "same-iter {same_cluster_same_iter} vs cross-iter {same_cluster}"
        );
        assert!(diff < 0.5, "cross-cluster embedding similarity {diff}");
        // Unit norm.
        let n: f64 = e1.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!((n - 1.0).abs() < 1e-9);
    }

    #[test]
    fn activated_slots_covers_top_k_and_is_sorted() {
        let g = sim();
        let r = req(2, 2);
        let slots = g.activated_slots(r, 0, 1, TokenSpan::single(0));
        assert_eq!(slots.len(), g.config().top_k as usize);
        let direct = g.token_top_k(r, 0, 1, 0);
        for s in &direct {
            assert!(slots.contains(s));
        }
        let mut sorted = slots.clone();
        sorted.sort_unstable();
        assert_eq!(slots, sorted);
    }

    #[test]
    fn prefill_span_activates_more_experts_than_decode() {
        let g = sim();
        let r = req(5, 77);
        let prefill = g.activated_slots(r, 0, 3, TokenSpan::prefill(256));
        let decode = g.activated_slots(r, 1, 3, TokenSpan::single(256));
        assert!(prefill.len() > decode.len());
    }

    #[test]
    fn prefill_subsampling_caps_work() {
        let g = sim();
        let spans = reference::sample_tokens(&g, TokenSpan::prefill(1_000_000));
        assert_eq!(spans.len(), g.params().prefill_token_cap as usize);
        assert!(spans.windows(2).all(|w| w[0] < w[1]));
        // An enormous span routes only the capped subsample.
        let r = req(5, 77);
        let big = TokenSpan::prefill(1_000_000);
        assert_eq!(
            g.iteration_distribution(r, 0, 3, big),
            reference::iteration_distribution(&g, r, 0, 3, big)
        );
    }

    #[test]
    fn layers_past_the_model_depth_route_like_the_reference() {
        let g = sim();
        let (r, layer, span) = (req(2, 3), g.config().num_layers + 3, TokenSpan::prefill(40));
        assert_eq!(
            g.iteration_distribution(r, 1, layer, span),
            reference::iteration_distribution(&g, r, 1, layer, span)
        );
        assert_eq!(
            g.activated_slots(r, 1, layer, span),
            reference::activated_slots(&g, r, 1, layer, span)
        );
    }

    #[test]
    fn top_k_into_orders_and_breaks_ties() {
        let mut top = Vec::new();
        for (values, k, want) in [
            (&[0.1, 0.9, 0.5][..], 2, &[1, 2][..]),
            (&[0.5, 0.5, 0.1], 2, &[0, 1]),
            (&[0.1, 0.5, 0.5, 0.9], 2, &[3, 1]),
            (&[1.0], 5, &[0]),
        ] {
            top_k_into(values, k, &mut top);
            assert_eq!(top, want);
            assert_eq!(top, reference::top_k_indices(values, k));
        }
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let cfg = presets::small_test_model();
        let mut params = GateParams::for_model(&cfg);
        params.amplitude = 1e6;
        let g = GateSimulator::new(cfg, params);
        let d = g.iteration_distribution(req(1, 1), 0, 0, TokenSpan::prefill(16));
        assert!(d.iter().all(|v| v.is_finite()));
        assert!((d.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }
}
