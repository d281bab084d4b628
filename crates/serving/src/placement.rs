//! Expert-placement policies for expert parallelism (EP).
//!
//! With EP a replica's N GPUs each *own* a subset of experts; the owner
//! table decides which GPU serves (and caches) each expert, and — via
//! the gate — how many tokens each GPU receives in the per-layer
//! all2all. A [`PlacementPolicy`] maps a model shape to an owner table
//! (`owners[dense_expert_index] = gpu`), which
//! [`EngineBuilder::placement_policy`](crate::EngineBuilder::placement_policy)
//! installs into the cache so `home_gpu` and every downstream GPU
//! attribution follow it. It is the only way to place experts other than
//! the cache's default, round-robin over the dense index.
//!
//! * [`RoundRobinPlacement`] — the paper's §5 static choice; the same
//!   owners as the cache's default with no table installed.
//! * [`LayerContiguousPlacement`] — contiguous layer blocks per GPU, the
//!   naive alternative the placement ablation compares against.
//! * [`LoadBalancedPlacement`] — greedy global balance over historical
//!   activation frequencies, capped so ownership stays a near-even
//!   partition.
//! * [`FmoeMapPlacement`] — fMoE-map-aware: balances *within each
//!   layer* using predicted activation probabilities, so no single
//!   layer's hot experts pile onto one GPU and bottleneck that layer's
//!   all2all.
//!
//! Round-robin, load-balanced and fMoE-map cover the sweep in fig17.

use fmoe_model::ModelConfig;

/// A policy that assigns every expert a home GPU.
pub trait PlacementPolicy {
    /// Stable kebab-case name for CSV columns and CLI flags.
    fn name(&self) -> &'static str;

    /// Owner table for `model` on `num_gpus` devices:
    /// `owners[dense_expert_index] = gpu`, with every entry
    /// `< num_gpus`. Must be deterministic. A `num_gpus` of zero yields
    /// an empty table.
    fn assign(&self, model: &ModelConfig, num_gpus: u32) -> Vec<u32>;
}

/// Static round-robin over the dense expert index — the paper's §5
/// placement, and the owner table of the cache's default placement.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundRobinPlacement;

impl PlacementPolicy for RoundRobinPlacement {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn assign(&self, model: &ModelConfig, num_gpus: u32) -> Vec<u32> {
        if num_gpus == 0 {
            return Vec::new();
        }
        let total = model.num_layers as usize * model.experts_per_layer as usize;
        (0..total).map(|d| (d % num_gpus as usize) as u32).collect()
    }
}

/// Contiguous layer blocks: GPU `g` owns every expert of layers
/// `[g·L/G, (g+1)·L/G)`, so each expert of layer `l` goes to `l·G / L`.
/// The naive pipeline-style placement: each layer's on-demand loads
/// serialize on one host link, which is why the paper spreads every
/// layer round-robin instead (§5).
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerContiguousPlacement;

impl PlacementPolicy for LayerContiguousPlacement {
    fn name(&self) -> &'static str {
        "layer-contiguous"
    }

    fn assign(&self, model: &ModelConfig, num_gpus: u32) -> Vec<u32> {
        if num_gpus == 0 {
            return Vec::new();
        }
        let layers = u64::from(model.num_layers);
        (0..model.num_layers)
            .flat_map(|layer| {
                let gpu = (u64::from(layer) * u64::from(num_gpus) / layers) as u32;
                std::iter::repeat_n(gpu, model.experts_per_layer as usize)
            })
            .collect()
    }
}

/// Greedy weighted assignment: experts in descending-frequency order
/// (ties broken by dense index) each go to the least-loaded GPU, with a
/// per-GPU ownership cap of `ceil(total / num_gpus)` so the partition
/// stays memory-balanced even under extreme skew.
fn greedy_balance(order: &[usize], freq: &[f64], num_gpus: usize, cap: usize) -> Vec<(usize, u32)> {
    let mut load = vec![0.0f64; num_gpus];
    let mut owned = vec![0usize; num_gpus];
    let mut out = Vec::with_capacity(order.len());
    for &dense in order {
        let mut best = 0usize;
        for g in 1..num_gpus {
            let best_full = owned[best] >= cap;
            let g_full = owned[g] >= cap;
            if best_full && !g_full {
                best = g;
                continue;
            }
            if !best_full && g_full {
                continue;
            }
            if load[g] < load[best] {
                best = g;
            }
        }
        let f = freq.get(dense).copied().unwrap_or(1.0);
        load[best] += f;
        owned[best] += 1;
        out.push((dense, best as u32));
    }
    out
}

/// Descending-frequency order over `0..total`, ties broken by dense
/// index ascending (deterministic).
fn frequency_order(total: usize, freq: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..total).collect();
    order.sort_by(|&a, &b| {
        let fa = freq.get(a).copied().unwrap_or(1.0);
        let fb = freq.get(b).copied().unwrap_or(1.0);
        fb.total_cmp(&fa).then(a.cmp(&b))
    });
    order
}

/// Load-balanced placement by historical activation frequency: a global
/// greedy bin-pack of per-expert load, capped to keep ownership a
/// near-even partition. With uniform frequencies it degenerates to a
/// balanced spread (max/min owned-expert gap ≤ 1).
#[derive(Debug, Clone, Default)]
pub struct LoadBalancedPlacement {
    /// Per-expert activation frequency, indexed by dense expert index.
    /// Missing entries (or an empty vector) count as uniform `1.0`.
    pub frequencies: Vec<f64>,
}

impl LoadBalancedPlacement {
    /// Uniform-frequency variant (pure ownership balancing).
    #[must_use]
    pub fn uniform() -> Self {
        Self::default()
    }

    /// Builds from historical activation counts, dense-indexed.
    #[must_use]
    pub fn from_counts(counts: &[u64]) -> Self {
        Self {
            frequencies: counts.iter().map(|&c| c as f64).collect(),
        }
    }
}

impl PlacementPolicy for LoadBalancedPlacement {
    fn name(&self) -> &'static str {
        "load-balanced"
    }

    fn assign(&self, model: &ModelConfig, num_gpus: u32) -> Vec<u32> {
        if num_gpus == 0 {
            return Vec::new();
        }
        let n = num_gpus as usize;
        let total = model.num_layers as usize * model.experts_per_layer as usize;
        let cap = total.div_ceil(n);
        let order = frequency_order(total, &self.frequencies);
        let mut owners = vec![0u32; total];
        for (dense, gpu) in greedy_balance(&order, &self.frequencies, n, cap) {
            owners[dense] = gpu;
        }
        owners
    }
}

/// fMoE-map-aware placement: balances predicted activation probability
/// *within each layer* (per-layer greedy with a per-layer cap), so each
/// layer's hot experts are spread across GPUs and no single layer's
/// all2all serializes on one device. Global balancing can colocate one
/// layer's whole hot set; this cannot.
#[derive(Debug, Clone, Default)]
pub struct FmoeMapPlacement {
    /// Predicted per-expert activation probability, indexed by dense
    /// expert index (e.g. averaged over an fMoE expert-map store).
    /// Missing entries count as uniform `1.0`.
    pub probabilities: Vec<f64>,
}

impl FmoeMapPlacement {
    /// Builds from dense-indexed predicted probabilities.
    #[must_use]
    pub fn from_probabilities(probabilities: Vec<f64>) -> Self {
        Self { probabilities }
    }
}

impl PlacementPolicy for FmoeMapPlacement {
    fn name(&self) -> &'static str {
        "fmoe-map"
    }

    fn assign(&self, model: &ModelConfig, num_gpus: u32) -> Vec<u32> {
        if num_gpus == 0 {
            return Vec::new();
        }
        let n = num_gpus as usize;
        let per_layer = model.experts_per_layer as usize;
        let total = model.num_layers as usize * per_layer;
        let cap = per_layer.div_ceil(n).max(1);
        let mut owners = vec![0u32; total];
        for layer in 0..model.num_layers as usize {
            let base = layer * per_layer;
            let mut order: Vec<usize> = (base..base + per_layer).collect();
            order.sort_by(|&a, &b| {
                let fa = self.probabilities.get(a).copied().unwrap_or(1.0);
                let fb = self.probabilities.get(b).copied().unwrap_or(1.0);
                fb.total_cmp(&fa).then(a.cmp(&b))
            });
            for (dense, gpu) in greedy_balance(&order, &self.probabilities, n, cap) {
                owners[dense] = gpu;
            }
        }
        owners
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmoe_cache::{ExpertCache, LruPolicy};
    use fmoe_model::{presets, ExpertId};

    fn model() -> ModelConfig {
        presets::tiny_test_model()
    }

    fn policies(freq: Vec<f64>) -> Vec<Box<dyn PlacementPolicy>> {
        vec![
            Box::new(RoundRobinPlacement),
            Box::new(LayerContiguousPlacement),
            Box::new(LoadBalancedPlacement {
                frequencies: freq.clone(),
            }),
            Box::new(FmoeMapPlacement {
                probabilities: freq,
            }),
        ]
    }

    fn skewed_frequencies(total: usize) -> Vec<f64> {
        (0..total).map(|d| 1.0 + ((d * 7) % 13) as f64).collect()
    }

    #[test]
    fn assignment_is_deterministic_across_double_runs() {
        let m = model();
        let total = m.num_layers as usize * m.experts_per_layer as usize;
        for policy in policies(skewed_frequencies(total)) {
            let a = policy.assign(&m, 4);
            let b = policy.assign(&m, 4);
            assert_eq!(a, b, "{} not deterministic", policy.name());
        }
    }

    #[test]
    fn ownership_is_a_partition_of_the_expert_set() {
        let m = model();
        let total = m.num_layers as usize * m.experts_per_layer as usize;
        for gpus in [1u32, 2, 3, 4] {
            for policy in policies(skewed_frequencies(total)) {
                let owners = policy.assign(&m, gpus);
                // Every expert has exactly one owner, and every owner is
                // a real GPU: the per-GPU owned sets are disjoint and
                // their union is the whole expert set.
                assert_eq!(owners.len(), total, "{}", policy.name());
                assert!(
                    owners.iter().all(|&g| g < gpus),
                    "{} assigned an out-of-range GPU",
                    policy.name()
                );
            }
        }
    }

    #[test]
    fn load_balanced_spread_is_at_most_one_on_uniform_frequencies() {
        let m = model();
        for gpus in [2u32, 3, 4, 5] {
            let owners = LoadBalancedPlacement::uniform().assign(&m, gpus);
            let mut owned = vec![0usize; gpus as usize];
            for &g in &owners {
                owned[g as usize] += 1;
            }
            let max = owned.iter().copied().max().unwrap_or(0);
            let min = owned.iter().copied().min().unwrap_or(0);
            assert!(
                max - min <= 1,
                "uniform load-balanced spread {max}-{min} > 1 at {gpus} GPUs"
            );
        }
    }

    fn all_presets() -> Vec<ModelConfig> {
        vec![
            presets::mixtral_8x7b(),
            presets::qwen15_moe_a27b(),
            presets::phi35_moe(),
            presets::deepseek_moe_16b(),
            presets::tiny_test_model(),
            presets::small_test_model(),
        ]
    }

    /// The table `RoundRobinPlacement` installs changes no home: it is
    /// what the cache computes with no table installed.
    #[test]
    fn round_robin_matches_the_cache_default() {
        for m in all_presets() {
            for gpus in 1..=8u32 {
                let cache = ExpertCache::new(&m, 0, gpus, Box::new(LruPolicy::new()));
                assert!(cache.assignment().is_none());
                let owners = RoundRobinPlacement.assign(&m, gpus);
                assert_eq!(
                    owners.len(),
                    m.all_experts().count(),
                    "{} on {gpus}",
                    m.name
                );
                for (dense, &gpu) in owners.iter().enumerate() {
                    let expert = ExpertId::from_dense_index(dense, m.experts_per_layer);
                    assert_eq!(gpu, cache.home_gpu(expert), "{} on {gpus}", m.name);
                }
            }
        }
    }

    #[test]
    fn layer_contiguous_owner_is_layer_times_gpus_over_layers() {
        for m in all_presets() {
            for gpus in 1..=8u32 {
                let owners = LayerContiguousPlacement.assign(&m, gpus);
                assert_eq!(
                    owners.len(),
                    m.all_experts().count(),
                    "{} on {gpus}",
                    m.name
                );
                for (dense, &gpu) in owners.iter().enumerate() {
                    let layer = ExpertId::from_dense_index(dense, m.experts_per_layer).layer;
                    let want = u64::from(layer) * u64::from(gpus) / u64::from(m.num_layers);
                    assert_eq!(u64::from(gpu), want, "{} on {gpus}", m.name);
                }
            }
        }
        // Tiny model (4 layers × 4 experts) on two GPUs: layers 0..2 on
        // GPU 0, layers 2..4 on GPU 1.
        assert_eq!(
            LayerContiguousPlacement.assign(&model(), 2),
            [[0; 8], [1; 8]].concat()
        );
    }

    #[test]
    fn fmoe_map_balances_every_layer() {
        let m = model();
        let total = m.num_layers as usize * m.experts_per_layer as usize;
        let owners = FmoeMapPlacement::from_probabilities(skewed_frequencies(total)).assign(&m, 2);
        let per_layer = m.experts_per_layer as usize;
        for layer in 0..m.num_layers as usize {
            let slice = &owners[layer * per_layer..(layer + 1) * per_layer];
            let g0 = slice.iter().filter(|&&g| g == 0).count();
            let g1 = slice.len() - g0;
            assert!(
                g0.abs_diff(g1) <= 1,
                "layer {layer} ownership {g0}/{g1} unbalanced"
            );
        }
    }

    #[test]
    fn load_balanced_puts_heavy_experts_on_distinct_gpus() {
        let m = model();
        let total = m.num_layers as usize * m.experts_per_layer as usize;
        let mut freq = vec![1.0f64; total];
        freq[0] = 1000.0;
        freq[1] = 900.0;
        let owners = LoadBalancedPlacement { frequencies: freq }.assign(&m, 2);
        assert_ne!(owners[0], owners[1], "two hottest experts colocated");
    }
}
