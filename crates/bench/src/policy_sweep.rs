//! Eviction-policy miss-ratio sweeps over seeded Zipf expert traces.
//!
//! The fig11 binary compares eviction policies (LRU, LFU, SIEVE, FIFO)
//! on the same skewed expert-access stream at several cache sizes. The
//! stream is a Zipf(s) draw over the model's experts from a splitmix64
//! generator — fully seeded (FM003: no ambient entropy), so every run
//! replays the same accesses and the resulting miss ratios are exact,
//! reproducible numbers rather than sampled estimates.

use fmoe_cache::{ExpertCache, PolicyKind};
use fmoe_model::{ExpertId, ModelConfig};
use fmoe_stats::SplitMix64;

/// A seeded Zipf(s)-distributed expert-access trace over all of
/// `model`'s experts. Rank → expert is scrambled by a seeded
/// Fisher–Yates pass so popularity does not correlate with layer order
/// (which would make round-robin placement accidentally adversarial).
#[must_use]
pub fn zipf_expert_trace(
    model: &ModelConfig,
    accesses: usize,
    skew: f64,
    seed: u64,
) -> Vec<ExpertId> {
    let n = (model.num_layers * model.experts_per_layer) as usize;
    let mut rng = SplitMix64::new(seed);

    // Rank permutation: rank r (popular → rare) maps to experts[perm[r]].
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        perm.swap(i, j);
    }

    // Zipf CDF over ranks 1..=n with exponent `skew`.
    let mut cdf = Vec::with_capacity(n);
    let mut acc = 0.0f64;
    for r in 1..=n {
        acc += 1.0 / (r as f64).powf(skew);
        cdf.push(acc);
    }
    let total = acc;

    (0..accesses)
        .map(|_| {
            let u = rng.next_f64() * total;
            let rank = cdf.partition_point(|&c| c < u).min(n - 1);
            ExpertId::from_dense_index(perm[rank], model.experts_per_layer)
        })
        .collect()
}

/// Replays `trace` against a fresh single-GPU cache holding `slots`
/// experts under `kind`, faulting every miss in (access → miss →
/// insert), and returns the miss ratio in `[0, 1]`.
#[must_use]
pub fn replay_miss_ratio(
    model: &ModelConfig,
    slots: u64,
    kind: PolicyKind,
    trace: &[ExpertId],
) -> f64 {
    let mut cache = ExpertCache::new(model, model.expert_bytes() * slots, 1, kind.build());
    let mut now = 0u64;
    for &e in trace {
        now += 1;
        if !cache.record_access(e, now) {
            let _ = cache.insert(e, now);
        }
    }
    let stats = cache.stats();
    debug_assert!(stats.check_invariants());
    if stats.lookups == 0 {
        0.0
    } else {
        stats.misses as f64 / stats.lookups as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmoe_model::presets;

    #[test]
    fn zipf_trace_is_seed_deterministic_and_skewed() {
        let model = presets::small_test_model();
        let a = zipf_expert_trace(&model, 4_000, 1.0, 7);
        let b = zipf_expert_trace(&model, 4_000, 1.0, 7);
        assert_eq!(a, b, "same seed, same trace");
        let c = zipf_expert_trace(&model, 4_000, 1.0, 8);
        assert_ne!(a, c, "different seed, different trace");
        // Skew: the most popular expert dominates a uniform share.
        let mut counts = std::collections::BTreeMap::new();
        for e in &a {
            *counts.entry(*e).or_insert(0u64) += 1;
        }
        let max = counts.values().copied().max().unwrap_or(0);
        let uniform = a.len() as u64 / 64;
        assert!(
            max > uniform * 4,
            "Zipf head should dominate: {max} vs {uniform}"
        );
    }

    #[test]
    fn replay_yields_sane_monotone_miss_ratios() {
        let model = presets::small_test_model();
        let trace = zipf_expert_trace(&model, 6_000, 1.0, 42);
        for kind in [PolicyKind::Lru, PolicyKind::Sieve, PolicyKind::Fifo] {
            let small = replay_miss_ratio(&model, 8, kind, &trace);
            let large = replay_miss_ratio(&model, 32, kind, &trace);
            assert!((0.0..=1.0).contains(&small));
            assert!(
                large <= small,
                "{kind:?}: more slots cannot miss more ({large} > {small})"
            );
        }
    }
}
