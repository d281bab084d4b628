//! Property-based tests for the statistics primitives.

#![cfg(test)]

use crate::cdf::EmpiricalCdf;
use crate::cosine::cosine_similarity;
use crate::entropy::{normalized_shannon_entropy, shannon_entropy, shannon_entropy_of_counts};
use crate::pearson::pearson_correlation;
use crate::rng::{gumbel_noise, hash_fold, hash_to_unit, normal_noise, SplitMix64, HASH_INIT};
use crate::summary::Summary;
use proptest::prelude::*;

/// The coordinate hash as first written: a fresh fold per call and a
/// heap-allocated tuple for the normal's second uniform. The prefix-fold
/// forms in `rng` must reproduce it bit for bit.
mod vec_hash {
    use crate::rng::SplitMix64;

    pub fn hash_to_unit(coords: &[u64]) -> f64 {
        let mut acc = 0x243F_6A88_85A3_08D3u64;
        for &c in coords {
            acc = SplitMix64::mix(acc ^ c.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        }
        (acc >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn gumbel_noise(coords: &[u64]) -> f64 {
        let u = hash_to_unit(coords).clamp(1e-12, 1.0 - 1e-12);
        -(-u.ln()).ln()
    }

    pub fn normal_noise(coords: &[u64]) -> f64 {
        let u1 = hash_to_unit(coords).clamp(1e-12, 1.0 - 1e-12);
        let mut shifted: Vec<u64> = coords.to_vec();
        shifted.push(0x5851_F42D_4C95_7F2D);
        let u2 = hash_to_unit(&shifted);
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

/// A random probability distribution of length 2..=32.
fn distribution() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0f64..1.0, 2..32).prop_map(|mut v| {
        let sum: f64 = v.iter().sum();
        if sum <= 0.0 {
            let n = v.len() as f64;
            v.iter_mut().for_each(|x| *x = 1.0 / n);
        } else {
            v.iter_mut().for_each(|x| *x /= sum);
        }
        v
    })
}

proptest! {
    #[test]
    fn entropy_is_bounded(dist in distribution()) {
        let h = shannon_entropy(&dist);
        prop_assert!(h >= -1e-9);
        prop_assert!(h <= (dist.len() as f64).log2() + 1e-9);
    }

    #[test]
    fn normalized_entropy_in_unit_interval(dist in distribution()) {
        let h = normalized_shannon_entropy(&dist);
        prop_assert!((0.0..=1.0).contains(&h));
    }

    #[test]
    fn entropy_of_counts_scale_invariant(
        dist in distribution(),
        scale in 1.0f64..1000.0,
    ) {
        let scaled: Vec<f64> = dist.iter().map(|p| p * scale).collect();
        let a = shannon_entropy_of_counts(&dist);
        let b = shannon_entropy_of_counts(&scaled);
        prop_assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }

    #[test]
    fn cosine_is_bounded_and_symmetric(
        a in prop::collection::vec(-100.0f64..100.0, 1..32),
        b in prop::collection::vec(-100.0f64..100.0, 1..32),
    ) {
        let n = a.len().min(b.len());
        let s1 = cosine_similarity(&a[..n], &b[..n]);
        let s2 = cosine_similarity(&b[..n], &a[..n]);
        prop_assert!((-1.0..=1.0).contains(&s1));
        prop_assert!((s1 - s2).abs() < 1e-12);
    }

    #[test]
    fn cosine_self_similarity_is_one(
        a in prop::collection::vec(-100.0f64..100.0, 1..32),
    ) {
        prop_assume!(a.iter().any(|&x| x.abs() > 1e-6));
        let s = cosine_similarity(&a, &a);
        prop_assert!((s - 1.0).abs() < 1e-9, "{s}");
    }

    #[test]
    fn cosine_scale_invariant(
        a in prop::collection::vec(-10.0f64..10.0, 2..16),
        b in prop::collection::vec(-10.0f64..10.0, 2..16),
        k in 0.1f64..100.0,
    ) {
        let n = a.len().min(b.len());
        let scaled: Vec<f64> = a[..n].iter().map(|x| x * k).collect();
        let s1 = cosine_similarity(&a[..n], &b[..n]);
        let s2 = cosine_similarity(&scaled, &b[..n]);
        prop_assert!((s1 - s2).abs() < 1e-9);
    }

    #[test]
    fn pearson_is_bounded(
        pairs in prop::collection::vec((-100.0f64..100.0, -100.0f64..100.0), 3..64),
    ) {
        let xs: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        if let Some(r) = pearson_correlation(&xs, &ys) {
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r), "{r}");
        }
    }

    #[test]
    fn pearson_of_identical_series_is_one(
        xs in prop::collection::vec(-100.0f64..100.0, 3..64),
    ) {
        if let Some(r) = pearson_correlation(&xs, &xs) {
            prop_assert!((r - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn cdf_is_monotone(sample in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let cdf = EmpiricalCdf::new(sample);
        let pts = cdf.points(50);
        for w in pts.windows(2) {
            prop_assert!(w[0].0 <= w[1].0);
            prop_assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn cdf_quantiles_are_monotone(sample in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let cdf = EmpiricalCdf::new(sample);
        let mut last = f64::NEG_INFINITY;
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0] {
            let v = cdf.quantile(q).unwrap();
            prop_assert!(v >= last);
            last = v;
        }
    }

    #[test]
    fn cdf_fraction_matches_manual_count(
        sample in prop::collection::vec(-1000.0f64..1000.0, 1..100),
        x in -1000.0f64..1000.0,
    ) {
        let cdf = EmpiricalCdf::new(sample.clone());
        let manual = sample.iter().filter(|&&v| v <= x).count() as f64
            / sample.len() as f64;
        prop_assert!((cdf.fraction_at_or_below(x) - manual).abs() < 1e-12);
    }

    #[test]
    fn summary_matches_naive_computation(
        sample in prop::collection::vec(-1e3f64..1e3, 1..100),
    ) {
        let s = Summary::of(&sample);
        let mean = sample.iter().sum::<f64>() / sample.len() as f64;
        prop_assert!((s.mean() - mean).abs() < 1e-6);
        prop_assert_eq!(s.count(), sample.len() as u64);
        let min = sample.iter().copied().fold(f64::INFINITY, f64::min);
        let max = sample.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(s.min().unwrap(), min);
        prop_assert_eq!(s.max().unwrap(), max);
    }

    #[test]
    fn summary_merge_is_order_independent(
        a in prop::collection::vec(-1e3f64..1e3, 1..50),
        b in prop::collection::vec(-1e3f64..1e3, 1..50),
    ) {
        let mut ab = Summary::of(&a);
        ab.merge(&Summary::of(&b));
        let mut ba = Summary::of(&b);
        ba.merge(&Summary::of(&a));
        prop_assert!((ab.mean() - ba.mean()).abs() < 1e-9);
        prop_assert!((ab.variance() - ba.variance()).abs() < 1e-6);
    }

    #[test]
    fn hash_to_unit_stays_in_range(coords in prop::collection::vec(any::<u64>(), 0..8)) {
        let v = hash_to_unit(&coords);
        prop_assert!((0.0..1.0).contains(&v));
    }

    #[test]
    fn splitmix_streams_from_equal_seeds_agree(seed in any::<u64>()) {
        let mut a = SplitMix64::new(seed);
        let mut b = SplitMix64::new(seed);
        for _ in 0..8 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn prefix_fold_noise_matches_vec_formula(
        coords in prop::collection::vec(any::<u64>(), 1..=8),
        split in 0usize..=8,
    ) {
        prop_assert_eq!(hash_to_unit(&coords).to_bits(), vec_hash::hash_to_unit(&coords).to_bits());
        prop_assert_eq!(gumbel_noise(&coords).to_bits(), vec_hash::gumbel_noise(&coords).to_bits());
        prop_assert_eq!(normal_noise(&coords).to_bits(), vec_hash::normal_noise(&coords).to_bits());
        // Folding a prefix once and finishing from it is the same hash.
        let (head, tail) = coords.split_at(split.min(coords.len()));
        prop_assert_eq!(
            hash_fold(hash_fold(HASH_INIT, head), tail),
            hash_fold(HASH_INIT, &coords)
        );
    }
}
