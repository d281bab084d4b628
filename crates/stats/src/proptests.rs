//! Property-based tests for the statistics primitives.

#![cfg(test)]

use crate::cdf::EmpiricalCdf;
use crate::cosine::{add_row_dots, argmax_cosine_slab, cosine_similarity, top_k_cosine_slab};
use crate::entropy::{normalized_shannon_entropy, shannon_entropy, shannon_entropy_of_counts};
use crate::pearson::pearson_correlation;
use crate::rng::{gumbel_noise, hash_fold, hash_to_unit, normal_noise, SplitMix64, HASH_INIT};
use crate::summary::Summary;
use proptest::prelude::*;

/// The row widths the 4-row kernels are pinned at: Mixtral's and
/// Phi-3.5-MoE's expert counts, the embedding dimension's order and an
/// odd width that no tile divides.
const KERNEL_WIDTHS: [usize; 4] = [4, 8, 16, 60];

/// Slab values where zeros and exact repeats are common, so zero norms
/// and tied scores show up.
fn slab_value() -> impl Strategy<Value = f64> {
    prop_oneof![-1.0f64..1.0, -1.0f64..1.0, Just(0.0), Just(0.5)]
}

/// The one-row loop the 4-row kernel replaced: each row's dot summed
/// left to right onto its starting value.
fn one_row_dots(block: &[f64], width: usize, query: &[f64], dots: &mut [f64]) {
    for (dot, row) in dots.iter_mut().zip(block.chunks_exact(width)) {
        for (a, b) in query.iter().zip(row) {
            *dot += a * b;
        }
    }
}

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

    #[test]
    fn row_dot_kernel_is_bit_identical_to_one_row_loop(
        values in prop::collection::vec(slab_value(), 60 * 13),
        query in prop::collection::vec(slab_value(), 61),
        start in prop::collection::vec(-1.0f64..1.0, 13),
    ) {
        // Every residue of the row count mod 4, a partial `dots` that
        // stops short of the block, and a query longer than the rows.
        for width in KERNEL_WIDTHS {
            for rows in 0..=9 {
                let block = &values[..rows * width];
                for (q, n) in [(&query[..width], rows), (&query[..], rows), (&query[..width], rows / 2)] {
                    let mut want = start[..n].to_vec();
                    one_row_dots(block, width, q, &mut want);
                    let mut got = start[..n].to_vec();
                    add_row_dots(block, width, q, &mut got);
                    for (g, w) in got.iter().zip(&want) {
                        prop_assert_eq!(g.to_bits(), w.to_bits(), "width {} rows {}", width, rows);
                    }
                }
            }
        }
    }

    #[test]
    fn slab_searches_are_bit_identical_to_per_row_cosine(
        values in prop::collection::vec(slab_value(), 60 * 13),
        query in prop::collection::vec(slab_value(), 60),
        copies in prop::collection::vec(0usize..13, 0..4),
    ) {
        for width in KERNEL_WIDTHS {
            for rows in 1..=13 {
                let mut slab = values[..rows * width].to_vec();
                // Duplicate rows tie exactly; the tie rules must hold.
                for (k, &from) in copies.iter().enumerate() {
                    let (src, dst) = (from % rows, (from + k + 1) % rows);
                    let row = slab[src * width..(src + 1) * width].to_vec();
                    slab[dst * width..(dst + 1) * width].copy_from_slice(&row);
                }
                // And a zero row has a zero norm, so it scores 0.
                if let Some(&zero) = copies.first() {
                    slab[zero % rows * width..(zero % rows + 1) * width].fill(0.0);
                }
                let norms: Vec<f64> = slab
                    .chunks_exact(width)
                    .map(|r| r.iter().map(|x| x * x).sum())
                    .collect();
                let zero_query = vec![0.0; width];
                for q in [&query[..width], &zero_query[..]] {
                let reference: Vec<f64> = slab.chunks_exact(width).map(|r| cosine_similarity(q, r)).collect();
                let mut dots = Vec::new();
                let (best, score) = argmax_cosine_slab(q, &slab, width, &norms, &mut dots).unwrap();
                prop_assert_eq!(dots.len(), rows);
                let want = reference
                    .iter()
                    .enumerate()
                    .fold(None, |b: Option<(usize, f64)>, (i, &s)| match b {
                        Some((_, bs)) if bs >= s => b,
                        _ => Some((i, s)),
                    })
                    .unwrap();
                prop_assert_eq!(best, want.0);
                prop_assert_eq!(score.to_bits(), want.1.to_bits());
                let mut order: Vec<usize> = (0..rows).collect();
                order.sort_by(|&a, &b| reference[b].total_cmp(&reference[a]).then(a.cmp(&b)));
                let top = top_k_cosine_slab(q, &slab, width, &norms, 3);
                prop_assert_eq!(top.len(), rows.min(3));
                for (&(i, s), &w) in top.iter().zip(&order) {
                    prop_assert_eq!(i, w);
                    prop_assert_eq!(s.to_bits(), reference[w].to_bits());
                }
                }
            }
        }
    }
}
