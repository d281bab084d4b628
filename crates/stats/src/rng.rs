//! Deterministic random-number utilities.
//!
//! Every experiment in the workspace must be reproducible bit-for-bit, so
//! all stochastic components are driven either by a seeded [`rand`] RNG or
//! by *stateless* hash-based noise. The hash-based form
//! ([`hash_to_unit`], [`gumbel_noise`]) is what the gate simulator uses: it
//! lets two independent consumers (e.g. a policy replaying a trajectory and
//! the engine generating it) observe identical randomness for the same
//! `(request, iteration, layer, expert)` coordinates without sharing any
//! mutable state.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// A deterministic RNG for experiment code; a thin alias over a seeded
/// [`StdRng`] so the concrete generator can be swapped in one place.
pub type DeterministicRng = StdRng;

/// Creates a [`DeterministicRng`] from a 64-bit seed.
#[must_use]
pub fn seeded_rng(seed: u64) -> DeterministicRng {
    StdRng::seed_from_u64(seed)
}

/// SplitMix64: a tiny, high-quality 64-bit mixer.
///
/// Used both as a standalone sequential generator and (via
/// [`SplitMix64::mix`]) as a stateless hash for coordinate-indexed noise.
#[derive(Debug, Clone, Copy)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator with the given seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Returns the next 64-bit output and advances the state.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        Self::mix(self.state)
    }

    /// Returns the next output mapped to `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 high bits -> double in [0, 1).
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// The SplitMix64 finalizer: a stateless avalanche mix of one word.
    #[must_use]
    pub fn mix(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Initial accumulator of the coordinate hash (pi fractional bits).
pub const HASH_INIT: u64 = 0x243F_6A88_85A3_08D3;

/// Extra coordinate that derives [`normal_noise`]'s second uniform.
const NORMAL_TWEAK: u64 = 0x5851_F42D_4C95_7F2D;

/// Folds a coordinate tuple into a hash accumulator, left to right through
/// the SplitMix64 mixer.
///
/// `hash_fold(hash_fold(HASH_INIT, a), b)` equals
/// `hash_fold(HASH_INIT, a ++ b)`, so a caller that hashes many tuples
/// sharing a prefix folds the prefix once and finishes each tuple from
/// there.
#[must_use]
#[inline]
pub fn hash_fold(mut acc: u64, coords: &[u64]) -> u64 {
    for &c in coords {
        acc = SplitMix64::mix(acc ^ c.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    }
    acc
}

/// Maps a folded accumulator to `[0, 1)` (53 high bits).
#[must_use]
#[inline]
pub fn unit_of(acc: u64) -> f64 {
    (acc >> 11) as f64 / (1u64 << 53) as f64
}

/// Standard-Gumbel noise from a folded accumulator.
#[must_use]
#[inline]
pub fn gumbel_of(acc: u64) -> f64 {
    // Clamp away from 0 and 1 to keep the double log finite.
    let u = unit_of(acc).clamp(1e-12, 1.0 - 1e-12);
    -(-u.ln()).ln()
}

/// Hashes an arbitrary coordinate tuple to a deterministic value in
/// `[0, 1)`.
///
/// The coordinates are folded left-to-right through the SplitMix64 mixer,
/// so permuting them yields independent streams.
#[must_use]
pub fn hash_to_unit(coords: &[u64]) -> f64 {
    unit_of(hash_fold(HASH_INIT, coords))
}

/// Deterministic standard-Gumbel noise for a coordinate tuple.
///
/// Adding Gumbel noise to logits and taking top-k is equivalent to sampling
/// without replacement from the softmax — the standard trick the gate
/// simulator uses to produce realistic stochastic-but-reproducible routing.
#[must_use]
pub fn gumbel_noise(coords: &[u64]) -> f64 {
    gumbel_of(hash_fold(HASH_INIT, coords))
}

/// Deterministic standard-normal noise (Box–Muller on hashed uniforms).
#[must_use]
pub fn normal_noise(coords: &[u64]) -> f64 {
    let acc = hash_fold(HASH_INIT, coords);
    let u1 = unit_of(acc).clamp(1e-12, 1.0 - 1e-12);
    // The second uniform extends the same coordinate stream by one word.
    let u2 = unit_of(hash_fold(acc, &[NORMAL_TWEAK]));
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    #[test]
    fn seeded_rng_is_deterministic() {
        let mut a = seeded_rng(42);
        let mut b = seeded_rng(42);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn splitmix_sequence_is_reproducible() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SplitMix64::new(8);
        assert_ne!(SplitMix64::new(7).next_u64(), c.next_u64());
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut g = SplitMix64::new(1);
        for _ in 0..1000 {
            let v = g.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn hash_to_unit_is_stateless_and_coordinate_sensitive() {
        let a = hash_to_unit(&[1, 2, 3]);
        let b = hash_to_unit(&[1, 2, 3]);
        assert_eq!(a, b);
        assert_ne!(hash_to_unit(&[1, 2, 3]), hash_to_unit(&[3, 2, 1]));
        assert_ne!(hash_to_unit(&[1, 2, 3]), hash_to_unit(&[1, 2, 4]));
    }

    #[test]
    fn hash_to_unit_looks_uniform() {
        // Crude uniformity check: mean of many hashed values near 0.5.
        let n = 10_000u64;
        let mean: f64 = (0..n).map(|i| hash_to_unit(&[i, 99])).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean was {mean}");
    }

    #[test]
    fn gumbel_noise_is_finite_and_has_expected_location() {
        // Standard Gumbel has mean ~= Euler-Mascheroni (0.5772).
        let n = 20_000u64;
        let mean: f64 = (0..n).map(|i| gumbel_noise(&[i])).sum::<f64>() / n as f64;
        assert!((mean - 0.5772).abs() < 0.05, "mean was {mean}");
    }

    #[test]
    fn normal_noise_moments() {
        let n = 20_000u64;
        let samples: Vec<f64> = (0..n).map(|i| normal_noise(&[i, 5])).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean was {mean}");
        assert!((var - 1.0).abs() < 0.1, "variance was {var}");
    }
}
