//! Cache statistics.

use serde::Serialize;

/// Counters describing cache behaviour over an experiment.
///
/// Invariant (checked by [`CacheStats::check_invariants`]): every lookup
/// is either a hit or a miss, so `hits + misses == lookups` — per cache
/// and for any [`CacheStats::merged`] sum of such stats. Warm-restart
/// replays are booked separately under `warmup_inserts` so merging a
/// pre-crash snapshot with post-restart stats never double-counts
/// replayed experts as demand insertions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct CacheStats {
    /// Expert lookups that found the expert resident.
    pub hits: u64,
    /// Expert lookups that missed (triggering on-demand loads).
    pub misses: u64,
    /// Total lookups recorded (`hits + misses`, kept explicitly so the
    /// invariant is checkable after merges).
    pub lookups: u64,
    /// Experts inserted (prefetch or on-demand completion).
    pub insertions: u64,
    /// Experts re-inserted by warm-restart replay (not fresh demand).
    pub warmup_inserts: u64,
    /// Experts evicted to make room.
    pub evictions: u64,
    /// Inserts refused because the expert exceeds its GPU budget outright.
    pub rejected_inserts: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`; `0.0` when no accesses were recorded.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Total recorded accesses.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// `true` when the lookup accounting identity `hits + misses ==
    /// lookups` holds. Holds for any cache and any
    /// [`CacheStats::merged`] combination of stats that individually
    /// hold it (the identity is linear).
    #[must_use]
    pub fn check_invariants(&self) -> bool {
        self.hits + self.misses == self.lookups
    }

    /// Field-wise sum with `other`. Used to carry counters across a
    /// replica restart (`ExpertCache::clear` resets stats, so lifetime
    /// accounting adds the pre-restart snapshot back in) and to merge
    /// per-replica stats into one fleet view.
    #[must_use]
    pub fn merged(&self, other: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            lookups: self.lookups + other.lookups,
            insertions: self.insertions + other.insertions,
            warmup_inserts: self.warmup_inserts + other.warmup_inserts,
            evictions: self.evictions + other.evictions,
            rejected_inserts: self.rejected_inserts + other.rejected_inserts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_computation() {
        let s = CacheStats {
            hits: 3,
            misses: 1,
            ..Default::default()
        };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(s.accesses(), 4);
    }

    #[test]
    fn empty_stats_hit_rate_is_zero() {
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn merged_sums_field_wise_with_default_identity() {
        let a = CacheStats {
            hits: 3,
            misses: 1,
            lookups: 4,
            insertions: 5,
            warmup_inserts: 2,
            evictions: 2,
            rejected_inserts: 1,
        };
        let b = CacheStats {
            hits: 7,
            misses: 9,
            lookups: 16,
            insertions: 1,
            warmup_inserts: 0,
            evictions: 0,
            rejected_inserts: 4,
        };
        let m = a.merged(&b);
        assert_eq!(m.hits, 10);
        assert_eq!(m.misses, 10);
        assert_eq!(m.lookups, 20);
        assert_eq!(m.insertions, 6);
        assert_eq!(m.warmup_inserts, 2);
        assert_eq!(m.evictions, 2);
        assert_eq!(m.rejected_inserts, 5);
        assert_eq!(a.merged(&CacheStats::default()), a);
    }

    #[test]
    fn lookup_invariant_holds_and_is_preserved_by_merge() {
        let a = CacheStats {
            hits: 3,
            misses: 1,
            lookups: 4,
            ..Default::default()
        };
        let b = CacheStats {
            hits: 0,
            misses: 6,
            lookups: 6,
            ..Default::default()
        };
        assert!(a.check_invariants());
        assert!(b.check_invariants());
        assert!(a.merged(&b).check_invariants());
        let broken = CacheStats {
            hits: 1,
            misses: 1,
            lookups: 3,
            ..Default::default()
        };
        assert!(!broken.check_invariants());
    }
}
