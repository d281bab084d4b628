//! Flat, dense-index containers keyed by [`ExpertId::dense_index`].
//!
//! The hot loops of the serving engine touch small-integer expert ids
//! (`0..L·J`, a few hundred at most) every simulated iteration. Keying
//! those paths on `BTreeMap<ExpertId, _>` pays pointer-chasing and node
//! allocation for what is structurally an array lookup. [`DenseIdSet`]
//! and [`DenseIdMap`] are the flat replacements: a `u64` bitset for
//! membership and a presence-bitset + values `Vec` for association,
//! both sized once (`L·J` slots) and reused across iterations so the
//! steady state allocates nothing.
//!
//! **Iteration-order contract.** `ExpertId` derives `Ord` with
//! `(layer, slot)` lexicographic order, which is exactly ascending
//! `dense_index` order (`layer · J + slot`). Both containers iterate in
//! ascending dense-index order, so replacing a `BTreeSet<ExpertId>` /
//! `BTreeMap<ExpertId, _>` with them preserves iteration order — the
//! property the byte-identical golden-trace suite pins (DESIGN.md §16).
//!
//! Out-of-range indices are handled without panicking: `insert` reports
//! rejection, `contains`/`get` answer "absent". Every simulated model is
//! fixed-size, so a rejection only ever signals a cross-model id mix-up
//! — which the engine treats the same way the map-based code treated an
//! id that simply was not present.

use crate::expert::ExpertId;

const WORD_BITS: usize = 64;

/// A fixed-capacity bitset over dense expert indices `0..capacity`.
///
/// ```
/// use fmoe_model::dense::DenseIdSet;
///
/// let mut set = DenseIdSet::with_capacity(10);
/// assert!(set.insert(3));
/// assert!(!set.insert(3), "already present");
/// assert!(set.insert(7));
/// assert!(set.contains(3));
/// assert_eq!(set.iter().collect::<Vec<_>>(), vec![3, 7]);
/// assert!(set.remove(3));
/// assert!(!set.remove(3), "already absent");
/// assert_eq!(set.len(), 1);
/// assert!(!set.insert(10), "out of range is rejected, not inserted");
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DenseIdSet {
    words: Vec<u64>,
    capacity: usize,
    len: usize,
}

impl DenseIdSet {
    /// An empty set over indices `0..capacity`.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            words: vec![0; capacity.div_ceil(WORD_BITS)],
            capacity,
            len: 0,
        }
    }

    /// Number of indices this set can hold (`0..capacity`).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of present indices.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no index is present.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `index` is present. Out-of-range indices are absent.
    #[must_use]
    pub fn contains(&self, index: usize) -> bool {
        index < self.capacity && self.words[index / WORD_BITS] & (1u64 << (index % WORD_BITS)) != 0
    }

    /// Inserts `index`; returns whether the set changed. Out-of-range
    /// indices are rejected (returns `false`, set unchanged).
    pub fn insert(&mut self, index: usize) -> bool {
        if index >= self.capacity {
            return false;
        }
        let (word, bit) = (index / WORD_BITS, 1u64 << (index % WORD_BITS));
        if self.words[word] & bit != 0 {
            return false;
        }
        self.words[word] |= bit;
        self.len += 1;
        true
    }

    /// Removes `index`; returns whether it was present.
    pub fn remove(&mut self, index: usize) -> bool {
        if index >= self.capacity {
            return false;
        }
        let (word, bit) = (index / WORD_BITS, 1u64 << (index % WORD_BITS));
        if self.words[word] & bit == 0 {
            return false;
        }
        self.words[word] &= !bit;
        self.len -= 1;
        true
    }

    /// Clears every index without releasing storage.
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.len = 0;
    }

    /// Present indices in ascending order — the same order a
    /// `BTreeSet<ExpertId>` would yield (see module docs).
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &bits)| {
            let base = w * WORD_BITS;
            BitIter { bits }.map(move |b| base + b)
        })
    }

    /// Present indices as [`ExpertId`]s, ascending — `(layer, slot)`
    /// lexicographic, matching `ExpertId`'s `Ord`.
    pub fn iter_experts(&self, experts_per_layer: u32) -> impl Iterator<Item = ExpertId> + '_ {
        self.iter()
            .map(move |i| ExpertId::from_dense_index(i, experts_per_layer))
    }
}

/// Iterates the set bits of one word, ascending.
struct BitIter {
    bits: u64,
}

impl Iterator for BitIter {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.bits == 0 {
            return None;
        }
        let b = self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(b)
    }
}

/// A fixed-capacity map from dense expert indices to `T`: a presence
/// bitset plus a values `Vec`, iterated in ascending index order.
///
/// `T: Default` only because absent slots need a placeholder value; the
/// placeholder is never observable through the map's API.
///
/// ```
/// use fmoe_model::dense::DenseIdMap;
///
/// let mut map: DenseIdMap<u64> = DenseIdMap::with_capacity(8);
/// assert_eq!(map.insert(2, 20), None);
/// assert_eq!(map.insert(2, 21), Some(20), "replaced");
/// map.insert(5, 50);
/// assert_eq!(map.get(2), Some(&21));
/// assert_eq!(map.get(3), None);
/// assert_eq!(map.iter().collect::<Vec<_>>(), vec![(2, &21), (5, &50)]);
/// assert_eq!(map.remove(5), Some(50));
/// assert_eq!(map.len(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DenseIdMap<T> {
    present: DenseIdSet,
    values: Vec<T>,
}

impl<T: Default> DenseIdMap<T> {
    /// An empty map over indices `0..capacity`.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        let mut values = Vec::with_capacity(capacity);
        values.resize_with(capacity, T::default);
        Self {
            present: DenseIdSet::with_capacity(capacity),
            values,
        }
    }

    /// Number of indices this map can hold (`0..capacity`).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.present.capacity()
    }

    /// Number of present entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.present.len()
    }

    /// Whether no entry is present.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.present.is_empty()
    }

    /// Whether `index` has an entry. Out-of-range indices are absent.
    #[must_use]
    pub fn contains(&self, index: usize) -> bool {
        self.present.contains(index)
    }

    /// The value at `index`, if present.
    #[must_use]
    pub fn get(&self, index: usize) -> Option<&T> {
        self.present.contains(index).then(|| &self.values[index])
    }

    /// Mutable access to the value at `index`, if present.
    pub fn get_mut(&mut self, index: usize) -> Option<&mut T> {
        self.present
            .contains(index)
            .then(|| &mut self.values[index])
    }

    /// Inserts `value` at `index`, returning the replaced value if one
    /// was present. Out-of-range indices are rejected (`None`, map
    /// unchanged — indistinguishable from a fresh insert, so callers
    /// that must distinguish should bound-check first).
    pub fn insert(&mut self, index: usize, value: T) -> Option<T> {
        if index >= self.capacity() {
            return None;
        }
        if self.present.insert(index) {
            self.values[index] = value;
            None
        } else {
            Some(std::mem::replace(&mut self.values[index], value))
        }
    }

    /// Removes the entry at `index`, returning its value if present.
    pub fn remove(&mut self, index: usize) -> Option<T> {
        self.present
            .remove(index)
            .then(|| std::mem::take(&mut self.values[index]))
    }

    /// Clears every entry without releasing storage.
    pub fn clear(&mut self) {
        self.values.iter_mut().for_each(|v| *v = T::default());
        self.present.clear();
    }

    /// Entries in ascending index order — the same order a
    /// `BTreeMap<ExpertId, T>` would yield (see module docs).
    pub fn iter(&self) -> impl Iterator<Item = (usize, &T)> + '_ {
        self.present.iter().map(move |i| (i, &self.values[i]))
    }

    /// Present indices in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = usize> + '_ {
        self.present.iter()
    }

    /// Present values in ascending index order.
    pub fn values(&self) -> impl Iterator<Item = &T> + '_ {
        self.present.iter().map(move |i| &self.values[i])
    }

    /// Applies `f` to every present value, in ascending index order.
    pub fn for_each_value_mut(&mut self, mut f: impl FnMut(&mut T)) {
        for i in self.present.iter() {
            f(&mut self.values[i]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};

    #[test]
    fn set_matches_btreeset_under_mixed_ops() {
        let mut dense = DenseIdSet::with_capacity(100);
        let mut reference: BTreeSet<usize> = BTreeSet::new();
        // Deterministic splitmix64 op stream.
        let mut state = 0x5eedu64;
        for _ in 0..10_000 {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            let idx = (z % 100) as usize;
            if z & 0x100 == 0 {
                assert_eq!(dense.insert(idx), reference.insert(idx));
            } else {
                assert_eq!(dense.remove(idx), reference.remove(&idx));
            }
            assert_eq!(dense.len(), reference.len());
        }
        assert_eq!(
            dense.iter().collect::<Vec<_>>(),
            reference.iter().copied().collect::<Vec<_>>()
        );
    }

    #[test]
    fn map_matches_btreemap_under_mixed_ops() {
        let mut dense: DenseIdMap<u64> = DenseIdMap::with_capacity(64);
        let mut reference: BTreeMap<usize, u64> = BTreeMap::new();
        let mut state = 0xfeedu64;
        for step in 0..10_000u64 {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            let idx = (z % 64) as usize;
            if z & 0x100 == 0 {
                assert_eq!(dense.insert(idx, step), reference.insert(idx, step));
            } else {
                assert_eq!(dense.remove(idx), reference.remove(&idx));
            }
            assert_eq!(dense.get(idx), reference.get(&idx));
            assert_eq!(dense.len(), reference.len());
        }
        assert_eq!(
            dense.iter().map(|(k, v)| (k, *v)).collect::<Vec<_>>(),
            reference.iter().map(|(k, v)| (*k, *v)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn set_iteration_order_matches_expert_id_ord() {
        // The load-bearing property: ascending dense index == ExpertId Ord.
        let j = 7u32;
        let mut dense = DenseIdSet::with_capacity(5 * j as usize);
        let mut reference: BTreeSet<ExpertId> = BTreeSet::new();
        for d in [33, 2, 18, 7, 34, 0, 20, 6] {
            dense.insert(d);
            reference.insert(ExpertId::from_dense_index(d, j));
        }
        assert_eq!(
            dense.iter_experts(j).collect::<Vec<_>>(),
            reference.iter().copied().collect::<Vec<_>>()
        );
    }

    #[test]
    fn out_of_range_is_rejected_not_panicking() {
        let mut set = DenseIdSet::with_capacity(4);
        assert!(!set.insert(4));
        assert!(!set.contains(4));
        assert!(!set.remove(4));
        let mut map: DenseIdMap<u32> = DenseIdMap::with_capacity(4);
        assert_eq!(map.insert(9, 1), None);
        assert_eq!(map.get(9), None);
        assert_eq!(map.remove(9), None);
        assert_eq!(map.len(), 0);
    }

    #[test]
    fn clear_retains_capacity_and_resets_state() {
        let mut map: DenseIdMap<u64> = DenseIdMap::with_capacity(16);
        for i in 0..16 {
            map.insert(i, i as u64 * 3);
        }
        map.clear();
        assert!(map.is_empty());
        assert_eq!(map.capacity(), 16);
        assert_eq!(map.iter().count(), 0);
        map.insert(3, 9);
        assert_eq!(map.get(3), Some(&9));
    }

    #[test]
    fn for_each_value_mut_visits_only_present_entries() {
        let mut map: DenseIdMap<u64> = DenseIdMap::with_capacity(8);
        map.insert(6, 60);
        map.insert(1, 10);
        let mut seen = Vec::new();
        map.for_each_value_mut(|v| {
            seen.push(*v);
            *v += 1;
        });
        assert_eq!(seen, vec![10, 60], "ascending index order");
        assert_eq!(map.iter().collect::<Vec<_>>(), vec![(1, &11), (6, &61)]);
        assert_eq!(map.len(), 2);
    }

    #[test]
    fn zero_capacity_containers_are_inert() {
        let mut set = DenseIdSet::with_capacity(0);
        assert!(!set.insert(0));
        assert!(set.is_empty());
        let mut map: DenseIdMap<u8> = DenseIdMap::with_capacity(0);
        assert_eq!(map.insert(0, 1), None);
        assert!(map.is_empty());
    }
}
