//! The eviction policies' dense per-expert state.
//!
//! Victim selection reads one value per candidate, about a hundred
//! candidates per victim and millions of victims per figure sweep, so
//! the policies keep that state in flat rows rather than in
//! `BTreeMap<ExpertId, _>`s. [`ExpertTable`] stores one row per layer,
//! indexed by slot, and grows a row on its first write: a policy needs no
//! model shape, and its memory follows the largest layer and slot it was
//! told about (the cache only passes experts of its own model).

use fmoe_model::ExpertId;

/// Layers and slots at or past this bound lie outside any model (the
/// presets reach 32 layers and 64 experts per layer): writes to them are
/// dropped and they read `T::default()`, so a stray id handed to a
/// policy cannot make it allocate without bound.
const COORDINATE_LIMIT: usize = 1 << 16;

/// Per-expert values in rows by layer. An expert never written reads
/// `T::default()`, which every policy uses as its "no bookkeeping" value.
#[derive(Debug, Clone, Default)]
pub(crate) struct ExpertTable<T> {
    rows: Vec<Vec<T>>,
}

impl<T: Copy + Default> ExpertTable<T> {
    /// `expert`'s value, or `T::default()` if it was never written.
    pub(crate) fn get(&self, expert: ExpertId) -> T {
        self.rows
            .get(expert.layer as usize)
            .and_then(|row| row.get(expert.slot as usize))
            .copied()
            .unwrap_or_default()
    }

    /// Sets `expert`'s value, growing its row on demand.
    pub(crate) fn set(&mut self, expert: ExpertId, value: T) {
        let (layer, slot) = (expert.layer as usize, expert.slot as usize);
        if layer >= COORDINATE_LIMIT || slot >= COORDINATE_LIMIT {
            return;
        }
        if self.rows.len() <= layer {
            self.rows.resize_with(layer + 1, Vec::new);
        }
        let row = &mut self.rows[layer];
        if row.len() <= slot {
            row.resize(slot + 1, T::default());
        }
        row[slot] = value;
    }

    /// Resets every value to `T::default()`, keeping the storage.
    pub(crate) fn clear(&mut self) {
        for row in &mut self.rows {
            row.fill(T::default());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_experts_read_default_and_rows_grow_independently() {
        let mut t: ExpertTable<u64> = ExpertTable::default();
        assert_eq!(t.get(ExpertId::new(3, 7)), 0);
        t.set(ExpertId::new(2, 5), 9);
        t.set(ExpertId::new(0, 1), 4);
        assert_eq!(t.get(ExpertId::new(2, 5)), 9);
        assert_eq!(t.get(ExpertId::new(0, 1)), 4);
        // Neighbours of written cells, and rows never written, stay default.
        assert_eq!(t.get(ExpertId::new(2, 4)), 0);
        assert_eq!(t.get(ExpertId::new(1, 5)), 0);
        assert_eq!(t.get(ExpertId::new(2, 6)), 0);
        t.clear();
        assert_eq!(t.get(ExpertId::new(2, 5)), 0);
        assert_eq!(t.get(ExpertId::new(0, 1)), 0);
    }

    #[test]
    fn ids_outside_every_model_are_dropped_without_allocating() {
        let mut t: ExpertTable<u64> = ExpertTable::default();
        t.set(ExpertId::new(u32::MAX, 0), 1);
        t.set(ExpertId::new(0, u32::MAX), 1);
        assert_eq!(t.get(ExpertId::new(u32::MAX, 0)), 0);
        assert_eq!(t.get(ExpertId::new(0, u32::MAX)), 0);
        assert!(t.rows.is_empty());
    }
}
