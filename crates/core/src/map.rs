//! The expert map data structure (paper §4.1).
//!
//! An expert map records one inference iteration's gate outputs across all
//! layers: `map_i = {P_1^{(i)}, …, P_L^{(i)}}`, each `P_l` a probability
//! distribution over the layer's `J` experts. Compared to request-level
//! hit counting (MoE-Infinity's Expert Activation Matrix) it is finer in
//! both axes: per-iteration rather than per-request, and full
//! distributions rather than binary activations. The coarse form is
//! recoverable (apply top-K and aggregate), which [`ExpertMap::to_top_k_counts`]
//! implements — the paper's generalization argument.

use serde::{Deserialize, Serialize};

/// One iteration's expert map: `L` rows of `J` probabilities, held in one
/// row-major buffer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExpertMap {
    flat: Vec<f64>,
    experts_per_layer: usize,
}

impl ExpertMap {
    /// Wraps per-layer distributions into a map.
    ///
    /// # Panics
    ///
    /// Panics if `layers` is empty or rows have inconsistent widths —
    /// maps always span the full model.
    #[must_use]
    pub fn new(layers: Vec<Vec<f64>>) -> Self {
        Self::from_rows(&layers)
    }

    /// Copies per-layer distributions into a map with one allocation.
    ///
    /// # Panics
    ///
    /// As [`ExpertMap::new`].
    #[must_use]
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        assert!(!rows.is_empty(), "an expert map needs at least one layer");
        let j = rows[0].len();
        assert!(
            rows.iter().all(|row| row.len() == j),
            "all layers must have the same expert count"
        );
        let mut flat = Vec::with_capacity(rows.len() * j);
        for row in rows {
            flat.extend_from_slice(row);
        }
        Self::from_flat(flat, j)
    }

    /// Wraps an already row-major buffer of `L·J` probabilities.
    ///
    /// # Panics
    ///
    /// Panics if `experts_per_layer` is zero, `flat` is empty, or its
    /// length is not a multiple of `experts_per_layer`.
    #[must_use]
    pub fn from_flat(flat: Vec<f64>, experts_per_layer: usize) -> Self {
        assert!(
            experts_per_layer > 0,
            "layers must have at least one expert"
        );
        assert!(!flat.is_empty(), "an expert map needs at least one layer");
        assert!(
            flat.len().is_multiple_of(experts_per_layer),
            "all layers must have the same expert count"
        );
        Self {
            flat,
            experts_per_layer,
        }
    }

    /// Number of layers `L`.
    #[must_use]
    pub fn num_layers(&self) -> usize {
        self.flat.len() / self.experts_per_layer
    }

    /// Experts per layer `J`.
    #[must_use]
    pub fn experts_per_layer(&self) -> usize {
        self.experts_per_layer
    }

    /// The distribution of one layer.
    #[must_use]
    pub fn layer(&self, l: usize) -> &[f64] {
        &self.flat[l * self.experts_per_layer..(l + 1) * self.experts_per_layer]
    }

    /// All layers in order.
    pub fn layers(&self) -> std::slice::ChunksExact<'_, f64> {
        self.flat.chunks_exact(self.experts_per_layer)
    }

    /// The map's row-major `L·J` buffer — the form the trajectory
    /// search's cosine similarity consumes.
    #[must_use]
    pub fn flat(&self) -> &[f64] {
        &self.flat
    }

    /// An owned copy of [`ExpertMap::flat`].
    #[must_use]
    pub fn flatten(&self) -> Vec<f64> {
        self.flat.clone()
    }

    /// Recovers coarse-grained information: per-layer top-`k` activation
    /// counts, as an `L × J` count matrix. Aggregating these over
    /// iterations reproduces exactly what request-level trackers store.
    #[must_use]
    pub fn to_top_k_counts(&self, k: usize) -> Vec<Vec<u64>> {
        self.layers()
            .map(|row| {
                let mut idx: Vec<usize> = (0..row.len()).collect();
                idx.sort_by(|&a, &b| row[b].total_cmp(&row[a]).then(a.cmp(&b)));
                let mut counts = vec![0u64; row.len()];
                for &i in idx.iter().take(k) {
                    counts[i] = 1;
                }
                counts
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_map() -> ExpertMap {
        ExpertMap::new(vec![
            vec![0.7, 0.2, 0.1, 0.0],
            vec![0.1, 0.1, 0.4, 0.4],
            vec![0.25, 0.25, 0.25, 0.25],
        ])
    }

    #[test]
    fn dimensions_and_access() {
        let m = simple_map();
        assert_eq!(m.num_layers(), 3);
        assert_eq!(m.experts_per_layer(), 4);
        assert_eq!(m.layer(1), &[0.1, 0.1, 0.4, 0.4]);
    }

    #[test]
    fn flatten_is_row_major() {
        let m = simple_map();
        let f = m.flatten();
        assert_eq!(f.len(), 12);
        assert_eq!(&f[..4], &[0.7, 0.2, 0.1, 0.0]);
        assert_eq!(&f[4..8], &[0.1, 0.1, 0.4, 0.4]);
    }

    #[test]
    fn top_k_counts_recover_coarse_grained_form() {
        let m = simple_map();
        let counts = m.to_top_k_counts(2);
        assert_eq!(counts[0], vec![1, 1, 0, 0]);
        assert_eq!(counts[1], vec![0, 0, 1, 1]);
        // Uniform layer: ties break toward lower indices.
        assert_eq!(counts[2], vec![1, 1, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "same expert count")]
    fn ragged_rows_panic() {
        let _ = ExpertMap::new(vec![vec![0.5, 0.5], vec![1.0]]);
    }

    #[test]
    #[should_panic(expected = "at least one layer")]
    fn empty_map_panics() {
        let _ = ExpertMap::new(vec![]);
    }
}
