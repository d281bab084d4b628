//! Strongly-typed identifier for MoE experts.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifies one expert: `(layer, slot within the layer)`.
///
/// Expert `j` at layer `l` is `E_{l,j}` in the paper's notation. Only
/// *routed* (offloadable) experts get identifiers; always-on shared experts
/// (e.g. Qwen1.5-MoE's four shared experts) are accounted for in the cost
/// model but are never offloading candidates, matching the paper's
/// footnote 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ExpertId {
    /// The MoE layer this expert belongs to.
    pub layer: u32,
    /// The expert slot within the layer (`0..J`).
    pub slot: u32,
}

impl ExpertId {
    /// Creates an expert identifier.
    #[must_use]
    pub fn new(layer: u32, slot: u32) -> Self {
        Self { layer, slot }
    }

    /// Flattens the identifier to a dense index given the per-layer expert
    /// count `J` — the natural key for `L·J`-sized tables.
    #[must_use]
    pub fn dense_index(self, experts_per_layer: u32) -> usize {
        self.layer as usize * experts_per_layer as usize + self.slot as usize
    }

    /// Inverse of [`Self::dense_index`].
    #[must_use]
    pub fn from_dense_index(index: usize, experts_per_layer: u32) -> Self {
        let j = experts_per_layer as usize;
        Self::new((index / j) as u32, (index % j) as u32)
    }
}

impl fmt::Display for ExpertId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "E[{},{}]", self.layer, self.slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_index_round_trips() {
        let j = 8;
        for layer in 0..4 {
            for slot in 0..j {
                let e = ExpertId::new(layer, slot);
                let d = e.dense_index(j);
                assert_eq!(ExpertId::from_dense_index(d, j), e);
            }
        }
    }

    #[test]
    fn dense_index_is_row_major() {
        assert_eq!(ExpertId::new(0, 0).dense_index(8), 0);
        assert_eq!(ExpertId::new(0, 7).dense_index(8), 7);
        assert_eq!(ExpertId::new(1, 0).dense_index(8), 8);
        assert_eq!(ExpertId::new(2, 3).dense_index(8), 19);
    }

    #[test]
    fn display_formats() {
        assert_eq!(ExpertId::new(3, 5).to_string(), "E[3,5]");
    }

    #[test]
    fn ordering_is_layer_major() {
        let a = ExpertId::new(1, 7);
        let b = ExpertId::new(2, 0);
        assert!(a < b);
    }
}
