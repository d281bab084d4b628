//! The Expert Map Matcher (paper §4.2): semantic and trajectory search.
//!
//! * **Semantic search** (Eq. 4) serves layers `1…d`, where the prefetch
//!   distance means no trajectory has been observed yet: the iteration's
//!   input embedding is cosine-matched against every stored embedding.
//! * **Trajectory search** (Eq. 5) serves layers `d+1…L`: the partial map
//!   observed so far (layers `1…l`) is cosine-matched against the same
//!   prefix of every stored map, and the *matched map's* `P_{l+d}` guides
//!   the target layer.
//!
//! The trajectory matcher is incremental: observing one more layer costs
//! `O(C·J)` (one dot-product row per stored entry, streamed from the
//! store's contiguous layer block) instead of re-scanning the whole
//! prefix, which is what makes per-layer matching affordable — the same
//! reason the paper's implementation stores maps as contiguous ndarrays.

use crate::store::{ExpertMapStore, StoreError};
use fmoe_stats::{
    add_row_dots, argmax_cosine_slab, cosine_from_norms, cosine_similarity, top_k_cosine_slab,
};

/// Outcome of a map search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatchResult {
    /// Index of the best entry in the store.
    pub entry_index: usize,
    /// Cosine similarity score in `[-1, 1]`.
    pub score: f64,
}

/// Stateless search entry points plus the incremental trajectory state.
#[derive(Debug)]
pub struct Matcher;

impl Matcher {
    /// Semantic search: the stored entry whose embedding best matches
    /// `embedding`; `Ok(None)` on an empty store.
    ///
    /// A one-shot `SemanticScan::search` over the embedding slab, scoring
    /// bit-identically to [`Matcher::semantic_match_reference`] — locked
    /// by a proptest.
    ///
    /// # Errors
    ///
    /// [`StoreError`] when `embedding` is empty or not of the store's
    /// embedding dimension.
    pub fn semantic_match(
        store: &ExpertMapStore,
        embedding: &[f64],
    ) -> Result<Option<MatchResult>, StoreError> {
        SemanticScan::new().search(store, embedding)
    }

    /// The reference semantic search: a per-entry [`cosine_similarity`]
    /// scan over each entry's embedding. The specification the slab kernel
    /// is verified against; no serving path calls it.
    #[must_use]
    pub fn semantic_match_reference(
        store: &ExpertMapStore,
        embedding: &[f64],
    ) -> Option<MatchResult> {
        let mut best: Option<MatchResult> = None;
        for (i, entry) in store.entries().enumerate() {
            let score = cosine_similarity(embedding, entry.embedding());
            if best.is_none_or(|b| score > b.score) {
                best = Some(MatchResult {
                    entry_index: i,
                    score,
                });
            }
        }
        best
    }

    /// The `k` best semantic matches, ordered by descending score with
    /// ties broken toward the lower entry index. Heap-selected over the
    /// embedding slab in `O(C·log k)`.
    ///
    /// # Errors
    ///
    /// As [`Matcher::semantic_match`].
    pub fn semantic_top_k(
        store: &ExpertMapStore,
        embedding: &[f64],
        k: usize,
    ) -> Result<Vec<MatchResult>, StoreError> {
        store.check_embedding(embedding)?;
        let (slab, norms, stride) = store.embedding_slab();
        Ok(top_k_cosine_slab(embedding, slab, stride, norms, k)
            .into_iter()
            .map(|(entry_index, score)| MatchResult { entry_index, score })
            .collect())
    }

    /// One-shot trajectory search over an explicit prefix (used by tests
    /// and offline analysis; the engine path uses [`TrajectoryTracker`]).
    ///
    /// Returns `None` for an empty or zero-norm prefix — a zero-norm
    /// observation carries no direction to match on, and this keeps the
    /// one-shot path agreeing with [`TrajectoryTracker::best`], which
    /// also reports `None` in that case (previously this path returned
    /// `Some` with score `0.0` while the tracker returned `None`).
    #[must_use]
    pub fn trajectory_match(
        store: &ExpertMapStore,
        observed_prefix: &[Vec<f64>],
    ) -> Option<MatchResult> {
        if observed_prefix.is_empty() {
            return None;
        }
        let flat: Vec<f64> = observed_prefix.iter().flatten().copied().collect();
        if flat.iter().map(|p| p * p).sum::<f64>() <= 0.0 {
            return None;
        }
        let layers = observed_prefix.len().min(store.num_layers());
        let mut prefix = Vec::new();
        let mut best: Option<MatchResult> = None;
        for (i, entry) in store.entries().enumerate() {
            prefix.clear();
            for l in 0..layers {
                prefix.extend_from_slice(entry.layer(l));
            }
            let score = cosine_similarity(&flat, &prefix);
            if best.is_none_or(|b| score > b.score) {
                best = Some(MatchResult {
                    entry_index: i,
                    score,
                });
            }
        }
        best
    }
}

/// Per-request semantic search state: the searched embedding's dot with
/// every stored embedding, kept for the iteration's map update.
///
/// [`SemanticScan::search`] streams the embedding slab once at iteration
/// start. When the iteration's insert deduplicates, [`SemanticScan::catch_up`]
/// brings those dots up to date instead of streaming the slab again — the
/// semantic counterpart of [`TrajectoryTracker::catch_up`].
#[derive(Debug, Default)]
pub(crate) struct SemanticScan {
    /// `dots[i]`: the query dotted with entry `i`'s embedding, as
    /// [`add_row_dots`] sums it.
    dots: Vec<f64>,
    /// The embedding the dots belong to.
    query: Vec<f64>,
    /// The store's [`ExpertMapStore::generation`] the dots are current
    /// for.
    generation: u64,
}

impl SemanticScan {
    /// A scan with nothing kept.
    #[must_use]
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Semantic search (Eq. 4): the stored entry whose embedding best
    /// matches `embedding`, `Ok(None)` on an empty store. Keeps the slab
    /// scan's dots.
    ///
    /// # Errors
    ///
    /// As [`Matcher::semantic_match`]; nothing is scanned or kept then.
    pub(crate) fn search(
        &mut self,
        store: &ExpertMapStore,
        embedding: &[f64],
    ) -> Result<Option<MatchResult>, StoreError> {
        store.check_embedding(embedding)?;
        self.query.clear();
        self.query.extend_from_slice(embedding);
        self.generation = store.generation();
        let (slab, norms, stride) = store.embedding_slab();
        Ok(
            argmax_cosine_slab(embedding, slab, stride, norms, &mut self.dots)
                .map(|(entry_index, score)| MatchResult { entry_index, score }),
        )
    }

    /// The semantic dot of `embedding` with every entry of the store as
    /// it is now, for the deduplication of `embedding`'s insert.
    ///
    /// When the last [`SemanticScan::search`] scanned a bit-equal
    /// `embedding`, its dots are reused: only the rows written after that
    /// search are re-dotted, and each row appended since gets a dot. A
    /// re-dot runs the same kernel over the one row, which sums that row's
    /// terms in the same order as a full pass, so every dot is
    /// bit-identical to a fresh scan. Otherwise the whole slab is scanned
    /// afresh. An `embedding` the store refuses gets dots that mean
    /// nothing, which its refused insert never reads.
    pub(crate) fn catch_up(&mut self, store: &ExpertMapStore, embedding: &[f64]) -> &[f64] {
        let (slab, _, stride) = store.embedding_slab();
        let searched = self.query.len() == embedding.len()
            && self
                .query
                .iter()
                .zip(embedding)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if searched {
            self.dots.truncate(store.len());
            for (i, &written) in store.written().iter().enumerate() {
                if i == self.dots.len() {
                    self.dots.push(0.0);
                } else if written > self.generation {
                    self.dots[i] = 0.0;
                } else {
                    continue;
                }
                let row = &slab[i * stride..(i + 1) * stride];
                add_row_dots(row, stride, embedding, &mut self.dots[i..=i]);
            }
        } else {
            self.query.clear();
            self.query.extend_from_slice(embedding);
            self.dots.clear();
            self.dots.resize(store.len(), 0.0);
            add_row_dots(slab, stride, embedding, &mut self.dots);
        }
        self.generation = store.generation();
        &self.dots
    }
}

/// Incremental per-request trajectory search state.
///
/// Reset it at each iteration start, feed it each layer's realized
/// distribution with [`TrajectoryTracker::observe_layer`], and query
/// [`TrajectoryTracker::best`] to get the current best match. The store
/// must not be mutated between `reset` and the last query of an iteration
/// (the engine only mutates it at iteration boundaries).
///
/// Once every layer is observed, the dots are the full-map dot products
/// the store's at-capacity deduplication scores with, so the map update
/// reuses them (see `catch_up`) instead of streaming the store again.
#[derive(Debug, Default)]
pub struct TrajectoryTracker {
    dots: Vec<f64>,
    /// The observed distributions, concatenated in layer order.
    observed: Vec<f64>,
    query_norm2: f64,
    layers_observed: usize,
    /// The store's [`ExpertMapStore::generation`] at `reset`.
    generation: u64,
}

impl TrajectoryTracker {
    /// A tracker with no observations.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears observations and resizes to the store's current population.
    pub fn reset(&mut self, store: &ExpertMapStore) {
        self.dots.clear();
        self.dots.resize(store.len(), 0.0);
        self.observed.clear();
        self.query_norm2 = 0.0;
        self.layers_observed = 0;
        self.generation = store.generation();
    }

    /// Panics unless `store` is unchanged since `reset`: an insert or
    /// clear, including an at-capacity replacement that keeps `len`,
    /// would silently corrupt the incremental dots.
    fn assert_unmutated(&self, store: &ExpertMapStore) {
        assert!(
            self.generation == store.generation() && self.dots.len() == store.len(),
            "store mutated since reset(); call reset() first"
        );
    }

    /// Number of layers observed so far this iteration.
    #[must_use]
    pub fn layers_observed(&self) -> usize {
        self.layers_observed
    }

    /// Folds one more layer's distribution into the running dot products.
    ///
    /// # Panics
    ///
    /// Panics if the store was mutated since `reset`.
    pub fn observe_layer(&mut self, store: &ExpertMapStore, distribution: &[f64]) {
        self.assert_unmutated(store);
        let l = self.layers_observed;
        // Stream layer `l`'s contiguous block: row `i` is entry `i`'s
        // layer-`l` distribution. Each dot product still adds its terms
        // layer by layer, expert by expert, so scores stay bit-identical
        // to the one-shot search.
        if l < store.num_layers() {
            let j = store.experts_per_layer();
            add_row_dots(store.layer_block(l), j, distribution, &mut self.dots);
        }
        self.observed.extend_from_slice(distribution);
        self.query_norm2 += distribution.iter().map(|p| p * p).sum::<f64>();
        self.layers_observed += 1;
    }

    /// The full-map dot product of `flat` with every entry of the store
    /// as it is now, for the deduplication of `flat`'s insert.
    ///
    /// When this tracker observed exactly `flat`'s `L` layers since its
    /// `reset`, its dots are reused: only the rows written after that
    /// reset are re-dotted, and each row appended since gets a dot. A
    /// re-dot sums over the `L` layer blocks in layer order, the terms
    /// and order `observe_layer` accumulates, so every dot is
    /// bit-identical to a fresh pass. Otherwise the tracker resets and
    /// observes `flat` from scratch.
    pub(crate) fn catch_up(&mut self, store: &ExpertMapStore, flat: &[f64]) -> &[f64] {
        let observed_flat = self.layers_observed == store.num_layers()
            && self.observed.len() == flat.len()
            && self
                .observed
                .iter()
                .zip(flat)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if !observed_flat {
            self.reset(store);
            for row in flat.chunks_exact(store.experts_per_layer()) {
                self.observe_layer(store, row);
            }
            return &self.dots;
        }
        self.dots.truncate(store.len());
        for (i, &written) in store.written().iter().enumerate() {
            if i == self.dots.len() {
                self.dots.push(store.entry(i).dot(flat));
            } else if written > self.generation {
                self.dots[i] = store.entry(i).dot(flat);
            }
        }
        self.generation = store.generation();
        &self.dots
    }

    /// The best-matching entry for the observed prefix, or `None` when
    /// the store is empty or nothing has been observed.
    ///
    /// # Panics
    ///
    /// Panics if the store was mutated since `reset`.
    #[must_use]
    pub fn best(&self, store: &ExpertMapStore) -> Option<MatchResult> {
        self.assert_unmutated(store);
        if self.layers_observed == 0 || store.is_empty() || self.query_norm2 <= 0.0 {
            return None;
        }
        let qn = self.query_norm2.sqrt();
        let layers = self.layers_observed.min(store.num_layers());
        let norms = store.prefix_norms(layers);
        // Entry 0 seeds the scan and a strict `>` keeps the first
        // maximum, as a one-entry scan does. Four scores go per pass, so
        // their divisions overlap; a tile none of whose scores beats the
        // best so far is passed over whole, since entry by entry it would
        // not have moved the best either.
        let score = |i: usize| cosine_from_norms(self.dots[i], qn, norms[i]);
        let mut best = MatchResult {
            entry_index: 0,
            score: score(0),
        };
        fn visit(best: &mut MatchResult, entry_index: usize, score: f64) {
            if score > best.score {
                *best = MatchResult { entry_index, score };
            }
        }
        let tiles = self.dots.chunks_exact(4).zip(norms.chunks_exact(4));
        for (tile, (dots, norms)) in tiles.enumerate() {
            let scores: [f64; 4] =
                std::array::from_fn(|k| cosine_from_norms(dots[k], qn, norms[k]));
            if scores
                .iter()
                .fold(false, |beats, &s| beats | (s > best.score))
            {
                for (k, s) in scores.into_iter().enumerate() {
                    visit(&mut best, 4 * tile + k, s);
                }
            }
        }
        for i in self.dots.len() - self.dots.len() % 4..self.dots.len() {
            visit(&mut best, i, score(i));
        }
        Some(best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::ExpertMap;
    use crate::proptests::semantic_top_k_reference;

    fn peaked(l_count: usize, j: usize, peaks: &[usize]) -> ExpertMap {
        ExpertMap::new(
            (0..l_count)
                .map(|l| {
                    let mut row = vec![0.01; j];
                    row[peaks[l % peaks.len()]] = 1.0 - 0.01 * (j as f64 - 1.0);
                    row
                })
                .collect(),
        )
    }

    fn store_with(entries: Vec<(Vec<f64>, ExpertMap)>) -> ExpertMapStore {
        let l = entries[0].1.num_layers();
        let j = entries[0].1.experts_per_layer();
        let mut s = ExpertMapStore::new(entries.len().max(1), l, j, 1);
        for (e, m) in entries {
            s.insert(e, m).unwrap();
        }
        s
    }

    #[test]
    fn semantic_match_picks_closest_embedding() {
        let s = store_with(vec![
            (vec![1.0, 0.0], peaked(2, 4, &[0])),
            (vec![0.0, 1.0], peaked(2, 4, &[1])),
        ]);
        let m = Matcher::semantic_match(&s, &[0.1, 0.99]).unwrap().unwrap();
        assert_eq!(m.entry_index, 1);
        assert!(m.score > 0.95);
    }

    #[test]
    fn semantic_match_on_empty_store_is_none() {
        let s = ExpertMapStore::new(4, 2, 4, 1);
        assert_eq!(Matcher::semantic_match(&s, &[1.0, 0.0]), Ok(None));
    }

    #[test]
    fn trajectory_match_uses_prefix_only() {
        // Two stored maps agree at layer 0 but diverge at layer 1.
        let a = ExpertMap::new(vec![vec![0.9, 0.1, 0.0, 0.0], vec![0.9, 0.1, 0.0, 0.0]]);
        let b = ExpertMap::new(vec![vec![0.9, 0.1, 0.0, 0.0], vec![0.0, 0.0, 0.1, 0.9]]);
        let s = store_with(vec![(vec![1.0, 0.0], a), (vec![0.0, 1.0], b)]);
        // Observed prefix matching layer-1 divergence of b.
        let observed = vec![vec![0.9, 0.1, 0.0, 0.0], vec![0.0, 0.0, 0.2, 0.8]];
        let m = Matcher::trajectory_match(&s, &observed).unwrap();
        assert_eq!(m.entry_index, 1);
        assert!(m.score > 0.95);
    }

    #[test]
    fn empty_prefix_matches_nothing() {
        let s = store_with(vec![(vec![1.0, 0.0], peaked(2, 4, &[0]))]);
        assert!(Matcher::trajectory_match(&s, &[]).is_none());
    }

    #[test]
    fn zero_norm_prefix_agrees_between_one_shot_and_tracker() {
        // A zero-norm observed prefix used to make the one-shot search
        // return Some(index 0, score 0.0) while the incremental tracker
        // returned None. Both must report None.
        let s = store_with(vec![
            (vec![1.0, 0.0], peaked(2, 4, &[0])),
            (vec![0.0, 1.0], peaked(2, 4, &[1])),
        ]);
        let zeros = vec![vec![0.0; 4], vec![0.0; 4]];
        assert!(Matcher::trajectory_match(&s, &zeros).is_none());
        let mut t = TrajectoryTracker::new();
        t.reset(&s);
        t.observe_layer(&s, &[0.0; 4]);
        t.observe_layer(&s, &[0.0; 4]);
        assert!(t.best(&s).is_none());
    }

    #[test]
    fn semantic_fast_path_matches_reference() {
        let s = store_with(vec![
            (vec![1.0, 0.0], peaked(2, 4, &[0])),
            (vec![0.0, 1.0], peaked(2, 4, &[1])),
            (vec![0.7, 0.7], peaked(2, 4, &[2])),
        ]);
        for q in [[0.1, 0.99], [1.0, 0.0], [-0.3, 0.2], [0.0, 0.0]] {
            let fast = Matcher::semantic_match(&s, &q).unwrap().unwrap();
            let slow = Matcher::semantic_match_reference(&s, &q).unwrap();
            assert_eq!(fast.entry_index, slow.entry_index);
            assert_eq!(fast.score.to_bits(), slow.score.to_bits());
        }
    }

    #[test]
    fn a_query_of_another_width_is_a_typed_error() {
        let s = store_with(vec![
            (vec![1.0, 0.0], peaked(2, 4, &[0])),
            (vec![0.0, 1.0], peaked(2, 4, &[1])),
        ]);
        for q in [&[1.0][..], &[1.0, 0.0, 0.0][..]] {
            let err = StoreError::EmbeddingDim {
                expected: 2,
                got: q.len(),
            };
            assert_eq!(Matcher::semantic_match(&s, q), Err(err));
            assert_eq!(Matcher::semantic_top_k(&s, q, 2), Err(err));
        }
        assert_eq!(
            Matcher::semantic_match(&s, &[]),
            Err(StoreError::EmptyEmbedding)
        );
        // An empty store has no dimension yet: any nonempty query finds
        // nothing.
        let empty = ExpertMapStore::new(4, 2, 4, 1);
        assert_eq!(Matcher::semantic_match(&empty, &[1.0, 0.0, 0.0]), Ok(None));
        assert_eq!(Matcher::semantic_top_k(&empty, &[1.0], 3), Ok(Vec::new()));
    }

    #[test]
    fn semantic_top_k_matches_reference_order() {
        let s = store_with(vec![
            (vec![1.0, 0.0], peaked(2, 4, &[0])),
            (vec![0.0, 1.0], peaked(2, 4, &[1])),
            (vec![0.7, 0.7], peaked(2, 4, &[2])),
            (vec![1.0, 0.0], peaked(2, 4, &[3])), // exact tie with entry 0
        ]);
        for k in 0..=5 {
            let fast = Matcher::semantic_top_k(&s, &[1.0, 0.05], k).unwrap();
            let slow = semantic_top_k_reference(&s, &[1.0, 0.05], k);
            assert_eq!(fast.len(), slow.len(), "k={k}");
            for (f, r) in fast.iter().zip(&slow) {
                assert_eq!(f.entry_index, r.entry_index, "k={k}");
                assert_eq!(f.score.to_bits(), r.score.to_bits(), "k={k}");
            }
        }
        // The exact tie keeps the lower index first.
        let top = Matcher::semantic_top_k(&s, &[1.0, 0.0], 2).unwrap();
        assert_eq!(top[0].entry_index, 0);
        assert_eq!(top[1].entry_index, 3);
    }

    #[test]
    fn incremental_tracker_agrees_with_one_shot_search() {
        let maps: Vec<ExpertMap> = (0..5)
            .map(|i| peaked(4, 4, &[i % 4, (i + 1) % 4]))
            .collect();
        let s = store_with(
            maps.iter()
                .enumerate()
                .map(|(i, m)| (vec![i as f64, 1.0], m.clone()))
                .collect(),
        );
        let query = peaked(4, 4, &[2, 3]);
        let mut tracker = TrajectoryTracker::new();
        tracker.reset(&s);
        for l in 0..4 {
            tracker.observe_layer(&s, query.layer(l));
            let inc = tracker.best(&s).unwrap();
            let prefix: Vec<Vec<f64>> = (0..=l).map(|x| query.layer(x).to_vec()).collect();
            let one_shot = Matcher::trajectory_match(&s, &prefix).unwrap();
            assert_eq!(inc.entry_index, one_shot.entry_index, "layer {l}");
            assert!((inc.score - one_shot.score).abs() < 1e-9, "layer {l}");
        }
    }

    #[test]
    fn tracker_reports_nothing_before_observations() {
        let s = store_with(vec![(vec![1.0, 0.0], peaked(2, 4, &[0]))]);
        let mut t = TrajectoryTracker::new();
        t.reset(&s);
        assert!(t.best(&s).is_none());
        assert_eq!(t.layers_observed(), 0);
    }

    #[test]
    #[should_panic(expected = "store mutated")]
    fn tracker_detects_store_mutation() {
        let mut s = store_with(vec![(vec![1.0, 0.0], peaked(2, 4, &[0]))]);
        let mut t = TrajectoryTracker::new();
        t.reset(&s);
        // Mutating the store between reset and observe must be caught.
        let mut bigger = ExpertMapStore::new(8, 2, 4, 1);
        std::mem::swap(&mut s, &mut bigger);
        s.insert(vec![0.0, 1.0], peaked(2, 4, &[1])).unwrap();
        s.insert(vec![0.5, 0.5], peaked(2, 4, &[2])).unwrap();
        s.insert(vec![0.5, -0.5], peaked(2, 4, &[3])).unwrap();
        t.observe_layer(&s, &[0.25, 0.25, 0.25, 0.25]);
    }

    #[test]
    #[should_panic(expected = "store mutated")]
    fn tracker_detects_replacement_at_capacity() {
        // An at-capacity replacement keeps `len`, so only the store's
        // generation shows that the tracker's dots are stale.
        let mut s = store_with(vec![
            (vec![1.0, 0.0], peaked(2, 4, &[0])),
            (vec![0.0, 1.0], peaked(2, 4, &[1])),
        ]);
        let mut t = TrajectoryTracker::new();
        t.reset(&s);
        s.insert(vec![0.5, 0.5], peaked(2, 4, &[2])).unwrap();
        assert_eq!(s.len(), 2);
        t.observe_layer(&s, &[0.25, 0.25, 0.25, 0.25]);
    }

    #[test]
    fn higher_scores_for_true_continuations() {
        // A tracker observing a's prefix should score a above b.
        let a = peaked(6, 4, &[0, 1]);
        let b = peaked(6, 4, &[2, 3]);
        let s = store_with(vec![(vec![1.0, 0.0], a.clone()), (vec![0.0, 1.0], b)]);
        let mut t = TrajectoryTracker::new();
        t.reset(&s);
        for l in 0..3 {
            t.observe_layer(&s, a.layer(l));
        }
        let m = t.best(&s).unwrap();
        assert_eq!(m.entry_index, 0);
        assert!(m.score > 0.99);
    }
}
