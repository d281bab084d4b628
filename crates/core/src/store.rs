//! The Expert Map Store (paper §4.4).
//!
//! A capacity-bounded collection of historical iterations, each stored as
//! a `(semantic embedding, expert map)` pair. When full, an incoming
//! iteration *replaces* its most redundant stored peer, where redundancy
//! unifies the two search similarities with the paper's weighting:
//!
//! ```text
//! RDY_{x,y} = d/L · score_sem(x,y)  +  (L−d)/L · score_traj(x,y)
//! ```
//!
//! — the semantic score guides `d` of the `L` layers and the trajectory
//! score the remaining `L−d`, so each contributes in proportion. Dropping
//! the *most similar* stored entry preserves diversity, maximizing the
//! chance any future prompt finds a useful map (the paper frames this as
//! minimum sphere covering of the activation space).

use crate::map::ExpertMap;
use crate::matcher::{SemanticScan, TrajectoryTracker};
use fmoe_stats::SplitMix64;
use fmoe_stats::{cosine_from_norms, cosine_similarity};
use serde::Serialize;

/// Why the store refused an embedding or a map: a store holds `L × J`
/// maps, fixed when it is built, and embeddings of one dimension, fixed
/// by its first insert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreError {
    /// A zero-length embedding: it has no direction to match on.
    EmptyEmbedding,
    /// An embedding of `got` values; the stored ones have `expected`.
    EmbeddingDim {
        /// The store's embedding dimension.
        expected: usize,
        /// The refused embedding's length.
        got: usize,
    },
    /// A map of `got` `(L, J)`; the store's are `expected`.
    MapShape {
        /// The store's `(L, J)`.
        expected: (usize, usize),
        /// The refused map's `(L, J)`.
        got: (usize, usize),
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "not the Expert Map Store's shape: {self:?}")
    }
}

impl std::error::Error for StoreError {}

/// How the store chooses which entry an incoming iteration replaces once
/// the capacity is reached.
///
/// The paper's design is [`ReplacementPolicy::Redundancy`]; the other two
/// exist for the ablation benches (`DESIGN.md` §6) that quantify what the
/// redundancy-scored deduplication buys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, serde::Deserialize)]
pub enum ReplacementPolicy {
    /// Replace the most redundant entry (max `RDY`) — the paper's §4.4
    /// deduplication, which preserves diversity.
    Redundancy,
    /// Replace the oldest entry, ignoring content.
    Fifo,
    /// Replace a pseudo-random entry (seeded, deterministic).
    Random,
}

/// A borrowed view of one stored iteration: its id, embedding and map
/// rows, read from the store's buffers.
#[derive(Clone, Copy)]
pub struct EntryView<'a> {
    store: &'a ExpertMapStore,
    index: usize,
}

impl std::fmt::Debug for EntryView<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EntryView")
            .field("index", &self.index)
            .field("id", &self.id())
            .finish_non_exhaustive()
    }
}

impl<'a> EntryView<'a> {
    /// Monotone insertion id (diagnostics).
    #[must_use]
    pub fn id(&self) -> u64 {
        self.store.ids[self.index]
    }

    /// The iteration's semantic embedding: a row of the embedding slab.
    #[must_use]
    pub fn embedding(&self) -> &'a [f64] {
        let d = self.store.emb_stride;
        &self.store.emb_buf[self.index * d..(self.index + 1) * d]
    }

    /// The map's layer-`l` distribution: row `index` of layer block `l`.
    #[must_use]
    pub fn layer(&self, l: usize) -> &'a [f64] {
        let j = self.store.experts_per_layer;
        &self.store.layer_blocks[l][self.index * j..(self.index + 1) * j]
    }

    /// `flat · map`, summed left to right layer after layer: the terms
    /// and order of a dot over the row-major map, so bit-identical to
    /// one. Values of `flat` past the map's `L × J` are not read.
    #[must_use]
    pub fn dot(&self, flat: &[f64]) -> f64 {
        let mut dot = 0.0;
        let layers = flat.chunks_exact(self.store.experts_per_layer);
        for (l, query) in layers.take(self.store.num_layers).enumerate() {
            for (a, b) in query.iter().zip(self.layer(l)) {
                dot += a * b;
            }
        }
        dot
    }

    /// An owned copy of the map.
    #[must_use]
    pub fn to_map(&self) -> ExpertMap {
        let mut flat = Vec::with_capacity(self.store.num_layers * self.store.experts_per_layer);
        for l in 0..self.store.num_layers {
            flat.extend_from_slice(self.layer(l));
        }
        ExpertMap::from_flat(flat, self.store.experts_per_layer)
    }
}

/// Store bookkeeping counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct StoreStats {
    /// Entries appended while below capacity.
    pub appended: u64,
    /// Entries that replaced a redundant peer at capacity.
    pub replaced: u64,
}

/// The Expert Map Store. See the module docs.
///
/// ```
/// use fmoe::map::ExpertMap;
/// use fmoe::matcher::Matcher;
/// use fmoe::store::ExpertMapStore;
///
/// let mut store = ExpertMapStore::new(100, 2, 4, 1);
/// let map = ExpertMap::new(vec![vec![0.7, 0.1, 0.1, 0.1], vec![0.1, 0.7, 0.1, 0.1]]);
/// store.insert(vec![1.0, 0.0], map.clone()).unwrap();
/// let m = Matcher::semantic_match(&store, &[0.9, 0.1]).unwrap().unwrap();
/// assert_eq!(m.entry_index, 0);
/// assert!(m.score > 0.95);
/// // The first insert fixed the embedding dimension at 2.
/// assert!(store.insert(vec![1.0, 0.0, 0.0], map).is_err());
/// assert!(Matcher::semantic_match(&store, &[1.0]).is_err());
/// ```
#[derive(Debug)]
pub struct ExpertMapStore {
    capacity: usize,
    num_layers: usize,
    experts_per_layer: usize,
    prefetch_distance: u32,
    replacement: ReplacementPolicy,
    rng_state: u64,
    /// `ids[i]`: entry `i`'s insertion id.
    ids: Vec<u64>,
    next_id: u64,
    /// Bumped by every [`ExpertMapStore::insert`] and
    /// [`ExpertMapStore::clear`].
    generation: u64,
    /// `written[i]`: the generation of the insert that last wrote entry
    /// `i`, so a trajectory tracker can re-dot only the rows written
    /// since its reset.
    written: Vec<u64>,
    stats: StoreStats,
    /// The maps, layer-major and the only copy: `layer_blocks[l]` holds
    /// `len × J` values, row `i` being entry `i`'s layer-`l`
    /// distribution.
    layer_blocks: Vec<Vec<f64>>,
    /// `prefix_norms[l]`, `l ∈ 0..=L`, holds one value per entry: the L2
    /// norm of its first `l` layers, the square accumulated left to right
    /// as `cosine_similarity` does before its `sqrt`.
    prefix_norms: Vec<Vec<f64>>,
    /// The embeddings, `emb_stride` values each, in entry order and the
    /// only copy: entry `i`'s is row `i`.
    emb_buf: Vec<f64>,
    /// Squared embedding norms (left-to-right accumulation, matching
    /// `cosine_similarity`'s order bit-for-bit).
    emb_norm2: Vec<f64>,
    /// The embedding dimension, fixed by the first insert; 0 when empty.
    emb_stride: usize,
}

impl ExpertMapStore {
    /// Creates an empty store.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` or the model dimensions are zero.
    #[must_use]
    pub fn new(
        capacity: usize,
        num_layers: usize,
        experts_per_layer: usize,
        prefetch_distance: u32,
    ) -> Self {
        assert!(capacity > 0, "store capacity must be positive");
        assert!(
            num_layers > 0 && experts_per_layer > 0,
            "model dims must be positive"
        );
        Self {
            capacity,
            num_layers,
            experts_per_layer,
            prefetch_distance,
            replacement: ReplacementPolicy::Redundancy,
            rng_state: 0x5EED_CAFE,
            ids: Vec::new(),
            next_id: 0,
            generation: 0,
            written: Vec::new(),
            stats: StoreStats::default(),
            layer_blocks: (0..num_layers).map(|_| Vec::new()).collect(),
            prefix_norms: (0..=num_layers).map(|_| Vec::new()).collect(),
            emb_buf: Vec::new(),
            emb_norm2: Vec::new(),
            emb_stride: 0,
        }
    }

    /// Switches the at-capacity replacement strategy (ablations only; the
    /// paper's design is redundancy-scored deduplication).
    #[must_use]
    pub fn with_replacement(mut self, policy: ReplacementPolicy) -> Self {
        self.replacement = policy;
        self
    }

    /// Number of stored entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` when the store holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The configured capacity `C`.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of layers `L` each stored map spans.
    #[must_use]
    pub fn num_layers(&self) -> usize {
        self.num_layers
    }

    /// Experts per layer `J` of each stored map.
    #[must_use]
    pub fn experts_per_layer(&self) -> usize {
        self.experts_per_layer
    }

    /// The prefetch distance the redundancy weighting uses.
    #[must_use]
    pub fn prefetch_distance(&self) -> u32 {
        self.prefetch_distance
    }

    /// The dimension of every stored embedding, fixed by the first insert
    /// since the store was built or cleared; `None` while it is empty.
    #[must_use]
    pub fn embedding_dim(&self) -> Option<usize> {
        (self.emb_stride > 0).then_some(self.emb_stride)
    }

    /// `Ok` when `embedding` is not empty and has the stored embeddings'
    /// dimension (any, while the store is empty): inserts and queries.
    pub(crate) fn check_embedding(&self, embedding: &[f64]) -> Result<(), StoreError> {
        match (self.emb_stride, embedding.len()) {
            (_, 0) => Err(StoreError::EmptyEmbedding),
            (expected, got) if expected > 0 && got != expected => {
                Err(StoreError::EmbeddingDim { expected, got })
            }
            _ => Ok(()),
        }
    }

    /// Read access to a stored entry.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    #[must_use]
    pub fn entry(&self, index: usize) -> EntryView<'_> {
        assert!(index < self.len(), "entry index out of range");
        EntryView { store: self, index }
    }

    /// Iterates over stored entries in index order.
    pub fn entries(&self) -> impl ExactSizeIterator<Item = EntryView<'_>> {
        (0..self.len()).map(move |index| EntryView { store: self, index })
    }

    /// Counters.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Mutation counter: changes on every insert and clear, so a reader
    /// holding per-entry state (the trajectory tracker) can tell that an
    /// at-capacity replacement invalidated it even though `len` did not
    /// move.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The paper's unified redundancy score between a candidate
    /// `(embedding, map)` and stored entry `y`: the specification the
    /// at-capacity deduplication's one-pass scoring is pinned against.
    #[must_use]
    pub fn redundancy(&self, embedding: &[f64], flat_map: &[f64], y: usize) -> f64 {
        let entry = self.entry(y);
        let sem = cosine_similarity(embedding, entry.embedding());
        let traj = cosine_similarity(flat_map, entry.to_map().flat());
        let (w_sem, w_traj) = self.redundancy_weights();
        w_sem * sem + w_traj * traj
    }

    /// Inserts an iteration. Below capacity it is appended; at capacity
    /// it replaces the stored entry with the highest redundancy score
    /// (the most similar, hence least diversity-preserving, peer).
    ///
    /// Returns the index the entry now occupies.
    ///
    /// # Errors
    ///
    /// [`StoreError`] when the map is not `L × J` or the embedding does
    /// not fit ([`Self::embedding_dim`]); the store is then unchanged.
    pub fn insert(&mut self, embedding: Vec<f64>, map: ExpertMap) -> Result<usize, StoreError> {
        let (mut tracker, mut scan) = (TrajectoryTracker::new(), SemanticScan::new());
        let (traj_dots, sem_dots): (&[f64], &[f64]) = if self.dedups_next_insert() {
            (
                tracker.catch_up(self, map.flat()),
                scan.catch_up(self, &embedding),
            )
        } else {
            (&[], &[])
        };
        self.insert_scored(&embedding, &map, traj_dots, sem_dots)
    }

    /// `true` when the next insert replaces the most redundant entry, so
    /// it needs the candidate's trajectory and semantic dots against
    /// every entry.
    pub(crate) fn dedups_next_insert(&self) -> bool {
        self.replacement == ReplacementPolicy::Redundancy && self.len() >= self.capacity
    }

    /// [`ExpertMapStore::insert`] with the candidate's dot products
    /// against every entry already computed: `traj_dots[i]` is the
    /// left-to-right sum over `map.flat()` against entry `i`, as
    /// [`TrajectoryTracker::catch_up`] returns it, and `sem_dots` the
    /// embedding's dots as [`SemanticScan::catch_up`] returns them. Only
    /// read when [`Self::dedups_next_insert`].
    /// Fails as [`Self::insert`] does, before anything is written.
    pub(crate) fn insert_scored(
        &mut self,
        embedding: &[f64],
        map: &ExpertMap,
        traj_dots: &[f64],
        sem_dots: &[f64],
    ) -> Result<usize, StoreError> {
        let expected = (self.num_layers, self.experts_per_layer);
        let got = (map.num_layers(), map.experts_per_layer());
        if got != expected {
            return Err(StoreError::MapShape { expected, got });
        }
        self.check_embedding(embedding)?;
        let id = self.next_id;
        self.next_id += 1;
        self.generation += 1;
        let index = if self.len() < self.capacity {
            self.stats.appended += 1;
            self.len()
        } else {
            self.stats.replaced += 1;
            match self.replacement {
                // The last maximum wins on `total_cmp` ties
                // (`Iterator::max_by`'s rule).
                ReplacementPolicy::Redundancy => self
                    .dedup_scores(embedding, map.flat(), traj_dots, sem_dots)
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(&b.1))
                    .map_or(0, |(i, _)| i),
                ReplacementPolicy::Fifo => {
                    (0..self.len()).min_by_key(|&i| self.ids[i]).unwrap_or(0)
                }
                ReplacementPolicy::Random => {
                    self.rng_state = SplitMix64::mix(self.rng_state.wrapping_add(id));
                    (self.rng_state % self.len() as u64) as usize
                }
            }
        };
        self.write_at(index, id, embedding, map.flat());
        Ok(index)
    }

    /// Every entry's [`ExpertMapStore::redundancy`] against the
    /// candidate `(embedding, flat)`, in entry order, given its
    /// trajectory and semantic dots (see [`Self::insert_scored`]).
    ///
    /// The candidate's norms are computed once; the stored ones come from
    /// `prefix_norms(L)` and the embedding slab. Every accumulator sums
    /// the same terms in the same order as `cosine_similarity`, so each
    /// score is bit-identical to `redundancy`'s.
    pub(crate) fn dedup_scores<'a>(
        &'a self,
        embedding: &'a [f64],
        flat: &[f64],
        traj_dots: &'a [f64],
        sem_dots: &'a [f64],
    ) -> impl Iterator<Item = f64> + 'a {
        debug_assert!(
            traj_dots.len() == self.len()
                && self
                    .entries()
                    .zip(traj_dots)
                    .all(|(e, d)| e.dot(flat).to_bits() == d.to_bits()),
            "reused trajectory dots differ from a recompute"
        );
        let (slab, sem_norms, stride) = self.embedding_slab();
        debug_assert!(
            sem_dots.len() == self.len()
                && slab.chunks_exact(stride).zip(sem_dots).all(|(row, d)| {
                    let fresh = row
                        .iter()
                        .zip(embedding)
                        .fold(0.0, |acc, (x, q)| acc + q * x);
                    fresh.to_bits() == d.to_bits()
                }),
            "reused semantic dots differ from a fresh slab dot"
        );
        let mut flat_norm2 = 0.0;
        for p in flat {
            flat_norm2 += p * p;
        }
        let flat_norm = flat_norm2.sqrt();
        let stored_norms = &self.prefix_norms[self.num_layers];
        let query_norm2: f64 = embedding.iter().map(|x| x * x).sum();
        let query_norm = query_norm2.sqrt();
        let (w_sem, w_traj) = self.redundancy_weights();
        (0..self.len()).map(move |i| {
            let sem = cosine_from_norms(sem_dots[i], query_norm, sem_norms[i].sqrt());
            let traj = cosine_from_norms(traj_dots[i], flat_norm, stored_norms[i]);
            w_sem * sem + w_traj * traj
        })
    }

    /// `(d/L, (L−d)/L)`: the semantic and trajectory weights of `RDY`.
    fn redundancy_weights(&self) -> (f64, f64) {
        let d = f64::from(self.prefetch_distance).min(self.num_layers as f64);
        let l = self.num_layers as f64;
        (d / l, (l - d) / l)
    }

    /// Writes an entry into row `index` of every buffer: a fresh row when
    /// `index == len`, else over the replaced victim's row in place.
    /// Stamps the row's write generation.
    fn write_at(&mut self, index: usize, id: u64, embedding: &[f64], flat: &[f64]) {
        let j = self.experts_per_layer;
        let append = index == self.len();
        if append {
            self.ids.push(id);
            self.written.push(self.generation);
        } else {
            self.ids[index] = id;
            self.written[index] = self.generation;
        }
        for (block, row) in self.layer_blocks.iter_mut().zip(flat.chunks_exact(j)) {
            if append {
                block.extend_from_slice(row);
            } else {
                block[index * j..(index + 1) * j].copy_from_slice(row);
            }
        }
        let mut norm2 = 0.0;
        for (l, column) in self.prefix_norms.iter_mut().enumerate() {
            if l > 0 {
                for p in &flat[(l - 1) * j..l * j] {
                    norm2 += p * p;
                }
            }
            if append {
                column.push(norm2.sqrt());
            } else {
                column[index] = norm2.sqrt();
            }
        }

        let d = embedding.len();
        self.emb_stride = d;
        let norm2: f64 = embedding.iter().map(|x| x * x).sum();
        if append {
            self.emb_buf.extend_from_slice(embedding);
            self.emb_norm2.push(norm2);
        } else {
            self.emb_buf[index * d..(index + 1) * d].copy_from_slice(embedding);
            self.emb_norm2[index] = norm2;
        }
    }

    /// Layer `l`'s block: `len × J` values, row `i` being entry `i`'s
    /// layer-`l` distribution. The trajectory tracker streams it instead
    /// of chasing per-entry maps.
    pub(crate) fn layer_block(&self, l: usize) -> &[f64] {
        &self.layer_blocks[l]
    }

    /// One value per entry, `l ∈ 0..=L`: the L2 norm of the entry's
    /// first `l` layers (the `sqrt` of the left-to-right sum of squares).
    pub(crate) fn prefix_norms(&self, l: usize) -> &[f64] {
        &self.prefix_norms[l]
    }

    /// One value per entry: the [`Self::generation`] of the insert that
    /// last wrote it.
    pub(crate) fn written(&self) -> &[u64] {
        &self.written
    }

    /// The semantic search's view: `(embeddings, squared norms, stride)`,
    /// the embeddings row-major with one row per entry. Empty, with stride
    /// 0, while the store is empty.
    #[must_use]
    pub fn embedding_slab(&self) -> (&[f64], &[f64], usize) {
        (&self.emb_buf, &self.emb_norm2, self.emb_stride)
    }

    /// Deployment memory footprint in bytes, assuming the paper's fp32
    /// NumPy representation: `L·J` probabilities plus the embedding per
    /// entry, 4 bytes each.
    #[must_use]
    pub fn memory_bytes(&self) -> u64 {
        ((self.len() * self.num_layers * self.experts_per_layer + self.emb_buf.len()) * 4) as u64
    }

    /// Footprint a *full* store of this configuration would occupy — the
    /// quantity the paper's Figure 16 plots against capacity.
    #[must_use]
    pub fn memory_bytes_at_capacity(&self, embedding_dim: usize) -> u64 {
        let per_entry = (self.num_layers * self.experts_per_layer + embedding_dim) * 4;
        (self.capacity * per_entry) as u64
    }

    /// Clears all entries (between experiments).
    pub fn clear(&mut self) {
        self.ids.clear();
        self.written.clear();
        self.generation += 1;
        self.stats = StoreStats::default();
        for block in &mut self.layer_blocks {
            block.clear();
        }
        for column in &mut self.prefix_norms {
            column.clear();
        }
        self.emb_buf.clear();
        self.emb_norm2.clear();
        self.emb_stride = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map_peaked_at(l_count: usize, j: usize, peak: usize) -> ExpertMap {
        ExpertMap::new(
            (0..l_count)
                .map(|_| {
                    let mut row = vec![0.02; j];
                    row[peak] = 1.0 - 0.02 * (j as f64 - 1.0);
                    row
                })
                .collect(),
        )
    }

    fn emb(dir: f64) -> Vec<f64> {
        vec![dir.cos(), dir.sin(), 0.3, -0.1]
    }

    #[test]
    fn appends_below_capacity() {
        let mut s = ExpertMapStore::new(4, 2, 4, 1);
        for i in 0..3 {
            let idx = s.insert(emb(i as f64), map_peaked_at(2, 4, i)).unwrap();
            assert_eq!(idx, i);
        }
        assert_eq!(s.len(), 3);
        assert_eq!(s.stats().appended, 3);
        assert_eq!(s.stats().replaced, 0);
    }

    #[test]
    fn at_capacity_replaces_most_redundant() {
        let mut s = ExpertMapStore::new(2, 2, 4, 1);
        s.insert(emb(0.0), map_peaked_at(2, 4, 0)).unwrap();
        s.insert(emb(1.5), map_peaked_at(2, 4, 2)).unwrap();
        // New entry nearly identical to the first: it must replace index
        // 0, not the diverse index 1.
        let idx = s.insert(emb(0.05), map_peaked_at(2, 4, 0)).unwrap();
        assert_eq!(idx, 0);
        assert_eq!(s.len(), 2);
        assert_eq!(s.stats().replaced, 1);
        // The diverse entry survived.
        assert!(s.entry(1).layer(0)[2] > 0.5);
    }

    #[test]
    fn exact_duplicate_ties_go_to_the_last_index() {
        // Three identical entries score identical redundancy against a
        // fourth copy; `max_by` keeps the last maximum.
        let mut s = ExpertMapStore::new(3, 2, 4, 1);
        for _ in 0..4 {
            s.insert(emb(0.4), map_peaked_at(2, 4, 1)).unwrap();
        }
        assert_eq!(s.entry(2).id(), 3);
    }

    #[test]
    fn redundancy_weights_follow_distance() {
        let mut s = ExpertMapStore::new(4, 4, 4, 1);
        s.insert(emb(0.0), map_peaked_at(4, 4, 0)).unwrap();
        let same_map = map_peaked_at(4, 4, 0).flatten();
        let anti_emb: Vec<f64> = emb(0.0).iter().map(|x| -x).collect();
        // d=1, L=4: RDY = 0.25·sem + 0.75·traj. With sem = −1, traj = 1:
        // RDY = 0.5.
        let rdy = s.redundancy(&anti_emb, &same_map, 0);
        assert!((rdy - 0.5).abs() < 1e-9, "rdy {rdy}");
    }

    #[test]
    fn ids_keep_increasing_across_replacement() {
        let mut s = ExpertMapStore::new(1, 2, 4, 1);
        s.insert(emb(0.0), map_peaked_at(2, 4, 0)).unwrap();
        let generation = s.generation();
        s.insert(emb(0.1), map_peaked_at(2, 4, 1)).unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s.entry(0).id(), 1);
        // A replacement keeps `len` but still moves the generation.
        assert_ne!(s.generation(), generation);
    }

    #[test]
    fn prefix_norms_are_cumulative() {
        let mut s = ExpertMapStore::new(2, 2, 4, 1);
        s.insert(
            emb(0.0),
            ExpertMap::new(vec![vec![1.0, 0.0, 0.0, 0.0], vec![0.0, 1.0, 0.0, 0.0]]),
        )
        .unwrap();
        assert_eq!(s.prefix_norms(0), &[0.0]);
        assert!((s.prefix_norms(1)[0] - 1.0).abs() < 1e-12);
        assert!((s.prefix_norms(2)[0] - 2f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn memory_accounting() {
        let mut s = ExpertMapStore::new(10, 2, 4, 1);
        assert_eq!(s.memory_bytes(), 0);
        s.insert(emb(0.0), map_peaked_at(2, 4, 0)).unwrap();
        // 2·4 probabilities + 4 embedding dims, 4 bytes each.
        assert_eq!(s.memory_bytes(), (8 + 4) * 4);
        assert_eq!(s.memory_bytes_at_capacity(4), 10 * (8 + 4) * 4);
    }

    #[test]
    fn clear_resets() {
        let mut s = ExpertMapStore::new(2, 2, 4, 1);
        s.insert(emb(0.0), map_peaked_at(2, 4, 0)).unwrap();
        let generation = s.generation();
        s.clear();
        assert!(s.is_empty());
        assert_ne!(s.generation(), generation);
        assert_eq!(s.stats(), StoreStats::default());
        assert!((0..2).all(|l| s.layer_block(l).is_empty()));
        assert!((0..=2).all(|l| s.prefix_norms(l).is_empty()));
        assert_eq!(s.embedding_dim(), None);
        assert_eq!(s.embedding_slab(), (&[][..], &[][..], 0));
        // The slabs rebuild after a clear, and the first insert fixes a new
        // embedding dimension.
        s.insert(vec![1.0, 2.0], map_peaked_at(2, 4, 1)).unwrap();
        let (eslab, _, stride) = s.embedding_slab();
        assert_eq!(stride, 2);
        assert_eq!(eslab, &[1.0, 2.0]);
    }

    /// Asserts the norm columns and the embedding slab agree with the
    /// entries the views read.
    fn assert_norms_match_entries(s: &ExpertMapStore) {
        let j = s.experts_per_layer();
        for l in 0..s.num_layers() {
            assert_eq!(s.layer_block(l).len(), s.len() * j);
        }
        for l in 0..=s.num_layers() {
            assert_eq!(s.prefix_norms(l).len(), s.len());
        }
        for (i, e) in s.entries().enumerate() {
            let map = e.to_map();
            for l in 0..=s.num_layers() {
                let norm2 = map.flat()[..l * j].iter().fold(0.0, |acc, p| acc + p * p);
                assert_eq!(s.prefix_norms(l)[i].to_bits(), norm2.sqrt().to_bits());
            }
        }
        let (eslab, enorm, stride) = s.embedding_slab();
        assert_eq!(eslab.len(), s.len() * stride);
        assert_eq!(enorm.len(), s.len());
        for (i, e) in s.entries().enumerate() {
            assert_eq!(&eslab[i * stride..(i + 1) * stride], e.embedding());
            let want: f64 = e.embedding().iter().map(|x| x * x).sum();
            assert_eq!(enorm[i].to_bits(), want.to_bits());
        }
    }

    #[test]
    fn slabs_track_appends_and_replacements() {
        let mut s = ExpertMapStore::new(3, 2, 4, 1);
        for i in 0..3 {
            s.insert(emb(i as f64), map_peaked_at(2, 4, i)).unwrap();
            assert_norms_match_entries(&s);
        }
        assert_eq!(s.embedding_dim(), Some(4));
        // Replacements overwrite the victim's slab rows in place.
        for i in 0..4 {
            s.insert(
                emb(0.2 * f64::from(i)),
                map_peaked_at(2, 4, (i as usize) % 4),
            )
            .unwrap();
            assert_norms_match_entries(&s);
        }
    }

    /// Each entry's id, embedding and map, the generation and the
    /// counters.
    type Snapshot = (Vec<(u64, Vec<f64>, Vec<f64>)>, u64, StoreStats);

    /// Everything a caller can observe of the store, to show that a
    /// refused insert changed none of it.
    fn snapshot(s: &ExpertMapStore) -> Snapshot {
        let entries = s
            .entries()
            .map(|e| (e.id(), e.embedding().to_vec(), e.to_map().flatten()))
            .collect();
        (entries, s.generation(), s.stats())
    }

    #[test]
    fn ragged_embeddings_are_refused_and_leave_the_store_unchanged() {
        let mut s = ExpertMapStore::new(2, 2, 4, 1);
        s.insert(vec![1.0, 0.0], map_peaked_at(2, 4, 0)).unwrap();
        assert_eq!(s.embedding_dim(), Some(2));
        // Below capacity (an append) and at capacity (a replacement).
        for fill in [false, true] {
            if fill {
                s.insert(vec![0.0, 1.0], map_peaked_at(2, 4, 1)).unwrap();
            }
            let before = snapshot(&s);
            assert_eq!(
                s.insert(vec![1.0, 0.0, 0.5], map_peaked_at(2, 4, 1)),
                Err(StoreError::EmbeddingDim {
                    expected: 2,
                    got: 3
                })
            );
            assert_eq!(
                s.insert(vec![0.5], map_peaked_at(2, 4, 2)),
                Err(StoreError::EmbeddingDim {
                    expected: 2,
                    got: 1
                })
            );
            assert_eq!(
                s.insert(Vec::new(), map_peaked_at(2, 4, 2)),
                Err(StoreError::EmptyEmbedding)
            );
            assert_eq!(snapshot(&s), before);
            assert_norms_match_entries(&s);
        }
        // An empty store takes no zero-length embedding either.
        s.clear();
        assert_eq!(
            s.insert(Vec::new(), map_peaked_at(2, 4, 0)),
            Err(StoreError::EmptyEmbedding)
        );
        assert_eq!(s.embedding_dim(), None);
    }
    /// Every `f64` the store holds, by an exhaustive destructure: a new
    /// buffer field fails to compile here until it is counted.
    fn held_f64s(s: &ExpertMapStore) -> usize {
        let ExpertMapStore {
            capacity: _,
            num_layers: _,
            experts_per_layer: _,
            prefetch_distance: _,
            replacement: _,
            rng_state: _,
            ids: _,
            next_id: _,
            generation: _,
            written: _,
            stats: _,
            layer_blocks,
            prefix_norms,
            emb_buf,
            emb_norm2,
            emb_stride: _,
        } = s;
        layer_blocks.iter().map(Vec::len).sum::<usize>()
            + prefix_norms.iter().map(Vec::len).sum::<usize>()
            + emb_buf.len()
            + emb_norm2.len()
    }

    #[test]
    fn holds_one_copy_of_each_map_and_embedding() {
        // L·J map values, the embedding, L + 1 prefix norms and one
        // squared embedding norm per entry.
        let (l, j, e) = (2, 4, 4);
        let per_entry = l * j + e + (l + 1) + 1;
        let mut s = ExpertMapStore::new(3, l, j, 1);
        for i in 0..3 {
            s.insert(emb(i as f64), map_peaked_at(l, j, i)).unwrap();
            assert_eq!(held_f64s(&s), (i + 1) * per_entry);
        }
        for i in 0..5 {
            s.insert(emb(0.3 * f64::from(i)), map_peaked_at(l, j, 3))
                .unwrap();
            assert_eq!(held_f64s(&s), 3 * per_entry);
        }
        s.clear();
        assert_eq!(held_f64s(&s), 0);
        s.insert(emb(0.0), map_peaked_at(l, j, 0)).unwrap();
        assert_eq!(held_f64s(&s), per_entry);
    }

    #[test]
    fn random_replacement_advances_rng_state() {
        // Fill to capacity, then insert repeatedly: the seeded RNG state
        // must advance between inserts, so consecutive at-capacity
        // inserts can pick different victims.
        let mut s = ExpertMapStore::new(4, 2, 4, 1).with_replacement(ReplacementPolicy::Random);
        for i in 0..4 {
            s.insert(emb(i as f64), map_peaked_at(2, 4, i)).unwrap();
        }
        let mut victims = Vec::new();
        for i in 0..8 {
            victims.push(
                s.insert(emb(0.3 * f64::from(i)), map_peaked_at(2, 4, 0))
                    .unwrap(),
            );
        }
        assert_eq!(s.stats().replaced, 8);
        let distinct: std::collections::BTreeSet<usize> = victims.iter().copied().collect();
        assert!(
            distinct.len() >= 2,
            "a frozen rng_state would evict one index forever: {victims:?}"
        );
    }

    #[test]
    fn full_store_memory_matches_at_capacity_projection() {
        let mut s = ExpertMapStore::new(3, 2, 4, 1);
        for i in 0..3 {
            s.insert(emb(i as f64), map_peaked_at(2, 4, i)).unwrap();
        }
        assert_eq!(s.len(), s.capacity());
        // Embeddings from `emb()` are 4-dimensional.
        assert_eq!(s.memory_bytes(), s.memory_bytes_at_capacity(4));
    }

    #[test]
    fn map_shape_mismatch_is_a_typed_error() {
        let mut s = ExpertMapStore::new(2, 3, 4, 1);
        assert_eq!(
            s.insert(emb(0.0), map_peaked_at(2, 4, 0)),
            Err(StoreError::MapShape {
                expected: (3, 4),
                got: (2, 4)
            })
        );
        assert_eq!(
            s.insert(emb(0.0), map_peaked_at(3, 5, 0)),
            Err(StoreError::MapShape {
                expected: (3, 4),
                got: (3, 5)
            })
        );
        // Nothing was written, not even the embedding dimension.
        assert!(s.is_empty());
        assert_eq!(s.embedding_dim(), None);
        assert_eq!(s.generation(), 0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = ExpertMapStore::new(0, 2, 4, 1);
    }
}
