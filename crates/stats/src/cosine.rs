//! Cosine similarity, including the pairwise batched form used by the
//! Expert Map Matcher (paper Equations 4 and 5).

/// Cosine similarity between two vectors, in `[-1, 1]`.
///
/// Returns `0.0` when either vector has zero norm or when the lengths
/// differ by trailing zeros; if the lengths differ, only the common prefix
/// is compared (this mirrors the matcher's comparison of *partial*
/// trajectories against full stored maps).
#[must_use]
pub fn cosine_similarity(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    if n == 0 {
        return 0.0;
    }
    let mut dot = 0.0;
    let mut na = 0.0;
    let mut nb = 0.0;
    for i in 0..n {
        dot += a[i] * b[i];
        na += a[i] * a[i];
        nb += b[i] * b[i];
    }
    if na <= 0.0 || nb <= 0.0 {
        return 0.0;
    }
    (dot / (na.sqrt() * nb.sqrt())).clamp(-1.0, 1.0)
}

/// Pairwise cosine similarity between a batch of query vectors and a batch
/// of candidate vectors: `result[x][y] = cos(queries[x], candidates[y])`.
///
/// This is the `score ∈ R^{B×C}` computation from the paper's Equations 4
/// (semantic search) and 5 (trajectory search), where `B` is the batch size
/// and `C` the Expert Map Store capacity.
#[must_use]
pub fn pairwise_cosine(queries: &[Vec<f64>], candidates: &[Vec<f64>]) -> Vec<Vec<f64>> {
    queries
        .iter()
        .map(|q| candidates.iter().map(|c| cosine_similarity(q, c)).collect())
        .collect()
}

/// Index and score of the best-scoring candidate for a single query, or
/// `None` when `candidates` is empty.
#[must_use]
pub fn argmax_cosine(query: &[f64], candidates: &[Vec<f64>]) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    for (i, c) in candidates.iter().enumerate() {
        let s = cosine_similarity(query, c);
        match best {
            Some((_, bs)) if bs >= s => {}
            _ => best = Some((i, s)),
        }
    }
    best
}

/// Adds `query · row_i` to `dots[i]` for the first `dots.len()` rows of a
/// row-major `block` of `width`-wide rows: the one dot kernel of every
/// slab scan (the semantic search, the trajectory search and the store's
/// deduplication).
///
/// Four consecutive rows go per pass, each with its own accumulator
/// started at its `dots[i]`. Every accumulator adds its row's products
/// left to right, the terms and the order of a one-row loop, so each sum
/// is bit-identical to that loop's; the four chains only run side by side
/// instead of one after another. Rows past the end of `block`, and query
/// terms past `width`, are not read.
pub fn add_row_dots(block: &[f64], width: usize, query: &[f64], dots: &mut [f64]) {
    if width == 0 {
        return;
    }
    let rows = dots.len().min(block.len() / width);
    let (dots, block) = (&mut dots[..rows], &block[..rows * width]);
    let query = &query[..query.len().min(width)];
    let mut tiles = dots.chunks_exact_mut(4);
    for (acc, tile) in (&mut tiles).zip(block.chunks_exact(4 * width)) {
        let (r0, rest) = tile.split_at(width);
        let (r1, rest) = rest.split_at(width);
        let (r2, r3) = rest.split_at(width);
        let [mut a0, mut a1, mut a2, mut a3] = [acc[0], acc[1], acc[2], acc[3]];
        for ((((&q, &x0), &x1), &x2), &x3) in query.iter().zip(r0).zip(r1).zip(r2).zip(r3) {
            a0 += q * x0;
            a1 += q * x1;
            a2 += q * x2;
            a3 += q * x3;
        }
        acc.copy_from_slice(&[a0, a1, a2, a3]);
    }
    let tail = &block[(rows - rows % 4) * width..];
    for (acc, row) in tiles
        .into_remainder()
        .iter_mut()
        .zip(tail.chunks_exact(width))
    {
        for (&q, &x) in query.iter().zip(row) {
            *acc += q * x;
        }
    }
}

/// `cosine_similarity`'s last step from a dot product and the two L2
/// norms: `0.0` when either norm is zero, else the clamped quotient.
///
/// The quotient is taken either way and then discarded for a zero norm,
/// so a loop over rows compiles to branch-free (and vectorizable)
/// divisions; floating-point division never traps.
#[inline]
#[must_use]
pub fn cosine_from_norms(dot: f64, query_norm: f64, row_norm: f64) -> f64 {
    let score = (dot / (query_norm * row_norm)).clamp(-1.0, 1.0);
    if query_norm <= 0.0 || row_norm <= 0.0 {
        0.0
    } else {
        score
    }
}

/// The shared front of the slab searches: checks the layout contract,
/// fills `dots` with `query · row_i` for every row and returns the
/// query's L2 norm, or `None` when the slab cannot serve `query` (then
/// `dots` is left empty).
fn slab_dots(
    query: &[f64],
    slab: &[f64],
    stride: usize,
    row_norm2: &[f64],
    dots: &mut Vec<f64>,
) -> Option<f64> {
    dots.clear();
    if row_norm2.is_empty() || stride == 0 || query.len() != stride {
        return None;
    }
    debug_assert_eq!(slab.len(), stride * row_norm2.len());
    dots.resize(row_norm2.len(), 0.0);
    add_row_dots(slab, stride, query, dots);
    Some(query.iter().map(|x| x * x).sum::<f64>().sqrt())
}

/// Cosine of `query` against every row of a contiguous row-major slab
/// with precomputed squared row norms, returning the argmax.
///
/// `slab` holds `row_norm2.len()` rows of `stride` elements each;
/// `row_norm2[i]` must equal the left-to-right sum of squares of row `i`.
/// On return `dots[i]` holds `query · row_i` as [`add_row_dots`] sums it,
/// so a caller can keep the scan's dots (the store's deduplication reuses
/// them). Scores are **bit-identical** to calling [`cosine_similarity`]
/// per row: each accumulator (dot, query norm, row norm) sums the same
/// terms in the same index order as the interleaved reference loop.
///
/// Ties keep the lower index (strict `>` comparison), matching
/// [`argmax_cosine`]. Returns `None`, with `dots` empty, when the slab is
/// empty or when `query.len() != stride`: the precomputed norms are
/// full-row norms, so a query of another length has no cosine against
/// them. Callers check the length first; the Expert Map Store reports a
/// mismatch as a typed error.
#[must_use]
pub fn argmax_cosine_slab(
    query: &[f64],
    slab: &[f64],
    stride: usize,
    row_norm2: &[f64],
    dots: &mut Vec<f64>,
) -> Option<(usize, f64)> {
    let na = slab_dots(query, slab, stride, row_norm2, dots)?;
    let mut best: Option<(usize, f64)> = None;
    for (i, (&dot, &nb)) in dots.iter().zip(row_norm2).enumerate() {
        let score = cosine_from_norms(dot, na, nb.sqrt());
        match best {
            Some((_, bs)) if bs >= score => {}
            _ => best = Some((i, score)),
        }
    }
    best
}

/// The `k` best-scoring rows of a slab for one query, heap-selected in
/// `O(rows · log k)` instead of a full sort.
///
/// Same layout contract and bit-identical scoring as
/// [`argmax_cosine_slab`]. The result is sorted by descending score with
/// ties broken toward the lower row index, so `result[0]` always equals
/// `argmax_cosine_slab`'s answer. Returns an empty vector in the cases
/// where `argmax_cosine_slab` returns `None`, or when `k == 0`.
#[must_use]
pub fn top_k_cosine_slab(
    query: &[f64],
    slab: &[f64],
    stride: usize,
    row_norm2: &[f64],
    k: usize,
) -> Vec<(usize, f64)> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    if k == 0 {
        return Vec::new();
    }
    let mut dots = Vec::new();
    let Some(na) = slab_dots(query, slab, stride, row_norm2, &mut dots) else {
        return Vec::new();
    };
    // Min-heap of the k best seen so far; `ScoredRow`'s ordering makes the
    // heap minimum the lowest score (largest index on score ties), so a
    // tie with the current worst keeps the earlier row.
    let mut heap: BinaryHeap<Reverse<ScoredRow>> = BinaryHeap::with_capacity(k + 1);
    for (i, (&dot, &nb)) in dots.iter().zip(row_norm2).enumerate() {
        let score = cosine_from_norms(dot, na, nb.sqrt());
        let cand = ScoredRow { score, index: i };
        if heap.len() < k {
            heap.push(Reverse(cand));
        } else if let Some(Reverse(worst)) = heap.peek() {
            if cand > *worst {
                heap.pop();
                heap.push(Reverse(cand));
            }
        }
    }
    let mut out: Vec<ScoredRow> = heap.into_iter().map(|Reverse(s)| s).collect();
    out.sort_unstable_by(|a, b| b.cmp(a));
    out.into_iter().map(|s| (s.index, s.score)).collect()
}

/// Total order for heap selection: by score, then *descending* index, so
/// "greater" means better score or, on ties, the earlier row.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ScoredRow {
    score: f64,
    index: usize,
}

impl Eq for ScoredRow {}

impl Ord for ScoredRow {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.score
            .total_cmp(&other.score)
            .then_with(|| other.index.cmp(&self.index))
    }
}

impl PartialOrd for ScoredRow {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_vectors_have_similarity_one() {
        let v = [1.0, 2.0, 3.0];
        assert!((cosine_similarity(&v, &v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn orthogonal_vectors_have_similarity_zero() {
        assert!(cosine_similarity(&[1.0, 0.0], &[0.0, 1.0]).abs() < 1e-12);
    }

    #[test]
    fn opposite_vectors_have_similarity_minus_one() {
        assert!((cosine_similarity(&[1.0, 1.0], &[-1.0, -1.0]) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_vector_yields_zero() {
        assert_eq!(cosine_similarity(&[0.0, 0.0], &[1.0, 2.0]), 0.0);
        assert_eq!(cosine_similarity(&[], &[]), 0.0);
    }

    #[test]
    fn partial_prefix_comparison() {
        // A 2-element query against a 4-element candidate compares only the
        // first two entries.
        let q = [1.0, 0.0];
        let c = [1.0, 0.0, 9.0, 9.0];
        assert!((cosine_similarity(&q, &c) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pairwise_shape_and_values() {
        let queries = vec![vec![1.0, 0.0], vec![0.0, 1.0]];
        let candidates = vec![vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]];
        let m = pairwise_cosine(&queries, &candidates);
        assert_eq!(m.len(), 2);
        assert_eq!(m[0].len(), 3);
        assert!((m[0][0] - 1.0).abs() < 1e-12);
        assert!(m[0][1].abs() < 1e-12);
        assert!((m[1][2] - (0.5f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn argmax_picks_the_best_candidate() {
        let q = [1.0, 0.1];
        let candidates = vec![vec![0.0, 1.0], vec![1.0, 0.0], vec![-1.0, 0.0]];
        let (idx, score) = argmax_cosine(&q, &candidates).unwrap();
        assert_eq!(idx, 1);
        assert!(score > 0.9);
        assert!(argmax_cosine(&q, &[]).is_none());
    }

    fn slab_fixture() -> (Vec<Vec<f64>>, Vec<f64>, Vec<f64>) {
        let rows = vec![
            vec![0.0, 1.0, 0.5],
            vec![1.0, 0.1, -0.2],
            vec![-1.0, 0.0, 0.0],
            vec![0.9, 0.2, -0.1],
        ];
        let slab: Vec<f64> = rows.iter().flatten().copied().collect();
        let norms: Vec<f64> = rows.iter().map(|r| r.iter().map(|x| x * x).sum()).collect();
        (rows, slab, norms)
    }

    #[test]
    fn slab_argmax_is_bit_identical_to_reference() {
        let (rows, slab, norms) = slab_fixture();
        let q = [1.0, 0.1, -0.3];
        let (ri, rs) = argmax_cosine(&q, &rows).unwrap();
        let (si, ss) = argmax_cosine_slab(&q, &slab, 3, &norms, &mut Vec::new()).unwrap();
        assert_eq!(ri, si);
        assert_eq!(rs.to_bits(), ss.to_bits());
    }

    #[test]
    fn slab_searches_reject_queries_of_another_length_and_empty_slabs() {
        let (_, slab, norms) = slab_fixture();
        for q in [&[1.0, 0.1][..], &[1.0, 0.1, -0.3, 0.2][..]] {
            let mut dots = vec![9.0];
            assert!(argmax_cosine_slab(q, &slab, 3, &norms, &mut dots).is_none());
            assert!(dots.is_empty());
            assert!(top_k_cosine_slab(q, &slab, 3, &norms, 2).is_empty());
        }
        assert!(argmax_cosine_slab(&[1.0, 0.1, 0.0], &[], 3, &[], &mut Vec::new()).is_none());
        assert!(argmax_cosine_slab(&[], &[], 0, &norms, &mut Vec::new()).is_none());
    }

    #[test]
    fn slab_top_k_matches_full_sort() {
        let (rows, slab, norms) = slab_fixture();
        let q = [1.0, 0.1, -0.3];
        let mut full: Vec<(usize, f64)> = rows
            .iter()
            .enumerate()
            .map(|(i, r)| (i, cosine_similarity(&q, r)))
            .collect();
        full.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        for k in 0..=5 {
            let top = top_k_cosine_slab(&q, &slab, 3, &norms, k);
            assert_eq!(top.len(), k.min(rows.len()));
            for (got, want) in top.iter().zip(&full) {
                assert_eq!(got.0, want.0, "k={k}");
                assert_eq!(got.1.to_bits(), want.1.to_bits(), "k={k}");
            }
        }
    }

    #[test]
    fn slab_top_k_breaks_ties_toward_lower_index() {
        // Rows 0 and 2 are identical, so they tie exactly.
        let rows = [vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 0.0]];
        let slab: Vec<f64> = rows.iter().flatten().copied().collect();
        let norms: Vec<f64> = rows.iter().map(|r| r.iter().map(|x| x * x).sum()).collect();
        let top = top_k_cosine_slab(&[1.0, 0.0], &slab, 2, &norms, 2);
        assert_eq!(top[0].0, 0);
        assert_eq!(top[1].0, 2);
        let one = top_k_cosine_slab(&[1.0, 0.0], &slab, 2, &norms, 1);
        assert_eq!(one[0].0, 0);
    }
}
