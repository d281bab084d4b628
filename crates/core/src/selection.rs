//! Similarity-aware expert selection and prefetch prioritization
//! (paper §4.3).
//!
//! Given a searched distribution `P_l` and the match's similarity
//! `score`, fMoE computes a dynamic threshold
//!
//! ```text
//! δ_l = Clip(1 − score, 0, 1)
//! ```
//!
//! and selects the *smallest* set of highest-probability experts whose
//! summed probability reaches `δ_l`, subject to the Constraint-8 floor of
//! more than `K` experts. Intuition: a dubious match (low score) gets a
//! high threshold — prefetch broadly to hedge mispredictions; a confident
//! match gets a low threshold — prefetch narrowly to save memory and
//! bandwidth.
//!
//! Prefetch ordering uses `PRI^prefetch_{l,j} = p_{l,j} / (l − l_now)`:
//! likely experts first, near layers first.

/// A selected expert: `(slot within the layer, searched probability)`.
pub type SelectedExpert = (usize, f64);

/// Selects the experts to prefetch for one layer.
///
/// * `distribution` — the searched map's `P_l`.
/// * `score` — the similarity score of the match, in `[-1, 1]`.
/// * `min_count` — Constraint-8 floor (the paper uses `K + 1`).
/// * `max_count` — hard cap (at most `J`).
///
/// Returns experts in descending probability order.
///
/// ```
/// use fmoe::selection::select_experts;
///
/// let searched = [0.5, 0.3, 0.1, 0.06, 0.04];
/// // Confident match (score 0.9): δ = 0.1 — the floor of 2 suffices.
/// assert_eq!(select_experts(&searched, 0.9, 2, 5).len(), 2);
/// // Dubious match (score 0.1): δ = 0.9 — hedge with three experts
/// // (0.5 + 0.3 + 0.1 reaches the 0.9 threshold).
/// assert_eq!(select_experts(&searched, 0.1, 2, 5).len(), 3);
/// ```
#[must_use]
pub fn select_experts(
    distribution: &[f64],
    score: f64,
    min_count: usize,
    max_count: usize,
) -> Vec<SelectedExpert> {
    let mut ranked = Vec::new();
    rank_into(distribution, &mut ranked);
    ranked.truncate(threshold_len(&ranked, score, min_count, max_count));
    ranked
}

/// Fixed-size selection (the "Map (T+S)" ablation without the dynamic
/// threshold): top `count` experts by probability.
#[must_use]
pub fn select_top_n(distribution: &[f64], count: usize) -> Vec<SelectedExpert> {
    let mut ranked = Vec::new();
    rank_into(distribution, &mut ranked);
    ranked.truncate(count);
    ranked
}

/// Ranks `distribution` into `ranked`: descending probability, ties to
/// the lower slot. Slots are distinct, so the order is total and an
/// unstable sort needs no scratch buffer.
pub(crate) fn rank_into(distribution: &[f64], ranked: &mut Vec<SelectedExpert>) {
    ranked.clear();
    ranked.extend(distribution.iter().copied().enumerate());
    ranked.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
}

/// How many experts of a ranked row [`select_experts`] keeps: the
/// smallest prefix whose mass reaches `δ = clip(1 − score)`, at least
/// `min_count` and at most `max_count` long.
pub(crate) fn threshold_len(
    ranked: &[SelectedExpert],
    score: f64,
    min_count: usize,
    max_count: usize,
) -> usize {
    if ranked.is_empty() || max_count == 0 {
        return 0;
    }
    let delta = (1.0 - score).clamp(0.0, 1.0);
    let max_count = max_count.min(ranked.len());
    let min_count = min_count.min(max_count);
    let mut len = 0;
    let mut cumulative = 0.0;
    for &(_, p) in ranked {
        if len >= max_count || (cumulative >= delta && len >= min_count) {
            break;
        }
        len += 1;
        cumulative += p;
    }
    len
}

/// fMoE's prefetch priority `PRI = p / (l − l_now)` (§4.5). `l_now` is
/// the layer the forward pass currently occupies; targets at or behind it
/// are given the distance of one layer.
#[must_use]
pub fn prefetch_priority(probability: f64, target_layer: u32, current_layer: i64) -> f64 {
    let distance = (i64::from(target_layer) - current_layer).max(1) as f64;
    probability / distance
}

#[cfg(test)]
mod tests {
    use super::*;

    const DIST: [f64; 8] = [0.30, 0.25, 0.15, 0.10, 0.08, 0.06, 0.04, 0.02];

    #[test]
    fn high_score_selects_the_floor() {
        // score 0.95 → δ = 0.05: the top expert alone covers it, but the
        // Constraint-8 floor (3) applies.
        let sel = select_experts(&DIST, 0.95, 3, 8);
        assert_eq!(sel.len(), 3);
        assert_eq!(sel[0].0, 0);
        assert_eq!(sel[1].0, 1);
        assert_eq!(sel[2].0, 2);
    }

    #[test]
    fn low_score_selects_broadly() {
        // score 0.1 → δ = 0.9: needs the top six experts
        // (0.30+0.25+0.15+0.10+0.08+0.06 = 0.94 ≥ 0.9).
        let sel = select_experts(&DIST, 0.1, 3, 8);
        assert_eq!(sel.len(), 6);
    }

    #[test]
    fn negative_score_clamps_to_full_threshold() {
        // score −0.5 → δ clipped to 1.0: everything until the cap.
        let sel = select_experts(&DIST, -0.5, 3, 8);
        assert_eq!(sel.len(), 8);
    }

    #[test]
    fn selection_is_monotone_in_score() {
        let mut last = usize::MAX;
        for score in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let n = select_experts(&DIST, score, 1, 8).len();
            assert!(n <= last, "selection must shrink as score grows");
            last = n;
        }
    }

    #[test]
    fn max_count_caps_selection() {
        let sel = select_experts(&DIST, 0.0, 3, 4);
        assert_eq!(sel.len(), 4);
    }

    #[test]
    fn results_are_probability_sorted() {
        let sel = select_experts(&DIST, 0.2, 2, 8);
        for w in sel.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        assert!(select_experts(&[], 0.5, 2, 4).is_empty());
        assert!(select_experts(&DIST, 0.5, 2, 0).is_empty());
        // min > J clamps to J.
        let sel = select_experts(&[0.6, 0.4], 1.0, 10, 10);
        assert_eq!(sel.len(), 2);
    }

    #[test]
    fn top_n_selection() {
        let sel = select_top_n(&DIST, 3);
        assert_eq!(sel.iter().map(|s| s.0).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(select_top_n(&DIST, 0).len(), 0);
        assert_eq!(select_top_n(&DIST, 100).len(), 8);
    }

    #[test]
    fn priority_prefers_near_and_likely() {
        // Same probability: nearer layer wins.
        assert!(prefetch_priority(0.5, 4, 3) > prefetch_priority(0.5, 6, 3));
        // Same layer: higher probability wins.
        assert!(prefetch_priority(0.9, 5, 3) > prefetch_priority(0.2, 5, 3));
        // Degenerate distance floors at 1.
        assert_eq!(prefetch_priority(0.8, 2, 5), 0.8);
    }

    #[test]
    fn selection_with_uniform_distribution_hits_floor_then_threshold() {
        let uniform = [0.125; 8];
        // δ = 0.5 needs 4 experts; floor of 3 is subsumed.
        let sel = select_experts(&uniform, 0.5, 3, 8);
        assert_eq!(sel.len(), 4);
    }
}
