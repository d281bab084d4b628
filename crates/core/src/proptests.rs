//! Property-based tests for the expert map, store, matcher and selection
//! invariants.

#![cfg(test)]

use crate::config::FmoeConfig;
use crate::map::ExpertMap;
use crate::matcher::{MatchResult, Matcher, SemanticScan, TrajectoryTracker};
use crate::predictor::FmoePredictor;
use crate::selection::{prefetch_priority, select_experts, select_top_n, SelectedExpert};
use crate::store::{ExpertMapStore, ReplacementPolicy, StoreError, StoreStats};
use fmoe_model::gate::TokenSpan;
use fmoe_model::{presets, ExpertId, RequestRouting};
use fmoe_serving::{ExpertPredictor, IterationContext, PrefetchPlan};
use proptest::prelude::*;
use std::ops::Range;

const L: usize = 4;
const J: usize = 6;

/// A random normalized distribution of width `J`.
fn row() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.001f64..1.0, J).prop_map(|mut v| {
        let s: f64 = v.iter().sum();
        v.iter_mut().for_each(|x| *x /= s);
        v
    })
}

/// A random L×J expert map.
fn map() -> impl Strategy<Value = ExpertMap> {
    prop::collection::vec(row(), L).prop_map(ExpertMap::new)
}

/// `l` normalized rows of width `j` whose weights often repeat, so exact
/// probability ties are common.
fn tied_rows(l: usize, j: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    let weight = prop_oneof![0.001f64..1.0, Just(0.25), Just(0.5)];
    prop::collection::vec(
        prop::collection::vec(weight, j).prop_map(|mut v| {
            let s: f64 = v.iter().sum();
            v.iter_mut().for_each(|x| *x /= s);
            v
        }),
        l,
    )
}

fn replacement_policy() -> impl Strategy<Value = ReplacementPolicy> {
    prop_oneof![
        Just(ReplacementPolicy::Redundancy),
        Just(ReplacementPolicy::Fifo),
        Just(ReplacementPolicy::Random),
    ]
}

/// What happens to the store between two iterations.
#[derive(Debug, Clone, Copy)]
enum Boundary {
    Keep,
    Clear,
    Reload,
}

/// One step of a store's life.
#[derive(Debug, Clone)]
enum StoreOp {
    /// Insert the pair, keeping the first `keep` embedding values when the
    /// run is ragged.
    Insert(Vec<f64>, ExpertMap, usize),
    Clear,
    Reload,
}

fn store_op() -> impl Strategy<Value = StoreOp> {
    let insert =
        || (embedding(), map(), 1usize..=8).prop_map(|(e, m, keep)| StoreOp::Insert(e, m, keep));
    prop_oneof![
        insert(),
        insert(),
        insert(),
        insert(),
        insert(),
        insert(),
        Just(StoreOp::Clear),
        Just(StoreOp::Reload),
    ]
}

fn boundary() -> impl Strategy<Value = Boundary> {
    prop_oneof![
        Just(Boundary::Keep),
        Just(Boundary::Keep),
        Just(Boundary::Clear),
        Just(Boundary::Reload),
    ]
}

/// The full-map trajectory dot, recomputed from the two flat maps.
fn full_dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).fold(0.0, |acc, (x, y)| acc + x * y)
}

/// The at-capacity redundancy victim by full recompute: `redundancy`
/// against every entry, the last maximum on ties (index 0 when empty).
fn recomputed_victim(store: &ExpertMapStore, embedding: &[f64], flat: &[f64]) -> usize {
    (0..store.len())
        .max_by(|&a, &b| {
            store
                .redundancy(embedding, flat, a)
                .total_cmp(&store.redundancy(embedding, flat, b))
        })
        .unwrap_or(0)
}

/// Everything a caller can observe of a store: each entry's id,
/// embedding and map, the generation and the counters.
type Contents = (Vec<(u64, Vec<f64>, Vec<f64>)>, u64, StoreStats);

fn contents(store: &ExpertMapStore) -> Contents {
    let entries = store
        .entries()
        .map(|e| (e.id(), e.embedding().to_vec(), e.to_map().flatten()))
        .collect();
    (entries, store.generation(), store.stats())
}

/// The reference top-k semantic search, the oracle of
/// `Matcher::semantic_top_k`: score every entry with
/// `cosine_similarity`, full sort (descending score, then ascending
/// index), truncate.
pub(crate) fn semantic_top_k_reference(
    store: &ExpertMapStore,
    embedding: &[f64],
    k: usize,
) -> Vec<MatchResult> {
    let mut scored: Vec<MatchResult> = store
        .entries()
        .enumerate()
        .map(|(i, entry)| MatchResult {
            entry_index: i,
            score: fmoe_stats::cosine_similarity(embedding, entry.embedding()),
        })
        .collect();
    scored.sort_by(|a, b| {
        b.score
            .total_cmp(&a.score)
            .then(a.entry_index.cmp(&b.entry_index))
    });
    scored.truncate(k);
    scored
}

/// Asserts both stores hold the same entries at the same indices.
fn assert_same_entries(a: &ExpertMapStore, b: &ExpertMapStore) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.entries().zip(b.entries()) {
        assert_eq!(x.id(), y.id());
        assert_eq!(x.embedding(), y.embedding());
        assert!((0..L).all(|l| x
            .layer(l)
            .iter()
            .zip(y.layer(l))
            .all(|(p, q)| p.to_bits() == q.to_bits())));
    }
}

/// One call of the plan builder.
#[derive(Debug, Clone)]
struct PlanCall {
    m: MatchResult,
    is_prefill: bool,
    layers: Range<u32>,
    current_layer: i64,
    advise: bool,
}

/// The plan pipeline `FmoePredictor::plans` replaced, kept as its spec:
/// `select_experts` (or `select_top_n`) per target layer, the priority
/// plans stable-sorted, then the advisories in layer and slot order.
fn reference_plans(config: &FmoeConfig, map: &ExpertMap, call: &PlanCall) -> Vec<PrefetchPlan> {
    let select = |row: &[f64]| -> Vec<SelectedExpert> {
        if config.use_dynamic_threshold {
            let score = if call.is_prefill {
                call.m.score.min(1.0 - config.prefill_coverage_floor)
            } else {
                call.m.score
            };
            select_experts(
                row,
                score,
                config.min_prefetch_per_layer,
                config.max_prefetch_per_layer,
            )
        } else {
            select_top_n(row, config.fixed_prefetch_count)
        }
    };
    let neutral = 1.0 / map.experts_per_layer() as f64;
    let confidence = call.m.score.clamp(0.0, 1.0);
    let mut scored: Vec<(f64, PrefetchPlan)> = Vec::new();
    let mut advisories = Vec::new();
    for t in call.layers.clone() {
        let searched = map.layer(t as usize);
        let selection = select(searched);
        for &(slot, p) in &selection {
            let plan = PrefetchPlan::fetch(ExpertId::new(t, slot as u32), p);
            scored.push((prefetch_priority(p, t, call.current_layer), plan));
        }
        if call.advise {
            for (slot, &p) in searched.iter().enumerate() {
                if !selection.iter().any(|&(s, _)| s == slot) {
                    let advised = confidence * p + (1.0 - confidence) * neutral;
                    advisories.push(PrefetchPlan::advise(ExpertId::new(t, slot as u32), advised));
                }
            }
        }
    }
    if config.use_priority_ordering {
        scored.sort_by(|a, b| b.0.total_cmp(&a.0));
    }
    let mut plans: Vec<PrefetchPlan> = scored.into_iter().map(|(_, plan)| plan).collect();
    plans.extend(advisories);
    plans
}

/// An embedding of the small test model's width, which its predictor's
/// loaders require.
fn model_embedding() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1.0f64..1.0, 64)
}

fn embedding() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1.0f64..1.0, 8)
        .prop_filter("nonzero", |v| v.iter().any(|x| x.abs() > 1e-3))
}

/// Entry-major reference for [`TrajectoryTracker::best`]: per-entry dots
/// over the row-major flattened map, squared prefix norms accumulated
/// entry by entry, and a `sqrt` per entry in the score.
fn entry_major_best(store: &ExpertMapStore, observed: &[Vec<f64>]) -> Option<MatchResult> {
    let mut query_norm2 = 0.0;
    for row in observed {
        query_norm2 += row.iter().map(|p| p * p).sum::<f64>();
    }
    if observed.is_empty() || store.is_empty() || query_norm2 <= 0.0 {
        return None;
    }
    let qn = query_norm2.sqrt();
    let mut best: Option<MatchResult> = None;
    for (i, entry) in store.entries().enumerate() {
        let mut dot = 0.0;
        let mut en2 = 0.0;
        let map = entry.to_map();
        for (query, stored) in observed.iter().zip(map.flat().chunks_exact(J)) {
            for (a, b) in query.iter().zip(stored) {
                dot += a * b;
            }
            for p in stored {
                en2 += p * p;
            }
        }
        let score = if en2 <= 0.0 {
            0.0
        } else {
            (dot / (qn * en2.sqrt())).clamp(-1.0, 1.0)
        };
        if best.is_none_or(|b| score > b.score) {
            best = Some(MatchResult {
                entry_index: i,
                score,
            });
        }
    }
    best
}

proptest! {
    #[test]
    fn flatten_round_trips_layers(m in map()) {
        let flat = m.flatten();
        prop_assert_eq!(flat.len(), L * J);
        for l in 0..L {
            prop_assert_eq!(&flat[l * J..(l + 1) * J], m.layer(l));
        }
    }

    #[test]
    fn top_k_counts_sum_to_k_per_layer(m in map(), k in 1usize..=J) {
        for row in m.to_top_k_counts(k) {
            prop_assert_eq!(row.iter().sum::<u64>(), k as u64);
        }
    }

    #[test]
    fn store_never_exceeds_capacity(
        entries in prop::collection::vec((embedding(), map()), 1..40),
        capacity in 1usize..12,
    ) {
        let mut store = ExpertMapStore::new(capacity, L, J, 2);
        for (e, m) in entries {
            let idx = store.insert(e, m).unwrap();
            prop_assert!(idx < capacity);
            prop_assert!(store.len() <= capacity);
        }
    }

    #[test]
    fn store_replacement_prefers_duplicates(
        base in (embedding(), map()),
        other in (embedding(), map()),
    ) {
        // A store holding [base, other] at capacity 2; inserting an exact
        // copy of base must replace base (the most redundant entry), as
        // long as the two entries are not themselves near-identical.
        let mut store = ExpertMapStore::new(2, L, J, 2);
        store.insert(base.0.clone(), base.1.clone()).unwrap();
        store.insert(other.0.clone(), other.1.clone()).unwrap();
        let r_base = store.redundancy(&base.0, &base.1.flatten(), 0);
        let r_other = store.redundancy(&base.0, &base.1.flatten(), 1);
        prop_assume!(r_base > r_other + 1e-9);
        let idx = store.insert(base.0.clone(), base.1.clone()).unwrap();
        prop_assert_eq!(idx, 0);
    }

    #[test]
    fn dedup_victim_is_max_by_redundancy(
        pool in prop::collection::vec((embedding(), map()), 1..5),
        picks in prop::collection::vec(0usize..5, 1..30),
        ragged in any::<bool>(),
        capacity in 1usize..8,
    ) {
        // Picks from a small pool give exact duplicates (ties go to the
        // last index); `ragged` truncates every other pool embedding, and
        // the store refuses every embedding whose length is not the one
        // its first insert fixed, leaving its contents as they were.
        let mut store = ExpertMapStore::new(capacity, L, J, 2);
        for pick in picks {
            let k = pick % pool.len();
            let (mut e, m) = pool[k].clone();
            if ragged && k % 2 == 1 {
                e.truncate(5);
            }
            if let Some(expected) = store.embedding_dim().filter(|&d| d != e.len()) {
                let before = contents(&store);
                let got = e.len();
                prop_assert_eq!(store.insert(e, m), Err(StoreError::EmbeddingDim { expected, got }));
                prop_assert_eq!(contents(&store), before);
                continue;
            }
            let spec = (store.len() == capacity).then(|| {
                let flat = m.flatten();
                (0..store.len())
                    .max_by(|&a, &b| {
                        store
                            .redundancy(&e, &flat, a)
                            .total_cmp(&store.redundancy(&e, &flat, b))
                    })
                    .unwrap()
            });
            let idx = store.insert(e, m).unwrap();
            if let Some(victim) = spec {
                prop_assert_eq!(idx, victim);
            }
        }
    }

    #[test]
    fn redundancy_is_bounded(
        a in (embedding(), map()),
        b in (embedding(), map()),
    ) {
        let mut store = ExpertMapStore::new(2, L, J, 2);
        store.insert(b.0.clone(), b.1.clone()).unwrap();
        let r = store.redundancy(&a.0, &a.1.flatten(), 0);
        prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r), "{}", r);
    }

    #[test]
    fn semantic_match_finds_exact_copy(
        entries in prop::collection::vec((embedding(), map()), 1..10),
        pick in 0usize..10,
    ) {
        let mut store = ExpertMapStore::new(16, L, J, 2);
        for (e, m) in &entries {
            store.insert(e.clone(), m.clone()).unwrap();
        }
        let target = pick % entries.len();
        let m = Matcher::semantic_match(&store, &entries[target].0).unwrap().unwrap();
        // The exact embedding scores 1.0; the winner must score at least
        // as high (ties possible with colinear embeddings).
        prop_assert!(m.score >= 1.0 - 1e-9);
    }

    #[test]
    fn semantic_fast_path_is_bit_identical_to_reference(
        entries in prop::collection::vec((embedding(), map()), 1..12),
        query in embedding(),
    ) {
        let mut store = ExpertMapStore::new(16, L, J, 2);
        for (e, m) in &entries {
            store.insert(e.clone(), m.clone()).unwrap();
        }
        let fast = Matcher::semantic_match(&store, &query).unwrap().unwrap();
        let slow = Matcher::semantic_match_reference(&store, &query).unwrap();
        prop_assert_eq!(fast.entry_index, slow.entry_index);
        prop_assert_eq!(fast.score.to_bits(), slow.score.to_bits());
    }

    #[test]
    fn semantic_top_k_is_bit_identical_to_reference(
        entries in prop::collection::vec((embedding(), map()), 1..12),
        query in embedding(),
        k in 0usize..14,
    ) {
        let mut store = ExpertMapStore::new(16, L, J, 2);
        for (e, m) in &entries {
            store.insert(e.clone(), m.clone()).unwrap();
        }
        let fast = Matcher::semantic_top_k(&store, &query, k).unwrap();
        let slow = semantic_top_k_reference(&store, &query, k);
        prop_assert_eq!(fast.len(), slow.len());
        for (f, r) in fast.iter().zip(&slow) {
            prop_assert_eq!(f.entry_index, r.entry_index);
            prop_assert_eq!(f.score.to_bits(), r.score.to_bits());
        }
    }

    #[test]
    fn tracker_prefix_norms_agree_with_cosine_on_random_prefixes(
        entries in prop::collection::vec((embedding(), map()), 1..8),
        query in map(),
        layers in 1usize..=L,
    ) {
        // The one-shot path recomputes the candidate norm over the common
        // prefix inside `cosine_similarity`; the incremental tracker uses
        // the store's precomputed prefix-norm columns. Both must land on
        // the same entry and score for every partial trajectory length.
        let mut store = ExpertMapStore::new(16, L, J, 2);
        for (e, m) in &entries {
            store.insert(e.clone(), m.clone()).unwrap();
        }
        let mut tracker = TrajectoryTracker::new();
        tracker.reset(&store);
        for l in 0..layers {
            tracker.observe_layer(&store, query.layer(l));
        }
        let prefix: Vec<Vec<f64>> =
            (0..layers).map(|x| query.layer(x).to_vec()).collect();
        let inc = tracker.best(&store).unwrap();
        let os = Matcher::trajectory_match(&store, &prefix).unwrap();
        prop_assert!((inc.score - os.score).abs() < 1e-9);
        // On non-tied scores the winning entry must agree too.
        if store.len() > 1 {
            let mut scores: Vec<f64> = (0..store.len())
                .map(|i| {
                    let flat: Vec<f64> = prefix.iter().flatten().copied().collect();
                    fmoe_stats::cosine_similarity(
                        &flat,
                        &store.entry(i).to_map().flat()[..layers * J],
                    )
                })
                .collect();
            scores.sort_by(f64::total_cmp);
            let gap = scores[scores.len() - 1] - scores[scores.len() - 2];
            if gap > 1e-9 {
                prop_assert_eq!(inc.entry_index, os.entry_index);
            }
        }
    }

    #[test]
    fn tracker_best_is_bit_identical_to_entry_major_formula(
        entries in prop::collection::vec((embedding(), map()), 1..12),
        query in map(),
        copy in 0usize..12,
    ) {
        // Querying with a stored map makes exact-score ties likely among
        // duplicates; the prefix runs one layer past the model depth.
        let mut store = ExpertMapStore::new(16, L, J, 2);
        for (e, m) in &entries {
            store.insert(e.clone(), m.clone()).unwrap();
        }
        for query in [query, entries[copy % entries.len()].1.clone()] {
            let mut tracker = TrajectoryTracker::new();
            tracker.reset(&store);
            let mut observed = Vec::new();
            for l in 0..=L {
                let row = query.layer(l.min(L - 1)).to_vec();
                tracker.observe_layer(&store, &row);
                observed.push(row);
                let fast = tracker.best(&store).unwrap();
                let spec = entry_major_best(&store, &observed).unwrap();
                prop_assert_eq!(fast.entry_index, spec.entry_index);
                prop_assert_eq!(fast.score.to_bits(), spec.score.to_bits());
            }
        }
    }

    #[test]
    fn chunked_best_matches_the_one_entry_scan_with_ties_and_zero_norms(
        pool in prop::collection::vec(tied_rows(L, J), 1..4),
        picks in prop::collection::vec((0usize..4, 0usize..=L), 1..=13),
        query in tied_rows(L, J),
        zero_query_layers in 0usize..=L,
    ) {
        // Entries drawn from a small pool tie exactly, and every count of
        // entries mod 4 occurs; an entry whose first `z` layers are zero
        // has zero prefix norms up to layer `z`, as does the query.
        let mut store = ExpertMapStore::new(16, L, J, 2);
        for &(k, z) in &picks {
            let mut rows = pool[k % pool.len()].clone();
            rows[..z].iter_mut().for_each(|row| row.fill(0.0));
            store.insert(vec![1.0, 0.0], ExpertMap::new(rows)).unwrap();
        }
        let mut query = query;
        query[..zero_query_layers].iter_mut().for_each(|row| row.fill(0.0));
        let mut tracker = TrajectoryTracker::new();
        tracker.reset(&store);
        let mut observed = Vec::new();
        for row in query {
            tracker.observe_layer(&store, &row);
            observed.push(row);
            let chunked = tracker.best(&store).map(|m| (m.entry_index, m.score.to_bits()));
            let scan = entry_major_best(&store, &observed).map(|m| (m.entry_index, m.score.to_bits()));
            prop_assert_eq!(chunked, scan);
        }
    }

    #[test]
    fn reused_semantic_dots_pick_the_fresh_dedup_victim(
        prefill in prop::collection::vec((embedding(), map()), 1..8),
        batch in prop::collection::vec((embedding(), map(), any::<bool>()), 2..=4),
        below_capacity in any::<bool>(),
    ) {
        // Every element searches before any inserts; then the elements
        // insert one after another, so a later element's reused dots must
        // catch up with the entries appended (`below_capacity`: the first
        // insert appends) and replaced since its search. A flagged
        // element carries a stored embedding, so scores tie.
        let capacity = prefill.len() + usize::from(below_capacity);
        let mut store = ExpertMapStore::new(capacity, L, J, 2);
        for (e, m) in &prefill {
            store.insert(e.clone(), m.clone()).unwrap();
        }
        let batch: Vec<(Vec<f64>, ExpertMap)> = batch
            .into_iter()
            .enumerate()
            .map(|(k, (e, m, copy))| (if copy { prefill[k % prefill.len()].0.clone() } else { e }, m))
            .collect();
        let mut states: Vec<(TrajectoryTracker, SemanticScan)> = Vec::new();
        for (e, _) in &batch {
            let (mut tracker, mut scan) = (TrajectoryTracker::new(), SemanticScan::new());
            tracker.reset(&store);
            let _ = scan.search(&store, e);
            states.push((tracker, scan));
        }
        for l in 0..L {
            for ((tracker, _), (_, m)) in states.iter_mut().zip(&batch) {
                tracker.observe_layer(&store, m.layer(l));
            }
        }
        for ((tracker, scan), (e, m)) in states.iter_mut().zip(&batch) {
            if !store.dedups_next_insert() {
                store.insert_scored(e, m, &[], &[]).unwrap();
                continue;
            }
            let traj = tracker.catch_up(&store, m.flat()).to_vec();
            let reused = scan.catch_up(&store, e).to_vec();
            let mut fresh_scan = SemanticScan::new();
            let fresh = fresh_scan.catch_up(&store, e);
            prop_assert_eq!(reused.len(), fresh.len());
            for (r, f) in reused.iter().zip(fresh) {
                prop_assert_eq!(r.to_bits(), f.to_bits());
            }
            let victim = |sem: &[f64]| {
                store
                    .dedup_scores(e, m.flat(), &traj, sem)
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(&b.1))
                    .map(|(i, _)| i)
            };
            let want = victim(fresh);
            prop_assert_eq!(victim(&reused), want);
            prop_assert_eq!(store.insert_scored(e, m, &traj, &reused).ok(), want);
        }
    }

    #[test]
    fn semantic_catch_up_scores_a_changed_embedding_fresh(
        entries in prop::collection::vec((embedding(), map()), 1..10),
        searched in embedding(),
        other in embedding(),
        nudged in 0usize..8,
    ) {
        // An `end` whose embedding is not bit-equal to the searched one,
        // even by one ulp, must not reuse the search's dots.
        let mut store = ExpertMapStore::new(16, L, J, 2);
        for (e, m) in &entries {
            store.insert(e.clone(), m.clone()).unwrap();
        }
        let mut ulp_off = searched.clone();
        ulp_off[nudged] = f64::from_bits(ulp_off[nudged].to_bits() + 1);
        for end in [other, ulp_off] {
            let mut scan = SemanticScan::new();
            let _ = scan.search(&store, &searched);
            let dots = scan.catch_up(&store, &end);
            prop_assert_eq!(dots.len(), store.len());
            for (dot, entry) in dots.iter().zip(store.entries()) {
                prop_assert_eq!(dot.to_bits(), full_dot(&end, entry.embedding()).to_bits());
            }
        }
    }

    #[test]
    fn incremental_tracker_equals_one_shot(
        entries in prop::collection::vec((embedding(), map()), 1..8),
        query in map(),
    ) {
        let mut store = ExpertMapStore::new(16, L, J, 2);
        for (e, m) in &entries {
            store.insert(e.clone(), m.clone()).unwrap();
        }
        let mut tracker = TrajectoryTracker::new();
        tracker.reset(&store);
        for l in 0..L {
            tracker.observe_layer(&store, query.layer(l));
            let inc = tracker.best(&store).unwrap();
            let prefix: Vec<Vec<f64>> = (0..=l).map(|x| query.layer(x).to_vec()).collect();
            let os = Matcher::trajectory_match(&store, &prefix).unwrap();
            prop_assert!((inc.score - os.score).abs() < 1e-9);
        }
    }

    #[test]
    fn selection_respects_constraints(
        dist in row(),
        score in -1.0f64..1.0,
        min_count in 1usize..=J,
        max_count in 1usize..=J,
    ) {
        let sel = select_experts(&dist, score, min_count, max_count);
        // Cap respected.
        prop_assert!(sel.len() <= max_count);
        // Floor respected whenever the cap allows it.
        prop_assert!(sel.len() >= min_count.min(max_count));
        // Coverage: selected probability mass reaches δ unless the cap
        // cut selection short.
        let delta = (1.0 - score).clamp(0.0, 1.0);
        let mass: f64 = sel.iter().map(|s| s.1).sum();
        if sel.len() < max_count {
            prop_assert!(mass >= delta - 1e-9, "mass {} < delta {}", mass, delta);
        }
        // Distinct slots, sorted by probability.
        let mut slots: Vec<usize> = sel.iter().map(|s| s.0).collect();
        slots.sort_unstable();
        slots.dedup();
        prop_assert_eq!(slots.len(), sel.len());
        for w in sel.windows(2) {
            prop_assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn selection_is_greedy_minimal(
        dist in row(),
        score in -1.0f64..1.0,
    ) {
        // Dropping the last selected expert must leave the threshold
        // unsatisfied (otherwise the selection was not minimal), unless
        // the floor forced the size.
        let min_count = 1;
        let sel = select_experts(&dist, score, min_count, J);
        let delta = (1.0 - score).clamp(0.0, 1.0);
        if sel.len() > min_count {
            let mass_without_last: f64 =
                sel[..sel.len() - 1].iter().map(|s| s.1).sum();
            prop_assert!(mass_without_last < delta + 1e-9);
        }
    }

    #[test]
    fn top_n_orders_by_probability(dist in row(), n in 0usize..=J) {
        let sel = select_top_n(&dist, n);
        prop_assert_eq!(sel.len(), n.min(J));
        for w in sel.windows(2) {
            prop_assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn persistence_round_trips_arbitrary_stores(
        entries in prop::collection::vec((embedding(), map()), 0..12),
        capacity in 1usize..16,
    ) {
        let mut store = ExpertMapStore::new(capacity.max(12), L, J, 2);
        for (e, m) in entries {
            store.insert(e, m).unwrap();
        }
        let mut buf = Vec::new();
        store.save_to(&mut buf).unwrap();
        let loaded = ExpertMapStore::load_from(&mut buf.as_slice()).unwrap();
        prop_assert_eq!(loaded.len(), store.len());
        for (a, b) in store.entries().zip(loaded.entries()) {
            for (x, y) in a.to_map().flat().iter().zip(b.to_map().flat()) {
                prop_assert!((x - y).abs() < 1e-6);
            }
        }
        // Any single-byte truncation must fail cleanly, never panic.
        if !buf.is_empty() {
            let truncated = &buf[..buf.len() - 1];
            prop_assert!(ExpertMapStore::load_from(&mut &truncated[..]).is_err());
        }
    }

    #[test]
    fn priority_monotonicity(
        p1 in 0.0f64..1.0,
        p2 in 0.0f64..1.0,
        layer in 0u32..32,
        current in -1i64..31,
    ) {
        prop_assume!(i64::from(layer) > current);
        // Higher probability at the same target never loses.
        let a = prefetch_priority(p1.max(p2), layer, current);
        let b = prefetch_priority(p1.min(p2), layer, current);
        prop_assert!(a >= b);
        // Nearer target with equal probability never loses.
        let near = prefetch_priority(p1, layer, current);
        let far = prefetch_priority(p1, layer + 5, current);
        prop_assert!(near >= far);
    }

    #[test]
    fn from_rows_slices_back_to_its_rows(rows in tied_rows(5, 3)) {
        let map = ExpertMap::from_rows(&rows);
        prop_assert_eq!(map.num_layers(), rows.len());
        for (l, row) in rows.iter().enumerate() {
            prop_assert_eq!(map.layer(l), &row[..]);
        }
        prop_assert!(map.layers().eq(rows.iter().map(Vec::as_slice)));
        prop_assert_eq!(&ExpertMap::new(rows.clone()), &map);
        prop_assert_eq!(&ExpertMap::from_flat(map.flatten(), 3), &map);
    }

    #[test]
    fn entry_views_read_back_what_was_inserted(
        ops in prop::collection::vec(store_op(), 1..40),
        capacity in 1usize..8,
        policy in replacement_policy(),
        ragged in any::<bool>(),
        query in map(),
    ) {
        // `model[i]` is what index `i` was last written with: its id,
        // embedding and map. A reload renumbers the ids and rounds every
        // value through the wire format's f32.
        let mut store = ExpertMapStore::new(capacity, L, J, 2).with_replacement(policy);
        let mut model: Vec<(u64, Vec<f64>, Vec<f64>)> = Vec::new();
        let mut next_id = 0;
        for op in ops {
            match op {
                StoreOp::Insert(mut e, m, keep) => {
                    if ragged {
                        e.truncate(keep);
                    }
                    // The first entry's length is the store's dimension;
                    // an embedding of another is refused and changes
                    // nothing, the generation included.
                    match model.first().map(|(_, first, _)| first.len()) {
                        Some(expected) if expected != e.len() => {
                            let generation = store.generation();
                            let got = e.len();
                            prop_assert_eq!(
                                store.insert(e, m),
                                Err(StoreError::EmbeddingDim { expected, got })
                            );
                            prop_assert_eq!(store.generation(), generation);
                        }
                        _ => {
                            let idx = store.insert(e.clone(), m.clone()).unwrap();
                            let written = (next_id, e, m.flatten());
                            if idx == model.len() {
                                model.push(written);
                            } else {
                                model[idx] = written;
                            }
                            next_id += 1;
                        }
                    }
                }
                StoreOp::Clear => {
                    store.clear();
                    model.clear();
                }
                StoreOp::Reload => {
                    let mut bytes = Vec::new();
                    store.save_to(&mut bytes).unwrap();
                    store = ExpertMapStore::load_from(&mut bytes.as_slice())
                        .unwrap()
                        .with_replacement(policy);
                    let round = |v: &[f64]| v.iter().map(|&x| f64::from(x as f32)).collect();
                    model = model
                        .iter()
                        .zip(0..)
                        .map(|((_, e, flat), id)| (id, round(e), round(flat)))
                        .collect();
                    next_id = model.len() as u64;
                }
            }
            prop_assert_eq!(store.len(), model.len());
            prop_assert_eq!(store.entries().len(), model.len());
            for (entry, (id, e, flat)) in store.entries().zip(&model) {
                prop_assert_eq!(entry.id(), *id);
                prop_assert_eq!(entry.embedding(), &e[..]);
                for l in 0..L {
                    prop_assert_eq!(entry.layer(l), &flat[l * J..(l + 1) * J]);
                }
                prop_assert_eq!(entry.to_map().flat(), &flat[..]);
                prop_assert_eq!(
                    entry.dot(query.flat()).to_bits(),
                    full_dot(query.flat(), flat).to_bits()
                );
            }
        }
    }

    #[test]
    fn dedup_from_tracker_dots_matches_full_recompute(
        iterations in prop::collection::vec(
            (prop::collection::vec((embedding(), map()), 1..=8), boundary()),
            1..7,
        ),
        capacity in 1usize..10,
        policy in replacement_policy(),
    ) {
        // The predictor's order: every element's tracker resets and
        // observes its map, then the elements insert one after another,
        // so later elements catch up with earlier elements' appends and
        // replacements. `reference` takes the same inserts through the
        // public `insert`, which scores from a fresh tracker.
        let mut store = ExpertMapStore::new(capacity, L, J, 2).with_replacement(policy);
        let mut reference = ExpertMapStore::new(capacity, L, J, 2).with_replacement(policy);
        let mut trackers: Vec<(TrajectoryTracker, SemanticScan)> = Vec::new();
        for (batch, boundary) in iterations {
            trackers.resize_with(batch.len(), Default::default);
            for ((tracker, scan), (e, _)) in trackers.iter_mut().zip(&batch) {
                tracker.reset(&store);
                let _ = scan.search(&store, e);
            }
            for l in 0..L {
                for ((tracker, _), (_, m)) in trackers.iter_mut().zip(&batch) {
                    tracker.observe_layer(&store, m.layer(l));
                }
            }
            for ((tracker, scan), (e, m)) in trackers.iter_mut().zip(batch) {
                let flat = m.flat();
                let (dots, sem_dots): (&[f64], &[f64]) = if store.dedups_next_insert() {
                    (tracker.catch_up(&store, flat), scan.catch_up(&store, &e))
                } else {
                    (&[], &[])
                };
                let victim = store.dedups_next_insert().then(|| {
                    for (i, dot) in dots.iter().enumerate() {
                        assert_eq!(dot.to_bits(), full_dot(flat, store.entry(i).to_map().flat()).to_bits());
                    }
                    for (i, dot) in sem_dots.iter().enumerate() {
                        assert_eq!(dot.to_bits(), full_dot(&e, store.entry(i).embedding()).to_bits());
                    }
                    for (i, score) in store.dedup_scores(&e, flat, dots, sem_dots).enumerate() {
                        assert_eq!(score.to_bits(), store.redundancy(&e, flat, i).to_bits());
                    }
                    recomputed_victim(&store, &e, flat)
                });
                let idx = store.insert_scored(&e, &m, dots, sem_dots).unwrap();
                prop_assert_eq!(idx, reference.insert(e, m).unwrap());
                if let Some(victim) = victim {
                    prop_assert_eq!(idx, victim);
                }
            }
            assert_same_entries(&store, &reference);
            match boundary {
                Boundary::Keep => {}
                Boundary::Clear => {
                    store.clear();
                    reference.clear();
                }
                Boundary::Reload => {
                    let mut bytes = Vec::new();
                    store.save_to(&mut bytes).unwrap();
                    store = ExpertMapStore::load_from(&mut bytes.as_slice())
                        .unwrap()
                        .with_replacement(policy);
                    reference = ExpertMapStore::load_from(&mut bytes.as_slice())
                        .unwrap()
                        .with_replacement(policy);
                }
            }
        }
    }

    #[test]
    fn predictor_map_update_matches_fresh_store_inserts(
        iterations in prop::collection::vec(
            (
                prop::collection::vec((model_embedding(), tied_rows(8, 8)), 1..=8),
                boundary(),
                any::<bool>(),
                any::<bool>(),
            ),
            1..6,
        ),
        capacity in 1usize..10,
        policy in replacement_policy(),
    ) {
        // The engine's hook order over a batch, with `reset` or
        // `load_store_from_path` between iterations; the store must end
        // every insert exactly as a store scored by full recompute. With
        // `shifted`, each element observes its neighbour's rows, so the
        // map it inserts is not the one its tracker saw. Without `hooks`,
        // the elements only end their iteration, as perf_smoke's
        // `predictor_end` does: nothing was searched or observed.
        let model = presets::small_test_model();
        let mut config = FmoeConfig::for_model(&model);
        config.store_capacity = capacity;
        config.store_replacement = policy;
        let mut p = FmoePredictor::new(model, config);
        let mut reference = ExpertMapStore::new(capacity, 8, 8, p.config().prefetch_distance)
            .with_replacement(policy);
        // The test harness may run this property on two threads at once.
        let path = std::env::temp_dir().join(format!(
            "fmoe_dedup_proptest_{}_{:?}.fmoe",
            std::process::id(),
            std::thread::current().id()
        ));
        for (iteration, (batch, boundary, shifted, hooks)) in (0u64..).zip(iterations) {
            let contexts: Vec<IterationContext> = batch
                .iter()
                .enumerate()
                .map(|(element, (embedding, _))| IterationContext {
                    element,
                    request_id: element as u64,
                    iteration,
                    is_prefill: iteration == 0,
                    span: TokenSpan::single(16),
                    embedding: embedding.clone(),
                    routing: RequestRouting {
                        cluster: 0,
                        request_seed: element as u64,
                    },
                })
                .collect();
            for ctx in contexts.iter().filter(|_| hooks) {
                let _ = p.begin_iteration(ctx);
            }
            for layer in (0..8u32).filter(|_| hooks) {
                for (k, ctx) in contexts.iter().enumerate() {
                    let observed = if shifted { (k + 1) % batch.len() } else { k };
                    let _ = p.observe_gate(ctx, layer, &batch[observed].1[layer as usize]);
                }
            }
            for (ctx, (embedding, rows)) in contexts.iter().zip(&batch) {
                p.end_iteration(ctx, rows);
                reference.insert(embedding.clone(), ExpertMap::new(rows.clone())).unwrap();
                assert_same_entries(p.store(), &reference);
            }
            match boundary {
                Boundary::Keep => {}
                Boundary::Clear => {
                    p.reset();
                    reference.clear();
                }
                Boundary::Reload => {
                    p.save_store_to_path(&path).unwrap();
                    p.load_store_from_path(&path).unwrap();
                    reference = ExpertMapStore::load_from_path(&path).unwrap();
                    assert_same_entries(p.store(), &reference);
                }
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn plan_builder_matches_select_then_plans_for(
        rows in tied_rows(8, 8),
        score in -1.0f64..1.0,
        modes in (any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>()),
        counts in (0usize..=9, 0usize..=9, 0usize..=9),
        first in 0u32..8,
        width in 0u32..5,
        current_layer in -1i64..8,
    ) {
        let (dynamic, ordering, is_prefill, advise) = modes;
        let (min_count, max_count, fixed) = counts;
        let model = presets::small_test_model();
        let mut config = FmoeConfig::for_model(&model);
        config.use_dynamic_threshold = dynamic;
        config.use_priority_ordering = ordering;
        config.min_prefetch_per_layer = min_count;
        config.max_prefetch_per_layer = max_count;
        config.fixed_prefetch_count = fixed;
        let mut p = FmoePredictor::new(model, config);
        let ctx = IterationContext {
            element: 0,
            request_id: 0,
            iteration: 0,
            is_prefill,
            span: TokenSpan::single(16),
            embedding: vec![1.0, 0.0],
            routing: RequestRouting { cluster: 0, request_seed: 0 },
        };
        p.end_iteration(&ctx, &rows);
        let call = PlanCall {
            m: MatchResult { entry_index: 0, score },
            is_prefill,
            layers: first..(first + width).min(8),
            current_layer,
            advise,
        };
        let want = reference_plans(p.config(), &p.store().entry(0).to_map(), &call);
        let got = p.plans(call.m, call.is_prefill, call.layers.clone(), call.current_layer, call.advise);
        prop_assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            prop_assert_eq!(g.expert, w.expert);
            prop_assert_eq!(g.advisory, w.advisory);
            prop_assert_eq!(g.probability.to_bits(), w.probability.to_bits());
        }
    }
}
