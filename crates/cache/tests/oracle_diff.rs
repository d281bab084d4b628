//! Differential testing of the cache and every eviction policy against
//! naive oracles.
//!
//! Each shipped policy (LRU, FIFO, SIEVE, per-access and coarse LFU, and
//! fMoE's joint priority) gets a deliberately dumb reference model built
//! on plain `Vec`s: no arenas, no dense tables, no single-pass minimum;
//! a ranked policy sorts its candidates and takes the first. Seeded
//! mixed operations drive the real code and the oracle side by side in
//! two ways:
//!
//! * [`run_cache`] drives an [`ExpertCache`] on one GPU and on two (with
//!   round-robin homes and pins, so a victim must come from the unpinned
//!   residents of the inserting GPU). After *every* operation the two
//!   must agree on the eviction sequence (exact victims, in order), the
//!   resident set, and the full [`CacheStats`] counters.
//! * [`run_policy`] drives a bare policy and hands it candidate lists in
//!   shuffled order, so a tie rule that leaned on the cache's ascending
//!   candidate order would show: every victim must be the least
//!   `(key, ExpertId)`, whatever order the candidates come in.
//!
//! The op streams come from a splitmix64 generator seeded per run, so a
//! failure reproduces from its printed seed with no proptest machinery.
//! A proptest layer on top feeds shorter arbitrary sequences through the
//! same drivers for shrinking-friendly counterexamples.

use fmoe_cache::{CacheStats, EvictionPolicy, ExpertCache, InsertOutcome, PolicyKind};
use fmoe_model::{presets, ExpertId, ModelConfig};
use proptest::prelude::*;

/// Slots per GPU.
const SLOTS: u64 = 3;
const NUM_EXPERTS: usize = 16;
/// Experts per layer of the tiny test model (4 layers × 4).
const J: u32 = 4;
/// fMoE's prior for an expert no searched map has spoken about: `1/J`.
const NEUTRAL: f64 = 0.25;
/// The floor fMoE applies to a known probability.
const PROBABILITY_FLOOR: f64 = 1e-3;
/// The probabilities the op streams draw from: few distinct values whose
/// products with small frequencies collide exactly (0.125 · 2 = 0.25 ·
/// 1), so equal scores, and the id tie rule, come up often. 0.0005 sits
/// below the floor.
const PROBABILITIES: [f64; 6] = [0.0, 0.0005, 0.125, 0.25, 0.5, 1.0];

const FMOE: PolicyKind = PolicyKind::FmoePriority {
    neutral_probability: NEUTRAL,
};

/// Every shipped policy, as the tests name it.
const KINDS: [(PolicyKind, &str); 6] = [
    (PolicyKind::Fifo, "fifo"),
    (PolicyKind::Lru, "lru"),
    (PolicyKind::Sieve, "sieve"),
    (PolicyKind::Lfu, "lfu"),
    (PolicyKind::LfuCoarse, "lfu-coarse"),
    (FMOE, "fmoe-priority"),
];

fn expert(i: usize) -> ExpertId {
    ExpertId::from_dense_index(i % NUM_EXPERTS, J)
}

/// Splitmix64: tiny, seedable, good enough to mix op streams.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Access(usize),
    Insert(usize),
    Remove(usize),
    /// Pins a resident expert (cache driver only).
    Pin(usize),
    /// Clears every pin (cache driver only).
    UnpinAll,
    /// A searched-map probability, an index into [`PROBABILITIES`].
    Probability(usize, usize),
    LayerDone(u32),
    IterationBoundary,
    /// One victim choice over a shuffled subset of the residents, drawn
    /// from this seed (bare-policy driver only).
    Evict(u64),
}

fn random_ops(seed: u64, count: usize) -> Vec<Op> {
    let mut rng = SplitMix64(seed);
    (0..count)
        .map(|_| {
            let e = rng.below(NUM_EXPERTS);
            match rng.below(100) {
                0..=34 => Op::Access(e),
                35..=62 => Op::Insert(e),
                63..=68 => Op::Remove(e),
                69..=78 => Op::Pin(e),
                79..=80 => Op::UnpinAll,
                81..=89 => Op::Probability(e, rng.below(PROBABILITIES.len())),
                90..=91 => Op::LayerDone(rng.below(4) as u32),
                92..=93 => Op::IterationBoundary,
                _ => Op::Evict(rng.next()),
            }
        })
        .collect()
}

/// What an eviction policy's reference model must provide: its
/// bookkeeping, plus victim selection over a candidate list in any
/// order.
trait Oracle {
    fn on_insert(&mut self, e: ExpertId);
    fn on_hit(&mut self, e: ExpertId);
    fn on_remove(&mut self, e: ExpertId);
    fn update_probability(&mut self, _e: ExpertId, _p: f64) {}
    fn layer_done(&mut self, _layer: u32) {}
    fn iteration_boundary(&mut self) {}
    /// The victim among `candidates`, every one of them resident.
    fn pick_victim(&mut self, candidates: &[ExpertId]) -> ExpertId;
}

/// The first entry of `queue` that is a candidate.
fn first_candidate(queue: &[ExpertId], candidates: &[ExpertId]) -> ExpertId {
    *queue
        .iter()
        .find(|e| candidates.contains(e))
        .expect("candidates are resident")
}

/// FIFO: victims in strict insertion order; hits change nothing.
#[derive(Default)]
struct FifoOracle {
    q: Vec<ExpertId>, // index 0 = oldest
}

impl Oracle for FifoOracle {
    fn on_insert(&mut self, e: ExpertId) {
        self.q.push(e);
    }
    fn on_hit(&mut self, _e: ExpertId) {}
    fn on_remove(&mut self, e: ExpertId) {
        self.q.retain(|&x| x != e);
    }
    fn pick_victim(&mut self, candidates: &[ExpertId]) -> ExpertId {
        first_candidate(&self.q, candidates)
    }
}

/// LRU: any touch (hit or re-insert) moves the entry to the newest end.
/// Valid as an oracle here because the driver's clock strictly
/// increases, so the real `LruPolicy`'s `(stamp, id)` minimum never has
/// to tie-break — recency order alone decides.
#[derive(Default)]
struct LruOracle {
    q: Vec<ExpertId>, // index 0 = least recently touched
}

impl Oracle for LruOracle {
    fn on_insert(&mut self, e: ExpertId) {
        self.q.push(e);
    }
    fn on_hit(&mut self, e: ExpertId) {
        self.q.retain(|&x| x != e);
        self.q.push(e);
    }
    fn on_remove(&mut self, e: ExpertId) {
        self.q.retain(|&x| x != e);
    }
    fn pick_victim(&mut self, candidates: &[ExpertId]) -> ExpertId {
        first_candidate(&self.q, candidates)
    }
}

/// SIEVE: a hand sweeps oldest → newest (wrapping), skipping entries that
/// are not candidates, sparing visited candidates (clearing their bit)
/// and evicting the first unvisited one; the hand then parks on the
/// entry just newer than the victim.
#[derive(Default)]
struct SieveOracle {
    q: Vec<(ExpertId, bool)>, // index 0 = oldest; bool = visited
    hand: Option<ExpertId>,
}

impl Oracle for SieveOracle {
    fn on_insert(&mut self, e: ExpertId) {
        self.q.push((e, false));
    }
    fn on_hit(&mut self, e: ExpertId) {
        if let Some(entry) = self.q.iter_mut().find(|(x, _)| *x == e) {
            entry.1 = true;
        }
    }
    fn on_remove(&mut self, e: ExpertId) {
        let Some(pos) = self.q.iter().position(|(x, _)| *x == e) else {
            return;
        };
        if self.hand == Some(e) {
            // Re-park on the next-newer entry, like the arena version.
            self.hand = self.q.get(pos + 1).map(|(x, _)| *x);
        }
        self.q.remove(pos);
    }
    fn pick_victim(&mut self, candidates: &[ExpertId]) -> ExpertId {
        let mut pos = self
            .hand
            .and_then(|h| self.q.iter().position(|(x, _)| *x == h))
            .unwrap_or(0);
        loop {
            let (e, visited) = self.q[pos];
            if candidates.contains(&e) {
                if !visited {
                    self.hand = self.q.get(pos + 1).map(|(x, _)| *x);
                    return e;
                }
                self.q[pos].1 = false;
            }
            pos = (pos + 1) % self.q.len();
        }
    }
}

/// `e`'s count in a naive `(expert, count)` list; 0 when absent.
fn count_of(counts: &[(ExpertId, u64)], e: ExpertId) -> u64 {
    counts.iter().find(|(x, _)| *x == e).map_or(0, |&(_, n)| n)
}

fn bump(counts: &mut Vec<(ExpertId, u64)>, e: ExpertId) {
    match counts.iter_mut().find(|(x, _)| *x == e) {
        Some(entry) => entry.1 += 1,
        None => counts.push((e, 1)),
    }
}

/// LFU: the least hit count goes first, then the smaller id. Counts
/// survive eviction. Coarse counting credits an expert at most once
/// between iteration boundaries.
struct LfuOracle {
    coarse: bool,
    freq: Vec<(ExpertId, u64)>,
    seen: Vec<ExpertId>,
}

impl LfuOracle {
    fn new(coarse: bool) -> Self {
        Self {
            coarse,
            freq: Vec::new(),
            seen: Vec::new(),
        }
    }
}

impl Oracle for LfuOracle {
    fn on_insert(&mut self, _e: ExpertId) {}
    fn on_hit(&mut self, e: ExpertId) {
        if self.coarse {
            if self.seen.contains(&e) {
                return;
            }
            self.seen.push(e);
        }
        bump(&mut self.freq, e);
    }
    fn on_remove(&mut self, _e: ExpertId) {}
    fn iteration_boundary(&mut self) {
        self.seen.clear();
    }
    fn pick_victim(&mut self, candidates: &[ExpertId]) -> ExpertId {
        let mut ranked: Vec<(u64, ExpertId)> = candidates
            .iter()
            .map(|&e| (count_of(&self.freq, e), e))
            .collect();
        ranked.sort_unstable();
        ranked[0].1
    }
}

/// fMoE's joint priority: the least `p · (freq + 1)` goes first, then the
/// smaller id. `p` is the latest searched-map probability (floored), or
/// the neutral prior once the layer ran, the iteration ended, or no map
/// spoke; hit counts survive eviction.
#[derive(Default)]
struct FmoeOracle {
    freq: Vec<(ExpertId, u64)>,
    probability: Vec<(ExpertId, f64)>,
}

impl FmoeOracle {
    fn score(&self, e: ExpertId) -> f64 {
        let p = self
            .probability
            .iter()
            .find(|(x, _)| *x == e)
            .map_or(NEUTRAL, |&(_, p)| p.max(PROBABILITY_FLOOR));
        p * (count_of(&self.freq, e) + 1) as f64
    }
}

impl Oracle for FmoeOracle {
    fn on_insert(&mut self, _e: ExpertId) {}
    fn on_hit(&mut self, e: ExpertId) {
        bump(&mut self.freq, e);
    }
    fn on_remove(&mut self, _e: ExpertId) {}
    fn update_probability(&mut self, e: ExpertId, p: f64) {
        self.probability.retain(|(x, _)| *x != e);
        self.probability.push((e, p.clamp(0.0, 1.0)));
    }
    fn layer_done(&mut self, layer: u32) {
        self.probability.retain(|(x, _)| x.layer != layer);
    }
    fn iteration_boundary(&mut self) {
        self.probability.clear();
    }
    fn pick_victim(&mut self, candidates: &[ExpertId]) -> ExpertId {
        let mut ranked: Vec<(f64, ExpertId)> =
            candidates.iter().map(|&e| (self.score(e), e)).collect();
        ranked.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        ranked[0].1
    }
}

fn oracle_for(kind: PolicyKind) -> Box<dyn Oracle> {
    match kind {
        PolicyKind::Fifo => Box::new(FifoOracle::default()),
        PolicyKind::Lru => Box::new(LruOracle::default()),
        PolicyKind::Sieve => Box::new(SieveOracle::default()),
        PolicyKind::Lfu => Box::new(LfuOracle::new(false)),
        PolicyKind::LfuCoarse => Box::new(LfuOracle::new(true)),
        PolicyKind::FmoePriority {
            neutral_probability,
        } => {
            assert_eq!(neutral_probability, NEUTRAL, "the oracle's prior");
            Box::new(FmoeOracle::default())
        }
    }
}

/// Drives a real cache on `gpus` GPUs and `kind`'s oracle through one op
/// stream, checking eviction sequence, residency, and stats after every
/// step. Expert `e`'s home is its dense index mod `gpus`; a GPU holds
/// [`SLOTS`] experts, and an insert that finds every resident of its GPU
/// pinned is rejected after the evictions it already made.
fn run_cache(kind: PolicyKind, ops: &[Op], gpus: u32, label: &str) {
    let cfg: ModelConfig = presets::tiny_test_model();
    let mut cache = ExpertCache::new(
        &cfg,
        cfg.expert_bytes() * SLOTS * u64::from(gpus),
        gpus,
        kind.build(),
    );
    let mut oracle = oracle_for(kind);
    let home = |e: ExpertId| e.dense_index(J) % gpus as usize;

    let mut resident: Vec<ExpertId> = Vec::new();
    let mut pinned: Vec<ExpertId> = Vec::new();
    let mut stats = CacheStats::default();
    let mut clock = 0u64;

    for (step, &op) in ops.iter().enumerate() {
        clock += 1;
        match op {
            Op::Access(i) => {
                let e = expert(i);
                let hit = cache.record_access(e, clock);
                stats.lookups += 1;
                if resident.contains(&e) {
                    stats.hits += 1;
                    oracle.on_hit(e);
                    assert!(hit, "{label} step {step}: oracle expected hit on {e:?}");
                } else {
                    stats.misses += 1;
                    assert!(!hit, "{label} step {step}: oracle expected miss on {e:?}");
                }
            }
            Op::Insert(i) => {
                let e = expert(i);
                let outcome = cache.insert(e, clock);
                let expected = if resident.contains(&e) {
                    oracle.on_hit(e);
                    InsertOutcome::AlreadyResident
                } else {
                    let gpu = home(e);
                    let mut evicted = Vec::new();
                    let mut rejected = false;
                    while resident.iter().filter(|&&x| home(x) == gpu).count() as u64 >= SLOTS {
                        let candidates: Vec<ExpertId> = resident
                            .iter()
                            .filter(|&&x| home(x) == gpu && !pinned.contains(&x))
                            .copied()
                            .collect();
                        if candidates.is_empty() {
                            rejected = true;
                            break;
                        }
                        let victim = oracle.pick_victim(&candidates);
                        oracle.on_remove(victim);
                        resident.retain(|&x| x != victim);
                        stats.evictions += 1;
                        evicted.push(victim);
                    }
                    if rejected {
                        stats.rejected_inserts += 1;
                        InsertOutcome::Rejected
                    } else {
                        oracle.on_insert(e);
                        resident.push(e);
                        stats.insertions += 1;
                        InsertOutcome::Inserted { evicted }
                    }
                };
                assert_eq!(
                    outcome, expected,
                    "{label} step {step}: eviction sequence diverged inserting {e:?}"
                );
            }
            Op::Remove(i) => {
                let e = expert(i);
                let was_resident = resident.contains(&e);
                let removed = cache.remove(e);
                if was_resident {
                    oracle.on_remove(e);
                    resident.retain(|&x| x != e);
                    pinned.retain(|&x| x != e);
                }
                assert_eq!(removed, was_resident, "{label} step {step}: remove {e:?}");
            }
            Op::Pin(i) => {
                let e = expert(i);
                let was_resident = resident.contains(&e);
                assert_eq!(cache.pin(e), was_resident, "{label} step {step}: pin {e:?}");
                if was_resident && !pinned.contains(&e) {
                    pinned.push(e);
                }
            }
            Op::UnpinAll => {
                cache.unpin_all();
                pinned.clear();
            }
            Op::Probability(i, p) => {
                let (e, p) = (expert(i), PROBABILITIES[p]);
                cache.update_probability(e, p);
                oracle.update_probability(e, p);
            }
            Op::LayerDone(layer) => {
                cache.notify_layer_done(layer);
                oracle.layer_done(layer);
            }
            Op::IterationBoundary => {
                cache.notify_iteration_boundary();
                oracle.iteration_boundary();
            }
            Op::Evict(_) => {}
        }
        assert_agrees(&cache, &resident, stats, label, step);
    }
}

/// The per-step agreement [`run_cache`] requires: resident set (in
/// expert-id order) and every counter.
fn assert_agrees(
    cache: &ExpertCache,
    resident: &[ExpertId],
    stats: CacheStats,
    label: &str,
    step: usize,
) {
    let mut want = resident.to_vec();
    want.sort_unstable();
    let got: Vec<ExpertId> = cache.resident_experts().collect();
    assert_eq!(got, want, "{label} step {step}: resident set diverged");
    assert_eq!(cache.stats(), stats, "{label} step {step}: stats diverged");
    assert!(cache.stats().check_invariants(), "{label} step {step}");
}

/// Drives a bare `kind` policy and its oracle through one op stream. An
/// [`Op::Evict`] draws a non-empty subset of the residents, shuffles it,
/// and requires the policy's victim (scan and preview) to be the
/// oracle's; the victim then leaves both.
fn run_policy(kind: PolicyKind, ops: &[Op], label: &str) {
    let mut policy: Box<dyn EvictionPolicy> = kind.build();
    let mut oracle = oracle_for(kind);
    let mut resident: Vec<ExpertId> = Vec::new();
    let mut clock = 0u64;

    for (step, &op) in ops.iter().enumerate() {
        clock += 1;
        match op {
            Op::Access(i) | Op::Insert(i) if resident.contains(&expert(i)) => {
                policy.on_hit(expert(i), clock);
                oracle.on_hit(expert(i));
            }
            Op::Access(_) | Op::Pin(_) | Op::UnpinAll => {}
            Op::Insert(i) => {
                policy.on_insert(expert(i), clock);
                oracle.on_insert(expert(i));
                resident.push(expert(i));
            }
            Op::Remove(i) => {
                let e = expert(i);
                if resident.contains(&e) {
                    policy.on_remove(e);
                    oracle.on_remove(e);
                    resident.retain(|&x| x != e);
                }
            }
            Op::Probability(i, p) => {
                policy.update_probability(expert(i), PROBABILITIES[p]);
                oracle.update_probability(expert(i), PROBABILITIES[p]);
            }
            Op::LayerDone(layer) => {
                policy.expire_layer(layer);
                oracle.layer_done(layer);
            }
            Op::IterationBoundary => {
                policy.on_iteration_boundary();
                oracle.iteration_boundary();
            }
            Op::Evict(seed) => {
                if resident.is_empty() {
                    continue;
                }
                let mut rng = SplitMix64(seed);
                let mut candidates: Vec<ExpertId> = resident
                    .iter()
                    .filter(|_| rng.below(3) != 0)
                    .copied()
                    .collect();
                if candidates.is_empty() {
                    candidates.push(resident[rng.below(resident.len())]);
                }
                for k in (1..candidates.len()).rev() {
                    candidates.swap(k, rng.below(k + 1));
                }
                let want = oracle.pick_victim(&candidates);
                let preview = policy.choose_victim(&candidates);
                let got = policy.choose_victim_mut(&candidates);
                assert_eq!(
                    got,
                    Some(want),
                    "{label} step {step}: victim among {candidates:?}"
                );
                assert_eq!(preview, got, "{label} step {step}: preview");
                policy.on_remove(want);
                oracle.on_remove(want);
                resident.retain(|&x| x != want);
            }
        }
    }
}

/// Both drivers, the cache on one GPU and on two.
fn run_all(kind: PolicyKind, ops: &[Op], label: &str) {
    run_cache(kind, ops, 1, &format!("{label} 1-gpu"));
    run_cache(kind, ops, 2, &format!("{label} 2-gpu"));
    run_policy(kind, ops, &format!("{label} bare"));
}

fn run_seeded(kind: PolicyKind, label: &str) {
    for seed in 0..24u64 {
        let ops = random_ops(seed * 0x5851_f42d + 1, 3_000);
        run_all(kind, &ops, &format!("{label} seed {seed}"));
    }
}

#[test]
fn fifo_matches_naive_oracle_over_seeded_streams() {
    run_seeded(PolicyKind::Fifo, "fifo");
}

#[test]
fn lru_matches_naive_oracle_over_seeded_streams() {
    run_seeded(PolicyKind::Lru, "lru");
}

#[test]
fn sieve_matches_naive_oracle_over_seeded_streams() {
    run_seeded(PolicyKind::Sieve, "sieve");
}

#[test]
fn lfu_matches_naive_oracle_over_seeded_streams() {
    run_seeded(PolicyKind::Lfu, "lfu");
}

#[test]
fn coarse_lfu_matches_naive_oracle_over_seeded_streams() {
    run_seeded(PolicyKind::LfuCoarse, "lfu-coarse");
}

#[test]
fn fmoe_priority_matches_naive_oracle_over_seeded_streams() {
    run_seeded(FMOE, "fmoe-priority");
}

/// The streams reach every case the drivers distinguish: evictions on
/// both GPUs, rejections behind pins, and ties on equal fMoE scores.
#[test]
fn seeded_streams_exercise_pins_rejections_and_ties() {
    let ops = random_ops(1, 3_000);
    let count = |f: fn(&Op) -> bool| ops.iter().filter(|op| f(op)).count();
    assert!(count(|op| matches!(op, Op::Pin(_))) > 100);
    assert!(count(|op| matches!(op, Op::Evict(_))) > 100);
    assert!(count(|op| matches!(op, Op::IterationBoundary)) > 30);

    let cfg = presets::tiny_test_model();
    let mut cache = ExpertCache::new(&cfg, cfg.expert_bytes() * SLOTS * 2, 2, FMOE.build());
    for &op in &ops {
        match op {
            Op::Insert(i) => {
                let _ = cache.insert(expert(i), 0);
            }
            Op::Pin(i) => {
                let _ = cache.pin(expert(i));
            }
            Op::UnpinAll => cache.unpin_all(),
            _ => {}
        }
    }
    assert!(cache.stats().evictions > 100);
    assert!(cache.stats().rejected_inserts >= 5);

    // Three candidates at score 0.25: the neutral prior at frequency 0,
    // an explicit 0.25, and 0.125 after one hit.
    let mut oracle = FmoeOracle::default();
    let (a, b, c) = (expert(1), expert(6), expert(11));
    oracle.update_probability(b, 0.25);
    oracle.update_probability(c, 0.125);
    oracle.on_hit(c);
    assert_eq!(oracle.score(a), oracle.score(b));
    assert_eq!(oracle.score(b), oracle.score(c));
    assert_eq!(oracle.pick_victim(&[c, b, a]), a);
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..NUM_EXPERTS).prop_map(Op::Access),
        (0usize..NUM_EXPERTS).prop_map(Op::Insert),
        (0usize..NUM_EXPERTS).prop_map(Op::Remove),
        (0usize..NUM_EXPERTS).prop_map(Op::Pin),
        Just(Op::UnpinAll),
        (0usize..NUM_EXPERTS, 0usize..PROBABILITIES.len()).prop_map(|(e, p)| Op::Probability(e, p)),
        (0u32..4).prop_map(Op::LayerDone),
        Just(Op::IterationBoundary),
        any::<u64>().prop_map(Op::Evict),
    ]
}

proptest! {
    #[test]
    fn every_policy_matches_its_oracle_on_arbitrary_ops(
        ops in prop::collection::vec(arb_op(), 1..400),
    ) {
        for (kind, label) in KINDS {
            run_all(kind, &ops, &format!("{label}-prop"));
        }
    }
}
