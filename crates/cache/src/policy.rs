//! Eviction policies.
//!
//! The policy owns whatever per-expert bookkeeping it needs (recency
//! stamps, frequencies, probabilities) and answers one question: *given
//! these eviction candidates, who goes first?*
//!
//! A deliberate design note from the paper (§4.5): LRU is a poor fit for
//! expert offloading because expert usage is layer-sequential — the most
//! recently used expert is the one whose layer just executed, i.e. the one
//! needed *furthest* in the future. The evaluation (Fig. 12b) confirms
//! LRU < LFU < fMoE's joint priority; the unit tests here encode the
//! mechanics that produce that ordering.

use crate::arena::{LinkArena, NIL};
use crate::table::ExpertTable;
use fmoe_model::ExpertId;
use std::collections::BTreeMap;

/// Chooses eviction victims among resident experts.
pub trait EvictionPolicy: std::fmt::Debug + Send {
    /// Stable policy name for reports.
    fn name(&self) -> &'static str;

    /// Called when `expert` becomes resident. `now` is a monotone counter.
    fn on_insert(&mut self, expert: ExpertId, now: u64);

    /// Called on every cache hit of `expert`.
    fn on_hit(&mut self, expert: ExpertId, now: u64);

    /// Called when `expert` leaves the cache (evicted or explicitly
    /// removed).
    fn on_remove(&mut self, expert: ExpertId);

    /// Picks the next victim among `candidates` (all currently resident,
    /// none pinned, in any order). Returns `None` only when `candidates`
    /// is empty. Every policy evaluates each candidate once; a policy
    /// that ranks by a key evicts the least `(key, ExpertId)`, so the
    /// victim does not depend on the candidates' order.
    fn choose_victim(&self, candidates: &[ExpertId]) -> Option<ExpertId>;

    /// [`Self::choose_victim`] with mutable access, for policies whose
    /// victim scan *itself* updates bookkeeping — SIEVE clears visited
    /// bits and advances its hand while scanning. The cache always calls
    /// this variant; the default delegates to the immutable scan, so
    /// stateless-scan policies (LRU/LFU/fMoE-priority) are untouched.
    fn choose_victim_mut(&mut self, candidates: &[ExpertId]) -> Option<ExpertId> {
        self.choose_victim(candidates)
    }

    /// Updates the policy's belief about the activation probability of an
    /// expert (from a searched expert map). Default: ignored — only
    /// probability-aware policies care.
    fn update_probability(&mut self, _expert: ExpertId, _probability: f64) {}

    /// Called at each iteration boundary. Probability beliefs come from
    /// the *current* iteration's searched maps; the next iteration routes
    /// differently, so probability-aware policies drop them here.
    fn on_iteration_boundary(&mut self) {}

    /// Called when layer `layer` finishes executing. A searched-map
    /// probability is a forecast for a specific upcoming layer; once that
    /// layer has run, the forecast is expired and must not keep
    /// influencing eviction. Default: ignored.
    fn expire_layer(&mut self, _layer: u32) {}

    /// Clears all accumulated bookkeeping (used between experiments).
    fn reset(&mut self);
}

/// Least-recently-used eviction (Mixtral-Offloading's cache).
#[derive(Debug, Default)]
pub struct LruPolicy {
    /// Last insert or hit stamp; 0 for an expert not resident.
    last_used: ExpertTable<u64>,
}

impl LruPolicy {
    /// Creates an empty LRU policy.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl EvictionPolicy for LruPolicy {
    fn name(&self) -> &'static str {
        "LRU"
    }

    fn on_insert(&mut self, expert: ExpertId, now: u64) {
        self.last_used.set(expert, now);
    }

    fn on_hit(&mut self, expert: ExpertId, now: u64) {
        self.last_used.set(expert, now);
    }

    fn on_remove(&mut self, expert: ExpertId) {
        self.last_used.set(expert, 0);
    }

    fn choose_victim(&self, candidates: &[ExpertId]) -> Option<ExpertId> {
        candidates
            .iter()
            .map(|&e| (self.last_used.get(e), e))
            .min()
            .map(|(_, e)| e)
    }

    fn reset(&mut self) {
        self.last_used.clear();
    }
}

/// Least-frequently-used eviction (MoE-Infinity's cache).
///
/// Two counting granularities:
///
/// * [`LfuPolicy::new`] — idealized per-access counting (every hit
///   increments), a stronger variant than any shipped system;
/// * [`LfuPolicy::coarse`] — MoE-Infinity-faithful counting: an expert is
///   credited at most once per iteration, mirroring the aggregated
///   activation counts its Expert Activation Matrix stores. This is the
///   "LFU" of the paper's Fig. 12b.
#[derive(Debug)]
pub struct LfuPolicy {
    counts: ExpertTable<LfuCount>,
    /// When `true`, hits are deduplicated within an iteration.
    coarse: bool,
    /// The current iteration, counted from 1 so that an expert never
    /// credited (`credited_in == 0`) reads as not yet seen.
    iteration: u64,
}

/// One expert's LFU bookkeeping.
#[derive(Debug, Clone, Copy, Default)]
struct LfuCount {
    freq: u64,
    /// Iteration of the last credited hit (coarse counting only).
    credited_in: u64,
}

impl Default for LfuPolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl LfuPolicy {
    /// Creates an idealized per-access LFU policy.
    #[must_use]
    pub fn new() -> Self {
        Self {
            counts: ExpertTable::default(),
            coarse: false,
            iteration: 1,
        }
    }

    /// Creates the MoE-Infinity-faithful coarse-counting LFU policy.
    #[must_use]
    pub fn coarse() -> Self {
        Self {
            coarse: true,
            ..Self::new()
        }
    }
}

impl EvictionPolicy for LfuPolicy {
    fn name(&self) -> &'static str {
        if self.coarse {
            "LFU (coarse)"
        } else {
            "LFU"
        }
    }

    fn on_insert(&mut self, _expert: ExpertId, _now: u64) {}

    fn on_hit(&mut self, expert: ExpertId, _now: u64) {
        let mut count = self.counts.get(expert);
        if self.coarse {
            if count.credited_in == self.iteration {
                return;
            }
            count.credited_in = self.iteration;
        }
        count.freq += 1;
        self.counts.set(expert, count);
    }

    fn on_remove(&mut self, expert: ExpertId) {
        // Frequency history survives eviction, matching MoE-Infinity's
        // request-level counting (an expert that was hot stays credible).
        let _ = expert;
    }

    fn choose_victim(&self, candidates: &[ExpertId]) -> Option<ExpertId> {
        candidates
            .iter()
            .map(|&e| (self.counts.get(e).freq, e))
            .min()
            .map(|(_, e)| e)
    }

    fn on_iteration_boundary(&mut self) {
        self.iteration += 1;
    }

    fn reset(&mut self) {
        self.counts.clear();
    }
}

/// fMoE's joint eviction priority `PRI^evict_{l,j} = 1 / (p_{l,j} · freq_{l,j})`
/// (paper §4.5): evict the expert with the highest priority, i.e. the
/// smallest `p · freq`.
///
/// `p` comes from the currently searched expert map via
/// [`EvictionPolicy::update_probability`]; `freq` is the cache visit count.
/// Experts the searched map considers unlikely *and* that are rarely hit go
/// first.
#[derive(Debug)]
pub struct FmoePriorityPolicy {
    freq: BTreeMap<ExpertId, u64>,
    probability: BTreeMap<ExpertId, f64>,
    /// Floor applied to *known* probabilities so a zero never makes an
    /// expert infinitely evictable.
    probability_floor: f64,
    /// Neutral prior used for experts no searched map has spoken about
    /// this iteration. Should sit between a searched map's "unlikely" and
    /// "likely" values — `1/J` is the natural choice.
    neutral_probability: f64,
}

impl Default for FmoePriorityPolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl FmoePriorityPolicy {
    /// Creates the policy with a generic neutral prior; prefer
    /// [`Self::with_neutral_probability`] with `1/J` for a real model.
    #[must_use]
    pub fn new() -> Self {
        Self {
            freq: BTreeMap::new(),
            probability: BTreeMap::new(),
            probability_floor: 1e-3,
            neutral_probability: 0.05,
        }
    }

    /// Sets the unknown-expert prior (use `1/J`).
    #[must_use]
    pub fn with_neutral_probability(mut self, p: f64) -> Self {
        self.neutral_probability = p.clamp(1e-6, 1.0);
        self
    }

    fn score(&self, expert: ExpertId) -> f64 {
        let p = self
            .probability
            .get(&expert)
            .copied()
            .map_or(self.neutral_probability, |p| p.max(self.probability_floor));
        // freq starts at 1 so a just-inserted expert is comparable.
        let f = self.freq.get(&expert).copied().unwrap_or(0) + 1;
        p * f as f64
    }
}

impl EvictionPolicy for FmoePriorityPolicy {
    fn name(&self) -> &'static str {
        "fMoE"
    }

    fn on_insert(&mut self, expert: ExpertId, _now: u64) {
        self.freq.entry(expert).or_insert(0);
    }

    fn on_hit(&mut self, expert: ExpertId, _now: u64) {
        *self.freq.entry(expert).or_insert(0) += 1;
    }

    fn on_remove(&mut self, _expert: ExpertId) {}

    fn choose_victim(&self, candidates: &[ExpertId]) -> Option<ExpertId> {
        // One score per candidate: the least `(score, id)` in one pass.
        candidates
            .iter()
            .map(|&e| (self.score(e), e))
            .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
            .map(|(_, e)| e)
    }

    fn update_probability(&mut self, expert: ExpertId, probability: f64) {
        self.probability.insert(expert, probability.clamp(0.0, 1.0));
    }

    fn on_iteration_boundary(&mut self) {
        // Searched-map probabilities describe the finished iteration's
        // trajectory; the next one routes elsewhere. Frequencies persist.
        self.probability.clear();
    }

    fn expire_layer(&mut self, layer: u32) {
        self.probability.retain(|e, _| e.layer != layer);
    }

    fn reset(&mut self) {
        self.freq.clear();
        self.probability.clear();
    }
}

/// First-in-first-out eviction: hits do nothing, so the eviction order
/// is pure insertion order. The classic lower baseline for SIEVE (both
/// keep a write-free hit path; FIFO just never spares anything). Each
/// queued expert carries its insertion number, so the victim is the
/// candidate with the least one: one read per candidate, no queue walk.
#[derive(Debug, Default)]
pub struct FifoPolicy {
    /// Insertion number of each queued expert; 0 for one not queued.
    inserted: ExpertTable<u64>,
    /// Number of inserts so far.
    inserts: u64,
}

impl FifoPolicy {
    /// Creates an empty FIFO policy.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl EvictionPolicy for FifoPolicy {
    fn name(&self) -> &'static str {
        "FIFO"
    }

    fn on_insert(&mut self, expert: ExpertId, _now: u64) {
        if self.inserted.get(expert) == 0 {
            self.inserts += 1;
            self.inserted.set(expert, self.inserts);
        }
    }

    fn on_hit(&mut self, _expert: ExpertId, _now: u64) {
        // FIFO's whole point: a hit is free and changes nothing.
    }

    fn on_remove(&mut self, expert: ExpertId) {
        self.inserted.set(expert, 0);
    }

    fn choose_victim(&self, candidates: &[ExpertId]) -> Option<ExpertId> {
        // The oldest queued candidate; candidates the policy never saw an
        // insert for (defensive) rank after every queued one, by id.
        candidates
            .iter()
            .map(|&e| {
                let inserted = self.inserted.get(e);
                (inserted == 0, inserted, e)
            })
            .min()
            .map(|(_, _, e)| e)
    }

    fn reset(&mut self) {
        self.inserted.clear();
    }
}

#[derive(Debug, Clone, Copy)]
struct SieveEntry {
    expert: ExpertId,
    visited: bool,
    /// The victim scan that last named this entry a candidate.
    candidate_in: u64,
}

/// SIEVE eviction (NSDI '24) on the arena-allocated intrusive list.
///
/// New experts join at the head unvisited; a **hit is a single visited-
/// bit flip** — no move-to-front, no list mutation. The eviction *hand*
/// sweeps from the tail (oldest) toward the head, wrapping around: a
/// visited entry survives (its bit is cleared and the hand moves on), the
/// first unvisited entry is the victim, and the hand parks just past it
/// for the next eviction.
///
/// Entries outside the candidate set (pinned, or resident on another
/// GPU) are skipped without touching their bits: they are not
/// examinable, so they keep whatever second chance they have. A scan
/// first stamps each candidate's entry, so a step of the hand tests
/// membership by reading the entry it is on.
#[derive(Debug, Clone)]
pub struct SievePolicy {
    queue: LinkArena<SieveEntry>,
    /// Arena node of each queued expert.
    index: ExpertTable<Option<u32>>,
    /// Arena index the next eviction scan starts from; [`NIL`] wraps to
    /// the tail.
    hand: u32,
    /// Victim scans so far; the current scan's candidates carry this
    /// number in `candidate_in`.
    scans: u64,
}

impl Default for SievePolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl SievePolicy {
    /// Creates an empty SIEVE policy.
    #[must_use]
    pub fn new() -> Self {
        Self {
            queue: LinkArena::new(),
            index: ExpertTable::default(),
            hand: NIL,
            scans: 0,
        }
    }

    /// Whether `expert`'s visited bit is currently set (test hook).
    #[must_use]
    pub fn is_visited(&self, expert: ExpertId) -> bool {
        self.index
            .get(expert)
            .and_then(|idx| self.queue.get(idx))
            .is_some_and(|e| e.visited)
    }

    /// One step of the hand walk: toward the head, wrapping to the tail.
    fn advance(&self, cur: u32) -> u32 {
        let next = self.queue.newer(cur);
        if next == NIL {
            self.queue.tail()
        } else {
            next
        }
    }
}

impl EvictionPolicy for SievePolicy {
    fn name(&self) -> &'static str {
        "SIEVE"
    }

    fn on_insert(&mut self, expert: ExpertId, _now: u64) {
        if self.index.get(expert).is_none() {
            let idx = self.queue.push_head(SieveEntry {
                expert,
                visited: false,
                candidate_in: 0,
            });
            self.index.set(expert, Some(idx));
        }
    }

    fn on_hit(&mut self, expert: ExpertId, _now: u64) {
        // The single-bit-flip hit path.
        if let Some(idx) = self.index.get(expert) {
            if let Some(entry) = self.queue.get_mut(idx) {
                entry.visited = true;
            }
        }
    }

    fn on_remove(&mut self, expert: ExpertId) {
        if let Some(idx) = self.index.get(expert) {
            self.index.set(expert, None);
            if self.hand == idx {
                // Park the hand just past the removed node (toward the
                // head); NIL wraps to the tail on the next scan.
                self.hand = self.queue.newer(idx);
            }
            let _ = self.queue.remove(idx);
        }
    }

    fn choose_victim(&self, candidates: &[ExpertId]) -> Option<ExpertId> {
        // A preview of the scan on a copy, so repeated calls (and the
        // oracle-diff suite) see exactly the victim `choose_victim_mut`
        // would take, without advancing state. The cache never calls it.
        self.clone().choose_victim_mut(candidates)
    }

    fn choose_victim_mut(&mut self, candidates: &[ExpertId]) -> Option<ExpertId> {
        self.scans += 1;
        let mut queued = false;
        for &e in candidates {
            if let Some(entry) = self.index.get(e).and_then(|idx| self.queue.get_mut(idx)) {
                entry.candidate_in = self.scans;
                queued = true;
            }
        }
        if queued {
            let mut cur = if self.hand != NIL {
                self.hand
            } else {
                self.queue.tail()
            };
            // One lap clears every visited candidate bit; the second lap
            // must then find an unvisited candidate, so 2·len+1 steps
            // bound the walk even under heavy pinning.
            for _ in 0..2 * self.queue.len() + 1 {
                let Some(entry) = self.queue.get_mut(cur) else {
                    break;
                };
                if entry.candidate_in == self.scans {
                    if !entry.visited {
                        let victim = entry.expert;
                        self.hand = self.queue.newer(cur);
                        return Some(victim);
                    }
                    entry.visited = false;
                }
                cur = self.advance(cur);
            }
        }
        // Candidates the policy never saw an insert for (defensive):
        // deterministic fallback to the smallest id.
        candidates.iter().min().copied()
    }

    fn reset(&mut self) {
        self.queue.clear();
        self.index.clear();
        self.hand = NIL;
    }
}

/// A nameable eviction-policy choice: the closed catalog of shipped
/// policies, so builders and benches can carry a `Copy` value instead of
/// a `Box<dyn ..>`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicyKind {
    /// [`LruPolicy`].
    Lru,
    /// [`LfuPolicy::new`] (idealized per-access counting).
    Lfu,
    /// [`LfuPolicy::coarse`] (MoE-Infinity-faithful counting).
    LfuCoarse,
    /// [`FmoePriorityPolicy`] with the given neutral prior (use `1/J`).
    FmoePriority {
        /// Prior for experts no searched map has spoken about.
        neutral_probability: f64,
    },
    /// [`SievePolicy`].
    Sieve,
    /// [`FifoPolicy`].
    Fifo,
}

impl PolicyKind {
    /// Builds a fresh policy instance of this kind.
    #[must_use]
    pub fn build(self) -> Box<dyn EvictionPolicy> {
        match self {
            PolicyKind::Lru => Box::new(LruPolicy::new()),
            PolicyKind::Lfu => Box::new(LfuPolicy::new()),
            PolicyKind::LfuCoarse => Box::new(LfuPolicy::coarse()),
            PolicyKind::FmoePriority {
                neutral_probability,
            } => Box::new(FmoePriorityPolicy::new().with_neutral_probability(neutral_probability)),
            PolicyKind::Sieve => Box::new(SievePolicy::new()),
            PolicyKind::Fifo => Box::new(FifoPolicy::new()),
        }
    }

    /// The display name the built policy reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Lru => "LRU",
            PolicyKind::Lfu => "LFU",
            PolicyKind::LfuCoarse => "LFU (coarse)",
            PolicyKind::FmoePriority { .. } => "fMoE",
            PolicyKind::Sieve => "SIEVE",
            PolicyKind::Fifo => "FIFO",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(l: u32, s: u32) -> ExpertId {
        ExpertId::new(l, s)
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut p = LruPolicy::new();
        p.on_insert(e(0, 0), 1);
        p.on_insert(e(0, 1), 2);
        p.on_hit(e(0, 0), 3);
        assert_eq!(p.choose_victim(&[e(0, 0), e(0, 1)]), Some(e(0, 1)));
    }

    #[test]
    fn lru_forgets_removed_experts() {
        let mut p = LruPolicy::new();
        p.on_insert(e(0, 0), 5);
        p.on_remove(e(0, 0));
        p.on_insert(e(0, 0), 1);
        p.on_insert(e(0, 1), 9);
        assert_eq!(p.choose_victim(&[e(0, 0), e(0, 1)]), Some(e(0, 0)));
    }

    #[test]
    fn lfu_evicts_least_frequent() {
        let mut p = LfuPolicy::new();
        p.on_insert(e(0, 0), 0);
        p.on_insert(e(0, 1), 0);
        p.on_hit(e(0, 0), 1);
        p.on_hit(e(0, 0), 2);
        p.on_hit(e(0, 1), 3);
        assert_eq!(p.choose_victim(&[e(0, 0), e(0, 1)]), Some(e(0, 1)));
    }

    #[test]
    fn lfu_frequency_survives_eviction() {
        let mut p = LfuPolicy::new();
        p.on_insert(e(0, 0), 0);
        p.on_hit(e(0, 0), 1);
        p.on_remove(e(0, 0));
        p.on_insert(e(0, 0), 2);
        p.on_insert(e(0, 1), 2);
        p.on_hit(e(0, 1), 3);
        p.on_hit(e(0, 1), 4);
        // e(0,0) kept its old count of 1, e(0,1) has 2.
        assert_eq!(p.choose_victim(&[e(0, 0), e(0, 1)]), Some(e(0, 0)));
    }

    #[test]
    fn fmoe_priority_combines_probability_and_frequency() {
        let mut p = FmoePriorityPolicy::new();
        for slot in 0..3 {
            p.on_insert(e(0, slot), 0);
        }
        // Equal frequency; probabilities decide.
        p.update_probability(e(0, 0), 0.7);
        p.update_probability(e(0, 1), 0.1);
        p.update_probability(e(0, 2), 0.2);
        let all = [e(0, 0), e(0, 1), e(0, 2)];
        assert_eq!(p.choose_victim(&all), Some(e(0, 1)));
        // Now make the low-probability expert extremely hot: frequency
        // rescues it.
        for t in 0..100 {
            p.on_hit(e(0, 1), t);
        }
        assert_eq!(p.choose_victim(&all), Some(e(0, 2)));
    }

    #[test]
    fn fmoe_priority_handles_unknown_probability() {
        let mut p = FmoePriorityPolicy::new();
        p.on_insert(e(0, 0), 0);
        p.on_insert(e(0, 1), 0);
        p.update_probability(e(0, 0), 0.9);
        // e(0,1) has no probability info: it gets the floor and is evicted
        // first.
        assert_eq!(p.choose_victim(&[e(0, 0), e(0, 1)]), Some(e(0, 1)));
    }

    #[test]
    fn empty_candidates_yield_none() {
        let p = LruPolicy::new();
        assert_eq!(p.choose_victim(&[]), None);
        let p = LfuPolicy::new();
        assert_eq!(p.choose_victim(&[]), None);
        let p = FmoePriorityPolicy::new();
        assert_eq!(p.choose_victim(&[]), None);
        let mut p = SievePolicy::new();
        assert_eq!(p.choose_victim(&[]), None);
        assert_eq!(p.choose_victim_mut(&[]), None);
        let p = FifoPolicy::new();
        assert_eq!(p.choose_victim(&[]), None);
    }

    #[test]
    fn fifo_ignores_hits() {
        let mut p = FifoPolicy::new();
        p.on_insert(e(0, 0), 0);
        p.on_insert(e(0, 1), 1);
        p.on_hit(e(0, 0), 2);
        p.on_hit(e(0, 0), 3);
        // Insertion order decides regardless of the hits.
        assert_eq!(p.choose_victim(&[e(0, 0), e(0, 1)]), Some(e(0, 0)));
        p.on_remove(e(0, 0));
        assert_eq!(p.choose_victim(&[e(0, 1)]), Some(e(0, 1)));
    }

    #[test]
    fn sieve_hit_buys_exactly_one_reprieve() {
        let mut p = SievePolicy::new();
        p.on_insert(e(0, 0), 0);
        p.on_insert(e(0, 1), 1);
        p.on_hit(e(0, 0), 2);
        let all = [e(0, 0), e(0, 1)];
        // Hand starts at the tail: e(0,0) is visited → spared (bit
        // cleared), e(0,1) is unvisited → victim.
        assert_eq!(p.choose_victim_mut(&all), Some(e(0, 1)));
        p.on_remove(e(0, 1));
        assert!(!p.is_visited(e(0, 0)), "the reprieve consumed the bit");
        // Next eviction takes it unless it is hit again.
        assert_eq!(p.choose_victim_mut(&[e(0, 0)]), Some(e(0, 0)));
    }

    #[test]
    fn sieve_peek_matches_mutable_scan() {
        let mut p = SievePolicy::new();
        for s in 0..6 {
            p.on_insert(e(0, s), u64::from(s));
        }
        for s in [0u32, 2, 4] {
            p.on_hit(e(0, s), 10 + u64::from(s));
        }
        let all: Vec<ExpertId> = (0..6).map(|s| e(0, s)).collect();
        for round in 0..5 {
            let peek = p.choose_victim(&all);
            let taken = p.choose_victim_mut(&all);
            assert_eq!(peek, taken, "round {round}");
            if let Some(v) = taken {
                p.on_remove(v);
            }
        }
    }

    #[test]
    fn sieve_skips_non_candidates_without_clearing_their_bit() {
        let mut p = SievePolicy::new();
        p.on_insert(e(0, 0), 0);
        p.on_hit(e(0, 0), 1);
        p.on_insert(e(0, 1), 2);
        // e(0,0) is pinned (not a candidate): the scan must pass over it
        // without spending its visited bit.
        assert_eq!(p.choose_victim_mut(&[e(0, 1)]), Some(e(0, 1)));
        assert!(p.is_visited(e(0, 0)));
    }

    #[test]
    fn sieve_hand_survives_removal_of_hand_entry() {
        let mut p = SievePolicy::new();
        for s in 0..4 {
            p.on_insert(e(0, s), u64::from(s));
        }
        for s in 0..4 {
            p.on_hit(e(0, s), 10 + u64::from(s));
        }
        let all: Vec<ExpertId> = (0..4).map(|s| e(0, s)).collect();
        // All visited: first lap clears, wrap picks the tail-most again.
        assert_eq!(p.choose_victim_mut(&all), Some(e(0, 0)));
        p.on_remove(e(0, 0));
        // Removing the entry the hand parked next to must not wedge it.
        assert_eq!(p.choose_victim_mut(&[e(0, 1), e(0, 2)]), Some(e(0, 1)));
    }

    #[test]
    fn policy_kind_builds_matching_names() {
        let kinds = [
            PolicyKind::Lru,
            PolicyKind::Lfu,
            PolicyKind::LfuCoarse,
            PolicyKind::FmoePriority {
                neutral_probability: 0.25,
            },
            PolicyKind::Sieve,
            PolicyKind::Fifo,
        ];
        for kind in kinds {
            assert_eq!(kind.build().name(), kind.name());
        }
    }

    #[test]
    fn reset_clears_state() {
        let mut p = FmoePriorityPolicy::new();
        p.on_insert(e(0, 0), 0);
        p.on_hit(e(0, 0), 1);
        p.update_probability(e(0, 0), 0.9);
        p.reset();
        p.on_insert(e(0, 1), 0);
        p.update_probability(e(0, 1), 0.5);
        // After reset, e(0,0)'s history is gone: floor prob, freq 1.
        assert_eq!(p.choose_victim(&[e(0, 0), e(0, 1)]), Some(e(0, 0)));
    }

    #[test]
    fn ties_break_deterministically() {
        let p = LruPolicy::new();
        // No bookkeeping at all: lowest ExpertId wins the tie.
        assert_eq!(p.choose_victim(&[e(1, 1), e(0, 3), e(2, 0)]), Some(e(0, 3)));
    }
}
