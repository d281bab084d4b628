//! The expert cache proper.

use crate::policy::EvictionPolicy;
use crate::stats::CacheStats;
use fmoe_model::{DenseIdMap, ExpertId, ModelConfig};
use fmoe_trace::{Marker, TraceSink, NO_REQUEST, NO_VALUE};

/// One resident expert's row in the residency table: its footprint and
/// pin state. The table's key is the expert's dense index.
#[derive(Debug, Clone, Copy, Default)]
struct Resident {
    bytes: u64,
    pinned: bool,
}

/// Residency-table key of an expert outside the model: past every
/// [`DenseIdMap`] capacity, so lookups report it absent.
const OUTSIDE_MODEL: usize = usize::MAX;

/// Result of attempting to insert an expert.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InsertOutcome {
    /// The expert is now resident; `evicted` lists experts removed to make
    /// room (possibly empty).
    Inserted {
        /// Experts evicted to make room, in eviction order.
        evicted: Vec<ExpertId>,
    },
    /// The expert was already resident; treated as a touch.
    AlreadyResident,
    /// The expert can never fit (its size exceeds its GPU's whole budget),
    /// or eviction could not free enough unpinned bytes.
    Rejected,
}

/// A byte-budgeted expert cache spanning one or more GPUs.
///
/// Every expert has a fixed home GPU assigned round-robin over its dense
/// index (the paper's §5 expert-parallel placement); budgets and evictions
/// are per-GPU. Pinned experts (the ones executing in the current layer)
/// are never chosen as victims.
///
/// ```
/// use fmoe_cache::{ExpertCache, LruPolicy, InsertOutcome};
/// use fmoe_model::{presets, ExpertId};
///
/// let model = presets::tiny_test_model();
/// // Room for two experts on one GPU.
/// let mut cache = ExpertCache::new(
///     &model,
///     model.expert_bytes() * 2,
///     1,
///     Box::new(LruPolicy::new()),
/// );
/// cache.insert(ExpertId::new(0, 0), 1);
/// cache.insert(ExpertId::new(0, 1), 2);
/// // A third insert evicts the least recently used.
/// let out = cache.insert(ExpertId::new(0, 2), 3);
/// assert_eq!(out, InsertOutcome::Inserted { evicted: vec![ExpertId::new(0, 0)] });
/// ```
#[derive(Debug)]
pub struct ExpertCache {
    experts_per_layer: u32,
    num_layers: u32,
    expert_bytes: u64,
    num_gpus: u32,
    /// Optional explicit owner table (dense expert index → GPU) installed
    /// by a placement policy; overrides round-robin when present.
    assignment: Option<Vec<u32>>,
    per_gpu_budget: u64,
    per_gpu_used: Vec<u64>,
    /// The residency table: dense expert id (see [`Self::key`]) → bytes
    /// and pin. Full-precision experts occupy `expert_bytes`; quantized
    /// ones less. Iterating it yields residents in ascending dense
    /// index, which equals `ExpertId`'s `(layer, slot)` order — the
    /// order victim-candidate lists (and thus the whole sim path) are
    /// pinned to.
    residents: DenseIdMap<Resident>,
    policy: Box<dyn EvictionPolicy>,
    stats: CacheStats,
    /// Reused victim-candidate buffer (`mem::take` round-trip), so
    /// steady-state evictions allocate nothing.
    victim_buf: Vec<ExpertId>,
    /// Observability sink; disabled by default (zero-cost no-op).
    trace: TraceSink,
    /// Latest virtual time any caller passed in, used to timestamp
    /// events from entry points that carry no clock (budget retunes).
    last_now: u64,
}

impl ExpertCache {
    /// Creates a cache for `config`'s experts with a *total* byte budget
    /// split evenly across `num_gpus`.
    ///
    /// # Panics
    ///
    /// Panics if `num_gpus == 0`.
    #[must_use]
    pub fn new(
        config: &ModelConfig,
        total_budget_bytes: u64,
        num_gpus: u32,
        policy: Box<dyn EvictionPolicy>,
    ) -> Self {
        assert!(num_gpus > 0, "need at least one GPU");
        Self {
            experts_per_layer: config.experts_per_layer,
            num_layers: config.num_layers,
            expert_bytes: config.expert_bytes(),
            num_gpus,
            assignment: None,
            per_gpu_budget: total_budget_bytes / u64::from(num_gpus),
            per_gpu_used: vec![0; num_gpus as usize],
            residents: DenseIdMap::with_capacity(
                config.num_layers as usize * config.experts_per_layer as usize,
            ),
            policy,
            stats: CacheStats::default(),
            victim_buf: Vec::new(),
            trace: TraceSink::disabled(),
            last_now: 0,
        }
    }

    /// `expert`'s key in [`Self::residents`]: its dense index, or
    /// [`OUTSIDE_MODEL`] — a key the table never holds — when its layer
    /// or slot lies outside the model. Checking both coordinates keeps an
    /// out-of-range slot from aliasing the next layer's expert.
    fn key(&self, expert: ExpertId) -> usize {
        if expert.layer < self.num_layers && expert.slot < self.experts_per_layer {
            expert.dense_index(self.experts_per_layer)
        } else {
            OUTSIDE_MODEL
        }
    }

    /// Installs an observability sink. Insert/evict/reject markers and
    /// counters are emitted into it; with a disabled sink (the default)
    /// every emission is a no-op and cache behavior is untouched.
    pub fn set_trace_sink(&mut self, trace: TraceSink) {
        self.trace = trace;
    }

    /// Emits a cache marker attributed to `expert`'s layer/slot and home
    /// GPU.
    fn mark(&self, marker: Marker, expert: ExpertId, now: u64, value: u64) {
        self.trace.instant(
            now,
            marker,
            NO_REQUEST,
            expert.layer,
            expert.slot,
            self.home_gpu(expert),
            value,
        );
    }

    /// Installs an explicit owner table produced by a placement policy:
    /// `owners[dense_index]` is the expert's home GPU. Entries are
    /// clamped to the GPU count; experts past the table's end fall back
    /// to round-robin, as every expert does with no table installed (the
    /// default).
    ///
    /// Residents move to their new homes. A GPU left over its budget
    /// evicts on its next insert, as after a budget shrink.
    pub fn set_assignment(&mut self, owners: Vec<u32>) {
        self.assignment = Some(owners);
        self.rehome_residents();
    }

    /// Recounts every GPU's used bytes under the residents' current
    /// homes, after the placement changed.
    fn rehome_residents(&mut self) {
        let mut used = vec![0; self.per_gpu_used.len()];
        for (d, r) in self.residents.iter() {
            let e = ExpertId::from_dense_index(d, self.experts_per_layer);
            used[self.home_gpu(e) as usize] += r.bytes;
        }
        self.per_gpu_used = used;
    }

    /// The installed explicit owner table, if any.
    #[must_use]
    pub fn assignment(&self) -> Option<&[u32]> {
        self.assignment.as_deref()
    }

    /// The home GPU index of an expert: its entry in the installed owner
    /// table, else round-robin over the dense index.
    #[must_use]
    pub fn home_gpu(&self, expert: ExpertId) -> u32 {
        let dense = expert.dense_index(self.experts_per_layer);
        if let Some(owners) = &self.assignment {
            if let Some(&gpu) = owners.get(dense) {
                return gpu.min(self.num_gpus.saturating_sub(1));
            }
        }
        (dense % self.num_gpus as usize) as u32
    }

    /// Bytes one expert occupies.
    #[must_use]
    pub fn expert_bytes(&self) -> u64 {
        self.expert_bytes
    }

    /// Per-GPU byte budget.
    #[must_use]
    pub fn per_gpu_budget(&self) -> u64 {
        self.per_gpu_budget
    }

    /// Number of experts each GPU can hold.
    #[must_use]
    pub fn slots_per_gpu(&self) -> u64 {
        if self.expert_bytes == 0 {
            return u64::MAX;
        }
        self.per_gpu_budget / self.expert_bytes
    }

    /// `true` when `expert` is resident.
    #[must_use]
    pub fn contains(&self, expert: ExpertId) -> bool {
        self.residents.contains(self.key(expert))
    }

    /// Number of resident experts.
    #[must_use]
    pub fn resident_count(&self) -> usize {
        self.residents.len()
    }

    /// Bytes used on one GPU.
    #[must_use]
    pub fn used_bytes(&self, gpu: u32) -> u64 {
        self.per_gpu_used[gpu as usize]
    }

    /// Total bytes used across GPUs.
    #[must_use]
    pub fn total_used_bytes(&self) -> u64 {
        self.per_gpu_used.iter().sum()
    }

    /// Records an access: a hit touches the policy bookkeeping, a miss
    /// only counts. Returns whether it was a hit.
    pub fn record_access(&mut self, expert: ExpertId, now: u64) -> bool {
        self.last_now = self.last_now.max(now);
        self.stats.lookups += 1;
        if self.contains(expert) {
            self.stats.hits += 1;
            self.policy.on_hit(expert, now);
            self.trace.count("cache.hits", 1);
            true
        } else {
            self.stats.misses += 1;
            self.trace.count("cache.misses", 1);
            false
        }
    }

    /// Inserts `expert` at full precision, evicting unpinned experts from
    /// its home GPU as needed.
    pub fn insert(&mut self, expert: ExpertId, now: u64) -> InsertOutcome {
        self.insert_sized(expert, self.expert_bytes, now)
    }

    /// Inserts `expert` occupying `bytes` (mixed-precision extension:
    /// quantized experts occupy less than [`Self::expert_bytes`]).
    /// Re-inserting a resident expert with a different size re-accounts
    /// its footprint (e.g. a precision upgrade).
    pub fn insert_sized(&mut self, expert: ExpertId, bytes: u64, now: u64) -> InsertOutcome {
        self.insert_impl(expert, bytes, now, false)
    }

    /// [`Self::insert`] for warm-restart replay: identical residency and
    /// eviction behaviour, but the insert is booked under
    /// [`CacheStats::warmup_inserts`] instead of `insertions`, so
    /// lifetime accounting that merges a pre-crash snapshot back in
    /// (see [`CacheStats::merged`]) never double-counts replayed experts
    /// as fresh demand insertions.
    pub fn insert_warm(&mut self, expert: ExpertId, now: u64) -> InsertOutcome {
        self.insert_impl(expert, self.expert_bytes, now, true)
    }

    fn insert_impl(&mut self, expert: ExpertId, bytes: u64, now: u64, warm: bool) -> InsertOutcome {
        self.last_now = self.last_now.max(now);
        let key = self.key(expert);
        if key == OUTSIDE_MODEL {
            // An id outside the model can never be stored in the residency
            // table; refuse it the way an oversized expert is refused
            // rather than panicking.
            return self.reject(expert, now, bytes);
        }
        if let Some(existing) = self.residents.get(key).map(|r| r.bytes) {
            self.policy.on_hit(expert, now);
            if existing != bytes {
                let gpu = self.home_gpu(expert) as usize;
                self.per_gpu_used[gpu] = self.per_gpu_used[gpu] - existing + bytes;
                if let Some(r) = self.residents.get_mut(key) {
                    r.bytes = bytes;
                }
            }
            return InsertOutcome::AlreadyResident;
        }
        if bytes > self.per_gpu_budget {
            return self.reject(expert, now, bytes);
        }
        let gpu = self.home_gpu(expert);
        let mut evicted = Vec::new();
        while self.per_gpu_used[gpu as usize] + bytes > self.per_gpu_budget {
            let Some(victim) = self.choose_victim(gpu) else {
                // Everything resident on this GPU is pinned: cannot evict.
                // Evictions already made stand; only the insert is refused.
                return self.reject(expert, now, bytes);
            };
            self.remove_internal(victim);
            self.stats.evictions += 1;
            self.mark(Marker::CacheEvict, victim, now, NO_VALUE);
            self.trace.count("cache.evictions", 1);
            evicted.push(victim);
        }
        self.per_gpu_used[gpu as usize] += bytes;
        self.residents.insert(
            key,
            Resident {
                bytes,
                pinned: false,
            },
        );
        self.policy.on_insert(expert, now);
        let counter = if warm {
            self.stats.warmup_inserts += 1;
            "cache.warmup_inserts"
        } else {
            self.stats.insertions += 1;
            "cache.insertions"
        };
        self.mark(Marker::CacheInsert, expert, now, bytes);
        self.trace.count(counter, 1);
        InsertOutcome::Inserted { evicted }
    }

    /// Books a refused insert of `bytes` for `expert`.
    fn reject(&mut self, expert: ExpertId, now: u64, bytes: u64) -> InsertOutcome {
        self.stats.rejected_inserts += 1;
        self.mark(Marker::CacheReject, expert, now, bytes);
        self.trace.count("cache.rejected_inserts", 1);
        InsertOutcome::Rejected
    }

    /// Asks the policy for a victim among unpinned residents homed on
    /// `gpu`. Candidates are gathered in expert-id order (load-bearing
    /// for byte-identical victim selection) into a reused buffer, so
    /// steady-state evictions allocate nothing.
    fn choose_victim(&mut self, gpu: u32) -> Option<ExpertId> {
        let mut buf = std::mem::take(&mut self.victim_buf);
        buf.clear();
        for (d, r) in self.residents.iter() {
            let e = ExpertId::from_dense_index(d, self.experts_per_layer);
            if !r.pinned && self.home_gpu(e) == gpu {
                buf.push(e);
            }
        }
        let victim = self.policy.choose_victim(&buf);
        self.victim_buf = buf;
        victim
    }

    /// Bytes a resident expert occupies, or `None` if not resident.
    #[must_use]
    pub fn resident_bytes(&self, expert: ExpertId) -> Option<u64> {
        self.residents.get(self.key(expert)).map(|r| r.bytes)
    }

    /// `true` when `expert` is resident below full precision.
    #[must_use]
    pub fn is_degraded(&self, expert: ExpertId) -> bool {
        self.resident_bytes(expert)
            .is_some_and(|b| b < self.expert_bytes)
    }

    /// Explicitly removes an expert (e.g. model unload). No-op when not
    /// resident.
    pub fn remove(&mut self, expert: ExpertId) -> bool {
        if self.contains(expert) {
            self.remove_internal(expert);
            true
        } else {
            false
        }
    }

    fn remove_internal(&mut self, expert: ExpertId) {
        let gpu = self.home_gpu(expert);
        let bytes = self
            .residents
            .remove(self.key(expert))
            .map_or(self.expert_bytes, |r| r.bytes);
        self.per_gpu_used[gpu as usize] -= bytes;
        self.policy.on_remove(expert);
    }

    /// Pins an expert so it cannot be evicted (current-layer experts
    /// during execution). Pinning a non-resident expert is a no-op and
    /// returns `false`.
    pub fn pin(&mut self, expert: ExpertId) -> bool {
        let Some(r) = self.residents.get_mut(self.key(expert)) else {
            return false;
        };
        r.pinned = true;
        true
    }

    /// Removes one expert's pin. No-op when not pinned.
    pub fn unpin(&mut self, expert: ExpertId) {
        if let Some(r) = self.residents.get_mut(self.key(expert)) {
            r.pinned = false;
        }
    }

    /// Clears all pins. Walks the residency table in place, so no
    /// per-call allocation.
    pub fn unpin_all(&mut self) {
        self.residents.for_each_value_mut(|r| r.pinned = false);
    }

    /// Pushes a probability belief to the policy (fMoE's searched-map
    /// probabilities; ignored by LRU/LFU).
    pub fn update_probability(&mut self, expert: ExpertId, probability: f64) {
        self.policy.update_probability(expert, probability);
    }

    /// Signals an iteration boundary to the policy (stale-belief drop).
    pub fn notify_iteration_boundary(&mut self) {
        self.policy.on_iteration_boundary();
    }

    /// Retunes the total byte budget at runtime (SwapMoE-style tunable
    /// memory: the expert cache must yield GPU memory when KV-cache or
    /// activation pressure grows, and may reclaim it later). Shrinking
    /// evicts policy-chosen victims until every GPU fits its new budget;
    /// pinned experts are never evicted, so the used bytes may exceed a
    /// drastically shrunken budget until pins release. Returns the
    /// evicted experts.
    pub fn set_total_budget(&mut self, total_budget_bytes: u64) -> Vec<ExpertId> {
        self.per_gpu_budget = total_budget_bytes / u64::from(self.num_gpus);
        let mut evicted = Vec::new();
        for gpu in 0..self.num_gpus {
            while self.per_gpu_used[gpu as usize] > self.per_gpu_budget {
                let Some(victim) = self.choose_victim(gpu) else {
                    break; // everything left is pinned
                };
                self.remove_internal(victim);
                self.stats.evictions += 1;
                // Budget retunes carry no clock; stamp evictions at the
                // latest time the cache has observed.
                self.mark(Marker::CacheEvict, victim, self.last_now, NO_VALUE);
                self.trace.count("cache.evictions", 1);
                evicted.push(victim);
            }
        }
        if !evicted.is_empty() {
            self.trace
                .set_gauge("cache.per_gpu_budget_bytes", self.per_gpu_budget);
        }
        evicted
    }

    /// Signals that `layer` finished executing (forecast expiry).
    pub fn notify_layer_done(&mut self, layer: u32) {
        self.policy.expire_layer(layer);
    }

    /// Cumulative statistics.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Drops all residency, pins, statistics and the policy's
    /// bookkeeping. The policy must forget too: FIFO and SIEVE skip an
    /// insert of an expert they still queue, so a kept queue would hand a
    /// re-inserted expert its old position.
    pub fn clear(&mut self) {
        self.residents.clear();
        for used in &mut self.per_gpu_used {
            *used = 0;
        }
        self.stats = CacheStats::default();
        self.policy.reset();
    }

    /// Iterator over resident experts (expert-id order).
    pub fn resident_experts(&self) -> impl Iterator<Item = ExpertId> + '_ {
        self.residents
            .keys()
            .map(|d| ExpertId::from_dense_index(d, self.experts_per_layer))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{FifoPolicy, FmoePriorityPolicy, LfuPolicy, LruPolicy};
    use fmoe_model::presets;

    fn tiny_cache(slots_per_gpu: u64, gpus: u32) -> ExpertCache {
        let cfg = presets::tiny_test_model();
        let budget = cfg.expert_bytes() * slots_per_gpu * u64::from(gpus);
        ExpertCache::new(&cfg, budget, gpus, Box::new(LruPolicy::new()))
    }

    fn e(l: u32, s: u32) -> ExpertId {
        ExpertId::new(l, s)
    }

    #[test]
    fn insert_and_lookup() {
        let mut c = tiny_cache(2, 1);
        assert!(!c.contains(e(0, 0)));
        assert_eq!(
            c.insert(e(0, 0), 1),
            InsertOutcome::Inserted { evicted: vec![] }
        );
        assert!(c.contains(e(0, 0)));
        assert_eq!(c.insert(e(0, 0), 2), InsertOutcome::AlreadyResident);
        assert_eq!(c.resident_count(), 1);
    }

    #[test]
    fn eviction_respects_budget() {
        let mut c = tiny_cache(2, 1);
        c.insert(e(0, 0), 1);
        c.insert(e(0, 1), 2);
        let out = c.insert(e(0, 2), 3);
        // LRU: e(0,0) is the oldest.
        assert_eq!(
            out,
            InsertOutcome::Inserted {
                evicted: vec![e(0, 0)]
            }
        );
        assert_eq!(c.resident_count(), 2);
        assert!(c.total_used_bytes() <= c.per_gpu_budget());
    }

    #[test]
    fn round_robin_home_gpu_spreads_load() {
        let c = tiny_cache(2, 2);
        // Dense indices 0..: gpu = idx % 2.
        assert_eq!(c.home_gpu(e(0, 0)), 0);
        assert_eq!(c.home_gpu(e(0, 1)), 1);
        assert_eq!(c.home_gpu(e(0, 2)), 0);
    }

    #[test]
    fn per_gpu_budgets_are_independent() {
        let mut c = tiny_cache(1, 2);
        // Both of these live on different GPUs: no eviction needed.
        c.insert(e(0, 0), 1);
        c.insert(e(0, 1), 2);
        assert_eq!(c.resident_count(), 2);
        // A second expert on GPU 0 evicts the first.
        let out = c.insert(e(0, 2), 3);
        assert_eq!(
            out,
            InsertOutcome::Inserted {
                evicted: vec![e(0, 0)]
            }
        );
    }

    #[test]
    fn pinned_experts_survive_eviction() {
        let mut c = tiny_cache(2, 1);
        c.insert(e(0, 0), 1);
        c.insert(e(0, 1), 2);
        assert!(c.pin(e(0, 0)));
        let out = c.insert(e(0, 2), 3);
        // LRU would pick e(0,0), but it is pinned: e(0,1) goes instead.
        assert_eq!(
            out,
            InsertOutcome::Inserted {
                evicted: vec![e(0, 1)]
            }
        );
        assert!(c.contains(e(0, 0)));
    }

    #[test]
    fn fully_pinned_gpu_rejects_inserts() {
        let mut c = tiny_cache(1, 1);
        c.insert(e(0, 0), 1);
        c.pin(e(0, 0));
        assert_eq!(c.insert(e(0, 1), 2), InsertOutcome::Rejected);
        assert_eq!(c.stats().rejected_inserts, 1);
        c.unpin_all();
        assert!(matches!(
            c.insert(e(0, 1), 3),
            InsertOutcome::Inserted { .. }
        ));
    }

    #[test]
    fn oversized_expert_is_rejected() {
        let cfg = presets::tiny_test_model();
        // Budget below one expert.
        let mut c = ExpertCache::new(&cfg, cfg.expert_bytes() - 1, 1, Box::new(LruPolicy::new()));
        assert_eq!(c.insert(e(0, 0), 0), InsertOutcome::Rejected);
    }

    #[test]
    fn access_recording_tracks_hit_rate() {
        let mut c = tiny_cache(2, 1);
        c.insert(e(0, 0), 0);
        assert!(c.record_access(e(0, 0), 1));
        assert!(!c.record_access(e(0, 1), 2));
        assert!((c.stats().hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lfu_cache_keeps_hot_experts() {
        let cfg = presets::tiny_test_model();
        let budget = cfg.expert_bytes() * 2;
        let mut c = ExpertCache::new(&cfg, budget, 1, Box::new(LfuPolicy::new()));
        c.insert(e(0, 0), 0);
        c.insert(e(0, 1), 0);
        for t in 0..5 {
            c.record_access(e(0, 0), t);
        }
        let out = c.insert(e(0, 2), 9);
        assert_eq!(
            out,
            InsertOutcome::Inserted {
                evicted: vec![e(0, 1)]
            }
        );
        assert!(c.contains(e(0, 0)));
    }

    #[test]
    fn fmoe_priority_cache_uses_probabilities() {
        let cfg = presets::tiny_test_model();
        let budget = cfg.expert_bytes() * 2;
        let mut c = ExpertCache::new(&cfg, budget, 1, Box::new(FmoePriorityPolicy::new()));
        c.insert(e(0, 0), 0);
        c.insert(e(0, 1), 0);
        c.update_probability(e(0, 0), 0.9);
        c.update_probability(e(0, 1), 0.01);
        let out = c.insert(e(0, 2), 1);
        assert_eq!(
            out,
            InsertOutcome::Inserted {
                evicted: vec![e(0, 1)]
            }
        );
    }

    #[test]
    fn remove_frees_bytes_and_pins() {
        let mut c = tiny_cache(1, 1);
        c.insert(e(0, 0), 0);
        c.pin(e(0, 0));
        assert!(c.remove(e(0, 0)));
        assert!(!c.remove(e(0, 0)));
        assert_eq!(c.total_used_bytes(), 0);
        // The pin must be gone too.
        c.insert(e(0, 1), 1);
        assert!(matches!(
            c.insert(e(0, 2), 2),
            InsertOutcome::Inserted { .. }
        ));
    }

    #[test]
    fn clear_resets_residency() {
        let mut c = tiny_cache(2, 1);
        c.insert(e(0, 0), 0);
        c.record_access(e(0, 0), 1);
        c.clear();
        assert_eq!(c.resident_count(), 0);
        assert_eq!(c.total_used_bytes(), 0);
        assert_eq!(c.stats().accesses(), 0);
    }

    #[test]
    fn fifo_evicts_in_reinsertion_order_after_a_clear() {
        let cfg = presets::tiny_test_model();
        let mut c = ExpertCache::new(&cfg, cfg.expert_bytes() * 2, 1, Box::new(FifoPolicy::new()));
        c.insert(e(0, 0), 0);
        c.insert(e(0, 1), 1);
        c.clear();
        // Re-inserted in the opposite order: E[0,1] is now the oldest.
        c.insert(e(0, 1), 2);
        c.insert(e(0, 0), 3);
        assert_eq!(
            c.insert(e(0, 2), 4),
            InsertOutcome::Inserted {
                evicted: vec![e(0, 1)]
            }
        );
    }

    #[test]
    fn set_assignment_rehomes_residents() {
        // 2 GPUs × 2 slots; round-robin homes E[0,0] and E[0,2] on GPU 0.
        let mut c = tiny_cache(2, 2);
        c.insert(e(0, 0), 0);
        c.insert(e(0, 2), 1);
        c.set_assignment(vec![1; 16]);
        assert_eq!(c.used_bytes(0), 0);
        assert_eq!(c.used_bytes(1), 2 * c.expert_bytes());
        // Every further insert lands on GPU 1 and stays within its budget.
        for (now, x) in [(2, e(0, 1)), (3, e(0, 3)), (4, e(1, 3))] {
            assert!(matches!(c.insert(x, now), InsertOutcome::Inserted { .. }));
            assert!(c.used_bytes(1) <= c.per_gpu_budget());
        }
        assert_eq!(c.resident_count(), 2);
        assert_eq!(c.used_bytes(0), 0);
    }

    #[test]
    fn remove_after_rehome_frees_the_new_home() {
        let mut c = tiny_cache(2, 2);
        c.insert(e(0, 0), 0);
        c.insert(e(0, 2), 1);
        c.set_assignment(vec![1; 16]);
        assert!(c.remove(e(0, 0)));
        assert_eq!(c.used_bytes(0), 0);
        assert_eq!(c.used_bytes(1), c.expert_bytes());
    }

    #[test]
    fn rehome_over_budget_evicts_on_next_insert() {
        // Four residents, two per GPU, all re-homed onto GPU 1.
        let mut c = tiny_cache(2, 2);
        for s in 0..4 {
            c.insert(e(0, s), u64::from(s));
        }
        c.set_assignment(vec![1; 16]);
        assert_eq!(c.used_bytes(1), 4 * c.expert_bytes());
        let InsertOutcome::Inserted { evicted } = c.insert(e(1, 0), 9) else {
            panic!("an unpinned GPU must make room");
        };
        assert_eq!(evicted.len(), 3);
        assert_eq!(c.used_bytes(1), c.per_gpu_budget());
        assert_eq!(c.total_used_bytes(), c.used_bytes(1));
    }

    #[test]
    fn slots_per_gpu_matches_budget() {
        let c = tiny_cache(3, 2);
        assert_eq!(c.slots_per_gpu(), 3);
    }

    #[test]
    fn pin_nonresident_returns_false() {
        let mut c = tiny_cache(1, 1);
        assert!(!c.pin(e(0, 0)));
    }

    #[test]
    fn shrinking_budget_evicts_to_fit() {
        let cfg = presets::tiny_test_model();
        let mut c = tiny_cache(4, 1);
        for s in 0..4 {
            c.insert(e(0, s), u64::from(s));
        }
        assert_eq!(c.resident_count(), 4);
        let evicted = c.set_total_budget(cfg.expert_bytes() * 2);
        assert_eq!(evicted.len(), 2);
        assert_eq!(c.resident_count(), 2);
        assert!(c.total_used_bytes() <= c.per_gpu_budget());
        // LRU: the oldest two went first.
        assert_eq!(evicted, vec![e(0, 0), e(0, 1)]);
    }

    #[test]
    fn growing_budget_evicts_nothing_and_allows_more() {
        let cfg = presets::tiny_test_model();
        let mut c = tiny_cache(1, 1);
        c.insert(e(0, 0), 0);
        assert!(c.set_total_budget(cfg.expert_bytes() * 3).is_empty());
        assert!(
            matches!(c.insert(e(0, 1), 1), InsertOutcome::Inserted { evicted } if evicted.is_empty())
        );
        assert!(
            matches!(c.insert(e(0, 2), 2), InsertOutcome::Inserted { evicted } if evicted.is_empty())
        );
        assert_eq!(c.resident_count(), 3);
    }

    #[test]
    fn trace_sink_sees_inserts_evictions_and_budget_retunes() {
        let cfg = presets::tiny_test_model();
        let sink = fmoe_trace::TraceSink::recording(256);
        let mut c = tiny_cache(2, 1);
        c.set_trace_sink(sink.clone());
        c.insert(e(0, 0), 10);
        c.insert(e(0, 1), 20);
        c.record_access(e(0, 0), 30);
        c.record_access(e(1, 0), 31);
        // Third insert evicts, then a budget shrink evicts again.
        c.insert(e(0, 2), 40);
        let evicted = c.set_total_budget(cfg.expert_bytes());
        assert_eq!(evicted.len(), 1);
        let records = sink.take_records();
        let count = |m: fmoe_trace::Marker| {
            records
                .iter()
                .filter(
                    |r| matches!(r.event, fmoe_trace::TraceEvent::Instant { marker, .. } if marker == m),
                )
                .count()
        };
        assert_eq!(count(fmoe_trace::Marker::CacheInsert), 3);
        assert_eq!(count(fmoe_trace::Marker::CacheEvict), 2);
        // Budget-retune evictions are stamped at the last observed time.
        assert!(records.iter().all(|r| r.at_ns <= 40));
        let m = sink.metrics_snapshot();
        assert_eq!(m.counter("cache.hits"), 1);
        assert_eq!(m.counter("cache.misses"), 1);
        assert_eq!(m.counter("cache.insertions"), 3);
        assert_eq!(m.counter("cache.evictions"), 2);
        assert_eq!(
            m.gauge("cache.per_gpu_budget_bytes"),
            Some(cfg.expert_bytes())
        );
    }

    #[test]
    fn out_of_model_slot_never_aliases_another_expert() {
        // Tiny model: 4 layers × 4 experts, so E[0,4] has the dense index
        // E[1,0] owns.
        let mut c = tiny_cache(4, 1);
        assert_eq!(c.insert(e(0, 4), 0), InsertOutcome::Rejected);
        assert_eq!(c.stats().rejected_inserts, 1);
        assert!(!c.contains(e(1, 0)));
        assert_eq!(c.resident_count(), 0);
        c.insert(e(1, 0), 1);
        for outside in [e(0, 4), e(4, 0)] {
            assert!(!c.contains(outside));
            assert!(!c.pin(outside));
            assert!(!c.remove(outside));
        }
        assert!(c.contains(e(1, 0)));
        assert_eq!(c.resident_experts().collect::<Vec<_>>(), vec![e(1, 0)]);
    }

    #[test]
    fn shrinking_budget_respects_pins() {
        let cfg = presets::tiny_test_model();
        let mut c = tiny_cache(3, 1);
        for s in 0..3 {
            c.insert(e(0, s), u64::from(s));
            c.pin(e(0, s));
        }
        // Nothing evictable: budget shrinks but residents stay until
        // unpinned.
        let evicted = c.set_total_budget(cfg.expert_bytes());
        assert!(evicted.is_empty());
        assert_eq!(c.resident_count(), 3);
        c.unpin_all();
        // The next insert now triggers evictions down to the new budget.
        let out = c.insert(e(1, 0), 9);
        assert!(matches!(out, InsertOutcome::Inserted { .. }));
        assert!(c.total_used_bytes() <= c.per_gpu_budget());
    }
}
