//! Property-based tests for the expert cache: budget, residency, and
//! policy invariants under arbitrary operation sequences.

#![cfg(test)]

use crate::cache::{ExpertCache, InsertOutcome};
use crate::policy::{
    EvictionPolicy, FifoPolicy, FmoePriorityPolicy, LfuPolicy, LruPolicy, SievePolicy,
};
use fmoe_model::{presets, ExpertId};
use proptest::prelude::*;
use std::collections::BTreeSet;

#[derive(Debug, Clone)]
enum Op {
    Insert(u8),
    Access(u8),
    Remove(u8),
    Pin(u8),
    UnpinAll,
    UpdateProbability(u8, f64),
    IterationBoundary,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..16).prop_map(Op::Insert),
        (0u8..16).prop_map(Op::Access),
        (0u8..16).prop_map(Op::Remove),
        (0u8..16).prop_map(Op::Pin),
        Just(Op::UnpinAll),
        ((0u8..16), 0.0f64..1.0).prop_map(|(e, p)| Op::UpdateProbability(e, p)),
        Just(Op::IterationBoundary),
    ]
}

fn policies() -> Vec<Box<dyn EvictionPolicy>> {
    vec![
        Box::new(LruPolicy::new()),
        Box::new(LfuPolicy::new()),
        Box::new(LfuPolicy::coarse()),
        Box::new(FmoePriorityPolicy::new()),
        Box::new(SievePolicy::new()),
        Box::new(FifoPolicy::new()),
    ]
}

/// Operations that move residency bytes between GPUs or change their
/// size: the accounting `used_bytes` must keep in step with.
#[derive(Debug, Clone)]
enum AccountingOp {
    InsertHalf(u8),
    InsertWarm(u8),
    Assign(Vec<u32>),
    Budget(u64),
    Remove(u8),
    Pin(u8),
    Unpin(u8),
    UnpinAll,
}

fn accounting_op_strategy() -> impl Strategy<Value = AccountingOp> {
    prop_oneof![
        (0u8..16).prop_map(AccountingOp::InsertHalf),
        (0u8..16).prop_map(AccountingOp::InsertWarm),
        prop::collection::vec(0u32..4, 0..=16).prop_map(AccountingOp::Assign),
        (1u64..8).prop_map(AccountingOp::Budget),
        (0u8..16).prop_map(AccountingOp::Remove),
        (0u8..16).prop_map(AccountingOp::Pin),
        (0u8..16).prop_map(AccountingOp::Unpin),
        Just(AccountingOp::UnpinAll),
    ]
}

fn expert(i: u8) -> ExpertId {
    // Tiny model: 4 layers x 4 experts = 16 experts.
    ExpertId::from_dense_index(usize::from(i) % 16, 4)
}

proptest! {
    /// Core safety property: whatever the operation sequence and policy,
    /// per-GPU usage never exceeds the budget and byte accounting stays
    /// consistent with the resident set.
    #[test]
    fn budget_is_never_exceeded(
        ops in prop::collection::vec(op_strategy(), 1..200),
        slots in 1u64..8,
        gpus in 1u32..4,
        policy_idx in 0usize..6,
    ) {
        let cfg = presets::tiny_test_model();
        let budget = cfg.expert_bytes() * slots * u64::from(gpus);
        let policy = policies().swap_remove(policy_idx);
        let mut cache = ExpertCache::new(&cfg, budget, gpus, policy);
        let mut clock = 0u64;
        for op in ops {
            clock += 1;
            match op {
                Op::Insert(i) => {
                    let _ = cache.insert(expert(i), clock);
                }
                Op::Access(i) => {
                    let _ = cache.record_access(expert(i), clock);
                }
                Op::Remove(i) => {
                    let _ = cache.remove(expert(i));
                }
                Op::Pin(i) => {
                    let _ = cache.pin(expert(i));
                }
                Op::UnpinAll => cache.unpin_all(),
                Op::UpdateProbability(i, p) => cache.update_probability(expert(i), p),
                Op::IterationBoundary => cache.notify_iteration_boundary(),
            }
            for g in 0..gpus {
                prop_assert!(cache.used_bytes(g) <= cache.per_gpu_budget());
            }
            // Byte accounting equals resident count times expert size.
            prop_assert_eq!(
                cache.total_used_bytes(),
                cache.resident_count() as u64 * cache.expert_bytes()
            );
        }
    }

    /// An insert either leaves the expert resident or reports rejection —
    /// never a silent failure.
    #[test]
    fn insert_outcome_matches_residency(
        preload in prop::collection::vec(0u8..16, 0..12),
        target in 0u8..16,
        policy_idx in 0usize..6,
    ) {
        let cfg = presets::tiny_test_model();
        let budget = cfg.expert_bytes() * 4;
        let policy = policies().swap_remove(policy_idx);
        let mut cache = ExpertCache::new(&cfg, budget, 1, policy);
        for (t, &i) in preload.iter().enumerate() {
            let _ = cache.insert(expert(i), t as u64);
        }
        let outcome = cache.insert(expert(target), 999);
        match outcome {
            InsertOutcome::Inserted { .. } | InsertOutcome::AlreadyResident => {
                prop_assert!(cache.contains(expert(target)));
            }
            InsertOutcome::Rejected => {
                prop_assert!(!cache.contains(expert(target)));
            }
        }
    }

    /// Evicted experts reported by an insert are really gone, and the
    /// newly inserted expert never appears in its own eviction list.
    #[test]
    fn eviction_reports_are_accurate(
        preload in prop::collection::vec(0u8..16, 4..16),
        target in 0u8..16,
    ) {
        let cfg = presets::tiny_test_model();
        let budget = cfg.expert_bytes() * 3;
        let mut cache = ExpertCache::new(&cfg, budget, 1, Box::new(LruPolicy::new()));
        for (t, &i) in preload.iter().enumerate() {
            let _ = cache.insert(expert(i), t as u64);
        }
        if let InsertOutcome::Inserted { evicted } = cache.insert(expert(target), 999) {
            for e in &evicted {
                prop_assert!(!cache.contains(*e));
                prop_assert_ne!(*e, expert(target));
            }
        }
    }

    /// Pinned experts survive arbitrary insertion pressure.
    #[test]
    fn pinned_experts_are_never_evicted(
        pressure in prop::collection::vec(0u8..16, 1..64),
        pinned in 0u8..16,
    ) {
        let cfg = presets::tiny_test_model();
        let budget = cfg.expert_bytes() * 2;
        let mut cache = ExpertCache::new(&cfg, budget, 1, Box::new(LruPolicy::new()));
        let inserted =
            matches!(cache.insert(expert(pinned), 0), InsertOutcome::Inserted { .. });
        prop_assert!(inserted);
        prop_assert!(cache.pin(expert(pinned)));
        for (t, &i) in pressure.iter().enumerate() {
            let _ = cache.insert(expert(i), 1 + t as u64);
            prop_assert!(cache.contains(expert(pinned)));
        }
    }

    /// Policies always pick a victim from the candidate list.
    #[test]
    fn victims_come_from_candidates(
        candidates in prop::collection::vec(0u8..16, 1..16),
        hits in prop::collection::vec((0u8..16, 1u64..100), 0..32),
        policy_idx in 0usize..6,
    ) {
        let mut policy = policies().swap_remove(policy_idx);
        let unique: Vec<ExpertId> = {
            let mut v: Vec<ExpertId> = candidates.iter().map(|&i| expert(i)).collect();
            v.sort();
            v.dedup();
            v
        };
        for (t, &e) in unique.iter().enumerate() {
            policy.on_insert(e, t as u64);
        }
        for &(i, t) in &hits {
            policy.on_hit(expert(i), 100 + t);
        }
        let victim = policy.choose_victim(&unique);
        prop_assert!(victim.is_some());
        prop_assert!(unique.contains(&victim.unwrap()));
    }

    /// FIFO's whole contract: the eviction sequence is the insertion
    /// sequence, no matter how many hits land in between.
    #[test]
    fn fifo_evicts_in_insertion_order_regardless_of_hits(
        inserts in prop::collection::vec(0u8..16, 1..16),
        hits in prop::collection::vec((0u8..16, 1u64..100), 0..48),
    ) {
        let mut policy = FifoPolicy::new();
        let mut order: Vec<ExpertId> = Vec::new();
        for (t, &i) in inserts.iter().enumerate() {
            let e = expert(i);
            if !order.contains(&e) {
                policy.on_insert(e, t as u64);
                order.push(e);
            }
        }
        for &(i, t) in &hits {
            policy.on_hit(expert(i), 100 + t);
        }
        let mut remaining = order.clone();
        let mut evicted = Vec::new();
        while !remaining.is_empty() {
            let mut candidates = remaining.clone();
            candidates.sort();
            let victim = policy.choose_victim(&candidates).unwrap();
            policy.on_remove(victim);
            remaining.retain(|&e| e != victim);
            evicted.push(victim);
        }
        prop_assert_eq!(evicted, order);
    }

    /// Byte accounting under mixed sizes and re-homes: after every
    /// operation each GPU's `used_bytes` is the sum of `resident_bytes`
    /// over the residents homed on it, residents list in strictly
    /// ascending id order, and no eviction ever takes a pinned expert.
    #[test]
    fn per_gpu_bytes_match_residents_under_mixed_sizes_and_rehomes(
        ops in prop::collection::vec(accounting_op_strategy(), 1..200),
        slots in 1u64..8,
        gpus in 1u32..4,
        policy_idx in 0usize..6,
    ) {
        let cfg = presets::tiny_test_model();
        let budget = cfg.expert_bytes() * slots * u64::from(gpus);
        let policy = policies().swap_remove(policy_idx);
        let mut cache = ExpertCache::new(&cfg, budget, gpus, policy);
        let half = cache.expert_bytes() / 2;
        let mut pinned: BTreeSet<ExpertId> = BTreeSet::new();
        let mut clock = 0u64;
        for op in ops {
            clock += 1;
            let evicted = match op {
                AccountingOp::InsertHalf(i) => match cache.insert_sized(expert(i), half, clock) {
                    InsertOutcome::Inserted { evicted } => evicted,
                    _ => Vec::new(),
                },
                AccountingOp::InsertWarm(i) => match cache.insert_warm(expert(i), clock) {
                    InsertOutcome::Inserted { evicted } => evicted,
                    _ => Vec::new(),
                },
                AccountingOp::Assign(owners) => {
                    cache.set_assignment(owners);
                    Vec::new()
                }
                AccountingOp::Budget(slots) => {
                    cache.set_total_budget(cfg.expert_bytes() * slots * u64::from(gpus))
                }
                AccountingOp::Remove(i) => {
                    cache.remove(expert(i));
                    pinned.remove(&expert(i));
                    Vec::new()
                }
                AccountingOp::Pin(i) => {
                    if cache.pin(expert(i)) {
                        pinned.insert(expert(i));
                    }
                    Vec::new()
                }
                AccountingOp::Unpin(i) => {
                    cache.unpin(expert(i));
                    pinned.remove(&expert(i));
                    Vec::new()
                }
                AccountingOp::UnpinAll => {
                    cache.unpin_all();
                    pinned.clear();
                    Vec::new()
                }
            };
            for e in &evicted {
                prop_assert!(!pinned.contains(e), "pinned {:?} was evicted", e);
            }
            let residents: Vec<ExpertId> = cache.resident_experts().collect();
            prop_assert!(residents.windows(2).all(|w| w[0] < w[1]), "{:?}", residents);
            for g in 0..gpus {
                let homed: u64 = residents
                    .iter()
                    .filter(|&&e| cache.home_gpu(e) == g)
                    .map(|&e| cache.resident_bytes(e).unwrap_or(0))
                    .sum();
                prop_assert_eq!(cache.used_bytes(g), homed, "gpu {}", g);
            }
        }
    }
}
