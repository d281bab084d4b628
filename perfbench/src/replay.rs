//! Timed replays of the layers the engine owns and the benchmark cannot
//! wrap — the router, the expert cache and the transfer engine — driven
//! by the exact call sequence a probed serving pass logged.

use crate::probe::Step;
use fmoe_bench::harness::System;
use fmoe_cache::ExpertCache;
use fmoe_memsim::{GpuId, Topology, TransferEngine};
use fmoe_model::{ExpertId, GateSimulator};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Virtual time one replayed router call advances the transfer engine by
/// (about one layer of a batch-1 iteration at the paper's per-layer host
/// overhead).
const LAYER_STEP_NS: u64 = 3_000_000;

/// The router replay: per-call wall time, split by phase.
#[derive(Debug, Default)]
pub struct RouterReplay {
    /// Router calls on prefill spans.
    pub prefill_calls: u64,
    /// Router calls on single-token decode spans.
    pub decode_calls: u64,
    /// Wall time of the prefill calls.
    pub prefill: Duration,
    /// Wall time of the decode calls.
    pub decode: Duration,
    /// `(layer, activated slots)` of every call, in call order.
    pub activated: Vec<(u32, Vec<u32>)>,
}

/// Calls `iteration_distribution` then `activated_slots` — what the
/// engine does per (element, layer) — for every logged router call, and
/// times each pair.
#[must_use]
pub fn router(gate: &GateSimulator, steps: &[Step]) -> RouterReplay {
    let mut out = RouterReplay::default();
    for step in steps {
        let Step::Gate {
            routing,
            iteration,
            layer,
            span,
            prefill,
            ..
        } = step
        else {
            continue;
        };
        let start = Instant::now();
        let dist = gate.iteration_distribution(*routing, *iteration, *layer, *span);
        let slots = gate.activated_slots(*routing, *iteration, *layer, *span);
        let spent = start.elapsed();
        black_box(&dist);
        if *prefill {
            out.prefill_calls += 1;
            out.prefill += spent;
        } else {
            out.decode_calls += 1;
            out.decode += spent;
        }
        out.activated.push((*layer, slots));
    }
    out
}

/// Operation count and wall time of a replay loop.
#[derive(Debug, Default, Clone, Copy)]
pub struct OpsReplay {
    /// Public calls made.
    pub ops: u64,
    /// Wall time of the whole loop.
    pub wall: Duration,
}

impl OpsReplay {
    /// Mean wall nanoseconds per call.
    #[must_use]
    pub fn ns_per_op(&self) -> f64 {
        self.wall.as_nanos() as f64 / self.ops.max(1) as f64
    }
}

/// Replays the activated-expert stream through a fresh cache under fMoE's
/// eviction policy and the workload's per-engine budget: `record_access`
/// for every activation and `insert` on a miss. Returns the timing and,
/// per router call, the experts that missed.
#[must_use]
pub fn cache(
    gate: &GateSimulator,
    budget_bytes: u64,
    num_gpus: u32,
    activated: &[(u32, Vec<u32>)],
) -> (OpsReplay, Vec<Vec<ExpertId>>) {
    let model = gate.config();
    let policy = System::Fmoe.cache_policy(model.experts_per_layer);
    let mut cache = ExpertCache::new(model, budget_bytes, num_gpus, policy);
    let mut misses: Vec<Vec<ExpertId>> = vec![Vec::new(); activated.len()];
    let mut ops = 0u64;
    let start = Instant::now();
    for (now, ((layer, slots), missed)) in (0u64..).zip(activated.iter().zip(&mut misses)) {
        for &slot in slots {
            let expert = ExpertId::new(*layer, slot);
            ops += 1;
            if !cache.record_access(expert, now) {
                ops += 1;
                black_box(cache.insert(expert, now));
                missed.push(expert);
            }
        }
    }
    let wall = start.elapsed();
    (OpsReplay { ops, wall }, misses)
}

/// Replays one engine's transfer traffic through a fresh transfer engine
/// on the workload's topology: queued prefetches are cancelled at each
/// iteration boundary (as the engine prunes them), every router call
/// advances virtual time by [`LAYER_STEP_NS`], absorbs completions and
/// submits that call's fetch plans, and each cache-replay miss is an
/// on-demand load.
#[must_use]
pub fn transfer(
    topology: &Topology,
    expert_bytes: u64,
    experts_per_layer: u32,
    steps: &[Step],
    misses: &[Vec<ExpertId>],
) -> OpsReplay {
    let mut engine = TransferEngine::new(topology);
    let gpus = topology.num_gpus.max(1) as usize;
    let home = |dense: usize| GpuId((dense % gpus) as u32);
    let mut misses = misses.iter();
    let mut now = 0u64;
    let mut ops = 0u64;
    let start = Instant::now();
    for step in steps {
        match step {
            Step::Begin { fetches } => {
                engine.cancel_all_prefetches(now);
                ops += 1;
                for &dense in fetches {
                    engine.submit_prefetch(home(dense), dense as u64, expert_bytes, now);
                    ops += 1;
                }
            }
            Step::Gate { fetches, .. } => {
                now += LAYER_STEP_NS;
                engine.advance_to(now);
                black_box(engine.drain_completions());
                ops += 2;
                for &dense in fetches {
                    engine.submit_prefetch(home(dense), dense as u64, expert_bytes, now);
                    ops += 1;
                }
                for expert in misses.next().into_iter().flatten() {
                    let gpu = home(expert.dense_index(experts_per_layer));
                    now = now.max(engine.on_demand_load(gpu, expert_bytes, now));
                    ops += 1;
                }
            }
        }
    }
    OpsReplay {
        ops,
        wall: start.elapsed(),
    }
}
