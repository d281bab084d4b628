//! A pass-through [`ExpertPredictor`] around the fMoE predictor: it times
//! every call into the predictor and logs the router calls the engine
//! made, so the traced run can split serving wall time by layer and
//! replay the router, cache and transfer engine on the same inputs.
//!
//! The wrapper forwards every call unchanged, so the simulated outputs of
//! a probed pass are bit-identical to an unprobed one; the benchmark
//! checks that with a digest.

use fmoe::FmoePredictor;
use fmoe_model::gate::TokenSpan;
use fmoe_model::RequestRouting;
use fmoe_serving::{ExpertPredictor, IterationContext, PredictorTiming, PrefetchPlan};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// One predictor callback the engine made, in call order.
#[derive(Debug, Clone)]
pub enum Step {
    /// `begin_iteration`, with the dense ids of the experts it asked to
    /// fetch.
    Begin {
        /// Fetch plans (dense expert ids).
        fetches: Vec<usize>,
    },
    /// `observe_gate`, which the engine calls right after one router call
    /// for one element: the call's coordinates plus the fetches returned.
    Gate {
        /// The request's routing identity.
        routing: RequestRouting,
        /// Iteration within the request (0 = prefill).
        iteration: u64,
        /// Layer whose gate fired.
        layer: u32,
        /// Token positions the router saw.
        span: TokenSpan,
        /// Whether this was the prefill iteration.
        prefill: bool,
        /// Fetch plans (dense expert ids).
        fetches: Vec<usize>,
    },
}

/// Wall time and counts of the predictor calls of one serving pass.
#[derive(Debug, Default)]
pub struct Probe {
    /// Wall time in `begin_iteration`.
    pub begin: Duration,
    /// Wall time in `observe_gate`.
    pub observe: Duration,
    /// Wall time in `end_iteration`.
    pub end: Duration,
    /// Wall time in `semantic_affinity` (cluster routing).
    pub affinity: Duration,
    /// Predictor calls of any kind.
    pub calls: u64,
    /// `begin_iteration` calls: one per (element, iteration).
    pub begins: u64,
    /// Plans asking for a transfer.
    pub fetch_plans: u64,
    /// Belief-only plans.
    pub advisory_plans: u64,
    /// Expert Map Store entries per replica after its latest update.
    pub store_entries: Vec<usize>,
    /// Every `begin_iteration` / `observe_gate` call, in order.
    pub steps: Vec<Step>,
}

impl Probe {
    /// Total wall time inside the predictor.
    #[must_use]
    pub fn core_time(&self) -> Duration {
        self.begin + self.observe + self.end + self.affinity
    }

    /// Counts `plans` and returns the dense ids of the fetches.
    fn tally(&mut self, plans: &[PrefetchPlan], experts_per_layer: u32) -> Vec<usize> {
        let mut fetches = Vec::new();
        for plan in plans {
            if plan.advisory {
                self.advisory_plans += 1;
            } else {
                self.fetch_plans += 1;
                fetches.push(plan.expert.dense_index(experts_per_layer));
            }
        }
        fetches
    }

    fn set_store_entries(&mut self, replica: usize, entries: usize) {
        if self.store_entries.len() <= replica {
            self.store_entries.resize(replica + 1, 0);
        }
        self.store_entries[replica] = entries;
    }
}

/// A probe shared by the wrappers of every replica (the simulation is
/// single-threaded, so the lock is never contended).
pub type SharedProbe = Arc<Mutex<Probe>>;

/// Locks `probe`.
///
/// # Panics
///
/// Only if a thread panicked while holding the lock, which the
/// single-threaded benchmark never does.
pub fn lock(probe: &SharedProbe) -> MutexGuard<'_, Probe> {
    probe
        .lock()
        .expect("probe lock is never held across a panic")
}

/// The timing wrapper around one replica's fMoE predictor.
pub struct Probed {
    inner: FmoePredictor,
    probe: SharedProbe,
    replica: usize,
    experts_per_layer: u32,
}

impl Probed {
    /// Wraps `inner` (replica `replica`), reporting into `probe`.
    #[must_use]
    pub fn new(
        inner: FmoePredictor,
        probe: SharedProbe,
        replica: usize,
        experts_per_layer: u32,
    ) -> Self {
        lock(&probe).set_store_entries(replica, inner.store_len());
        Self {
            inner,
            probe,
            replica,
            experts_per_layer,
        }
    }
}

impl ExpertPredictor for Probed {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn timing(&self) -> PredictorTiming {
        self.inner.timing()
    }

    fn begin_iteration(&mut self, ctx: &IterationContext) -> Vec<PrefetchPlan> {
        let start = Instant::now();
        let plans = self.inner.begin_iteration(ctx);
        let spent = start.elapsed();
        let mut probe = lock(&self.probe);
        probe.begin += spent;
        probe.calls += 1;
        probe.begins += 1;
        let fetches = probe.tally(&plans, self.experts_per_layer);
        probe.steps.push(Step::Begin { fetches });
        plans
    }

    fn observe_gate(
        &mut self,
        ctx: &IterationContext,
        layer: u32,
        distribution: &[f64],
    ) -> Vec<PrefetchPlan> {
        let start = Instant::now();
        let plans = self.inner.observe_gate(ctx, layer, distribution);
        let spent = start.elapsed();
        let mut probe = lock(&self.probe);
        probe.observe += spent;
        probe.calls += 1;
        let fetches = probe.tally(&plans, self.experts_per_layer);
        probe.steps.push(Step::Gate {
            routing: ctx.routing,
            iteration: ctx.iteration,
            layer,
            span: ctx.span,
            prefill: ctx.is_prefill,
            fetches,
        });
        plans
    }

    fn end_iteration(&mut self, ctx: &IterationContext, realized_map: &[Vec<f64>]) {
        let start = Instant::now();
        self.inner.end_iteration(ctx, realized_map);
        let spent = start.elapsed();
        let entries = self.inner.store_len();
        let mut probe = lock(&self.probe);
        probe.end += spent;
        probe.calls += 1;
        probe.set_store_entries(self.replica, entries);
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn loads_entire_layer(&self) -> bool {
        self.inner.loads_entire_layer()
    }

    fn semantic_affinity(&self, embedding: &[f64]) -> Option<f64> {
        let start = Instant::now();
        let affinity = self.inner.semantic_affinity(embedding);
        let spent = start.elapsed();
        let mut probe = lock(&self.probe);
        probe.affinity += spent;
        probe.calls += 1;
        affinity
    }

    fn warm_state(&self) -> Option<Vec<u8>> {
        self.inner.warm_state()
    }

    fn restore_warm_state(&mut self, snapshot: &[u8]) -> bool {
        self.inner.restore_warm_state(snapshot)
    }
}
