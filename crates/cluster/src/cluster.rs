//! The [`Cluster`]: N independent engine replicas behind one router.

use crate::lifecycle::{FailoverConfig, FailoverStats, WarmupMode};
use crate::report::{ClusterReport, ReplicaReport};
use crate::routing::{shortest_effective_queue, RoutingPolicy, RoutingStats};
use fmoe_faults::{ReplicaFaultSchedule, ReplicaTransition, TransitionKind};
use fmoe_memsim::Nanos;
use fmoe_model::GateSimulator;
use fmoe_serving::online::{serve_event_fcfs, FcfsOutcome};
use fmoe_serving::{
    EngineBuilder, ExpertPredictor, OnlineResult, ServingEngine, ShedRequest, SloPolicy,
};
use fmoe_trace::{Marker, TraceRecord, NO_GPU, NO_LAYER, NO_REQUEST, NO_SLOT};
use fmoe_workload::TraceEvent;
use serde::Serialize;

/// One replica: an engine, its predictor, and FIFO-queue bookkeeping.
struct Replica {
    engine: ServingEngine,
    predictor: Box<dyn ExpertPredictor>,
    /// Finish times of served requests, monotone under FCFS.
    finish_times: Vec<Nanos>,
    /// Cursor into `finish_times`: everything before it finished at or
    /// before the most recent arrival instant (arrivals are monotone, so
    /// the cursor only moves forward — O(1) amortized depth queries).
    drained: usize,
    results: Vec<OnlineResult>,
    /// The trace event behind each entry of `results` plus its
    /// re-dispatch count, kept index-aligned so a crash can identify and
    /// re-route the invalidated suffix.
    events: Vec<(TraceEvent, u32)>,
    shed: Vec<ShedRequest>,
    max_queue_depth: usize,
    /// Σ observed queue depth over routed arrivals (the arriving request
    /// included only when it actually joins the queue — shed requests
    /// never occupy it).
    depth_sum: u64,
    arrivals: u64,
    /// Cache counters accumulated before restarts: `ExpertCache::clear`
    /// resets stats, so lifetime accounting carries pre-crash snapshots
    /// here and merges them back in at report time.
    carried_cache: fmoe_cache::CacheStats,
    /// The replica accepts no new requests before this instant (warmup
    /// after a donor-warmed restart). `0` = always available.
    available_at: Nanos,
}

impl Replica {
    /// Requests routed here that are still queued or in service at `t`:
    /// served requests whose finish time lies beyond `t`. Shed requests
    /// never occupy the queue (they are rejected the instant their turn
    /// comes, contributing no service time).
    fn queue_depth(&mut self, t: Nanos) -> usize {
        while self.drained < self.finish_times.len() && self.finish_times[self.drained] <= t {
            self.drained += 1;
        }
        self.finish_times.len() - self.drained
    }

    /// Lifetime cache counters: the live cache plus everything carried
    /// across restarts.
    fn lifetime_cache(&self) -> fmoe_cache::CacheStats {
        self.carried_cache.merged(&self.engine.cache_stats())
    }
}

/// A per-replica trace record in the merged cluster timeline.
#[derive(Debug, Clone, Serialize)]
pub struct ClusterTraceRecord {
    /// Which replica emitted the record.
    pub replica: usize,
    /// The record itself (timestamps are each replica's virtual time;
    /// all replicas share t = 0 at cluster start).
    pub record: TraceRecord,
}

/// A deterministic multi-replica serving cluster.
///
/// Replicas are added through [`Cluster::add_replica`] (which finishes an
/// [`EngineBuilder`], so every replica is built the one supported way),
/// then a shared trace is pushed through [`Cluster::dispatch`]. Each
/// replica is an independent FCFS queue: once a request is routed, it is
/// served by [`serve_event_fcfs`] with exactly the semantics of
/// `fmoe_serving::serve` — which makes a 1-replica cluster byte-identical
/// to single-engine serving.
///
/// An optional [`ReplicaFaultSchedule`] (see
/// [`Cluster::set_replica_fault_schedule`]) injects replica-level
/// lifecycle events — crashes, brownouts, planned drains — which the
/// dispatcher consumes: crashed replicas' unfinished work is failed over,
/// routing becomes health-aware, and restarts warm up per the configured
/// [`WarmupMode`]. An inert schedule leaves every output byte-identical
/// to a schedule-free run.
pub struct Cluster {
    /// Embedding oracle for [`RoutingPolicy::SemanticAffinity`]: the
    /// router observes the same iteration-0 semantic embedding the
    /// engines feed their predictors.
    gate: GateSimulator,
    policy: RoutingPolicy,
    slo: Option<SloPolicy>,
    replicas: Vec<Replica>,
    /// Next replica for [`RoutingPolicy::RoundRobin`].
    rr_next: usize,
    routing: RoutingStats,
    /// Replica-level fault schedule (inert by default).
    faults: ReplicaFaultSchedule,
    failover_cfg: FailoverConfig,
    /// Effective lifecycle transitions of `faults`, sorted by
    /// `(at, replica, kind)`, with a cursor advanced as arrivals pass
    /// each transition instant. Transitions beyond the last arrival are
    /// never processed (the simulation ends with the workload).
    transitions: Vec<ReplicaTransition>,
    transition_cursor: usize,
    failover: FailoverStats,
    /// Cluster-level sheds: requests that exhausted their re-dispatch
    /// budget or found no healthy replica. Replica-level SLO sheds live
    /// in each replica's report instead.
    failover_shed: Vec<ShedRequest>,
    /// Lifecycle markers (crash/drain/restart/failover/warmup) recorded
    /// by the dispatcher itself; merged into the cluster timeline by
    /// [`Cluster::take_merged_trace`]. Empty under an inert schedule.
    lifecycle: Vec<ClusterTraceRecord>,
    /// Requests routed so far (both dispatch arrivals and nothing else:
    /// failovers re-route existing requests and do not re-count).
    dispatched: u64,
}

impl Cluster {
    /// Creates an empty cluster. `gate` must simulate the same model the
    /// replicas serve (its only cluster-level role is producing prompt
    /// embeddings for affinity routing).
    #[must_use]
    pub fn new(gate: GateSimulator, policy: RoutingPolicy, slo: Option<SloPolicy>) -> Self {
        Self {
            gate,
            policy,
            slo,
            replicas: Vec::new(),
            rr_next: 0,
            routing: RoutingStats::default(),
            faults: ReplicaFaultSchedule::none(),
            failover_cfg: FailoverConfig::default(),
            transitions: Vec::new(),
            transition_cursor: 0,
            failover: FailoverStats::default(),
            failover_shed: Vec::new(),
            lifecycle: Vec::new(),
            dispatched: 0,
        }
    }

    /// Builds `engine` and registers it (with its predictor) as the next
    /// replica. Returns the new replica's id. Install a recording
    /// `TraceSink` on the builder to have the replica contribute to
    /// [`Cluster::take_merged_trace`].
    pub fn add_replica(
        &mut self,
        engine: EngineBuilder,
        predictor: Box<dyn ExpertPredictor>,
    ) -> usize {
        self.replicas.push(Replica {
            engine: engine.build(),
            predictor,
            finish_times: Vec::new(),
            drained: 0,
            results: Vec::new(),
            events: Vec::new(),
            shed: Vec::new(),
            max_queue_depth: 0,
            depth_sum: 0,
            arrivals: 0,
            carried_cache: fmoe_cache::CacheStats::default(),
            available_at: 0,
        });
        self.replicas.len() - 1
    }

    /// Number of replicas.
    #[must_use]
    pub fn num_replicas(&self) -> usize {
        self.replicas.len()
    }

    /// The routing policy in force.
    #[must_use]
    pub fn policy(&self) -> RoutingPolicy {
        self.policy
    }

    /// Read access to a replica's engine (diagnostics).
    #[must_use]
    pub fn replica_engine(&self, replica: usize) -> Option<&ServingEngine> {
        self.replicas.get(replica).map(|r| &r.engine)
    }

    /// Installs a replica-level fault schedule and failover policy.
    /// Call before the first [`Cluster::dispatch`]: transitions are
    /// derived once here and consumed in arrival order. Installing
    /// [`ReplicaFaultSchedule::none`] (or never calling this) keeps
    /// every output byte-identical to a schedule-free run.
    pub fn set_replica_fault_schedule(
        &mut self,
        schedule: ReplicaFaultSchedule,
        config: FailoverConfig,
    ) {
        self.transitions = schedule.transitions();
        self.transition_cursor = 0;
        self.faults = schedule;
        self.failover_cfg = config;
    }

    /// Routes and serves every trace event, returning the aggregated
    /// report. Events must be sorted by arrival time. Dispatching on an
    /// empty cluster serves nothing and returns an empty report. State
    /// (caches, stores, queues) persists across calls, so consecutive
    /// dispatches model one continuous workload; the report covers
    /// everything routed so far.
    ///
    /// Under a replica fault schedule, lifecycle transitions are
    /// processed lazily as arrivals pass them: a crash reconciles the
    /// replica's unfinished work (re-dispatched to healthy peers up to
    /// [`FailoverConfig::max_redispatches`] times, then shed), routing
    /// excludes down replicas and penalizes browned-out ones, and a
    /// closing crash window restarts the replica per the configured
    /// [`WarmupMode`]. Transitions after the last arrival never fire.
    pub fn dispatch(&mut self, trace: &[TraceEvent]) -> ClusterReport {
        if self.replicas.is_empty() {
            return self.report();
        }
        for event in trace {
            let t = event.arrival_ns;
            self.dispatched += 1;
            self.process_transitions_through(t);

            let (effective, healthy) = self.survey(t);
            if !healthy.iter().any(|&h| h) {
                // Full outage: nothing can take the request.
                self.failover.no_healthy_shed += 1;
                self.failover_shed.push(ShedRequest {
                    request_id: event.prompt.id,
                    arrival_ns: t,
                    queued_ns: 0,
                });
                continue;
            }
            let Some(chosen) = self.route(event, &effective, &healthy) else {
                // Unreachable with a healthy replica present, but kept
                // total: treat as a full-outage shed.
                self.failover.no_healthy_shed += 1;
                self.failover_shed.push(ShedRequest {
                    request_id: event.prompt.id,
                    arrival_ns: t,
                    queued_ns: 0,
                });
                continue;
            };
            self.serve_on(chosen, event, 0, t);
        }
        self.report()
    }

    /// Per-replica effective queue depths and health at instant `t`.
    ///
    /// Effective depth is `slowdown × (depth + 1) − 1`: exactly the
    /// integer depth for a healthy replica (`slowdown = 1`), strictly
    /// larger under brownout — including at depth 0, so an idle healthy
    /// replica always beats an idle browned-out one. A replica is
    /// healthy when it is neither crashed nor draining at `t` and has
    /// finished any restart warmup.
    fn survey(&mut self, t: Nanos) -> (Vec<f64>, Vec<bool>) {
        let n = self.replicas.len();
        let mut effective = Vec::with_capacity(n);
        let mut healthy = Vec::with_capacity(n);
        for (i, replica) in self.replicas.iter_mut().enumerate() {
            let depth = replica.queue_depth(t) as f64;
            let slowdown = self.faults.slowdown(i as u32, t);
            effective.push(slowdown * (depth + 1.0) - 1.0);
            healthy.push(!self.faults.is_down(i as u32, t) && t >= replica.available_at);
        }
        (effective, healthy)
    }

    /// Picks the replica for `event` among healthy replicas given
    /// effective queue depths. `None` only when no replica is healthy.
    fn route(&mut self, event: &TraceEvent, effective: &[f64], healthy: &[bool]) -> Option<usize> {
        match self.policy {
            RoutingPolicy::RoundRobin => {
                let n = self.replicas.len();
                for k in 0..n {
                    let cand = (self.rr_next + k) % n;
                    if healthy[cand] {
                        self.rr_next = cand + 1;
                        return Some(cand);
                    }
                }
                None
            }
            RoutingPolicy::JoinShortestQueue => shortest_effective_queue(effective, healthy),
            RoutingPolicy::SemanticAffinity(cfg) => {
                let embedding = self.gate.semantic_embedding(event.prompt.routing, 0);
                // Highest affinity among healthy replicas wins;
                // `total_cmp` keeps NaN-free ordering deterministic and
                // strict `>` breaks ties toward the lowest replica id.
                let mut best: Option<(usize, f64)> = None;
                for (i, replica) in self.replicas.iter().enumerate() {
                    if !healthy[i] {
                        continue;
                    }
                    if let Some(score) = replica.predictor.semantic_affinity(&embedding) {
                        let better = match best {
                            None => true,
                            Some((_, incumbent)) => {
                                score.total_cmp(&incumbent) == std::cmp::Ordering::Greater
                            }
                        };
                        if better {
                            best = Some((i, score));
                        }
                    }
                }
                let Some((preferred, _)) = best else {
                    // No healthy replica has semantic history yet:
                    // place by load.
                    self.routing.cold_fallbacks += 1;
                    return shortest_effective_queue(effective, healthy);
                };
                let healthy_count = healthy.iter().filter(|&&h| h).count();
                let mean = healthy
                    .iter()
                    .zip(effective)
                    .filter(|(&h, _)| h)
                    .map(|(_, &d)| d)
                    .sum::<f64>()
                    / healthy_count as f64;
                if effective[preferred] > cfg.imbalance_factor * mean {
                    self.routing.jsq_fallbacks += 1;
                    shortest_effective_queue(effective, healthy)
                } else {
                    self.routing.affinity_routed += 1;
                    Some(preferred)
                }
            }
        }
    }

    /// Serves `event` on replica `chosen`, recording queue-depth
    /// bookkeeping at instant `depth_at` (the arrival for fresh
    /// requests, the crash instant for failovers). `redispatches` is how
    /// many times this request has already been failed over.
    fn serve_on(&mut self, chosen: usize, event: &TraceEvent, redispatches: u32, depth_at: Nanos) {
        let slo = self.slo;
        let replica = &mut self.replicas[chosen];
        let observed = replica.queue_depth(depth_at);
        replica.arrivals += 1;
        match serve_event_fcfs(&mut replica.engine, event, replica.predictor.as_mut(), slo) {
            FcfsOutcome::Served(result) => {
                // The request joins the queue: count it in the depth.
                let depth_here = observed + 1;
                replica.max_queue_depth = replica.max_queue_depth.max(depth_here);
                replica.depth_sum += depth_here as u64;
                replica.finish_times.push(result.finish_ns);
                replica.results.push(result);
                replica.events.push((*event, redispatches));
            }
            FcfsOutcome::Shed(request) => {
                // A shed request never occupies the queue: record the
                // depth it observed without counting itself, so JSQ
                // statistics do not over-count shed-heavy replicas.
                replica.max_queue_depth = replica.max_queue_depth.max(observed);
                replica.depth_sum += observed as u64;
                replica.shed.push(request);
            }
        }
    }

    /// Fires every lifecycle transition at or before `t`, in order.
    fn process_transitions_through(&mut self, t: Nanos) {
        while self.transition_cursor < self.transitions.len()
            && self.transitions[self.transition_cursor].at <= t
        {
            let tr = self.transitions[self.transition_cursor];
            self.transition_cursor += 1;
            let replica = tr.replica as usize;
            if replica >= self.replicas.len() {
                // The schedule names a replica this cluster doesn't
                // have; ignore (schedules are reusable across sizes).
                continue;
            }
            match tr.kind {
                TransitionKind::CrashStart => self.on_crash(replica, tr.at),
                TransitionKind::Recovery => self.on_recovery(replica, tr.at),
                TransitionKind::DrainStart => {
                    self.failover.drains += 1;
                    self.push_lifecycle(tr.at, replica, Marker::ReplicaDrain, NO_REQUEST, 1);
                }
                TransitionKind::DrainEnd => {
                    self.push_lifecycle(tr.at, replica, Marker::ReplicaDrain, NO_REQUEST, 0);
                }
            }
        }
    }

    /// A replica crashed at `c`: everything it had not finished by then
    /// is invalidated and failed over. Under FCFS finish times are
    /// monotone, so the invalidated results form a suffix.
    fn on_crash(&mut self, idx: usize, c: Nanos) {
        self.failover.crashes += 1;
        let replica = &mut self.replicas[idx];
        let cut = replica.finish_times.partition_point(|&f| f <= c);
        let invalidated = replica.events.split_off(cut);
        replica.finish_times.truncate(cut);
        replica.results.truncate(cut);
        replica.drained = replica.drained.min(cut);
        self.push_lifecycle(
            c,
            idx,
            Marker::ReplicaCrash,
            NO_REQUEST,
            invalidated.len() as u64,
        );
        for (event, redispatches) in invalidated {
            self.redispatch(&event, redispatches + 1, c);
        }
    }

    /// Re-routes one crash-invalidated request at instant `c`. The
    /// original arrival time rides along, so the surviving replica's SLO
    /// policy sees the full queueing delay the request has accumulated.
    fn redispatch(&mut self, event: &TraceEvent, attempts: u32, c: Nanos) {
        if attempts > self.failover_cfg.max_redispatches {
            self.failover.failover_shed += 1;
            self.failover_shed.push(ShedRequest {
                request_id: event.prompt.id,
                arrival_ns: event.arrival_ns,
                queued_ns: c.saturating_sub(event.arrival_ns),
            });
            return;
        }
        let (effective, healthy) = self.survey(c);
        let Some(target) = shortest_effective_queue(&effective, &healthy) else {
            self.failover.no_healthy_shed += 1;
            self.failover_shed.push(ShedRequest {
                request_id: event.prompt.id,
                arrival_ns: event.arrival_ns,
                queued_ns: c.saturating_sub(event.arrival_ns),
            });
            return;
        };
        self.failover.failed_over += 1;
        self.push_lifecycle(
            c,
            target,
            Marker::Failover,
            event.prompt.id,
            u64::from(attempts),
        );
        self.serve_on(target, event, attempts, c);
    }

    /// A crash window closed at `at`: restart the replica per the
    /// configured [`WarmupMode`].
    fn on_recovery(&mut self, idx: usize, at: Nanos) {
        self.failover.recoveries += 1;
        let pre_crash = self.replicas[idx].engine.restart_at(at);
        self.replicas[idx].carried_cache = self.replicas[idx].carried_cache.merged(&pre_crash);

        let donor = match self.failover_cfg.warmup {
            WarmupMode::Cold => None,
            WarmupMode::DonorWarmed => self.pick_donor(idx, at),
        };
        let Some(donor) = donor else {
            // Cold restart (or no healthy donor exists): empty cache,
            // reset predictor, available immediately.
            self.replicas[idx].predictor.reset();
            self.replicas[idx].available_at = at;
            self.push_lifecycle(at, idx, Marker::ReplicaRestart, NO_REQUEST, 0);
            return;
        };
        let snapshot = self.replicas[donor].predictor.warm_state();
        let residents = self.replicas[donor].engine.resident_experts();
        let extra_bytes = snapshot.as_ref().map_or(0, Vec::len) as u64;
        let restored = match &snapshot {
            Some(s) => self.replicas[idx].predictor.restore_warm_state(s),
            None => false,
        };
        if !restored {
            self.replicas[idx].predictor.reset();
        }
        let replica = &mut self.replicas[idx];
        let done = replica.engine.warm_seed(&residents, extra_bytes, at);
        // The engine's transfer fabric is fresh post-restart, so its
        // warmup counters cover exactly this seeding.
        let bytes = replica.engine.transfer_stats().warmup_bytes;
        replica.available_at = done;
        self.failover.warmup_transfers += 1;
        self.failover.warmup_bytes += bytes;
        self.failover.warmup_ns += done - at;
        self.push_lifecycle(at, idx, Marker::ReplicaRestart, NO_REQUEST, done - at);
        self.push_lifecycle(done, idx, Marker::CacheWarmup, NO_REQUEST, bytes);
    }

    /// The healthiest peer to seed a restart from: the healthy replica
    /// (other than `idx`) with the highest lifetime cache hit rate; ties
    /// go to the lowest replica id. `None` when every peer is down.
    fn pick_donor(&mut self, idx: usize, at: Nanos) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for i in 0..self.replicas.len() {
            if i == idx || self.faults.is_down(i as u32, at) || at < self.replicas[i].available_at {
                continue;
            }
            let rate = self.replicas[i].lifetime_cache().hit_rate();
            let better = match best {
                None => true,
                Some((_, incumbent)) => rate.total_cmp(&incumbent) == std::cmp::Ordering::Greater,
            };
            if better {
                best = Some((i, rate));
            }
        }
        best.map(|(i, _)| i)
    }

    /// Records one lifecycle marker in the cluster's own trace stream.
    fn push_lifecycle(
        &mut self,
        at: Nanos,
        replica: usize,
        marker: Marker,
        request: u64,
        value: u64,
    ) {
        self.lifecycle.push(ClusterTraceRecord {
            replica,
            record: TraceRecord {
                at_ns: at,
                event: fmoe_trace::TraceEvent::Instant {
                    marker,
                    request,
                    layer: NO_LAYER,
                    slot: NO_SLOT,
                    gpu: NO_GPU,
                    value,
                },
            },
        });
    }

    /// Builds the cumulative report.
    fn report(&self) -> ClusterReport {
        let replicas: Vec<ReplicaReport> = self
            .replicas
            .iter()
            .enumerate()
            .map(|(id, replica)| ReplicaReport {
                replica: id,
                results: replica.results.clone(),
                shed: replica.shed.clone(),
                degraded_serves: replica
                    .results
                    .iter()
                    .filter(|r| r.metrics.served_degraded)
                    .count() as u64,
                cache: replica.lifetime_cache(),
                max_queue_depth: replica.max_queue_depth,
                mean_queue_depth: if replica.arrivals == 0 {
                    0.0
                } else {
                    replica.depth_sum as f64 / replica.arrivals as f64
                },
                per_gpu: replica.engine.per_gpu_breakdown().clone(),
            })
            .collect();
        let mut failover = self.failover;
        failover.failover_completed = self
            .replicas
            .iter()
            .flat_map(|r| r.events.iter())
            .filter(|(_, redispatches)| *redispatches > 0)
            .count() as u64;
        ClusterReport {
            replicas,
            routing: self.routing,
            failover,
            failover_shed: self.failover_shed.clone(),
            dispatched: self.dispatched,
        }
    }

    /// Drains every replica's trace sink, joins the cluster's own
    /// lifecycle markers, and merges everything into one timeline:
    /// ordered by `(at_ns, replica id)`, with each replica's per-stream
    /// order preserved among equal keys (engine records before lifecycle
    /// markers at the same instant). Replicas whose sink is disabled
    /// (the default) contribute only lifecycle markers; with an inert
    /// fault schedule there are none, so the merge is byte-identical to
    /// a schedule-free run.
    pub fn take_merged_trace(&mut self) -> Vec<ClusterTraceRecord> {
        let mut merged: Vec<ClusterTraceRecord> = Vec::new();
        for (replica, r) in self.replicas.iter_mut().enumerate() {
            merged.extend(
                r.engine
                    .trace_sink()
                    .take_records()
                    .into_iter()
                    .map(|record| ClusterTraceRecord { replica, record }),
            );
        }
        merged.append(&mut self.lifecycle);
        // Stable by construction: each source stream is time-monotone
        // and concatenated in replica order, so a stable sort yields
        // (at_ns, replica) order with per-stream order intact.
        merged.sort_by_key(|r| (r.record.at_ns, r.replica));
        merged
    }
}
