//! Trace-driven online serving (paper §6.3, Figure 10).
//!
//! Requests arrive on a trace's schedule and are served by one engine
//! under a [`Scheduler`] discipline — one-at-a-time FCFS or continuous
//! batching — behind the single entry point [`serve`]. The reported
//! *request latency* is end-to-end: queueing (waiting for earlier
//! requests) plus serving time — the quantity whose CDF the paper plots.
//! Caches and policy state stay warm across requests, and for fMoE the
//! Expert Map Store starts empty and fills online, exactly as in the
//! paper's setup.
//!
//! [`serve`] is the sole entry point; the scheduling discipline and SLO
//! policy ride in [`ServeOptions`].

use crate::engine::{ServeError, ServingEngine};
use crate::metrics::RequestMetrics;
use crate::predictor::ExpertPredictor;
use fmoe_memsim::Nanos;
use fmoe_trace::{Marker, Phase, NO_GPU, NO_LAYER, NO_SLOT};
use fmoe_workload::TraceEvent;
use serde::Serialize;

/// What the SLO-aware scheduler does with a request whose projected
/// queueing delay already violates its latency budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum SloAction {
    /// Reject the request outright (load shedding): it is never served
    /// and is reported in [`OnlineReport::shed`].
    Shed,
    /// Serve it anyway, but in degraded mode: on-demand loads that no
    /// full-precision request in the batch needs move half-precision
    /// payloads to cut the remaining latency.
    Degrade,
}

/// SLO admission policy for [`serve`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SloPolicy {
    /// Maximum tolerable queueing delay, in nanoseconds. A request still
    /// waiting past this budget when its turn comes triggers `action`.
    pub max_queueing_ns: Nanos,
    /// What to do with violating requests.
    pub action: SloAction,
}

impl SloPolicy {
    /// Sheds requests whose queueing delay exceeds `max_queueing_ns`.
    #[must_use]
    pub fn shed(max_queueing_ns: Nanos) -> Self {
        Self {
            max_queueing_ns,
            action: SloAction::Shed,
        }
    }

    /// Serves violating requests in degraded mode instead of shedding.
    #[must_use]
    pub fn degrade(max_queueing_ns: Nanos) -> Self {
        Self {
            max_queueing_ns,
            action: SloAction::Degrade,
        }
    }
}

/// Scheduling discipline for [`serve`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Scheduler {
    /// One request at a time, in arrival order. Results come back in
    /// trace order.
    Fcfs,
    /// Continuous batching: up to `max_slots` requests share each
    /// iteration, new arrivals joining at iteration boundaries
    /// (prefilling alongside others' decodes) and finished requests
    /// leaving immediately. Results come back in completion order.
    /// Requires unique request ids within the trace (generated traces
    /// comply); `max_slots` is clamped to at least 1.
    Continuous {
        /// Maximum number of requests sharing an iteration.
        max_slots: usize,
    },
}

/// Options for [`serve`]: scheduling discipline plus an optional SLO
/// admission policy.
///
/// `Default` is plain FCFS with no SLO — exactly the paper's Figure 10
/// setup.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ServeOptions {
    /// Scheduling discipline.
    pub scheduler: Scheduler,
    /// Optional SLO admission policy, applied under either scheduler.
    /// Under `Continuous` scheduling a degraded request shares iterations
    /// with full-precision ones; only the on-demand loads no
    /// full-precision request needs move half payloads.
    pub slo: Option<SloPolicy>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self::fcfs()
    }
}

impl ServeOptions {
    /// One-at-a-time FCFS, no SLO.
    #[must_use]
    pub fn fcfs() -> Self {
        Self {
            scheduler: Scheduler::Fcfs,
            slo: None,
        }
    }

    /// Continuous batching with `max_slots` concurrent requests, no SLO.
    #[must_use]
    pub fn continuous(max_slots: usize) -> Self {
        Self {
            scheduler: Scheduler::Continuous { max_slots },
            slo: None,
        }
    }

    /// Adds an SLO admission policy.
    #[must_use]
    pub fn with_slo(mut self, slo: SloPolicy) -> Self {
        self.slo = Some(slo);
        self
    }
}

/// A request rejected by the SLO policy.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct ShedRequest {
    /// The request id.
    pub request_id: u64,
    /// Arrival time from the trace.
    pub arrival_ns: Nanos,
    /// Queueing delay it had already accumulated when shed.
    pub queued_ns: Nanos,
}

/// Outcome of a trace replay: served results plus the requests the SLO
/// policy shed. `results.len() + shed.len()` always equals the trace
/// length.
#[derive(Debug, Clone, Default, Serialize)]
pub struct OnlineReport {
    /// Served requests — in trace (arrival) order under
    /// [`Scheduler::Fcfs`], in completion order under
    /// [`Scheduler::Continuous`].
    pub results: Vec<OnlineResult>,
    /// Requests rejected by the SLO policy, in trace order.
    pub shed: Vec<ShedRequest>,
    /// How many of `results` were served in degraded mode.
    pub degraded_serves: u64,
}

impl OnlineReport {
    /// Goodput: fraction of trace requests that were served (any mode).
    #[must_use]
    pub fn goodput(&self) -> f64 {
        let total = self.results.len() + self.shed.len();
        if total == 0 {
            0.0
        } else {
            self.results.len() as f64 / total as f64
        }
    }
}

/// Outcome for one trace request.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct OnlineResult {
    /// The request id.
    pub request_id: u64,
    /// Arrival time from the trace.
    pub arrival_ns: Nanos,
    /// When serving began (>= arrival under FCFS).
    pub start_ns: Nanos,
    /// When the last token was emitted.
    pub finish_ns: Nanos,
    /// Serving metrics (excludes queueing).
    pub metrics: RequestMetrics,
}

impl OnlineResult {
    /// End-to-end request latency: queueing + serving, in nanoseconds.
    #[must_use]
    pub fn request_latency_ns(&self) -> Nanos {
        self.finish_ns - self.arrival_ns
    }

    /// Queueing delay before serving started.
    #[must_use]
    pub fn queueing_ns(&self) -> Nanos {
        self.start_ns - self.arrival_ns
    }
}

/// Outcome of dispatching one trace event FCFS (see [`serve_event_fcfs`]).
#[derive(Debug, Clone)]
pub enum FcfsOutcome {
    /// The request was served.
    Served(OnlineResult),
    /// The SLO policy rejected the request.
    Shed(ShedRequest),
}

/// Applies the SLO policy to `event` at the engine's current instant and
/// admits it unless the policy sheds it. An admitted request's queueing
/// is recorded retroactively as a span ending now, so the queue wait
/// shows up on the request's own track in the exported timeline.
fn admit_or_shed(
    engine: &mut ServingEngine,
    event: &TraceEvent,
    slo: Option<SloPolicy>,
) -> Result<(), ShedRequest> {
    let now = engine.now();
    let id = event.prompt.id;
    let queued = now.saturating_sub(event.arrival_ns);
    let action = slo
        .filter(|policy| queued > policy.max_queueing_ns)
        .map(|policy| policy.action);
    let trace_sink = engine.trace_sink();
    if action == Some(SloAction::Shed) {
        trace_sink.instant(now, Marker::Shed, id, NO_LAYER, NO_SLOT, NO_GPU, queued);
        trace_sink.count("online.shed", 1);
        return Err(ShedRequest {
            request_id: id,
            arrival_ns: event.arrival_ns,
            queued_ns: queued,
        });
    }
    if queued > 0 {
        trace_sink.span(now, Phase::Queue, id, NO_LAYER, NO_GPU, queued, 0);
    }
    let degrade = action == Some(SloAction::Degrade);
    if degrade {
        trace_sink.instant(
            now,
            Marker::DegradedServe,
            id,
            NO_LAYER,
            NO_SLOT,
            NO_GPU,
            queued,
        );
        trace_sink.count("online.degraded_serves", 1);
    }
    engine.admit(event.prompt, degrade);
    Ok(())
}

/// Serves one trace event FCFS on `engine`, applying the optional SLO
/// policy when the request's turn comes.
///
/// This is the exact per-event step of [`serve`] under
/// [`Scheduler::Fcfs`], exposed so multi-engine schedulers (the
/// `fmoe-cluster` crate) can drive independent per-replica FIFO queues
/// with byte-identical semantics. Events must be fed in arrival order.
pub fn serve_event_fcfs(
    engine: &mut ServingEngine,
    event: &TraceEvent,
    predictor: &mut dyn ExpertPredictor,
    slo: Option<SloPolicy>,
) -> FcfsOutcome {
    // FCFS: the engine serves the request when both it and the request
    // are ready.
    engine.idle_until(event.arrival_ns);
    let start = engine.now();
    if let Err(shed) = admit_or_shed(engine, event, slo) {
        return FcfsOutcome::Shed(shed);
    }
    let metrics = engine.drain(predictor).pop().unwrap_or_default();
    let finish = engine.now();
    engine
        .trace_sink()
        .observe("online.request_latency_ns", finish - event.arrival_ns);
    FcfsOutcome::Served(OnlineResult {
        request_id: event.prompt.id,
        arrival_ns: event.arrival_ns,
        start_ns: start,
        finish_ns: finish,
        metrics,
    })
}

/// Replays a trace through an engine under `options` — the single online
/// serving entry point.
///
/// Events must be sorted by arrival time (as produced by
/// `fmoe_workload::AzureTraceSpec::generate`). With
/// [`Scheduler::Fcfs`] requests are served one at a time in arrival
/// order; with [`Scheduler::Continuous`] up to `max_slots` requests share
/// each iteration. An optional [`SloPolicy`] sheds or degrades requests
/// whose queueing delay blows the budget when their turn comes, under
/// either scheduler.
///
/// # Errors
///
/// [`ServeError::UnknownRequest`] — the engine reported a finished
/// request that was never admitted (an engine bookkeeping invariant;
/// surfaced as a typed error rather than a panic).
pub fn serve(
    engine: &mut ServingEngine,
    trace: &[TraceEvent],
    predictor: &mut dyn ExpertPredictor,
    options: &ServeOptions,
) -> Result<OnlineReport, ServeError> {
    let (results, shed) = match options.scheduler {
        Scheduler::Fcfs => serve_fcfs(engine, trace, predictor, options.slo),
        Scheduler::Continuous { max_slots } => {
            serve_continuous(engine, trace, predictor, max_slots, options.slo)?
        }
    };
    let degraded_serves = results.iter().filter(|r| r.metrics.served_degraded).count() as u64;
    Ok(OnlineReport {
        results,
        shed,
        degraded_serves,
    })
}

/// FCFS replay: [`serve_event_fcfs`] over the trace, in order.
fn serve_fcfs(
    engine: &mut ServingEngine,
    trace: &[TraceEvent],
    predictor: &mut dyn ExpertPredictor,
    slo: Option<SloPolicy>,
) -> (Vec<OnlineResult>, Vec<ShedRequest>) {
    let mut results = Vec::with_capacity(trace.len());
    let mut shed = Vec::new();
    for event in trace {
        match serve_event_fcfs(engine, event, predictor, slo) {
            FcfsOutcome::Served(result) => results.push(result),
            FcfsOutcome::Shed(request) => shed.push(request),
        }
    }
    (results, shed)
}

/// Continuous-batching replay: admit while slots are free, step the
/// shared batch, collect finishes. An SLO policy sheds or degrades
/// requests whose queueing delay has blown the budget by the time a slot
/// frees up for them.
fn serve_continuous(
    engine: &mut ServingEngine,
    trace: &[TraceEvent],
    predictor: &mut dyn ExpertPredictor,
    max_slots: usize,
    slo: Option<SloPolicy>,
) -> Result<(Vec<OnlineResult>, Vec<ShedRequest>), ServeError> {
    let max_slots = max_slots.max(1);
    let mut results = Vec::with_capacity(trace.len());
    let mut shed = Vec::new();
    let mut next_arrival = 0usize;
    // request id -> (arrival_ns, admission time).
    let mut admissions: std::collections::BTreeMap<u64, (Nanos, Nanos)> =
        std::collections::BTreeMap::new();
    while next_arrival < trace.len() || engine.active_requests() > 0 {
        // Admit everything that has arrived while slots are free.
        while next_arrival < trace.len()
            && engine.active_requests() < max_slots
            && trace[next_arrival].arrival_ns <= engine.now()
        {
            let event = &trace[next_arrival];
            match admit_or_shed(engine, event, slo) {
                Ok(()) => {
                    admissions.insert(event.prompt.id, (event.arrival_ns, engine.now()));
                }
                Err(request) => shed.push(request),
            }
            next_arrival += 1;
        }
        if engine.active_requests() == 0 {
            if next_arrival >= trace.len() {
                break;
            }
            // Idle: jump to the next arrival.
            let arrival = trace[next_arrival].arrival_ns;
            engine.idle_until(arrival);
            continue;
        }
        for metrics in engine.step(predictor) {
            let (arrival_ns, start_ns) =
                admissions
                    .remove(&metrics.request_id)
                    .ok_or(ServeError::UnknownRequest {
                        request_id: metrics.request_id,
                    })?;
            engine
                .trace_sink()
                .observe("online.request_latency_ns", engine.now() - arrival_ns);
            results.push(OnlineResult {
                request_id: metrics.request_id,
                arrival_ns,
                start_ns,
                finish_ns: engine.now(),
                metrics,
            });
        }
    }
    Ok((results, shed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::predictor::NoPrefetch;
    use fmoe_cache::LruPolicy;
    use fmoe_memsim::Topology;
    use fmoe_model::{presets, GateParams, GateSimulator, GpuSpec};
    use fmoe_workload::{AzureTraceSpec, DatasetSpec};

    fn engine() -> ServingEngine {
        let cfg = presets::tiny_test_model();
        let gate = GateSimulator::new(cfg.clone(), GateParams::for_model(&cfg));
        let config = EngineConfig {
            cache_budget_bytes: cfg.expert_bytes() * 8,
            preload_all: false,
            max_decode_iterations: Some(4),
            context_collection_ns: 1000,
            framework_overhead_per_layer_ns: 10_000,
            ..EngineConfig::paper_default()
        };
        ServingEngine::new(
            gate,
            GpuSpec::rtx_3090(),
            Topology::single_gpu(8 << 30),
            Box::new(LruPolicy::new()),
            config,
        )
    }

    fn trace(n: u64) -> Vec<TraceEvent> {
        let mut spec = AzureTraceSpec::paper_online_serving(DatasetSpec::tiny_test());
        spec.num_requests = n;
        spec.generate()
    }

    fn serve_fcfs_results(e: &mut ServingEngine, t: &[TraceEvent]) -> Vec<OnlineResult> {
        serve(e, t, &mut NoPrefetch, &ServeOptions::fcfs())
            .expect("fcfs serving is infallible")
            .results
    }

    #[test]
    fn fcfs_never_starts_before_arrival() {
        let mut e = engine();
        let t = trace(8);
        let results = serve_fcfs_results(&mut e, &t);
        assert_eq!(results.len(), 8);
        for r in &results {
            assert!(r.start_ns >= r.arrival_ns);
            assert!(r.finish_ns > r.start_ns);
            assert_eq!(
                r.request_latency_ns(),
                r.queueing_ns() + (r.finish_ns - r.start_ns)
            );
        }
    }

    #[test]
    fn back_to_back_requests_queue() {
        let mut e = engine();
        // Two requests arriving at the same instant: the second must wait
        // for the first.
        let mut t = trace(2);
        t[1].arrival_ns = t[0].arrival_ns;
        let results = serve_fcfs_results(&mut e, &t);
        assert_eq!(results[0].queueing_ns(), 0);
        assert!(results[1].queueing_ns() > 0);
        assert_eq!(results[1].start_ns, results[0].finish_ns);
    }

    #[test]
    fn served_in_trace_order() {
        let mut e = engine();
        let t = trace(6);
        let results = serve_fcfs_results(&mut e, &t);
        for w in results.windows(2) {
            assert!(w[0].finish_ns <= w[1].start_ns);
        }
    }

    #[test]
    fn empty_trace_yields_no_results() {
        let mut e = engine();
        assert!(serve_fcfs_results(&mut e, &[]).is_empty());
        let mut e2 = engine();
        let report = serve(&mut e2, &[], &mut NoPrefetch, &ServeOptions::continuous(4))
            .expect("empty trace serves");
        assert!(report.results.is_empty());
        assert!(report.shed.is_empty());
    }

    #[test]
    fn continuous_batching_serves_every_request_once() {
        let mut e = engine();
        let t = trace(10);
        let report = serve(&mut e, &t, &mut NoPrefetch, &ServeOptions::continuous(3))
            .expect("continuous serving succeeds");
        let results = report.results;
        assert_eq!(results.len(), 10);
        let mut ids: Vec<u64> = results.iter().map(|r| r.request_id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 10, "each request finishes exactly once");
        for r in &results {
            assert!(r.start_ns >= r.arrival_ns);
            assert!(r.finish_ns > r.start_ns);
        }
        assert_eq!(e.active_requests(), 0);
    }

    #[test]
    fn continuous_batching_overlaps_requests() {
        // Two requests arriving together with 2 slots must overlap: the
        // second finishes earlier than it would under FCFS.
        let mut t = trace(2);
        t[1].arrival_ns = t[0].arrival_ns;

        let mut fcfs_engine = engine();
        let fcfs = serve_fcfs_results(&mut fcfs_engine, &t);
        let mut cb_engine = engine();
        let cb = serve(
            &mut cb_engine,
            &t,
            &mut NoPrefetch,
            &ServeOptions::continuous(2),
        )
        .expect("continuous serving succeeds")
        .results;

        let fcfs_last = fcfs.iter().map(|r| r.finish_ns).max().unwrap();
        let cb_last = cb.iter().map(|r| r.finish_ns).max().unwrap();
        assert!(
            cb_last < fcfs_last,
            "continuous batching last-finish {cb_last} should beat FCFS {fcfs_last}"
        );
        // And nobody starts before arriving.
        for r in &cb {
            assert!(r.start_ns >= r.arrival_ns);
        }
    }

    #[test]
    fn continuous_batching_respects_slot_limit() {
        let mut t = trace(6);
        for e in &mut t {
            e.arrival_ns = 0;
        }
        let mut e = engine();
        // With a single slot, continuous batching degenerates to FCFS
        // semantics: total completion matches the sequential scheduler.
        let cb = serve(&mut e, &t, &mut NoPrefetch, &ServeOptions::continuous(1))
            .expect("continuous serving succeeds")
            .results;
        assert_eq!(cb.len(), 6);
        let mut finishes: Vec<_> = cb.iter().map(|r| r.finish_ns).collect();
        finishes.sort_unstable();
        finishes.dedup();
        assert_eq!(finishes.len(), 6, "one at a time, distinct finishes");
    }

    #[test]
    fn slo_none_matches_plain_fcfs() {
        let t = trace(6);
        let mut e1 = engine();
        let plain = serve_fcfs_results(&mut e1, &t);
        let mut e2 = engine();
        let report = serve(&mut e2, &t, &mut NoPrefetch, &ServeOptions::fcfs())
            .expect("fcfs serving is infallible");
        assert!(report.shed.is_empty());
        assert_eq!(report.degraded_serves, 0);
        assert_eq!(plain.len(), report.results.len());
        for (a, b) in plain.iter().zip(&report.results) {
            assert_eq!(a.request_id, b.request_id);
            assert_eq!(a.finish_ns, b.finish_ns);
            assert_eq!(a.metrics, b.metrics);
        }
    }

    #[test]
    fn slo_shed_drops_late_requests_and_accounts_for_all() {
        // All requests arrive at t=0: everyone after the first queues
        // behind it, so a zero queueing budget sheds the rest.
        let mut t = trace(5);
        for ev in &mut t {
            ev.arrival_ns = 0;
        }
        let mut e = engine();
        let report = serve(
            &mut e,
            &t,
            &mut NoPrefetch,
            &ServeOptions::fcfs().with_slo(SloPolicy::shed(0)),
        )
        .expect("fcfs serving is infallible");
        assert_eq!(report.results.len() + report.shed.len(), 5);
        assert_eq!(report.results.len(), 1, "only the head avoids queueing");
        assert_eq!(report.shed.len(), 4);
        for s in &report.shed {
            assert!(s.queued_ns > 0);
        }
        assert!((report.goodput() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn slo_degrade_serves_everyone_flagged() {
        let mut t = trace(4);
        for ev in &mut t {
            ev.arrival_ns = 0;
        }
        let mut e = engine();
        let report = serve(
            &mut e,
            &t,
            &mut NoPrefetch,
            &ServeOptions::fcfs().with_slo(SloPolicy::degrade(0)),
        )
        .expect("fcfs serving is infallible");
        assert_eq!(report.results.len(), 4, "degrade mode sheds nothing");
        assert!(report.shed.is_empty());
        assert_eq!(report.degraded_serves, 3, "head request is within SLO");
        let flagged = report
            .results
            .iter()
            .filter(|r| r.metrics.served_degraded)
            .count();
        assert_eq!(flagged as u64, report.degraded_serves);
        assert!((report.goodput() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn generous_slo_sheds_nothing() {
        let t = trace(6);
        let mut e = engine();
        let report = serve(
            &mut e,
            &t,
            &mut NoPrefetch,
            &ServeOptions::fcfs().with_slo(SloPolicy::shed(u64::MAX / 2)),
        )
        .expect("fcfs serving is infallible");
        assert_eq!(report.results.len(), 6);
        assert!(report.shed.is_empty());
    }

    #[test]
    fn continuous_slo_shed_accounts_for_all() {
        // Everyone arrives at t=0 with a single slot and zero queueing
        // budget: the head request is admitted immediately, everyone
        // queued behind it is shed when a slot finally frees.
        let mut t = trace(5);
        for ev in &mut t {
            ev.arrival_ns = 0;
        }
        let mut e = engine();
        let report = serve(
            &mut e,
            &t,
            &mut NoPrefetch,
            &ServeOptions::continuous(1).with_slo(SloPolicy::shed(0)),
        )
        .expect("continuous serving succeeds");
        assert_eq!(report.results.len() + report.shed.len(), 5);
        assert_eq!(report.results.len(), 1, "only the head avoids queueing");
        for s in &report.shed {
            assert!(s.queued_ns > 0);
        }
        assert_eq!(e.active_requests(), 0);
    }

    #[test]
    fn continuous_generous_slo_matches_no_slo() {
        let t = trace(6);
        let mut e1 = engine();
        let plain = serve(&mut e1, &t, &mut NoPrefetch, &ServeOptions::continuous(3))
            .expect("continuous serving succeeds");
        let mut e2 = engine();
        let slo = serve(
            &mut e2,
            &t,
            &mut NoPrefetch,
            &ServeOptions::continuous(3).with_slo(SloPolicy::shed(u64::MAX / 2)),
        )
        .expect("continuous serving succeeds");
        assert!(slo.shed.is_empty());
        assert_eq!(format!("{plain:?}"), format!("{slo:?}"));
    }

    #[test]
    fn continuous_degrade_serves_over_budget_requests_flagged() {
        // Everyone arrives at t=0 with two slots and a zero queueing
        // budget: the two head requests run at full precision, everyone
        // queued behind them is admitted degraded as slots free up.
        let mut t = trace(6);
        for ev in &mut t {
            ev.arrival_ns = 0;
        }
        let mut e = engine();
        let sink = fmoe_trace::TraceSink::recording(1 << 16);
        e.set_trace_sink(sink.clone());
        let report = serve(
            &mut e,
            &t,
            &mut NoPrefetch,
            &ServeOptions::continuous(2).with_slo(SloPolicy::degrade(0)),
        )
        .expect("continuous + degrade serves");
        assert_eq!(report.results.len() + report.shed.len(), t.len());
        assert!(report.shed.is_empty(), "degrade mode sheds nothing");
        let flagged = report
            .results
            .iter()
            .filter(|r| r.metrics.served_degraded)
            .count() as u64;
        assert_eq!(flagged, 4, "only the two head requests avoid queueing");
        assert_eq!(flagged, report.degraded_serves);
        assert_eq!(
            sink.metrics_snapshot().counter("online.degraded_serves"),
            report.degraded_serves
        );
        assert_eq!(e.active_requests(), 0);
    }

    #[test]
    fn serve_options_spellings_are_equivalent() {
        // The spellings the removed `serve_trace*` wrappers used to
        // expand to must keep producing identical reports through the
        // unified `serve` entry point.
        let t = trace(6);

        // `ServeOptions::fcfs()` is the default options value.
        let mut e1 = engine();
        let default_opts = serve(&mut e1, &t, &mut NoPrefetch, &ServeOptions::default())
            .expect("fcfs serving is infallible");
        let mut e2 = engine();
        let fcfs = serve(&mut e2, &t, &mut NoPrefetch, &ServeOptions::fcfs())
            .expect("fcfs serving is infallible");
        assert_eq!(format!("{default_opts:?}"), format!("{fcfs:?}"));

        // Structurally-built options match the fluent constructor.
        let mut e3 = engine();
        let structural = serve(
            &mut e3,
            &t,
            &mut NoPrefetch,
            &ServeOptions {
                scheduler: Scheduler::Fcfs,
                slo: Some(SloPolicy::shed(0)),
            },
        )
        .expect("fcfs serving is infallible");
        let mut e4 = engine();
        let fluent = serve(
            &mut e4,
            &t,
            &mut NoPrefetch,
            &ServeOptions::fcfs().with_slo(SloPolicy::shed(0)),
        )
        .expect("fcfs serving is infallible");
        assert_eq!(format!("{structural:?}"), format!("{fluent:?}"));

        // `max_slots` clamps to at least one slot: zero and one behave
        // identically.
        let mut e5 = engine();
        let zero_slots = serve(&mut e5, &t, &mut NoPrefetch, &ServeOptions::continuous(0))
            .expect("continuous serving succeeds");
        let mut e6 = engine();
        let one_slot = serve(&mut e6, &t, &mut NoPrefetch, &ServeOptions::continuous(1))
            .expect("continuous serving succeeds");
        assert_eq!(format!("{zero_slots:?}"), format!("{one_slot:?}"));
    }

    #[test]
    fn trace_sink_does_not_perturb_serving_and_captures_phases() {
        let t = trace(4);
        let mut plain = engine();
        let base = serve_fcfs_results(&mut plain, &t);
        let mut traced = engine();
        traced.set_trace_sink(fmoe_trace::TraceSink::recording(1 << 16));
        let got = serve_fcfs_results(&mut traced, &t);
        assert_eq!(base.len(), got.len());
        for (a, b) in base.iter().zip(&got) {
            assert_eq!(a.request_id, b.request_id);
            assert_eq!(a.start_ns, b.start_ns);
            assert_eq!(a.finish_ns, b.finish_ns);
            assert_eq!(a.metrics, b.metrics);
        }
        let records = traced.trace_sink().take_records();
        assert!(!records.is_empty(), "tracing captured the run");
        let totals = fmoe_trace::phase_totals(&records);
        assert!(totals.contains_key("iteration"));
        assert!(totals.contains_key("gate"));
        assert!(totals.contains_key("compute"));
        assert!(totals.contains_key("context_collect"));
        let snap = traced.trace_sink().metrics_snapshot();
        assert!(snap.counter("engine.iterations") > 0);
        assert_eq!(snap.counter("engine.requests_finished"), 4);
        assert_eq!(
            snap.histogram("online.request_latency_ns")
                .map(|h| h.count()),
            Some(4)
        );
    }

    #[test]
    fn admit_and_step_directly() {
        let mut e = engine();
        assert_eq!(e.active_requests(), 0);
        assert!(e.step(&mut NoPrefetch).is_empty());
        let t = trace(2);
        let s0 = e.admit(t[0].prompt, false);
        let s1 = e.admit(t[1].prompt, false);
        assert_ne!(s0, s1);
        assert_eq!(e.active_requests(), 2);
        let mut guard = 0;
        while e.active_requests() > 0 {
            let _ = e.step(&mut NoPrefetch);
            guard += 1;
            assert!(guard < 100, "requests must terminate");
        }
        // Freed slots are reused.
        let s2 = e.admit(t[0].prompt, false);
        assert!(s2 == s0 || s2 == s1);
    }
}
