//! Determinism contract (DESIGN.md §10): identical inputs must yield
//! byte-identical results, run to run, within one process and across
//! processes.
//!
//! These tests run each serving path twice from identically-constructed
//! state and compare the *rendered* results byte for byte. `Debug`
//! rendering covers every field — timing, metrics, shed lists — so any
//! nondeterminism (hash-order iteration, unseeded randomness, wall-clock
//! leakage) shows up as a string mismatch, not a flaky tolerance.

use fmoe::{FmoeConfig, FmoePredictor};
use fmoe_cache::FmoePriorityPolicy;
use fmoe_memsim::{FaultSchedule, Topology};
use fmoe_model::{presets, GateParams, GateSimulator, GpuSpec};
use fmoe_serving::{serve, EngineConfig, ServeOptions, ServingEngine, SloAction, SloPolicy};
use fmoe_workload::{AzureTraceSpec, DatasetSpec, TraceEvent};

fn engine() -> ServingEngine {
    let m = presets::small_test_model();
    let gate = GateSimulator::new(m.clone(), GateParams::for_model(&m));
    let mut topo = Topology::paper_testbed();
    topo.num_gpus = 2;
    ServingEngine::new(
        gate,
        GpuSpec::rtx_3090(),
        topo,
        Box::new(FmoePriorityPolicy::new()),
        EngineConfig {
            cache_budget_bytes: m.expert_bytes() * 24,
            preload_all: false,
            max_decode_iterations: Some(6),
            context_collection_ns: 10_000,
            framework_overhead_per_layer_ns: 50_000,
            ..EngineConfig::paper_default()
        },
    )
}

fn predictor() -> FmoePredictor {
    let m = presets::small_test_model();
    FmoePredictor::new(m.clone(), FmoeConfig::for_model(&m))
}

fn trace(n: u64) -> Vec<TraceEvent> {
    let mut spec = AzureTraceSpec::paper_online_serving(DatasetSpec::tiny_test());
    spec.num_requests = n;
    spec.generate()
}

#[test]
fn serve_fcfs_is_byte_identical_across_runs() {
    let events = trace(10);
    let run = || {
        let mut eng = engine();
        let mut pred = predictor();
        let results = serve(&mut eng, &events, &mut pred, &ServeOptions::fcfs())
            .expect("fcfs serving is infallible")
            .results;
        format!("{results:?}")
    };
    let first = run();
    let second = run();
    assert!(!first.is_empty());
    assert_eq!(
        first, second,
        "serve must be byte-identical for identical inputs"
    );
}

#[test]
fn serve_with_slo_and_inert_faults_is_byte_identical() {
    let events = trace(10);
    let slo = SloPolicy {
        max_queueing_ns: 2_000_000,
        action: SloAction::Degrade,
    };
    let run = |faults: FaultSchedule| {
        let mut eng = engine();
        eng.set_fault_schedule(faults);
        let mut pred = predictor();
        let report = serve(
            &mut eng,
            &events,
            &mut pred,
            &ServeOptions::fcfs().with_slo(slo),
        )
        .expect("fcfs serving is infallible");
        format!("{report:?}")
    };
    let plain = run(FaultSchedule::none());
    let repeat = run(FaultSchedule::none());
    assert_eq!(plain, repeat, "SLO serving must be run-to-run identical");

    // An inert schedule (zero intensity) is the documented identity:
    // installing it must not perturb a single byte of the output.
    let inert = FaultSchedule::synthetic(7, 0.0, 1_000_000_000, 2);
    assert!(inert.is_inert());
    let faulted = run(inert);
    assert_eq!(
        plain, faulted,
        "an inert fault schedule must leave the run byte-identical"
    );
}

#[test]
fn generated_traces_are_deterministic() {
    let a = format!("{:?}", trace(16));
    let b = format!("{:?}", trace(16));
    assert_eq!(a, b, "trace generation must be seed-deterministic");
}

/// A disabled trace sink is the zero-cost identity: serving output with
/// no sink installed, with an explicitly disabled sink, and with a
/// recording sink must all be byte-identical.
#[test]
fn trace_sink_state_never_perturbs_serving_output() {
    let events = trace(10);
    let run = |sink: Option<fmoe_trace::TraceSink>| {
        let mut eng = engine();
        if let Some(sink) = sink {
            eng.set_trace_sink(sink);
        }
        let mut pred = predictor();
        let results = serve(&mut eng, &events, &mut pred, &ServeOptions::fcfs())
            .expect("fcfs serving is infallible")
            .results;
        format!("{results:?}")
    };
    let bare = run(None);
    let disabled = run(Some(fmoe_trace::TraceSink::disabled()));
    let recording = run(Some(fmoe_trace::TraceSink::recording(1 << 16)));
    assert_eq!(bare, disabled, "a disabled sink must be a strict no-op");
    assert_eq!(
        bare, recording,
        "recording is observation only: it must not move a single event"
    );
}

/// With tracing enabled, the *exports* themselves are part of the
/// determinism contract: two identically-seeded runs must produce
/// byte-identical Chrome-trace JSON, golden-trace text, and metrics CSV.
#[test]
fn enabled_tracing_exports_are_byte_identical_across_runs() {
    let events = trace(10);
    let slo = SloPolicy {
        max_queueing_ns: 2_000_000,
        action: SloAction::Degrade,
    };
    let run = || {
        let mut eng = engine();
        eng.set_trace_sink(fmoe_trace::TraceSink::recording(1 << 16));
        let mut pred = predictor();
        let _ = serve(
            &mut eng,
            &events,
            &mut pred,
            &ServeOptions::fcfs().with_slo(slo),
        )
        .expect("fcfs serving is infallible");
        let records = eng.trace_sink().take_records();
        let metrics = eng.trace_sink().metrics_snapshot();
        (
            fmoe_trace::chrome_trace_json(&records),
            fmoe_trace::events_text(&records),
            metrics.to_csv(),
        )
    };
    let (json_a, text_a, csv_a) = run();
    let (json_b, text_b, csv_b) = run();
    assert!(!text_a.is_empty(), "the trace must capture the run");
    assert_eq!(json_a, json_b, "Chrome-trace export must be deterministic");
    assert_eq!(text_a, text_b, "events text must be deterministic");
    assert_eq!(csv_a, csv_b, "metrics CSV must be deterministic");
    fmoe_trace::json::validate(&json_a).expect("Chrome-trace export is valid JSON");
}
