//! Golden-trace regression suite.
//!
//! Each test replays one short, fully deterministic serving run for one
//! system, renders the captured trace in the canonical one-line-per-event
//! text format (`fmoe_trace::events_text`), and diffs it against the
//! committed golden under `tests/golden/`. Any behavioural drift in the
//! engine, transfer path, or cache shows up as a *specific event-level
//! diff* — which phase moved, on which layer, by how many nanoseconds —
//! rather than an opaque end-to-end latency change. On the same cell,
//! `traced_phase_totals_reconcile_with_breakdown` checks that the
//! trace's per-phase totals equal the engine's `Breakdown`.
//!
//! To re-bless after an intentional change:
//!
//! ```text
//! FMOE_BLESS=1 cargo test --test golden_traces
//! ```
//!
//! then inspect `git diff tests/golden/` before committing.

use fmoe_bench::{CellConfig, System};
use fmoe_memsim::Topology;
use fmoe_model::{presets, GpuSpec};
use fmoe_serving::{
    serve, Breakdown, EngineConfig, ExpertParallelConfig, ServeOptions, ServingEngine,
};
use fmoe_trace::TraceSink;
use fmoe_workload::{AzureTraceSpec, DatasetSpec};
use std::path::PathBuf;

/// The tiny, fast cell every golden uses: small model, small budget (so
/// prefetching and eviction both happen), short decode.
fn cell(system: System) -> CellConfig {
    let mut cell = CellConfig::new(presets::tiny_test_model(), DatasetSpec::tiny_test(), system);
    cell.total_prompts = 20;
    cell.max_decode = 3;
    cell.max_history_iterations = 3;
    cell.cache_budget_bytes = cell.model.expert_bytes() * 8;
    cell
}

/// Runs the canonical golden scenario for `system` and renders the trace.
fn rendered_trace(system: System) -> String {
    let cell = cell(system);
    let gate = cell.gate();
    let (history, _) = cell.split();
    let mut predictor = cell.predictor(&gate, &history);
    let mut engine = cell.engine(gate);
    engine.set_trace_sink(TraceSink::recording(1 << 16));
    let mut spec = AzureTraceSpec::paper_online_serving(DatasetSpec::tiny_test());
    spec.num_requests = 3;
    let events = spec.generate();
    let results = serve(
        &mut engine,
        &events,
        predictor.as_mut(),
        &ServeOptions::fcfs(),
    )
    .expect("fcfs serving is infallible")
    .results;
    assert_eq!(results.len(), 3, "golden scenario serves every request");
    assert_eq!(
        engine.trace_sink().dropped_records(),
        0,
        "golden capacity must hold the whole run"
    );
    fmoe_trace::events_text(&engine.trace_sink().take_records())
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.trace"))
}

/// Diffs `actual` against the committed golden, or re-blesses it when
/// `FMOE_BLESS=1`. Mismatches report the first diverging line so the
/// failure reads as an event-level diff.
fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var("FMOE_BLESS").as_deref() == Ok("1") {
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {}: {e}\nrun `FMOE_BLESS=1 cargo test --test golden_traces` to create it",
            path.display()
        )
    });
    if expected == actual {
        return;
    }
    let mut line = 0usize;
    for (i, (e, a)) in expected.lines().zip(actual.lines()).enumerate() {
        if e != a {
            line = i + 1;
            panic!(
                "golden trace `{name}` diverges at line {line}:\n  expected: {e}\n  actual:   {a}\n\
                 re-bless with FMOE_BLESS=1 if the change is intentional"
            );
        }
    }
    line += expected.lines().count().min(actual.lines().count());
    panic!(
        "golden trace `{name}` length changed: expected {} lines, got {} (first extra line {})\n\
         re-bless with FMOE_BLESS=1 if the change is intentional",
        expected.lines().count(),
        actual.lines().count(),
        line + 1
    );
}

#[test]
fn golden_trace_fmoe() {
    check_golden("fmoe", &rendered_trace(System::Fmoe));
}

#[test]
fn golden_trace_moe_infinity() {
    check_golden("moe_infinity", &rendered_trace(System::MoeInfinity));
}

#[test]
fn golden_trace_promoe() {
    check_golden("promoe", &rendered_trace(System::ProMoe));
}

#[test]
fn golden_trace_oracle() {
    check_golden("oracle", &rendered_trace(System::Oracle));
}

/// Lockstep batching: two requests share every iteration. MoE-Infinity
/// keys its per-request activation matrix by batch slot, so this pins
/// which slot each request gets as well as the shared-iteration timing.
#[test]
fn golden_trace_moe_infinity_batch2() {
    let mut cell = cell(System::MoeInfinity);
    cell.batch_size = 2;
    cell.test_requests = 4;
    let traced = cell.run_offline_traced(1 << 16);
    assert_eq!(traced.outcome.requests.len(), 4, "every request is served");
    assert_eq!(
        traced.dropped_records, 0,
        "golden capacity must hold the whole run"
    );
    check_golden(
        "moe_infinity_batch2",
        &fmoe_trace::events_text(&traced.records),
    );
}

/// The golden scenario itself must be reproducible, otherwise a diff
/// would mean nothing: two in-process runs render identically.
#[test]
fn golden_scenario_is_reproducible_in_process() {
    let a = rendered_trace(System::Fmoe);
    let b = rendered_trace(System::Fmoe);
    assert!(!a.is_empty());
    assert_eq!(a, b, "golden scenario must be run-to-run identical");
}

/// Serves two lockstep batches of the golden cell with a recording sink
/// and returns the trace's per-phase totals next to the engine's
/// `Breakdown`. With `expert_parallel`, the replica is two GPUs with EP
/// (all2all and peer fetch on); otherwise it is one GPU.
fn phase_totals_and_breakdown(
    system: System,
    expert_parallel: bool,
) -> (std::collections::BTreeMap<&'static str, u64>, Breakdown) {
    let cell = cell(system);
    let topology = if expert_parallel {
        Topology::builder()
            .num_gpus(2)
            .gpu_memory_bytes(8 << 30)
            .build()
            .expect("valid two-GPU topology")
    } else {
        Topology::single_gpu(8 << 30)
    };
    let gate = cell.gate();
    let (history, test) = cell.split();
    let mut predictor = cell.predictor(&gate, &history);
    let config = EngineConfig {
        cache_budget_bytes: cell.cache_budget_bytes,
        max_decode_iterations: Some(cell.max_decode),
        expert_parallel: expert_parallel.then(ExpertParallelConfig::default),
        ..EngineConfig::paper_default()
    };
    let mut engine = ServingEngine::builder(gate, GpuSpec::rtx_3090(), topology)
        .policy(system.cache_policy(cell.model.experts_per_layer))
        .config(config)
        .trace_sink(TraceSink::recording(1 << 18))
        .build();
    for batch in test.chunks(2).take(2) {
        assert_eq!(engine.serve_batch(batch, predictor.as_mut()).len(), 2);
    }
    assert_eq!(engine.trace_sink().dropped_records(), 0);
    let totals = fmoe_trace::phase_totals(&engine.trace_sink().take_records());
    (totals, engine.take_breakdown())
}

/// The trace's phase spans and the engine's `Breakdown` count the same
/// critical-path time: every engine charge books both in one place.
/// Only synchronous matching stalls compute, so only it leaves a
/// `prefetch_issue` span.
#[test]
fn traced_phase_totals_reconcile_with_breakdown() {
    for system in [System::MoeInfinity, System::MixtralOffloading, System::Fmoe] {
        for expert_parallel in [false, true] {
            let (totals, bd) = phase_totals_and_breakdown(system, expert_parallel);
            let phase = |name: &str| totals.get(name).copied().unwrap_or(0);
            let case = format!("{} (EP: {expert_parallel})", system.name());
            let synchronous_matching = if bd.matching_synchronous {
                bd.matching_ns
            } else {
                0
            };
            assert!(bd.iterations > 0, "{case}");
            assert_eq!(phase("context_collect"), bd.context_collection_ns, "{case}");
            assert_eq!(phase("all2all"), bd.all2all_ns, "{case}");
            assert_eq!(phase("all2all") > 0, expert_parallel, "{case}");
            assert_eq!(phase("prefetch_issue"), synchronous_matching, "{case}");
            assert_eq!(
                phase("prefetch_issue") > 0,
                system != System::Fmoe,
                "{case}"
            );
            // fMoE's asynchronous prefetches can be absorbed before they
            // land (ROADMAP, "early absorb"); on larger runs its traced
            // waits then disagree with `Breakdown`, so they are checked
            // only once that is fixed.
            if system == System::Fmoe {
                continue;
            }
            assert_eq!(
                phase("on_demand_wait"),
                bd.on_demand_wait_ns + bd.blocking_prefetch_ns,
                "{case}"
            );
            assert_eq!(phase("iteration"), bd.iteration_total_ns, "{case}");
        }
    }
}
