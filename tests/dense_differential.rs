//! Dense-table vs reference-path differential suite (DESIGN.md §16).
//!
//! The hot paths of the serving stack were rewritten from
//! `BTreeMap<ExpertId, _>` / `BTreeMap<usize, _>` onto flat dense-index
//! tables (`DenseIdSet` / `DenseIdMap`, the cache's dense residency
//! index, the predictor's `Vec`-backed element table). Two reference
//! paths were deliberately retained:
//!
//! * `IndexMode::Reference` on `EngineConfig` — the expert cache's
//!   original `BTreeMap<ExpertId, u32>` arena index, and
//! * `FmoePredictor::with_index_mode(IndexMode::Reference)` — the
//!   original `BTreeMap<usize, ElementState>` per-element table.
//!
//! This suite replays the golden online scenario for the paper lineup's
//! baselines plus fMoE on both paths with identical seeds and asserts
//! **byte-identical** output at every observable surface: the rendered
//! `OnlineReport` and the one-line-per-event trace text. Any divergence
//! — an iteration-order change, a dropped entry, a different victim
//! choice — shows up as a specific event diff, in the same spirit as the
//! arena-cache differential oracles of the cache crate. CI runs this in
//! release mode.

use fmoe_bench::{CellConfig, System};
use fmoe_model::presets;
use fmoe_serving::{serve, ExpertPredictor, IndexMode, ServeOptions};
use fmoe_trace::TraceSink;
use fmoe_workload::{AzureTraceSpec, DatasetSpec};

/// Same tiny cell as the golden-trace suite: small model, tight budget
/// (so prefetching and eviction both happen), short decode.
fn cell(system: System, mode: IndexMode) -> CellConfig {
    let mut cell = CellConfig::new(presets::tiny_test_model(), DatasetSpec::tiny_test(), system);
    cell.total_prompts = 20;
    cell.max_decode = 3;
    cell.max_history_iterations = 3;
    cell.cache_budget_bytes = cell.model.expert_bytes() * 8;
    cell.index_mode = mode;
    cell
}

/// Runs the golden online scenario and renders every observable surface.
/// Under `IndexMode::Reference` the engine uses the `BTreeMap` residency
/// index and (for fMoE) the predictor uses the `BTreeMap` element table.
fn surfaces(system: System, mode: IndexMode) -> (String, String) {
    let cell = cell(system, mode);
    let gate = cell.gate();
    let (history, _) = cell.split();
    let mut predictor: Box<dyn ExpertPredictor> =
        if system == System::Fmoe && mode == IndexMode::Reference {
            Box::new(cell.fmoe_predictor(&gate, &history).with_index_mode(mode))
        } else {
            cell.predictor(&gate, &history)
        };
    let mut engine = cell.engine(gate);
    engine.set_trace_sink(TraceSink::recording(1 << 16));
    let mut spec = AzureTraceSpec::paper_online_serving(DatasetSpec::tiny_test());
    spec.num_requests = 3;
    let events = spec.generate();
    let report = serve(
        &mut engine,
        &events,
        predictor.as_mut(),
        &ServeOptions::fcfs(),
    )
    .expect("fcfs serving is infallible");
    assert_eq!(report.results.len(), 3, "scenario serves every request");
    assert_eq!(engine.trace_sink().dropped_records(), 0);
    let trace = fmoe_trace::events_text(&engine.trace_sink().take_records());
    (format!("{report:#?}"), trace)
}

fn assert_identical(system: System) {
    let (report_dense, trace_dense) = surfaces(system, IndexMode::Dense);
    let (report_ref, trace_ref) = surfaces(system, IndexMode::Reference);
    assert!(!trace_dense.is_empty(), "{}: empty trace", system.name());
    assert_eq!(
        report_dense,
        report_ref,
        "{}: OnlineReport diverges between dense and reference paths",
        system.name()
    );
    assert_eq!(
        trace_dense,
        trace_ref,
        "{}: trace text diverges between dense and reference paths",
        system.name()
    );
}

#[test]
fn dense_matches_reference_fmoe() {
    assert_identical(System::Fmoe);
}

#[test]
fn dense_matches_reference_moe_infinity() {
    assert_identical(System::MoeInfinity);
}

#[test]
fn dense_matches_reference_promoe() {
    assert_identical(System::ProMoe);
}

#[test]
fn dense_matches_reference_oracle() {
    assert_identical(System::Oracle);
}

/// The index mode itself must be observable only in performance:
/// constructing twice in-process yields identical surfaces (guards
/// against hidden state leaking across constructions).
#[test]
fn reference_path_is_reproducible_in_process() {
    let a = surfaces(System::Fmoe, IndexMode::Reference);
    let b = surfaces(System::Fmoe, IndexMode::Reference);
    assert_eq!(a, b);
}
