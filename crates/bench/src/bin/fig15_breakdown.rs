//! Figure 15: latency breakdown of one fMoE inference iteration.
//!
//! Reports the per-iteration cost of every fMoE operation, marking which
//! run asynchronously (off the critical path). The paper's claim (§6.7):
//! excluding asynchronous tasks, fMoE's added synchronous delay is under
//! 30 ms — below 5% of the iteration.
//!
//! ```sh
//! cargo run --release -p fmoe-bench --bin fig15_breakdown
//! ```

use fmoe_bench::cli::Cli;
use fmoe_bench::harness::{CellConfig, System};
use fmoe_bench::report::{write_csv, Table};
use fmoe_model::presets;
use fmoe_workload::DatasetSpec;

fn main() {
    let cli = Cli::parse(&[]);
    let mut table = Table::new(
        "Figure 15: per-iteration latency breakdown of fMoE (ms)",
        &[
            "model",
            "iteration",
            "compute",
            "on-demand wait",
            "ctx collection",
            "matching*",
            "prefetch*",
            "map update*",
            "sync overhead",
        ],
    );
    for model in presets::evaluation_models() {
        let mut cell = CellConfig::new(model.clone(), DatasetSpec::lmsys_chat(), System::Fmoe);
        cell.test_requests = 10;
        cell.max_decode = 20;
        let gate = cell.gate();
        let (history, test) = cell.split();
        let mut predictor = cell.predictor(&gate, &history);
        let mut engine = cell.engine(gate);
        for p in history.iter().take(cell.warmup_requests) {
            let _ = engine.serve_request(*p, predictor.as_mut());
        }
        let _ = engine.take_breakdown();
        for p in test.iter().take(cell.test_requests) {
            let _ = engine.serve_request(*p, predictor.as_mut());
        }
        let b = engine.take_breakdown();
        let sync_ms = b.sync_overhead_per_iteration_ms();
        let iter_ms = b.per_iteration_ms(b.iteration_total_ns);
        table.row(vec![
            model.name.clone(),
            format!("{iter_ms:.1}"),
            format!("{:.1}", b.per_iteration_ms(b.compute_ns)),
            format!("{:.1}", b.per_iteration_ms(b.on_demand_wait_ns)),
            format!("{:.1}", b.per_iteration_ms(b.context_collection_ns)),
            format!("{:.1}", b.per_iteration_ms(b.matching_ns)),
            format!("{:.1}", b.per_iteration_ms(b.prefetch_async_ns)),
            format!("{:.1}", b.per_iteration_ms(b.update_async_ns)),
            format!("{sync_ms:.1} ({:.1}%)", sync_ms / iter_ms * 100.0),
        ]);
    }
    table.print();
    let _ = write_csv(&cli, &table, "fig15_breakdown");
    println!("columns marked * are asynchronous — matching, prefetch wire time");
    println!("and store updates overlap compute and do not extend the critical");
    println!("path. expected (paper §6.7): the synchronous overhead column stays");
    println!("below 30 ms and below 5% of the iteration for all three models.");
}
