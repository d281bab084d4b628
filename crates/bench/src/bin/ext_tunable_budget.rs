//! Extension experiment (not a paper figure): SwapMoE-style tunable
//! memory budgets.
//!
//! A serving deployment cannot dedicate a fixed slice of GPU memory to
//! experts: KV-cache pressure grows with context length and batch depth.
//! SwapMoE (related work, §7) keeps a tunable set of critical experts
//! under a budget that moves at runtime. Our engine supports the same:
//! `ServingEngine::set_cache_budget` retunes mid-serving, evicting
//! policy-chosen victims immediately.
//!
//! This experiment serves a request stream while the budget oscillates
//! between a roomy and a starved configuration, and compares fMoE's
//! probability-guided eviction against LRU under identical oscillation.
//!
//! ```sh
//! cargo run --release -p fmoe-bench --bin ext_tunable_budget
//! ```

use fmoe_bench::cli::Cli;
use fmoe_bench::harness::{CellConfig, System};
use fmoe_bench::report::{write_csv, Table};
use fmoe_model::presets;
use fmoe_serving::AggregateMetrics;
use fmoe_workload::DatasetSpec;

fn run(system: System, oscillate: bool) -> AggregateMetrics {
    let model = presets::phi35_moe();
    let mut cell = CellConfig::new(model.clone(), DatasetSpec::lmsys_chat(), system);
    cell.test_requests = 12;
    cell.max_decode = 16;
    let high = (model.total_expert_bytes() as f64 * 0.45) as u64;
    let low = (model.total_expert_bytes() as f64 * 0.15) as u64;
    cell.cache_budget_bytes = high;

    let gate = cell.gate();
    let (history, test) = cell.split();
    let mut predictor = cell.predictor(&gate, &history);
    let mut engine = cell.engine(gate);
    for p in history.iter().take(cell.warmup_requests) {
        let _ = engine.serve_request(*p, predictor.as_mut());
    }
    let mut metrics = Vec::new();
    for (i, p) in test.iter().take(cell.test_requests).enumerate() {
        if oscillate {
            // Every third request the KV cache "grows": experts must
            // yield memory; afterwards it is reclaimed.
            let budget = if i % 3 == 2 { low } else { high };
            let _ = engine.set_cache_budget(budget);
        }
        metrics.push(engine.serve_request(*p, predictor.as_mut()));
    }
    AggregateMetrics::from_requests(&metrics)
}

fn main() {
    let cli = Cli::parse(&[]);
    let mut table = Table::new(
        "Extension: serving under an oscillating expert-cache budget (Phi-3.5-MoE)",
        &["system", "budget", "TPOT (ms)", "hit rate"],
    );
    for system in [System::Fmoe, System::MixtralOffloading, System::MoeInfinity] {
        for oscillate in [false, true] {
            let a = run(system, oscillate);
            table.row(vec![
                system.name().into(),
                if oscillate {
                    "oscillating 45% <-> 15%"
                } else {
                    "steady 45%"
                }
                .into(),
                format!("{:.0}", a.mean_tpot_ms),
                format!("{:.1}%", a.hit_rate * 100.0),
            ]);
        }
    }
    table.print();
    let _ = write_csv(&cli, &table, "ext_tunable_budget");
    println!("expected: oscillation costs every system, but fMoE's searched-map");
    println!("eviction priorities pick better victims under pressure, so it");
    println!("degrades least and stays the fastest system in both regimes.");
}
