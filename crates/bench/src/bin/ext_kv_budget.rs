//! Extension experiment (not a paper figure): KV-cache-aware expert
//! budgets.
//!
//! In a real deployment the expert cache shares GPU memory with the
//! KV cache, which grows with context length and batch depth. With
//! `EngineConfig::kv_aware_budget`, the engine deducts the live KV bytes
//! from the expert budget every iteration — experts yield memory to long
//! contexts and reclaim it when requests retire. This experiment serves
//! long-context conversations under a fixed *total* memory budget and
//! compares the naive fixed expert budget (which would over-commit GPU
//! memory in reality) against the KV-aware one.
//!
//! ```sh
//! cargo run --release -p fmoe-bench --bin ext_kv_budget
//! ```

use fmoe_bench::cli::Cli;
use fmoe_bench::harness::{CellConfig, System};
use fmoe_bench::report::{write_csv, Table};
use fmoe_model::presets;
use fmoe_serving::{AggregateMetrics, EngineConfig, ServingEngine};
use fmoe_workload::{ConversationSpec, DatasetSpec};

fn run(kv_aware: bool, long_contexts: bool) -> (AggregateMetrics, f64) {
    let model = presets::mixtral_8x7b();
    let mut cell = CellConfig::new(model.clone(), DatasetSpec::lmsys_chat(), System::Fmoe);
    cell.max_decode = 12;
    let gate = cell.gate();
    let (history, _) = cell.split();
    let mut predictor = cell.predictor(&gate, &history);
    let mut engine = ServingEngine::new(
        gate,
        fmoe_model::GpuSpec::rtx_3090(),
        cell.topology.clone(),
        System::Fmoe.cache_policy(model.experts_per_layer),
        EngineConfig {
            cache_budget_bytes: cell.cache_budget_bytes,
            max_decode_iterations: Some(cell.max_decode),
            kv_aware_budget: kv_aware,
            ..EngineConfig::paper_default()
        },
    );
    let mut spec = ConversationSpec::chat(DatasetSpec::lmsys_chat(), 6, 3);
    if long_contexts {
        // Agentic-style dialogues: thousands of tokens join per turn.
        spec.user_tokens_per_turn = 4000;
    }
    let turns = spec.turns();
    let mut kv_peak_gb = 0.0f64;
    let kv_per_token = model.kv_bytes_per_token() as f64;
    let mut metrics = Vec::new();
    for t in &turns {
        kv_peak_gb = kv_peak_gb
            .max((t.prompt.prompt_tokens + t.prompt.output_tokens) as f64 * kv_per_token / 1e9);
        metrics.push(engine.serve_request(t.prompt, predictor.as_mut()));
    }
    (AggregateMetrics::from_requests(&metrics), kv_peak_gb)
}

fn main() {
    let cli = Cli::parse(&[]);
    let mut table = Table::new(
        "Extension: KV-aware expert budgets (Mixtral-8x7B conversations)",
        &["contexts", "budgeting", "TPOT (ms)", "hit rate", "peak KV"],
    );
    for long in [false, true] {
        for kv_aware in [false, true] {
            let (a, kv_gb) = run(kv_aware, long);
            table.row(vec![
                if long {
                    "long (agentic)"
                } else {
                    "chat-length"
                }
                .into(),
                if kv_aware {
                    "KV-aware"
                } else {
                    "fixed (over-commits)"
                }
                .into(),
                format!("{:.0}", a.mean_tpot_ms),
                format!("{:.1}%", a.hit_rate * 100.0),
                format!("{kv_gb:.2} GB"),
            ]);
        }
    }
    table.print();
    let _ = write_csv(&cli, &table, "ext_kv_budget");
    println!("expected: for chat-length contexts the KV deduction is noise; for");
    println!("long contexts the KV-aware budget costs some hit rate and TPOT —");
    println!("the honest price of not over-committing GPU memory, which the");
    println!("fixed-budget row silently does.");
}
