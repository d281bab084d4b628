//! Extension experiment (not a paper figure): Hobbit-style mixed-precision
//! expert staging — moving fMoE along the *lossy* axis of the paper's
//! design space (Fig. 2).
//!
//! The paper serves lossless and cites Hobbit (related work, §7) for the
//! complementary idea: stage *less-critical* experts at reduced precision.
//! With the searched expert map in hand, fMoE has exactly the criticality
//! signal Hobbit needs — the activation probability `p` of each planned
//! expert. This experiment sweeps the probability threshold below which a
//! prefetch is staged at half precision (half the transfer time, half the
//! cache bytes) and reports the latency/quality frontier, where "quality"
//! is proxied by the fraction of expert accesses served by a degraded
//! expert.
//!
//! ```sh
//! cargo run --release -p fmoe-bench --bin ext_mixed_precision
//! ```

use fmoe_bench::cli::Cli;
use fmoe_bench::harness::{CellConfig, System};
use fmoe_bench::report::{write_csv, Table};
use fmoe_model::presets;
use fmoe_workload::DatasetSpec;

fn main() {
    let cli = Cli::parse(&[]);
    let mut table = Table::new(
        "Extension: mixed-precision staging threshold sweep (Mixtral-8x7B, 25% budget)",
        &[
            "threshold",
            "TTFT (ms)",
            "TPOT (ms)",
            "hit rate",
            "degraded accesses",
        ],
    );
    let model = presets::mixtral_8x7b();
    for threshold in [None, Some(0.05), Some(0.10), Some(0.20), Some(0.40)] {
        let mut cell = CellConfig::new(model.clone(), DatasetSpec::lmsys_chat(), System::Fmoe);
        cell.test_requests = 10;
        cell.max_decode = 16;
        cell.cache_budget_bytes = (model.total_expert_bytes() as f64 * 0.25) as u64;
        let gate = cell.gate();
        let (history, test) = cell.split();
        let mut predictor = cell.predictor(&gate, &history);
        let mut config = fmoe_serving::EngineConfig {
            cache_budget_bytes: cell.cache_budget_bytes,
            preload_all: false,
            max_decode_iterations: Some(cell.max_decode),
            context_collection_ns: 1_200_000,
            framework_overhead_per_layer_ns: 3_000_000,
            low_precision_threshold: threshold,
            ..fmoe_serving::EngineConfig::paper_default()
        };
        config.low_precision_threshold = threshold;
        let mut engine = fmoe_serving::ServingEngine::new(
            gate,
            fmoe_model::GpuSpec::rtx_3090(),
            cell.topology.clone(),
            System::Fmoe.cache_policy(model.experts_per_layer),
            config,
        );
        for p in history.iter().take(cell.warmup_requests) {
            let _ = engine.serve_request(*p, predictor.as_mut());
        }
        let metrics: Vec<_> = test
            .iter()
            .take(cell.test_requests)
            .map(|p| engine.serve_request(*p, predictor.as_mut()))
            .collect();
        let a = fmoe_serving::AggregateMetrics::from_requests(&metrics);
        table.row(vec![
            threshold.map_or("off (lossless)".into(), |t| format!("p < {t:.2}")),
            format!("{:.0}", a.mean_ttft_ms),
            format!("{:.0}", a.mean_tpot_ms),
            format!("{:.1}%", a.hit_rate * 100.0),
            format!("{:.1}%", a.degraded_fraction * 100.0),
        ]);
    }
    table.print();
    let _ = write_csv(&cli, &table, "ext_mixed_precision");
    println!("expected: raising the threshold trades quality (more accesses hit");
    println!("quantized experts) for latency and effective cache capacity — the");
    println!("lossless row is the paper's fMoE; the sweep charts Fig. 2's lossy axis.");
}
