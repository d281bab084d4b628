//! Placement ablation (not a paper figure): why the paper's §5
//! round-robin expert-parallel placement matters.
//!
//! Round-robin spreads every layer's experts across all host links, so a
//! layer's on-demand loads and prefetches proceed in parallel. The naive
//! alternative — contiguous layer blocks per GPU — funnels each layer's
//! traffic through a single link, serializing exactly the transfers that
//! sit on the critical path. This bench also includes SwapMoE in the
//! system lineup as a related-work reference point.
//!
//! ```sh
//! cargo run --release -p fmoe-bench --bin ablation_placement
//! ```

use fmoe_bench::cli::Cli;
use fmoe_bench::harness::{CellConfig, System};
use fmoe_bench::report::{write_csv, Table};
use fmoe_model::presets;
use fmoe_serving::{
    AggregateMetrics, EngineConfig, LayerContiguousPlacement, PlacementPolicy, RoundRobinPlacement,
    ServingEngine,
};
use fmoe_workload::DatasetSpec;

fn run(system: System, placement: &dyn PlacementPolicy) -> AggregateMetrics {
    let model = presets::mixtral_8x7b();
    let mut cell = CellConfig::new(model.clone(), DatasetSpec::lmsys_chat(), system);
    cell.test_requests = 8;
    cell.max_decode = 16;
    let gate = cell.gate();
    let (history, test) = cell.split();
    let mut predictor = cell.predictor(&gate, &history);
    let mut engine =
        ServingEngine::builder(gate, fmoe_model::GpuSpec::rtx_3090(), cell.topology.clone())
            .policy(system.cache_policy(model.experts_per_layer))
            .config(EngineConfig {
                cache_budget_bytes: cell.cache_budget_bytes,
                max_decode_iterations: Some(cell.max_decode),
                ..EngineConfig::paper_default()
            })
            .placement_policy(placement)
            .build();
    for p in history.iter().take(cell.warmup_requests) {
        let _ = engine.serve_request(*p, predictor.as_mut());
    }
    let metrics: Vec<_> = test
        .iter()
        .take(cell.test_requests)
        .map(|p| engine.serve_request(*p, predictor.as_mut()))
        .collect();
    AggregateMetrics::from_requests(&metrics)
}

fn main() {
    let cli = Cli::parse(&[]);
    let mut table = Table::new(
        "Ablation: expert-parallel placement (Mixtral-8x7B, 6 GPUs)",
        &["system", "placement", "TTFT (ms)", "TPOT (ms)", "hit rate"],
    );
    for system in [System::Fmoe, System::DeepSpeed, System::SwapMoe] {
        let placements: [(&str, &dyn PlacementPolicy); 2] = [
            ("round-robin (paper)", &RoundRobinPlacement),
            ("layer-contiguous", &LayerContiguousPlacement),
        ];
        for (name, placement) in placements {
            let a = run(system, placement);
            table.row(vec![
                system.name().into(),
                name.into(),
                format!("{:.0}", a.mean_ttft_ms),
                format!("{:.0}", a.mean_tpot_ms),
                format!("{:.1}%", a.hit_rate * 100.0),
            ]);
        }
    }
    table.print();
    let _ = write_csv(&cli, &table, "ablation_placement");
    println!("expected: layer-contiguous placement serializes each layer's");
    println!("transfers on one link, inflating TTFT/TPOT for every system —");
    println!("the mechanism behind the paper's round-robin choice (§5).");
}
