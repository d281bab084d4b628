//! Figure 12: ablation study of fMoE's design.
//!
//! * 12a — expert pattern-tracking approaches, by prediction coverage at
//!   an equal prefetch budget: Speculate (Mixtral-Offloading/ProMoE style),
//!   Hit count (MoE-Infinity's request-level EAM), Map (T) trajectory-only,
//!   Map (T+S) + semantic search, Map (T+S+δ) full fMoE with the dynamic
//!   threshold (δ may select more experts when unsure — that is the point).
//! * 12b — caching policies under the full engine: LRU vs LFU vs fMoE's
//!   joint probability×frequency priority, end-to-end hit rate.
//!
//! ```sh
//! cargo run --release -p fmoe-bench --bin fig12_ablation
//! ```

use fmoe::{FmoeConfig, FmoePredictor};
use fmoe_baselines::{MixtralOffloadingPredictor, MoeInfinityPredictor};
use fmoe_bench::cli::{Cli, Flag};
use fmoe_bench::harness::{coverage_probe, CellConfig, System};
use fmoe_bench::report::{write_csv, Table};
use fmoe_cache::{EvictionPolicy, FmoePriorityPolicy, LfuPolicy, LruPolicy};
use fmoe_model::{presets, GateParams, GateSimulator, HistoryRequest, ModelConfig};
use fmoe_serving::ExpertPredictor;
use fmoe_workload::{split, DatasetSpec, Prompt};

const DISTANCE: u32 = 3;

fn fmoe_variant(
    model: &ModelConfig,
    gate: &GateSimulator,
    history: &[Prompt],
    semantic: bool,
    dynamic: bool,
) -> FmoePredictor {
    let mut config = FmoeConfig::for_model(model).with_distance(DISTANCE);
    config.prefetch_window = 1;
    config.use_semantic_search = semantic;
    config.use_dynamic_threshold = dynamic;
    let mut p = FmoePredictor::new(model.clone(), config);
    let hist: Vec<HistoryRequest> = history.iter().map(|pr| pr.history_request()).collect();
    p.populate_from_history(gate, &hist, 6);
    p
}

fn tracking_ablation(cli: &Cli) {
    let mut table = Table::new(
        "Figure 12a: expert pattern tracking approaches (prediction coverage / mean experts planned per layer)",
        &["model", "Speculate", "Hit count", "Map (T)", "Map (T+S)", "Map (T+S+d)"],
    );
    for model in presets::evaluation_models() {
        let gate = GateSimulator::new(model.clone(), GateParams::for_model(&model));
        let prompts = DatasetSpec::lmsys_chat().prompts(100);
        let (history, test) = split::paper_split(&prompts);
        let test: Vec<Prompt> = test.into_iter().take(10).collect();

        let run = |p: &mut dyn ExpertPredictor| {
            let s = coverage_probe(&gate, p, &test, 10);
            format!(
                "{:.1}% / {:.1}",
                s.coverage * 100.0,
                s.mean_planned_per_layer
            )
        };

        let mut speculate = MixtralOffloadingPredictor::new(&model).with_distance(DISTANCE);
        let mut hit_count = MoeInfinityPredictor::new(&model)
            .with_distance(DISTANCE)
            .with_window(1);
        let hist: Vec<HistoryRequest> = history.iter().map(|pr| pr.history_request()).collect();
        hit_count.populate_from_history(&gate, &hist, 6);
        let mut map_t = fmoe_variant(&model, &gate, &history, false, false);
        let mut map_ts = fmoe_variant(&model, &gate, &history, true, false);
        let mut map_tsd = fmoe_variant(&model, &gate, &history, true, true);

        table.row(vec![
            model.name.clone(),
            run(&mut speculate),
            run(&mut hit_count),
            run(&mut map_t),
            run(&mut map_ts),
            run(&mut map_tsd),
        ]);
    }
    table.print();
    let _ = write_csv(cli, &table, "fig12a_tracking");
    println!("expected shape (paper Fig. 12a): coverage increases as features");
    println!("restore — hit count worst, speculation effective (residual");
    println!("connections), Map (T) < Map (T+S) < Map (T+S+d).\n");
}

fn caching_ablation(cli: &Cli) {
    let mut table = Table::new(
        "Figure 12b: caching policies under fMoE prefetching (end-to-end hit rate)",
        &[
            "model",
            "LRU",
            "LFU (MoE-Inf)",
            "LFU (per-access)",
            "fMoE priority",
        ],
    );
    for model in presets::evaluation_models() {
        let mut row = vec![model.name.clone()];
        let neutral = 1.0 / f64::from(model.experts_per_layer);
        type PolicyFactory = Box<dyn Fn() -> Box<dyn EvictionPolicy>>;
        let policies: Vec<(&str, PolicyFactory)> = vec![
            (
                "LRU",
                Box::new(|| Box::new(LruPolicy::new()) as Box<dyn EvictionPolicy>),
            ),
            (
                "LFU (MoE-Inf)",
                Box::new(|| Box::new(LfuPolicy::coarse()) as Box<dyn EvictionPolicy>),
            ),
            (
                "LFU",
                Box::new(|| Box::new(LfuPolicy::new()) as Box<dyn EvictionPolicy>),
            ),
            (
                "fMoE",
                Box::new(move || {
                    Box::new(FmoePriorityPolicy::new().with_neutral_probability(neutral))
                        as Box<dyn EvictionPolicy>
                }),
            ),
        ];
        for (_, make_policy) in policies {
            let mut cell = CellConfig::new(model.clone(), DatasetSpec::lmsys_chat(), System::Fmoe);
            cell.test_requests = 8;
            cell.max_decode = 16;
            // Tighter budget than the default so eviction decisions matter.
            cell.cache_budget_bytes = (model.total_expert_bytes() as f64 * 0.25) as u64;
            let gate = cell.gate();
            let (history, test) = cell.split();
            let mut predictor = cell.predictor(&gate, &history);
            let mut engine = fmoe_serving::ServingEngine::new(
                gate,
                fmoe_model::GpuSpec::rtx_3090(),
                cell.topology.clone(),
                make_policy(),
                fmoe_serving::EngineConfig {
                    cache_budget_bytes: cell.cache_budget_bytes,
                    preload_all: false,
                    max_decode_iterations: Some(cell.max_decode),
                    context_collection_ns: 1_200_000,
                    framework_overhead_per_layer_ns: 3_000_000,
                    ..fmoe_serving::EngineConfig::paper_default()
                },
            );
            for p in history.iter().take(cell.warmup_requests) {
                let _ = engine.serve_request(*p, predictor.as_mut());
            }
            let mut requests = Vec::new();
            for p in test.iter().take(cell.test_requests) {
                requests.push(engine.serve_request(*p, predictor.as_mut()));
            }
            let agg = fmoe_serving::AggregateMetrics::from_requests(&requests);
            row.push(format!("{:.1}%", agg.hit_rate * 100.0));
        }
        table.row(row);
    }
    table.print();
    let _ = write_csv(cli, &table, "fig12b_caching");
    println!("expected shape (paper Fig. 12b): LRU worst (layer-sequential");
    println!("usage defeats recency), LFU better, fMoE's p*freq priority best.");
}

const TRACKING: Flag = Flag::switch("--tracking", "run only the tracking ablation (Fig. 12a)");
const CACHING: Flag = Flag::switch("--caching", "run only the caching ablation (Fig. 12b)");

fn main() {
    let cli = Cli::parse(&[TRACKING, CACHING]);
    if !cli.has(CACHING) {
        tracking_ablation(&cli);
    }
    if !cli.has(TRACKING) {
        caching_ablation(&cli);
    }
}
