//! Figure 17 (expert-parallelism extension): EP sharding inside a
//! replica vs host offloading, under the all2all cost model.
//!
//! Each cell serves the same Azure-timed online trace through one
//! replica whose experts are sharded across `gpus` devices by a
//! placement policy, with per-layer token routing charged through the
//! all2all model (`fmoe_memsim::all2all_layer_time`) on the chosen
//! collective backend. The sweep crosses placement policy ×
//! GPUs-per-replica × backend under two memory regimes:
//!
//! * **per-gpu-fixed** — every GPU contributes a fixed expert budget,
//!   so aggregate residency *grows* with the replica width. This is the
//!   regime EP is bought for: more GPUs → more experts resident → fewer
//!   blocking host loads, and the all2all toll is the price of
//!   admission.
//! * **aggregate-fixed** — the replica's total expert budget is held
//!   constant while the width grows (memory-constrained fleet: the same
//!   HBM is just split N ways). EP then adds all2all latency without
//!   buying any residency, and host offloading on one GPU wins.
//!
//! The summary table renders the head-to-head verdict per regime
//! (`ep_wins` / `offload_wins`); the binary asserts both directions of
//! the trade-off so CI catches a cost model drifting into "EP always
//! wins" or "EP never wins" territory.
//!
//! ```sh
//! cargo run --release -p fmoe-bench --bin fig17_ep_all2all [--quick] [--jobs N]
//! ```
//!
//! `--jobs N` fans the independent cells across worker threads; output
//! bytes are identical to a sequential run.

use fmoe::{FmoeConfig, FmoePredictor};
use fmoe_bench::cli::{Cli, JOBS};
use fmoe_bench::harness::ParallelRunner;
use fmoe_bench::report::{write_csv, Table};
use fmoe_memsim::{All2AllBackend, Topology};
use fmoe_model::{presets, GateParams, GateSimulator, GpuSpec, ModelConfig};
use fmoe_serving::{
    serve, EngineConfig, ExpertParallelConfig, FmoeMapPlacement, LoadBalancedPlacement,
    RoundRobinPlacement, ServeOptions, ServingEngine,
};
use fmoe_stats::EmpiricalCdf;
use fmoe_workload::{AzureTraceSpec, DatasetSpec, TraceEvent};

fn model() -> ModelConfig {
    presets::small_test_model()
}

fn gate() -> GateSimulator {
    let m = model();
    GateSimulator::new(m.clone(), GateParams::for_model(&m))
}

fn trace(num_requests: u64) -> Vec<TraceEvent> {
    let mut spec = AzureTraceSpec::paper_online_serving(DatasetSpec::tiny_test());
    spec.num_requests = num_requests;
    spec.generate()
}

/// Historical per-expert activation counts, replayed through the gate —
/// what a load-balanced placement would have measured in production.
fn activation_counts() -> Vec<u64> {
    let g = gate();
    let m = model();
    let total = m.total_experts() as usize;
    let mut counts = vec![0u64; total];
    for seed in 0..6u64 {
        let req = fmoe_model::RequestRouting {
            cluster: seed % 4,
            request_seed: 31_000 + seed,
        };
        for iteration in 0..3u64 {
            let span = if iteration == 0 {
                fmoe_model::gate::TokenSpan::prefill(16)
            } else {
                fmoe_model::gate::TokenSpan::single(16 + iteration - 1)
            };
            for layer in 0..m.num_layers {
                for slot in g.activated_slots(req, iteration, layer, span) {
                    let d = fmoe_model::ExpertId::new(layer, slot).dense_index(m.experts_per_layer);
                    counts[d] += 1;
                }
            }
        }
    }
    counts
}

/// Which memory regime a cell runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BudgetMode {
    /// Aggregate budget = per-GPU share × width (residency grows).
    PerGpuFixed,
    /// Aggregate budget constant regardless of width.
    AggregateFixed,
}

impl BudgetMode {
    fn name(self) -> &'static str {
        match self {
            Self::PerGpuFixed => "per-gpu-fixed",
            Self::AggregateFixed => "aggregate-fixed",
        }
    }

    fn budget_bytes(self, m: &ModelConfig, gpus: u32) -> u64 {
        match self {
            // Each GPU holds 6 experts' worth of HBM for the cache.
            Self::PerGpuFixed => m.expert_bytes() * 6 * u64::from(gpus),
            // The whole replica holds 12 experts' worth, however wide.
            Self::AggregateFixed => m.expert_bytes() * 12,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PlacementKind {
    RoundRobin,
    LoadBalanced,
    FmoeMap,
}

impl PlacementKind {
    fn name(self) -> &'static str {
        match self {
            Self::RoundRobin => "round-robin",
            Self::LoadBalanced => "load-balanced",
            Self::FmoeMap => "fmoe-map",
        }
    }
}

/// One swept cell: `gpus == 1` is the host-offloading baseline (no EP;
/// placement and backend are moot and rendered as `-`).
#[derive(Debug, Clone, Copy)]
struct Cell {
    mode: BudgetMode,
    gpus: u32,
    placement: Option<PlacementKind>,
    backend: Option<All2AllBackend>,
}

impl Cell {
    fn placement_name(&self) -> &'static str {
        self.placement.map_or("-", PlacementKind::name)
    }

    fn backend_name(&self) -> &'static str {
        self.backend.map_or("-", All2AllBackend::name)
    }
}

struct CellOutcome {
    served: usize,
    hit_rate: f64,
    p50_ms: f64,
    p99_ms: f64,
    all2all_ms: f64,
    peer_fetches: u64,
    on_demand_ms: f64,
}

fn run_cell(cell: &Cell, events: &[TraceEvent], counts: &[u64]) -> CellOutcome {
    let m = model();
    let topo = Topology::builder()
        .num_gpus(cell.gpus)
        .gpu_memory_bytes(8 << 30)
        .build()
        .expect("valid sweep topology");
    let config = EngineConfig {
        cache_budget_bytes: cell.mode.budget_bytes(&m, cell.gpus),
        preload_all: false,
        max_decode_iterations: Some(4),
        context_collection_ns: 10_000,
        framework_overhead_per_layer_ns: 50_000,
        expert_parallel: cell.backend.map(|backend| ExpertParallelConfig {
            backend,
            ..ExpertParallelConfig::default()
        }),
        ..EngineConfig::paper_default()
    };
    let mut builder = ServingEngine::builder(gate(), GpuSpec::rtx_3090(), topo).config(config);
    let total: f64 = counts.iter().map(|&c| c as f64).sum();
    match cell.placement {
        Some(PlacementKind::RoundRobin) => {
            builder = builder.placement_policy(&RoundRobinPlacement);
        }
        Some(PlacementKind::LoadBalanced) => {
            builder = builder.placement_policy(&LoadBalancedPlacement::from_counts(counts));
        }
        Some(PlacementKind::FmoeMap) => {
            let probabilities: Vec<f64> = counts.iter().map(|&c| c as f64 / total).collect();
            builder =
                builder.placement_policy(&FmoeMapPlacement::from_probabilities(probabilities));
        }
        None => {}
    }
    let mut engine = builder.build();
    let mut predictor = FmoePredictor::new(m.clone(), FmoeConfig::for_model(&m));
    let report = serve(&mut engine, events, &mut predictor, &ServeOptions::fcfs())
        .expect("fcfs is infallible");
    let latencies: Vec<f64> = report
        .results
        .iter()
        .map(|r| r.request_latency_ns() as f64)
        .collect();
    let cdf = EmpiricalCdf::new(latencies);
    let stats = engine.cache_stats();
    let breakdown = engine.take_breakdown();
    CellOutcome {
        served: report.results.len(),
        hit_rate: if stats.hits + stats.misses == 0 {
            0.0
        } else {
            stats.hits as f64 / (stats.hits + stats.misses) as f64
        },
        p50_ms: cdf.quantile(0.5).unwrap_or(0.0) / 1e6,
        p99_ms: cdf.quantile(0.99).unwrap_or(0.0) / 1e6,
        all2all_ms: breakdown.all2all_ns as f64 / 1e6,
        peer_fetches: breakdown.peer_fetches,
        on_demand_ms: breakdown.on_demand_wait_ns as f64 / 1e6,
    }
}

fn main() {
    let cli = Cli::parse(&[JOBS]);
    let quick = cli.quick;
    let runner = ParallelRunner::from_cli(&cli);
    let requests: u64 = if quick { 10 } else { 24 };
    let widths: &[u32] = if quick { &[2] } else { &[2, 4] };
    let placements: &[PlacementKind] = if quick {
        &[PlacementKind::RoundRobin, PlacementKind::LoadBalanced]
    } else {
        &[
            PlacementKind::RoundRobin,
            PlacementKind::LoadBalanced,
            PlacementKind::FmoeMap,
        ]
    };
    let backends: &[All2AllBackend] = if quick {
        &[All2AllBackend::LowLatency, All2AllBackend::HighThroughput]
    } else {
        &All2AllBackend::ALL
    };

    let events = trace(requests);
    let counts = activation_counts();

    let mut cells = Vec::new();
    for mode in [BudgetMode::PerGpuFixed, BudgetMode::AggregateFixed] {
        // The host-offloading baseline: one GPU, no EP.
        cells.push(Cell {
            mode,
            gpus: 1,
            placement: None,
            backend: None,
        });
        for &gpus in widths {
            for &placement in placements {
                for &backend in backends {
                    cells.push(Cell {
                        mode,
                        gpus,
                        placement: Some(placement),
                        backend: Some(backend),
                    });
                }
            }
        }
    }

    let outcomes = runner.run(&cells, |_, cell| run_cell(cell, &events, &counts));

    let mut table = Table::new(
        "Figure 17: expert parallelism vs host offloading under the all2all cost model",
        &[
            "mode",
            "gpus",
            "placement",
            "backend",
            "budget_experts",
            "served",
            "hit_rate",
            "p50_ms",
            "p99_ms",
            "all2all_ms",
            "peer_fetches",
            "on_demand_ms",
        ],
    );
    let m = model();
    for (cell, outcome) in cells.iter().zip(&outcomes) {
        table.row(vec![
            cell.mode.name().into(),
            cell.gpus.to_string(),
            cell.placement_name().into(),
            cell.backend_name().into(),
            (cell.mode.budget_bytes(&m, cell.gpus) / m.expert_bytes()).to_string(),
            outcome.served.to_string(),
            format!("{:.4}", outcome.hit_rate),
            format!("{:.2}", outcome.p50_ms),
            format!("{:.2}", outcome.p99_ms),
            format!("{:.2}", outcome.all2all_ms),
            outcome.peer_fetches.to_string(),
            format!("{:.2}", outcome.on_demand_ms),
        ]);
    }
    table.print();

    // Head-to-head per regime: the best EP cell vs the offloading
    // baseline, plus the worst EP cell (the price of a bad backend).
    let mut summary = Table::new(
        "Figure 17 summary: EP vs offloading verdict per memory regime",
        &[
            "mode",
            "offload_p99_ms",
            "best_ep_p99_ms",
            "best_ep_cell",
            "worst_ep_p99_ms",
            "best_winner",
            "worst_winner",
        ],
    );
    for mode in [BudgetMode::PerGpuFixed, BudgetMode::AggregateFixed] {
        let baseline = cells
            .iter()
            .zip(&outcomes)
            .find(|(c, _)| c.mode == mode && c.gpus == 1)
            .map(|(_, o)| o.p99_ms)
            .expect("baseline cell exists");
        let mut ep: Vec<(&Cell, &CellOutcome)> = cells
            .iter()
            .zip(&outcomes)
            .filter(|(c, _)| c.mode == mode && c.gpus > 1)
            .collect();
        ep.sort_by(|a, b| a.1.p99_ms.total_cmp(&b.1.p99_ms));
        let (best_cell, best) = ep.first().expect("EP cells exist");
        let (_, worst) = ep.last().expect("EP cells exist");
        let best_winner = if best.p99_ms < baseline {
            "ep_wins"
        } else {
            "offload_wins"
        };
        let worst_winner = if worst.p99_ms < baseline {
            "ep_wins"
        } else {
            "offload_wins"
        };
        summary.row(vec![
            mode.name().into(),
            format!("{baseline:.2}"),
            format!("{:.2}", best.p99_ms),
            format!(
                "{}x/{}/{}",
                best_cell.gpus,
                best_cell.placement_name(),
                best_cell.backend_name()
            ),
            format!("{:.2}", worst.p99_ms),
            best_winner.into(),
            worst_winner.into(),
        ]);

        // The trade-off claims under test.
        match mode {
            BudgetMode::PerGpuFixed => assert!(
                best.p99_ms < baseline,
                "with per-GPU-fixed budgets, some EP cell must beat host \
                 offloading on P99: best EP {:.2} ms vs offload {baseline:.2} ms",
                best.p99_ms
            ),
            BudgetMode::AggregateFixed => assert!(
                worst.p99_ms > baseline,
                "with an aggregate-fixed budget, EP's all2all toll must cost \
                 some cell the P99 race: worst EP {:.2} ms vs offload {baseline:.2} ms",
                worst.p99_ms
            ),
        }
    }
    summary.print();

    let path = write_csv(&cli, &table, "fig17_ep_all2all").expect("write CSV");
    println!("\nwrote {}", path.display());
    let path = write_csv(&cli, &summary, "fig17_ep_summary").expect("write CSV");
    println!("wrote {}", path.display());
}
