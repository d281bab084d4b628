//! Quickstart: serve a few requests with fMoE on a simulated six-GPU
//! testbed and print the metrics the paper reports.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use fmoe::{FmoeConfig, FmoePredictor};
use fmoe_cache::FmoePriorityPolicy;
use fmoe_memsim::Topology;
use fmoe_model::{presets, GateParams, GateSimulator, GpuSpec, HistoryRequest};
use fmoe_serving::{EngineConfig, ServingEngine};
use fmoe_workload::{split, DatasetSpec};

fn main() {
    // 1. Pick a model (paper Table 1) and build its synthetic router.
    let model = presets::mixtral_8x7b();
    let gate = GateSimulator::new(model.clone(), GateParams::for_model(&model));
    println!(
        "model: {} — {} layers x {} experts, top-{} routing, {:.0} MB/expert",
        model.name,
        model.num_layers,
        model.experts_per_layer,
        model.top_k,
        model.expert_bytes() as f64 / 1e6
    );

    // 2. Generate an LMSYS-like workload and split it 70/30: history
    //    populates the Expert Map Store, the rest is served.
    let dataset = DatasetSpec::lmsys_chat();
    let prompts = dataset.prompts(80);
    let (history, test) = split::paper_split(&prompts);

    // 3. Build the fMoE policy and pre-populate its store.
    let mut predictor = FmoePredictor::new(model.clone(), FmoeConfig::for_model(&model));
    let hist: Vec<HistoryRequest> = history.iter().map(|p| p.history_request()).collect();
    predictor.populate_from_history(&gate, &hist, 6);
    println!(
        "expert map store: {} maps from {} history prompts",
        predictor.store_len(),
        history.len()
    );

    // 4. Build the serving engine: the paper's six-GPU testbed with a
    //    48 GB expert-cache budget and fMoE's probability-aware eviction.
    let engine_config = EngineConfig::paper_default().with_max_decode(32);
    let mut engine = ServingEngine::new(
        gate,
        GpuSpec::rtx_3090(),
        Topology::paper_testbed(),
        Box::new(FmoePriorityPolicy::new()),
        engine_config,
    );

    // 5. Serve the test split and report TTFT / TPOT / expert hit rate.
    println!(
        "\n{:>6}  {:>10}  {:>10}  {:>9}",
        "req", "TTFT", "TPOT", "hit rate"
    );
    for prompt in test.iter().take(8) {
        let m = engine.serve_request(*prompt, &mut predictor);
        println!(
            "{:>6}  {:>7.1} ms  {:>7.1} ms  {:>8.1}%",
            m.request_id,
            m.ttft_ns as f64 / 1e6,
            m.tpot_ns() / 1e6,
            m.hit_rate() * 100.0
        );
    }

    let stats = engine.cache_stats();
    let transfers = engine.transfer_stats();
    println!(
        "\ncache: {} hits / {} misses ({:.1}% hit rate), {} evictions",
        stats.hits,
        stats.misses,
        stats.hit_rate() * 100.0,
        stats.evictions
    );
    println!(
        "transfers: {:.1} GB prefetched, {:.1} GB on demand, {} prefetches cancelled",
        transfers.prefetch_bytes as f64 / 1e9,
        transfers.on_demand_bytes as f64 / 1e9,
        transfers.cancelled_jobs
    );
}
