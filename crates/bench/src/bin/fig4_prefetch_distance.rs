//! Figure 4: expert hit rates of coarse- vs. fine-grained offloading
//! designs at different prefetch distances.
//!
//! Following the paper's framing, "fine-grained" is fMoE's expert-map
//! design and "coarse-grained" is MoE-Infinity's request-level tracking.
//! We measure with the prediction-coverage probe (plans vs. truly
//! activated experts) at an equal per-layer prefetch budget, which
//! isolates prediction quality from cache/bandwidth effects; the prefetch
//! window is fixed to 1 so the distance semantics are exact.
//!
//! ```sh
//! cargo run --release -p fmoe-bench --bin fig4_prefetch_distance
//! ```

use fmoe::{FmoeConfig, FmoePredictor};
use fmoe_baselines::MoeInfinityPredictor;
use fmoe_bench::cli::Cli;
use fmoe_bench::harness::coverage_probe;
use fmoe_bench::plot::{LinePlot, Series};
use fmoe_bench::report::{write_csv, Table};
use fmoe_model::{presets, GateParams, GateSimulator, HistoryRequest, ModelConfig};
use fmoe_workload::{split, DatasetSpec};

const DISTANCES: [u32; 6] = [1, 2, 3, 4, 6, 8];

fn probe(model: &ModelConfig, distance: u32, fine: bool) -> f64 {
    let gate = GateSimulator::new(model.clone(), GateParams::for_model(model));
    let dataset = DatasetSpec::lmsys_chat();
    let prompts = dataset.prompts(100);
    let (history, test) = split::paper_split(&prompts);
    let test: Vec<_> = test.into_iter().take(12).collect();

    if fine {
        let mut config = FmoeConfig::for_model(model).with_distance(distance);
        config.prefetch_window = 1;
        // Equal budget: fixed top-(K+1) selection for both designs.
        config.use_dynamic_threshold = false;
        let mut p = FmoePredictor::new(model.clone(), config);
        let hist: Vec<HistoryRequest> = history.iter().map(|pr| pr.history_request()).collect();
        p.populate_from_history(&gate, &hist, 6);
        coverage_probe(&gate, &mut p, &test, 12).coverage
    } else {
        let mut p = MoeInfinityPredictor::new(model)
            .with_distance(distance)
            .with_window(1);
        let hist: Vec<HistoryRequest> = history.iter().map(|pr| pr.history_request()).collect();
        p.populate_from_history(&gate, &hist, 6);
        coverage_probe(&gate, &mut p, &test, 12).coverage
    }
}

fn main() {
    let cli = Cli::parse(&[]);
    let mut table = Table::new(
        "Figure 4: hit rate (prediction coverage) vs prefetch distance",
        &["model", "design", "d=1", "d=2", "d=3", "d=4", "d=6", "d=8"],
    );
    for model in presets::evaluation_models() {
        let mut plot = LinePlot::new(
            &format!("Fig. 4 — hit rate vs prefetch distance ({})", model.name),
            "prefetch distance d",
            "hit rate (%)",
        );
        for fine in [false, true] {
            let design = if fine {
                "fine-grained (fMoE)"
            } else {
                "coarse-grained (EAM)"
            };
            let mut row = vec![model.name.clone(), design.into()];
            let mut points = Vec::new();
            for &d in &DISTANCES {
                let coverage = probe(&model, d, fine);
                row.push(format!("{:.1}%", coverage * 100.0));
                points.push((f64::from(d), coverage * 100.0));
            }
            plot.series(Series::new(design, points));
            table.row(row);
        }
        let _ = plot.write_svg(
            &cli,
            &format!(
                "fig4_{}",
                model.name.to_ascii_lowercase().replace(['.', ' '], "_")
            ),
        );
    }
    table.print();
    let _ = write_csv(&cli, &table, "fig4_prefetch_distance");
    println!("expected shape (paper Fig. 4): fine-grained well above coarse at");
    println!("every distance, degrading gracefully as d grows; coarse stays low.");
}
