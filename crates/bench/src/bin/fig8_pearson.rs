//! Figure 8: Pearson correlation between expert-map similarity scores
//! (semantic and trajectory) and the expert hit rate achieved when
//! following the matched maps, across 3 models × 2 datasets.
//!
//! Methodology (§4.3): per test iteration, run the map search, record the
//! match score, and measure the coverage the matched map's selections
//! achieve against the truly activated experts; then correlate over all
//! iterations.
//!
//! ```sh
//! cargo run --release -p fmoe-bench --bin fig8_pearson
//! ```

use fmoe::map::ExpertMap;
use fmoe::matcher::{Matcher, TrajectoryTracker};
use fmoe::selection::select_top_n;
use fmoe::store::ExpertMapStore;
use fmoe_bench::cli::Cli;
use fmoe_bench::report::{write_csv, Table};
use fmoe_model::gate::TokenSpan;
use fmoe_model::{presets, GateParams, GateSimulator, ModelConfig};
use fmoe_stats::pearson_correlation;
use fmoe_workload::{split, DatasetSpec, Prompt};

const DISTANCE: u32 = 3;

fn span_for(prompt: &Prompt, iter: u64) -> TokenSpan {
    if iter == 0 {
        TokenSpan::prefill(prompt.prompt_tokens)
    } else {
        TokenSpan::single(prompt.prompt_tokens + iter - 1)
    }
}

/// Collects per-iteration (semantic score, semantic coverage, trajectory
/// score, trajectory coverage) samples.
fn collect(model: &ModelConfig, dataset: &DatasetSpec) -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>) {
    let gate = GateSimulator::new(model.clone(), GateParams::for_model(model));
    let prompts = dataset.prompts(90);
    let (history, test) = split::paper_split(&prompts);
    let mut store = ExpertMapStore::new(
        1000,
        model.num_layers as usize,
        model.experts_per_layer as usize,
        DISTANCE,
    );
    for p in &history {
        for iter in 0..p.iterations().min(6) {
            let span = span_for(p, iter);
            let rows: Vec<Vec<f64>> = (0..model.num_layers)
                .map(|l| gate.iteration_distribution(p.routing, iter, l, span))
                .collect();
            let emb = gate.semantic_embedding(p.routing, iter);
            store.insert(emb, ExpertMap::new(rows)).unwrap();
        }
    }

    let budget = model.top_k as usize + 1;
    let mut sem_scores = Vec::new();
    let mut sem_cov = Vec::new();
    let mut traj_scores = Vec::new();
    let mut traj_cov = Vec::new();
    for p in test.iter().take(12) {
        for iter in 0..p.iterations().min(8) {
            let span = span_for(p, iter);
            // Semantic: match by embedding, score coverage over the first
            // d layers of the matched map.
            if let Some(m) =
                Matcher::semantic_match(&store, &gate.semantic_embedding(p.routing, iter)).unwrap()
            {
                let entry = store.entry(m.entry_index);
                let mut hits = 0usize;
                let mut total = 0usize;
                for l in 0..DISTANCE {
                    let sel = select_top_n(entry.layer(l as usize), budget);
                    for slot in gate.activated_slots(p.routing, iter, l, span) {
                        total += 1;
                        if sel.iter().any(|&(s, _)| s as u32 == slot) {
                            hits += 1;
                        }
                    }
                }
                if total > 0 {
                    sem_scores.push(m.score);
                    sem_cov.push(hits as f64 / total as f64);
                }
            }
            // Trajectory: per layer, match on the observed prefix and
            // score the matched map's selections at layer l + d.
            let mut tracker = TrajectoryTracker::new();
            tracker.reset(&store);
            let mut hits = 0usize;
            let mut total = 0usize;
            let mut score_sum = 0.0;
            let mut score_n = 0.0;
            for l in 0..model.num_layers {
                let dist = gate.iteration_distribution(p.routing, iter, l, span);
                tracker.observe_layer(&store, &dist);
                let target = l + DISTANCE;
                if target >= model.num_layers {
                    continue;
                }
                if let Some(m) = tracker.best(&store) {
                    let entry = store.entry(m.entry_index);
                    let sel = select_top_n(entry.layer(target as usize), budget);
                    for slot in gate.activated_slots(p.routing, iter, target, span) {
                        total += 1;
                        if sel.iter().any(|&(s, _)| s as u32 == slot) {
                            hits += 1;
                        }
                    }
                    score_sum += m.score;
                    score_n += 1.0;
                }
            }
            if total > 0 && score_n > 0.0 {
                traj_scores.push(score_sum / score_n);
                traj_cov.push(hits as f64 / total as f64);
            }
        }
    }
    (sem_scores, sem_cov, traj_scores, traj_cov)
}

fn main() {
    let cli = Cli::parse(&[]);
    let mut table = Table::new(
        "Figure 8: Pearson correlation between similarity score and hit rate",
        &["model", "dataset", "semantic r", "trajectory r", "samples"],
    );
    for model in presets::evaluation_models() {
        for dataset in DatasetSpec::evaluation_datasets() {
            let (ss, sc, ts, tc) = collect(&model, &dataset);
            let sem_r = pearson_correlation(&ss, &sc).unwrap_or(f64::NAN);
            let traj_r = pearson_correlation(&ts, &tc).unwrap_or(f64::NAN);
            table.row(vec![
                model.name.clone(),
                dataset.name.clone(),
                format!("{sem_r:.3}"),
                format!("{traj_r:.3}"),
                format!("{}/{}", ss.len(), ts.len()),
            ]);
        }
    }
    table.print();
    let _ = write_csv(&cli, &table, "fig8_pearson");
    println!("expected shape (paper Fig. 8): clearly positive coefficients for");
    println!("both search modes across all models and datasets — high scores");
    println!("justify trusting the matched map (the basis for the dynamic δ).");
}
