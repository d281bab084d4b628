//! Figure 3: expert-pattern predictability in coarse vs. fine granularity.
//!
//! * 3a — coarse vs. fine activation heatmaps for Mixtral-8×7B
//!   (`--heatmap` prints them as ASCII).
//! * 3b — mean per-layer Shannon entropy of coarse-grained
//!   (request-level aggregated counts) vs. fine-grained (iteration-level)
//!   patterns, for 3 models × 2 datasets.
//! * 3c — entropy growth as activations aggregate over iterations.
//!
//! ```sh
//! cargo run --release -p fmoe-bench --bin fig3_entropy [--heatmap]
//! ```

use fmoe_bench::cli::{Cli, Flag};
use fmoe_bench::report::{write_csv, Table};
use fmoe_model::gate::TokenSpan;
use fmoe_model::{presets, GateParams, GateSimulator, ModelConfig};
use fmoe_stats::shannon_entropy_of_counts;
use fmoe_workload::DatasetSpec;

const REQUESTS: u64 = 40;
const ITERATIONS: u64 = 24;

fn gate_for(model: &ModelConfig) -> GateSimulator {
    GateSimulator::new(model.clone(), GateParams::for_model(model))
}

/// Per-request coarse and fine entropies, averaged over layers.
fn entropies(model: &ModelConfig, dataset: &DatasetSpec) -> (f64, f64) {
    let gate = gate_for(model);
    let j = model.experts_per_layer as usize;
    let mut coarse_sum = 0.0;
    let mut fine_sum = 0.0;
    let mut n = 0.0;
    for prompt in dataset.prompts(REQUESTS) {
        for layer in 0..model.num_layers {
            let mut request_counts = vec![0.0; j];
            let mut fine_acc = 0.0;
            let iters = prompt.iterations().clamp(1, ITERATIONS);
            for iter in 0..iters {
                let span = if iter == 0 {
                    TokenSpan::prefill(prompt.prompt_tokens)
                } else {
                    TokenSpan::single(prompt.prompt_tokens + iter - 1)
                };
                let mut iter_counts = vec![0.0; j];
                for slot in gate.activated_slots(prompt.routing, iter, layer, span) {
                    iter_counts[slot as usize] += 1.0;
                    request_counts[slot as usize] += 1.0;
                }
                fine_acc += shannon_entropy_of_counts(&iter_counts);
            }
            coarse_sum += shannon_entropy_of_counts(&request_counts);
            fine_sum += fine_acc / iters as f64;
            n += 1.0;
        }
    }
    (coarse_sum / n, fine_sum / n)
}

/// Entropy of counts aggregated over the first `i` iterations, mean over
/// layers and requests — the Fig. 3c growth curve.
fn entropy_through_iterations(model: &ModelConfig, dataset: &DatasetSpec) -> Vec<f64> {
    let gate = gate_for(model);
    let j = model.experts_per_layer as usize;
    let mut per_prefix = vec![0.0; ITERATIONS as usize];
    let mut n = 0.0;
    // Aggregate over *decode* iterations: the prefill step spans hundreds
    // of tokens and would saturate the window at i = 1 for long-prompt
    // datasets, hiding the growth the paper plots.
    for prompt in dataset.prompts(REQUESTS / 2) {
        for layer in (0..model.num_layers).step_by(4) {
            let mut counts = vec![0.0; j];
            for i in 0..ITERATIONS {
                let iter = i + 1;
                let span = TokenSpan::single(prompt.prompt_tokens + iter - 1);
                for slot in gate.activated_slots(prompt.routing, iter, layer, span) {
                    counts[slot as usize] += 1.0;
                }
                per_prefix[i as usize] += shannon_entropy_of_counts(&counts);
            }
            n += 1.0;
        }
    }
    per_prefix.iter().map(|e| e / n).collect()
}

fn heatmap(model: &ModelConfig) {
    let gate = gate_for(model);
    let dataset = DatasetSpec::lmsys_chat();
    let prompt = dataset.prompt(3);
    let j = model.experts_per_layer as usize;
    let shades = [' ', '.', ':', '+', '#', '@'];

    println!("fine-grained heatmaps (iterations 1..4), layers 0..16 x experts:");
    for iter in 1..=4u64 {
        println!("  iteration {iter}:");
        for layer in 0..16.min(model.num_layers) {
            let span = TokenSpan::single(prompt.prompt_tokens + iter - 1);
            let mut row = vec![0.0; j];
            for slot in gate.activated_slots(prompt.routing, iter, layer, span) {
                row[slot as usize] = 1.0;
            }
            let line: String = row
                .iter()
                .map(|&v| if v > 0.0 { '#' } else { '.' })
                .collect();
            println!("    L{layer:<2} {line}");
        }
    }

    println!(
        "\ncoarse-grained heatmap (aggregated over {} iterations):",
        ITERATIONS
    );
    for layer in 0..16.min(model.num_layers) {
        let mut counts = vec![0.0; j];
        for iter in 0..ITERATIONS {
            let span = if iter == 0 {
                TokenSpan::prefill(prompt.prompt_tokens)
            } else {
                TokenSpan::single(prompt.prompt_tokens + iter - 1)
            };
            for slot in gate.activated_slots(prompt.routing, iter, layer, span) {
                counts[slot as usize] += 1.0;
            }
        }
        let max = counts.iter().copied().fold(0.0, f64::max).max(1.0);
        let line: String = counts
            .iter()
            .map(|&c| shades[((c / max) * (shades.len() - 1) as f64) as usize])
            .collect();
        println!("    L{layer:<2} {line}");
    }
    println!("  (fine rows are sparse and structured; the aggregate washes out)\n");
}

const HEATMAP: Flag = Flag::switch("--heatmap", "also print a fine vs coarse map heatmap");

fn main() {
    let cli = Cli::parse(&[HEATMAP]);
    if cli.has(HEATMAP) {
        heatmap(&presets::mixtral_8x7b());
    }

    let mut t3b = Table::new(
        "Figure 3b: mean entropy per layer, coarse vs fine granularity (bits)",
        &["model", "dataset", "coarse", "fine", "uniform bound"],
    );
    for model in presets::evaluation_models() {
        for dataset in DatasetSpec::evaluation_datasets() {
            let (coarse, fine) = entropies(&model, &dataset);
            t3b.row(vec![
                model.name.clone(),
                dataset.name.clone(),
                format!("{coarse:.2}"),
                format!("{fine:.2}"),
                format!("{:.2}", f64::from(model.experts_per_layer).log2()),
            ]);
        }
    }
    t3b.print();
    let _ = write_csv(&cli, &t3b, "fig3b_entropy");

    let mut t3c = Table::new(
        "Figure 3c: entropy of patterns aggregated through iterations (bits)",
        &[
            "model", "dataset", "i=1", "i=2", "i=4", "i=8", "i=16", "i=24",
        ],
    );
    for model in presets::evaluation_models() {
        for dataset in DatasetSpec::evaluation_datasets() {
            let curve = entropy_through_iterations(&model, &dataset);
            t3c.row(vec![
                model.name.clone(),
                dataset.name.clone(),
                format!("{:.2}", curve[0]),
                format!("{:.2}", curve[1]),
                format!("{:.2}", curve[3]),
                format!("{:.2}", curve[7]),
                format!("{:.2}", curve[15]),
                format!("{:.2}", curve[23]),
            ]);
        }
    }
    t3c.print();
    let _ = write_csv(&cli, &t3c, "fig3c_entropy_iterations");

    println!("expected shape (paper Fig. 3): coarse >> fine everywhere; the");
    println!("aggregated entropy grows monotonically with the iteration window.");
}
