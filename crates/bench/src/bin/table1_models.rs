//! Table 1: characteristics of the three MoE models in the evaluation.
//!
//! ```sh
//! cargo run --release -p fmoe-bench --bin table1_models
//! ```

use fmoe_bench::cli::Cli;
use fmoe_bench::report::{write_csv, Table};
use fmoe_model::presets;

fn main() {
    let cli = Cli::parse(&[]);
    let mut table = Table::new(
        "Table 1: Characteristics of three MoE models in evaluation",
        &[
            "MoE Model",
            "Params (active/total)",
            "Experts/Layer (active/total)",
            "Layers",
            "Expert size",
            "All experts",
        ],
    );
    for m in presets::evaluation_models() {
        table.row(vec![
            m.name.clone(),
            format!(
                "{:.1}B / {:.1}B",
                m.active_params() as f64 / 1e9,
                m.total_params() as f64 / 1e9
            ),
            format!("{} / {}", m.top_k, m.experts_per_layer),
            m.num_layers.to_string(),
            format!("{:.1} MB", m.expert_bytes() as f64 / 1e6),
            format!("{:.1} GB", m.total_expert_bytes() as f64 / 1e9),
        ]);
    }
    table.print();
    match write_csv(&cli, &table, "table1_models") {
        Ok(path) => println!("csv: {}", path.display()),
        Err(e) => eprintln!("csv write failed: {e}"),
    }
    println!("\npaper values: Mixtral 12.9/46.7B (2/8, 32L), Qwen 2.7/14.3B (4/60, 24L), Phi 6.6/42B (2/16, 32L)");
}
