//! Figure 16: CPU memory footprint of the Expert Map Store vs capacity.
//!
//! An entry stores `L·J` fp32 probabilities plus the semantic embedding;
//! Qwen1.5-MoE's 24×60 map is the widest, so it costs the most per entry.
//! The paper's point: even at 32K maps the store stays under 200 MB —
//! trivial next to host memory.
//!
//! ```sh
//! cargo run --release -p fmoe-bench --bin fig16_store_memory
//! ```

use fmoe::store::ExpertMapStore;
use fmoe_bench::cli::Cli;
use fmoe_bench::report::{write_csv, Table};
use fmoe_model::{presets, GateParams};

const CAPACITIES: [usize; 6] = [1_000, 2_000, 4_000, 8_000, 16_000, 32_000];

fn main() {
    let cli = Cli::parse(&[]);
    let mut table = Table::new(
        "Figure 16: Expert Map Store memory footprint (MB) vs capacity",
        &["model", "1K", "2K", "4K", "8K", "16K", "32K"],
    );
    for model in presets::evaluation_models() {
        let emb_dim = GateParams::for_model(&model).embedding_dim as usize;
        let mut row = vec![model.name.clone()];
        for &cap in &CAPACITIES {
            let store = ExpertMapStore::new(
                cap,
                model.num_layers as usize,
                model.experts_per_layer as usize,
                3,
            );
            row.push(format!(
                "{:.1}",
                store.memory_bytes_at_capacity(emb_dim) as f64 / 1e6
            ));
        }
        table.row(row);
    }
    table.print();
    let _ = write_csv(&cli, &table, "fig16_store_memory");
    println!("expected shape (paper Fig. 16): linear growth; Qwen1.5-MoE");
    println!("largest (widest maps); everything under 200 MB at 32K capacity.");
}
