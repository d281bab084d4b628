//! Extension experiment (not a paper figure): multi-turn conversations.
//!
//! LMSYS-Chat-1M is a dialogue dataset, and a dialogue is the friendliest
//! workload for fMoE's semantic search: turn `t`'s expert maps land in the
//! store and predict turn `t+1` almost perfectly, while request-level
//! trackers see only washed-out aggregates. This experiment serves
//! multi-turn conversations from a *cold* store and reports the expert hit
//! rate by turn index, for fMoE and for MoE-Infinity.
//!
//! ```sh
//! cargo run --release -p fmoe-bench --bin ext_conversations
//! ```

use fmoe_bench::cli::Cli;
use fmoe_bench::harness::{CellConfig, System};
use fmoe_bench::report::{write_csv, Table};
use fmoe_model::presets;
use fmoe_stats::Summary;
use fmoe_workload::{ConversationSpec, DatasetSpec};

const TURNS: u64 = 4;

fn per_turn_hit_rates(system: System) -> Vec<f64> {
    let model = presets::mixtral_8x7b();
    let mut cell = CellConfig::new(model, DatasetSpec::lmsys_chat(), system);
    cell.max_decode = 12;
    let spec = ConversationSpec::chat(DatasetSpec::lmsys_chat(), 8, TURNS);
    let gate = cell.gate();
    // Cold start: no history population.
    let mut predictor = cell.predictor(&gate, &[]);
    let mut engine = cell.engine(gate);
    let mut per_turn: Vec<Summary> = (0..TURNS).map(|_| Summary::new()).collect();
    for turn in spec.turns() {
        let m = engine.serve_request(turn.prompt, predictor.as_mut());
        per_turn[turn.turn as usize].record(m.hit_rate());
    }
    per_turn.iter().map(Summary::mean).collect()
}

fn main() {
    let cli = Cli::parse(&[]);
    let mut table = Table::new(
        "Extension: expert hit rate by conversation turn (cold store, Mixtral-8x7B)",
        &["system", "turn 1", "turn 2", "turn 3", "turn 4"],
    );
    for system in [System::Fmoe, System::MoeInfinity, System::ProMoe] {
        let rates = per_turn_hit_rates(system);
        let mut row = vec![system.name().to_string()];
        row.extend(rates.iter().map(|r| format!("{:.1}%", r * 100.0)));
        table.row(row);
    }
    table.print();
    let _ = write_csv(&cli, &table, "ext_conversations");
    println!("expected: fMoE's hit rate jumps after turn 1 — the dialogue's own");
    println!("history becomes its best predictor via semantic search — while");
    println!("coarse trackers improve far less from the same observations.");
}
