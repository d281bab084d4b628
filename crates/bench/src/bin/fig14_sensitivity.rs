//! Figure 14: sensitivity to Expert Map Store capacity and batch size.
//!
//! * 14a — mean semantic and trajectory similarity scores found during
//!   serving, as the store capacity grows. Scores climb steeply below
//!   ~1K maps, then flatten (why the paper — and we — default to 1K).
//! * 14b — TTFT/TPOT of fMoE and three baselines at batch sizes 1..4
//!   (Mixtral-8×7B, LMSYS-like).
//!
//! ```sh
//! cargo run --release -p fmoe-bench --bin fig14_sensitivity [--capacity|--batch]
//! ```

use fmoe::map::ExpertMap;
use fmoe::matcher::{Matcher, TrajectoryTracker};
use fmoe::store::ExpertMapStore;
use fmoe_bench::cli::{Cli, Flag};
use fmoe_bench::harness::{CellConfig, System};
use fmoe_bench::report::{write_csv, Table};
use fmoe_model::gate::TokenSpan;
use fmoe_model::{presets, GateParams, GateSimulator};
use fmoe_workload::{split, DatasetSpec};

const CAPACITIES: [usize; 7] = [32, 64, 128, 256, 512, 1024, 2048];

fn capacity_sweep(cli: &Cli) {
    let mut table = Table::new(
        "Figure 14a: mean similarity scores vs Expert Map Store capacity",
        &[
            "model", "score", "C=32", "C=64", "C=128", "C=256", "C=512", "C=1024", "C=2048",
        ],
    );
    for model in presets::evaluation_models() {
        let gate = GateSimulator::new(model.clone(), GateParams::for_model(&model));
        let dataset = DatasetSpec::lmsys_chat();
        let prompts = dataset.prompts(700);
        let (history, test) = split::paper_split(&prompts);
        let test: Vec<_> = test.into_iter().take(10).collect();

        let mut sem_row = vec![model.name.clone(), "semantic".into()];
        let mut traj_row = vec![model.name.clone(), "trajectory".into()];
        for &cap in &CAPACITIES {
            let mut store = ExpertMapStore::new(
                cap,
                model.num_layers as usize,
                model.experts_per_layer as usize,
                3,
            );
            // Fill to capacity from history (dedup handles the overflow).
            'fill: for p in &history {
                for iter in 0..p.iterations().min(4) {
                    let span = if iter == 0 {
                        TokenSpan::prefill(p.prompt_tokens)
                    } else {
                        TokenSpan::single(p.prompt_tokens + iter - 1)
                    };
                    let rows: Vec<Vec<f64>> = (0..model.num_layers)
                        .map(|l| gate.iteration_distribution(p.routing, iter, l, span))
                        .collect();
                    let emb = gate.semantic_embedding(p.routing, iter);
                    store.insert(emb, ExpertMap::new(rows)).unwrap();
                    if store.stats().appended as usize >= cap * 3 {
                        break 'fill;
                    }
                }
            }

            let mut sem_sum = 0.0;
            let mut traj_sum = 0.0;
            let mut n = 0.0;
            for p in &test {
                for iter in 0..p.iterations().min(6) {
                    let span = if iter == 0 {
                        TokenSpan::prefill(p.prompt_tokens)
                    } else {
                        TokenSpan::single(p.prompt_tokens + iter - 1)
                    };
                    if let Some(m) =
                        Matcher::semantic_match(&store, &gate.semantic_embedding(p.routing, iter))
                            .unwrap()
                    {
                        sem_sum += m.score;
                    }
                    let mut tracker = TrajectoryTracker::new();
                    tracker.reset(&store);
                    for l in 0..model.num_layers.min(8) {
                        let dist = gate.iteration_distribution(p.routing, iter, l, span);
                        tracker.observe_layer(&store, &dist);
                    }
                    if let Some(m) = tracker.best(&store) {
                        traj_sum += m.score;
                    }
                    n += 1.0;
                }
            }
            sem_row.push(format!("{:.3}", sem_sum / n));
            traj_row.push(format!("{:.3}", traj_sum / n));
        }
        table.row(sem_row);
        table.row(traj_row);
    }
    table.print();
    let _ = write_csv(cli, &table, "fig14a_capacity");
    println!("expected shape (paper Fig. 14a): both scores rise steeply at");
    println!("small capacities and flatten near 1K maps — the paper's default.\n");
}

fn batch_sweep(cli: &Cli) {
    let mut table = Table::new(
        "Figure 14b: TTFT / TPOT (ms) vs inference batch size (Mixtral-8x7B)",
        &["system", "B=1", "B=2", "B=3", "B=4"],
    );
    let model = presets::mixtral_8x7b();
    for system in [
        System::MixtralOffloading,
        System::ProMoe,
        System::MoeInfinity,
        System::Fmoe,
    ] {
        let mut ttft_row = vec![format!("{} TTFT", system.name())];
        let mut tpot_row = vec![format!("{} TPOT", system.name())];
        for b in 1..=4usize {
            let mut cell = CellConfig::new(model.clone(), DatasetSpec::lmsys_chat(), system);
            cell.batch_size = b;
            cell.test_requests = 8;
            cell.max_decode = 16;
            let out = cell.run_offline();
            ttft_row.push(format!("{:.0}", out.aggregate.mean_ttft_ms));
            tpot_row.push(format!("{:.0}", out.aggregate.mean_tpot_ms));
        }
        table.row(ttft_row);
        table.row(tpot_row);
    }
    table.print();
    let _ = write_csv(cli, &table, "fig14b_batch");
    println!("expected shape (paper Fig. 14b): latencies grow with batch size");
    println!("(unions of activated experts widen); fMoE stays lowest in most cells.");
}

const CAPACITY: Flag = Flag::switch("--capacity", "run only the store-capacity sweep (Fig. 14a)");
const BATCH: Flag = Flag::switch("--batch", "run only the batch-size sweep (Fig. 14b)");

fn main() {
    let cli = Cli::parse(&[CAPACITY, BATCH]);
    if !cli.has(BATCH) {
        capacity_sweep(&cli);
    }
    if !cli.has(CAPACITY) {
        batch_sweep(&cli);
    }
}
