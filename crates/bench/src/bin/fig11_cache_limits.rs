//! Figure 11: TPOT under varying expert-cache limits (6 → 96 GB),
//! the latency–memory trade-off head-on — plus the eviction-policy
//! miss-ratio companion table (`fig11_policy_miss`): LRU/LFU/SIEVE/FIFO
//! replayed over one seeded Zipf expert trace at several cache sizes.
//!
//! ```sh
//! cargo run --release -p fmoe-bench --bin fig11_cache_limits [--quick] [--jobs N]
//! ```
//!
//! `--jobs N` fans the independent (model, system, budget) cells across
//! worker threads; output bytes are identical to a sequential run.

use fmoe_bench::cli::{Cli, JOBS};
use fmoe_bench::harness::{CellConfig, ParallelRunner, System};
use fmoe_bench::plot::{LinePlot, Series};
use fmoe_bench::policy_sweep::{replay_miss_ratio, zipf_expert_trace};
use fmoe_bench::report::{write_csv, Table};
use fmoe_cache::PolicyKind;
use fmoe_model::presets;
use fmoe_workload::DatasetSpec;

const BUDGETS_GB: [u64; 6] = [6, 12, 24, 48, 72, 96];

/// Cache sizes for the policy comparison, in expert slots (the small
/// test model has 64 experts, so this spans 12.5% → 75% residency).
const POLICY_SLOTS: [u64; 4] = [8, 16, 32, 48];

const POLICIES: [PolicyKind; 4] = [
    PolicyKind::Lru,
    PolicyKind::Lfu,
    PolicyKind::Sieve,
    PolicyKind::Fifo,
];

/// The eviction-policy miss-ratio table over one shared Zipf trace.
fn policy_miss_table(cli: &Cli, runner: &ParallelRunner) {
    let quick = cli.quick;
    let model = presets::small_test_model();
    let accesses = if quick { 6_000 } else { 24_000 };
    let trace = zipf_expert_trace(&model, accesses, 1.0, 0xf30e);
    let mut header = vec!["slots"];
    header.extend(POLICIES.map(PolicyKind::name));
    let mut table = Table::new(
        "Figure 11 companion: miss ratio by eviction policy (Zipf s=1.0)",
        &header,
    );
    let mut sweep = Vec::new();
    for &slots in &POLICY_SLOTS {
        for kind in POLICIES {
            sweep.push((slots, kind));
        }
    }
    let ratios = runner.run(&sweep, |_, (slots, kind)| {
        replay_miss_ratio(&model, *slots, *kind, &trace)
    });
    let mut results = sweep.iter().zip(ratios);
    for &slots in &POLICY_SLOTS {
        let mut row = vec![slots.to_string()];
        for kind in POLICIES {
            let ((p_slots, p_kind), ratio) = results.next().expect("one ratio per cell");
            assert_eq!((*p_slots, *p_kind), (slots, kind));
            row.push(format!("{ratio:.4}"));
        }
        table.row(row);
    }
    table.print();
    let _ = write_csv(cli, &table, "fig11_policy_miss");
}

fn main() {
    let cli = Cli::parse(&[JOBS]);
    let quick = cli.quick;
    let runner = ParallelRunner::from_cli(&cli);
    let mut table = Table::new(
        "Figure 11: TPOT (ms) under varying expert cache limits",
        &[
            "model", "system", "6GB", "12GB", "24GB", "48GB", "72GB", "96GB",
        ],
    );

    // Flatten the 3-deep sweep into independent points, run them on the
    // worker pool, then rebuild rows and plots in the original order.
    let mut sweep = Vec::new();
    for model in presets::evaluation_models() {
        for system in System::paper_lineup() {
            for &gb in &BUDGETS_GB {
                sweep.push((model.clone(), system, gb));
            }
        }
    }
    let tpots = runner.run(&sweep, |_, (model, system, gb)| {
        let mut cell = CellConfig::new(model.clone(), DatasetSpec::lmsys_chat(), *system);
        cell.cache_budget_bytes = gb << 30;
        cell.test_requests = if quick { 5 } else { 10 };
        cell.max_decode = if quick { 12 } else { 20 };
        cell.run_offline().aggregate.mean_tpot_ms
    });
    let mut results = sweep.iter().zip(tpots);

    for model in presets::evaluation_models() {
        let mut plot = LinePlot::new(
            &format!("Fig. 11 — TPOT vs expert cache limit ({})", model.name),
            "expert cache budget (GB)",
            "TPOT (ms)",
        );
        for system in System::paper_lineup() {
            let mut row = vec![model.name.clone(), system.name().into()];
            let mut points = Vec::new();
            for &gb in &BUDGETS_GB {
                let ((p_model, p_system, p_gb), tpot) =
                    results.next().expect("one result per sweep point");
                assert_eq!(
                    (p_model.name.as_str(), *p_system, *p_gb),
                    (model.name.as_str(), system, gb)
                );
                row.push(format!("{tpot:.0}"));
                points.push((gb as f64, tpot));
            }
            plot.series(Series::new(system.name(), points));
            table.row(row);
        }
        let _ = plot.write_svg(
            &cli,
            &format!(
                "fig11_{}",
                model.name.to_ascii_lowercase().replace(['.', ' '], "_")
            ),
        );
    }
    table.print();
    let _ = write_csv(&cli, &table, "fig11_cache_limits");
    policy_miss_table(&cli, &runner);
    println!("expected shape (paper Fig. 11): every system improves with more");
    println!("cache; fMoE stays lowest across the sweep, with the largest gaps");
    println!("at small budgets; curves converge as the budget approaches the");
    println!("model's full expert set (Qwen fits entirely from ~24 GB up).");
    println!("policy table: SIEVE should track LRU closely and beat FIFO on");
    println!("the skewed trace, at one visited-bit flip per hit instead of a");
    println!("list move.");
}
