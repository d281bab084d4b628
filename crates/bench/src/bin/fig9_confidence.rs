//! Confidence companion to Figure 9: the headline comparison repeated
//! over several independent router seeds, reporting mean ± std so the
//! orderings can be checked against run-to-run variance (the paper's
//! testbed runs average over requests; our simulator can also average
//! over *worlds*).
//!
//! ```sh
//! cargo run --release -p fmoe-bench --bin fig9_confidence [--seeds N]
//! ```

use fmoe_bench::cli::{Cli, Flag};
use fmoe_bench::harness::{CellConfig, System};
use fmoe_bench::report::{write_csv, Table};
use fmoe_model::presets;
use fmoe_stats::Summary;
use fmoe_workload::DatasetSpec;

const SEEDS: Flag = Flag::value("--seeds", "router seeds to average over (default 5)");

fn main() {
    let cli = Cli::parse(&[SEEDS]);
    let seeds = cli.value(SEEDS).unwrap_or(5) as u64;

    let mut table = Table::new(
        &format!("Figure 9 with confidence: mean +/- std over {seeds} router seeds (Mixtral-8x7B, LMSYS)"),
        &["system", "TTFT (ms)", "TPOT (ms)", "hit rate"],
    );
    let model = presets::mixtral_8x7b();
    let mut fmoe_tpots: Vec<f64> = Vec::new();
    let mut baseline_means: Vec<f64> = Vec::new();

    for system in System::paper_lineup() {
        let mut ttft = Summary::new();
        let mut tpot = Summary::new();
        let mut hit = Summary::new();
        for seed in 0..seeds {
            let mut cell = CellConfig::new(model.clone(), DatasetSpec::lmsys_chat(), system);
            cell.test_requests = 8;
            cell.max_decode = 16;
            cell.gate_seed = 0x5EED_0000 + seed * 0x1111;
            let a = cell.run_offline().aggregate;
            ttft.record(a.mean_ttft_ms);
            tpot.record(a.mean_tpot_ms);
            hit.record(a.hit_rate);
            if system == System::Fmoe {
                fmoe_tpots.push(a.mean_tpot_ms);
            }
        }
        if system != System::Fmoe {
            baseline_means.push(tpot.mean());
        }
        table.row(vec![
            system.name().into(),
            format!("{:.0} +/- {:.0}", ttft.mean(), ttft.std_dev()),
            format!("{:.0} +/- {:.0}", tpot.mean(), tpot.std_dev()),
            format!(
                "{:.1}% +/- {:.1}",
                hit.mean() * 100.0,
                hit.std_dev() * 100.0
            ),
        ]);
    }
    table.print();
    let _ = write_csv(&cli, &table, "fig9_confidence");

    // Separation check: fMoE's worst seed vs the best baseline's mean.
    let fmoe_worst = fmoe_tpots.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let best_baseline = baseline_means.iter().copied().fold(f64::INFINITY, f64::min);
    println!(
        "fMoE's worst-seed TPOT ({fmoe_worst:.0} ms) vs best baseline mean ({best_baseline:.0} ms): \
         the ordering is {} to seed choice.",
        if fmoe_worst < best_baseline { "robust" } else { "sensitive" }
    );
}
