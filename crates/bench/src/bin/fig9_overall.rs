//! Figure 9 (+ §6.2 headline numbers): overall prefill/decode performance
//! of fMoE and the four baselines across 3 models × 2 datasets.
//!
//! ```sh
//! cargo run --release -p fmoe-bench --bin fig9_overall [--quick] [--trace] [--jobs N]
//! ```
//!
//! `--jobs N` fans the independent (model, dataset, system) cells across
//! N worker threads (default: available parallelism). Output is
//! byte-identical to the sequential run — see `ParallelRunner`.
//!
//! With `--trace`, one representative fMoE cell is re-run with the
//! deterministic trace recorder on, emitting a Chrome-trace timeline
//! (`results/fig9_overall_trace.json`, loadable in `chrome://tracing` or
//! Perfetto), a per-phase time breakdown
//! (`results/fig9_overall_phases.csv`), and the run's counters
//! (`results/fig9_overall_metrics.csv`). Like every artifact of a
//! `--quick` run, they land under `results/quick/` instead.

use fmoe_bench::cli::{Cli, JOBS, TRACE};
use fmoe_bench::harness::{CellConfig, ParallelRunner, System};
use fmoe_bench::report::{write_csv, write_result, Table};
use fmoe_model::presets;
use fmoe_workload::DatasetSpec;

fn main() {
    let cli = Cli::parse(&[JOBS, TRACE]);
    let quick = cli.quick;
    let runner = ParallelRunner::from_cli(&cli);
    let (requests, decode) = if quick { (6, 16) } else { (14, 24) };

    let mut table = Table::new(
        "Figure 9: overall TTFT / TPOT / expert hit rate (offline, 70/30 split)",
        &[
            "model",
            "dataset",
            "system",
            "TTFT (ms)",
            "TPOT (ms)",
            "hit rate",
        ],
    );

    // Per-system accumulators for the §6.2 averages.
    let systems = System::paper_lineup();
    let mut sums = vec![(0.0f64, 0.0f64, 0.0f64, 0u32); systems.len()];

    // Every (model, dataset, system) cell is independent: enumerate them
    // in the original loop order, fan the runs across the runner's
    // workers, then emit rows and accumulate sums sequentially in that
    // same order, so table, CSV bytes and float-summation order are
    // identical to a `--jobs 1` run.
    let mut points = Vec::new();
    for model in presets::evaluation_models() {
        for dataset in DatasetSpec::evaluation_datasets() {
            for &system in &systems {
                points.push((model.clone(), dataset.clone(), system));
            }
        }
    }
    let outcomes = runner.run(&points, |_, (model, dataset, system)| {
        let mut cell = CellConfig::new(model.clone(), dataset.clone(), *system);
        cell.test_requests = requests;
        cell.max_decode = decode;
        cell.run_offline()
    });
    for ((model, dataset, system), out) in points.iter().zip(&outcomes) {
        let si = systems
            .iter()
            .position(|s| s == system)
            .expect("point systems come from the lineup");
        let a = &out.aggregate;
        table.row(vec![
            model.name.clone(),
            dataset.name.clone(),
            system.name().into(),
            format!("{:.1}", a.mean_ttft_ms),
            format!("{:.1}", a.mean_tpot_ms),
            format!("{:.1}%", a.hit_rate * 100.0),
        ]);
        let s = &mut sums[si];
        s.0 += a.mean_ttft_ms;
        s.1 += a.mean_tpot_ms;
        s.2 += a.hit_rate;
        s.3 += 1;
    }
    table.print();
    let _ = write_csv(&cli, &table, "fig9_overall");

    // §6.2 headline summary: fMoE's average reductions/improvements.
    let avg: Vec<(f64, f64, f64)> = sums
        .iter()
        .map(|s| {
            (
                s.0 / f64::from(s.3),
                s.1 / f64::from(s.3),
                s.2 / f64::from(s.3),
            )
        })
        .collect();
    let fmoe_idx = systems
        .iter()
        .position(|s| *s == System::Fmoe)
        .expect("lineup has fMoE");
    let (f_ttft, f_tpot, f_hit) = avg[fmoe_idx];

    let mut summary = Table::new(
        "Section 6.2 summary: fMoE vs each baseline (averages over all cells)",
        &[
            "baseline",
            "avg TTFT",
            "avg TPOT",
            "avg hit",
            "fMoE dTTFT",
            "fMoE dTPOT",
            "fMoE dhit",
        ],
    );
    for (si, &system) in systems.iter().enumerate() {
        if system == System::Fmoe {
            continue;
        }
        let (t, p, h) = avg[si];
        summary.row(vec![
            system.name().into(),
            format!("{t:.0} ms"),
            format!("{p:.0} ms"),
            format!("{:.1}%", h * 100.0),
            format!("{:+.0}%", (f_ttft / t - 1.0) * 100.0),
            format!("{:+.0}%", (f_tpot / p - 1.0) * 100.0),
            format!("{:+.0}%", (f_hit / h - 1.0) * 100.0),
        ]);
    }
    summary.row(vec![
        "fMoE (ours)".into(),
        format!("{f_ttft:.0} ms"),
        format!("{f_tpot:.0} ms"),
        format!("{:.1}%", f_hit * 100.0),
        "-".into(),
        "-".into(),
        "-".into(),
    ]);
    summary.print();
    let _ = write_csv(&cli, &summary, "fig9_summary");

    println!("paper (§6.2): TTFT -44/-35/-33/-30%, TPOT -70/-61/-55/-48%,");
    println!("hit +147/+11/+34/+63% vs DeepSpeed/Mixtral-Off./ProMoE/MoE-Inf.");

    if cli.has(TRACE) {
        emit_trace_artifacts(&cli, requests, decode);
    }
}

/// Re-runs the first evaluation cell (fMoE) with the trace recorder on
/// and writes the Chrome-trace JSON, per-phase breakdown CSV, and
/// metrics CSV next to the other results.
fn emit_trace_artifacts(cli: &Cli, requests: usize, decode: u64) {
    let model = presets::evaluation_models().remove(0);
    let dataset = DatasetSpec::evaluation_datasets().remove(0);
    let mut cell = CellConfig::new(model, dataset, System::Fmoe);
    cell.test_requests = requests;
    cell.max_decode = decode;
    let traced = cell.run_offline_traced(1 << 20);

    let json = fmoe_trace::chrome_trace_json(&traced.records);
    match write_result(cli, "fig9_overall_trace.json", &json) {
        Ok(path) => println!(
            "wrote {} ({} events, {} dropped)",
            path.display(),
            traced.records.len(),
            traced.dropped_records
        ),
        Err(e) => eprintln!("cannot write trace JSON: {e}"),
    }

    let mut phases = Table::new(
        "Figure 9 phase breakdown (fMoE, first cell, traced run)",
        &["phase", "total (ms)"],
    );
    for (phase, total_ns) in fmoe_trace::phase_totals(&traced.records) {
        phases.row(vec![
            phase.to_string(),
            format!("{:.3}", total_ns as f64 / 1e6),
        ]);
    }
    phases.print();
    let _ = write_csv(cli, &phases, "fig9_overall_phases");

    match write_result(cli, "fig9_overall_metrics.csv", traced.metrics.to_csv()) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("cannot write metrics CSV: {e}"),
    }
}
