//! Figure 10: CDF of end-to-end request latency in online serving.
//!
//! Setup per §6.3: fMoE's Expert Map Store (and MoE-Infinity's matrix
//! collection) start *empty*; 64 requests sampled from an Azure-style
//! inference trace drive LMSYS-like prompts through a FCFS engine; the
//! reported latency includes queueing.
//!
//! ```sh
//! cargo run --release -p fmoe-bench --bin fig10_online_cdf [--quick] [--jobs N]
//! ```
//!
//! `--jobs N` fans the independent (model, system) cells across worker
//! threads; output bytes are identical to a sequential run.

use fmoe_bench::cli::{Cli, JOBS};
use fmoe_bench::harness::{CellConfig, ParallelRunner, System};
use fmoe_bench::plot::{LinePlot, Series};
use fmoe_bench::report::{write_csv, Table};
use fmoe_model::presets;
use fmoe_serving::online::{serve, ServeOptions};
use fmoe_stats::EmpiricalCdf;
use fmoe_workload::{AzureTraceSpec, DatasetSpec};

fn main() {
    let cli = Cli::parse(&[JOBS]);
    let quick = cli.quick;
    let runner = ParallelRunner::from_cli(&cli);
    let num_requests = if quick { 24 } else { 64 };

    let mut table = Table::new(
        "Figure 10: online request latency percentiles (ms, includes queueing)",
        &["model", "system", "p25", "p50", "p75", "p90", "p99"],
    );
    let mut cdf_points = Table::new(
        "Figure 10 raw CDF points",
        &["model", "system", "latency_ms", "fraction"],
    );

    // Fan out the independent (model, system) cells; each produces its
    // latency sample, and all formatting happens afterwards in the
    // original loop order.
    let mut points = Vec::new();
    for model in presets::evaluation_models() {
        for system in System::paper_lineup() {
            points.push((model.clone(), system));
        }
    }
    let samples = runner.run(&points, |_, (model, system)| {
        // Online: no history population — predictors learn on the fly.
        let mut cell = CellConfig::new(model.clone(), DatasetSpec::lmsys_chat(), *system);
        cell.max_decode = if quick { 16 } else { 24 };
        cell.warmup_requests = 0;
        let gate = cell.gate();
        let mut predictor = cell.predictor(&gate, &[]);
        let mut engine = cell.engine(gate);

        let mut spec = AzureTraceSpec::paper_online_serving(DatasetSpec::lmsys_chat());
        spec.num_requests = num_requests;
        let trace = spec.generate();
        let results = serve(
            &mut engine,
            &trace,
            predictor.as_mut(),
            &ServeOptions::fcfs(),
        )
        .expect("fcfs serving is infallible")
        .results;

        results
            .iter()
            .map(|r| r.request_latency_ns() as f64 / 1e6)
            .collect::<Vec<f64>>()
    });

    let mut cells = points.iter().zip(samples);
    for model in presets::evaluation_models() {
        let mut plot = LinePlot::new(
            &format!("Fig. 10 — online request-latency CDF ({})", model.name),
            "request latency (s)",
            "fraction of requests",
        );
        for system in System::paper_lineup() {
            let ((p_model, p_system), latencies) =
                cells.next().expect("one sample per (model, system) cell");
            assert_eq!(
                (p_model.name.as_str(), *p_system),
                (model.name.as_str(), system)
            );
            let cdf = EmpiricalCdf::new(latencies);
            table.row(vec![
                model.name.clone(),
                system.name().into(),
                format!("{:.0}", cdf.quantile(0.25).unwrap_or(0.0)),
                format!("{:.0}", cdf.quantile(0.50).unwrap_or(0.0)),
                format!("{:.0}", cdf.quantile(0.75).unwrap_or(0.0)),
                format!("{:.0}", cdf.quantile(0.90).unwrap_or(0.0)),
                format!("{:.0}", cdf.quantile(0.99).unwrap_or(0.0)),
            ]);
            let mut series_points = Vec::new();
            for (v, f) in cdf.points(32) {
                cdf_points.row(vec![
                    model.name.clone(),
                    system.name().into(),
                    format!("{v:.1}"),
                    format!("{f:.4}"),
                ]);
                series_points.push((v / 1000.0, f));
            }
            plot.series(Series::new(system.name(), series_points));
        }
        let _ = plot.write_svg(
            &cli,
            &format!(
                "fig10_{}",
                model.name.to_ascii_lowercase().replace(['.', ' '], "_")
            ),
        );
    }
    table.print();
    let _ = write_csv(&cli, &table, "fig10_online_percentiles");
    let _ = write_csv(&cli, &cdf_points, "fig10_online_cdf");
    println!("expected shape (paper Fig. 10): fMoE's CDF sits left of every");
    println!("baseline — lower latency at every percentile, even from a cold");
    println!("(empty-store) start.");
}
