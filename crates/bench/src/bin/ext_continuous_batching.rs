//! Extension experiment (not a paper figure): continuous batching.
//!
//! The paper serves requests through static batches (Fig. 14b sweeps
//! B = 1..4). Production systems instead admit requests into the running
//! batch at iteration boundaries and retire them as they finish. Our
//! engine supports both; this experiment replays the same Azure-style
//! trace through the sequential FCFS scheduler and through continuous
//! batching at several slot counts, with fMoE as the offloading policy.
//!
//! ```sh
//! cargo run --release -p fmoe-bench --bin ext_continuous_batching
//! ```

use fmoe_bench::cli::Cli;
use fmoe_bench::harness::{CellConfig, System};
use fmoe_bench::report::{write_csv, Table};
use fmoe_model::presets;
use fmoe_serving::online::{serve, ServeOptions};
use fmoe_stats::EmpiricalCdf;
use fmoe_workload::{AzureTraceSpec, DatasetSpec};

fn main() {
    let cli = Cli::parse(&[]);
    let model = presets::phi35_moe();
    let mut spec = AzureTraceSpec::paper_online_serving(DatasetSpec::lmsys_chat());
    spec.num_requests = 32;
    // Make the trace hot enough that queueing matters.
    spec.quiet_interarrival_ms = 400.0;
    let trace = spec.generate();

    let mut table = Table::new(
        "Extension: FCFS vs continuous batching (Phi-3.5-MoE, fMoE policy, hot trace)",
        &[
            "scheduler",
            "p50 latency",
            "p95 latency",
            "makespan",
            "mean TTFT",
        ],
    );

    let mut run = |name: &str, slots: Option<usize>| {
        let mut cell = CellConfig::new(model.clone(), DatasetSpec::lmsys_chat(), System::Fmoe);
        cell.max_decode = 24;
        cell.warmup_requests = 0;
        let gate = cell.gate();
        let mut predictor = cell.predictor(&gate, &[]);
        let mut engine = cell.engine(gate);
        let options = match slots {
            None => ServeOptions::fcfs(),
            Some(s) => ServeOptions::continuous(s),
        };
        let results = serve(&mut engine, &trace, predictor.as_mut(), &options)
            .expect("serving succeeds")
            .results;
        let latencies: Vec<f64> = results
            .iter()
            .map(|r| r.request_latency_ns() as f64 / 1e6)
            .collect();
        let cdf = EmpiricalCdf::new(latencies);
        let makespan = results.iter().map(|r| r.finish_ns).max().unwrap_or(0) as f64 / 1e6;
        let mean_ttft = results
            .iter()
            .map(|r| r.metrics.ttft_ns as f64 / 1e6)
            .sum::<f64>()
            / results.len() as f64;
        table.row(vec![
            name.into(),
            format!("{:.0} ms", cdf.quantile(0.5).unwrap_or(0.0)),
            format!("{:.0} ms", cdf.quantile(0.95).unwrap_or(0.0)),
            format!("{:.1} s", makespan / 1000.0),
            format!("{mean_ttft:.0} ms"),
        ]);
    };

    run("FCFS (sequential)", None);
    for slots in [2usize, 4, 8] {
        run(&format!("continuous, {slots} slots"), Some(slots));
    }

    table.print();
    let _ = write_csv(&cli, &table, "ext_continuous_batching");
    println!("expected: continuous batching shrinks queueing-dominated tail");
    println!("latency and makespan as slots grow; per-request TTFT rises a");
    println!("little (shared iterations are heavier) — the classic trade.");
}
