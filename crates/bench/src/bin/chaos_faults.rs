//! Chaos benchmark: online serving under injected faults, sweeping fault
//! intensity × mitigation policy.
//!
//! Each cell replays the same Azure-style trace through an fMoE engine
//! while a seeded [`FaultSchedule`] degrades PCIe links, stalls them,
//! drops transfers, and squeezes the cache budget. Policies:
//!
//! * **none** — faults hit an unprotected engine (retry/backoff only).
//! * **deadline** — on-demand loads that cannot meet a deadline fall
//!   back to half-precision payloads.
//! * **shed** — requests whose queueing delay blows the SLO are rejected.
//! * **degrade** — SLO violators are served with half-precision
//!   on-demand loads instead of being shed.
//!
//! Emits a latency/goodput table plus raw CDF points as CSV. The shape
//! to look for: tail latency grows with intensity but stays *bounded*
//! under every mitigation, shed/degraded counters reconcile with the
//! trace length, and nothing hangs or panics even at intensity 0.9.
//!
//! ```sh
//! cargo run --release -p fmoe-bench --bin chaos_faults [--quick] [--jobs N]
//! ```
//!
//! `--jobs N` fans the independent (intensity, policy) cells across
//! worker threads; output bytes are identical to a sequential run.
//!
//! This bench injects faults *inside one engine* — degraded links,
//! dropped transfers, squeezed budgets. Its fleet-level counterpart is
//! `fig13_cluster_chaos`, where whole replicas crash, drain, and restart
//! (cold or donor-warmed) behind health-aware routing; see DESIGN.md §14.

use fmoe_bench::cli::{Cli, JOBS};
use fmoe_bench::harness::{CellConfig, ParallelRunner, System};
use fmoe_bench::report::{write_csv, Table};
use fmoe_memsim::clock::SECOND;
use fmoe_memsim::FaultSchedule;
use fmoe_model::presets;
use fmoe_serving::online::{serve, ServeOptions, SloPolicy};
use fmoe_stats::EmpiricalCdf;
use fmoe_workload::{AzureTraceSpec, DatasetSpec};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Policy {
    None,
    Deadline,
    Shed,
    Degrade,
}

impl Policy {
    fn all() -> [Policy; 4] {
        [
            Policy::None,
            Policy::Deadline,
            Policy::Shed,
            Policy::Degrade,
        ]
    }

    fn name(self) -> &'static str {
        match self {
            Policy::None => "none",
            Policy::Deadline => "deadline",
            Policy::Shed => "slo-shed",
            Policy::Degrade => "slo-degrade",
        }
    }
}

/// Everything one (intensity, policy) cell contributes to the report,
/// computed inside the worker and formatted afterwards on the main
/// thread.
struct ChaosOutcome {
    served: usize,
    shed: usize,
    degraded_serves: u64,
    goodput: f64,
    latencies: Vec<f64>,
    retries: u64,
    faults_injected: u64,
    failed_jobs: u64,
    backoff_ns: u64,
    degraded_loads: u64,
}

fn main() {
    let cli = Cli::parse(&[JOBS]);
    let quick = cli.quick;
    let runner = ParallelRunner::from_cli(&cli);
    let num_requests = if quick { 10 } else { 32 };
    let intensities: &[f64] = if quick {
        &[0.0, 0.6]
    } else {
        &[0.0, 0.3, 0.6, 0.9]
    };
    // Queueing budget for the SLO policies; generous enough that a
    // fault-free run serves everything, tight enough that heavy faults
    // force shedding/degradation.
    let slo_queueing_ns = 60 * SECOND;

    let model = presets::evaluation_models().remove(0);
    let mut table = Table::new(
        "Chaos: online latency and goodput under injected faults (fMoE engine)",
        &[
            "intensity",
            "policy",
            "served",
            "shed",
            "degraded",
            "goodput",
            "p50_s",
            "p99_s",
            "retries",
            "faults",
            "failed",
            "backoff_ms",
            "degr_loads",
        ],
    );
    let mut cdf_points = Table::new(
        "Chaos raw latency CDF points",
        &["intensity", "policy", "latency_s", "fraction"],
    );

    // Each (intensity, policy) cell builds its own engine, schedule and
    // trace, so the sweep fans out across the runner's workers; rows are
    // then emitted in sweep order for byte-identical output.
    let mut sweep = Vec::new();
    for &intensity in intensities {
        for policy in Policy::all() {
            sweep.push((intensity, policy));
        }
    }
    let outcomes = runner.run(&sweep, |_, &(intensity, policy)| {
        let mut cell = CellConfig::new(model.clone(), DatasetSpec::lmsys_chat(), System::Fmoe);
        cell.max_decode = if quick { 8 } else { 16 };
        cell.warmup_requests = 0;
        if policy == Policy::Deadline {
            // Four nominal expert transfers (PCIe 4.0 ×16 moves
            // ~32 B/ns): slack for queueing, but far less than a
            // stalled or 10×-degraded link needs.
            cell.on_demand_deadline_ns = Some(4 * (model.expert_bytes() / 32).max(1));
        }
        let gate = cell.gate();
        let mut predictor = cell.predictor(&gate, &[]);
        let mut engine = cell.engine(gate);

        let num_gpus = cell.topology.num_gpus;
        let horizon = 10 * 60 * SECOND;
        engine.set_fault_schedule(FaultSchedule::synthetic(
            0xC4A0_5000 + (intensity * 100.0) as u64,
            intensity,
            horizon,
            num_gpus,
        ));

        let mut spec = AzureTraceSpec::paper_online_serving(DatasetSpec::lmsys_chat());
        spec.num_requests = num_requests;
        let trace = spec.generate();

        let slo = match policy {
            Policy::Shed => Some(SloPolicy::shed(slo_queueing_ns)),
            Policy::Degrade => Some(SloPolicy::degrade(slo_queueing_ns)),
            Policy::None | Policy::Deadline => None,
        };
        let options = match slo {
            Some(policy) => ServeOptions::fcfs().with_slo(policy),
            None => ServeOptions::fcfs(),
        };
        let report = serve(&mut engine, &trace, predictor.as_mut(), &options)
            .expect("fcfs serving is infallible");
        assert_eq!(
            report.results.len() + report.shed.len(),
            trace.len(),
            "every trace request is served or shed"
        );

        let stats = engine.transfer_stats();
        ChaosOutcome {
            served: report.results.len(),
            shed: report.shed.len(),
            degraded_serves: report.degraded_serves,
            goodput: report.goodput(),
            latencies: report
                .results
                .iter()
                .map(|r| r.request_latency_ns() as f64 / 1e9)
                .collect(),
            retries: stats.retries,
            faults_injected: stats.faults_injected,
            failed_jobs: stats.failed_jobs,
            backoff_ns: stats.backoff_ns,
            degraded_loads: report
                .results
                .iter()
                .map(|r| r.metrics.degraded_loads)
                .sum(),
        }
    });

    for (&(intensity, policy), out) in sweep.iter().zip(&outcomes) {
        let cdf = EmpiricalCdf::new(out.latencies.clone());
        table.row(vec![
            format!("{intensity:.1}"),
            policy.name().into(),
            format!("{}", out.served),
            format!("{}", out.shed),
            format!("{}", out.degraded_serves),
            format!("{:.2}", out.goodput),
            format!("{:.1}", cdf.quantile(0.50).unwrap_or(0.0)),
            format!("{:.1}", cdf.quantile(0.99).unwrap_or(0.0)),
            format!("{}", out.retries),
            format!("{}", out.faults_injected),
            format!("{}", out.failed_jobs),
            format!("{:.1}", out.backoff_ns as f64 / 1e6),
            format!("{}", out.degraded_loads),
        ]);
        for (v, f) in cdf.points(24) {
            cdf_points.row(vec![
                format!("{intensity:.1}"),
                policy.name().into(),
                format!("{v:.2}"),
                format!("{f:.4}"),
            ]);
        }
    }

    table.print();
    let _ = write_csv(&cli, &table, "chaos_goodput");
    let _ = write_csv(&cli, &cdf_points, "chaos_latency_cdf");
    println!("expected shape: as intensity rises, 'none' p99 balloons while the");
    println!("mitigations keep it bounded — shedding trades goodput for latency,");
    println!("degrade/deadline trade precision for it. (The SLO policies also");
    println!("act at intensity 0.0: the trace itself is bursty enough to queue");
    println!("past the budget.)");
}
