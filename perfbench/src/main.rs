//! `perfbench`: the repository's benchmark of the fMoE serving simulator.
//!
//! ```sh
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload offline-fmoe --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics on uninstrumented passes;
//! `--trace 1` runs the traced passes and prints the per-layer metrics.
//! Either way the last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. See `README.md`.

mod probe;
mod replay;
mod report;
mod workloads;

use probe::{lock, Probe, SharedProbe};
use report::{median, percentile, RunResult, MIN_TAIL_SAMPLES};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Instrument, Outcome, Prepared, Stages, Workload};

/// Fewest measured passes in an end-to-end run, however short `--seconds`.
const MIN_PASSES: usize = 3;
/// Extra set-up samples an end-to-end run takes before each pass (which
/// adds one of its own), while all extras fit in an eighth of `--seconds`:
/// a sub-millisecond set-up gets this many per pass, a seconds-long one a
/// few in all. Spreading them over the run keeps one slow stretch of the
/// machine from owning every sample.
const SETUPS_PER_PASS: usize = 25;

const USAGE: &str = "usage: perfbench --workload <offline-fmoe|online-burst|cluster-affinity> \
                     [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: Workload,
    seed: u64,
    budget: Duration,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, 10.0f64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?}")),
                };
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        budget: Duration::from_secs_f64(seconds),
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} budget {:.1}s trace {}",
        args.workload.name(),
        args.seed,
        args.budget.as_secs_f64(),
        u8::from(args.trace)
    );
    let run = if args.trace {
        traced_run(&args)
    } else {
        timed_run(&args)
    };
    match run {
        Ok(result) => {
            println!("{}", result.to_json());
            if result.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Output checks, merged by name (a check fails if any pass failed it).
#[derive(Default)]
struct Checks(BTreeMap<String, bool>);

impl Checks {
    fn add(&mut self, name: impl Into<String>, ok: bool) {
        *self.0.entry(name.into()).or_insert(true) &= ok;
    }

    fn outcome(&mut self, outcome: &Outcome) {
        for &(name, ok) in &outcome.checks {
            self.add(name, ok);
        }
        self.add("every request served or shed", outcome.lost() == 0);
    }

    /// Prints every check and returns whether all passed.
    fn report(&self) -> bool {
        for (name, ok) in &self.0 {
            println!("check {}: {name}", if *ok { "ok    " } else { "FAILED" });
        }
        self.0.values().all(|ok| *ok)
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Fills `result` with the virtual end-to-end metrics of `outcome`.
fn virtual_metrics(w: Workload, outcome: &Outcome, result: &mut RunResult, checks: &mut Checks) {
    let rows = &outcome.rows;
    let ttft: Vec<f64> = rows
        .iter()
        .map(|r| r.metrics.ttft_ns as f64 / 1e6)
        .collect();
    let tpot: Vec<f64> = rows
        .iter()
        .filter(|r| r.metrics.decode_iterations > 0)
        .map(|r| r.metrics.tpot_ns() / 1e6)
        .collect();
    let latency: Vec<f64> = rows.iter().map(|r| r.latency_ns() as f64 / 1e6).collect();
    for (name, values) in [("ttft", &ttft), ("tpot", &tpot), ("latency", &latency)] {
        for (q, tag) in [(0.5, "p50"), (0.9, "p90")] {
            let metric = format!("{name}_{tag}_ms");
            match percentile(values, q) {
                Some(v) => {
                    let rank = ((q * values.len() as f64).ceil() as usize).max(1);
                    println!(
                        "{metric}: {v:.3} ms over {} samples, {} beyond it",
                        values.len(),
                        values.len() - rank
                    );
                    result.put(&metric, v, "ms");
                }
                None => checks.add(
                    format!("{metric} has {MIN_TAIL_SAMPLES} samples beyond it"),
                    false,
                ),
            }
        }
    }
    let hits: u64 = rows.iter().map(|r| r.metrics.expert_hits).sum();
    let misses: u64 = rows.iter().map(|r| r.metrics.expert_misses).sum();
    result.put(
        "hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    let (ttft_limit, tpot_limit) = w.slo_ms();
    let met = rows
        .iter()
        .filter(|r| {
            r.metrics.ttft_ns as f64 / 1e6 <= ttft_limit
                && (r.metrics.decode_iterations == 0 || r.metrics.tpot_ns() / 1e6 <= tpot_limit)
        })
        .count();
    result.put(
        "slo_attainment",
        met as f64 / outcome.sent.max(1) as f64,
        "ratio",
    );
    println!(
        "requests: {} sent, {} served, {} shed; {met} met TTFT <= {ttft_limit} ms and TPOT <= {tpot_limit} ms",
        outcome.sent,
        rows.len(),
        outcome.shed.len()
    );
}

/// `VmHWM` (peak resident set) of this process, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// Sets up and serves once; returns the set-up stages too.
fn pass(args: &Args, instrument: &Instrument) -> Result<(Prepared, Stages, Outcome), String> {
    let (mut prepared, stages) = args.workload.setup(args.seed, instrument);
    let outcome = prepared.serve()?;
    Ok((prepared, stages, outcome))
}

fn finish(mut result: RunResult, checks: &Checks) -> RunResult {
    let finite = result.metrics.values().all(|m| m.value.is_finite());
    result.correct = checks.report() && finite;
    result
}

/// The end-to-end run: uninstrumented passes until `--seconds` is spent.
fn timed_run(args: &Args) -> Result<RunResult, String> {
    let start = Instant::now();
    let mut checks = Checks::default();
    let mut setup_s = Vec::new();
    let mut extra = Duration::ZERO;
    let mut tokens_per_s = Vec::new();
    let mut first: Option<Outcome> = None;
    let mut attempted = 0;
    let mut failed = 0;
    while tokens_per_s.len() < MIN_PASSES || start.elapsed() < args.budget {
        let batch = Instant::now();
        for _ in 0..SETUPS_PER_PASS {
            if extra + batch.elapsed() >= args.budget / 8 {
                break;
            }
            let (_, stages) = args.workload.setup(args.seed, &Instrument::Plain);
            setup_s.push(stages.total.as_secs_f64());
        }
        extra += batch.elapsed();
        let (_, stages, outcome) = pass(args, &Instrument::Plain)?;
        setup_s.push(stages.total.as_secs_f64());
        tokens_per_s.push(outcome.tokens() as f64 / outcome.serve_wall.as_secs_f64());
        checks.outcome(&outcome);
        attempted += outcome.sent as u64;
        failed += outcome.lost() as u64;
        match &first {
            None => first = Some(outcome),
            Some(f) => checks.add(
                "virtual outputs identical across repeats",
                f.digest() == outcome.digest(),
            ),
        }
    }
    let outcome = first.ok_or("no pass ran")?;
    println!(
        "{} passes, {} set-ups; virtual digest {:016x}",
        tokens_per_s.len(),
        setup_s.len(),
        outcome.digest()
    );
    println!("sim_tokens_per_s per pass: {tokens_per_s:.1?}");
    let mut result = RunResult {
        attempted,
        failed,
        ..RunResult::default()
    };
    result.put("setup_s", median(&setup_s), "s");
    result.put("sim_tokens_per_s", median(&tokens_per_s), "tok/s");
    virtual_metrics(args.workload, &outcome, &mut result, &mut checks);
    result.put("peak_rss_mb", peak_rss_mb()?, "MB");
    Ok(finish(result, &checks))
}

/// The first round of a traced run: what the per-layer metrics read.
struct Round {
    stages: Stages,
    plain: Outcome,
    prepared: Prepared,
    probed: Outcome,
    probe: SharedProbe,
    sunk: Outcome,
}

/// The traced run: per-layer metrics from a probed pass, a trace-sink
/// pass and replays, each compared against an uninstrumented pass.
fn traced_run(args: &Args) -> Result<RunResult, String> {
    let start = Instant::now();
    let mut checks = Checks::default();
    let mut plain_wall = Vec::new();
    let mut probed_wall = Vec::new();
    let mut sink_wall = Vec::new();
    let mut first: Option<Round> = None;
    let mut attempted = 0;
    let mut failed = 0;
    while first.is_none() || start.elapsed() < args.budget {
        let (_, stages, plain) = pass(args, &Instrument::Plain)?;
        let probe = SharedProbe::default();
        let (prepared, _, probed) = pass(args, &Instrument::Probed(probe.clone()))?;
        let (_, _, sunk) = pass(args, &Instrument::Sink)?;
        for outcome in [&plain, &probed, &sunk] {
            checks.outcome(outcome);
            attempted += outcome.sent as u64;
            failed += outcome.lost() as u64;
        }
        checks.add(
            "virtual outputs identical with the probe wrapper",
            plain.digest() == probed.digest(),
        );
        checks.add(
            "virtual outputs identical with trace sinks recording",
            plain.digest() == sunk.digest(),
        );
        plain_wall.push(plain.serve_wall.as_secs_f64());
        probed_wall.push(probed.serve_wall.as_secs_f64());
        sink_wall.push(sunk.serve_wall.as_secs_f64());
        match &first {
            None => {
                first = Some(Round {
                    stages,
                    plain,
                    prepared,
                    probed,
                    probe,
                    sunk,
                });
            }
            Some(round) => checks.add(
                "virtual outputs identical across repeats",
                round.plain.digest() == plain.digest(),
            ),
        }
    }
    let round = first.ok_or("no pass ran")?;
    let probe = std::mem::take(&mut *lock(&round.probe));
    println!(
        "{} traced rounds; virtual digest {:016x}",
        plain_wall.len(),
        round.plain.digest()
    );

    let mut result = RunResult {
        attempted,
        failed,
        ..RunResult::default()
    };
    setup_metrics(&round.stages, &mut result);
    let router_ms = layer_metrics(
        &round.prepared,
        &round.probed,
        &probe,
        &round.sunk,
        &mut result,
    );
    let core_ms = ms(probe.core_time());
    let engine_self_ms = ms(round.probed.engine_wall) - core_ms;
    result.put("serving.engine_self_ms", engine_self_ms, "ms");
    let serve_ms = ms(round.probed.serve_wall);
    println!(
        "reconcile serving: core {core_ms:.3} ms + engine self {engine_self_ms:.3} ms = {:.3} ms \
         vs serving wall {serve_ms:.3} ms, gap {:.3} ms",
        core_ms + engine_self_ms,
        serve_ms - (core_ms + engine_self_ms)
    );
    println!(
        "reconcile router: model.router_ms {router_ms:.3} <= serving.engine_self_ms {engine_self_ms:.3}, \
         gap {:.3} ms",
        engine_self_ms - router_ms
    );
    checks.add(
        "model.router_ms <= serving.engine_self_ms",
        router_ms <= engine_self_ms,
    );
    let plain_s = median(&plain_wall);
    result.put(
        "trace.bench_overhead_ratio",
        median(&probed_wall) / plain_s,
        "ratio",
    );
    result.put(
        "trace.sink_overhead_ratio",
        median(&sink_wall) / plain_s,
        "ratio",
    );
    Ok(finish(result, &checks))
}

fn setup_metrics(stages: &Stages, result: &mut RunResult) {
    for (name, d) in [
        ("setup.router_ms", stages.router),
        ("setup.inputs_ms", stages.inputs),
        ("setup.populate_ms", stages.populate),
        ("setup.engine_ms", stages.engine),
        ("setup.warmup_ms", stages.warmup),
    ] {
        result.put(name, ms(d), "ms");
    }
    println!(
        "reconcile set-up: stages sum {:.3} ms vs setup_s {:.3} ms, gap {:.6} ms",
        ms(stages.sum()),
        ms(stages.total),
        ms(stages.total) - ms(stages.sum())
    );
}

/// Per-layer metrics of the probed pass (counts, predictor spans and
/// replays) and of the sink pass; returns `model.router_ms`.
fn layer_metrics(
    prepared: &Prepared,
    probed: &Outcome,
    probe: &Probe,
    sunk: &Outcome,
    result: &mut RunResult,
) -> f64 {
    let model = prepared.gate.config();
    let j = model.experts_per_layer;

    // model: the router, replayed call by call.
    let router = replay::router(&prepared.gate, &probe.steps);
    let router_ms = ms(router.prefill + router.decode);
    result.put(
        "model.router_calls_prefill",
        router.prefill_calls as f64,
        "count",
    );
    result.put(
        "model.router_calls_decode",
        router.decode_calls as f64,
        "count",
    );
    let per_call_us = |d: Duration, n: u64| d.as_secs_f64() * 1e6 / n.max(1) as f64;
    result.put(
        "model.router_prefill_us",
        per_call_us(router.prefill, router.prefill_calls),
        "us",
    );
    result.put(
        "model.router_decode_us",
        per_call_us(router.decode, router.decode_calls),
        "us",
    );
    result.put("model.router_ms", router_ms, "ms");

    // core: the fMoE predictor, timed through the wrapper.
    result.put("core.begin_ms", ms(probe.begin), "ms");
    result.put("core.observe_ms", ms(probe.observe), "ms");
    result.put("core.end_ms", ms(probe.end), "ms");
    result.put("core.affinity_ms", ms(probe.affinity), "ms");
    result.put("core.calls", probe.calls as f64, "count");
    result.put("core.fetch_plans", probe.fetch_plans as f64, "count");
    result.put("core.advisory_plans", probe.advisory_plans as f64, "count");
    result.put(
        "core.store_entries",
        probe.store_entries.iter().sum::<usize>() as f64,
        "count",
    );
    let coverage = prepared.coverage();
    result.put("core.coverage", coverage.coverage, "ratio");
    result.put(
        "core.planned_per_layer",
        coverage.mean_planned_per_layer,
        "count",
    );

    // cache: the engine's counters plus a replay of the activation stream.
    let c = &probed.cache;
    result.put("cache.lookups", c.lookups as f64, "count");
    result.put("cache.hit_rate", c.hit_rate(), "ratio");
    result.put("cache.insertions", c.insertions as f64, "count");
    result.put("cache.evictions", c.evictions as f64, "count");
    result.put("cache.rejected_inserts", c.rejected_inserts as f64, "count");
    let (cache_replay, misses) = replay::cache(
        &prepared.gate,
        prepared.budget_bytes,
        prepared.topology.num_gpus,
        &router.activated,
    );
    result.put("cache.replay_ns_per_op", cache_replay.ns_per_op(), "ns");

    // memsim: the transfer engines' counters plus a replay.
    let t =
        |f: fn(&fmoe_memsim::TransferStats) -> u64| -> u64 { probed.transfer.iter().map(f).sum() };
    let prefetch_jobs = t(|s| s.prefetch_jobs);
    result.put("memsim.prefetch_jobs", prefetch_jobs as f64, "count");
    result.put(
        "memsim.prefetch_gb",
        t(|s| s.prefetch_bytes) as f64 / 1e9,
        "GB",
    );
    result.put(
        "memsim.prefetch_cancelled_ratio",
        t(|s| s.cancelled_jobs) as f64 / prefetch_jobs.max(1) as f64,
        "ratio",
    );
    result.put(
        "memsim.on_demand_loads",
        t(|s| s.on_demand_loads) as f64,
        "count",
    );
    result.put(
        "memsim.on_demand_gb",
        t(|s| s.on_demand_bytes) as f64 / 1e9,
        "GB",
    );
    result.put(
        "memsim.on_demand_blocked_ms",
        t(|s| s.on_demand_blocked_ns) as f64 / 1e6,
        "ms",
    );
    result.put(
        "memsim.all2all_ms_max_gpu",
        probed.all2all_max_gpu_ns as f64 / 1e6,
        "ms",
    );
    let transfer_replay = replay::transfer(
        &prepared.topology,
        model.expert_bytes(),
        j,
        &probe.steps,
        &misses,
    );
    result.put(
        "memsim.transfer_ns_per_op",
        transfer_replay.ns_per_op(),
        "ns",
    );

    // serving: the engine. The cluster hides its engines' Breakdown, so
    // that workload's comes from the sink pass's recorded traces.
    let breakdown = probed.breakdown.or(sunk.breakdown).unwrap_or_default();
    result.put(
        "memsim.peer_fetches",
        breakdown.peer_fetches as f64,
        "count",
    );
    let iterations = breakdown.iterations.max(1);
    result.put("serving.iterations", breakdown.iterations as f64, "count");
    result.put(
        "serving.elements_per_iteration",
        probe.begins as f64 / iterations as f64,
        "count",
    );
    result.put(
        "serving.iteration_wall_us",
        probed.engine_wall.as_secs_f64() * 1e6 / iterations as f64,
        "us",
    );
    for (name, ns) in [
        ("serving.context_ms", breakdown.context_collection_ns),
        ("serving.matching_ms", breakdown.matching_ns),
        ("serving.compute_ms", breakdown.compute_ns),
        ("serving.on_demand_wait_ms", breakdown.on_demand_wait_ns),
        (
            "serving.blocking_prefetch_ms",
            breakdown.blocking_prefetch_ns,
        ),
        ("serving.all2all_ms", breakdown.all2all_ns),
        ("serving.peer_fetch_ms", breakdown.peer_fetch_ns),
        ("serving.iteration_ms", breakdown.iteration_total_ns),
    ] {
        result.put(name, breakdown.per_iteration_ms(ns), "ms");
    }

    // serving::online: queueing and shedding.
    let queue: Vec<f64> = probed
        .rows
        .iter()
        .map(|r| r.queue_ns() as f64 / 1e6)
        .collect();
    result.put(
        "online.queue_p50_ms",
        percentile(&queue, 0.5).unwrap_or(0.0),
        "ms",
    );
    result.put(
        "online.queue_p90_ms",
        percentile(&queue, 0.9).unwrap_or(0.0),
        "ms",
    );
    result.put("online.shed", probed.shed.len() as f64, "count");

    // cluster: routing and replica balance.
    let cluster = probed.cluster.unwrap_or_default();
    result.put(
        "cluster.affinity_routed",
        cluster.routing.affinity_routed as f64,
        "count",
    );
    result.put(
        "cluster.jsq_fallbacks",
        cluster.routing.jsq_fallbacks as f64,
        "count",
    );
    result.put(
        "cluster.cold_fallbacks",
        cluster.routing.cold_fallbacks as f64,
        "count",
    );
    result.put(
        "cluster.queue_depth_max",
        cluster.queue_depth_max as f64,
        "count",
    );
    result.put(
        "cluster.queue_depth_mean",
        cluster.queue_depth_mean,
        "count",
    );
    result.put(
        "cluster.served_imbalance",
        cluster.served_imbalance,
        "ratio",
    );

    println!(
        "router replay: {} prefill calls {:.1} us each, {} decode calls {:.1} us each",
        router.prefill_calls,
        per_call_us(router.prefill, router.prefill_calls),
        router.decode_calls,
        per_call_us(router.decode, router.decode_calls)
    );
    println!(
        "cache replay: {} ops {:.1} ns/op; transfer replay: {} ops {:.1} ns/op",
        cache_replay.ops,
        cache_replay.ns_per_op(),
        transfer_replay.ops,
        transfer_replay.ns_per_op()
    );
    router_ms
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn arguments_parse_and_reject() {
        let a = args(&[
            "--workload",
            "online-burst",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .expect("valid arguments");
        assert_eq!(a.workload, Workload::OnlineBurst);
        assert_eq!(a.seed, 7);
        assert_eq!(a.budget, Duration::from_secs(3));
        assert!(a.trace);
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seed", "1"]).is_err(), "workload is required");
        assert!(args(&["--workload", "offline-fmoe", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "offline-fmoe", "--seconds", "-1"]).is_err());
        assert!(args(&["--workload"]).is_err());
    }
}
