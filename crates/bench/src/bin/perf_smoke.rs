//! Perf smoke benchmark: wall-clock timings of fixed workloads, written
//! to `BENCH_perf.json` in the working directory. `scripts/perf_ab.sh`
//! runs it for the head and its parent in alternating rounds, and
//! `perf_gate` compares the two sets of runs (DESIGN.md §16).
//!
//! Scenarios:
//!
//! * `sweep_offline_jobs1` / `sweep_offline_jobsN` — the same fixed
//!   (model, dataset, system) cell sweep run through [`ParallelRunner`]
//!   sequentially and at `--jobs N` (default: available parallelism);
//!   the ratio is printed as the sweep speedup. The parallel leg only
//!   runs when the machine can actually run one: with a single effective
//!   worker (requested jobs clamped to one core) it is left out, since
//!   time-slicing N threads on one core would only measure scheduler
//!   overhead.
//! * `matcher_semantic_fast` / `matcher_semantic_reference` — the
//!   structure-of-arrays slab kernel vs the per-entry reference scan
//!   over an Expert Map Store.
//! * `matcher_trajectory_incremental` — the streaming trajectory tracker
//!   over the same store.
//! * `router_prefill` / `router_decode` — one `GateSimulator::route_into`
//!   call per iteration over a fixed set of Mixtral-8x7B coordinates, on
//!   a 512-token prefill span (subsampled to the 128-token cap) and on
//!   single-token decode spans.
//! * `predictor_observe` / `predictor_end` — the fMoE predictor on a full
//!   1000-entry Mixtral-8x7B store: one `begin_iteration` plus the 32
//!   `observe_gate` calls of an iteration, and one at-capacity
//!   `end_iteration` (the redundancy-scored deduplication). Both use a
//!   full-size store: smaller stores never fill.
//!
//! Every timed loop lasts about 100 ms or more on a 2-vCPU VM, and a
//! whole run about two seconds, so a gate can afford many rounds per
//! side.
//!
//! Wall-clock use is deliberate and confined to this binary: fmoe-lint's
//! FM002 allows `Instant` only in bench *binaries*, never in harness or
//! simulation code, so timings can never leak into simulated results.
//!
//! ```sh
//! cargo run --release -p fmoe-bench --bin perf_smoke [--jobs N]
//! ```

use fmoe::map::ExpertMap;
use fmoe::matcher::{Matcher, TrajectoryTracker};
use fmoe::predictor::HistoryRequest;
use fmoe::store::ExpertMapStore;
use fmoe::{FmoeConfig, FmoePredictor};
use fmoe_bench::harness::{CellConfig, ParallelRunner, System};
use fmoe_bench::perf::{PerfRecord, PerfReport};
use fmoe_model::gate::{GateScratch, TokenSpan};
use fmoe_model::{presets, GateParams, GateSimulator, RequestRouting};
use fmoe_serving::{ExpertPredictor, IterationContext};
use fmoe_workload::DatasetSpec;
use std::hint::black_box;
use std::time::Instant;

fn time_iters<F: FnMut()>(iters: u64, mut f: F) -> (f64, f64) {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let iters_per_s = if wall_ms > 0.0 {
        iters as f64 / (wall_ms / 1e3)
    } else {
        f64::INFINITY
    };
    (wall_ms, iters_per_s)
}

/// The fixed offline sweep every run times: one small fig9 cell per
/// system on the first (model, dataset) pair — enough cells to exercise
/// the runner at a cost of about a second.
fn sweep_points() -> Vec<(fmoe_model::ModelConfig, DatasetSpec, System)> {
    let model = &presets::evaluation_models()[0];
    let dataset = &DatasetSpec::evaluation_datasets()[0];
    System::paper_lineup()
        .into_iter()
        .map(|system| (model.clone(), dataset.clone(), system))
        .collect()
}

fn time_sweep(jobs: usize) -> PerfRecord {
    let points = sweep_points();
    let runner = ParallelRunner::new(jobs);
    let n = points.len() as u64;
    let (wall_ms, _) = time_iters(1, || {
        let outcomes = runner.run(&points, |_, (model, dataset, system)| {
            let mut cell = CellConfig::new(model.clone(), dataset.clone(), *system);
            cell.test_requests = 2;
            cell.max_decode = 6;
            cell.run_offline()
        });
        black_box(outcomes.len());
    });
    PerfRecord {
        scenario: if jobs == 1 {
            "sweep_offline_jobs1".to_string()
        } else {
            "sweep_offline_jobsN".to_string()
        },
        wall_ms,
        iters_per_s: n as f64 / (wall_ms / 1e3),
        jobs: runner.jobs(),
    }
}

fn build_store(capacity: usize) -> (GateSimulator, ExpertMapStore) {
    let model = presets::mixtral_8x7b();
    let gate = GateSimulator::new(model.clone(), GateParams::for_model(&model));
    let mut store = ExpertMapStore::new(
        capacity,
        model.num_layers as usize,
        model.experts_per_layer as usize,
        3,
    );
    let mut i = 0u64;
    while store.len() < capacity {
        let routing = RequestRouting {
            cluster: i % 40,
            request_seed: i,
        };
        let iter = i % 6;
        let span = TokenSpan::single(32 + iter);
        let rows: Vec<Vec<f64>> = (0..model.num_layers)
            .map(|l| gate.iteration_distribution(routing, iter, l, span))
            .collect();
        store.insert(gate.semantic_embedding(routing, iter), ExpertMap::new(rows));
        i += 1;
    }
    (gate, store)
}

fn matcher_records() -> Vec<PerfRecord> {
    // Each loop lasts about 100 ms or more, like every other scenario:
    // short loops swing by ±40% from run to run, more than the gate's
    // tolerance.
    let (iters, traj_iters) = (8_000, 8_000);
    let (gate, store) = build_store(300);
    let query = gate.semantic_embedding(
        RequestRouting {
            cluster: 3,
            request_seed: 999,
        },
        2,
    );
    let (fast_ms, fast_ips) = time_iters(iters, || {
        black_box(Matcher::semantic_match(&store, black_box(&query)));
    });
    let (ref_ms, ref_ips) = time_iters(iters, || {
        black_box(Matcher::semantic_match_reference(&store, black_box(&query)));
    });

    let dist = gate.iteration_distribution(
        RequestRouting {
            cluster: 5,
            request_seed: 4242,
        },
        1,
        0,
        TokenSpan::single(16),
    );
    let (traj_ms, traj_ips) = time_iters(traj_iters, || {
        let mut tracker = TrajectoryTracker::new();
        tracker.reset(&store);
        for _ in 0..8 {
            tracker.observe_layer(&store, black_box(&dist));
        }
        black_box(tracker.best(&store));
    });

    vec![
        PerfRecord {
            scenario: "matcher_semantic_fast".to_string(),
            wall_ms: fast_ms,
            iters_per_s: fast_ips,
            jobs: 1,
        },
        PerfRecord {
            scenario: "matcher_semantic_reference".to_string(),
            wall_ms: ref_ms,
            iters_per_s: ref_ips,
            jobs: 1,
        },
        PerfRecord {
            scenario: "matcher_trajectory_incremental".to_string(),
            wall_ms: traj_ms,
            iters_per_s: traj_ips,
            jobs: 1,
        },
    ]
}

/// The router kernel alone: `route_into` with one reused scratch, walking
/// requests × layers so every call routes fresh coordinates.
fn router_records() -> Vec<PerfRecord> {
    let (prefill_calls, decode_calls) = (2_000, 100_000);
    let gate = GateSimulator::with_defaults(presets::mixtral_8x7b());
    let layers = u64::from(gate.config().num_layers);
    let coords = |call: u64| {
        let routing = RequestRouting {
            cluster: call / layers % 40,
            request_seed: call / layers,
        };
        (routing, (call % layers) as u32)
    };
    let mut scratch = GateScratch::default();
    let mut call = 0u64;
    let (prefill_ms, prefill_ips) = time_iters(prefill_calls, || {
        let (routing, layer) = coords(call);
        gate.route_into(routing, 0, layer, TokenSpan::prefill(512), &mut scratch);
        black_box(&scratch);
        call += 1;
    });
    let mut call = 0u64;
    let (decode_ms, decode_ips) = time_iters(decode_calls, || {
        let (routing, layer) = coords(call);
        let iteration = 1 + call % 16;
        let span = TokenSpan::single(511 + iteration);
        gate.route_into(routing, iteration, layer, span, &mut scratch);
        black_box(&scratch);
        call += 1;
    });
    vec![
        PerfRecord {
            scenario: "router_prefill".to_string(),
            wall_ms: prefill_ms,
            iters_per_s: prefill_ips,
            jobs: 1,
        },
        PerfRecord {
            scenario: "router_decode".to_string(),
            wall_ms: decode_ms,
            iters_per_s: decode_ips,
            jobs: 1,
        },
    ]
}

/// The fMoE predictor's per-iteration work against a full store:
/// `predictor_observe` is one `begin_iteration` plus an `observe_gate` per
/// layer, `predictor_end` one at-capacity `end_iteration`. Both cycle
/// through a fixed set of decode iterations routed outside the timers.
fn predictor_records() -> Vec<PerfRecord> {
    const CAPACITY: usize = 1000;
    const QUERIES: u64 = 16;
    const ITERS: u64 = 500;
    let model = presets::mixtral_8x7b();
    let gate = GateSimulator::with_defaults(model.clone());
    let config = FmoeConfig::for_model(&model).with_capacity(&model, CAPACITY);
    let mut predictor = FmoePredictor::new(model.clone(), config);
    // 100 requests × 10 iterations fill the store exactly, without
    // running the deduplication.
    let history: Vec<HistoryRequest> = (0..100u64)
        .map(|i| HistoryRequest {
            routing: RequestRouting {
                cluster: i % 40,
                request_seed: i,
            },
            prompt_tokens: 64,
            iterations: 10,
        })
        .collect();
    predictor.populate_from_history(&gate, &history, 10);
    assert_eq!(predictor.store_len(), CAPACITY, "the store must be full");

    let mut scratch = GateScratch::default();
    let queries: Vec<(IterationContext, Vec<Vec<f64>>)> = (0..QUERIES)
        .map(|k| {
            let routing = RequestRouting {
                cluster: k % 40,
                request_seed: 10_000 + k,
            };
            let iteration = 1 + k % 8;
            let span = TokenSpan::single(64 + iteration);
            let rows = (0..model.num_layers)
                .map(|l| {
                    gate.route_into(routing, iteration, l, span, &mut scratch);
                    scratch.dist.clone()
                })
                .collect();
            let ctx = IterationContext {
                element: 0,
                request_id: 10_000 + k,
                iteration,
                is_prefill: false,
                span,
                embedding: gate.semantic_embedding(routing, iteration),
                routing,
            };
            (ctx, rows)
        })
        .collect();

    let mut call = 0usize;
    let (observe_ms, observe_ips) = time_iters(ITERS, || {
        let (ctx, rows) = &queries[call % queries.len()];
        black_box(predictor.begin_iteration(ctx));
        for (l, row) in (0u32..).zip(rows) {
            black_box(predictor.observe_gate(ctx, l, black_box(row)));
        }
        call += 1;
    });
    let mut call = 0usize;
    let (end_ms, end_ips) = time_iters(ITERS, || {
        let (ctx, rows) = &queries[call % queries.len()];
        predictor.end_iteration(ctx, black_box(rows));
        call += 1;
    });
    assert_eq!(predictor.store_len(), CAPACITY);
    vec![
        PerfRecord {
            scenario: "predictor_observe".to_string(),
            wall_ms: observe_ms,
            iters_per_s: observe_ips,
            jobs: 1,
        },
        PerfRecord {
            scenario: "predictor_end".to_string(),
            wall_ms: end_ms,
            iters_per_s: end_ips,
            jobs: 1,
        },
    ]
}

fn main() {
    let jobs = fmoe_bench::harness::jobs_from_args(std::env::args().skip(1));
    let effective = jobs.min(ParallelRunner::available_parallelism());

    let seq = time_sweep(1);
    let mut speedup = None;
    let mut records = vec![seq];
    // A parallel leg needs at least two effective workers; on a
    // single-core machine it would only measure time-slicing overhead.
    if effective > 1 {
        let par = time_sweep(effective);
        speedup = Some(records[0].wall_ms / par.wall_ms);
        records.push(par);
    }
    records.extend(matcher_records());
    records.extend(router_records());
    records.extend(predictor_records());
    let report = PerfReport { jobs, records };

    println!("perf_smoke (jobs = {jobs}, effective = {effective})");
    println!(
        "{:<32} {:>12} {:>14} {:>6}",
        "scenario", "wall_ms", "iters/s", "jobs"
    );
    for r in &report.records {
        println!(
            "{:<32} {:>12.3} {:>14.1} {:>6}",
            r.scenario, r.wall_ms, r.iters_per_s, r.jobs
        );
    }
    let speedup = speedup.map_or_else(|| "n/a".to_string(), |s| format!("{s:.2}x"));
    println!("sweep speedup (jobs1 / jobsN): {speedup}");

    match std::fs::write("BENCH_perf.json", report.to_json()) {
        Ok(()) => println!("wrote BENCH_perf.json"),
        Err(e) => eprintln!("cannot write BENCH_perf.json: {e}"),
    }
}
