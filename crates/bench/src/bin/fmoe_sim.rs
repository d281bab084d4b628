//! `fmoe_sim` — a command-line front end to the simulator, for running
//! custom serving scenarios without writing Rust.
//!
//! ```text
//! fmoe_sim list
//! fmoe_sim serve  --model mixtral --dataset lmsys --system fmoe \
//!                 --cache-gb 24 --requests 10 --decode 24 --batch 1 \
//!                 --distance 3 --seed 7 [--low-precision 0.1]
//!                 [--save-store store.fmoe]
//!                 [--online [--trace-file trace.csv] [--slots 4]]
//! fmoe_sim sweep  --param cache-gb --values 6,12,24,48 --model phi --system fmoe
//! fmoe_sim timeline      --model mixtral --system fmoe
//! fmoe_sim analyze-store --file store.fmoe
//! ```
//!
//! Everything prints as a table and writes CSV under `results/`.

use fmoe_bench::cli::{refuse, Cli, Command, Flag};
use fmoe_bench::harness::{CellConfig, System};
use fmoe_bench::report::{write_csv, Table};
use fmoe_model::{presets, ModelConfig};
use fmoe_serving::online::{serve as serve_online, ServeOptions};
use fmoe_trace::{events_text, TraceSink};
use fmoe_workload::{AzureTraceSpec, DatasetSpec};
use std::process::ExitCode;

const MODEL: Flag = Flag::text("--model", "NAME", "model (default mixtral; see `list`)");
const DATASET: Flag = Flag::text("--dataset", "NAME", "dataset (default lmsys)");
const SYSTEM: Flag = Flag::text("--system", "NAME", "offloading system (default fmoe)");
const CACHE_GB: Flag = Flag::value("--cache-gb", "GPU expert cache budget in GiB");
const REQUESTS: Flag = Flag::value("--requests", "test requests to serve (default 10)");
const DECODE: Flag = Flag::text(
    "--decode",
    "N",
    "decode iterations per request (default 24)",
);
const BATCH: Flag = Flag::value("--batch", "requests per batch (default 1)");
const DISTANCE: Flag = Flag::value("--distance", "prefetch distance in layers (default 3)");
const SEED: Flag = Flag::text("--seed", "N", "router seed");
const LOW_PRECISION: Flag = Flag::text(
    "--low-precision",
    "X",
    "serve experts below this gate probability at low precision",
);
const SAVE_STORE: Flag = Flag::text(
    "--save-store",
    "PATH",
    "with --system fmoe: save the Expert Map Store after serving",
);
const ONLINE: Flag = Flag::switch("--online", "serve an arrival trace instead of one by one");
const TRACE_FILE: Flag = Flag::text(
    "--trace-file",
    "PATH",
    "with --online: the arrival trace CSV (default: a generated Azure-style trace)",
);
const SLOTS: Flag = Flag::value("--slots", "with --online: continuous batching with N slots");
const PARAM: Flag = Flag::text("--param", "NAME", "the swept parameter (see `list`)");
const VALUES: Flag = Flag::text("--values", "LIST", "comma-separated values of --param");
const FILE: Flag = Flag::text("--file", "PATH", "a store saved with --save-store");

const COMMANDS: &[Command] = &[
    Command {
        name: "list",
        help: "print the models, datasets, systems and sweep parameters",
        flags: &[],
    },
    Command {
        name: "serve",
        help: "serve one cell and print its latency and hit rate",
        flags: &[
            MODEL,
            DATASET,
            SYSTEM,
            CACHE_GB,
            REQUESTS,
            DECODE,
            BATCH,
            DISTANCE,
            SEED,
            LOW_PRECISION,
            SAVE_STORE,
            ONLINE,
            TRACE_FILE,
            SLOTS,
        ],
    },
    Command {
        name: "sweep",
        help: "serve one cell per value of a parameter",
        flags: &[
            PARAM,
            VALUES,
            MODEL,
            DATASET,
            SYSTEM,
            CACHE_GB,
            REQUESTS,
            DECODE,
            BATCH,
            DISTANCE,
            SEED,
            LOW_PRECISION,
        ],
    },
    Command {
        name: "timeline",
        help: "print the event timeline of one request",
        flags: &[
            MODEL,
            DATASET,
            SYSTEM,
            CACHE_GB,
            REQUESTS,
            DECODE,
            BATCH,
            DISTANCE,
            SEED,
            LOW_PRECISION,
        ],
    },
    Command {
        name: "analyze-store",
        help: "summarize a saved Expert Map Store",
        flags: &[FILE],
    },
];

fn model_by_name(name: &str) -> Option<ModelConfig> {
    match name.to_ascii_lowercase().as_str() {
        "mixtral" | "mixtral-8x7b" => Some(presets::mixtral_8x7b()),
        "qwen" | "qwen1.5-moe" => Some(presets::qwen15_moe_a27b()),
        "phi" | "phi-3.5-moe" => Some(presets::phi35_moe()),
        "deepseek" | "deepseek-moe" => Some(presets::deepseek_moe_16b()),
        "small" => Some(presets::small_test_model()),
        _ => None,
    }
}

fn dataset_by_name(name: &str) -> Option<DatasetSpec> {
    match name.to_ascii_lowercase().as_str() {
        "lmsys" | "lmsys-chat-1m" => Some(DatasetSpec::lmsys_chat()),
        "sharegpt" => Some(DatasetSpec::sharegpt()),
        "tiny" => Some(DatasetSpec::tiny_test()),
        _ => None,
    }
}

fn system_by_name(name: &str) -> Option<System> {
    match name.to_ascii_lowercase().as_str() {
        "fmoe" => Some(System::Fmoe),
        "moe-infinity" | "moeinfinity" => Some(System::MoeInfinity),
        "promoe" => Some(System::ProMoe),
        "mixtral-offloading" | "mixtraloffloading" => Some(System::MixtralOffloading),
        "deepspeed" | "deepspeed-inference" => Some(System::DeepSpeed),
        "swapmoe" => Some(System::SwapMoe),
        "oracle" => Some(System::Oracle),
        "no-offload" | "nooffload" => Some(System::NoOffload),
        _ => None,
    }
}

fn timeline(cell: &CellConfig) -> Result<(), String> {
    let gate = cell.gate();
    let (history, test) = cell.split();
    let mut predictor = cell.predictor(&gate, &history);
    let mut engine = cell.engine(gate);
    // One warm-up so the timeline shows steady-state behaviour, then
    // record a single request.
    if let Some(p) = history.first() {
        let _ = engine.serve_request(*p, predictor.as_mut());
    }
    let sink = TraceSink::recording(1 << 20);
    engine.set_trace_sink(sink.clone());
    let mut p = *test.first().ok_or("no test prompt available")?;
    p.output_tokens = p.output_tokens.min(3);
    let metrics = engine.serve_request(p, predictor.as_mut());
    let records = sink.take_records();
    println!(
        "timeline of request {} on {} with {} ({} events):
",
        metrics.request_id,
        cell.model.name,
        cell.system.name(),
        records.len()
    );
    print!("{}", events_text(&records));
    println!(
        "
TTFT {:.1} ms, TPOT {:.1} ms, hit rate {:.1}%",
        metrics.ttft_ns as f64 / 1e6,
        metrics.tpot_ns() / 1e6,
        metrics.hit_rate() * 100.0
    );
    Ok(())
}

fn analyze_store(path: &str) -> Result<(), String> {
    use fmoe::store::ExpertMapStore;
    let store =
        ExpertMapStore::load_from_path(path).map_err(|e| format!("cannot load {path}: {e}"))?;
    println!("Expert Map Store: {path}");
    println!(
        "  entries:    {} / {} capacity",
        store.len(),
        store.capacity()
    );
    println!(
        "  map shape:  {} layers x {} experts (prefetch distance {})",
        store.num_layers(),
        store.experts_per_layer(),
        store.prefetch_distance()
    );
    println!(
        "  memory:     {:.2} MB (fp32)",
        store.memory_bytes() as f64 / 1e6
    );
    if store.len() >= 2 {
        // Diversity: distribution of each entry's nearest-neighbour
        // redundancy — low values mean the dedup kept the store spread out.
        let mut nn = Vec::with_capacity(store.len());
        for (i, e) in store.entries().enumerate() {
            let map = e.to_map();
            let mut best = f64::NEG_INFINITY;
            for j in 0..store.len() {
                if i != j {
                    best = best.max(store.redundancy(e.embedding(), map.flat(), j));
                }
            }
            nn.push(best);
        }
        let cdf = fmoe_stats::EmpiricalCdf::new(nn);
        println!(
            "  nearest-neighbour redundancy: p10 {:.3}  p50 {:.3}  p90 {:.3}",
            cdf.quantile(0.10).unwrap_or(0.0),
            cdf.quantile(0.50).unwrap_or(0.0),
            cdf.quantile(0.90).unwrap_or(0.0)
        );
        let lj = store.num_layers() * store.experts_per_layer();
        println!(
            "  covering scale: {:.1}x L*J (paper section 4.4 cites 2x for a 75% floor)",
            store.len() as f64 / lj as f64
        );
    }
    Ok(())
}

fn list() {
    println!("models:   mixtral  qwen  phi  deepseek  small");
    println!("datasets: lmsys  sharegpt  tiny");
    println!("systems:  fmoe  moe-infinity  promoe  mixtral-offloading  deepspeed  swapmoe  oracle  no-offload");
    println!("sweep params: cache-gb  distance  batch  requests");
}

/// The value of the text flag `flag` parsed as a `T`, if given.
fn parsed<T: std::str::FromStr>(cli: &Cli, flag: Flag) -> Result<Option<T>, String> {
    cli.text(flag)
        .map(|v| v.parse().map_err(|_| format!("bad {}: {v}", flag.name)))
        .transpose()
}

fn build_cell(cli: &Cli) -> Result<CellConfig, String> {
    let name = |flag: Flag, default: &'static str| cli.text(flag).unwrap_or(default);
    let model =
        model_by_name(name(MODEL, "mixtral")).ok_or("unknown --model (try `fmoe_sim list`)")?;
    let dataset = dataset_by_name(name(DATASET, "lmsys")).ok_or("unknown --dataset")?;
    let system = system_by_name(name(SYSTEM, "fmoe")).ok_or("unknown --system")?;
    let mut cell = CellConfig::new(model, dataset, system);
    if let Some(gb) = cli.value(CACHE_GB) {
        cell.cache_budget_bytes = (gb as u64) << 30;
    }
    cell.test_requests = cli.value(REQUESTS).unwrap_or(10);
    cell.max_decode = parsed(cli, DECODE)?.unwrap_or(24);
    cell.batch_size = cli.value(BATCH).unwrap_or(1);
    if let Some(d) = cli.value(DISTANCE) {
        cell.prefetch_distance = u32::try_from(d).map_err(|_| format!("bad --distance: {d}"))?;
    }
    if let Some(seed) = parsed(cli, SEED)? {
        cell.gate_seed = seed;
    }
    cell.low_precision_threshold = parsed(cli, LOW_PRECISION)?;
    Ok(cell)
}

/// A parameter `sweep` varies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SweepParam {
    CacheGb,
    Distance,
    Batch,
    Requests,
}

impl SweepParam {
    fn by_name(name: &str) -> Option<Self> {
        match name {
            "cache-gb" => Some(Self::CacheGb),
            "distance" => Some(Self::Distance),
            "batch" => Some(Self::Batch),
            "requests" => Some(Self::Requests),
            _ => None,
        }
    }

    fn apply(self, cell: &mut CellConfig, v: u64) {
        match self {
            Self::CacheGb => cell.cache_budget_bytes = v << 30,
            Self::Distance => cell.prefetch_distance = v as u32,
            Self::Batch => cell.batch_size = v as usize,
            Self::Requests => cell.test_requests = v as usize,
        }
    }
}

/// A subcommand with every value it reads checked: what `main` runs.
enum Job {
    List,
    Serve(CellConfig),
    Sweep {
        cell: CellConfig,
        param: (String, SweepParam),
        values: Vec<u64>,
    },
    Timeline(CellConfig),
    AnalyzeStore(String),
}

impl Job {
    /// The job `command` asks for with the flags in `cli`; an error names
    /// the value that cannot be used.
    fn from_cli(command: &str, cli: &Cli) -> Result<Self, String> {
        Ok(match command {
            "serve" => Self::Serve(build_cell(cli)?),
            "sweep" => {
                let name = cli
                    .text(PARAM)
                    .ok_or("--param required (see `fmoe_sim list`)")?;
                let param = SweepParam::by_name(name)
                    .ok_or_else(|| format!("unknown sweep param: {name}"))?;
                let values = cli
                    .text(VALUES)
                    .ok_or("--values required, comma-separated")?
                    .split(',')
                    .map(|v| v.trim().parse().map_err(|_| format!("bad value: {v}")))
                    .collect::<Result<_, _>>()?;
                Self::Sweep {
                    cell: build_cell(cli)?,
                    param: (name.to_string(), param),
                    values,
                }
            }
            "timeline" => Self::Timeline(build_cell(cli)?),
            "analyze-store" => Self::AnalyzeStore(
                cli.text(FILE)
                    .ok_or("--file <path> required (a store saved with --save-store)")?
                    .to_string(),
            ),
            // `list`, the one command left.
            _ => Self::List,
        })
    }

    fn run(&self, cli: &Cli) -> Result<(), String> {
        match self {
            Self::List => {
                list();
                Ok(())
            }
            Self::Serve(cell) => serve(cli, cell),
            Self::Sweep {
                cell,
                param,
                values,
            } => sweep(cli, cell, param, values),
            Self::Timeline(cell) => timeline(cell),
            Self::AnalyzeStore(path) => analyze_store(path),
        }
    }
}

fn serve(cli: &Cli, cell: &CellConfig) -> Result<(), String> {
    let mut table = Table::new(
        "fmoe_sim serve",
        &[
            "model",
            "dataset",
            "system",
            "TTFT (ms)",
            "TPOT (ms)",
            "hit rate",
            "p95 (ms)",
        ],
    );
    if cli.has(ONLINE) {
        let gate = cell.gate();
        let mut predictor = cell.predictor(&gate, &[]);
        let mut engine = cell.engine(gate);
        let trace = if let Some(path) = cli.text(TRACE_FILE) {
            let mut file = std::fs::File::open(path)
                .map_err(|e| format!("cannot open --trace-file {path}: {e}"))?;
            fmoe_workload::read_trace_csv(&mut file)
                .map_err(|e| format!("bad trace file {path}: {e}"))?
        } else {
            let mut spec = AzureTraceSpec::paper_online_serving(cell.dataset.clone());
            spec.num_requests = cell.test_requests as u64;
            spec.generate()
        };
        let options = if let Some(slots) = cli.value(SLOTS) {
            ServeOptions::continuous(slots)
        } else {
            ServeOptions::fcfs()
        };
        let results = serve_online(&mut engine, &trace, predictor.as_mut(), &options)
            .map_err(|e| format!("serving failed: {e}"))?
            .results;
        let latencies: Vec<f64> = results
            .iter()
            .map(|r| r.request_latency_ns() as f64 / 1e6)
            .collect();
        let cdf = fmoe_stats::EmpiricalCdf::new(latencies);
        let metrics: Vec<_> = results.iter().map(|r| r.metrics).collect();
        let a = fmoe_serving::AggregateMetrics::from_requests(&metrics);
        table.row(vec![
            cell.model.name.clone(),
            format!("{} (online)", cell.dataset.name),
            cell.system.name().into(),
            format!("{:.1}", a.mean_ttft_ms),
            format!("{:.1}", a.mean_tpot_ms),
            format!("{:.1}%", a.hit_rate * 100.0),
            format!("{:.1}", cdf.quantile(0.95).unwrap_or(0.0)),
        ]);
    } else if let (System::Fmoe, Some(store_path)) = (cell.system, cli.text(SAVE_STORE)) {
        // Keep the concrete predictor so its store can be persisted.
        let gate = cell.gate();
        let (history, test) = cell.split();
        let mut predictor = cell.fmoe_predictor(&gate, &history);
        let mut engine = cell.engine(gate);
        for p in history.iter().take(cell.warmup_requests) {
            let _ = engine.serve_request(*p, &mut predictor);
        }
        let metrics: Vec<_> = test
            .iter()
            .take(cell.test_requests)
            .map(|p| engine.serve_request(*p, &mut predictor))
            .collect();
        let a = fmoe_serving::AggregateMetrics::from_requests(&metrics);
        predictor
            .save_store_to_path(store_path)
            .map_err(|e| format!("cannot save store to {store_path}: {e}"))?;
        println!("saved {} maps to {store_path}", predictor.store_len());
        table.row(vec![
            cell.model.name.clone(),
            cell.dataset.name.clone(),
            cell.system.name().into(),
            format!("{:.1}", a.mean_ttft_ms),
            format!("{:.1}", a.mean_tpot_ms),
            format!("{:.1}%", a.hit_rate * 100.0),
            format!("{:.1}", a.p95_total_ms),
        ]);
    } else {
        let out = cell.run_offline();
        let a = &out.aggregate;
        table.row(vec![
            cell.model.name.clone(),
            cell.dataset.name.clone(),
            cell.system.name().into(),
            format!("{:.1}", a.mean_ttft_ms),
            format!("{:.1}", a.mean_tpot_ms),
            format!("{:.1}%", a.hit_rate * 100.0),
            format!("{:.1}", a.p95_total_ms),
        ]);
    }
    table.print();
    let _ = write_csv(cli, &table, "fmoe_sim_serve");
    Ok(())
}

fn sweep(
    cli: &Cli,
    cell: &CellConfig,
    (name, param): &(String, SweepParam),
    values: &[u64],
) -> Result<(), String> {
    let mut table = Table::new(
        &format!("fmoe_sim sweep over {name}"),
        &[name.as_str(), "TTFT (ms)", "TPOT (ms)", "hit rate"],
    );
    for &v in values {
        let mut cell = cell.clone();
        param.apply(&mut cell, v);
        let out = cell.run_offline();
        let a = &out.aggregate;
        table.row(vec![
            v.to_string(),
            format!("{:.1}", a.mean_ttft_ms),
            format!("{:.1}", a.mean_tpot_ms),
            format!("{:.1}%", a.hit_rate * 100.0),
        ]);
    }
    table.print();
    let _ = write_csv(cli, &table, "fmoe_sim_sweep");
    Ok(())
}

fn main() -> ExitCode {
    let (command, cli) = Cli::parse_command(COMMANDS);
    let job = Job::from_cli(command.name, &cli).unwrap_or_else(|e| refuse(COMMANDS, &e));
    match job.run(&cli) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookups_cover_all_names() {
        for name in ["mixtral", "qwen", "phi", "deepseek", "small"] {
            assert!(model_by_name(name).is_some(), "{name}");
        }
        assert!(model_by_name("gpt4").is_none());
        for name in ["lmsys", "sharegpt", "tiny"] {
            assert!(dataset_by_name(name).is_some(), "{name}");
        }
        for name in [
            "fmoe",
            "moe-infinity",
            "promoe",
            "mixtral-offloading",
            "deepspeed",
            "swapmoe",
            "oracle",
            "no-offload",
        ] {
            assert!(system_by_name(name).is_some(), "{name}");
        }
        assert!(system_by_name("vllm").is_none());
    }

    /// `args` parsed against the flags `command` declares.
    fn cli(command: &str, args: &[&str]) -> Cli {
        let flags = COMMANDS.iter().find(|c| c.name == command).unwrap().flags;
        let args: Vec<String> = args.iter().map(|s| (*s).to_string()).collect();
        match Cli::try_parse(flags, &args) {
            Ok(fmoe_bench::cli::Parsed::Run(cli)) => cli,
            other => panic!("{command} {args:?} parsed to {other:?}"),
        }
    }

    #[test]
    fn build_cell_applies_flags() {
        let cell = build_cell(&cli(
            "serve",
            &[
                "--model",
                "small",
                "--cache-gb",
                "2",
                "--distance",
                "5",
                "--low-precision",
                "0.2",
                "--seed",
                "0",
            ],
        ))
        .unwrap();
        assert_eq!(cell.model.name, "Small-Test-MoE");
        assert_eq!(cell.cache_budget_bytes, 2 << 30);
        assert_eq!(cell.prefetch_distance, 5);
        assert_eq!(cell.low_precision_threshold, Some(0.2));
        assert_eq!(cell.gate_seed, 0);
    }

    #[test]
    fn jobs_refuse_values_they_cannot_use() {
        for (command, args) in [
            ("serve", &["--model", "nonsense"][..]),
            ("serve", &["--decode", "many"]),
            ("serve", &["--seed", "-1"]),
            ("serve", &["--low-precision", "low"]),
            ("timeline", &["--system", "vllm"]),
            ("sweep", &["--values", "1"]),
            ("sweep", &["--param", "nonsense", "--values", "1"]),
            ("sweep", &["--param", "batch", "--values", "1,x"]),
            ("analyze-store", &[]),
        ] {
            let cli = cli(command, args);
            assert!(Job::from_cli(command, &cli).is_err(), "{command} {args:?}");
        }
    }
}
