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

use fmoe_bench::cli::Cli;
use fmoe_bench::harness::{CellConfig, System};
use fmoe_bench::report::{write_csv, Table};
use fmoe_model::{presets, ModelConfig};
use fmoe_serving::online::{serve as serve_online, ServeOptions};
use fmoe_trace::{events_text, TraceSink};
use fmoe_workload::{AzureTraceSpec, DatasetSpec};
use std::collections::HashMap;
use std::process::ExitCode;

fn parse_flags(args: &[String]) -> HashMap<String, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(name) = args[i].strip_prefix("--") {
            if i + 1 < args.len() && !args[i + 1].starts_with("--") {
                flags.insert(name.to_string(), args[i + 1].clone());
                i += 2;
            } else {
                flags.insert(name.to_string(), "true".to_string());
                i += 1;
            }
        } else {
            i += 1;
        }
    }
    flags
}

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

fn timeline(flags: &HashMap<String, String>) -> Result<(), String> {
    let cell = build_cell(flags)?;
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

fn analyze_store(flags: &HashMap<String, String>) -> Result<(), String> {
    use fmoe::store::ExpertMapStore;
    let path = flags
        .get("file")
        .ok_or("--file <path> required (a store saved with save_store_to_path)")?;
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

fn build_cell(flags: &HashMap<String, String>) -> Result<CellConfig, String> {
    let model = model_by_name(flags.get("model").map_or("mixtral", String::as_str))
        .ok_or("unknown --model (try `fmoe_sim list`)")?;
    let dataset = dataset_by_name(flags.get("dataset").map_or("lmsys", String::as_str))
        .ok_or("unknown --dataset")?;
    let system = system_by_name(flags.get("system").map_or("fmoe", String::as_str))
        .ok_or("unknown --system")?;
    let mut cell = CellConfig::new(model, dataset, system);
    let parse = |key: &str, default: u64| -> Result<u64, String> {
        flags.get(key).map_or(Ok(default), |v| {
            v.parse().map_err(|_| format!("bad --{key}: {v}"))
        })
    };
    if let Some(gb) = flags.get("cache-gb") {
        let gb: u64 = gb.parse().map_err(|_| format!("bad --cache-gb: {gb}"))?;
        cell.cache_budget_bytes = gb << 30;
    }
    cell.test_requests = parse("requests", 10)? as usize;
    cell.max_decode = parse("decode", 24)?;
    cell.batch_size = parse("batch", 1)? as usize;
    cell.prefetch_distance = parse("distance", 3)? as u32;
    cell.gate_seed = parse("seed", cell.gate_seed)?;
    if let Some(threshold) = flags.get("low-precision") {
        let threshold: f64 = threshold
            .parse()
            .map_err(|_| format!("bad --low-precision: {threshold}"))?;
        cell.low_precision_threshold = Some(threshold);
    }
    Ok(cell)
}

fn serve(flags: &HashMap<String, String>) -> Result<(), String> {
    let cell = build_cell(flags)?;
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
    if flags.contains_key("online") {
        let gate = cell.gate();
        let mut predictor = cell.predictor(&gate, &[]);
        let mut engine = cell.engine(gate);
        let trace = if let Some(path) = flags.get("trace-file") {
            let mut file = std::fs::File::open(path)
                .map_err(|e| format!("cannot open --trace-file {path}: {e}"))?;
            fmoe_workload::read_trace_csv(&mut file)
                .map_err(|e| format!("bad trace file {path}: {e}"))?
        } else {
            let mut spec = AzureTraceSpec::paper_online_serving(cell.dataset.clone());
            spec.num_requests = cell.test_requests as u64;
            spec.generate()
        };
        let options = if let Some(slots) = flags.get("slots") {
            let slots: usize = slots.parse().map_err(|_| format!("bad --slots: {slots}"))?;
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
    } else if let (System::Fmoe, Some(store_path)) = (cell.system, flags.get("save-store")) {
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
    let _ = write_csv(&Cli::default(), &table, "fmoe_sim_serve");
    Ok(())
}

fn sweep(flags: &HashMap<String, String>) -> Result<(), String> {
    let param = flags
        .get("param")
        .ok_or("--param required (see `fmoe_sim list`)")?
        .clone();
    let values: Vec<u64> = flags
        .get("values")
        .ok_or("--values required, comma-separated")?
        .split(',')
        .map(|v| v.trim().parse().map_err(|_| format!("bad value: {v}")))
        .collect::<Result<_, _>>()?;
    let mut table = Table::new(
        &format!("fmoe_sim sweep over {param}"),
        &[param.as_str(), "TTFT (ms)", "TPOT (ms)", "hit rate"],
    );
    for &v in &values {
        let mut cell = build_cell(flags)?;
        match param.as_str() {
            "cache-gb" => cell.cache_budget_bytes = v << 30,
            "distance" => cell.prefetch_distance = v as u32,
            "batch" => cell.batch_size = v as usize,
            "requests" => cell.test_requests = v as usize,
            other => return Err(format!("unknown sweep param: {other}")),
        }
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
    let _ = write_csv(&Cli::default(), &table, "fmoe_sim_sweep");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = args.first().map(String::as_str).unwrap_or("help");
    let flags = parse_flags(&args[args.len().min(1)..]);
    let result = match command {
        "list" => {
            list();
            Ok(())
        }
        "serve" => serve(&flags),
        "sweep" => sweep(&flags),
        "timeline" => timeline(&flags),
        "analyze-store" => analyze_store(&flags),
        _ => {
            println!("usage: fmoe_sim <list|serve|sweep|timeline|analyze-store> [--flags]\n");
            list();
            Ok(())
        }
    };
    match result {
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
    fn parse_flags_handles_values_and_switches() {
        let args: Vec<String> = ["--model", "phi", "--online", "--requests", "4"]
            .iter()
            .map(|s| (*s).to_string())
            .collect();
        let flags = parse_flags(&args);
        assert_eq!(flags.get("model").map(String::as_str), Some("phi"));
        assert_eq!(flags.get("online").map(String::as_str), Some("true"));
        assert_eq!(flags.get("requests").map(String::as_str), Some("4"));
    }

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

    #[test]
    fn build_cell_applies_flags() {
        let mut flags = HashMap::new();
        flags.insert("model".into(), "small".into());
        flags.insert("cache-gb".into(), "2".into());
        flags.insert("distance".into(), "5".into());
        flags.insert("low-precision".into(), "0.2".into());
        let cell = build_cell(&flags).unwrap();
        assert_eq!(cell.model.name, "Small-Test-MoE");
        assert_eq!(cell.cache_budget_bytes, 2 << 30);
        assert_eq!(cell.prefetch_distance, 5);
        assert_eq!(cell.low_precision_threshold, Some(0.2));
    }

    #[test]
    fn build_cell_rejects_bad_values() {
        let mut flags = HashMap::new();
        flags.insert("model".into(), "nonsense".into());
        assert!(build_cell(&flags).is_err());
        let mut flags = HashMap::new();
        flags.insert("requests".into(), "many".into());
        assert!(build_cell(&flags).is_err());
    }
}
