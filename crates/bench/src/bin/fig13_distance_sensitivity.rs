//! Figure 13: fMoE's TTFT and TPOT at different prefetch distances.
//!
//! The paper profiles `d = 3` as the sweet spot: below it the matcher's
//! asynchronous pipeline cannot hide its own latency (prefetches issue
//! too late), above it prediction accuracy decays (Fig. 4).
//!
//! ```sh
//! cargo run --release -p fmoe-bench --bin fig13_distance_sensitivity
//! ```

use fmoe_bench::cli::Cli;
use fmoe_bench::harness::{CellConfig, System};
use fmoe_bench::plot::{LinePlot, Series};
use fmoe_bench::report::{write_csv, Table};
use fmoe_model::presets;
use fmoe_workload::DatasetSpec;

const DISTANCES: [u32; 6] = [1, 2, 3, 4, 6, 8];

fn main() {
    let cli = Cli::parse(&[]);
    let mut ttft = Table::new(
        "Figure 13: fMoE TTFT (ms) vs prefetch distance",
        &["model", "d=1", "d=2", "d=3", "d=4", "d=6", "d=8"],
    );
    let mut tpot = Table::new(
        "Figure 13: fMoE TPOT (ms) vs prefetch distance",
        &["model", "d=1", "d=2", "d=3", "d=4", "d=6", "d=8"],
    );
    let mut plot = LinePlot::new(
        "Fig. 13 — fMoE TPOT vs prefetch distance",
        "prefetch distance d",
        "TPOT (ms)",
    )
    .with_free_y();
    for model in presets::evaluation_models() {
        let mut ttft_row = vec![model.name.clone()];
        let mut tpot_row = vec![model.name.clone()];
        let mut points = Vec::new();
        for &d in &DISTANCES {
            let mut cell = CellConfig::new(model.clone(), DatasetSpec::lmsys_chat(), System::Fmoe);
            cell.prefetch_distance = d;
            cell.test_requests = 10;
            cell.max_decode = 20;
            let out = cell.run_offline();
            ttft_row.push(format!("{:.0}", out.aggregate.mean_ttft_ms));
            tpot_row.push(format!("{:.0}", out.aggregate.mean_tpot_ms));
            points.push((f64::from(d), out.aggregate.mean_tpot_ms));
        }
        plot.series(Series::new(&model.name, points));
        ttft.row(ttft_row);
        tpot.row(tpot_row);
    }
    let _ = plot.write_svg(&cli, "fig13_tpot");
    ttft.print();
    tpot.print();
    let _ = write_csv(&cli, &ttft, "fig13_ttft");
    let _ = write_csv(&cli, &tpot, "fig13_tpot");
    println!("expected shape (paper Fig. 13): a shallow U — small d cannot");
    println!("hide matching + transfer latency, large d mispredicts more; the");
    println!("paper (and our default) settles at d = 3.");
}
