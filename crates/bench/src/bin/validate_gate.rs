//! Router-calibration report: measures the four statistical properties
//! (P1–P4, `DESIGN.md` §3) the synthetic gate must exhibit for the
//! reproduction's conclusions to transfer, for every model preset.
//!
//! Run this after touching `GateParams` — if a property drifts out of its
//! band, the policy comparisons lose their footing before any experiment
//! runs.
//!
//! ```sh
//! cargo run --release -p fmoe-bench --bin validate_gate
//! ```

use fmoe_bench::cli::Cli;
use fmoe_bench::report::{write_csv, Table};
use fmoe_model::gate::{GateScratch, TokenSpan};
use fmoe_model::{presets, GateParams, GateSimulator, ModelConfig, RequestRouting};
use fmoe_stats::{cosine_similarity, shannon_entropy, shannon_entropy_of_counts};

struct GateReport {
    fine_entropy_frac: f64,
    coarse_entropy_frac: f64,
    same_cluster_sim: f64,
    cross_cluster_sim: f64,
    overlap_d1: f64,
    overlap_d4: f64,
}

fn measure(model: &ModelConfig) -> GateReport {
    let gate = GateSimulator::new(model.clone(), GateParams::for_model(model));
    let j = model.experts_per_layer as usize;
    let uniform = (j as f64).log2();

    // P1 / P2: fine vs coarse entropy over decode iterations.
    let mut fine = 0.0;
    let mut coarse = 0.0;
    let mut n = 0.0;
    let mut scratch = GateScratch::default();
    for r in 0..10u64 {
        let routing = RequestRouting {
            cluster: r % 5,
            request_seed: r,
        };
        for layer in (0..model.num_layers).step_by(4) {
            let mut counts = vec![0.0; j];
            for iter in 1..=24u64 {
                let span = TokenSpan::single(32 + iter);
                gate.route_into(routing, iter, layer, span, &mut scratch);
                fine += shannon_entropy(&scratch.dist);
                for &s in &scratch.activated {
                    counts[s as usize] += 1.0;
                }
                n += 1.0;
            }
            coarse += shannon_entropy_of_counts(&counts) * 24.0;
        }
    }
    let fine_entropy_frac = fine / n / uniform;
    let coarse_entropy_frac = coarse / n / uniform;

    // P3: embedding separation between same- and cross-cluster requests.
    let mut same = 0.0;
    let mut cross = 0.0;
    let mut m = 0.0;
    for i in 0..20u64 {
        let a = gate.semantic_embedding(
            RequestRouting {
                cluster: i % 4,
                request_seed: 100 + i,
            },
            i % 4,
        );
        let b = gate.semantic_embedding(
            RequestRouting {
                cluster: i % 4,
                request_seed: 900 + i,
            },
            i % 4,
        );
        let c = gate.semantic_embedding(
            RequestRouting {
                cluster: 50 + (i % 4),
                request_seed: 500 + i,
            },
            i % 4,
        );
        same += cosine_similarity(&a, &b);
        cross += cosine_similarity(&a, &c);
        m += 1.0;
    }
    let same_cluster_sim = same / m;
    let cross_cluster_sim = cross / m;

    // P4: top-k overlap between layer l and l+d.
    let overlap = |d: u32| -> f64 {
        let mut total = 0.0;
        let mut cnt = 0.0;
        for iter in 1..=20u64 {
            let routing = RequestRouting {
                cluster: 7,
                request_seed: 77,
            };
            for l in (0..model.num_layers - d).step_by(3) {
                let from = gate.token_top_k(routing, iter, l, iter);
                let to = gate.token_top_k(routing, iter, l + d, iter);
                let inter = from.iter().filter(|s| to.contains(s)).count();
                total += inter as f64 / to.len() as f64;
                cnt += 1.0;
            }
        }
        total / cnt
    };

    GateReport {
        fine_entropy_frac,
        coarse_entropy_frac,
        same_cluster_sim,
        cross_cluster_sim,
        overlap_d1: overlap(1),
        overlap_d4: overlap(4),
    }
}

fn main() {
    let cli = Cli::parse(&[]);
    let mut table = Table::new(
        "Gate calibration: measured P1-P4 vs required bands",
        &["model", "property", "measured", "band", "ok"],
    );
    let mut all_ok = true;
    for model in presets::evaluation_models()
        .into_iter()
        .chain([presets::deepseek_moe_16b(), presets::small_test_model()])
    {
        let r = measure(&model);
        // Chance-level overlap for top-K of J is K/J; adjacent-layer
        // speculation must beat it by at least 4x (capped: for small J
        // chance is already high, so a 0.5 absolute floor applies).
        let chance = f64::from(model.top_k) / f64::from(model.experts_per_layer);
        let overlap_floor = (4.0 * chance).clamp(0.2, 0.5);
        let checks: Vec<(&str, f64, f64, f64)> = vec![
            // (name, measured, lo, hi)
            ("P1 fine entropy / uniform", r.fine_entropy_frac, 0.05, 0.75),
            (
                "P2 coarse entropy / uniform",
                r.coarse_entropy_frac,
                0.85,
                1.0,
            ),
            (
                "P3 same-cluster embedding sim",
                r.same_cluster_sim,
                0.55,
                1.0,
            ),
            (
                "P3 cross-cluster embedding sim",
                r.cross_cluster_sim,
                -0.3,
                0.5,
            ),
            ("P4 top-k overlap at d=1", r.overlap_d1, overlap_floor, 1.0),
            (
                "P4 overlap decay (d=1 minus d=4)",
                r.overlap_d1 - r.overlap_d4,
                0.05,
                1.0,
            ),
        ];
        for (name, v, lo, hi) in checks {
            let ok = (lo..=hi).contains(&v);
            all_ok &= ok;
            table.row(vec![
                model.name.clone(),
                name.into(),
                format!("{v:.3}"),
                format!("[{lo:.2}, {hi:.2}]"),
                if ok { "yes" } else { "OUT OF BAND" }.into(),
            ]);
        }
    }
    table.print();
    let _ = write_csv(&cli, &table, "validate_gate");
    if all_ok {
        println!("all properties within band: the router is calibrated.");
    } else {
        println!("!! at least one property out of band: experiment conclusions");
        println!("!! may not transfer — re-tune GateParams before trusting runs.");
        std::process::exit(1);
    }
}
