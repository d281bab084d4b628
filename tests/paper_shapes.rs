//! Fast, scaled-down assertions of the paper's qualitative claims — the
//! shapes the full experiment binaries reproduce at scale. These run on
//! the small test model so CI catches a regression in any claim within
//! seconds.

use fmoe::selection::select_experts;
use fmoe::{FmoeConfig, FmoePredictor};
use fmoe_baselines::MoeInfinityPredictor;
use fmoe_bench::harness::coverage_probe;
use fmoe_model::gate::TokenSpan;
use fmoe_model::{presets, GateParams, GateSimulator, HistoryRequest, ModelConfig};
use fmoe_stats::shannon_entropy_of_counts;
use fmoe_workload::{split, DatasetSpec, Prompt};

fn model() -> ModelConfig {
    presets::small_test_model()
}

fn gate() -> GateSimulator {
    GateSimulator::new(model(), GateParams::for_model(&model()))
}

fn workload() -> (Vec<Prompt>, Vec<Prompt>) {
    let prompts = DatasetSpec::tiny_test().prompts(80);
    let (h, t) = split::paper_split(&prompts);
    (h, t.into_iter().take(8).collect())
}

/// Paper §2.4 / Fig. 3: request-level aggregation has far higher entropy
/// (lower predictability) than iteration-level patterns.
#[test]
fn coarse_patterns_are_less_predictable_than_fine() {
    let g = gate();
    let j = model().experts_per_layer as usize;
    let mut coarse = 0.0;
    let mut fine = 0.0;
    let mut n = 0.0;
    for p in workload().1 {
        for layer in 0..model().num_layers {
            let mut agg = vec![0.0; j];
            let mut fine_acc = 0.0;
            let iters = p.iterations().min(12);
            for iter in 0..iters {
                let span = if iter == 0 {
                    TokenSpan::prefill(p.prompt_tokens)
                } else {
                    TokenSpan::single(p.prompt_tokens + iter - 1)
                };
                let mut one = vec![0.0; j];
                for s in g.activated_slots(p.routing, iter, layer, span) {
                    one[s as usize] += 1.0;
                    agg[s as usize] += 1.0;
                }
                fine_acc += shannon_entropy_of_counts(&one);
            }
            coarse += shannon_entropy_of_counts(&agg);
            fine += fine_acc / iters as f64;
            n += 1.0;
        }
    }
    assert!(
        coarse / n > fine / n + 0.5,
        "coarse entropy {} should clearly exceed fine {}",
        coarse / n,
        fine / n
    );
}

/// Paper Fig. 4 / Fig. 12a: fine-grained map matching predicts activations
/// far better than coarse request-level tracking, at equal budget.
#[test]
fn fine_grained_prediction_beats_coarse() {
    let g = gate();
    let (history, test) = workload();

    let mut config = FmoeConfig::for_model(&model());
    config.prefetch_window = 1;
    config.use_dynamic_threshold = false;
    let mut fine = FmoePredictor::new(model(), config);
    fine.populate_from_history(
        &g,
        &history
            .iter()
            .map(|p| p.history_request())
            .collect::<Vec<_>>(),
        5,
    );

    let mut coarse = MoeInfinityPredictor::new(&model()).with_window(1);
    coarse.populate_from_history(
        &g,
        &history
            .iter()
            .map(|p| p.history_request())
            .collect::<Vec<_>>(),
        5,
    );

    let fine_cov = coverage_probe(&g, &mut fine, &test, 8).coverage;
    let coarse_cov = coverage_probe(&g, &mut coarse, &test, 8).coverage;
    assert!(
        fine_cov > coarse_cov + 0.15,
        "fine {fine_cov} vs coarse {coarse_cov}"
    );
}

/// Paper Fig. 4: prediction quality decays gracefully with distance.
#[test]
fn coverage_decays_with_prefetch_distance() {
    let g = gate();
    let (history, test) = workload();
    let hist: Vec<HistoryRequest> = history.iter().map(|p| p.history_request()).collect();
    let at = |d: u32| {
        let mut config = FmoeConfig::for_model(&model()).with_distance(d);
        config.prefetch_window = 1;
        config.use_dynamic_threshold = false;
        let mut p = FmoePredictor::new(model(), config);
        p.populate_from_history(&g, &hist, 5);
        coverage_probe(&g, &mut p, &test, 8).coverage
    };
    let near = at(1);
    let far = at(6);
    assert!(near > far, "coverage d=1 {near} should exceed d=6 {far}");
    assert!(near > 0.5, "near coverage too low: {near}");
}

/// Paper §4.3: the dynamic threshold prefetches more experts when the
/// match is dubious and fewer when it is confident.
#[test]
fn dynamic_threshold_is_similarity_aware() {
    let dist = [0.4, 0.3, 0.12, 0.08, 0.05, 0.03, 0.015, 0.005];
    let confident = select_experts(&dist, 0.9, 1, 8).len();
    let dubious = select_experts(&dist, 0.1, 1, 8).len();
    assert!(
        dubious > confident,
        "dubious {dubious} <= confident {confident}"
    );
}

/// Paper §6.7: fMoE's synchronous per-iteration overhead stays a small
/// fraction of the iteration.
#[test]
fn sync_overhead_is_negligible() {
    use fmoe_bench::harness::{CellConfig, System};
    let mut cell = CellConfig::new(
        presets::phi35_moe(),
        DatasetSpec::lmsys_chat(),
        System::Fmoe,
    );
    cell.test_requests = 3;
    cell.max_decode = 8;
    let out = cell.run_offline();
    let b = out.breakdown;
    let frac = b.sync_overhead_per_iteration_ms() / b.per_iteration_ms(b.iteration_total_ns);
    assert!(frac < 0.05, "sync overhead fraction {frac}");
}

/// Paper Fig. 16: the map store's memory footprint stays trivial.
#[test]
fn store_memory_stays_small() {
    use fmoe::store::ExpertMapStore;
    for m in presets::evaluation_models() {
        let store = ExpertMapStore::new(
            32_000,
            m.num_layers as usize,
            m.experts_per_layer as usize,
            3,
        );
        let emb = GateParams::for_model(&m).embedding_dim as usize;
        let mb = store.memory_bytes_at_capacity(emb) as f64 / 1e6;
        assert!(mb < 200.0, "{}: {mb} MB at 32K maps", m.name);
    }
}
