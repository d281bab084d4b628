//! Explore the expert-map machinery directly: record maps, measure the
//! coarse- vs. fine-grained entropy gap that motivates the paper (§2.4,
//! Fig. 3), and watch semantic + trajectory search find the right history.
//!
//! ```sh
//! cargo run --release --example expert_map_explorer
//! ```

use fmoe::map::ExpertMap;
use fmoe::matcher::{Matcher, TrajectoryTracker};
use fmoe::selection::select_experts;
use fmoe::store::ExpertMapStore;
use fmoe_model::gate::TokenSpan;
use fmoe_model::{presets, GateParams, GateSimulator, RequestRouting};
use fmoe_stats::{shannon_entropy, shannon_entropy_of_counts};

fn record_map(gate: &GateSimulator, routing: RequestRouting, iter: u64) -> ExpertMap {
    let span = TokenSpan::single(32 + iter);
    let rows: Vec<Vec<f64>> = (0..gate.config().num_layers)
        .map(|l| gate.iteration_distribution(routing, iter, l, span))
        .collect();
    ExpertMap::new(rows)
}

fn main() {
    let model = presets::mixtral_8x7b();
    let gate = GateSimulator::new(model.clone(), GateParams::for_model(&model));
    let routing = RequestRouting {
        cluster: 7,
        request_seed: 1234,
    };

    // --- Part 1: the predictability gap (paper Fig. 3) ------------------
    let iters = 32;
    let j = model.experts_per_layer as usize;
    let mut fine_entropy = 0.0;
    let mut counts = vec![0.0; j];
    for i in 0..iters {
        let map = record_map(&gate, routing, i);
        fine_entropy += shannon_entropy(map.layer(8));
        for row in map.to_top_k_counts(model.top_k as usize) {
            let _ = row;
        }
        for (c, row) in counts.iter_mut().zip(map.to_top_k_counts(2)[8].iter()) {
            *c += *row as f64;
        }
    }
    fine_entropy /= iters as f64;
    let coarse_entropy = shannon_entropy_of_counts(&counts);
    println!("layer-8 entropy over {} iterations of one request:", iters);
    println!("  fine-grained  (per-iteration distributions): {fine_entropy:.2} bits");
    println!("  coarse-grained (aggregated activation counts): {coarse_entropy:.2} bits");
    println!("  uniform bound: {:.2} bits", (j as f64).log2());
    println!("  -> aggregation destroys the signal the gate emits each step\n");

    // --- Part 2: store + hybrid search ----------------------------------
    let mut store = ExpertMapStore::new(
        256,
        model.num_layers as usize,
        model.experts_per_layer as usize,
        3,
    );
    // History: 6 requests from cluster 7, 4 iterations each.
    for r in 0..6u64 {
        let hist = RequestRouting {
            cluster: 7,
            request_seed: 2000 + r,
        };
        for i in 0..4 {
            let emb = gate.semantic_embedding(hist, i);
            store.insert(emb, record_map(&gate, hist, i)).unwrap();
        }
    }
    // Plus unrelated clutter from other clusters.
    for r in 0..6u64 {
        let other = RequestRouting {
            cluster: 40 + r,
            request_seed: 3000 + r,
        };
        let emb = gate.semantic_embedding(other, 0);
        store.insert(emb, record_map(&gate, other, 0)).unwrap();
    }
    println!(
        "store: {} maps ({} KB at fp32)",
        store.len(),
        store.memory_bytes() / 1024
    );

    // A new request from cluster 7 arrives.
    let query = RequestRouting {
        cluster: 7,
        request_seed: 9999,
    };
    let emb = gate.semantic_embedding(query, 1);
    let sem = Matcher::semantic_match(&store, &emb)
        .unwrap()
        .expect("store not empty");
    println!(
        "\nsemantic search: best entry #{} with score {:.3}",
        sem.entry_index, sem.score
    );

    // Observe three layers, then ask the trajectory tracker.
    let mut tracker = TrajectoryTracker::new();
    tracker.reset(&store);
    let truth = record_map(&gate, query, 1);
    for l in 0..3 {
        tracker.observe_layer(&store, truth.layer(l));
    }
    let traj = tracker.best(&store).expect("observations made");
    println!(
        "trajectory search after 3 layers: entry #{} with score {:.3}",
        traj.entry_index, traj.score
    );

    // Similarity-aware selection for target layer 3 + 3 = 6.
    let matched = store.entry(traj.entry_index);
    let selection = select_experts(matched.layer(6), traj.score, 3, j);
    let activated = gate.activated_slots(query, 1, 6, TokenSpan::single(33));
    println!(
        "\nlayer 6: δ = {:.3} selects {} experts {:?}",
        (1.0 - traj.score).clamp(0.0, 1.0),
        selection.len(),
        selection.iter().map(|s| s.0).collect::<Vec<_>>()
    );
    println!("layer 6 truly activates slots {activated:?}");
    let covered = activated
        .iter()
        .filter(|s| selection.iter().any(|&(slot, _)| slot as u32 == **s))
        .count();
    println!(
        "coverage: {covered}/{} activated experts prefetched in advance",
        activated.len()
    );
}
