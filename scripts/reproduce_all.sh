#!/usr/bin/env bash
# Regenerates every table, figure, and extension experiment of the fMoE
# reproduction. The bin list below is the one manifest of what produces
# results/: every committed file there comes from one of these runs, and
# CI runs this script at full size and fails unless
# `git status --porcelain results/` is empty afterwards.
#
# Tables print to stdout and land in results/logs/; CSVs in results/;
# curve figures also render results/*.svg. With --quick every bin runs its
# small sweep (bins without one run as usual) and everything, logs
# included, lands in the gitignored results/quick/ instead, so a quick
# run never overwrites a committed full-size file.
#
# Usage: scripts/reproduce_all.sh [--quick]
set -euo pipefail
cd "$(dirname "$0")/.."

OUT=results
QUICK_ARGS=()
if [[ "${1:-}" == "--quick" ]]; then
  OUT=results/quick
  QUICK_ARGS=(--quick)
fi
mkdir -p "$OUT/logs"

# Each entry is a bin name followed by the arguments it always runs with.
PAPER_BINS=(
  table1_models
  fig3_entropy
  fig4_prefetch_distance
  fig8_pearson
  # --trace also writes the Chrome trace (gitignored), the phase
  # breakdown and the counters of one traced fMoE cell.
  "fig9_overall --trace"
  fig9_confidence
  fig10_online_cdf
  fig11_cache_limits
  fig12_ablation
  fig13_distance_sensitivity
  fig14_sensitivity
  fig15_breakdown
  fig16_store_memory
)
EXTENSION_BINS=(
  # The router's P1-P4 statistics every experiment rests on (DESIGN.md §3).
  validate_gate
  ablation_design_choices
  ablation_placement
  ext_tunable_budget
  ext_mixed_precision
  ext_continuous_batching
  ext_conversations
  ext_kv_budget
  ext_theory_coverage
  fig12_cluster_scaling
  # Fault tolerance, both granularities: chaos_faults injects link/memory
  # faults inside one engine's transfer fabric (DESIGN.md §9);
  # fig13_cluster_chaos crashes, drains, and warm-restarts whole replicas
  # in the fleet (DESIGN.md §14).
  chaos_faults
  fig13_cluster_chaos
  # fig17_ep_all2all shards experts across a replica's GPUs and sweeps
  # placement x width x all2all backend against host offloading (§17).
  fig17_ep_all2all
)

for entry in "${PAPER_BINS[@]}" "${EXTENSION_BINS[@]}"; do
  read -ra cmd <<< "$entry"
  bin="${cmd[0]}"
  echo "==> $bin"
  cargo run --release -p fmoe-bench --bin "$bin" -- "${cmd[@]:1}" "${QUICK_ARGS[@]}" \
    | tee "$OUT/logs/$bin.txt"
  echo
done

echo "All experiments regenerated. Tables: $OUT/logs/, CSV: $OUT/, SVG: $OUT/*.svg"
