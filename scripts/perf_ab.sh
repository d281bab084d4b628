#!/usr/bin/env bash
# The perf gate: times the head against a parent commit on this machine.
#
# Checks PARENT_REF (default HEAD^) out into a temporary git worktree,
# builds perf_smoke on both sides and runs each side ROUNDS times,
# alternating which side goes first, so a machine that speeds up or
# slows down during the runs affects both sides alike. Every run gets its
# own temporary working directory, where perf_smoke writes its
# BENCH_perf.json. perf_gate then compares the two sets of runs
# (DESIGN.md §16) and sets the exit status: 0 pass, 1 a scenario
# regressed, 2 the runs cannot be compared.
#
# The runs (parent-NN.json, head-NN.json) and the delta table
# (delta.txt) are kept in target/perf_ab/; CI uploads them.
#
# Usage: scripts/perf_ab.sh [PARENT_REF]
set -euo pipefail
cd "$(dirname "$0")/.."

ROUNDS=10
parent_ref=${1:-HEAD^}
out=target/perf_ab
head_target=${CARGO_TARGET_DIR:-$PWD/target}

work=$(mktemp -d)
cleanup() {
  git worktree remove --force "$work/parent" >/dev/null 2>&1 || true
  rm -rf "$work"
}
trap cleanup EXIT

git worktree add --detach --quiet "$work/parent" "$parent_ref"
echo "perf_ab: building $(git rev-parse --short "$parent_ref") (parent) and the working tree (head)"
CARGO_TARGET_DIR="$work/parent/target" cargo build --release --offline --quiet \
  --manifest-path "$work/parent/Cargo.toml" -p fmoe-bench --bin perf_smoke
CARGO_TARGET_DIR="$head_target" cargo build --release --offline --quiet \
  -p fmoe-bench --bin perf_smoke --bin perf_gate
parent_bin=$work/parent/target/release/perf_smoke
head_bin=$head_target/release/perf_smoke

mkdir -p "$out"
rm -f "$out"/parent-*.json "$out"/head-*.json "$out"/delta.txt

# run SIDE BINARY ROUND. Both sides run at perf_smoke's default --jobs,
# the machine's available parallelism. `--quick` selects the CI sizes in
# parents from before those became perf_smoke's only sizes; later
# binaries ignore it.
run() {
  local dir
  dir=$(mktemp -d -p "$work")
  (cd "$dir" && "$2" --quick >/dev/null)
  mv "$dir/BENCH_perf.json" "$out/$1-$3.json"
}

for ((i = 1; i <= ROUNDS; i++)); do
  round=$(printf %02d "$i")
  echo "perf_ab: round $round of $ROUNDS"
  if ((i % 2)); then
    run parent "$parent_bin" "$round"
    run head "$head_bin" "$round"
  else
    run head "$head_bin" "$round"
    run parent "$parent_bin" "$round"
  fi
done

"$head_target/release/perf_gate" --parent "$out"/parent-*.json --head "$out"/head-*.json 2>&1 |
  tee "$out/delta.txt"
