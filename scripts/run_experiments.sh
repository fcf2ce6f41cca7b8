#!/usr/bin/env bash
# Regenerates every table and figure of the paper at the scales recorded in
# EXPERIMENTS.md. Pass SCALE_FULL=1 for the complete paper protocol (hours).
set -uo pipefail
cd "$(dirname "$0")/.."
mkdir -p results

run() {
  local name="$1"; shift
  echo "=== $name ==="
  cargo run --locked --release -p seqge-bench --bin "$name" -- "$@" --json "results/$name.json" \
    | tee "results/$name.txt"
  echo
}

cargo build --locked --release -p seqge-bench --bins

# Scales tuned for a single-core CI box (~30 min total); raise them (and
# SCALE_FULL=1) on real hardware.
run table1
run table5
run table6
run energy
run explore
run fig6 --scale 0.2 --datasets cora,ampt
run fig4 --scale 0.15 --dims 32,64
run ablate_negshare --scale 0.2
run ablate_regularizer --scale 0.2
run ablate_drift --scale 0.4
run sweep_hyperparams --scale 0.2
run fig7 --scale 0.08 --datasets cora,ampt
run fig5 --scale 0.12 --dims 32
run table3
run table4

echo "all experiment outputs in results/"
