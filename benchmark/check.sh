#!/usr/bin/env bash
# One entry point for CI: build the benchmark package exactly as locked, run
# its unit tests, then the --quick smoke (both backends at toy size through
# every phase and both replays; correctness gates only, no metrics).
set -euo pipefail
cd "$(dirname "$0")"
cargo build --release --offline --locked
cargo test --release --offline --locked --quiet
cargo run --release --offline --locked --quiet -- --quick
echo "benchmark check OK"
