#!/usr/bin/env bash
# Perf-regression gate for the two serving-side measurements the repo
# benchmark (benchmark/, BENCHMARK.json) does not carry yet. The training
# kernels are gated there — `core.train_walk_ns` and `small_float`
# `ingest_eps` against the parent commit — not here.
#
# Gates the cluster ingest-scaling ratio (`bench_cluster` →
# scaling_ratio, 4-shard vs 1-shard edges/sec through the router). Under
# single-owner partitioning both arms do identical total training work
# (the binary asserts per-shard train counters reconcile with the stream
# every run), so added shards must buy real throughput: on a host with
# >= 4 cores the ratio has a HARD FLOOR of 1.0 — no band, no baseline
# drift, below the floor the gate fails with the measured value (target
# is >= 1.5; CI runs this on multi-core runners and asserts nproc up
# front). On a smaller host the four trainer threads timeshare and the
# ratio legitimately sits below 1.0 (the checked-in 1-core baseline
# records ~0.3x), so the floor is waived there and the gate instead
# requires the exactly-once reconciliation evidence in the fresh JSON.
#
# Also gates the serving plane under load (`seqge loadgen` hot_read
# against a freshly booted single-node server): steady_ok_rate is floored
# at 0.99 and the steady topk p99 is banded against
# results/bench_load.json with a deliberately wide initial band
# (SEQGE_BENCH_LOAD_BAND_PCT, default 75) — absolute latency varies
# across hosts far more than the in-process ratio above, so this band
# only catches order-of-magnitude serving regressions. Lower is better
# here: only a *rise* beyond the band fails.
set -euo pipefail
cd "$(dirname "$0")/.."
ROOT=$(pwd)

work=$(mktemp -d)
LOAD_SERVER_PID=""
cleanup() {
  [[ -n $LOAD_SERVER_PID ]] && kill "$LOAD_SERVER_PID" 2>/dev/null || true
  rm -rf "$work"
}
trap cleanup EXIT
mkdir -p "$work/results"

# Pulls one numeric field out of a flat pretty-printed JSON file.
json_num() {
  sed -n 's/.*"'"$2"'": *\(-\{0,1\}[0-9][0-9.eE+-]*\).*/\1/p' "$1" | head -n1
}

fail=0
warn=0

# Cluster ingest-scaling: a hard scaling_ratio floor on multi-core hosts
# (single-owner partitioning means shards must buy throughput), a
# work-conservation check everywhere. The floor is a constant, not a
# baseline band: the whole point of the partitioning rework is that the
# 4-shard arm wins outright. Override: SEQGE_BENCH_CLUSTER_FLOOR.
CLUSTER_FLOOR=${SEQGE_BENCH_CLUSTER_FLOOR:-1.0}
CLUSTER_TARGET=1.5
cargo build --locked --release -q -p seqge-bench --bin bench_cluster
(cd "$work" && "$ROOT/target/release/bench_cluster" --json results/bench_cluster.json)
CLUSTER_FRESH=$work/results/bench_cluster.json
[[ -f $CLUSTER_FRESH ]] || { echo "FAIL: benchmark did not write bench_cluster.json"; exit 1; }
now=$(json_num "$CLUSTER_FRESH" scaling_ratio)
cores=$(nproc 2>/dev/null || echo 1)
exactly_once=$(grep -c '"exactly_once_verified": *true' "$CLUSTER_FRESH" || true)
if [[ -z $now ]]; then
  echo "FAIL: metric scaling_ratio missing from $CLUSTER_FRESH"
  fail=1
elif [[ $exactly_once -eq 0 ]]; then
  # The binary asserts the per-shard train-counter reconciliation and
  # refuses to emit the record without it; a missing marker means the
  # ratio compares arms doing different amounts of work.
  echo "FAIL: bench_cluster JSON lacks exactly_once_verified — ratio is not trustworthy"
  fail=1
elif ((cores >= 4)); then
  verdict=$(awk -v n="$now" -v floor="$CLUSTER_FLOOR" -v tgt="$CLUSTER_TARGET" 'BEGIN {
    if (n <= floor)     printf "%.2fx REGRESSION (hard floor %sx on a %sx-target multi-core host)", n, floor, tgt
    else if (n < tgt)   printf "%.2fx ok (above floor %sx, below target %sx)", n, floor, tgt
    else                printf "%.2fx ok (meets target %sx)", n, tgt
  }')
  echo "scaling_ratio (1->4 shards, $cores cores): $verdict"
  case $verdict in
  *REGRESSION*)
    echo "FAIL: added shards did not buy throughput: measured scaling_ratio=$now on $cores cores (floor $CLUSTER_FLOOR)"
    fail=1
    ;;
  esac
else
  echo "scaling_ratio (1->4 shards): $now on $cores core(s) — floor waived (<4 cores, trainer threads timeshare); exactly-once reconciliation held"
fi
if [[ -n ${GITHUB_STEP_SUMMARY:-} ]]; then
  {
    echo "### cluster ingest scaling"
    echo ""
    echo "| metric | value |"
    echo "|---|---|"
    echo "| scaling_ratio (1→4 shards) | ${now:-missing} |"
    echo "| cores | $cores |"
    echo "| floor | $CLUSTER_FLOOR (waived below 4 cores) |"
    echo "| target | $CLUSTER_TARGET |"
    echo "| exactly-once reconciliation | $([[ $exactly_once -gt 0 ]] && echo held || echo MISSING) |"
  } >>"$GITHUB_STEP_SUMMARY"
fi

# Serving-under-load gate (`seqge loadgen` hot_read vs a single-node
# serve booted here, no fault injection): steady_ok_rate has a hard floor
# — availability does not depend on host speed — and the steady topk p99
# is banded wide (latency in ms does). A p99 *above* the band fails; a
# drop below it warns to refresh the baseline. slo_pass must hold.
LOAD_BAND_PCT=${SEQGE_BENCH_LOAD_BAND_PCT:-75}
LOAD_BASELINE=${LOAD_BASELINE:-results/bench_load.json}
[[ -f $LOAD_BASELINE ]] || { echo "FAIL: baseline missing: $LOAD_BASELINE"; exit 1; }
cargo build --locked --release -q
"$ROOT/target/release/seqge" generate --dataset cora --scale 0.1 --out "$work/load_g.edges"
"$ROOT/target/release/seqge" serve --graph "$work/load_g.edges" --port 0 --dim 8 \
  >"$work/load_serve.log" 2>&1 &
LOAD_SERVER_PID=$!
for _ in $(seq 1 300); do
  grep -q '"msg":"listening on ' "$work/load_serve.log" && break
  sleep 0.2
done
LOAD_ADDR=$(sed -n 's/.*"msg":"listening on \([^"]*\)".*/\1/p' "$work/load_serve.log" | head -n1)
if [[ -z $LOAD_ADDR ]]; then
  echo "FAIL: load-gate server never came up"; cat "$work/load_serve.log"; fail=1
else
  LOAD_FRESH=$work/results/bench_load.json
  if ! "$ROOT/target/release/seqge" loadgen --scenario hot_read --target "$LOAD_ADDR" \
    --seed 42 --connections 2 --scale 0.3 --json "$LOAD_FRESH"; then
    echo "FAIL: loadgen run failed (steady-state SLO or transport)"
    fail=1
  else
    ok_rate=$(json_num "$LOAD_FRESH" steady_ok_rate)
    base=$(json_num "$LOAD_BASELINE" steady_topk_p99_ms)
    now=$(json_num "$LOAD_FRESH" steady_topk_p99_ms)
    if [[ -z $ok_rate || -z $base || -z $now ]]; then
      echo "FAIL: load metrics missing (ok_rate='$ok_rate' baseline='$base' fresh='$now')"
      fail=1
    else
      rate_verdict=$(awk -v r="$ok_rate" 'BEGIN {
        if (r < 0.99) printf "%.4f REGRESSION (floor 0.99)", r
        else          printf "%.4f ok (floor 0.99)", r
      }')
      echo "steady_ok_rate: $rate_verdict"
      case $rate_verdict in
      *REGRESSION*) fail=1 ;;
      esac
      verdict=$(awk -v b="$base" -v n="$now" -v band="$LOAD_BAND_PCT" 'BEGIN {
        d = (n - b) / b * 100
        if (d > band)       printf "%+.1f%% REGRESSION (latency band ±%s%%)", d, band
        else if (d < -band) printf "%+.1f%% below band — refresh baseline", d
        else                printf "%+.1f%% ok", d
      }')
      echo "steady_topk_p99_ms: baseline $base -> $now  ($verdict)"
      case $verdict in
      *REGRESSION*) fail=1 ;;
      *"refresh baseline"*) warn=1 ;;
      esac
    fi
  fi
fi
kill "$LOAD_SERVER_PID" 2>/dev/null || true
wait "$LOAD_SERVER_PID" 2>/dev/null || true
LOAD_SERVER_PID=""

if ((fail)); then
  echo "bench gate FAILED"
  exit 1
fi
((warn)) && echo "bench gate passed with warnings (baseline looks stale)"
echo "bench gate OK"
