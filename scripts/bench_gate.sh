#!/usr/bin/env bash
# The cluster floor: the one serving-side measurement the repo benchmark
# (benchmark/, BENCHMARK.json) does not carry yet. The node itself —
# training kernels, ingest, reads, latency under its own load — is gated
# there against the parent commit, not here.
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
set -euo pipefail
cd "$(dirname "$0")/.."
ROOT=$(pwd)

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir -p "$work/results"

# Pulls one numeric field out of a flat pretty-printed JSON file.
json_num() {
  sed -n 's/.*"'"$2"'": *\(-\{0,1\}[0-9][0-9.eE+-]*\).*/\1/p' "$1" | head -n1
}

fail=0

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

if ((fail)); then
  echo "bench gate FAILED"
  exit 1
fi
echo "bench gate OK"
