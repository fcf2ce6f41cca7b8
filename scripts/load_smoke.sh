#!/usr/bin/env bash
# Load-generator smoke under chaos: boot a 2-shard cluster with shard-side
# fault injection (SEQGE_FAULT), drive it with the hot_read and edge_churn
# scenarios via `seqge loadgen`, and assert the accounting plane's
# contracts hold end to end:
#
#   * the generated schedule is bit-deterministic under --seed (dry-run
#     hash == dry-run hash == the live run's reported schedule_hash)
#   * zero hard protocol errors in any window (shed/degraded/transport are
#     acceptable chaos outcomes; malformed or refused-as-invalid replies
#     are bugs)
#   * SLO violations are bounded: the fault window may degrade, but not
#     into total collapse (>90% of its ops violating), and the steady
#     windows must pass the SLO verdict outright (`seqge loadgen` exits
#     non-zero on a steady-state SLO failure)
#   * each run's --json report is produced and schema-valid
#   * the router's own metrics count the storms' topk requests and export
#     the request-latency summary
#
# CI runs this as the `load-smoke` job.
set -euo pipefail
cd "$(dirname "$0")/.."

BIN=${BIN:-target/release/seqge}
if [[ ! -x $BIN ]]; then
  cargo build --locked --release
fi

# SEQGE_SMOKE_WORKDIR keeps the scratch dir (logs, flight-recorder
# dumps, bench JSON) at a known path that CI uploads as an artifact on
# failure; without it the dir is a throwaway mktemp, removed on exit.
if [[ -n ${SEQGE_SMOKE_WORKDIR:-} ]]; then
  work=$SEQGE_SMOKE_WORKDIR
  mkdir -p "$work"
  keep_work=1
else
  work=$(mktemp -d)
  keep_work=0
fi
CLUSTER_PID=""
cleanup() {
  [[ -n $CLUSTER_PID ]] && kill "$CLUSTER_PID" 2>/dev/null || true
  ((keep_work)) || rm -rf "$work"
}
trap cleanup EXIT

# Mild but real chaos on every shard: 0.2% of replies dropped before the
# ack (exercises loadgen reconnect + WriteId dedup), 0.5% stalled 30ms
# (fattens the latency tail without breaching the deliberately generous
# default SLO targets — steady verdicts must hold under this chaos, while
# fault-window violations track genuine storm queueing).
export SEQGE_FAULT="conn_drop=0.002,conn_stall=0.005"
export SEQGE_FAULT_SEED=7
export SEQGE_FAULT_STALL_MS=30

"$BIN" generate --dataset cora --scale 0.1 --out "$work/g.edges"

# Arm the flight recorder: the periodic dump (default 2s) must leave a
# parseable post-mortem even when the cluster is chaos-killed below.
SEQGE_FLIGHTREC="$work/frec" \
  "$BIN" cluster --graph "$work/g.edges" --base-dir "$work/shards" --shards 2 \
  --port 0 --dim 8 >"$work/cluster.log" 2>&1 &
CLUSTER_PID=$!

for _ in $(seq 1 300); do
  grep -q '"msg":".*router on ' "$work/cluster.log" && break
  sleep 0.2
done
ADDR=$(sed -n 's/.*router on \([0-9.:]*\)".*/\1/p' "$work/cluster.log" | head -n1)
[[ -n $ADDR ]] || { echo "FAIL: cluster never came up"; cat "$work/cluster.log"; exit 1; }
echo "cluster router at $ADDR (faults: $SEQGE_FAULT)"

# The node count the live run will probe from `stats` — the dry runs must
# use the same value for the schedule hashes to be comparable.
NODES=$(printf '{"cmd":"stats"}\n' | "$BIN" client --addr "$ADDR" |
  sed -n 's/.*"nodes":\([0-9]*\).*/\1/p' | head -n1)
[[ -n $NODES ]] || { echo "FAIL: stats probe returned no node count"; exit 1; }
echo "cluster serves $NODES nodes"

# Schedule determinism: two dry runs agree before any traffic flows.
"$BIN" loadgen --scenario hot_read --seed 42 --connections 2 --scale 0.3 \
  --nodes "$NODES" --dry-run >"$work/dry1.txt"
"$BIN" loadgen --scenario hot_read --seed 42 --connections 2 --scale 0.3 \
  --nodes "$NODES" --dry-run >"$work/dry2.txt"
cmp -s "$work/dry1.txt" "$work/dry2.txt" ||
  { echo "FAIL: dry-run schedule not deterministic"; diff "$work/dry1.txt" "$work/dry2.txt"; exit 1; }
DRY_HASH=$(sed -n 's/.*schedule_hash \([0-9a-f]*\).*/\1/p' "$work/dry1.txt")
echo "schedule_hash $DRY_HASH (deterministic)"

run_scenario() {
  local scenario=$1 out=$2
  "$BIN" loadgen --scenario "$scenario" --target "$ADDR" --seed 42 \
    --connections 2 --scale 0.3 --json "$out" ||
    { echo "FAIL: $scenario run failed (steady-state SLO or transport)"; cat "$out" 2>/dev/null; exit 1; }

  # Schema: the keys dashboards scrape.
  for key in scenario schedule_hash steady_ok_rate steady_topk_p99_ms slo_pass \
             windows slo_violations per_op hard_errors transport_errors exemplars; do
    grep -q "\"$key\"" "$out" ||
      { echo "FAIL: $scenario report lacks \"$key\""; cat "$out"; exit 1; }
  done

  # Any violated SLO bucket must carry at least one exemplar trace id
  # (loadgen traces every request, so a violation always has one).
  total_viol=$(sed -n 's/.*"slo_violations": *\([0-9]*\).*/\1/p' "$out" |
    awk '{s+=$1} END {print s+0}')
  if ((total_viol > 0)); then
    # Pretty-printed JSON puts array items on their own lines.
    grep -A1 '"trace_ids"' "$out" | grep -Eq '"[0-9a-f]{16}"' ||
      { echo "FAIL: $scenario violated SLOs but reports no exemplar trace ids"; cat "$out"; exit 1; }
  fi

  # Zero hard protocol errors anywhere — chaos may shed or degrade, never
  # corrupt.
  if sed -n 's/.*"hard_errors": *\([0-9]*\).*/\1/p' "$out" | grep -qv '^0$'; then
    echo "FAIL: $scenario saw hard protocol errors"; cat "$out"; exit 1
  fi

  # Bounded fault-window degradation: the storm may violate SLOs, but if
  # >90% of its ops violate, the plane collapsed rather than degraded.
  mapfile -t ops < <(sed -n 's/.*"ops": *\([0-9]*\).*/\1/p' "$out")
  mapfile -t viol < <(sed -n 's/.*"slo_violations": *\([0-9]*\).*/\1/p' "$out")
  [[ ${#ops[@]} -ge 2 && ${#viol[@]} -ge 2 ]] ||
    { echo "FAIL: $scenario report lacks both windows"; cat "$out"; exit 1; }
  fault_ops=${ops[1]} fault_viol=${viol[1]}
  if ((fault_ops > 0 && fault_viol * 10 > fault_ops * 9)); then
    echo "FAIL: $scenario fault window collapsed ($fault_viol/$fault_ops ops violated SLO)"
    exit 1
  fi
  echo "$scenario OK: steady viol ${viol[0]}/${ops[0]}, fault viol $fault_viol/$fault_ops"
}

run_scenario hot_read "$work/results/bench_load.json"

# The live run must replay exactly the schedule the dry run hashed.
grep -q "\"schedule_hash\": \"$DRY_HASH\"" "$work/results/bench_load.json" ||
  { echo "FAIL: live run hash differs from dry-run hash $DRY_HASH"; exit 1; }

run_scenario edge_churn "$work/results/bench_load_churn.json"

# The router must still be healthy and answering after both storms.
printf '%s\n' '{"cmd":"ping"}' '{"cmd":"cluster_status"}' |
  "$BIN" client --addr "$ADDR" >"$work/after.out"
grep -q '"pong":true' "$work/after.out" || { echo "FAIL: router dead after load"; exit 1; }

# The router's own request telemetry, booked by the front end it shares
# with the node (serve_smoke.sh checks the node's): the storms' topk
# requests are counted, and the latency family is exported as a summary.
"$BIN" obs dump --addr "$ADDR" --format prometheus >"$work/router_metrics.txt"
awk -v id='seqge_cluster_requests_total{op="topk"}' \
  '{v=$NF; sub(/ [^ ]*$/, ""); if ($0 == id && v + 0 > 0) found = 1} END {exit !found}' \
  "$work/router_metrics.txt" ||
  { echo "FAIL: router counted no topk requests"; cat "$work/router_metrics.txt"; exit 1; }
grep -q '^# TYPE seqge_cluster_request_latency_ns summary$' "$work/router_metrics.txt" ||
  { echo "FAIL: router latency summary missing"; exit 1; }
echo "router telemetry OK"

# Chaos-kill the cluster (no drain, no hooks) — the flight recorder's
# periodic dump must still leave a parseable post-mortem on disk.
kill -9 "$CLUSTER_PID" 2>/dev/null || true
wait "$CLUSTER_PID" 2>/dev/null || true
CLUSTER_PID=""
frec_file=$(ls "$work"/frec/flightrec-*.json 2>/dev/null | head -n1)
[[ -n $frec_file ]] ||
  { echo "FAIL: no flightrec dump survived the kill -9"; ls -la "$work/frec" 2>/dev/null || true; exit 1; }
jq -e '.role == "cluster" and (.spans | type == "array") and (.logs | type == "array")' \
  "$frec_file" >/dev/null ||
  { echo "FAIL: flightrec dump malformed"; cat "$frec_file"; exit 1; }
echo "flightrec post-mortem OK: $frec_file"

echo "load smoke OK"
