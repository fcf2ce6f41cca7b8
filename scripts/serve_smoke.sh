#!/usr/bin/env bash
# Smoke test for the seqge-serve daemon: cold-boot a WAL store from a
# generated graph, run a scripted client session over the line-delimited
# JSON protocol, scrape the metrics registry, kill -9 the server, restart it
# from the store alone (the log replays; acked writes survive; its ANN read
# equals the exact one), and SIGINT that one gracefully; then boot the same
# graph under `--backend fpga-sim` and scrape its backend series, and
# finally kill -9 a 2-shard `seqge cluster` and read its flight-recorder
# dump. Exits non-zero on any failed
# assertion. CI runs this as the `serve-smoke` job.
#
# The server logs structured JSONL to stderr (seqge-obs), so readiness and
# lifecycle checks match on the "msg" field rather than raw lines.
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
SERVER_PID=""
cleanup() {
  [[ -n $SERVER_PID ]] && kill "$SERVER_PID" 2>/dev/null || true
  ((keep_work)) || rm -rf "$work"
}
trap cleanup EXIT

# Extracts the address from the JSONL "listening on HOST:PORT" record.
listen_addr() {
  sed -n 's/.*"msg":"listening on \([^"]*\)".*/\1/p' "$1" | head -n1
}

# Asserts that a Prometheus series (exact id, including any label block) is
# present in the scrape ($2, default $work/metrics.txt) with a value > 0.
check_series() {
  local file=${2:-$work/metrics.txt}
  awk -v id="$1" '{v=$NF; sub(/ [^ ]*$/, ""); if ($0 == id && v + 0 > 0) found = 1}
                  END {exit !found}' "$file" ||
    { echo "FAIL: metrics series missing or zero: $1"; cat "$file"; exit 1; }
}

"$BIN" generate --dataset cora --scale 0.05 --out "$work/g.edges"

# Sample every trace and point the flight recorder at a scratch dir (short
# period: the kill -9 below must find a periodic dump) so the
# trace/flightrec assertions below are deterministic.
export SEQGE_TRACE_SAMPLE=1 SEQGE_FLIGHTREC="$work/frec" SEQGE_FLIGHTREC_PERIOD_MS=200
"$BIN" serve --graph "$work/g.edges" --port 0 --dim 8 --log-level debug \
  --wal-dir "$work/wal" >"$work/serve.log" 2>&1 &
SERVER_PID=$!

for _ in $(seq 1 150); do
  grep -q '"msg":"listening on ' "$work/serve.log" && break
  sleep 0.2
done
ADDR=$(listen_addr "$work/serve.log")
[[ -n $ADDR ]] || { echo "FAIL: server never came up"; cat "$work/serve.log"; exit 1; }
echo "server at $ADDR"

# Startup logging is structured JSONL at info level.
grep -q '"level":"info".*"msg":"wal boot (float): gen 0 segment 0, 0 replayed' "$work/serve.log" ||
  { echo "FAIL: no structured cold-boot record"; cat "$work/serve.log"; exit 1; }

# One scripted session exercising both planes plus an error path. The
# write is sent twice under one client/seq: the second is a retry.
"$BIN" client --addr "$ADDR" >"$work/session.out" <<'EOF'
{"cmd":"ping"}
{"cmd":"add_edge","u":0,"v":5,"client":"smoke","seq":1}
{"cmd":"add_edge","u":0,"v":5,"client":"smoke","seq":1}
{"cmd":"flush"}
{"cmd":"get_embedding","node":5}
{"cmd":"topk","node":0,"k":3,"op":"cosine"}
{"cmd":"score_link","u":0,"v":5,"op":"cosine"}
{"cmd":"stats"}
{"cmd":"metrics","format":"json"}
{"cmd":"snapshot"}
{"cmd":"definitely_not_a_command"}
EOF
cat "$work/session.out"

grep -q '"pong":true' "$work/session.out" || { echo "FAIL: no pong"; exit 1; }
ok_count=$(grep -c '"ok":true' "$work/session.out")
[[ $ok_count -eq 10 ]] || { echo "FAIL: expected 10 ok responses, got $ok_count"; exit 1; }
sed -n 3p "$work/session.out" | jq -e '.deduped == true' >/dev/null ||
  { echo "FAIL: retried write not deduped"; exit 1; }
grep -q '"ok":false' "$work/session.out" || { echo "FAIL: unknown command not rejected"; exit 1; }
grep -q '"embedding":' "$work/session.out" || { echo "FAIL: no embedding row"; exit 1; }
grep -q '"edges_inserted":1' "$work/session.out" || { echo "FAIL: edge not applied"; exit 1; }
grep -q '"uptime_ms":' "$work/session.out" || { echo "FAIL: stats lacks uptime_ms"; exit 1; }
grep -q '"snapshot_version":' "$work/session.out" ||
  { echo "FAIL: stats lacks snapshot_version"; exit 1; }

# Scrape the registry through the metrics op; core series must be present
# and non-zero after the traffic above.
"$BIN" obs dump --addr "$ADDR" --format prometheus >"$work/metrics.txt"
check_series 'seqge_serve_requests_total{op="ping"}'
check_series 'seqge_serve_requests_total{op="stats"}'
check_series 'seqge_serve_request_latency_ns_count{op="get_embedding"}'
check_series 'seqge_serve_events_enqueued_total'
check_series 'seqge_serve_events_applied_total'
check_series 'seqge_serve_walks_trained_total'
check_series 'seqge_serve_snapshots_written_total'
check_series 'seqge_serve_ingest_batch_size_count'
check_series 'seqge_serve_snapshot_write_ns_count'
check_series 'seqge_core_walks_trained_total'
check_series 'seqge_core_contexts_total'
grep -qx 'seqge_serve_deduped_total 1' "$work/metrics.txt" ||
  { echo "FAIL: deduped counter is not 1"; grep deduped "$work/metrics.txt"; exit 1; }
grep -q '^# TYPE seqge_serve_request_latency_ns summary$' "$work/metrics.txt" ||
  { echo "FAIL: latency family untyped"; exit 1; }

# The JSON rendering of the same registry must parse as one object.
"$BIN" obs dump --addr "$ADDR" --format json >"$work/metrics.json"
head -c 13 "$work/metrics.json" | grep -q '{"counters":\[' ||
  { echo "FAIL: obs dump json malformed"; cat "$work/metrics.json"; exit 1; }
grep -q '"name":"seqge_serve_request_latency_ns"' "$work/metrics.json" ||
  { echo "FAIL: obs dump json lacks latency histogram"; exit 1; }

# Filtered + table renderings of the registry.
"$BIN" obs dump --addr "$ADDR" --format prometheus --filter seqge_serve_requests_total \
  >"$work/metrics.filtered.txt"
grep -q '^seqge_serve_requests_total{' "$work/metrics.filtered.txt" ||
  { echo "FAIL: --filter dropped the requested series"; exit 1; }
! grep -q 'seqge_core_' "$work/metrics.filtered.txt" ||
  { echo "FAIL: --filter leaked foreign series"; exit 1; }
"$BIN" obs dump --addr "$ADDR" --format table >"$work/metrics.table.txt"
grep -q 'seqge_serve_request_latency_ns' "$work/metrics.table.txt" ||
  { echo "FAIL: table mode lacks latency row"; exit 1; }

# The trace ring: every request above was sampled (SEQGE_TRACE_SAMPLE=1),
# so JSONL spans for the serve ops must be drainable...
"$BIN" obs trace --addr "$ADDR" >"$work/trace.jsonl"
grep -q '"name":"serve.ping"' "$work/trace.jsonl" ||
  { echo "FAIL: no serve.ping span in trace ring"; cat "$work/trace.jsonl"; exit 1; }
grep -q '"name":"write.visible"' "$work/trace.jsonl" ||
  { echo "FAIL: no write.visible freshness span"; exit 1; }
jq -s -e 'length > 0 and all(.trace and .span and .name)' "$work/trace.jsonl" >/dev/null ||
  { echo "FAIL: trace JSONL malformed"; exit 1; }

# ...and the Chrome exporter must emit a trace_event document that a real
# viewer would accept: complete events with µs timestamps and pid/tid.
"$BIN" obs trace --addr "$ADDR" --chrome "$work/trace.chrome.json"
jq -e '.displayTimeUnit == "ms" and (.traceEvents | length > 0) and
       (.traceEvents | all(.ph == "X" and .name and .pid and .tid and
                           (.ts | type == "number") and (.dur >= 1)))' \
  "$work/trace.chrome.json" >/dev/null ||
  { echo "FAIL: Chrome trace document malformed"; cat "$work/trace.chrome.json"; exit 1; }

# Freshness plane: the add_edge above published, so the event counter and
# the per-batch histogram must both be live.
check_series 'seqge_freshness_events_total'
grep -q 'seqge_freshness_ns_count{batch="1"}' "$work/metrics.txt" ||
  { echo "FAIL: freshness histogram missing batch=1 bucket"; exit 1; }
grep -q '"snapshot_staleness_ms":' "$work/session.out" ||
  { echo "FAIL: stats lacks snapshot_staleness_ms"; exit 1; }

# The flight recorder is live-fetchable while the server runs.
printf '%s\n' '{"cmd":"flightrec"}' | "$BIN" client --addr "$ADDR" >"$work/frec.live.out"
grep -q '"spans":' "$work/frec.live.out" ||
  { echo "FAIL: flightrec op returned no span ring"; cat "$work/frec.live.out"; exit 1; }

# Two more acked writes *after* the snapshot above rotated the log: they
# live only in the active segment, so only replay can bring them back.
"$BIN" client --addr "$ADDR" >"$work/session.tail.out" <<'EOF'
{"cmd":"add_edge","u":1,"v":9}
{"cmd":"add_edge","u":2,"v":11}
{"cmd":"flush"}
{"cmd":"stats"}
EOF
[[ $(grep -c '"ok":true' "$work/session.tail.out") -eq 4 ]] ||
  { echo "FAIL: post-snapshot writes not acked"; cat "$work/session.tail.out"; exit 1; }
edges_before=$(tail -n1 "$work/session.tail.out" | jq '.edges')

# kill -9: no drain, no final generation. What survives for forensics is the
# periodic flight-recorder dump, stamped with role and pid.
sleep 0.5
kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
frec_file="$work/frec/flightrec-$SERVER_PID.json"
SERVER_PID=""
jq -e '.role == "serve" and .pid and (.spans | type == "array") and (.logs | type == "array")' \
  "$frec_file" >/dev/null ||
  { echo "FAIL: no flightrec dump survived kill -9"; ls -la "$work/frec" || true; exit 1; }

# Restart from the store alone (no --graph): the log replays over the last
# generation, and the pre-kill acked edges are still there and still score.
"$BIN" serve --port 0 --dim 8 --wal-dir "$work/wal" >"$work/serve2.log" 2>&1 &
SERVER_PID=$!
for _ in $(seq 1 150); do
  grep -q '"msg":"listening on ' "$work/serve2.log" && break
  sleep 0.2
done
ADDR2=$(listen_addr "$work/serve2.log")
[[ -n $ADDR2 ]] || { echo "FAIL: restarted server never came up"; cat "$work/serve2.log"; exit 1; }
replayed=$(sed -n 's/.*"msg":"wal boot ([^)]*): gen 1 segment 1, \([0-9]*\) replayed.*/\1/p' \
  "$work/serve2.log")
[[ ${replayed:-0} -gt 0 ]] ||
  { echo "FAIL: restart replayed nothing"; cat "$work/serve2.log"; exit 1; }

printf '%s\n' '{"cmd":"stats"}' '{"cmd":"score_link","u":1,"v":9,"op":"cosine"}' \
  '{"cmd":"topk","node":1,"k":3,"mode":"ann"}' '{"cmd":"topk","node":1,"k":3}' |
  "$BIN" client --addr "$ADDR2" >"$work/session2.out"
cat "$work/session2.out"
[[ $(head -n1 "$work/session2.out" | jq '.edges') -eq $edges_before ]] ||
  { echo "FAIL: recovered graph lost acked edges (had $edges_before)"; exit 1; }
head -n1 "$work/session2.out" | jq -e --argjson n "$replayed" '.wal_replayed == $n' >/dev/null ||
  { echo "FAIL: stats disagree with the boot log on replayed events"; exit 1; }
sed -n 2p "$work/session2.out" | jq -e '.ok and (.score | type == "number")' >/dev/null ||
  { echo "FAIL: pre-kill acked edge does not score"; exit 1; }
# The recovered node's index answers `mode:"ann"`; its candidate budget
# (128 · (8 + 1) nodes) covers the smoke graph, so the reply is the exact one.
sed -n 3p "$work/session2.out" | jq -e '.ok and .fallback == false' >/dev/null ||
  { echo "FAIL: recovered node's ann topk fell back or failed"; exit 1; }
sed -n 3,4p "$work/session2.out" | jq -s -e '.[0].results == .[1].results and (.[0].results | length) == 3' >/dev/null ||
  { echo "FAIL: recovered node's ann topk differs from the exact one"; exit 1; }

# Graceful SIGINT: drain, commit a final generation, exit 0 — so a replay
# audit of the store afterwards finds nothing left to replay.
kill -INT "$SERVER_PID"
wait "$SERVER_PID" || { echo "FAIL: server exited non-zero"; cat "$work/serve2.log"; exit 1; }
SERVER_PID=""
grep -q '"msg":"serve stopped"' "$work/serve2.log" ||
  { echo "FAIL: no graceful-stop record"; cat "$work/serve2.log"; exit 1; }
"$BIN" serve --dim 8 --wal-dir "$work/wal" --wal-replay-check >"$work/replay_check.out"
cat "$work/replay_check.out"
grep -q '^replay: 0 applied' "$work/replay_check.out" ||
  { echo "FAIL: graceful stop left events to replay"; exit 1; }
grep -q 'deterministic: true' "$work/replay_check.out" ||
  { echo "FAIL: replay audit not deterministic"; exit 1; }

# The fpga-sim leg: same graph, the fixed-point backend, one write + flush,
# and its series must reach the live registry — the cycle planner, the
# deviation (the boot window is always shadowed) and the saturation counter
# (present; 0 on a healthy stream).
"$BIN" serve --graph "$work/g.edges" --port 0 --dim 8 --backend fpga-sim \
  --wal-dir "$work/wal-fpga" >"$work/serve-fpga.log" 2>&1 &
SERVER_PID=$!
for _ in $(seq 1 150); do
  grep -q '"msg":"listening on ' "$work/serve-fpga.log" && break
  sleep 0.2
done
ADDR3=$(listen_addr "$work/serve-fpga.log")
[[ -n $ADDR3 ]] || { echo "FAIL: fpga-sim server never came up"; cat "$work/serve-fpga.log"; exit 1; }
printf '%s\n' '{"cmd":"add_edge","u":0,"v":5}' '{"cmd":"flush"}' |
  "$BIN" client --addr "$ADDR3" >"$work/session-fpga.out"
[[ $(grep -c '"ok":true' "$work/session-fpga.out") -eq 2 ]] ||
  { echo "FAIL: fpga-sim write not acked"; cat "$work/session-fpga.out"; exit 1; }
"$BIN" obs dump --addr "$ADDR3" --format prometheus >"$work/metrics-fpga.txt"
check_series 'seqge_backend_cycles_total' "$work/metrics-fpga.txt"
check_series 'seqge_backend_deviation' "$work/metrics-fpga.txt"
grep -q '^seqge_backend_saturations_total ' "$work/metrics-fpga.txt" ||
  { echo "FAIL: no saturation counter"; cat "$work/metrics-fpga.txt"; exit 1; }
kill -INT "$SERVER_PID"
wait "$SERVER_PID" || { echo "FAIL: fpga-sim server exited non-zero"; exit 1; }
SERVER_PID=""

# The cluster leg: a 2-shard `seqge cluster` on the same graph, killed -9
# once its router is up. The flight recorder's periodic dump must leave a
# parseable post-mortem stamped with the cluster role.
"$BIN" cluster --graph "$work/g.edges" --base-dir "$work/shards" --shards 2 \
  --port 0 --dim 8 >"$work/cluster.log" 2>&1 &
SERVER_PID=$!
for _ in $(seq 1 150); do
  grep -q '"msg":".*router on ' "$work/cluster.log" && break
  sleep 0.2
done
grep -q '"msg":".*router on ' "$work/cluster.log" ||
  { echo "FAIL: cluster never came up"; cat "$work/cluster.log"; exit 1; }
sleep 0.5
kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
frec_file="$work/frec/flightrec-$SERVER_PID.json"
SERVER_PID=""
jq -e '.role == "cluster" and (.spans | type == "array") and (.logs | type == "array")' \
  "$frec_file" >/dev/null ||
  { echo "FAIL: no cluster flightrec dump survived kill -9"; ls -la "$work/frec" || true; exit 1; }

echo "serve smoke OK"
