#!/usr/bin/env bash
# One point of the benchmark trajectory (ROADMAP north star 1):
#   scripts/bench_trajectory.sh <pr> <parent-rev> [claimed-workload] [claimed-metric]
# Copies <parent-rev> under target/ (git archive), builds it and the working
# tree with the BENCHMARK.json command, runs alternating parent/change pairs on
# equal seeds (seed = pair number; ten pairs on the claimed workload, three on
# the others) and one --trace 1 pair on seed 7 of the claimed workload, and
# writes BENCH_<pr>.json. About 50 minutes on 2 vCPUs, two cold builds included.
set -euo pipefail
cd "$(dirname "$0")/.."
pr=${1:?usage: bench_trajectory.sh <pr> <parent-rev> [claimed-workload] [claimed-metric]}
rev=$(git rev-parse --verify "${2:?parent rev}^{commit}")
claimed=${3:-large_float}
metric=${4:-ingest_eps}
jq -e --arg w "$claimed" --arg m "$metric" \
  'any(.workloads[]; .name == $w) and any(.end_to_end[]; .name == $m)' BENCHMARK.json > /dev/null \
  || { echo "BENCHMARK.json declares no workload '$claimed' or end-to-end metric '$metric'" >&2; exit 1; }
work=$PWD/target/bench_trajectory
declare -A dir=([parent]=$work/parent [change]=$PWD)
rm -rf "$work" && mkdir -p "$work/parent" "$work/runs"
git archive "$rev" | tar -x -C "$work/parent"
cmd=$(jq -r '.command | join(" ")' BENCHMARK.json)
secs=$(jq -r .run_seconds BENCHMARK.json)
build=$(jq -r '.command - ["--"] | join(" ") | sub(" run "; " build ")' BENCHMARK.json)
for side in parent change; do (cd "${dir[$side]}" && $build); done
run() { # side workload seed trace
  (cd "${dir[$1]}" && $cmd --workload "$2" --seed "$3" --seconds "$secs" --trace "$4" | tail -n 1) \
    > "$work/runs/$1-$2-$3-t$4.json"
}
for w in $(jq -r '.workloads[].name' BENCHMARK.json); do
  pairs=3 && [ "$w" = "$claimed" ] && pairs=10
  for i in $(seq "$pairs"); do
    order="parent change" && ((i % 2 == 0)) && order="change parent"
    for side in $order; do run "$side" "$w" "$i" 0; done
  done
done
for side in parent change; do run "$side" "$claimed" 7 1; done
# Which instantiation of the fpga-sim kernel ran depends on the host CPU
# (seqge_fpga::kernel_isa), so a trajectory point records it.
cpu=$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo | head -n 1)
avx2=false && grep -qw avx2 /proc/cpuinfo && avx2=true
host=$(jq -n --arg nproc "$(nproc)" --arg kernel "$(uname -r)" --arg rustc "$(rustc --version)" \
  --arg date "$(date -u +%F)" --arg cpu "$cpu" --argjson avx2 "$avx2" \
  '{nproc: ($nproc | tonumber), cpu: $cpu, avx2: $avx2, kernel: $kernel, rustc: $rustc, date: $date}')
jq -n --slurpfile b BENCHMARK.json --argjson host "$host" --arg pr "$pr" --arg rev "$rev" --arg claimed "$claimed" \
  --arg metric "$metric" '
  def quant(p): sort as $s | ((($s | length) - 1) * p) as $i | ($i | floor) as $l
    | $s[$l] + ($s[[$l + 1, ($s | length) - 1] | min] - $s[$l]) * ($i - $l);
  def stats: {median: quant(0.5), q1: quant(0.25), q3: quant(0.75)};
  def side($r; $w; $s; $t): $r | map(select(.f.w == $w and .f.side == $s and .f.t == $t)) | sort_by(.f.seed | tonumber);
  $b[0] as $b
  | [inputs | {f: (input_filename | capture("/(?<side>[a-z]+)-(?<w>\\w+)-(?<seed>\\d+)-t(?<t>\\d)\\.json$")), m: .metrics, failed}] as $r
  | {pr: ($pr | tonumber), parent: $rev, claimed: $claimed, claimed_metric: $metric,
     seconds: $b.run_seconds, host: $host,
     workloads: ($b.workloads | map(.name as $w | side($r; $w; "parent"; "0") as $p | side($r; $w; "change"; "0") as $c
       | {key: $w, value: {pairs: ($p | length), failed: {parent: ($p | map(.failed) | add), change: ($c | map(.failed) | add)},
           end_to_end: ($b.end_to_end | map(.name as $m | (if .better == "lower" then -1 else 1 end) as $sign
             | [range($p | length) | ($c[.].m[$m].value - $p[.].m[$m].value) * $sign] as $d
             | {key: $m, value: {parent: ($p | map(.m[$m].value) | stats), change: ($c | map(.m[$m].value) | stats),
                 pairs_won: ($d | map(select(. > 0)) | length), pairs_lost: ($d | map(select(. < 0)) | length)}}) | from_entries)}})
       | from_entries),
     per_layer: (side($r; $claimed; "parent"; "1")[0].m as $p | side($r; $claimed; "change"; "1")[0].m as $c
       | {workload: $claimed, seed: 7, lines: ($b.per_layer | map(.name as $m | select($p[$m] and $c[$m])
           | $p[$m].value as $pv | $c[$m].value as $cv
           | {key: $m, value: {parent: $pv, change: $cv, unit: .unit,
               moved: (if $pv == 0 then $cv != 0 else (($cv / $pv - 1) | fabs) > 0.1 end)}}) | from_entries)})}
' "$work"/runs/*.json > "BENCH_$pr.json"
