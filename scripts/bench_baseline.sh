#!/usr/bin/env bash
# bench_baseline.sh — record the performance trajectory of the simulation
# engine and the parallel experiment runner in BENCH_sweep.json.
#
#   scripts/bench_baseline.sh            # run benchmarks, write BENCH_sweep.json
#   BENCHTIME=2s scripts/bench_baseline.sh
#
# The JSON holds three blocks:
#   baseline   — the pre-optimization engine (container/heap + two-channel
#                scheduler), measured once before the rewrite and kept fixed
#                as the comparison point;
#   current    — this checkout, measured now: engine event throughput
#                (ns/event, events/s, allocs/op), the per-line-access cost
#                of the machine load and store hot paths, the Figure 9
#                triad sweep wall-clock at -parallel 1 vs GOMAXPROCS, the
#                Table I latency sweep wall-clock cold vs converged
#                (ConvergeAfter) vs cache-warm (memo), and the contention+
#                congestion sweep wall-clock;
#   trajectory — append-only history, one record per run: git SHA, UTC
#                date, ns/event, ns_per_line_access and allocs/op.
#                Earlier records are preserved across runs, so the file
#                accumulates the engine's performance trajectory over the
#                repo's life.
#
# GOMAXPROCS is pinned explicitly (inherited value, else the online CPU
# count) and recorded in the JSON, so a sweep speedup can be judged
# against the parallelism it actually ran with: on a 1-CPU host the
# parallel sweep cannot beat serial (speedup ~= 1; the pre-pooling runner
# showed 0.98 from worker overhead with a single scheduler thread).
set -euo pipefail
cd "$(dirname "$0")/.."

benchtime="${BENCHTIME:-1s}"
out="BENCH_sweep.json"

cores="${GOMAXPROCS:-$(getconf _NPROCESSORS_ONLN)}"
export GOMAXPROCS="$cores"

engine=$(go test -bench=EngineEventThroughput -benchmem -benchtime="$benchtime" -run '^$' ./internal/sim/)
hotpath=$(go test -bench='^Benchmark(Load|Store)LineHotPath$' -benchmem -benchtime="$benchtime" -run '^$' ./internal/machine/)
sweep=$(go test -bench=SweepParallel -benchtime=1x -run '^$' ./internal/exp/)
latency=$(go test -bench=LatencySweep -benchtime=3x -run '^$' ./internal/exp/)
contention=$(go test -bench=ContentionSweep -benchtime=3x -run '^$' ./internal/exp/)

# go test -bench output:
# BenchmarkEngineEventThroughput  N  <ns/op> ns/op  <ev/s> events/s  <ns/ev> ns/event  <B> B/op  <allocs> allocs/op
read -r ns_op events_s ns_event b_op allocs_op <<EOF
$(echo "$engine" | awk '/^BenchmarkEngineEventThroughput/ {
    for (i = 1; i <= NF; i++) {
        if ($i == "ns/op")     ns = $(i-1)
        if ($i == "events/s")  ev = $(i-1)
        if ($i == "ns/event")  ne = $(i-1)
        if ($i == "B/op")      b  = $(i-1)
        if ($i == "allocs/op") a  = $(i-1)
    }
    print ns, ev, ne, b, a
}')
EOF

# BenchmarkLoadLineHotPath  N  <ns/op> ns/op  <B> B/op  <allocs> allocs/op
read -r line_ns line_allocs <<EOF
$(echo "$hotpath" | awk '/^BenchmarkLoadLineHotPath/ {
    for (i = 1; i <= NF; i++) {
        if ($i == "ns/op")     ns = $(i-1)
        if ($i == "allocs/op") a  = $(i-1)
    }
    print ns, a
}')
EOF

read -r store_ns store_allocs <<EOF
$(echo "$hotpath" | awk '/^BenchmarkStoreLineHotPath/ {
    for (i = 1; i <= NF; i++) {
        if ($i == "ns/op")     ns = $(i-1)
        if ($i == "allocs/op") a  = $(i-1)
    }
    print ns, a
}')
EOF

serial_ns=$(echo "$sweep" | awk '/SweepParallel\/serial/     { for (i=1;i<=NF;i++) if ($i=="ns/op") print $(i-1) }')
par_ns=$(echo "$sweep"    | awk '/SweepParallel\/gomaxprocs/ { for (i=1;i<=NF;i++) if ($i=="ns/op") print $(i-1) }')
speedup=$(awk -v s="$serial_ns" -v p="$par_ns" 'BEGIN { printf "%.2f", s / p }')

# Table I latency sweep wall-clock under the three execution regimes:
# cold (exact simulation), converged (ConvergeAfter extrapolation), and
# cache-warm (answered from the memo cache). The PR acceptance bar is
# cold/converged >= 5.
cold_ns=$(echo "$latency"      | awk '/LatencySweep\/cold/      { for (i=1;i<=NF;i++) if ($i=="ns/op") print $(i-1) }')
converged_ns=$(echo "$latency" | awk '/LatencySweep\/converged/ { for (i=1;i<=NF;i++) if ($i=="ns/op") print $(i-1) }')
warm_ns=$(echo "$latency"      | awk '/LatencySweep\/warm/      { for (i=1;i<=NF;i++) if ($i=="ns/op") print $(i-1) }')
converge_speedup=$(awk -v c="$cold_ns" -v g="$converged_ns" 'BEGIN { printf "%.2f", c / g }')
warm_speedup=$(awk -v c="$cold_ns" -v w="$warm_ns" 'BEGIN { printf "%.2f", c / w }')

# Contention + congestion sweep wall-clock (store walk + signal-watch
# juncture).
steps_ns=$(echo "$contention" | awk '/^BenchmarkContentionSweep/ { for (i=1;i<=NF;i++) if ($i=="ns/op") print $(i-1) }')

# Carry the trajectory forward before overwriting the file.
traj='[]'
if [ -f "$out" ]; then
    traj=$(jq -c '.trajectory // []' "$out" 2>/dev/null || echo '[]')
fi
sha=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
today=$(date -u +%Y-%m-%d)

tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT
cat > "$tmp" <<EOF
{
  "comment": "engine + sweep performance trajectory; regenerate with scripts/bench_baseline.sh",
  "baseline": {
    "engine": "container/heap + two-channel scheduler (pre-rewrite)",
    "event_throughput": {
      "ns_per_op": 2748,
      "ns_per_event": 687.1,
      "events_per_sec": 1455367,
      "bytes_per_op": 192,
      "allocs_per_op": 8
    },
    "process_handoff_ns_per_op": 592.8,
    "spawn_churn": { "ns_per_op": 2218, "bytes_per_op": 320, "allocs_per_op": 9 },
    "sweep": "serial only (no -parallel)"
  },
  "current": {
    "engine": "4-ary slice heap with a same-instant FIFO lane + stackless step processes (the only process kind)",
    "gomaxprocs": $cores,
    "event_throughput": {
      "ns_per_op": $ns_op,
      "ns_per_event": $ns_event,
      "events_per_sec": $events_s,
      "bytes_per_op": $b_op,
      "allocs_per_op": $allocs_op
    },
    "line_access": {
      "ns_per_line_access": $line_ns,
      "allocs_per_op": $line_allocs,
      "store_ns_per_line_access": $store_ns,
      "store_allocs_per_op": $store_allocs
    },
    "fig9_triad_sweep": {
      "serial_ns_per_op": $serial_ns,
      "gomaxprocs_ns_per_op": $par_ns,
      "speedup": $speedup
    },
    "table1_latency_sweep": {
      "cold_ns_per_op": $cold_ns,
      "converged_ns_per_op": $converged_ns,
      "cache_warm_ns_per_op": $warm_ns,
      "converge_speedup": $converge_speedup,
      "cache_warm_speedup": $warm_speedup
    },
    "contention_congestion_sweep": {
      "steps_ns_per_op": $steps_ns
    }
  }
}
EOF

jq --argjson traj "$traj" \
   --arg sha "$sha" --arg date "$today" \
   --argjson ns_event "$ns_event" --argjson line_ns "$line_ns" \
   --argjson store_ns "$store_ns" \
   --argjson contention_ns "$steps_ns" \
   --argjson allocs "$allocs_op" \
   '.trajectory = $traj + [{sha: $sha, date: $date,
                            ns_per_event: $ns_event,
                            ns_per_line_access: $line_ns,
                            store_ns_per_line_access: $store_ns,
                            contention_sweep_ns: $contention_ns,
                            allocs_per_op: $allocs}]' \
   "$tmp" > "$out"

echo "wrote $out:"
cat "$out"
