#!/usr/bin/env bash
# bench.sh — run the per-experiment campaign benchmarks plus the ABR, obs,
# transport, fleet, and colf hot-path micro-benchmarks, emit BENCH_<n>.json:
# {"<name>": {"ns_per_op": ..., "bytes_per_op": ..., "allocs_per_op": ...,
# ["ues_per_s": ...], ["bytes_per_event": ...], ["mb_per_s": ...],
# ["x_vs_jsonl": ...], ["retained_b_per_ue": ...]}, ...}, plus a derived
# "FleetParallelScaling" entry (speedup and per-shard efficiency of the
# FleetCampaignShards sweep), and print the per-benchmark delta against the
# previous recording so the perf trajectory is tracked PR over PR.
#
# Usage:
#   scripts/bench.sh [output.json] [baseline.json]
#
# The output defaults to the next free BENCH_<n>.json and the baseline to
# the highest-numbered existing one, so a run never overwrites a committed
# record.
#
# Environment:
#   BENCHTIME   go test -benchtime value (default 1x: one full campaign per
#               benchmark; raise to e.g. 3x or 2s for steadier numbers)
set -euo pipefail
cd "$(dirname "$0")/.."

last=0
for f in BENCH_*.json; do
    n="${f#BENCH_}"
    n="${n%.json}"
    case "$n" in
        '' | *[!0-9]*) continue ;;
    esac
    if [ "$n" -gt "$last" ]; then
        last="$n"
    fi
done
out="${1:-BENCH_$((last + 1)).json}"
base="${2:-BENCH_$last.json}"
benchtime="${BENCHTIME:-1x}"
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

# Root package: one benchmark per paper table/figure plus the serial and
# parallel whole-campaign runners. internal/abr: the
# Simulate/MPC.Select/Evaluate hot path. internal/obs +
# internal/transport: the observability layer's cost contract —
# BenchmarkDisabledEmit and BenchmarkSimulateTCP are the
# tracing-disabled-overhead numbers (must stay 0 extra allocs/op),
# BenchmarkEnabledEmit / BenchmarkSimulateTCPObs price the enabled path.
# internal/fleet: city-scale campaign throughput (BenchmarkFleetCampaign
# reports UEs/s), the 0-alloc per-session contract (BenchmarkFleetSession),
# and the stream-mode reducer (retained_B/UE prices the O(shards) state).
# internal/obs/colf: the columnar artifact codec — bytes/event and encode
# MB/s are the ≥5x-smaller-than-JSONL artifact contract.
go test -run '^$' -bench '^Benchmark' -benchmem -benchtime "$benchtime" \
    . ./internal/abr ./internal/obs ./internal/obs/colf \
    ./internal/transport ./internal/fleet | tee "$raw"

awk '
BEGIN { n = 0 }
/^Benchmark/ {
    name = $1
    sub(/^Benchmark/, "", name)
    sub(/-[0-9]+$/, "", name)
    ns = ""; bytes = ""; allocs = ""; ues = ""
    bpe = ""; mbs = ""; ratio = ""; retained = ""
    for (i = 2; i <= NF; i++) {
        if ($i == "ns/op")         ns       = $(i - 1)
        if ($i == "B/op")          bytes    = $(i - 1)
        if ($i == "allocs/op")     allocs   = $(i - 1)
        if ($i == "UEs/s")         ues      = $(i - 1)
        if ($i == "bytes/event")   bpe      = $(i - 1)
        if ($i == "MB/s")          mbs      = $(i - 1)
        if ($i == "x_vs_jsonl")    ratio    = $(i - 1)
        if ($i == "retained_B/UE") retained = $(i - 1)
    }
    if (ns == "") next
    if (n++) printf(",\n")
    printf("  \"%s\": {\"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s",
           name, ns, bytes == "" ? "null" : bytes, allocs == "" ? "null" : allocs)
    if (ues != "")      printf(", \"ues_per_s\": %s", ues)
    if (bpe != "")      printf(", \"bytes_per_event\": %s", bpe)
    if (mbs != "")      printf(", \"mb_per_s\": %s", mbs)
    if (ratio != "")    printf(", \"x_vs_jsonl\": %s", ratio)
    if (retained != "") printf(", \"retained_b_per_ue\": %s", retained)
    printf("}")
}
END { if (n) printf("\n") }
' "$raw" | { echo "{"; cat; echo "}"; } > "$out"

# Derived: parallel scaling of the FleetCampaignShards sweep — speedup of
# the widest shard count over shards=1, and the per-shard efficiency
# (speedup / shards; 1.0 is perfect scaling). Appended as its own entry so
# the trajectory of the parallel story is tracked alongside the raw
# numbers. On a single-core host the efficiency records the (expected)
# absence of parallel speedup rather than hiding it.
scaling="$(awk '
/^BenchmarkFleetCampaignShards\/shards=/ {
    n = $1; sub(/^.*shards=/, "", n); sub(/-[0-9]+$/, "", n)
    ues = ""
    for (i = 2; i <= NF; i++) if ($i == "UEs/s") ues = $(i - 1)
    if (ues == "") next
    if (n == 1) base = ues
    if (n + 0 > maxn + 0) { maxn = n; maxues = ues }
}
END {
    if (base + 0 > 0 && maxn + 0 > 1)
        printf("  \"FleetParallelScaling\": {\"shards\": %s, \"speedup\": %.3f, \"efficiency\": %.3f}", maxn, maxues / base, maxues / base / maxn)
}' "$raw")"
if [ -n "$scaling" ]; then
    awk -v entry="$scaling" '
    NR == 1 { print; print entry ","; next }
    { print }
    ' "$out" > "$out.tmp" && mv "$out.tmp" "$out"
fi

echo "wrote $out ($(grep -c ns_per_op "$out") benchmarks)" >&2

# Per-benchmark delta vs the baseline recording, portable awk only: flatten
# each {"Name": {"ns_per_op": N, ...}} file to "Name ns allocs" lines and
# join on the name.
if [ -f "$base" ]; then
    flatten() {
        tr -d ' \n' < "$1" | tr '}' '\n' | awk -F'"' '
        /ns_per_op/ {
            name = $2
            split($0, kv, /ns_per_op":/);  split(kv[2], a, /[,}"]/)
            split($0, kv, /allocs_per_op":/); split(kv[2], b, /[,}"]/)
            print name, a[1], b[1]
        }'
    }
    echo "" >&2
    echo "delta vs $base (ns/op and allocs/op, new/old):" >&2
    { flatten "$base" | sed 's/^/OLD /'; flatten "$out" | sed 's/^/NEW /'; } | awk '
    $1 == "OLD" { ns[$2] = $3; al[$2] = $4; next }
    $1 == "NEW" {
        if (!($2 in ns)) { printf("  %-28s (new benchmark)\n", $2); next }
        rns = (ns[$2] > 0) ? $3 / ns[$2] : 0
        ral = (al[$2] > 0) ? $4 / al[$2] : ($4 == al[$2] ? 1 : 0)
        printf("  %-28s ns/op %10.0f -> %10.0f (%.2fx)   allocs %8d -> %8d (%.2fx)\n",
               $2, ns[$2], $3, rns, al[$2], $4, ral)
    }' >&2
fi
