#!/usr/bin/env bash
# ci.sh — the repo's tier-1 gate: formatting, vet, build, and the full test
# suite under the race detector (which exercises the parallel experiment
# runner and its nothing-shared-between-experiments invariant).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt -s =="
unformatted="$(gofmt -l -s .)"
if [ -n "$unformatted" ]; then
    echo "gofmt -s needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

# Every binary and artifact the gates below build or write goes here.
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

echo "== fgvet (determinism invariants, all eight checks) =="
# The custom analyzer suite (internal/lint): simulated-clock time only,
# seed-threaded RNGs, sorted map iteration, no silently dropped internal
# errors — plus the interprocedural tier: no package-level writes from
# goroutine-reachable code (sharedwrite), no order-sensitive float folds
# over shard/worker results (fpfold), compiler-verified //fgvet:noalloc
# contracts (noalloc), and no stale //fgvet:allow suppressions
# (allowaudit). Any diagnostic — stale allows included — fails CI. FGVET.json is the machine-readable artifact,
# archived next to the BENCH_*.json files.
go build -o "$tmpdir/fgvet" ./cmd/fgvet
fgvet_start=$(date +%s%N)
if ! "$tmpdir/fgvet" -json \
    -checks walltime,seededrand,maporder,errdrop,sharedwrite,fpfold,noalloc,allowaudit \
    ./... > FGVET.json; then
    echo "fgvet diagnostics (also in FGVET.json):" >&2
    cat FGVET.json >&2
    exit 1
fi
fgvet_ms=$(( ( $(date +%s%N) - fgvet_start ) / 1000000 ))
echo "fgvet: clean in ${fgvet_ms}ms (whole-tree budget 5000ms)"
if [ "$fgvet_ms" -gt 5000 ]; then
    echo "warning: fgvet exceeded its 5s whole-tree budget (${fgvet_ms}ms); analyzer cost is drifting" >&2
fi

echo "== go build =="
go build ./...

echo "== go test -race =="
# -shuffle=on catches inter-test state leakage (e.g. shared trace-cache
# contamination); -count=1 defeats the test cache so the shuffle is real.
go test -race -shuffle=on -count=1 ./...

echo "== golden artifacts (chunk-kernel and battery bit-identity) =="
# The pinned fleet artifacts: any perf work on the chunk kernel (radio
# cache, power hoisting, download ladder, session loop) must leave campaign
# bytes untouched. The pinned battery artifacts do the same for the quick
# seed-1 battery: every table, both trace encodings and the metrics CSV,
# so a change the other gates cannot see (it hits serial and parallel,
# colf and JSONL alike) still fails here. A legitimate physics change
# regenerates the goldens with -update and reviews the diff; this gate
# makes that step explicit. The spill test holds the streaming trace
# encoder (fleet.Spill) to the bytes of the central reduce rendered in
# memory, in both formats, at shard counts {1,2,4,7}, with a colf block
# boundary inside a campaign.
go test ./internal/fleet -run 'TestGoldenArtifacts|TestSpillMatchesCentral' -count=1
go test ./internal/experiments -run 'TestBatteryGoldenArtifacts' -count=1

echo "== battery golden and kernel pins with amd64's other Exp path (FMA off) =="
# amd64's math.Exp assembly picks one of two code paths by whether the CPU
# has AVX and FMA; GODEBUG=cpu.fma=off takes the other one, which gives
# different bits on some inputs. The battery bytes, the dataset gendata
# writes, the transport kernel digest and the TCP loss-draw bracket must
# not notice. (On a CPU without FMA both runs take the same path.)
GODEBUG=cpu.fma=off go test ./internal/experiments -run 'TestBatteryGoldenArtifacts' -count=1
GODEBUG=cpu.fma=off go test ./cmd/gendata -run 'TestSmallDatasetDigest' -count=1
GODEBUG=cpu.fma=off go test ./internal/transport -run 'TestKernelDigest|TestLossBracketOracle' -count=1

echo "== golden artifacts under GOARCH=386 (pure-Go math, 32-bit int) =="
# The same goldens built for 386, which amd64 hosts run natively. The 386
# math package has no Exp or Log assembly, so this checks amd64's assembly
# against the pure-Go math on every pinned workload; it also runs the
# trace path with a 32-bit int. The transport kernel digest, the loss-draw
# bracket oracle and the MPC brute-force oracle run here too, so the pins
# on the two battery kernels hold under the pure-Go Exp. So do all of obs's
# tests (the merge oracle, the tracer footprint pin, colf's round trip and
# fuzz seed corpora): the tracer's compact store packs each record's field
# count and kind mask into bytes, and must hold with 4-byte ints and 8-byte
# strings too. The gendata dataset digest runs here as well.
GOARCH=386 go test ./internal/fleet -run 'TestGoldenArtifacts|TestSpillMatchesCentral' -count=1
GOARCH=386 go test ./internal/experiments -run 'TestBatteryGoldenArtifacts' -count=1
GOARCH=386 go test ./cmd/gendata -run 'TestSmallDatasetDigest' -count=1
GOARCH=386 go test ./internal/obs/... -count=1
GOARCH=386 go test ./internal/transport -run 'TestKernelDigest|TestLossBracketOracle' -count=1
GOARCH=386 go test ./internal/abr -run 'TestMPCMatchesBruteForce|TestNewMPCMatchesOldDFS' -count=1

echo "== battery determinism (serial vs parallel) =="
# The whole-campaign contract: rendered tables are byte-identical for any
# -parallel value. Run the quick battery both ways and diff the output.
go build -o "$tmpdir/fgrepro" ./cmd/fgrepro
"$tmpdir/fgrepro" -quick -seed 1 -parallel 1 all > "$tmpdir/serial.txt"
"$tmpdir/fgrepro" -quick -seed 1 -parallel 4 all > "$tmpdir/parallel.txt"
if ! diff -q "$tmpdir/serial.txt" "$tmpdir/parallel.txt" >/dev/null; then
    echo "battery output differs between serial and parallel runs:" >&2
    diff "$tmpdir/serial.txt" "$tmpdir/parallel.txt" >&2 || true
    exit 1
fi

echo "== observability determinism (artifacts + table bytes) =="
# Same contract for the side channel: -trace/-metrics artifacts must be
# byte-identical for any -parallel value, and enabling collection must not
# change a single table byte.
"$tmpdir/fgrepro" -quick -seed 1 -parallel 1 \
    -trace "$tmpdir/trace-s.jsonl" -metrics "$tmpdir/metrics-s.csv" all \
    > "$tmpdir/serial-obs.txt"
"$tmpdir/fgrepro" -quick -seed 1 -parallel 4 \
    -trace "$tmpdir/trace-p.jsonl" -metrics "$tmpdir/metrics-p.csv" all \
    > "$tmpdir/parallel-obs.txt"
for pair in "trace-s.jsonl trace-p.jsonl" "metrics-s.csv metrics-p.csv" \
            "serial-obs.txt parallel-obs.txt" "serial.txt serial-obs.txt"; do
    set -- $pair
    if ! diff -q "$tmpdir/$1" "$tmpdir/$2" >/dev/null; then
        echo "observability artifact/table mismatch: $1 vs $2" >&2
        exit 1
    fi
done

echo "== fleet determinism (serial vs sharded) =="
# The fleet contract: campaign tables and obs artifacts are byte-identical
# at any shard count. 403 UEs is deliberately indivisible by 7, so the
# sharded run exercises an uneven partition.
go build -o "$tmpdir/fgfleet" ./cmd/fgfleet
"$tmpdir/fgfleet" -ues 403 -shards 1 -seed 7 -window 60 \
    -trace "$tmpdir/fleet-trace-1.jsonl" -metrics "$tmpdir/fleet-metrics-1.csv" \
    > "$tmpdir/fleet-1.txt"
"$tmpdir/fgfleet" -ues 403 -shards 7 -seed 7 -window 60 \
    -trace "$tmpdir/fleet-trace-7.jsonl" -metrics "$tmpdir/fleet-metrics-7.csv" \
    > "$tmpdir/fleet-7.txt"
# Stream mode at 5000 UEs, where the 2048-entry bottom-k sketches
# subsample: the sketch merge and each shard's fold order must not reach a
# byte either.
for shards in 1 7; do
    "$tmpdir/fgfleet" -ues 5000 -shards "$shards" -seed 3 -stream \
        -trace "$tmpdir/fleet-stream-trace-$shards.jsonl" \
        -metrics "$tmpdir/fleet-stream-metrics-$shards.csv" \
        > "$tmpdir/fleet-stream-$shards.txt"
done
for pair in "fleet-1.txt fleet-7.txt" "fleet-trace-1.jsonl fleet-trace-7.jsonl" \
            "fleet-metrics-1.csv fleet-metrics-7.csv" \
            "fleet-stream-1.txt fleet-stream-7.txt" \
            "fleet-stream-trace-1.jsonl fleet-stream-trace-7.jsonl" \
            "fleet-stream-metrics-1.csv fleet-stream-metrics-7.csv"; do
    set -- $pair
    if ! diff -q "$tmpdir/$1" "$tmpdir/$2" >/dev/null; then
        echo "fleet output differs between serial and sharded runs: $1 vs $2" >&2
        diff "$tmpdir/$1" "$tmpdir/$2" >&2 || true
        exit 1
    fi
done

echo "== colf determinism (binary artifacts) =="
# The binary trace format inherits every byte-identity contract: colf
# bytes are identical serial vs 7-shard (and in stream mode), and decoding
# with colf2json reproduces the JSONL artifact exactly — for the fleet
# campaign and for the whole quick battery.
"$tmpdir/fgfleet" -ues 403 -shards 1 -seed 7 -window 60 \
    -trace "$tmpdir/fleet-1.colf" -trace-format colf > /dev/null
"$tmpdir/fgfleet" -ues 403 -shards 7 -seed 7 -window 60 \
    -trace "$tmpdir/fleet-7.colf" -trace-format colf > /dev/null
"$tmpdir/fgfleet" -ues 403 -shards 7 -seed 7 -window 60 -stream \
    -trace "$tmpdir/fleet-s.colf" -trace-format colf > "$tmpdir/fleet-stream.txt"
for pair in "fleet-1.colf fleet-7.colf" "fleet-1.colf fleet-s.colf" \
            "fleet-1.txt fleet-stream.txt"; do
    set -- $pair
    if ! diff -q "$tmpdir/$1" "$tmpdir/$2" >/dev/null; then
        echo "colf/stream fleet output mismatch: $1 vs $2" >&2
        exit 1
    fi
done
"$tmpdir/fgrepro" colf2json "$tmpdir/fleet-7.colf" > "$tmpdir/fleet-7.decoded.jsonl"
if ! diff -q "$tmpdir/fleet-trace-1.jsonl" "$tmpdir/fleet-7.decoded.jsonl" >/dev/null; then
    echo "decoded fleet colf trace differs from direct JSONL" >&2
    exit 1
fi
"$tmpdir/fgrepro" -quick -seed 1 -trace "$tmpdir/trace.colf" -trace-format colf all > /dev/null
"$tmpdir/fgrepro" colf2json "$tmpdir/trace.colf" > "$tmpdir/trace.decoded.jsonl"
if ! diff -q "$tmpdir/trace-s.jsonl" "$tmpdir/trace.decoded.jsonl" >/dev/null; then
    echo "decoded battery colf trace differs from direct JSONL" >&2
    exit 1
fi

echo "== fgservd smoke (served bytes = offline CLI bytes, incl. cache replay) =="
# The serving contract: a scenario streamed over HTTP is byte-identical to
# the offline fgrepro/fgfleet artifact for the same parameters, and a repeat
# request replays the cached artifact byte-identically (X-Fgserv-Cache: hit).
# fgservd and both CLIs run scenarios through the one serve.Run, so this
# step checks the HTTP transport (chunking, tee, cache replay) on every
# artifact path rather than drift between copies of the runner.
# The daemon picks a free port and publishes it via -addr-file; SIGTERM at
# the end must drain cleanly (exit 0).
go build -o "$tmpdir/fgservd" ./cmd/fgservd
"$tmpdir/fgservd" -addr 127.0.0.1:0 -addr-file "$tmpdir/fgservd.addr" \
    > "$tmpdir/fgservd.log" 2>&1 &
fgservd_pid=$!
for _ in $(seq 1 100); do
    [ -s "$tmpdir/fgservd.addr" ] && break
    sleep 0.1
done
if [ ! -s "$tmpdir/fgservd.addr" ]; then
    echo "fgservd never published its address:" >&2
    cat "$tmpdir/fgservd.log" >&2
    exit 1
fi
base="http://$(cat "$tmpdir/fgservd.addr" | tr -d '[:space:]')"

# Battery: the served quick-battery table, trace (jsonl) and metrics equal
# fgrepro's stdout, -trace and -metrics files.
battery_body() {
    printf '{"kind":"battery","quick":true,"artifact":"%s"}' "$1"
}
curl -sSf -X POST -H 'Content-Type: application/json' \
    -d "$(battery_body table)" "$base/v1/run" > "$tmpdir/served-battery.txt"
curl -sSf -X POST -d "$(battery_body trace)"   "$base/v1/run" > "$tmpdir/served-battery.jsonl"
curl -sSf -X POST -d "$(battery_body metrics)" "$base/v1/run" > "$tmpdir/served-battery.csv"
for pair in "serial.txt served-battery.txt" "trace-s.jsonl served-battery.jsonl" \
            "metrics-s.csv served-battery.csv"; do
    set -- $pair
    if ! cmp -s "$tmpdir/$1" "$tmpdir/$2"; then
        echo "served battery artifact differs from offline fgrepro: $1 vs $2" >&2
        exit 1
    fi
done

# Fleet: table, trace (jsonl and colf), and metrics each equal the fgfleet
# artifacts from the determinism gates above (ues 403, seed 7, window 60).
fleet_body() {
    printf '{"kind":"fleet","seed":7,"artifact":"%s"%s,"fleet":{"ues":403,"window_s":60}}' "$1" "${2:-}"
}
curl -sSf -X POST -d "$(fleet_body table)"   "$base/v1/run" > "$tmpdir/served-fleet.txt"
curl -sSf -X POST -d "$(fleet_body trace)"   "$base/v1/run" > "$tmpdir/served-fleet.jsonl"
curl -sSf -X POST -d "$(fleet_body trace ',"trace_format":"colf"')" \
    "$base/v1/run" > "$tmpdir/served-fleet.colf"
curl -sSf -X POST -d "$(fleet_body metrics)" "$base/v1/run" > "$tmpdir/served-fleet.csv"
for pair in "fleet-1.txt served-fleet.txt" "fleet-trace-1.jsonl served-fleet.jsonl" \
            "fleet-1.colf served-fleet.colf" "fleet-metrics-1.csv served-fleet.csv"; do
    set -- $pair
    if ! cmp -s "$tmpdir/$1" "$tmpdir/$2"; then
        echo "served fleet artifact differs from offline fgfleet: $1 vs $2" >&2
        exit 1
    fi
done

# Cache replay: the second fetch must be a hit and byte-identical.
curl -sSf -D "$tmpdir/replay-headers.txt" -X POST -d "$(fleet_body trace)" \
    "$base/v1/run" > "$tmpdir/served-fleet-replay.jsonl"
if ! grep -qi '^x-fgserv-cache: hit' "$tmpdir/replay-headers.txt"; then
    echo "repeat fleet trace request was not served from cache:" >&2
    cat "$tmpdir/replay-headers.txt" >&2
    exit 1
fi
if ! cmp -s "$tmpdir/served-fleet.jsonl" "$tmpdir/served-fleet-replay.jsonl"; then
    echo "cache replay is not byte-identical to the generated response" >&2
    exit 1
fi

# Graceful drain: SIGTERM must exit 0 after in-flight work completes.
kill -TERM "$fgservd_pid"
if ! wait "$fgservd_pid"; then
    echo "fgservd did not drain cleanly on SIGTERM:" >&2
    cat "$tmpdir/fgservd.log" >&2
    exit 1
fi

echo "== fgservd selftest (1000 concurrent requests, byte-verified) =="
# The load harness: 1000 requests with arrival times from the simulator's
# own arrival model, every 200 verified complete and byte-identical per
# scenario key. Back-pressure rejections are allowed; drops are not.
"$tmpdir/fgservd" -selftest -selftest-requests 1000

echo "ci: all green"
