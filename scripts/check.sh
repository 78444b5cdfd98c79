#!/usr/bin/env sh
# Tier-1 gate: everything that must be green before a change lands.
#
#   1. go vet        — static checks
#   2. ijlint        — the engine's domain-specific analyzers (docs/LINTS.md):
#                      exhaustive Allen switches, emitter escapes, sync.Pool
#                      hygiene, shard-lock discipline, hot-path ban list
#   3. go build      — the whole module compiles
#   4. obs smoke     — disabled-tracer and disabled-telemetry zero-cost
#                      contracts (nil tracer/registry = nil check + zero
#                      allocs; docs/OBSERVABILITY.md)
#   5. go test -race — full suite (unit, integration, property, oracle
#                      cross-validation) under the race detector; the MR
#                      engine is deliberately concurrent, so -race is part
#                      of the gate, not an optional extra; then a 5-second
#                      fuzz smoke of the two decoders that now read
#                      arbitrary bytes: the binary record codec
#                      (FuzzRecordDecode) and the spill records carrying it
#                      (FuzzSpillRecordRoundTrip)
#   6. bench module  — bench/ is a nested module the root ./... does not
#                      reach; it compiles against internal packages, so it
#                      is vetted and tested here, where an internal API
#                      change that breaks the repository's benchmark can
#                      still be fixed; one short traced pass follows, since
#                      the layer probes call internal APIs at run time too
#   7. live scrape   — ijoind -selfcheck boots the real server, drives the
#                      query mix over HTTP, strictly validates the /metrics
#                      exposition text, and archives the scrape plus a
#                      sampled query trace (docs/OBSERVABILITY.md)
#   8. bench emitter — regenerates the benchmark baseline so perf-sensitive
#                      changes ship with fresh numbers, plus the traced
#                      chain-run artifacts (scripts/bench.sh)
#
# Usage: scripts/check.sh            (full gate)
#        SKIP_BENCH=1 scripts/check.sh   (skip the baseline regeneration)
set -eu

cd "$(dirname "$0")/.."

echo "== go vet =="
go vet ./...

echo "== ijlint =="
# -time prints the per-analyzer wall breakdown to stderr: the informal
# budget is <10s for any single analyzer (TestModuleIsClean enforces the
# same bound in-process). The findings JSON is kept as a CI artifact and
# re-rendered as PR annotations by `ijlint -annotate-from`.
mkdir -p artifacts
go run ./cmd/ijlint -time -json artifacts/lint.json ./...

echo "== go build =="
go build ./...

echo "== disabled-tracer overhead smoke =="
# The obs layer's contract is that a nil tracer costs a nil check and
# zero allocations on every instrumentation point (docs/OBSERVABILITY.md);
# TestDisabledTracerZeroCost pins that with testing.AllocsPerRun, and
# TestLiveDisabledZeroCost pins the same contract for the live metrics
# registry. Run them by name so a contract break fails fast with an
# unambiguous message before the full -race suite.
go test -run 'TestDisabledTracer' ./internal/obs/
go test -run 'TestLiveDisabledZeroCost' ./internal/obs/live/

echo "== go test -race =="
go test -race ./...

echo "== fuzz smoke =="
# The engine's records are fixed-width binary and spill values are arbitrary
# bytes: five seconds of fuzzing per decoder catches a panic or a lost
# length check that the seed corpus (run by the suite above) does not.
go test -run '^$' -fuzz '^FuzzRecordDecode$' -fuzztime 5s ./internal/core
go test -run '^$' -fuzz '^FuzzSpillRecordRoundTrip$' -fuzztime 5s ./internal/mr

echo "== benchmark module =="
go vet -C bench ./...
go test -C bench ./...
# The traced pass runs every layer probe against the internal packages and
# exits 1 when one breaks (say, a probe reading a store file the engine no
# longer writes) — which neither vet nor the module's tests would notice.
bash bench/run.sh --workload batch-sparse --seconds 2 --trace 1 >/dev/null

echo "== live /metrics scrape =="
# Boot the real ijoind on a loopback port, fire the query mix at it over
# HTTP, and strictly validate the /metrics exposition (duplicate series,
# bad names, broken histogram invariants all fail). The validated scrape
# and a sampled per-query Chrome trace land in artifacts/ for CI to
# archive; -serve-stats renders the scrape as the service health table.
go run ./cmd/ijoind -selfcheck -rows 2000 -queries 8 -log-level warn \
    -scrape-out artifacts/live-metrics.prom \
    -trace-dir artifacts/query-traces -trace-sample 3 -trace-keep 4
go run ./cmd/benchsummary -serve-stats artifacts/live-metrics.prom

if [ "${SKIP_BENCH:-0}" != "1" ]; then
    echo "== benchmark baseline =="
    # Baselines are numbered BENCH_<n>.json: the frozen ones document each
    # perf-relevant PR and the newest holds current numbers. The two newest
    # are discovered here instead of being hardcoded, so freezing a new
    # baseline (adding BENCH_<n+1>.json) needs no edit to this script.
    # BENCH_THRESHOLD (percent) gates the comparison against the previous
    # baseline: any ns/op regression beyond it fails the check, which is how
    # CI keeps perf honest without tripping on shared-machine noise.
    newest=""
    prev=""
    for f in $(ls BENCH_*.json 2>/dev/null | sort -t_ -k2 -n); do
        prev="$newest"
        newest="$f"
    done
    [ -n "$newest" ] || newest=BENCH_1.json
    sh scripts/bench.sh "$newest"
    if [ -n "$prev" ]; then
        go run ./cmd/benchsummary -compare -threshold "${BENCH_THRESHOLD:-50}" -fail \
            "$prev" "$newest"
    fi
    # Reduce-phase wall gate: the traced chain run's reduce wall must stay
    # within BENCH_THRESHOLD of the frozen BENCH-PHASES.json baseline —
    # the whole-phase guard for the columnar reduce kernel.
    if [ -f BENCH-PHASES.json ] && [ -f artifacts/metrics.json ]; then
        go run ./cmd/benchsummary -threshold "${BENCH_THRESHOLD:-50}" -fail \
            -phases BENCH-PHASES.json,artifacts/metrics.json -phasegate reduce
    fi
    # Reducer-balance gate: the skew-aware executor must keep the Zipf
    # heavy-tail scenario's per-reducer pair imbalance (max/mean) under
    # the absolute SKEW_THRESHOLD ceiling — the deterministic stand-in
    # for the "max reducer wall within ~1.5x of mean" target, which the
    # wall columns of the table track informationally.
    if [ -f BENCH-SKEW.json ] && [ -f artifacts/skew-metrics.json ]; then
        go run ./cmd/benchsummary -fail \
            -skew BENCH-SKEW.json,artifacts/skew-metrics.json \
            -skewgate "${SKEW_THRESHOLD:-1.5}"
    fi
    # Semantic-cache gate: the ijoind zipfian query-mix run must keep its
    # span hit ratio at or above the absolute CACHE_THRESHOLD floor — the
    # deterministic stand-in for the "warm >= 5x cold" latency target,
    # which the warm/cold rows of the table track informationally.
    if [ -f BENCH-CACHE.json ] && [ -f artifacts/cache-metrics.json ]; then
        go run ./cmd/benchsummary -fail \
            -cache BENCH-CACHE.json,artifacts/cache-metrics.json \
            -cachegate "${CACHE_THRESHOLD:-0.8}"
    fi
fi

echo "check.sh: all green"
