#!/usr/bin/env sh
# Tier-1 gate: everything that must be green before a change lands. It
# checks that the code is right; it measures nothing. A perf verdict is
# parent-vs-change on one host (scripts/pairs.sh, bench/README.md).
#
#   1. go vet        — static checks
#   2. ijlint        — the engine's ten domain-specific analyzers
#                      (docs/LINTS.md; `ijlint -list` names them)
#   3. go build      — the whole module compiles
#   4. alloc smoke   — the contracts a count of objects pins, by name:
#                      disabled tracer and disabled telemetry cost nothing
#                      (nil tracer/registry = nil check + zero allocs;
#                      docs/OBSERVABILITY.md), the shuffle and the RCCIS
#                      op — both cycles, and the planner's one-cycle
#                      reach plan — allocate nothing per pair or per
#                      tuple, product-space routing nothing per record, and a
#                      last-stage reduce nothing per result row
#                      (TestRowEmissionAllocs)
#   5. go test -race — full suite (unit, integration, property, oracle
#                      cross-validation) under the race detector; the MR
#                      engine is deliberately concurrent, so -race is part
#                      of the gate, not an optional extra; then a 5-second
#                      fuzz smoke of each of four targets: the two
#                      decoders that read arbitrary bytes — the binary
#                      record codec (FuzzRecordDecode) and the spill
#                      records carrying it (FuzzSpillRecordRoundTrip) —
#                      the result's row ordering (FuzzSetRows: rows
#                      packed by their relations' id ranges, radix-sorted
#                      as words or compared as ids, against a comparison
#                      sort), and the planner against the oracle around
#                      the reach rule's flip point (FuzzPlanReach: random
#                      colocation queries, sizes, k and boundaries)
#   6. bench module  — bench/ is a nested module the root ./... does not
#                      reach; it compiles against internal packages, so it
#                      is vetted and tested here, where an internal API
#                      change that breaks the repository's benchmark can
#                      still be fixed; then one short traced pass (the
#                      layer probes call internal APIs at run time too) and
#                      one short pass of all five workloads, which exits 1
#                      on any wrong answer
#   7. live scrape   — ijoind -selfcheck boots the real server, drives a
#                      window mix over HTTP, strictly validates the /metrics
#                      exposition text, and archives the scrape plus a
#                      sampled query trace (docs/OBSERVABILITY.md); then a
#                      second short run whose delta joins are PASM's, the
#                      one chain with a barrier between its cycles
#
# Usage: scripts/check.sh
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

echo "== allocation smoke =="
# The obs layer's contract is that a nil tracer costs a nil check and
# zero allocations on every instrumentation point (docs/OBSERVABILITY.md);
# TestDisabledTracerZeroCost pins that with testing.AllocsPerRun, and
# TestLiveDisabledZeroCost pins the same contract for the live metrics
# registry. Run them by name so a contract break fails fast with an
# unambiguous message before the full -race suite.
go test -run 'TestDisabledTracer' ./internal/obs/
go test -run 'TestLiveDisabledZeroCost' ./internal/obs/live/
# The same idiom pins what is between map and reduce: a job's objects do not
# follow its emissions (pages are recycled, value lists placed, never grown),
# untraced or with a tracer attached (it records spans per task and per key,
# never per pair), and an RCCIS run's do not follow its tuples, over two cycles or over the
# planner's one-cycle reach plan (every record is a view of some slab),
# routing a record into a product space's grid
# allocates nothing, and neither does a last-stage reduce per row it emits
# (the join's last level packs each row into one word). A per-pair or
# per-row allocation creeping back fails here, with the count, before
# anything slower runs.
go test -run 'TestShuffleAllocsDoNotFollowEmissions' ./internal/mr/
go test -run 'TestRCCISOpAllocs|TestProductRouteAllocs|TestRowEmissionAllocs' ./internal/core/

echo "== go test -race =="
go test -race ./...

echo "== fuzz smoke =="
# The engine's records are fixed-width binary and spill values are arbitrary
# bytes: five seconds of fuzzing per decoder catches a panic or a lost
# length check that the seed corpus (run by the suite above) does not. The
# third target packs result rows into words by their relations' id ranges
# and sorts them by radix: five seconds of widths, counts and id ranges
# against a comparison sort. The fourth runs the planner against the oracle
# on queries, sizes, partition counts and boundaries drawn around the
# interval length at which it stops skipping the RCCIS marking.
go test -run '^$' -fuzz '^FuzzRecordDecode$' -fuzztime 5s ./internal/core
go test -run '^$' -fuzz '^FuzzSpillRecordRoundTrip$' -fuzztime 5s ./internal/mr
go test -run '^$' -fuzz '^FuzzSetRows$' -fuzztime 5s ./internal/core
go test -run '^$' -fuzz '^FuzzPlanReach$' -fuzztime 5s ./internal/core

echo "== benchmark module =="
go vet -C bench ./...
go test -C bench ./...
# The traced pass runs every layer probe against the internal packages and
# exits 1 when one breaks (say, a probe reading a store file the engine no
# longer writes) — which neither vet nor the module's tests would notice.
bash bench/run.sh --workload batch-sparse --seconds 2 --trace 1 >/dev/null
# Every workload once, for its answers and not its numbers: each op's result
# is checked against the workload's expectation and a wrong one exits 1, so a
# broken serve path or matrix join is found here rather than by a reader of
# the next benchmark run.
bash bench/run.sh --workload all --seconds 2 --trace 0 >/dev/null

echo "== live /metrics scrape =="
# Boot the real ijoind on a loopback port, fire the query mix at it over
# HTTP, and strictly validate the /metrics exposition (duplicate series,
# bad names, broken histogram invariants all fail). The validated scrape
# and a sampled per-query Chrome trace land in artifacts/ for CI to
# archive. The second run joins every gap with PASM: three cycles, a
# barrier between the last two, and the marking carried across it by a
# tap, so the service's multi-cycle path is driven end to end too.
go run ./cmd/ijoind -selfcheck -rows 2000 -queries 8 -log-level warn \
    -scrape-out artifacts/live-metrics.prom \
    -trace-dir artifacts/query-traces -trace-sample 3 -trace-keep 4
go run ./cmd/ijoind -selfcheck -algorithm pasm -rows 2000 -queries 8 -log-level warn \
    -scrape-out artifacts/live-metrics-pasm.prom

echo "check.sh: all green"
