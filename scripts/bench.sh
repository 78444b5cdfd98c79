#!/usr/bin/env sh
# Benchmark baseline emitter: runs the join-kernel, codec, MR-engine and
# cache hit-path microbenchmarks with fixed iteration counts (stable on
# small/shared machines, where time-based -benchtime makes run-to-run
# noise dominate), repeats each REPS times, and reduces to per-benchmark
# medians in a JSON baseline via cmd/benchsummary.
#
# Usage: scripts/bench.sh [output.json]     (default BENCH_1.json)
#        REPS=5 scripts/bench.sh            (more repetitions)
set -eu

cd "$(dirname "$0")/.."
OUT="${1:-BENCH_1.json}"
REPS="${REPS:-3}"

tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

# Reduce-side join kernel: enumerator sweeps, semijoin marking, RCCIS
# crossing decisions. Heavy per-op cost, so 100 fixed iterations.
go test -run '^$' -bench 'Enumerator|SemijoinReduce|MarkCrossing' \
    -benchmem -benchtime 100x -count "$REPS" ./internal/core/ | tee -a "$tmp"

# Columnar reduce kernel: one whole reduce task (tagged decode, arena
# seal, specialized sweep) at 2^4 / 2^8 / 2^12 candidates per relation.
# Reports pairs/op plus the per-kernel-family dispatch counts (sweep/op,
# merge/op, generic/op) that benchsummary -compare renders as the
# kernel-dispatch table.
go test -run '^$' -bench 'ReduceKernel' \
    -benchmem -benchtime 50x -count "$REPS" ./internal/core/ | tee -a "$tmp"

# Record codecs: sub-microsecond ops need many iterations for resolution.
go test -run '^$' -bench 'Encode|DecodeMember' \
    -benchmem -benchtime 20000x -count "$REPS" ./internal/core/ | tee -a "$tmp"

# MR engine end-to-end: parallel feed, sharded shuffle, spilling, and the
# 3-cycle chain pair (one Run per job vs pipelined boundaries).
go test -run '^$' -bench 'Engine' \
    -benchmem -benchtime 20x -count "$REPS" ./internal/mr/ | tee -a "$tmp"

# Whole multi-cycle algorithm chains (RCCIS, PASM), sequential vs
# pipelined. Each iteration runs 2-3 full MR cycles, so few iterations.
go test -run '^$' -bench '^BenchmarkChain' \
    -benchmem -benchtime 5x -count "$REPS" ./internal/core/ | tee -a "$tmp"

# Shuffle volume: logical vs physical bytes of the range-coalesced shuffle
# on the replication-heavy baselines (reported via logicalB/op + physB/op;
# benchsummary -compare renders them as the shuffle-volume table).
go test -run '^$' -bench '^BenchmarkShuffle' \
    -benchmem -benchtime 5x -count "$REPS" ./internal/core/ | tee -a "$tmp"

# Reduce-skew scenarios: uniform vs skew-aware execution on heavy-tail
# inputs (Zipf starts and MAWI packet-train replay). Besides ns/op they
# report the deterministic per-reducer pair imbalance and the measured
# wall imbalance (docs/ALGORITHMS.md "Skew-aware execution").
go test -run '^$' -bench 'ReduceSkew' \
    -benchmem -benchtime 3x -count "$REPS" . | tee -a "$tmp"

# Cache hit path: a ~4k-row window answered from one cached segment and
# from three (clip, group merge with halo dedup, stored wire text); the
# engine never runs, so many cheap iterations.
go test -run '^$' -bench '^BenchmarkService(Full|Partial)Hit$' \
    -benchmem -benchtime 2000x -count "$REPS" ./internal/cache/ | tee -a "$tmp"

go run ./cmd/benchsummary -o "$OUT" < "$tmp"
echo "wrote $OUT"

# Observability artifacts: a representative pipelined chain run (RCCIS,
# mark + join, 2 MR cycles) traced end to end. artifacts/trace.json opens
# in Perfetto and shows cycle 1's reduce overlapping cycle 2's map;
# artifacts/metrics.json is the machine-readable per-phase report that
# `benchsummary -phases` renders. CI uploads both next to the baseline.
mkdir -p artifacts
benchdata="$(mktemp -d)"
trap 'rm -f "$tmp"; rm -rf "$benchdata"' EXIT
go run ./cmd/genintervals -n 20000 -tmax 200000 -imax 120 -o "$benchdata/r1.txt"
go run ./cmd/genintervals -n 20000 -tmax 200000 -imax 120 -seed 2 -o "$benchdata/r2.txt"
go run ./cmd/genintervals -n 20000 -tmax 200000 -imax 120 -seed 3 -o "$benchdata/r3.txt"
# -workers 4 pins the lane count so the timeline looks the same on a
# single-core runner as on a developer laptop.
go run ./cmd/ijoin -query "R1 overlaps R2 and R2 overlaps R3" \
    -rel R1="$benchdata/r1.txt" -rel R2="$benchdata/r2.txt" -rel R3="$benchdata/r3.txt" \
    -algorithm rccis -workers 4 -o /dev/null \
    -trace artifacts/trace.json -metrics artifacts/metrics.json
go run ./cmd/benchsummary -phases artifacts/metrics.json
echo "wrote artifacts/trace.json artifacts/metrics.json"

# Skew artifact: the Zipf heavy-tail scenario under the skew-aware
# executor (adaptive boundaries, virtual splitting deep enough to meet
# the pair-imbalance ceiling check.sh gates via benchsummary -skewgate).
go run ./cmd/genintervals -n 4000 -ds zipf -o "$benchdata/z1.txt"
go run ./cmd/genintervals -n 4000 -ds zipf -seed 2 -o "$benchdata/z2.txt"
go run ./cmd/ijoin -query "R1 overlaps R2" \
    -rel R1="$benchdata/z1.txt" -rel R2="$benchdata/z2.txt" \
    -adaptive -max-virtual 32 -workers 4 -o /dev/null \
    -metrics artifacts/skew-metrics.json
go run ./cmd/benchsummary -skew artifacts/skew-metrics.json
echo "wrote artifacts/skew-metrics.json"

# Cache artifact: the ijoind zipfian query-mix benchmark — cold run vs
# semantic-cache-served run per window, byte-identical results enforced
# inside the benchmark. artifacts/cache-metrics.json carries the cache
# section (hit ratio, warm/cold means, speedup) that benchsummary -cache
# renders and check.sh gates via -cachegate.
go run ./cmd/ijoind -bench -queries 120 -rows 12000 -workers 4 \
    -metrics artifacts/cache-metrics.json
go run ./cmd/benchsummary -cache artifacts/cache-metrics.json
echo "wrote artifacts/cache-metrics.json"

# Phase baseline: BENCH-PHASES.json freezes the traced run's per-phase
# walls (the dash keeps it out of check.sh's BENCH_<n>.json discovery).
# check.sh gates the reduce phase against it via benchsummary -phasegate;
# seed it on first run, refresh it deliberately by deleting it first.
if [ ! -f BENCH-PHASES.json ]; then
    cp artifacts/metrics.json BENCH-PHASES.json
    echo "seeded BENCH-PHASES.json"
fi

# Skew baseline: BENCH-SKEW.json freezes the skew artifact's reducer
# balance; check.sh prints deltas against it and gates the pair imbalance
# with an absolute ceiling (benchsummary -skewgate).
if [ ! -f BENCH-SKEW.json ]; then
    cp artifacts/skew-metrics.json BENCH-SKEW.json
    echo "seeded BENCH-SKEW.json"
fi

# Cache baseline: BENCH-CACHE.json freezes the query-mix cache run;
# check.sh prints deltas against it and gates the span hit ratio with an
# absolute floor (benchsummary -cachegate).
if [ ! -f BENCH-CACHE.json ]; then
    cp artifacts/cache-metrics.json BENCH-CACHE.json
    echo "seeded BENCH-CACHE.json"
fi

# When regenerating a later baseline, show the regression table against the
# earliest checked-in one.
if [ "$OUT" != "BENCH_1.json" ] && [ -f "BENCH_1.json" ]; then
    go run ./cmd/benchsummary -compare BENCH_1.json "$OUT"
fi
