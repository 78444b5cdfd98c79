#!/usr/bin/env sh
# Tier-1 gate: everything that must be green before a change lands. It
# checks that the code is right; it measures nothing. A perf verdict is
# parent-vs-change on one host (scripts/pairs.sh, bench/README.md).
#
#   1. go vet        — static checks
#   2. ijlint        — the engine's nine domain-specific analyzers
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
#                      (TestRowEmissionAllocs), the service's selection of a
#                      delta join's tuples nothing per tuple
#                      (TestNarrowAllocationsIndependentOfTuples), its
#                      in-line delta join nothing per tuple or row but a
#                      row chunk per doubling
#                      (TestDeltaJoinAllocsIndependentOfRows), a cold
#                      miss less than 85 bytes per row it answers, with no
#                      id slab or row header of its own
#                      (TestColdMissBytesPerRow), its
#                      answer appended into ijoind's response buffer
#                      nothing per row, a full hit or a partial one
#                      (TestAppendQueryAllocsIndependentOfRows), a batch
#                      join Engine.Run runs in line the same but for a
#                      fixed cost per goroutine of its split
#                      (TestInLineRunAllocsIndependentOfRows) and copies
#                      no tuple of a loaded relation, which it reads where
#                      it lies (TestInLineCopiesNoLoadedTuple), a relation
#                      built from intervals is the same few objects at any
#                      size (TestFromIntervalsAllocs), and validating ids
#                      that strictly increase nothing at all
#                      (TestValidateAllocatesNothingFor...)
#   5. go test -race — full suite (unit, integration, property, oracle
#                      cross-validation, the public API's examples with
#                      pinned output, the CLIs and a live ijoind driven
#                      and scraped as binaries by cmd/cmdtest) under the
#                      race detector; the MR engine is deliberately
#                      concurrent, so -race is part of the gate, not an
#                      optional extra; then the tests
#                      of concurrent runs and queries (service, engine)
#                      and of the in-line join (root package and
#                      internal/core), whose goroutines share one
#                      prepared join, order their id ranges into disjoint
#                      stretches of one result slab, and whose concurrent
#                      runs share the loaded relations they read in
#                      place, ten times over, since their races show only
#                      now and then;
#                      then a 5-second fuzz smoke of each of seven
#                      targets: the three parsers that read arbitrary
#                      bytes — the binary record codec (FuzzRecordDecode:
#                      members, partial assignments, the mark cycle's
#                      ten-byte vertex flag [rel][attr][id] and its tap),
#                      the spill records carrying it
#                      (FuzzSpillRecordRoundTrip) and the text loader's
#                      one pass over a file (FuzzParseTextMatchesLines,
#                      against a line-at-a-time reference) —
#                      the result's row ordering (FuzzSetRows: rows
#                      packed by their relations' id ranges, filed under
#                      one to eight ranges of the first relation's ids and
#                      radix-sorted range by range as words, or compared
#                      as ids, against a comparison sort), the radix sort that orders a join's
#                      candidates by start (FuzzSortKeyIdx: spans up to the
#                      whole int64 line, equal and sorted keys, lengths
#                      either side of its comparison cutoff, against a
#                      comparison sort), the planner against the oracle around
#                      the reach rule's flip point (FuzzPlanReach: random
#                      colocation queries, sizes, k and boundaries, and the
#                      named RCCIS, FCTS and PASM, which mark on every
#                      input, against the same oracle rows: FCTS as its two
#                      cycles on one component, PASM as mark, prune and
#                      join), and
#                      the cache's wire text, assembled from reused
#                      per-anchor prefixes, against encoding/json
#                      (FuzzStoredWireMatchesEncodingJSON)
#   6. bench module  — bench/ is a nested module the root ./... does not
#                      reach; it compiles against internal packages, so it
#                      is vetted and tested here, where an internal API
#                      change that breaks the repository's benchmark can
#                      still be fixed; then one short traced pass (the
#                      layer probes call internal APIs at run time too) and
#                      one short pass of all five workloads, which exits 1
#                      on any wrong answer
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
# (the join's last level packs each row into one word). On the service's
# side, narrowing a resident to a delta join's tuples costs the same objects
# for a gap ten times wider (positions in a bitset, each selection made at
# its exact size), and so does the in-line join of those tuples but for one
# row chunk per doubling of its rows; a cold miss allocates less than 85
# bytes per row it answers, since its join writes the ids into a reused
# buffer and sets no row header, and its segment keeps only text and a
# directory; an answer appended into a buffer with
# room, as ijoind serves it, costs the same objects for a few rows as for
# thousands, from one cached segment or three (no decoded rows, no text of
# its own); so does a batch join Engine.Run runs
# in line, which besides reads the relations it was given where they lie when
# they were loaded (or built by FromIntervals, which lays them out in one
# slab at a fixed count of objects), copying none of their tuples; and
# validating the narrowed relation, whose ids strictly increase, builds no
# set of seen ids. A per-pair,
# per-row or per-tuple allocation creeping back fails here, with the count,
# before anything slower runs.
go test -run 'TestShuffleAllocsDoNotFollowEmissions' ./internal/mr/
go test -run 'TestRCCISOpAllocs|TestProductRouteAllocs|TestRowEmissionAllocs' ./internal/core/
go test -run 'TestNarrowAllocationsIndependentOfTuples|TestDeltaJoinAllocsIndependentOfRows|TestColdMissBytesPerRow|TestAppendQueryAllocsIndependentOfRows' ./internal/cache/
go test -run 'TestInLineRunAllocsIndependentOfRows' .
go test -run 'TestInLineCopiesNoLoadedTuple' ./internal/core/
go test -run 'TestValidateAllocatesNothingFor|TestFromIntervalsAllocs' ./internal/relation/

echo "== go test -race =="
go test -race ./...
# Concurrent queries run their delta joins side by side, and concurrent runs
# share the engine's pools: a race there may take several runs to show, so
# the tests that drive it run ten times more, by name. So do the in-line
# tests of the root package and of internal/core: an in-line join splits its
# first level over the engine's workers, whose cursors read one prepared
# join, then orders each id range of its rows on whichever worker claims it,
# into a stretch of one result slab that no other writes, and two runs at
# once read the same loaded relations in place
# (TestInLineRunsShareLoadedRelations).
go test -race -count=10 -run 'Concurrent' ./internal/cache ./internal/core
go test -race -count=10 -run 'InLine' . ./internal/core

echo "== fuzz smoke =="
# The engine's records are fixed-width binary and spill values are arbitrary
# bytes: five seconds of fuzzing per decoder catches a panic or a lost
# length check that the seed corpus (run by the suite above) does not. The
# third target packs result rows into words by their relations' id ranges
# and sorts them by radix, filed under one to eight ranges of the first
# relation's ids as a split in-line join files them: five seconds of widths,
# counts, id ranges and cuts against a comparison sort. The fourth sorts a join's (start, ref) pairs by
# radix, over spans up to the whole int64 line, against a comparison sort.
# The fifth runs the planner against the oracle
# on queries, sizes, partition counts and boundaries drawn around the
# interval length at which it stops skipping the RCCIS marking, and the
# named RCCIS, FCTS (two cycles on these one-component queries) and PASM
# (mark, prune and join) against the same rows. The sixth
# checks the cache's wire text, which copies each anchor group's "[id"
# prefix from its first row, against encoding/json for arbitrary ids. The
# seventh runs the text loader's one pass over a file's bytes against a
# reference that cuts the lines as bufio.Scanner did and parses each alone.
go test -run '^$' -fuzz '^FuzzRecordDecode$' -fuzztime 5s ./internal/core
go test -run '^$' -fuzz '^FuzzSpillRecordRoundTrip$' -fuzztime 5s ./internal/mr
go test -run '^$' -fuzz '^FuzzSetRows$' -fuzztime 5s ./internal/core
go test -run '^$' -fuzz '^FuzzSortKeyIdx$' -fuzztime 5s ./internal/core
go test -run '^$' -fuzz '^FuzzPlanReach$' -fuzztime 5s ./internal/core
go test -run '^$' -fuzz '^FuzzStoredWireMatchesEncodingJSON$' -fuzztime 5s ./internal/cache
go test -run '^$' -fuzz '^FuzzParseTextMatchesLines$' -fuzztime 5s ./internal/relation

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

echo "check.sh: all green"
