package core

import (
	"fmt"
	"math/rand"
	"testing"

	"intervaljoin/internal/dfs"
	"intervaljoin/internal/interval"
	"intervaljoin/internal/mr"
	"intervaljoin/internal/query"
	"intervaljoin/internal/relation"
)

// runWithConfig executes one algorithm against a fresh store with the given
// engine configuration and returns the result plus its rows rendered as lines.
func runWithConfig(t *testing.T, alg Algorithm, q *query.Query, rels []*relation.Relation,
	opts Options, cfg mr.Config) (*Result, []string) {
	t.Helper()
	store := dfs.NewMem()
	cfg.Store = store
	cfg.Workers = 4
	engine := mr.NewEngine(cfg)
	ctx, err := NewContext(engine, q, rels, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := alg.Run(ctx)
	if err != nil {
		t.Fatalf("%s: %v", alg.Name(), err)
	}
	return res, resultLines(res)
}

// requireSameRun asserts the range-coalesced run matched the expanded run
// byte for byte and on every logical statistic, and that coalescing only ever
// shrinks the physical shuffle.
func requireSameRun(t *testing.T, rangeRes, expandRes *Result, rangeLines, expandLines []string) {
	t.Helper()
	if len(rangeLines) != len(expandLines) {
		t.Fatalf("output has %d lines coalesced, %d expanded", len(rangeLines), len(expandLines))
	}
	for i := range rangeLines {
		if rangeLines[i] != expandLines[i] {
			t.Fatalf("output line %d differs:\ncoalesced: %q\nexpanded:  %q",
				i, rangeLines[i], expandLines[i])
		}
	}
	rm, em := rangeRes.Metrics, expandRes.Metrics
	if rm.IntermediatePairs != em.IntermediatePairs {
		t.Errorf("logical pairs: %d coalesced, %d expanded", rm.IntermediatePairs, em.IntermediatePairs)
	}
	if rm.IntermediateBytes != em.IntermediateBytes {
		t.Errorf("logical bytes: %d coalesced, %d expanded", rm.IntermediateBytes, em.IntermediateBytes)
	}
	if rm.DistinctKeys != em.DistinctKeys {
		t.Errorf("keys: %d coalesced, %d expanded", rm.DistinctKeys, em.DistinctKeys)
	}
	if rm.OutputRecords != em.OutputRecords {
		t.Errorf("output records: %d coalesced, %d expanded", rm.OutputRecords, em.OutputRecords)
	}
	if rangeRes.ReplicatedIntervals != expandRes.ReplicatedIntervals {
		t.Errorf("replicated: %d coalesced, %d expanded",
			rangeRes.ReplicatedIntervals, expandRes.ReplicatedIntervals)
	}
	if rm.PhysicalPairs > rm.IntermediatePairs {
		t.Errorf("coalesced physical pairs %d exceed logical %d", rm.PhysicalPairs, rm.IntermediatePairs)
	}
	if rm.PhysicalBytes > em.PhysicalBytes {
		t.Errorf("coalesced physical bytes %d exceed expanded %d", rm.PhysicalBytes, em.PhysicalBytes)
	}
}

// TestRangeEmitMatchesExpandedAllenPredicates joins two relations under each
// of the thirteen Allen predicates, once with range coalescing (the default)
// and once with ExpandRangeEmits, requiring byte-identical output.
func TestRangeEmitMatchesExpandedAllenPredicates(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	r1 := randomRelation(rng, "R1", 70, 160, 35)
	r2 := randomRelation(rng, "R2", 70, 160, 35)
	for p := interval.Predicate(0); p < interval.NumPredicates; p++ {
		t.Run(p.String(), func(t *testing.T) {
			q := query.MustParse(fmt.Sprintf("R1 %s R2", p))
			opts := Options{Partitions: 8, Scratch: "equiv", SortValues: true}
			rels := []*relation.Relation{r1, r2}
			expandRes, expandLines := runWithConfig(t, TwoWay{}, q, rels, opts,
				mr.Config{ExpandRangeEmits: true})
			rangeRes, rangeLines := runWithConfig(t, TwoWay{}, q, rels, opts, mr.Config{})
			requireSameRun(t, rangeRes, expandRes, rangeLines, expandLines)
		})
	}
}

// TestRangeEmitMatchesExpandedAlgorithms covers every algorithm and query
// class, in the pipelined (default) and materialized execution modes, plus a
// spilling engine — the coalesced shuffle must be invisible everywhere.
func TestRangeEmitMatchesExpandedAlgorithms(t *testing.T) {
	cases := []struct {
		name  string
		alg   Algorithm
		query string
	}{
		{"two-way-seq", TwoWay{}, "R1 before R2"},
		{"all-rep-coloc", AllRep{}, "R1 overlaps R2 and R2 overlaps R3"},
		{"all-rep-seq", AllRep{}, "R1 before R2 and R2 before R3"},
		{"all-matrix", AllMatrix{}, "R1 before R2 and R2 before R3"},
		{"cascade", Cascade{}, "R1 overlaps R2 and R2 overlaps R3"},
		{"cascade-matrix", Cascade{MatrixSteps: true}, "R1 before R2 and R2 before R3"},
		{"rccis", RCCIS{}, "R1 overlaps R2 and R2 overlaps R3"},
		{"all-seq-matrix", SeqMatrix{}, "R1 overlaps R2 and R2 overlaps R3"},
		{"all-seq-matrix-hybrid", SeqMatrix{}, "R1 before R2 and R1 overlaps R3"},
		{"fcts", FCTS{}, "R1 overlaps R2 and R2 overlaps R3"},
		{"fcts-hybrid", FCTS{}, "R1 before R2 and R1 overlaps R3"},
		{"pasm-hybrid", PASM{}, "R1 before R2 and R1 overlaps R3"},
		{"gen-matrix", GenMatrix{}, "R1 before R2 and R1 overlaps R3"},
	}
	modes := []struct {
		name        string
		materialize bool
		spill       int
	}{
		{"pipelined", false, 0},
		{"materialized", false, 0}, // overwritten below
		{"spilled", false, 200},
	}
	modes[1].materialize = true
	rng := rand.New(rand.NewSource(99))
	for _, tc := range cases {
		q := query.MustParse(tc.query)
		rels := make([]*relation.Relation, len(q.Relations))
		for i, s := range q.Relations {
			rels[i] = randomRelation(rng, s.Name, 40, 150, 30)
		}
		for _, mode := range modes {
			t.Run(tc.name+"/"+mode.name, func(t *testing.T) {
				opts := Options{
					Partitions: 6, PartitionsPerDim: 4,
					Scratch: "equiv", SortValues: true,
					Materialize: mode.materialize,
				}
				expandRes, expandLines := runWithConfig(t, tc.alg, q, rels, opts,
					mr.Config{ExpandRangeEmits: true, SpillPairThreshold: mode.spill})
				rangeRes, rangeLines := runWithConfig(t, tc.alg, q, rels, opts,
					mr.Config{SpillPairThreshold: mode.spill})
				requireSameRun(t, rangeRes, expandRes, rangeLines, expandLines)
			})
		}
	}
}

// TestRangeEmitShrinksReplicateHeavyShuffle pins the headline win: on the
// replication-heavy baselines the physical shuffle must be at most half the
// logical volume.
func TestRangeEmitShrinksReplicateHeavyShuffle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cases := []struct {
		name  string
		alg   Algorithm
		query string
	}{
		{"all-rep", AllRep{}, "R1 before R2 and R2 before R3"},
		{"all-matrix", AllMatrix{}, "R1 before R2 and R2 before R3"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q := query.MustParse(tc.query)
			rels := make([]*relation.Relation, len(q.Relations))
			for i, s := range q.Relations {
				rels[i] = randomRelation(rng, s.Name, 80, 200, 25)
			}
			// A finer grid lengthens the consistent-cell runs, which is what
			// amortises the 16-byte range header over more covered keys.
			opts := Options{Partitions: 12, PartitionsPerDim: 16, Scratch: "equiv", SortValues: true}
			res, _ := runWithConfig(t, tc.alg, q, rels, opts, mr.Config{})
			m := res.Metrics
			if m.PhysicalPairs == 0 {
				t.Fatal("no physical pair accounting")
			}
			if m.PhysicalBytes*2 > m.IntermediateBytes {
				t.Errorf("physical bytes %d not under half of logical %d (repl %.2fx)",
					m.PhysicalBytes, m.IntermediateBytes, m.ReplicationFactor())
			}
		})
	}
}
