package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"intervaljoin/internal/dfs"
	"intervaljoin/internal/mr"
	"intervaljoin/internal/query"
	"intervaljoin/internal/relation"
)

// TestContradictoryQueryRunsNoCycle pins the runner's short-circuit: a query
// whose sequence conditions order two components both ways has a provably
// empty output, so no driver stages a relation or runs a cycle for it.
func TestContradictoryQueryRunsNoCycle(t *testing.T) {
	q := query.MustParse("R1 before R2 and R2 before R1x and R1x overlaps R1")
	if !query.Decompose(q).Contradictory {
		t.Fatal("test query is not contradictory")
	}
	rng := rand.New(rand.NewSource(3))
	rels := make([]*relation.Relation, len(q.Relations))
	for i, s := range q.Relations {
		rels[i] = randomRelation(rng, s.Name, 30, 100, 20)
	}
	for _, alg := range []Algorithm{SeqMatrix{}, PASM{}, FCTS{}, FSTC{}, GenMatrix{}} {
		t.Run(alg.Name(), func(t *testing.T) {
			store := dfs.NewMem()
			ctx, err := NewContext(mr.NewEngine(mr.Config{Store: store, Workers: 2}), q, rels, Options{})
			if err != nil {
				t.Fatal(err)
			}
			res, err := alg.Run(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if res.Algorithm != alg.Name() || res.Metrics.Job != alg.Name() {
				t.Errorf("result names %q / %q, want %q", res.Algorithm, res.Metrics.Job, alg.Name())
			}
			if res.Metrics.Cycles != 0 || len(res.PerCycle) != 0 {
				t.Errorf("cycles = %d with %d per-cycle metrics, want none", res.Metrics.Cycles, len(res.PerCycle))
			}
			if len(res.Tuples) != 0 {
				t.Errorf("%d output tuples, want none", len(res.Tuples))
			}
			files, err := store.List("")
			if err != nil {
				t.Fatal(err)
			}
			if len(files) != 0 {
				t.Errorf("store holds %v, want nothing written", files)
			}
		})
	}
}

// TestSingleCycleErrorStaysTransient checks that running one-cycle
// algorithms through the shared runner keeps the engine's error chain: a
// task that exhausts its attempts on transient failures still surfaces as
// mr.ErrTransient to the caller.
func TestSingleCycleErrorStaysTransient(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cases := []struct {
		alg   Algorithm
		query string
	}{
		{TwoWay{}, "R1 overlaps R2"},
		{AllRep{}, "R1 overlaps R2 and R2 overlaps R3"},
		{AllMatrix{}, "R1 before R2 and R2 before R3"},
	}
	for _, tc := range cases {
		t.Run(tc.alg.Name(), func(t *testing.T) {
			q := query.MustParse(tc.query)
			rels := make([]*relation.Relation, len(q.Relations))
			for i, s := range q.Relations {
				rels[i] = randomRelation(rng, s.Name, 20, 100, 20)
			}
			engine := mr.NewEngine(mr.Config{
				Store:           dfs.NewMem(),
				Workers:         2,
				MaxTaskAttempts: 2,
				FailureInjector: func(mr.Phase, int, int) error {
					return fmt.Errorf("always down: %w", mr.ErrTransient)
				},
			})
			ctx, err := NewContext(engine, q, rels, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tc.alg.Run(ctx); !errors.Is(err, mr.ErrTransient) {
				t.Fatalf("err = %v, want one wrapping mr.ErrTransient", err)
			}
		})
	}
}

// TestRunAllocationsIndependentOfRows is the result path's allocation
// guard: rows travel from the reduce kernel to Result.Tuples in slabs, so a
// run that returns ten times the rows over the same number of input tuples
// allocates a few more chunks and longer slabs, not more objects per row.
func TestRunAllocationsIndependentOfRows(t *testing.T) {
	q := query.MustParse("R1 overlaps R2")
	measure := func(maxLen int64) (allocs float64, rows int) {
		rng := rand.New(rand.NewSource(11))
		rels := []*relation.Relation{
			randomRelation(rng, "R1", 250, 4000, maxLen),
			randomRelation(rng, "R2", 250, 4000, maxLen),
		}
		engine := mr.NewEngine(mr.Config{Store: dfs.NewMem(), Workers: 2})
		allocs = testing.AllocsPerRun(20, func() {
			ctx, err := NewContext(engine, q, rels, Options{Partitions: 4})
			if err != nil {
				t.Fatal(err)
			}
			res, err := (TwoWay{}).Run(ctx)
			if err != nil {
				t.Fatal(err)
			}
			rows = len(res.Tuples)
		})
		return allocs, rows
	}
	few, fewRows := measure(40)
	many, manyRows := measure(600)
	if fewRows < 100 || manyRows < 10*fewRows {
		t.Fatalf("runs return %d and %d rows; the guard needs them a factor of ten apart", fewRows, manyRows)
	}
	t.Logf("two-way run: %.0f allocations for %d rows, %.0f for %d", few, fewRows, many, manyRows)
	// Slab growth adds a few dozen; one allocation per row would add
	// manyRows-fewRows of them.
	if many > few+float64(manyRows-fewRows)/10 {
		t.Fatalf("a run allocates %.0f times for %d rows and %.0f times for %d", few, fewRows, many, manyRows)
	}
}
