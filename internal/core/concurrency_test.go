package core

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"intervaljoin/internal/dfs"
	"intervaljoin/internal/mr"
	"intervaljoin/internal/query"
	"intervaljoin/internal/relation"
)

// TestConcurrentRunsShareEngine: several runs — including the same
// algorithm — execute concurrently against one engine and store without
// interfering; every result matches the oracle. This exercises the default
// scratch namespacing.
func TestConcurrentRunsShareEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	q := query.MustParse("R1 overlaps R2 and R2 overlaps R3")
	rels := make([]*relation.Relation, 3)
	for i, s := range q.Relations {
		rels[i] = randomRelation(rng, s.Name, 60, 150, 25)
	}
	engine := mr.NewEngine(mr.Config{Store: dfs.NewMem(), Workers: 4})
	refCtx, err := NewContext(engine, q, rels, Options{Partitions: 6})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Reference{}.Run(refCtx)
	if err != nil {
		t.Fatal(err)
	}

	algs := []Algorithm{RCCIS{}, RCCIS{}, RCCIS{}, AllRep{}, AllRep{}, SeqMatrix{}, Cascade{}}
	var wg sync.WaitGroup
	errs := make(chan error, len(algs))
	counts := make([]int, len(algs))
	for i, alg := range algs {
		wg.Add(1)
		go func(i int, alg Algorithm) {
			defer wg.Done()
			ctx, err := NewContext(engine, q, rels, Options{Partitions: 6, PartitionsPerDim: 4})
			if err != nil {
				errs <- err
				return
			}
			res, err := alg.Run(ctx)
			if err != nil {
				errs <- err
				return
			}
			counts[i] = len(res.TupleSet())
		}(i, alg)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i, c := range counts {
		if c != len(want.Tuples) {
			t.Fatalf("concurrent run %d (%s) produced %d tuples, oracle %d",
				i, algs[i].Name(), c, len(want.Tuples))
		}
	}
}

// TestConcurrentRunsRecycleChunks: runs on engines of their own still share
// the pools their row chunks and their emission pages come from. Several
// goroutines join relations of their own, round after round: a two-way join
// whose result is large enough that its reducers fill pooled chunks, and a
// two-cycle RCCIS join, whose mark records stream into the next cycle's map
// while the first cycle's pages are already back in the pool and being filled
// by someone else. Every result equals the oracle's, ids and order. (The gate
// runs this under -race; -count=10 gives the pools time to hand one run's
// chunks and pages to another.)
func TestConcurrentRunsRecycleChunks(t *testing.T) {
	twoWay := query.MustParse("R1 overlaps R2")
	chain := query.MustParse("R1 overlaps R2 and R2 overlaps R3")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(50 + g)))
			engine := mr.NewEngine(mr.Config{Store: dfs.NewMem(), Workers: 2})
			// run joins rels with alg and holds the result against the
			// oracle's; it returns the row count, -1 once it has failed.
			run := func(alg Algorithm, q *query.Query, rels []*relation.Relation, opts Options) int {
				ctx, err := NewContext(engine, q, rels, opts)
				if err != nil {
					t.Error(err)
					return -1
				}
				got, err := alg.Run(ctx)
				if err != nil {
					t.Error(err)
					return -1
				}
				want, err := Reference{}.Run(ctx)
				if err != nil {
					t.Error(err)
					return -1
				}
				if !slices.Equal(got.IDs, want.IDs) {
					t.Errorf("goroutine %d: %s returns %d rows, the oracle %d, and they differ",
						g, alg.Name(), len(got.Tuples), len(want.Tuples))
					return -1
				}
				return len(got.Tuples)
			}
			for round := 0; round < 3; round++ {
				n := 400 + 50*g
				rels := []*relation.Relation{
					randomRelation(rng, "R1", n, 1000, 600),
					randomRelation(rng, "R2", n, 1000, 600),
				}
				if rows := run(TwoWay{}, twoWay, rels, Options{Partitions: 2}); rows < 20_000 {
					if rows >= 0 {
						t.Errorf("goroutine %d, round %d: %d rows are too few to fill a pooled chunk", g, round, rows)
					}
					return
				}
				// Three relations of 700 short intervals: some 2 100
				// emissions a cycle, four pages and more per worker.
				sparse := []*relation.Relation{
					randomRelation(rng, "R1", 700, 20_000, 40),
					randomRelation(rng, "R2", 700, 20_000, 40),
					randomRelation(rng, "R3", 700, 20_000, 40),
				}
				if rows := run(RCCIS{}, chain, sparse, Options{Partitions: 8}); rows <= 0 {
					if rows == 0 {
						t.Errorf("goroutine %d, round %d: the RCCIS join is empty", g, round)
					}
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestExplicitScratchIsolation: runs with distinct explicit scratch
// prefixes do not clobber each other's files, and a run writes under its
// prefix only what a later cycle has to read back — a single-cycle run
// nothing at all.
func TestExplicitScratchIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	rels := []*relation.Relation{
		randomRelation(rng, "R1", 40, 100, 20),
		randomRelation(rng, "R2", 40, 100, 20),
		randomRelation(rng, "R3", 40, 100, 20),
	}
	engine := mr.NewEngine(mr.Config{Store: dfs.NewMem(), Workers: 2})
	run := func(alg Algorithm, q string, rels []*relation.Relation, opts Options) int {
		ctx, err := NewContext(engine, query.MustParse(q), rels, opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := alg.Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return len(res.Tuples)
	}
	// PASM leaves its marking on the store: two later cycles read it.
	const hybrid = "R1 overlaps R2 and R2 before R3"
	a := run(PASM{}, hybrid, rels, Options{PartitionsPerDim: 4, Scratch: "runA"})
	b := run(PASM{}, hybrid, rels, Options{PartitionsPerDim: 4, Scratch: "runB"})
	if a != b {
		t.Fatalf("scratch-isolated runs disagree: %d vs %d", a, b)
	}
	for _, name := range []string{"runA/marked", "runB/marked"} {
		if !engine.Store().Exists(name) {
			t.Fatalf("intermediate %s missing", name)
		}
	}
	run(TwoWay{}, "R1 overlaps R2", rels[:2], Options{Partitions: 4, Scratch: "runC"})
	if left, err := engine.Store().List("runC/"); err != nil || len(left) != 0 {
		t.Fatalf("a single-cycle run left %v under its scratch prefix (err %v)", left, err)
	}
}
