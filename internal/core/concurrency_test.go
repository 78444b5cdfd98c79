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
// interfering; every result matches the oracle.
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

// TestRunsLeaveStoreEmpty: a run writes nothing to the store, so runs need
// no namespace there to stay apart. For the colocation, sequence, hybrid and
// general queries of TestRoutingGolden, every algorithm that handles the
// query and the planner, preferring PASM, run one after another on one
// engine; each returns the oracle's rows and leaves the store as empty as it
// found it — PASM included, whose join cycle reads the marking after the
// prune barrier.
func TestRunsLeaveStoreEmpty(t *testing.T) {
	engine := mr.NewEngine(mr.Config{Store: dfs.NewMem(), Workers: 2})
	rng := rand.New(rand.NewSource(1606))
	for _, qc := range routingQueries {
		switch qc.class {
		case "colocation", "sequence", "hybrid", "general":
		default:
			continue
		}
		q := query.MustParse(qc.q)
		ctx, err := NewContext(engine, q, routingRelations(rng, q), Options{Partitions: 6, PartitionsPerDim: 4})
		if err != nil {
			t.Fatal(err)
		}
		want, err := Reference{}.Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range append(Algorithms(q), Plan(q, true)) {
			got, err := alg.Run(ctx)
			if err != nil {
				t.Fatalf("%s on %q: %v", alg.Name(), qc.q, err)
			}
			if !slices.Equal(got.IDs, want.IDs) {
				t.Errorf("%s on %q: %d rows, the oracle %d, and they differ", alg.Name(), qc.q, len(got.Tuples), len(want.Tuples))
			}
			if files, err := engine.Store().List(""); err != nil || len(files) != 0 {
				t.Errorf("%s on %q left %v on the store (%v)", alg.Name(), qc.q, files, err)
			}
		}
	}
}
