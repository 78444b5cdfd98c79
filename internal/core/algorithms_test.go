package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"intervaljoin/internal/dfs"
	"intervaljoin/internal/interval"
	"intervaljoin/internal/mr"
	"intervaljoin/internal/query"
	"intervaljoin/internal/relation"
)

// randomRelation builds a single-attribute relation with n tuples over
// [0, domain) with lengths in [0, maxLen].
func randomRelation(rng *rand.Rand, name string, n int, domain, maxLen int64) *relation.Relation {
	ivs := make([]interval.Interval, n)
	for i := range ivs {
		s := rng.Int63n(domain)
		ivs[i] = interval.New(s, s+rng.Int63n(maxLen+1))
	}
	return relation.FromIntervals(name, ivs)
}

// crossValidate runs every algorithm against the oracle on the given query
// and relations and fails on any output-set difference or duplicate.
func crossValidate(t *testing.T, q *query.Query, rels []*relation.Relation, opts Options, algs ...Algorithm) {
	t.Helper()
	engine := mr.NewEngine(mr.Config{Store: dfs.NewMem(), Workers: 4})
	refCtx, err := NewContext(engine, q, rels, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Reference{}.Run(refCtx)
	if err != nil {
		t.Fatal(err)
	}
	checkResultForm(t, "reference", want, len(rels))
	wantSet := want.TupleSet()
	for _, alg := range algs {
		ctx, err := NewContext(engine, q, rels, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := alg.Run(ctx)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		if got.Metrics.OutputRecords != int64(len(got.Tuples)) {
			t.Errorf("%s: OutputRecords = %d with %d tuples (query %s)",
				alg.Name(), got.Metrics.OutputRecords, len(got.Tuples), q)
		}
		checkResultForm(t, alg.Name(), got, len(rels))
		gotSet := got.TupleSet()
		if len(got.Tuples) != len(gotSet) {
			t.Errorf("%s: %d tuples but %d distinct — duplicates emitted (query %s)",
				alg.Name(), len(got.Tuples), len(gotSet), q)
		}
		if len(gotSet) != len(wantSet) {
			t.Errorf("%s: %d tuples, oracle has %d (query %s)", alg.Name(), len(gotSet), len(wantSet), q)
		}
		for k := range wantSet {
			if _, ok := gotSet[k]; !ok {
				t.Errorf("%s: missing output tuple %s (query %s)", alg.Name(), k, q)
				break
			}
		}
		for k := range gotSet {
			if _, ok := wantSet[k]; !ok {
				t.Errorf("%s: spurious output tuple %s (query %s)", alg.Name(), k, q)
				break
			}
		}
	}
}

// checkResultForm pins the shape every run's output has: rows of w ids in
// canonical order, as views of one slab that holds nothing else.
func checkResultForm(t *testing.T, name string, res *Result, w int) {
	t.Helper()
	if len(res.IDs) != len(res.Tuples)*w || cap(res.IDs) != len(res.IDs) {
		t.Fatalf("%s: %d tuples of %d ids over a slab of %d (cap %d)", name, len(res.Tuples), w, len(res.IDs), cap(res.IDs))
	}
	for i, tup := range res.Tuples {
		if len(tup) != w || &tup[0] != &res.IDs[i*w] {
			t.Fatalf("%s: tuple %d is not the slab's row %d", name, i, i)
		}
		if i > 0 && slices.Compare(res.Tuples[i-1], tup) > 0 {
			t.Fatalf("%s: tuple %d = %v sorts before its predecessor %v", name, i, tup, res.Tuples[i-1])
		}
	}
}

func TestTwoWayAllPredicates(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	for p := interval.Predicate(0); p < interval.NumPredicates; p++ {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			q := query.MustParse("R1 " + p.String() + " R2")
			for trial := 0; trial < 3; trial++ {
				rels := []*relation.Relation{
					randomRelation(rng, "R1", 60, 150, 40),
					randomRelation(rng, "R2", 60, 150, 40),
				}
				algs := []Algorithm{TwoWay{}, Cascade{}}
				if p.IsColocation() {
					algs = append(algs, RCCIS{}, SeqMatrix{}, PASM{}, FCTS{}, AllRep{})
				} else {
					algs = append(algs, AllMatrix{}, SeqMatrix{}, PASM{}, AllRep{}, Cascade{MatrixSteps: true})
				}
				crossValidate(t, q, rels, Options{Partitions: 7, PartitionsPerDim: 5}, algs...)
			}
		})
	}
}

func TestColocationChainQ1(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	q := query.MustParse("R1 overlaps R2 and R2 overlaps R3")
	for trial := 0; trial < 5; trial++ {
		rels := []*relation.Relation{
			randomRelation(rng, "R1", 50, 200, 30),
			randomRelation(rng, "R2", 50, 200, 30),
			randomRelation(rng, "R3", 50, 200, 30),
		}
		crossValidate(t, q, rels, Options{Partitions: 8, PartitionsPerDim: 4},
			RCCIS{}, AllRep{}, Cascade{}, SeqMatrix{}, PASM{}, FCTS{})
	}
}

func TestColocationQ0(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	q := query.MustParse("R1 overlaps R2 and R2 contains R3 and R3 overlaps R4")
	for trial := 0; trial < 4; trial++ {
		rels := []*relation.Relation{
			randomRelation(rng, "R1", 40, 160, 40),
			randomRelation(rng, "R2", 40, 160, 40),
			randomRelation(rng, "R3", 40, 160, 15),
			randomRelation(rng, "R4", 40, 160, 40),
		}
		crossValidate(t, q, rels, Options{Partitions: 6, PartitionsPerDim: 4},
			RCCIS{}, AllRep{}, Cascade{}, SeqMatrix{})
	}
}

func TestColocationMixedPredicates(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	queries := []string{
		"R1 meets R2 and R2 overlaps R3",
		"R1 starts R2 and R2 contains R3",
		"R1 finishes R2 and R2 overlaps R3",
		"R2 containedby R1 and R2 equals R3",
		"R1 overlappedby R2 and R2 metby R3",
		"R1 finishedby R2 and R2 startedby R3",
	}
	for _, qs := range queries {
		q := query.MustParse(qs)
		for trial := 0; trial < 2; trial++ {
			rels := make([]*relation.Relation, len(q.Relations))
			for i, s := range q.Relations {
				rels[i] = randomRelation(rng, s.Name, 45, 100, 20)
			}
			crossValidate(t, q, rels, Options{Partitions: 5, PartitionsPerDim: 4},
				RCCIS{}, AllRep{}, Cascade{}, SeqMatrix{})
		}
	}
}

func TestSequenceChainQ2(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	q := query.MustParse("R1 before R2 and R2 before R3")
	for trial := 0; trial < 4; trial++ {
		rels := []*relation.Relation{
			randomRelation(rng, "R1", 25, 200, 20),
			randomRelation(rng, "R2", 25, 200, 20),
			randomRelation(rng, "R3", 25, 200, 20),
		}
		crossValidate(t, q, rels, Options{Partitions: 6, PartitionsPerDim: 4},
			AllMatrix{}, AllRep{}, Cascade{}, Cascade{MatrixSteps: true}, SeqMatrix{}, PASM{},
			AllMatrix{DisableConsistencyFilter: true}, AllMatrix{BroadcastAllCells: true})
	}
}

func TestSequenceWithAfter(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	q := query.MustParse("R2 after R1 and R3 after R2")
	for trial := 0; trial < 3; trial++ {
		rels := []*relation.Relation{
			randomRelation(rng, "R2", 25, 180, 15),
			randomRelation(rng, "R1", 25, 180, 15),
			randomRelation(rng, "R3", 25, 180, 15),
		}
		crossValidate(t, q, rels, Options{Partitions: 5, PartitionsPerDim: 4},
			AllMatrix{}, AllRep{}, Cascade{}, SeqMatrix{})
	}
}

func TestHybridQ4(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	q := query.MustParse("R1 before R2 and R1 overlaps R3")
	for trial := 0; trial < 5; trial++ {
		rels := []*relation.Relation{
			randomRelation(rng, "R1", 40, 200, 30),
			randomRelation(rng, "R2", 40, 200, 30),
			randomRelation(rng, "R3", 40, 200, 30),
		}
		crossValidate(t, q, rels, Options{Partitions: 6, PartitionsPerDim: 4},
			SeqMatrix{}, PASM{}, FCTS{}, FSTC{}, AllRep{}, Cascade{}, Cascade{MatrixSteps: true})
	}
}

func TestHybridQ3(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	q := query.MustParse("R1 overlaps R2 and R2 overlaps R3 and R2 before R4 and R4 overlaps R5")
	for trial := 0; trial < 3; trial++ {
		rels := make([]*relation.Relation, 5)
		for i, s := range q.Relations {
			rels[i] = randomRelation(rng, s.Name, 25, 150, 25)
		}
		crossValidate(t, q, rels, Options{Partitions: 5, PartitionsPerDim: 3},
			SeqMatrix{}, PASM{}, FCTS{}, FSTC{}, AllRep{}, Cascade{})
	}
}

// TestHybridAllSequenceRelations covers the hybrid shape in which every
// relation appears in a sequence condition: FSTC then has no colocation step
// to run, so its sequence stage is the chain's last and must write output
// tuples, not partial assignments.
func TestHybridAllSequenceRelations(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	q := query.MustParse("R1 before R2 and R1 overlaps R3 and R3 before R2")
	for trial := 0; trial < 4; trial++ {
		rels := []*relation.Relation{
			randomRelation(rng, "R1", 40, 200, 30),
			randomRelation(rng, "R2", 40, 200, 30),
			randomRelation(rng, "R3", 40, 200, 30),
		}
		crossValidate(t, q, rels, Options{Partitions: 6, PartitionsPerDim: 4},
			SeqMatrix{}, PASM{}, FCTS{}, FSTC{}, AllRep{}, Cascade{}, GenMatrix{})
	}
}

// TestHybridUnsoundConstraintScenario exercises the query shape for which
// the paper's component-order cell pruning would lose output: a colocation
// member two hops from the sequence operand can start after the other
// component's intervals. Our sound analysis must keep such outputs.
func TestHybridUnsoundConstraintScenario(t *testing.T) {
	q := query.MustParse("A overlaps B and B overlaps B2 and A before D")
	relA := relation.FromIntervals("A", []interval.Interval{{Start: 0, End: 5}})
	relB := relation.FromIntervals("B", []interval.Interval{{Start: 3, End: 100}})
	relB2 := relation.FromIntervals("B2", []interval.Interval{{Start: 50, End: 200}})
	relD := relation.FromIntervals("D", []interval.Interval{{Start: 10, End: 20}})
	// A o B (0<3<5<100), B o B2 (3<50<100<200), A before D (5<10): exactly
	// one output tuple, whose component C{A,B,B2} right-most member (B2,
	// start 50) starts AFTER component C{D}'s member (start 10).
	rels := []*relation.Relation{relA, relB, relB2, relD}
	crossValidate(t, q, rels, Options{Partitions: 6, PartitionsPerDim: 6},
		SeqMatrix{}, PASM{}, FCTS{}, AllRep{}, Cascade{})
	// And with random data around the same shape.
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 3; trial++ {
		rels := []*relation.Relation{
			randomRelation(rng, "A", 30, 150, 20),
			randomRelation(rng, "B", 30, 150, 60),
			randomRelation(rng, "B2", 30, 150, 60),
			randomRelation(rng, "D", 30, 150, 20),
		}
		crossValidate(t, q, rels, Options{Partitions: 5, PartitionsPerDim: 4},
			SeqMatrix{}, PASM{}, FCTS{})
	}
}

func TestGeneralQ5(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	q := query.MustParse("R1.I before R2.I and R1.I overlaps R3.I and R1.A = R3.A and R2.B = R3.B")
	for trial := 0; trial < 4; trial++ {
		mkRel := func(name string, attrs []string, n int) *relation.Relation {
			r := relation.New(relation.NewSchema(name, attrs...))
			for i := 0; i < n; i++ {
				vals := make([]interval.Interval, len(attrs))
				for j, a := range attrs {
					if a == "I" {
						s := rng.Int63n(150)
						vals[j] = interval.New(s, s+rng.Int63n(40))
					} else {
						vals[j] = interval.PointInterval(rng.Int63n(4)) // few values -> matches
					}
				}
				r.Append(vals...)
			}
			return r
		}
		rels := []*relation.Relation{
			mkRel("R1", []string{"I", "A"}, 35),
			mkRel("R2", []string{"I", "B"}, 35),
			mkRel("R3", []string{"I", "A", "B"}, 35),
		}
		crossValidate(t, q, rels, Options{Partitions: 5, PartitionsPerDim: 4}, GenMatrix{})
	}
}

func TestGenMatrixOnSingleAttributeQueries(t *testing.T) {
	// Gen-Matrix generalises the others; on single-attribute queries it
	// must agree with them.
	rng := rand.New(rand.NewSource(16))
	for _, qs := range []string{
		"R1 overlaps R2 and R2 overlaps R3",
		"R1 before R2 and R1 overlaps R3",
		"R1 before R2 and R2 before R3",
	} {
		q := query.MustParse(qs)
		rels := make([]*relation.Relation, len(q.Relations))
		for i, s := range q.Relations {
			rels[i] = randomRelation(rng, s.Name, 35, 150, 25)
		}
		crossValidate(t, q, rels, Options{Partitions: 5, PartitionsPerDim: 4}, GenMatrix{})
	}
}

func TestGenMatrixPureEquiJoin(t *testing.T) {
	// Real-valued equality joins are the degenerate case: length-zero
	// intervals, no replication, pure hash partitioning.
	rng := rand.New(rand.NewSource(17))
	q := query.MustParse("R1.A = R2.A and R2.B = R3.B")
	mk := func(name, attr string) *relation.Relation {
		r := relation.New(relation.NewSchema(name, attr))
		for i := 0; i < 50; i++ {
			r.Append(interval.PointInterval(rng.Int63n(8)))
		}
		return r
	}
	rels := []*relation.Relation{mk("R1", "A"), mk("R2", "A"), mk("R3", "B")}
	// R2 needs both A and B: rebuild with two attrs.
	r2 := relation.New(relation.NewSchema("R2", "A", "B"))
	for i := 0; i < 50; i++ {
		r2.Append(interval.PointInterval(rng.Int63n(8)), interval.PointInterval(rng.Int63n(8)))
	}
	rels[1] = r2
	res := func() *Result {
		engine := mr.NewEngine(mr.Config{Store: dfs.NewMem(), Workers: 4})
		ctx, err := NewContext(engine, q, rels, Options{Partitions: 4, PartitionsPerDim: 4})
		if err != nil {
			t.Fatal(err)
		}
		r, err := (GenMatrix{}).Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}()
	if res.ReplicatedIntervals != 0 {
		t.Errorf("equi-join replicated %d tuples, want 0", res.ReplicatedIntervals)
	}
	crossValidate(t, q, rels, Options{Partitions: 4, PartitionsPerDim: 4}, GenMatrix{})
}

func TestContradictoryQueryEmpty(t *testing.T) {
	q := query.MustParse("R1 before R2 and R2 before R1x and R1x overlaps R1")
	rng := rand.New(rand.NewSource(18))
	rels := make([]*relation.Relation, len(q.Relations))
	for i, s := range q.Relations {
		rels[i] = randomRelation(rng, s.Name, 20, 100, 20)
	}
	crossValidate(t, q, rels, Options{Partitions: 4, PartitionsPerDim: 3}, SeqMatrix{}, PASM{}, FCTS{})
}

func TestEmptyRelations(t *testing.T) {
	q := query.MustParse("R1 overlaps R2 and R2 overlaps R3")
	rels := []*relation.Relation{
		relation.FromIntervals("R1", nil),
		relation.FromIntervals("R2", []interval.Interval{{Start: 0, End: 5}}),
		relation.FromIntervals("R3", nil),
	}
	crossValidate(t, q, rels, Options{Partitions: 4, PartitionsPerDim: 3},
		RCCIS{}, AllRep{}, Cascade{}, SeqMatrix{}, PASM{}, GenMatrix{})
}

func TestSinglePartition(t *testing.T) {
	// With one partition every algorithm degenerates to a local join.
	rng := rand.New(rand.NewSource(19))
	q := query.MustParse("R1 overlaps R2 and R2 overlaps R3")
	rels := make([]*relation.Relation, 3)
	for i, s := range q.Relations {
		rels[i] = randomRelation(rng, s.Name, 30, 80, 20)
	}
	crossValidate(t, q, rels, Options{Partitions: 1, PartitionsPerDim: 1},
		RCCIS{}, AllRep{}, Cascade{}, SeqMatrix{}, PASM{}, FCTS{}, GenMatrix{})
}

func TestManyPartitions(t *testing.T) {
	// More partitions than distinct points stress boundary handling.
	rng := rand.New(rand.NewSource(20))
	q := query.MustParse("R1 overlaps R2")
	rels := []*relation.Relation{
		randomRelation(rng, "R1", 25, 30, 10),
		randomRelation(rng, "R2", 25, 30, 10),
	}
	crossValidate(t, q, rels, Options{Partitions: 64, PartitionsPerDim: 16},
		TwoWay{}, RCCIS{}, AllRep{}, SeqMatrix{})
}

func TestPointIntervalData(t *testing.T) {
	// Length-zero intervals (real-valued points) through the interval
	// algorithms: colocation reduces to equality, sequence to inequality.
	rng := rand.New(rand.NewSource(21))
	mk := func(name string) *relation.Relation {
		ivs := make([]interval.Interval, 40)
		for i := range ivs {
			ivs[i] = interval.PointInterval(rng.Int63n(25))
		}
		return relation.FromIntervals(name, ivs)
	}
	q := query.MustParse("R1 equals R2 and R2 equals R3")
	rels := []*relation.Relation{mk("R1"), mk("R2"), mk("R3")}
	crossValidate(t, q, rels, Options{Partitions: 5, PartitionsPerDim: 4},
		RCCIS{}, AllRep{}, Cascade{}, SeqMatrix{})

	qs := query.MustParse("R1 before R2 and R2 before R3")
	crossValidate(t, qs, rels, Options{Partitions: 5, PartitionsPerDim: 4},
		AllMatrix{}, AllRep{}, Cascade{})
}

func TestRandomQueriesPropertyStyle(t *testing.T) {
	// Random connected queries over random predicates: the broad net. Each
	// relation after the first is linked to a random earlier one (chains,
	// stars and trees), and every other trial closes one extra edge, so the
	// condition graph need not be a chain or acyclic.
	rng := rand.New(rand.NewSource(22))
	// Two of the thirteen predicates are sequence predicates; drawing them a
	// third of the time makes hybrid and sequence queries as common as
	// colocation ones.
	randPred := func() interval.Predicate {
		if rng.Intn(3) == 0 {
			return []interval.Predicate{interval.Before, interval.After}[rng.Intn(2)]
		}
		return interval.Predicate(rng.Intn(int(interval.NumPredicates)))
	}
	for trial := 0; trial < 16; trial++ {
		m := 2 + rng.Intn(3)
		var conds []string
		for i := 2; i <= m; i++ {
			conds = append(conds, fmt.Sprintf("R%d %s R%d", 1+rng.Intn(i-1), randPred(), i))
		}
		if m > 2 && trial%2 == 1 {
			a := 1 + rng.Intn(m-1)
			conds = append(conds, fmt.Sprintf("R%d %s R%d", a, randPred(), a+1+rng.Intn(m-a)))
		}
		q := query.MustParse(strings.Join(conds, " and "))
		rels := make([]*relation.Relation, len(q.Relations))
		for i, s := range q.Relations {
			rels[i] = randomRelation(rng, s.Name, 30, 120, 25)
		}
		algs := []Algorithm{SeqMatrix{}, PASM{}, AllRep{}, Cascade{}, GenMatrix{}}
		switch q.Classify() {
		case query.Colocation:
			algs = append(algs, RCCIS{}, FCTS{})
		case query.Sequence:
			algs = append(algs, AllMatrix{})
		case query.Hybrid:
			algs = append(algs, FCTS{}, FSTC{})
		}
		crossValidate(t, q, rels, Options{Partitions: 5, PartitionsPerDim: 3}, algs...)
	}
}

// nestedLoopOracle enumerates the full cross product of the candidate lists
// and keeps every assignment satisfying all conditions, evaluated directly
// with Predicate.Eval — no sorting, windows, or pruning. It is the ground
// truth for the sweep-based join kernel; values are occurrence counts so
// duplicates are caught too.
func nestedLoopOracle(conds []query.Condition, cands [][]relation.Tuple) map[string]int {
	out := make(map[string]int)
	m := len(cands)
	asg := make([]relation.Tuple, m)
	var rec func(i int)
	rec = func(i int) {
		if i == m {
			for _, c := range conds {
				u := asg[c.Left.Rel].Attrs[c.Left.Attr]
				v := asg[c.Right.Rel].Attrs[c.Right.Attr]
				if !c.Pred.Eval(u, v) {
					return
				}
			}
			key := ""
			for _, tp := range asg {
				key += fmt.Sprintf("%d,", tp.ID)
			}
			out[key]++
			return
		}
		for _, tp := range cands[i] {
			asg[i] = tp
			rec(i + 1)
		}
	}
	rec(0)
	return out
}

// sweepKernel runs the production enumerator over the same inputs and
// returns the same keyed occurrence counts.
func sweepKernel(conds []query.Condition, cands [][]relation.Tuple) map[string]int {
	rels := make([]int, len(cands))
	for i := range rels {
		rels[i] = i
	}
	e := newEnumerator(conds, rels)
	out := make(map[string]int)
	e.run(cands, func(asg []relation.Tuple) error {
		key := ""
		for _, tp := range asg {
			key += fmt.Sprintf("%d,", tp.ID)
		}
		out[key]++
		return nil
	})
	return out
}

func diffAssignmentSets(t *testing.T, label string, want, got map[string]int) {
	t.Helper()
	for k, n := range want {
		if got[k] != n {
			t.Errorf("%s: assignment %s: kernel %d, oracle %d", label, k, got[k], n)
			return
		}
	}
	for k, n := range got {
		if want[k] != n {
			t.Errorf("%s: assignment %s: kernel %d, oracle %d", label, k, n, want[k])
			return
		}
	}
}

// randomTuples builds n single-attribute tuples over a deliberately small
// domain so exact-boundary predicates (meets, starts, finishes, equals) fire.
func randomTuples(rng *rand.Rand, n int, domain, maxLen int64) []relation.Tuple {
	out := make([]relation.Tuple, n)
	for i := range out {
		s := rng.Int63n(domain)
		out[i] = mkTuple(int64(i), interval.New(s, s+rng.Int63n(maxLen+1)))
	}
	return out
}

// TestSweepKernelVsNestedLoopOracle cross-checks the sweep-based join kernel
// directly (no MR machinery) against the brute-force oracle, over randomized
// inputs covering every Allen predicate individually, random conjunctions
// from all four query classes, and multi-attribute conditions that force the
// probe fallback.
func TestSweepKernelVsNestedLoopOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))

	check := func(label string, conds []query.Condition, cands [][]relation.Tuple) {
		t.Helper()
		diffAssignmentSets(t, label, nestedLoopOracle(conds, cands), sweepKernel(conds, cands))
	}
	cond := func(l int, p interval.Predicate, r int) query.Condition {
		return query.Condition{Left: query.Operand{Rel: l}, Pred: p, Right: query.Operand{Rel: r}}
	}

	// Every Allen predicate alone, both orientations, tight domain.
	for p := interval.Predicate(0); p < interval.NumPredicates; p++ {
		for trial := 0; trial < 4; trial++ {
			cands := [][]relation.Tuple{
				randomTuples(rng, 30, 25, 8),
				randomTuples(rng, 30, 25, 8),
			}
			check("single "+p.String(), []query.Condition{cond(0, p, 1)}, cands)
			check("single-rev "+p.String(), []query.Condition{cond(1, p, 0)}, cands)
		}
	}

	// Random conjunctions over three relations: chains, triangles, and
	// fan-outs drawn from all 13 predicates — this hits the colocation
	// sweep, the sequence families, hybrid mixes on one level, and the
	// multi-condition intersection paths.
	pairs := [][2]int{{0, 1}, {1, 2}, {0, 2}, {1, 0}, {2, 1}, {2, 0}}
	for trial := 0; trial < 60; trial++ {
		nc := 1 + rng.Intn(3)
		conds := make([]query.Condition, nc)
		for i := range conds {
			pr := pairs[rng.Intn(len(pairs))]
			p := interval.Predicate(rng.Intn(int(interval.NumPredicates)))
			conds[i] = cond(pr[0], p, pr[1])
		}
		cands := [][]relation.Tuple{
			randomTuples(rng, 20, 30, 10),
			randomTuples(rng, 20, 30, 10),
			randomTuples(rng, 20, 30, 10),
		}
		check(fmt.Sprintf("random trial %d %v", trial, conds), conds, cands)
	}

	// Multi-attribute (general class): two-attribute tuples with conditions
	// targeting different attributes of the same level, which exercises the
	// probe fallback (no single sort order serves both).
	mk2 := func(n int) []relation.Tuple {
		out := make([]relation.Tuple, n)
		for i := range out {
			s1 := rng.Int63n(25)
			out[i] = relation.Tuple{ID: int64(i), Attrs: []interval.Interval{
				interval.New(s1, s1+rng.Int63n(8)),
				interval.PointInterval(rng.Int63n(5)),
			}}
		}
		return out
	}
	for trial := 0; trial < 20; trial++ {
		p1 := interval.Predicate(rng.Intn(int(interval.NumPredicates)))
		p2 := interval.Predicate(rng.Intn(int(interval.NumPredicates)))
		conds := []query.Condition{
			{Left: query.Operand{Rel: 0, Attr: 0}, Pred: p1, Right: query.Operand{Rel: 1, Attr: 0}},
			{Left: query.Operand{Rel: 0, Attr: 1}, Pred: interval.Equals, Right: query.Operand{Rel: 1, Attr: 1}},
			{Left: query.Operand{Rel: 1, Attr: 0}, Pred: p2, Right: query.Operand{Rel: 2, Attr: 1}},
		}
		cands := [][]relation.Tuple{mk2(18), mk2(18), mk2(18)}
		check(fmt.Sprintf("multiattr trial %d %s/%s", trial, p1, p2), conds, cands)
	}

	// Degenerate shapes: empty lists, singletons, all-identical intervals.
	empty := [][]relation.Tuple{{}, randomTuples(rng, 10, 20, 5)}
	check("empty list", []query.Condition{cond(0, interval.Overlaps, 1)}, empty)
	same := make([]relation.Tuple, 12)
	for i := range same {
		same[i] = mkTuple(int64(i), interval.New(5, 9))
	}
	dup := [][]relation.Tuple{same, same, randomTuples(rng, 12, 20, 6)}
	check("identical intervals",
		[]query.Condition{cond(0, interval.Equals, 1), cond(1, interval.Overlaps, 2)}, dup)
}

func TestPlanPicksByClass(t *testing.T) {
	cases := []struct {
		q    string
		want string
	}{
		{"R1 overlaps R2", "two-way"},
		{"R1 overlaps R2 and R2 overlaps R3", "rccis"},
		{"R1 before R2 and R2 before R3", "all-matrix"},
		{"R1 before R2 and R1 overlaps R3", "all-seq-matrix"},
		{"R1.I before R2.I and R1.A = R2.A", "gen-matrix"},
	}
	for _, tc := range cases {
		if got := Plan(query.MustParse(tc.q), false).Name(); got != tc.want {
			t.Errorf("Plan(%q) = %s, want %s", tc.q, got, tc.want)
		}
	}
	if got := Plan(query.MustParse("R1 before R2 and R1 overlaps R3"), true).Name(); got != "pasm" {
		t.Errorf("Plan with pruning = %s, want pasm", got)
	}
}

func TestContextValidation(t *testing.T) {
	engine := mr.NewEngine(mr.Config{Store: dfs.NewMem()})
	q := query.MustParse("R1 overlaps R2")
	r1 := relation.FromIntervals("R1", []interval.Interval{{Start: 0, End: 1}})
	r2 := relation.FromIntervals("R2", []interval.Interval{{Start: 0, End: 1}})
	rX := relation.FromIntervals("RX", []interval.Interval{{Start: 0, End: 1}})
	if _, err := NewContext(engine, q, []*relation.Relation{r1, rX}, Options{}); err == nil {
		t.Error("unknown relation accepted")
	}
	if _, err := NewContext(engine, q, []*relation.Relation{r1}, Options{}); err == nil {
		t.Error("missing relation accepted")
	}
	if _, err := NewContext(engine, q, []*relation.Relation{r1, r1}, Options{}); err == nil {
		t.Error("duplicate binding accepted")
	}
	if _, err := NewContext(engine, q, []*relation.Relation{r2, r1}, Options{}); err != nil {
		t.Errorf("order-independent binding failed: %v", err)
	}
}

func TestAlgorithmClassGuards(t *testing.T) {
	engine := mr.NewEngine(mr.Config{Store: dfs.NewMem()})
	seqQ := query.MustParse("R1 before R2 and R2 before R3")
	rels := []*relation.Relation{
		relation.FromIntervals("R1", []interval.Interval{{Start: 0, End: 1}}),
		relation.FromIntervals("R2", []interval.Interval{{Start: 5, End: 6}}),
		relation.FromIntervals("R3", []interval.Interval{{Start: 9, End: 10}}),
	}
	ctx, err := NewContext(engine, seqQ, rels, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (RCCIS{}).Run(ctx); err == nil {
		t.Error("RCCIS accepted a sequence query")
	}
	colQ := query.MustParse("R1 overlaps R2 and R2 overlaps R3")
	ctx2, err := NewContext(engine, colQ, rels, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (AllMatrix{}).Run(ctx2); err == nil {
		t.Error("All-Matrix accepted a colocation query")
	}
}
