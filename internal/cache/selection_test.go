package cache

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"intervaljoin/internal/core"
	"intervaljoin/internal/interval"
	"intervaljoin/internal/obs"
	"intervaljoin/internal/query"
	"intervaljoin/internal/relation"
	"intervaljoin/internal/workload"
)

// randomJoin draws a connected query over 2 to 4 relations and data for it.
// Relation i hangs off a random earlier one, so chains and stars both come
// up, and now and then a further condition closes a cycle. multiAttr gives
// every relation two interval attributes and lets conditions pick either (a
// Gen-Matrix query, which must stay a tree: a cycle could tie two attributes
// of one relation into one colocation component, which Gen-Matrix refuses);
// sequence mixes before/after edges in. Endpoints come
// from a small domain so that the point-equality predicates (meets, starts,
// finishes, equals) find partners.
func randomJoin(rng *rand.Rand, multiAttr, sequence bool) (*query.Query, []*relation.Relation) {
	attrs := []string{"I"}
	if multiAttr {
		attrs = []string{"A", "B"}
	}
	n := 2 + rng.Intn(3)
	rels := make([]*relation.Relation, n)
	for i := range rels {
		rels[i] = relation.New(relation.NewSchema(fmt.Sprintf("R%d", i+1), attrs...))
		for k := 20 + rng.Intn(40); k > 0; k-- {
			ivs := make([]interval.Interval, len(attrs))
			for a := range ivs {
				s := interval.Point(rng.Intn(60))
				ivs[a] = interval.New(s, s+interval.Point(rng.Intn(12)))
			}
			rels[i].Append(ivs...)
		}
	}
	pred := func() interval.Predicate {
		if sequence && rng.Intn(3) == 0 {
			return interval.Predicate(rng.Intn(2)) // before, after
		}
		return interval.Predicate(2 + rng.Intn(int(interval.NumPredicates)-2))
	}
	q := query.New()
	for _, r := range rels {
		q.AddRelation(r.Schema)
	}
	add := func(i, j int) {
		err := q.AddCondition(rels[i].Schema.Name, attrs[rng.Intn(len(attrs))], pred(), rels[j].Schema.Name, attrs[rng.Intn(len(attrs))])
		if err != nil {
			panic(err)
		}
	}
	for i := 1; i < n; i++ {
		if j := rng.Intn(i); rng.Intn(2) == 0 {
			add(j, i)
		} else {
			add(i, j)
		}
	}
	if n > 2 && !multiAttr && rng.Intn(3) == 0 {
		add(0, n-1)
	}
	return q, rels
}

// residents is the service's registered form of the query's relations.
func residents(t *testing.T, svc *Service, q *query.Query) []*residentRel {
	t.Helper()
	rels, _, err := svc.bind(q)
	if err != nil {
		t.Fatal(err)
	}
	return rels
}

// TestSelectionMatchesFullJoinOracle is the property the delta path rests on:
// joining only the tuples that can reach a window gives the rows of the whole
// join that are anchored in it. Random queries of every class and random
// windows; the service's cold and cached answers must equal the oracle that
// filters the anchors by hand and joins the full other relations
// (oracleResult shares nothing with narrow).
func TestSelectionMatchesFullJoinOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	preds := map[interval.Predicate]bool{}
	classes := map[query.Class]int{}
	nonEmpty, narrowed := 0, 0
	for trial := 0; trial < 120; trial++ {
		q, rels := randomJoin(rng, trial%3 == 1, trial%3 == 2)
		for _, c := range q.Conds {
			preds[c.Pred] = true
		}
		classes[q.Classify()]++
		svc := newTestService(t, rels...)
		for k := 0; k < 4; k++ {
			lo := interval.Point(rng.Intn(75) - 5)
			w := Window{lo, lo + interval.Point(rng.Intn(25))}
			want := oracleResult(t, q, rels, w)
			label := fmt.Sprintf("trial %d on %s, window %s", trial, q, w.string())
			cold, err := svc.RunCold(q, w)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			sameRows(t, label+" (cold)", cold, want)
			if cold.DeltaRows != int64(len(want.Tuples)) {
				t.Fatalf("%s: DeltaRows = %d, the oracle has %d rows", label, cold.DeltaRows, len(want.Tuples))
			}
			cached, err := svc.Query(q, w)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			sameRows(t, label+" (cached)", cached, want)
			if len(want.Tuples) > 0 {
				nonEmpty++
			}
			if near, _ := narrow(q, residents(t, svc, q), w); near != nil && near[len(near)-1].Len() < rels[len(rels)-1].Len() {
				narrowed++
			}
		}
	}
	if len(preds) != int(interval.NumPredicates) {
		t.Fatalf("anti-vacuity: the queries used %d of the %d predicates", len(preds), interval.NumPredicates)
	}
	for _, c := range []query.Class{query.Colocation, query.Hybrid, query.General} {
		if classes[c] == 0 {
			t.Fatalf("anti-vacuity: no %v query was drawn: %v", c, classes)
		}
	}
	if nonEmpty < 100 || narrowed < 100 {
		t.Fatalf("anti-vacuity: %d windows had rows and %d narrowed the last relation, of 480", nonEmpty, narrowed)
	}
}

// TestSequenceNeighbourStaysWhole: before/after put no bound on where the
// partner lies, so a relation reached only through them is not narrowed —
// the rows of an anchor in the window pair it with tuples arbitrarily far
// from it — while a colocation neighbour of the same anchors is.
func TestSequenceNeighbourStaysWhole(t *testing.T) {
	r1 := relation.FromIntervals("R1", []interval.Interval{interval.New(10, 12), interval.New(500, 510)})
	r2 := relation.FromIntervals("R2", []interval.Interval{interval.New(0, 5), interval.New(11, 30), interval.New(400, 600)})
	r3 := relation.FromIntervals("R3", []interval.Interval{interval.New(0, 5), interval.New(900, 905), interval.New(100000, 100001)})
	rels := []*relation.Relation{r1, r2, r3}
	q := predQuery(t, interval.Overlaps)
	if err := q.AddCondition("R1", "", interval.Before, "R3", ""); err != nil {
		t.Fatal(err)
	}
	w := Window{8, 20}
	svc := newTestService(t, rels...)
	near, _ := narrow(q, residents(t, svc, q), w)
	if near[2].Len() != r3.Len() {
		t.Fatalf("R3, reached through before only, was narrowed to %d of %d tuples", near[2].Len(), r3.Len())
	}
	for i, tup := range r3.Tuples {
		if got := near[2].Tuples[i]; got.ID != tup.ID || !slices.Equal(got.Attrs, tup.Attrs) {
			t.Fatalf("R3, reached through before only, holds %v at %d, want %v", got, i, tup)
		}
	}
	if near[0].Len() != 1 || near[1].Len() != 1 || near[1].Tuples[0].ID != 1 {
		t.Fatalf("anchors %v and colocation neighbour %v: want tuple 0 and tuple 1 alone", near[0].Tuples, near[1].Tuples)
	}
	ans, err := svc.Query(q, w)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := string(ans.RowsJSON), "[[0,1,1],[0,1,2]]"; got != want {
		t.Fatalf("rows %s, want %s", got, want)
	}
	sameRows(t, "sequence neighbour", ans, oracleResult(t, q, rels, w))
}

// TestEmptyGapRunsNoJob: a gap that holds no anchor, or whose anchors' hull
// leaves a colocation neighbour without a tuple, is answered — and cached —
// as an empty segment, and no join runs: a traced query records no span.
func TestEmptyGapRunsNoJob(t *testing.T) {
	r1 := relation.FromIntervals("R1", []interval.Interval{interval.New(10, 20), interval.New(300, 310)})
	r2 := relation.FromIntervals("R2", []interval.Interval{interval.New(15, 25), interval.New(100, 110)})
	r3 := relation.FromIntervals("R3", []interval.Interval{interval.New(18, 19)})
	q := predQuery(t, interval.Overlaps)
	if err := q.AddCondition("R2", "", interval.Contains, "R3", ""); err != nil {
		t.Fatal(err)
	}
	svc := newTestService(t, r1, r2, r3)
	for _, tc := range []struct {
		name string
		w    Window
	}{
		{"no anchor in the gap", Window{50, 250}},
		{"anchor without a colocation neighbour", Window{290, 320}},
	} {
		tr := obs.New(obs.Options{})
		ans, err := svc.QueryTraced(q, tc.w, tr)
		if err != nil {
			t.Fatal(err)
		}
		if spans := tr.Snapshot().Spans; len(ans.DeltaWindows) != 1 || len(spans) != 0 || len(ans.Rows) != 0 || string(ans.RowsJSON) != "[]" {
			t.Fatalf("%s: %d gaps, %d spans, rows %s; want one gap answered empty without a join",
				tc.name, len(ans.DeltaWindows), len(spans), ans.RowsJSON)
		}
		again, err := svc.Query(q, tc.w)
		if err != nil {
			t.Fatal(err)
		}
		if len(again.DeltaWindows) != 0 || again.HitSegments != 1 || len(again.Rows) != 0 {
			t.Fatalf("%s: the empty gap was not cached: %+v", tc.name, again)
		}
	}
	// The same service still joins where there is something to join.
	tr := obs.New(obs.Options{})
	ans, err := svc.QueryTraced(q, Window{0, 30}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if spans := tr.Snapshot().Spans; string(ans.RowsJSON) != "[[0,0,0]]" || len(spans) != 1 {
		t.Fatalf("rows %s, %d spans; want one join", ans.RowsJSON, len(spans))
	}
}

// TestWindowCutsStraddlingAnchors: anchors that reach over a window's edge
// are joined whole on both sides of it. Each side's answer and DeltaRows are
// the oracle's, and the cached answer over both, which takes each shared
// anchor from the side its start lies in, is the oracle's too.
func TestWindowCutsStraddlingAnchors(t *testing.T) {
	r1, r2, r3 := adversarialRelation("R1", 73), adversarialRelation("R2", 79), adversarialRelation("R3", 83)
	rels := []*relation.Relation{r1, r2, r3}
	q := predQuery(t, interval.Overlaps)
	if err := q.AddCondition("R2", "", interval.OverlappedBy, "R3", ""); err != nil {
		t.Fatal(err)
	}
	svc := newTestService(t, rels...)
	left, right, both := Window{0, 199}, Window{200, 400}, Window{0, 400}
	shared := map[int64]bool{}
	for _, tup := range r1.Tuples {
		if a := tup.Attrs[0]; a.Start <= left.Hi && a.End >= right.Lo {
			shared[tup.ID] = true
		}
	}
	straddlingRows := 0
	for _, w := range []Window{left, right} {
		ans, err := svc.Query(q, w)
		if err != nil {
			t.Fatal(err)
		}
		want := oracleResult(t, q, rels, w)
		sameRows(t, "side "+w.string(), ans, want)
		if ans.DeltaRows != int64(len(want.Tuples)) || len(ans.DeltaWindows) != 1 {
			t.Fatalf("side %s: DeltaRows %d over %d gaps, the oracle has %d rows", w.string(), ans.DeltaRows, len(ans.DeltaWindows), len(want.Tuples))
		}
		for _, row := range ans.Rows {
			if shared[row[0]] {
				straddlingRows++
			}
		}
	}
	if straddlingRows == 0 {
		t.Fatal("anti-vacuity: no row is anchored on a tuple that straddles the cut")
	}
	ans, err := svc.Query(q, both)
	if err != nil {
		t.Fatal(err)
	}
	if ans.HitSegments != 2 || len(ans.DeltaWindows) != 0 {
		t.Fatalf("the whole range was not served from the two sides: %+v", ans)
	}
	sameRows(t, "merged", ans, oracleResult(t, q, rels, both))
}

// TestNarrowAllocationsIndependentOfTuples: narrow marks the positions it
// keeps in a bitset and builds each selection at its exact size, so a gap
// ten times wider, with ten times the tuples, costs the same objects.
func TestNarrowAllocationsIndependentOfTuples(t *testing.T) {
	var rels []*relation.Relation
	for i, name := range []string{"R1", "R2"} {
		rel, err := workload.Generate(workload.Table1Spec(name, 20_000, int64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		rels = append(rels, rel)
	}
	svc := newTestService(t, rels...)
	q := predQuery(t, interval.Overlaps)
	res := residents(t, svc, q)
	measure := func(gap Window) (allocs float64, kept int) {
		allocs = testing.AllocsPerRun(50, func() {
			near, _ := narrow(q, res, gap)
			kept = near[0].Len() + near[1].Len()
		})
		return allocs, kept
	}
	narrowAllocs, narrowKept := measure(Window{40_000, 40_499})
	wideAllocs, wideKept := measure(Window{40_000, 44_999})
	if narrowKept == 0 || wideKept < 5*narrowKept {
		t.Fatalf("the gaps keep %d and %d tuples; the guard needs them far apart", narrowKept, wideKept)
	}
	t.Logf("narrow: %.0f allocations for %d tuples, %.0f for %d", narrowAllocs, narrowKept, wideAllocs, wideKept)
	if narrowAllocs != wideAllocs {
		t.Fatalf("narrow allocates %.0f times for %d tuples and %.0f times for %d", narrowAllocs, narrowKept, wideAllocs, wideKept)
	}
}

// TestDeltaJoinAllocsIndependentOfRows: a delta join — narrowing the
// residents and joining the selection in line into an id buffer reused from
// join to join, as runDelta reuses its scratch's — allocates per slab, never
// per tuple or per row, so a gap ten times wider, with about ten times the
// tuples and rows, costs the same objects but for the row chunks the join
// collects into, whose capacity doubles as they fill: one more chunk per
// doubling of the rows.
func TestDeltaJoinAllocsIndependentOfRows(t *testing.T) {
	var rels []*relation.Relation
	for i, name := range []string{"R1", "R2"} {
		rel, err := workload.Generate(workload.Table1Spec(name, 20_000, int64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		rels = append(rels, rel)
	}
	svc := newTestService(t, rels...)
	q := predQuery(t, interval.Overlaps)
	res := residents(t, svc, q)
	var ids []int64
	measure := func(gap Window) (allocs float64, kept, rows int) {
		allocs = testing.AllocsPerRun(50, func() {
			near, _ := narrow(q, res, gap)
			ctx, err := core.NewContext(nil, q, near, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if ids, err = svc.join(ctx, ids[:0]); err != nil {
				t.Fatal(err)
			}
			kept, rows = near[0].Len()+near[1].Len(), len(ids)/2
		})
		return allocs, kept, rows
	}
	narrowAllocs, narrowKept, narrowRows := measure(Window{40_000, 40_499})
	wideAllocs, wideKept, wideRows := measure(Window{40_000, 44_999})
	if narrowRows == 0 || wideKept < 5*narrowKept || wideRows < 5*narrowRows {
		t.Fatalf("the gaps keep %d and %d tuples for %d and %d rows; the guard needs them far apart", narrowKept, wideKept, narrowRows, wideRows)
	}
	t.Logf("delta join: %.0f allocations for %d tuples and %d rows, %.0f for %d and %d", narrowAllocs, narrowKept, narrowRows, wideAllocs, wideKept, wideRows)
	if doublings := math.Ceil(math.Log2(float64(wideRows) / float64(narrowRows))); wideAllocs > narrowAllocs+doublings {
		t.Fatalf("a delta join allocates %.0f times for %d rows and %.0f times for %d", narrowAllocs, narrowRows, wideAllocs, wideRows)
	}
}
