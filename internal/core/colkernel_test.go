package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"intervaljoin/internal/interval"
	"intervaljoin/internal/query"
	"intervaljoin/internal/relation"
)

// The columnar-kernel property suite: the sweep loop, the generic Eval
// path, and a nested-loop oracle must produce identical assignment sets
// across all 13 Allen predicates, single- and multi-attribute levels, and
// adversarial endpoint layouts (duplicates, equal-start runs, point
// intervals, int64 extremes — where interval.Window reports an empty
// window and the generic path must yield no candidate).

// runTagged is a reduce call's path through the enumerator with a callback:
// load values into a pooled join and enumerate once, calling fn for every
// assignment. An error from fn stops the enumeration and is returned.
func (e *enumerator) runTagged(values []string, lvl []int, fn func(asg []relation.Tuple) error) error {
	p := e.get()
	defer e.put(p)
	if err := p.load(values, lvl); err != nil {
		return err
	}
	return p.run(fn)
}

// forceGeneric downgrades every level of a fresh enumerator to the generic
// kernel, so a run exercises the Eval path over the same columnar state.
func forceGeneric(e *enumerator) *enumerator {
	for i := range e.plans {
		e.plans[i].kernel = kindGeneric
	}
	return e
}

// enumKeys collects the sorted output keys of one enumerator run.
func enumKeys(e *enumerator, cands [][]relation.Tuple) []string {
	var out []string
	e.run(cands, func(asg []relation.Tuple) error {
		key := make(OutputTuple, len(asg))
		for j, t := range asg {
			key[j] = t.ID
		}
		out = append(out, key.Key())
		return nil
	})
	sort.Strings(out)
	return out
}

// nestedLoopKeys is the oracle: the full cross product, every applicable
// condition checked by Eval, no sorting, no windows.
func nestedLoopKeys(conds []query.Condition, rels []int, cands [][]relation.Tuple) []string {
	pos := make(map[int]int, len(rels))
	for i, r := range rels {
		pos[r] = i
	}
	var out []string
	asg := make([]relation.Tuple, len(rels))
	var rec func(i int)
	rec = func(i int) {
		if i == len(rels) {
			for _, c := range conds {
				li, lok := pos[c.Left.Rel]
				ri, rok := pos[c.Right.Rel]
				if !lok || !rok {
					continue
				}
				if !c.Pred.Eval(asg[li].Attrs[c.Left.Attr], asg[ri].Attrs[c.Right.Attr]) {
					return
				}
			}
			key := make(OutputTuple, len(rels))
			for j, t := range asg {
				key[j] = t.ID
			}
			out = append(out, key.Key())
			return
		}
		for _, t := range cands[i] {
			asg[i] = t
			rec(i + 1)
		}
	}
	rec(0)
	sort.Strings(out)
	return out
}

// adversarialTuples builds a single-attribute candidate list stacked with
// the layouts that break window arithmetic: duplicate intervals, equal-start
// runs, point intervals, and valid intervals touching the int64 extremes
// (where strict window bounds saturate), padded with clustered random
// intervals so every predicate finds matches.
func adversarialTuples(rng *rand.Rand, n int) []relation.Tuple {
	const (
		minI = math.MinInt64
		maxI = math.MaxInt64
	)
	fixed := []interval.Interval{
		{Start: 0, End: 0}, {Start: 0, End: 0}, // duplicate points
		{Start: 0, End: 10}, {Start: 0, End: 10}, // duplicate intervals
		{Start: 0, End: 5}, {Start: 0, End: 7}, // equal-start run
		{Start: 5, End: 5}, {Start: 5, End: 9},
		{Start: 10, End: 10}, {Start: 10, End: 12},
		{Start: minI, End: minI}, {Start: maxI, End: maxI},
		{Start: minI, End: maxI},
		{Start: minI, End: 0}, {Start: 0, End: maxI},
		{Start: minI + 1, End: minI + 1}, {Start: maxI - 1, End: maxI},
		// One step off each extreme: a strict bound from these lands on
		// the extreme itself rather than past it.
		{Start: minI, End: minI + 1}, {Start: maxI - 1, End: maxI - 1},
		{Start: minI + 1, End: maxI - 1},
	}
	ts := make([]relation.Tuple, 0, len(fixed)+n)
	for _, iv := range fixed {
		ts = append(ts, mkTuple(int64(len(ts)), iv))
	}
	for i := 0; i < n; i++ {
		s := rng.Int63n(41) - 20
		ts = append(ts, mkTuple(int64(len(ts)), interval.Interval{Start: s, End: s + rng.Int63n(16)}))
	}
	return ts
}

// adversarialTuples2 is the two-attribute variant (I plus a point-valued
// category attribute A) for General-class multi-attribute levels.
func adversarialTuples2(rng *rand.Rand, n int) []relation.Tuple {
	base := adversarialTuples(rng, n)
	out := make([]relation.Tuple, len(base))
	for i, t := range base {
		cat := interval.PointInterval(int64(i % 3))
		out[i] = mkTuple(t.ID, t.Attrs[0], cat)
	}
	return out
}

// checkAgreement runs the three evaluators and requires identical key sets.
func checkAgreement(t *testing.T, q *query.Query, rels []int, cands [][]relation.Tuple) {
	t.Helper()
	spec := enumKeys(newEnumerator(q.Conds, rels), cands)
	gen := enumKeys(forceGeneric(newEnumerator(q.Conds, rels)), cands)
	oracle := nestedLoopKeys(q.Conds, rels, cands)
	if len(oracle) == 0 {
		t.Logf("note: empty oracle output")
	}
	if !equalStrings(spec, gen) {
		t.Fatalf("specialized kernel (%d rows) != generic kernel (%d rows)\nspec: %v\ngen:  %v",
			len(spec), len(gen), head(spec), head(gen))
	}
	if !equalStrings(spec, oracle) {
		t.Fatalf("columnar kernel (%d rows) != nested-loop oracle (%d rows)\nkernel: %v\noracle: %v",
			len(spec), len(oracle), head(spec), head(oracle))
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func head(s []string) []string {
	if len(s) > 8 {
		return s[:8]
	}
	return s
}

// TestColumnarKernelAllPredicates covers every Allen predicate on a 2-way
// join over adversarial candidate lists.
func TestColumnarKernelAllPredicates(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for p := interval.Predicate(0); p < interval.NumPredicates; p++ {
		t.Run(p.String(), func(t *testing.T) {
			q := query.MustParse(fmt.Sprintf("R1 %s R2", p))
			cands := [][]relation.Tuple{
				adversarialTuples(rng, 25),
				adversarialTuples(rng, 25),
			}
			checkAgreement(t, q, []int{0, 1}, cands)
		})
	}
}

// TestColumnarKernelChains covers every predicate in a 3-way chain, where
// the middle level intersects two windows per assignment.
func TestColumnarKernelChains(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for p := interval.Predicate(0); p < interval.NumPredicates; p++ {
		t.Run(p.String(), func(t *testing.T) {
			q := query.MustParse(fmt.Sprintf("R1 %s R2 and R2 %s R3", p, p))
			cands := [][]relation.Tuple{
				adversarialTuples(rng, 12),
				adversarialTuples(rng, 12),
				adversarialTuples(rng, 12),
			}
			checkAgreement(t, q, []int{0, 1, 2}, cands)
		})
	}
}

// TestColumnarKernelStar binds two windows on the same level from distinct
// partners, including mixed-predicate intersections.
func TestColumnarKernelStar(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	queries := []string{
		"R1 overlaps R3 and R2 contains R3",
		"R1 meets R3 and R2 equals R3",
		"R1 starts R3 and R2 startedby R3",
		"R1 before R3 and R2 after R3",
		"R1 overlaps R2 and R1 before R3 and R2 overlaps R3",
	}
	for _, qs := range queries {
		t.Run(qs, func(t *testing.T) {
			q := query.MustParse(qs)
			cands := [][]relation.Tuple{
				adversarialTuples(rng, 12),
				adversarialTuples(rng, 12),
				adversarialTuples(rng, 12),
			}
			checkAgreement(t, q, []int{0, 1, 2}, cands)
		})
	}
}

// TestColumnarKernelMultiAttr covers General-class queries whose levels mix
// the sort attribute with a second equality attribute — the planner must
// route these to the generic kernel, and the result must still match the
// oracle.
func TestColumnarKernelMultiAttr(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for p := interval.Predicate(0); p < interval.NumPredicates; p++ {
		t.Run(p.String(), func(t *testing.T) {
			q := query.MustParse(fmt.Sprintf("R1.I %s R2.I and R1.A = R2.A", p))
			cands := [][]relation.Tuple{
				adversarialTuples2(rng, 20),
				adversarialTuples2(rng, 20),
			}
			checkAgreement(t, q, []int{0, 1}, cands)
		})
	}
	t.Run("general-3way", func(t *testing.T) {
		q := query.MustParse("R1.I before R2.I and R1.I overlaps R3.I and R1.A = R3.A and R2.B = R3.B")
		cands := [][]relation.Tuple{
			adversarialTuples2(rng, 15),
			adversarialTuples2(rng, 15),
		}
		// R3 needs three attributes: I, A and B.
		r3 := adversarialTuples2(rng, 15)
		for i := range r3 {
			r3[i] = mkTuple(r3[i].ID, r3[i].Attrs[0], r3[i].Attrs[1], interval.PointInterval(int64(i%2)))
		}
		// R2's second attribute is B in this query's schema order.
		checkAgreement(t, q, []int{0, 1, 2}, [][]relation.Tuple{cands[0], cands[1], r3})
	})
}

// TestKernelDispatch pins the planner's kernel choice per level shape: every
// level whose conditions all read its sort attribute sweeps, the predicates
// that pin the candidate's start included.
func TestKernelDispatch(t *testing.T) {
	cases := []struct {
		query string
		want  []kernelKind // per binding level
	}{
		{"R1 overlaps R2", []kernelKind{kindGeneric, kindSweep}},
		{"R1 before R2", []kernelKind{kindGeneric, kindSweep}},
		{"R1 equals R2", []kernelKind{kindGeneric, kindSweep}},
		{"R1 meets R2", []kernelKind{kindGeneric, kindSweep}},
		{"R1 starts R2 and R2 startedby R3", []kernelKind{kindGeneric, kindSweep, kindSweep}},
		{"R1.I overlaps R2.I and R1.A = R2.A", []kernelKind{kindGeneric, kindGeneric}},
	}
	for _, tc := range cases {
		q := query.MustParse(tc.query)
		rels := make([]int, len(q.Relations))
		for i := range rels {
			rels[i] = i
		}
		e := newEnumerator(q.Conds, rels)
		for i, want := range tc.want {
			if e.plans[i].kernel != want {
				t.Errorf("%s: level %d kernel = %v, want %v", tc.query, i, e.plans[i].kernel, want)
			}
		}
	}
}

// TestRunTaggedMatchesRun feeds the same candidates through the tagged
// zero-copy decode path and the in-memory path; outputs must be identical,
// and malformed records must surface as errors.
func TestRunTaggedMatchesRun(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	q := query.MustParse("R1 overlaps R2 and R2 before R3")
	cands := [][]relation.Tuple{
		adversarialTuples(rng, 15),
		adversarialTuples(rng, 15),
		adversarialTuples(rng, 15),
	}
	var values []string
	for rel, list := range cands {
		for _, tup := range list {
			values = append(values, encodeTagged(rel, tup))
		}
	}
	e := newEnumerator(q.Conds, []int{0, 1, 2})
	want := enumKeys(e, cands)

	var got []string
	err := e.runTagged(values, allRelations(3), func(asg []relation.Tuple) error {
		key := make(OutputTuple, len(asg))
		for j, tup := range asg {
			key[j] = tup.ID
		}
		got = append(got, key.Key())
		return nil
	})
	if err != nil {
		t.Fatalf("runTagged: %v", err)
	}
	sort.Strings(got)
	if !equalStrings(got, want) {
		t.Fatalf("runTagged produced %d rows, run produced %d", len(got), len(want))
	}

	// An error from the callback stops the enumeration and is returned.
	if len(want) < 2 {
		t.Fatalf("need at least 2 rows to observe an early stop, have %d", len(want))
	}
	stop := errors.New("stop")
	calls := 0
	err = e.runTagged(values, allRelations(3), func([]relation.Tuple) error { calls++; return stop })
	if !errors.Is(err, stop) || calls != 1 {
		t.Fatalf("runTagged after a callback error: err = %v after %d calls, want %v after 1", err, calls, stop)
	}

	good := encodeTagged(0, mkTuple(0, interval.New(1, 2)))
	for _, bad := range []string{"", "0;0|1,2", good[:len(good)-1], good + "\x00", "\x09" + good[1:],
		encodeTagged(0, relation.Tuple{ID: 0, Attrs: []interval.Interval{{Start: 2, End: 1}}})} {
		if err := e.runTagged([]string{bad}, allRelations(3), func([]relation.Tuple) error { return nil }); err == nil {
			t.Errorf("runTagged(%q) succeeded, want error", bad)
		}
	}
}
