package query

import (
	"math/rand"
	"testing"

	"intervaljoin/internal/interval"
	"intervaljoin/internal/relation"
)

func TestNormalizeCanonicalises(t *testing.T) {
	q := MustParse("R2 after R1 and R2 overlappedby R3 and R1 containedby R3 and R1 startedby R2 and R2 metby R3 and R1 finishedby R2")
	n := q.Normalize()
	if len(n.Conds) != len(q.Conds) {
		t.Fatalf("condition count changed")
	}
	for _, c := range n.Conds {
		if !c.Pred.Canonical() {
			t.Errorf("condition %v %v %v not canonical", c.Left, c.Pred, c.Right)
		}
	}
	// after(R2, R1) -> before(R1, R2).
	if n.Conds[0].Pred != interval.Before || n.Conds[0].Left.Rel != q.Conds[0].Right.Rel {
		t.Fatalf("after not flipped: %+v", n.Conds[0])
	}
	// Canonical conditions are untouched.
	q2 := MustParse("R1 before R2 and R1 overlaps R3")
	n2 := q2.Normalize()
	for i := range q2.Conds {
		if n2.Conds[i] != q2.Conds[i] {
			t.Fatalf("canonical condition %d changed", i)
		}
	}
}

// TestNormalizePreservesSemantics: the normalised query accepts exactly the
// same assignments.
func TestNormalizePreservesSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		// Random 2-condition query over 3 relations.
		q := New()
		for _, pr := range [][2]string{{"A", "B"}, {"B", "C"}} {
			p := interval.Predicate(rng.Intn(int(interval.NumPredicates)))
			if err := q.AddCondition(pr[0], "", p, pr[1], ""); err != nil {
				t.Fatal(err)
			}
		}
		n := q.Normalize()
		tuples := make([]relation.Tuple, 3)
		for probe := 0; probe < 300; probe++ {
			for i := range tuples {
				s := rng.Int63n(30)
				tuples[i] = relation.Tuple{Attrs: []interval.Interval{interval.New(s, s+rng.Int63n(10))}}
			}
			if q.EvalTuples(tuples) != n.EvalTuples(tuples) {
				t.Fatalf("normalisation changed semantics of %q -> %q", q, n)
			}
		}
	}
}

func TestNormalizeDoesNotMutateOriginal(t *testing.T) {
	q := MustParse("R2 after R1")
	before := q.String()
	_ = q.Normalize()
	if q.String() != before {
		t.Fatal("Normalize mutated its receiver")
	}
}

func TestNormalizeClassUnchanged(t *testing.T) {
	for _, qs := range []string{
		"R2 after R1 and R3 after R2",
		"R1 overlappedby R2 and R2 containedby R3",
		"R2 after R1 and R1 overlaps R3",
	} {
		q := MustParse(qs)
		if q.Normalize().Classify() != q.Classify() {
			t.Errorf("Normalize changed class of %q", qs)
		}
	}
}
