package core

import (
	"math/rand"
	"testing"

	"intervaljoin/internal/interval"
	"intervaljoin/internal/query"
	"intervaljoin/internal/relation"
)

func mkTuple(id int64, ivs ...interval.Interval) relation.Tuple {
	return relation.Tuple{ID: id, Attrs: ivs}
}

func TestEnumeratorChain(t *testing.T) {
	q := query.MustParse("R1 overlaps R2 and R2 overlaps R3")
	cands := [][]relation.Tuple{
		{mkTuple(0, interval.New(0, 10)), mkTuple(1, interval.New(50, 60))},
		{mkTuple(0, interval.New(5, 20)), mkTuple(1, interval.New(55, 70))},
		{mkTuple(0, interval.New(15, 30)), mkTuple(1, interval.New(65, 80))},
	}
	e := newEnumerator(q.Conds, []int{0, 1, 2})
	var got []string
	e.run(cands, func(asg []relation.Tuple) error {
		got = append(got, OutputTuple{asg[0].ID, asg[1].ID, asg[2].ID}.Key())
		return nil
	})
	want := map[string]bool{"0,0,0": true, "1,1,1": true}
	if len(got) != 2 || !want[got[0]] || !want[got[1]] {
		t.Fatalf("assignments = %v, want the two diagonal chains", got)
	}
}

func TestEnumeratorSubset(t *testing.T) {
	// An enumerator over a subset of relations ignores conditions that
	// reach outside the subset.
	q := query.MustParse("R1 overlaps R2 and R2 overlaps R3")
	e := newEnumerator(q.Conds, []int{1, 2})
	cands := [][]relation.Tuple{
		{mkTuple(7, interval.New(0, 10))},
		{mkTuple(9, interval.New(5, 20))},
	}
	n := 0
	e.run(cands, func(asg []relation.Tuple) error {
		if asg[0].ID != 7 || asg[1].ID != 9 {
			t.Fatalf("unexpected assignment %v", asg)
		}
		n++
		return nil
	})
	if n != 1 {
		t.Fatalf("assignments = %d, want 1", n)
	}
}

func TestEnumeratorEmptyCandidates(t *testing.T) {
	q := query.MustParse("R1 overlaps R2")
	e := newEnumerator(q.Conds, []int{0, 1})
	n := 0
	e.run([][]relation.Tuple{nil, {mkTuple(0, interval.New(0, 5))}}, func([]relation.Tuple) error { n++; return nil })
	if n != 0 {
		t.Fatalf("assignments over empty relation = %d, want 0", n)
	}
}

func TestSemijoinReduceChain(t *testing.T) {
	q := query.MustParse("R1 overlaps R2 and R2 overlaps R3")
	cands := [][]relation.Tuple{
		{mkTuple(0, interval.New(0, 10)), mkTuple(1, interval.New(100, 110))}, // id 1 has no R2 partner
		{mkTuple(0, interval.New(5, 20))},
		{mkTuple(0, interval.New(15, 30)), mkTuple(1, interval.New(500, 600))}, // id 1 dangling
	}
	out := semijoinReduce(q.Conds, []int{0, 1, 2}, cands)
	if len(out[0]) != 1 || out[0][0].ID != 0 {
		t.Fatalf("R1 survivors = %v", out[0])
	}
	if len(out[1]) != 1 || len(out[2]) != 1 || out[2][0].ID != 0 {
		t.Fatalf("survivors = %v / %v", out[1], out[2])
	}
}

func TestSemijoinReduceEmptiesAll(t *testing.T) {
	q := query.MustParse("R1 overlaps R2 and R2 overlaps R3")
	cands := [][]relation.Tuple{
		{mkTuple(0, interval.New(0, 10))},
		{mkTuple(0, interval.New(5, 20))},
		{mkTuple(0, interval.New(500, 600))}, // breaks the chain
	}
	out := semijoinReduce(q.Conds, []int{0, 1, 2}, cands)
	for i := range out {
		if len(out[i]) != 0 {
			t.Fatalf("relation %d kept %d tuples after chain break", i, len(out[i]))
		}
	}
}

// TestSemijoinExactOnTrees: on acyclic (tree) condition graphs, the
// survivors of the fixpoint are exactly the tuples participating in some
// satisfying assignment.
func TestSemijoinExactOnTrees(t *testing.T) {
	queries := []*query.Query{
		query.MustParse("R1 overlaps R2 and R2 overlaps R3"),
		query.MustParse("R1 overlaps R2 and R2 contains R3 and R3 overlaps R4"),
		query.MustParse("R2 contains R1 and R2 overlaps R3"), // star
	}
	rng := rand.New(rand.NewSource(42))
	for qi, q := range queries {
		m := len(q.Relations)
		rels := make([]int, m)
		for i := range rels {
			rels[i] = i
		}
		for trial := 0; trial < 30; trial++ {
			cands := make([][]relation.Tuple, m)
			for i := range cands {
				n := 1 + rng.Intn(12)
				for j := 0; j < n; j++ {
					s := rng.Int63n(100)
					cands[i] = append(cands[i], mkTuple(int64(j), interval.New(s, s+1+rng.Int63n(30))))
				}
			}
			survivors := semijoinReduce(q.Conds, rels, cands)
			// Brute-force participation.
			e := newEnumerator(q.Conds, rels)
			participates := make([]map[int64]bool, m)
			for i := range participates {
				participates[i] = make(map[int64]bool)
			}
			e.run(cands, func(asg []relation.Tuple) error {
				for i, tp := range asg {
					participates[i][tp.ID] = true
				}
				return nil
			})
			for i := range survivors {
				if len(survivors[i]) != len(participates[i]) {
					t.Fatalf("query %d trial %d: relation %d survivors %d, participants %d",
						qi, trial, i, len(survivors[i]), len(participates[i]))
				}
				for _, tp := range survivors[i] {
					if !participates[i][tp.ID] {
						t.Fatalf("query %d trial %d: tuple %d of relation %d survived but does not participate",
							qi, trial, tp.ID, i)
					}
				}
			}
		}
	}
}

func TestProjectableRightmost(t *testing.T) {
	cases := []struct {
		q    string
		want int
	}{
		{"R1 overlaps R2 and R2 overlaps R3", 2},                     // chain: R3 right-most
		{"R1 before R2 and R2 before R3", 2},                         // sequence chain
		{"R1 overlaps R2 and R3 overlaps R2", 1},                     // star into R2
		{"R1 overlaps R2 and R3 overlaps R4", -1},                    // disconnected: two maxima
		{"R1 overlaps R2 and R2 overlaps R1x", 2},                    // chain with odd names
		{"R2 containedby R1 and R2 overlaps R3", 2},                  // containedby flips order
		{"R1 starts R2 and R2 overlaps R3", 2},                       // tie-friendly predicates
		{"R1 overlaps R2 and R2 overlaps R3 and R3 overlaps R1", -1}, // cycle
	}
	for _, tc := range cases {
		q := query.MustParse(tc.q)
		if got := projectableRightmost(q); got != tc.want {
			t.Errorf("projectableRightmost(%q) = %d, want %d", tc.q, got, tc.want)
		}
	}
}

func TestSoundComponentLess(t *testing.T) {
	// Q4: C0 = {R1, R3} via overlaps, C1 = {R2}; R1 before R2 with R1's
	// direct neighbour R3 covered -> constraint sound.
	d := query.Decompose(query.MustParse("R1 before R2 and R1 overlaps R3"))
	cons := soundComponentLess(d)
	if len(cons) != 1 {
		t.Fatalf("Q4 constraints = %v, want 1", cons)
	}
	// Two colocation hops away from the sequence operand: the transitive
	// member can start arbitrarily late, so the constraint must NOT be
	// derived.
	d2 := query.Decompose(query.MustParse("A overlaps B and B overlaps B2 and A before D"))
	if cons2 := soundComponentLess(d2); len(cons2) != 0 {
		t.Fatalf("unsound constraint derived: %v", cons2)
	}
	// But if the 2-hop member is provably earlier (order edge towards the
	// operand), the constraint is sound again: B2 contains B, B contains A
	// puts B2 <= B <= A... here we make A the order maximum.
	d3 := query.Decompose(query.MustParse("B contains A and B2 contains B and A before D"))
	// Order: B < A (contains: B starts first), B2 < B. A is order-max and
	// the sequence operand: everything is provably <= A.
	if cons3 := soundComponentLess(d3); len(cons3) != 1 {
		t.Fatalf("sound constraint missed: %v", cons3)
	}
}

func TestCountBound(t *testing.T) {
	if countBound([]bool{true, false, true}) != 2 {
		t.Fatal("countBound broken")
	}
}
