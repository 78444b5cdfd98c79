package interval

import (
	"cmp"
	"math"
	"math/rand"
	"testing"
)

// definition is Allen's thirteen relations written out case by case, as
// Eval stated them before the table: the witness the table is checked
// against, sharing no code with it.
func definition(p Predicate, u, v Interval) bool {
	switch p {
	case Before:
		return u.End < v.Start
	case After:
		return v.End < u.Start
	case Meets:
		return u.End == v.Start
	case MetBy:
		return v.End == u.Start
	case Overlaps:
		return u.Start < v.Start && v.Start < u.End && u.End < v.End
	case OverlappedBy:
		return v.Start < u.Start && u.Start < v.End && v.End < u.End
	case Contains:
		return u.Start < v.Start && v.End < u.End
	case ContainedBy:
		return v.Start < u.Start && u.End < v.End
	case Starts:
		return u.Start == v.Start && u.End < v.End
	case StartedBy:
		return u.Start == v.Start && v.End < u.End
	case Finishes:
		return u.End == v.End && u.Start > v.Start
	case FinishedBy:
		return u.End == v.End && v.Start > u.Start
	case Equals:
		return u.Start == v.Start && u.End == v.End
	}
	panic("definition: predicate outside the 13 Allen relations")
}

// smallDomain is every interval over [0, limit), points included.
func smallDomain(limit int64) []Interval {
	var ivs []Interval
	for s := int64(0); s < limit; s++ {
		for e := s; e < limit; e++ {
			ivs = append(ivs, New(s, e))
		}
	}
	return ivs
}

// columnNames names the table's four endpoint pairs, in columns' order.
var columnNames = [4]string{"u.s/v.s", "u.s/v.e", "u.e/v.s", "u.e/v.e"}

var opNames = map[cmpOp]string{free: "any", lt: "<", eq: "=", gt: ">"}

// signature is how the pair's four endpoint pairs compare.
func signature(u, v Interval) [4]cmpOp {
	c := func(x, y int64) cmpOp { return [3]cmpOp{lt, eq, gt}[cmp.Compare(x, y)+1] }
	return [4]cmpOp{c(u.Start, v.Start), c(u.Start, v.End), c(u.End, v.Start), c(u.End, v.End)}
}

// TestTableIsDefinition checks every row against definition over every
// pair of a small domain with points. A disagreement names the endpoint
// pair at fault (faultyColumn).
func TestTableIsDefinition(t *testing.T) {
	ivs := smallDomain(6)
	for p := range Predicate(NumPredicates) {
		r := &table[p]
		row := [4]cmpOp{r.column(0), r.column(1), r.column(2), r.column(3)}
		var seen [4]cmpOp
		for _, u := range ivs {
			for _, v := range ivs {
				if definition(p, u, v) {
					for k, o := range signature(u, v) {
						seen[k] |= o
					}
				}
			}
		}
	pairs:
		for _, u := range ivs {
			for _, v := range ivs {
				got, want := p.Eval(u, v), definition(p, u, v)
				if got == want {
					continue
				}
				sig := signature(u, v)
				if k := faultyColumn(row, seen, sig, want); k >= 0 {
					t.Errorf("%v(%v, %v) = %v, the definition says %v: endpoint pair %s is %s there, the row has %s",
						p, u, v, got, want, columnNames[k], opNames[sig[k]], opNames[row[k]])
				} else {
					t.Errorf("%v(%v, %v) = %v, the definition says %v; no endpoint pair is at fault", p, u, v, got, want)
				}
				break pairs
			}
		}
	}
}

// faultyColumn names the column of row at fault for a pair whose outcomes
// are sig and on which the row and the definition disagree, want being the
// definition's answer; seen holds the outcomes each column shows over the
// pairs the definition holds for. The column at fault rejects the pair
// though the definition holds, or admits an outcome the definition never
// shows there — a constrained column before a free one. -1 when none does.
func faultyColumn(row, seen, sig [4]cmpOp, want bool) int {
	for _, constrained := range []bool{true, false} {
		for k, op := range row {
			if want && op&sig[k] == 0 || !want && seen[k]&sig[k] == 0 && (op != free) == constrained {
				return k
			}
		}
	}
	return -1
}

// TestWindowIsDefinition checks the derived window of p(b, x): over every
// pair of a small domain with points, x lies in it exactly when
// definition(p, b, x) holds.
func TestWindowIsDefinition(t *testing.T) {
	ivs := smallDomain(6)
	for p := range Predicate(NumPredicates) {
		w := p.Window()
	pairs:
		for _, b := range ivs {
			sLo, sHi, eLo, eHi, ok := w.At(b)
			if !ok {
				t.Errorf("%v's window of %v reports a saturated bound", p, b)
				continue
			}
			for _, x := range ivs {
				in := sLo <= x.Start && x.Start <= sHi && eLo <= x.End && x.End <= eHi
				if want := definition(p, b, x); in != want {
					t.Errorf("%v(%v, %v) = %v, but x is in=%v the window start [%d, %d], end [%d, %d]",
						p, b, x, want, in, sLo, sHi, eLo, eHi)
					break pairs
				}
			}
		}
	}
}

// TestWindowExtremes runs the window test over intervals touching the int64
// extremes, and checks that a window reports a saturated bound exactly where
// the strict bounds the row implies step past the line: before(b, x) with
// b.End == MaxInt64 admits no x, nor anything with its bound pinned by an
// endpoint it would step past.
func TestWindowExtremes(t *testing.T) {
	const minI, maxI = math.MinInt64, math.MaxInt64
	points := []int64{minI, minI + 1, -1, 0, 1, maxI - 1, maxI}
	var ivs []Interval
	for i, s := range points {
		for _, e := range points[i:] {
			ivs = append(ivs, New(s, e))
		}
	}
	// The endpoints of b whose strict bound saturates: s- b.Start at
	// MinInt64, s+ at MaxInt64, e- and e+ likewise for b.End.
	saturating := [NumPredicates][]string{
		Before:       {"e+"},
		After:        {"s-"},
		Overlaps:     {"s+", "e-", "e+"},
		OverlappedBy: {"s-", "s+", "e-"},
		Contains:     {"s+", "e-"},
		ContainedBy:  {"s-", "e+"},
		Starts:       {"e+"},
		StartedBy:    {"e-"},
		Finishes:     {"s-"},
		FinishedBy:   {"s+"},
	}
	for p := range Predicate(NumPredicates) {
		w := p.Window()
	pairs:
		for _, b := range ivs {
			at := map[string]bool{"s-": b.Start == minI, "s+": b.Start == maxI, "e-": b.End == minI, "e+": b.End == maxI}
			wantOK := true
			for _, s := range saturating[p] {
				wantOK = wantOK && !at[s]
			}
			sLo, sHi, eLo, eHi, ok := w.At(b)
			if ok != wantOK {
				t.Errorf("%v's window of %v: ok = %v, want %v", p, b, ok, wantOK)
				break
			}
			for _, x := range ivs {
				in := ok && sLo <= x.Start && x.Start <= sHi && eLo <= x.End && x.End <= eHi
				if want := definition(p, b, x); in != want {
					t.Errorf("%v(%v, %v) = %v, but x is in=%v the window start [%d, %d], end [%d, %d] (ok %v)",
						p, b, x, want, in, sLo, sHi, eLo, eHi, ok)
					break pairs
				}
			}
		}
	}
}

// TestWindowShapes pins which edges each window bounds beside its start
// lower edge (sHi, eLo, eHi): the bound columns the columnar kernel keeps,
// so no relation gains one unnoticed.
func TestWindowShapes(t *testing.T) {
	want := [NumPredicates][3]bool{
		Before:       {false, false, false},
		After:        {true, false, true},
		Meets:        {true, false, false},
		MetBy:        {true, true, true},
		Overlaps:     {true, true, false},
		OverlappedBy: {true, true, true},
		Contains:     {true, false, true},
		ContainedBy:  {true, true, false},
		Starts:       {true, true, false},
		StartedBy:    {true, false, true},
		Finishes:     {true, true, true},
		FinishedBy:   {true, true, true},
		Equals:       {true, true, true},
	}
	for p := range Predicate(NumPredicates) {
		w := p.Window()
		sHi, eLo, eHi := w.Shape()
		if got := [3]bool{sHi, eLo, eHi}; got != want[p] {
			t.Errorf("%v's window bounds (sHi, eLo, eHi) = %v, want %v", p, got, want[p])
		}
	}
}

func TestPredicateEvalTable(t *testing.T) {
	// Hand-picked pairs exercising every relation once.
	cases := []struct {
		p    Predicate
		u, v Interval
	}{
		{Before, New(0, 2), New(4, 6)},
		{After, New(4, 6), New(0, 2)},
		{Meets, New(0, 4), New(4, 8)},
		{MetBy, New(4, 8), New(0, 4)},
		{Overlaps, New(0, 5), New(3, 9)},
		{OverlappedBy, New(3, 9), New(0, 5)},
		{Contains, New(0, 10), New(2, 7)},
		{ContainedBy, New(2, 7), New(0, 10)},
		{Starts, New(0, 4), New(0, 9)},
		{StartedBy, New(0, 9), New(0, 4)},
		{Finishes, New(5, 9), New(0, 9)},
		{FinishedBy, New(0, 9), New(5, 9)},
		{Equals, New(3, 7), New(3, 7)},
	}
	for _, tc := range cases {
		if !tc.p.Eval(tc.u, tc.v) {
			t.Errorf("%v(%v, %v) = false, want true", tc.p, tc.u, tc.v)
		}
		// Exactly this relation must hold among all thirteen.
		for p := Predicate(0); p < NumPredicates; p++ {
			if p != tc.p && p.Eval(tc.u, tc.v) {
				t.Errorf("%v also holds for (%v, %v), expected only %v", p, tc.u, tc.v, tc.p)
			}
		}
		if got := Relate(tc.u, tc.v); got != tc.p {
			t.Errorf("Relate(%v, %v) = %v, want %v", tc.u, tc.v, got, tc.p)
		}
	}
}

// TestJEPD verifies that Allen's thirteen relations are jointly exhaustive
// and pairwise disjoint over proper intervals.
func TestJEPD(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		u := randomProperInterval(rng, 50) // small domain provokes every relation
		v := randomProperInterval(rng, 50)
		holds := 0
		for p := Predicate(0); p < NumPredicates; p++ {
			if p.Eval(u, v) {
				holds++
			}
		}
		if holds != 1 {
			t.Fatalf("pair (%v, %v): %d relations hold, want exactly 1", u, v, holds)
		}
	}
}

// TestJEPDExhaustiveSmallDomain enumerates every pair over a tiny domain,
// leaving nothing to randomness: proper pairs satisfy exactly one relation,
// which Relate names, and a pair with a point satisfies at least one.
func TestJEPDExhaustiveSmallDomain(t *testing.T) {
	ivs := smallDomain(7)
	for _, u := range ivs {
		for _, v := range ivs {
			holds := 0
			var which Predicate
			for p := Predicate(0); p < NumPredicates; p++ {
				if p.Eval(u, v) {
					holds++
					which = p
				}
			}
			if holds == 0 || holds != 1 && u.Start < u.End && v.Start < v.End {
				t.Fatalf("pair (%v, %v): %d relations hold", u, v, holds)
			}
			if holds == 1 && Relate(u, v) != which {
				t.Fatalf("Relate(%v, %v) = %v, want %v", u, v, Relate(u, v), which)
			}
		}
	}
}

func TestInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 5000; i++ {
		u := randomProperInterval(rng, 40)
		v := randomProperInterval(rng, 40)
		for p := Predicate(0); p < NumPredicates; p++ {
			if p.Eval(u, v) != p.Inverse().Eval(v, u) {
				t.Fatalf("%v(%v,%v) != %v(%v,%v)", p, u, v, p.Inverse(), v, u)
			}
		}
	}
	for p := Predicate(0); p < NumPredicates; p++ {
		if p.Inverse().Inverse() != p {
			t.Errorf("Inverse not involutive for %v", p)
		}
	}
}

// TestCanonical pins the direction Query.Normalize keeps: one of each
// inverse pair, and equals.
func TestCanonical(t *testing.T) {
	want := NewPredicateSet(Before, Meets, Overlaps, Contains, Starts, Finishes, Equals)
	for p := range Predicate(NumPredicates) {
		if p.Canonical() != want.Contains(p) {
			t.Errorf("%v.Canonical() = %v", p, p.Canonical())
		}
	}
}

func TestSequenceColocationSplit(t *testing.T) {
	seq := 0
	for p := Predicate(0); p < NumPredicates; p++ {
		if p.IsSequence() {
			seq++
			if p.IsColocation() {
				t.Errorf("%v is both sequence and colocation", p)
			}
		} else if !p.IsColocation() {
			t.Errorf("%v is neither sequence nor colocation", p)
		}
	}
	if seq != 2 {
		t.Fatalf("found %d sequence predicates, want 2 (before, after)", seq)
	}
	// Colocation predicates require the operands to share a point; sequence
	// predicates require them disjoint.
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		u := randomProperInterval(rng, 40)
		v := randomProperInterval(rng, 40)
		for p := Predicate(0); p < NumPredicates; p++ {
			if !p.Eval(u, v) {
				continue
			}
			if p.IsColocation() && !u.Intersects(v) {
				t.Fatalf("colocation predicate %v holds for disjoint %v, %v", p, u, v)
			}
			if p.IsSequence() && u.Intersects(v) {
				t.Fatalf("sequence predicate %v holds for intersecting %v, %v", p, u, v)
			}
		}
	}
}

// TestLessThanOrderSoundness checks the Figure 1 less-than orders: whenever
// a predicate holds, the interval on its "lesser" side starts no later.
func TestLessThanOrderSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 10000; i++ {
		u := randomProperInterval(rng, 60)
		v := randomProperInterval(rng, 60)
		for p := Predicate(0); p < NumPredicates; p++ {
			if !p.Eval(u, v) {
				continue
			}
			switch p.LessThanOrder() {
			case LeftLess:
				if !u.LessThan(v) {
					t.Fatalf("%v(%v,%v) holds but left operand is not less-than", p, u, v)
				}
			case RightLess:
				if !v.LessThan(u) {
					t.Fatalf("%v(%v,%v) holds but right operand is not less-than", p, u, v)
				}
			}
		}
	}
}

func TestParsePredicate(t *testing.T) {
	for p := Predicate(0); p < NumPredicates; p++ {
		got, err := ParsePredicate(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePredicate(%q) = %v, %v", p.String(), got, err)
		}
	}
	aliases := map[string]Predicate{
		"OVERLAPS": Overlaps, "overlap": Overlaps, "during": ContainedBy,
		"overlapped-by": OverlappedBy, "overlapped_by": OverlappedBy,
		"Met By": MetBy, "=": Equals, "<": Before, ">": After,
	}
	for s, want := range aliases {
		got, err := ParsePredicate(s)
		if err != nil || got != want {
			t.Errorf("ParsePredicate(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParsePredicate("sideways"); err == nil {
		t.Error("ParsePredicate(\"sideways\") succeeded, want error")
	}
}

// TestJoinStrategyColocates verifies, for every predicate and a mass of
// random pairs, that whenever the predicate holds the two map-side
// operations route both intervals to at least one common reducer — and that
// the projected side lands on exactly one reducer so the pair is produced
// exactly once.
func TestJoinStrategyColocates(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	part := NewUniform(0, 64, 8)
	for i := 0; i < 20000; i++ {
		u := randomProperInterval(rng, 64)
		v := randomProperInterval(rng, 64)
		p := Relate(u, v)
		st := JoinStrategy(p)
		lf, ll := part.Apply(st.Left, u)
		rf, rl := part.Apply(st.Right, v)
		common := 0
		for r := max(lf, rf); r <= min(ll, rl); r++ {
			common++
		}
		if common == 0 {
			t.Fatalf("predicate %v holds for (%v, %v) but strategy %v/%v yields no common reducer",
				p, u, v, st.Left, st.Right)
		}
		// At least one side must be projected (single reducer) so that the
		// output pair is generated exactly once.
		if st.Left != OpProject && st.Right != OpProject {
			t.Fatalf("strategy for %v projects neither side", p)
		}
	}
}

func TestJoinStrategyMatchesPaperTable(t *testing.T) {
	// Figure 1 column 3, with the sequence rows replicating the lesser
	// relation and the colocation rows splitting it.
	want := map[Predicate]Strategy{
		Before:       {OpReplicate, OpProject},
		After:        {OpProject, OpReplicate},
		Overlaps:     {OpSplit, OpProject},
		OverlappedBy: {OpProject, OpSplit},
		Contains:     {OpSplit, OpProject},
		ContainedBy:  {OpProject, OpSplit},
		Meets:        {OpSplit, OpProject},
		MetBy:        {OpProject, OpSplit},
		Starts:       {OpProject, OpProject},
		StartedBy:    {OpProject, OpProject},
		Finishes:     {OpProject, OpSplit},
		FinishedBy:   {OpSplit, OpProject},
		Equals:       {OpProject, OpProject},
	}
	for p, st := range want {
		if got := JoinStrategy(p); got != st {
			t.Errorf("JoinStrategy(%v) = %v, want %v", p, got, st)
		}
	}
}

func TestOpString(t *testing.T) {
	if OpProject.String() != "project" || OpSplit.String() != "split" || OpReplicate.String() != "replicate" {
		t.Error("Op.String mismatch")
	}
}
