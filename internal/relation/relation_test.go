package relation

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"intervaljoin/internal/interval"
)

func TestSchemaDefaults(t *testing.T) {
	s := NewSchema("R1")
	if s.Arity() != 1 || s.Attrs[0] != "I" {
		t.Fatalf("default schema = %+v, want single attribute I", s)
	}
	s2 := NewSchema("R2", "I", "A", "B")
	if s2.Arity() != 3 {
		t.Fatalf("arity = %d, want 3", s2.Arity())
	}
	if s2.AttrIndex("A") != 1 || s2.AttrIndex("missing") != -1 {
		t.Error("AttrIndex misbehaves")
	}
}

func TestFromIntervals(t *testing.T) {
	ivs := []interval.Interval{interval.New(0, 5), interval.New(3, 9)}
	r := FromIntervals("R", ivs)
	if r.Len() != 2 {
		t.Fatalf("Len = %d", r.Len())
	}
	if r.Tuples[1].ID != 1 || r.Tuples[1].Key() != interval.New(3, 9) {
		t.Fatalf("tuple 1 = %+v", r.Tuples[1])
	}
	got := r.Intervals()
	for i := range ivs {
		if got[i] != ivs[i] {
			t.Fatalf("Intervals()[%d] = %v, want %v", i, got[i], ivs[i])
		}
	}
	if err := r.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestAppendArityPanics(t *testing.T) {
	r := New(NewSchema("R", "I", "A"))
	defer func() {
		if recover() == nil {
			t.Fatal("arity mismatch did not panic")
		}
	}()
	r.Append(interval.New(0, 1))
}

func TestKeyPanicsOnMultiAttr(t *testing.T) {
	tup := Tuple{ID: 0, Attrs: []interval.Interval{interval.New(0, 1), interval.New(2, 3)}}
	defer func() {
		if recover() == nil {
			t.Fatal("Key on 2-attribute tuple did not panic")
		}
	}()
	tup.Key()
}

func TestValidateCatchesDuplicates(t *testing.T) {
	iv := []interval.Interval{interval.New(0, 1)}
	for name, tc := range map[string]struct {
		ids []int64
		dup bool
	}{
		"same id twice":                   {[]int64{1, 1}, true},
		"repeats an id that sat in place": {[]int64{0, 1, 2, 1}, true},
		"repeats an id met out of place":  {[]int64{0, 7, 2, 7}, true},
		"in place":                        {[]int64{0, 1, 2, 3}, false},
		"out of place, all distinct":      {[]int64{0, 1, 9, 2, 3}, false},
		"increasing, then repeats":        {[]int64{3, 5, 9, 5}, true},
		"increasing from a negative id":   {[]int64{-9, -2, 4}, false},
		"increasing, then falls back":     {[]int64{2, 8, 3}, false},
	} {
		r := New(NewSchema("R"))
		for _, id := range tc.ids {
			r.Tuples = append(r.Tuples, Tuple{ID: id, Attrs: iv})
		}
		if err := r.Validate(); (err != nil) != tc.dup {
			t.Errorf("%s: ids %v: Validate = %v", name, tc.ids, err)
		}
	}
}

// TestValidateRange: the id range comes out of the validating pass whether
// the ids sit at their positions, leave them at the first tuple or later, or
// are not there at all; so does the longest first-attribute interval, on
// either path, saturated where a length passes MaxInt64.
func TestValidateRange(t *testing.T) {
	iv := []interval.Interval{interval.New(0, 1)}
	for _, tc := range []struct {
		ids     []int64
		ivs     []interval.Interval
		longest int64
	}{
		{nil, nil, 0},
		{[]int64{0, 1, 2}, []interval.Interval{{Start: 3, End: 3}, {Start: -5, End: 4}, {Start: 0, End: 2}}, 9},
		{[]int64{0, 7, 2}, []interval.Interval{{Start: 0, End: 1}, {Start: 0, End: 1}, {Start: 10, End: 40}}, 30},
		{[]int64{0, 1}, []interval.Interval{{Start: 0, End: 1}, {Start: math.MinInt64, End: 0}}, math.MaxInt64},
	} {
		r := New(NewSchema("R", "I", "J"))
		for k, id := range tc.ids {
			// The second attribute is longer still: only the first counts.
			r.Tuples = append(r.Tuples, Tuple{ID: id, Attrs: []interval.Interval{tc.ivs[k], {Start: 0, End: 1 << 40}}})
		}
		if _, _, longest, err := r.ValidateRange(); err != nil || longest != tc.longest {
			t.Errorf("intervals %v: longest %d (%v), want %d", tc.ivs, longest, err, tc.longest)
		}
	}
	for _, tc := range []struct {
		ids    []int64
		lo, hi int64
	}{
		{nil, 0, 0},
		{[]int64{0}, 0, 0},
		{[]int64{0, 1, 2, 3}, 0, 3},
		{[]int64{5}, 5, 5},
		{[]int64{-4, 9, 2}, -4, 9},
		{[]int64{0, 1, 2, -7, 3}, -7, 3},
		{[]int64{0, 1, 40, 2}, 0, 40},
		{[]int64{math.MaxInt64, math.MinInt64}, math.MinInt64, math.MaxInt64},
		{[]int64{-9, -2, 4}, -9, 4},
		{[]int64{2, 8, 3}, 2, 8},
		{[]int64{5, 6, 7, 1}, 1, 7},
	} {
		r := New(NewSchema("R"))
		for _, id := range tc.ids {
			r.Tuples = append(r.Tuples, Tuple{ID: id, Attrs: iv})
		}
		if lo, hi, _, err := r.ValidateRange(); err != nil || lo != tc.lo || hi != tc.hi {
			t.Errorf("ids %v: range [%d, %d] (%v), want [%d, %d]", tc.ids, lo, hi, err, tc.lo, tc.hi)
		}
	}
}

// TestValidateAllocatesNothingForPositionalIDs pins the shortcut every query
// relies on (core.NewContext validates each bound relation): ids that equal
// their positions need no set of seen ids.
func TestValidateAllocatesNothingForPositionalIDs(t *testing.T) {
	ivs := make([]interval.Interval, 1000)
	for i := range ivs {
		ivs[i] = interval.New(int64(i), int64(i)+5)
	}
	r := FromIntervals("R", ivs)
	if allocs := testing.AllocsPerRun(10, func() {
		if err := r.Validate(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("Validate allocates %.0f times for ids 0..n-1", allocs)
	}
}

// TestValidateAllocatesNothingForIncreasingIDs: ids that strictly increase
// but are not positions — a selection taken in id order, as the service's
// delta joins bind — need no set of seen ids either.
func TestValidateAllocatesNothingForIncreasingIDs(t *testing.T) {
	r := New(NewSchema("R"))
	for i := 0; i < 1000; i++ {
		r.Tuples = append(r.Tuples, Tuple{ID: int64(3*i - 500), Attrs: []interval.Interval{interval.New(int64(i), int64(i)+5)}})
	}
	var lo, hi int64
	if allocs := testing.AllocsPerRun(10, func() {
		var err error
		if lo, hi, _, err = r.ValidateRange(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("ValidateRange allocates %.0f times for increasing ids", allocs)
	}
	if lo != -500 || hi != 3*999-500 {
		t.Fatalf("range [%d, %d], want [-500, %d]", lo, hi, 3*999-500)
	}
}

func TestValidateCatchesBadArity(t *testing.T) {
	r := New(NewSchema("R", "I", "A"))
	r.Tuples = []Tuple{{ID: 0, Attrs: []interval.Interval{interval.New(0, 1)}}}
	if err := r.Validate(); err == nil {
		t.Fatal("arity mismatch not reported")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(id int64, a1, a2, b1, b2 int32) bool {
		mk := func(x, y int32) interval.Interval {
			if x > y {
				x, y = y, x
			}
			return interval.New(int64(x), int64(y))
		}
		tup := Tuple{ID: id, Attrs: []interval.Interval{mk(a1, a2), mk(b1, b2)}}
		dec, err := DecodeTuple(EncodeTuple(tup))
		if err != nil || dec.ID != tup.ID || len(dec.Attrs) != 2 {
			return false
		}
		return dec.Attrs[0] == tup.Attrs[0] && dec.Attrs[1] == tup.Attrs[1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	for _, s := range []string{"", "5", "x|0,1", "5|0;1", "5|a,b"} {
		if _, err := DecodeTuple(s); err == nil {
			t.Errorf("DecodeTuple(%q) succeeded, want error", s)
		}
	}
}

func TestBounds(t *testing.T) {
	r1 := FromIntervals("R1", []interval.Interval{interval.New(5, 20)})
	r2 := FromIntervals("R2", []interval.Interval{interval.New(-3, 7), interval.New(10, 90)})
	t0, tn, ok := Bounds(r1, r2)
	if !ok || t0 != -3 || tn != 91 {
		t.Fatalf("Bounds = [%d,%d) ok=%v, want [-3,91) true", t0, tn, ok)
	}
	if _, _, ok := Bounds(New(NewSchema("E"))); ok {
		t.Fatal("Bounds of empty relation reported ok")
	}
}

// TestBoundsAtTheEnds: an interval ending at MaxInt64 is covered up to
// tn = MaxInt64, and a relation holding only that point still has a
// non-empty range.
func TestBoundsAtTheEnds(t *testing.T) {
	for _, tc := range []struct {
		iv     interval.Interval
		t0, tn interval.Point
	}{
		{interval.New(math.MinInt64, math.MaxInt64), math.MinInt64, math.MaxInt64},
		{interval.New(math.MaxInt64-5, math.MaxInt64), math.MaxInt64 - 5, math.MaxInt64},
		{interval.PointInterval(math.MaxInt64), math.MaxInt64 - 1, math.MaxInt64},
		{interval.New(math.MinInt64, math.MinInt64), math.MinInt64, math.MinInt64 + 1},
	} {
		r := FromIntervals("R", []interval.Interval{tc.iv})
		t0, tn, ok := Bounds(r)
		a0, an, aok := AttrBounds(r, 0)
		if !ok || !aok || t0 != tc.t0 || tn != tc.tn || a0 != t0 || an != tn {
			t.Errorf("%v: Bounds = [%d,%d) %v, AttrBounds = [%d,%d) %v; want [%d,%d)", tc.iv, t0, tn, ok, a0, an, aok, tc.t0, tc.tn)
		}
	}
}

func TestAttrBounds(t *testing.T) {
	r := New(NewSchema("R", "I", "A"))
	r.Append(interval.New(0, 10), interval.New(100, 100))
	r.Append(interval.New(5, 7), interval.New(42, 42))
	t0, tn, ok := AttrBounds(r, 1)
	if !ok || t0 != 42 || tn != 101 {
		t.Fatalf("AttrBounds = [%d,%d) ok=%v", t0, tn, ok)
	}
}

func TestBoundsCoverEverythingQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 100; i++ {
		n := 1 + rng.Intn(50)
		ivs := make([]interval.Interval, n)
		for j := range ivs {
			s := rng.Int63n(1000) - 500
			ivs[j] = interval.New(s, s+rng.Int63n(100))
		}
		r := FromIntervals("R", ivs)
		t0, tn, ok := Bounds(r)
		if !ok {
			t.Fatal("Bounds not ok for non-empty relation")
		}
		for _, iv := range ivs {
			if iv.Start < t0 || iv.End >= tn {
				t.Fatalf("interval %v outside bounds [%d,%d)", iv, t0, tn)
			}
		}
	}
}
