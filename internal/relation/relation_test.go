package relation

import (
	"math"
	"math/rand"
	"slices"
	"strings"
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
		if f, err := r.Check(); err != nil || f.Longest != tc.longest {
			t.Errorf("intervals %v: longest %d (%v), want %d", tc.ivs, f.Longest, err, tc.longest)
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
		if f, err := r.Check(); err != nil || f.Lo != tc.lo || f.Hi != tc.hi {
			t.Errorf("ids %v: range [%d, %d] (%v), want [%d, %d]", tc.ids, f.Lo, f.Hi, err, tc.lo, tc.hi)
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
	var f Facts
	if allocs := testing.AllocsPerRun(10, func() {
		var err error
		if f, err = r.Check(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("Check allocates %.0f times for increasing ids", allocs)
	}
	if f.Lo != -500 || f.Hi != 3*999-500 {
		t.Fatalf("range [%d, %d], want [-500, %d]", f.Lo, f.Hi, 3*999-500)
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

// TestFromIntervalsAllocs: FromIntervals lays its tuples out in one slab, so
// that it makes the same few objects — the relation, its schema's name list,
// the tuples and the slab — for any number of intervals, and Check reads
// them in place.
func TestFromIntervalsAllocs(t *testing.T) {
	for _, n := range []int{1, 10, 10_000} {
		ivs := make([]interval.Interval, n)
		for i := range ivs {
			ivs[i] = interval.New(int64(i), int64(2*i))
		}
		var r *Relation
		if allocs := testing.AllocsPerRun(10, func() { r = FromIntervals("R", ivs) }); allocs != 4 {
			t.Errorf("FromIntervals of %d intervals allocates %.0f objects, want 4", n, allocs)
		}
		if f, err := r.Check(); err != nil || !f.InPlace || f.View.Len() != n || f.View.Attr(int32(n-1), 0) != ivs[n-1] {
			t.Errorf("FromIntervals of %d intervals: Check says in place %v, view of %d (%v)", n, f.InPlace, f.View.Len(), err)
		}
	}
}

// TestCheckReadsLoadedTuplesInPlace: Check views a relation exactly while
// every tuple i has id i and Attrs aliasing the loader's slab at i·arity.
// An edit through the alias keeps the view, and the view sees it; every
// other change a caller can make to the tuples costs it. A view is never
// appended to, and Reset drops it without writing into the relation.
func TestCheckReadsLoadedTuplesInPlace(t *testing.T) {
	load := func() *Relation {
		r, err := ReadText(NewSchema("R", "x", "y"), strings.NewReader("0,1|2,3\n4,5|6,7\n# c\n8,9|10,11\n"))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	for _, tc := range []struct {
		name    string
		edit    func(r *Relation)
		inPlace bool
	}{
		{"unaltered", func(*Relation) {}, true},
		{"edited through the alias", func(r *Relation) { r.Tuples[1].Attrs[1] = interval.New(-1, 1) }, true},
		{"last tuple resliced away", func(r *Relation) { r.Tuples = r.Tuples[:2] }, true},
		{"attrs replaced", func(r *Relation) { r.Tuples[1].Attrs = slices.Clone(r.Tuples[1].Attrs) }, false},
		{"appended", func(r *Relation) { r.Append(interval.New(0, 0), interval.New(0, 0)) }, false},
		{"reordered", func(r *Relation) { r.Tuples[0], r.Tuples[2] = r.Tuples[2], r.Tuples[0] }, false},
		{"id changed", func(r *Relation) { r.Tuples[2].ID = 7 }, false},
		{"first tuple resliced away", func(r *Relation) { r.Tuples = r.Tuples[1:] }, false},
		{"built by hand", func(r *Relation) { *r = Relation{Schema: r.Schema, Tuples: slices.Clone(r.Tuples)} }, false},
	} {
		r := load()
		tc.edit(r)
		f, err := r.Check()
		if err != nil || f.InPlace != tc.inPlace {
			t.Errorf("%s: in place %v (%v), want %v", tc.name, f.InPlace, err, tc.inPlace)
			continue
		}
		if !f.InPlace {
			if f.View.Len() != 0 {
				t.Errorf("%s: not in place, yet a view of %d tuples", tc.name, f.View.Len())
			}
			continue
		}
		if f.View.Len() != r.Len() {
			t.Fatalf("%s: a view of %d tuples, the relation has %d", tc.name, f.View.Len(), r.Len())
		}
		for i, tup := range r.Tuples {
			if v := f.View.Tuple(int32(i)); v.ID != tup.ID || !slices.Equal(v.Attrs, tup.Attrs) || cap(v.Attrs) != 2 {
				t.Fatalf("%s: the view's tuple %d is %+v, the relation's %+v", tc.name, i, v, tup)
			}
		}
		v := f.View
		if _, err := v.AppendBinary(string(AppendBinary(nil, r.Tuples[0]))); err == nil {
			t.Errorf("%s: a view took an appended tuple", tc.name)
		}
		v.Grow(10, 20)
		v.Reset()
		if v.Len() != 0 || r.Tuples[0].Attrs[0] != interval.New(0, 1) || len(r.slab) != 6 {
			t.Errorf("%s: Reset left a view of %d tuples, or wrote into the relation", tc.name, v.Len())
		}
	}
}
