package grid

import (
	"math/rand"
	"testing"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("empty dims accepted")
	}
	if _, err := New([]int{3, 0}); err == nil {
		t.Error("zero-width dimension accepted")
	}
	g, err := NewUniform(3, 6)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumDims() != 3 || g.NumCells() != 216 {
		t.Fatalf("grid = %d dims, %d cells", g.NumDims(), g.NumCells())
	}
}

func TestIDCoordRoundTrip(t *testing.T) {
	g := MustNew([]int{3, 5, 2, 7})
	rng := rand.New(rand.NewSource(1))
	seen := make(map[int64]bool)
	for i := 0; i < 1000; i++ {
		coord := []int{rng.Intn(3), rng.Intn(5), rng.Intn(2), rng.Intn(7)}
		id := g.ID(coord)
		if id < 0 || id >= g.NumCells() {
			t.Fatalf("id %d out of range", id)
		}
		back := g.Coord(id, nil)
		for k := range coord {
			if back[k] != coord[k] {
				t.Fatalf("round trip %v -> %d -> %v", coord, id, back)
			}
		}
		seen[id] = true
	}
	// Distinct coordinates map to distinct ids: enumerate the whole grid.
	all := make(map[int64]bool)
	g.Enumerate(nil, nil, func(id int64, _ []int) {
		if all[id] {
			t.Fatalf("duplicate id %d during enumeration", id)
		}
		all[id] = true
	})
	if int64(len(all)) != g.NumCells() {
		t.Fatalf("enumerated %d cells, want %d", len(all), g.NumCells())
	}
}

func TestIDPanicsOutOfRange(t *testing.T) {
	g := MustNew([]int{2, 2})
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range coordinate did not panic")
		}
	}()
	g.ID([]int{0, 2})
}

func TestConsistentCellsChain(t *testing.T) {
	// A chain i0 <= i1 <= i2 over o partitions has C(o+2, 3) consistent
	// cells: multisets of size 3 from o values.
	binom := func(n, k int) int64 {
		res := int64(1)
		for i := 0; i < k; i++ {
			res = res * int64(n-i) / int64(i+1)
		}
		return res
	}
	for _, o := range []int{2, 3, 6, 11} {
		g, _ := NewUniform(3, o)
		cons := []Less{{0, 1}, {1, 2}}
		got := g.CountConsistent(cons)
		want := binom(o+2, 3)
		if got != want {
			t.Errorf("o=%d: consistent cells = %d, want %d", o, got, want)
		}
	}
	// The paper's Section 7.1 configuration: 6 partitions per dimension for
	// Q2 = R1 before R2 and R2 before R3. C(8,3) = 56 cells satisfy
	// i0<=i1<=i2; the paper reports 55 (their partitioning drops one corner
	// cell). We document the off-by-one in DESIGN.md and assert our exact
	// combinatorial count.
	g, _ := NewUniform(3, 6)
	if got := g.CountConsistent([]Less{{0, 1}, {1, 2}}); got != 56 {
		t.Errorf("6^3 chain: %d consistent cells, want 56", got)
	}
}

func TestConsistentCellsPaperTable4(t *testing.T) {
	// Q5's Gen-Matrix configuration: 4 dimensions, 5 partitions each, a
	// single order constraint C1 < C2 -> 375 of 625 cells are consistent.
	g, _ := NewUniform(4, 5)
	if got := g.CountConsistent([]Less{{0, 1}}); got != 375 {
		t.Fatalf("consistent cells = %d, want 375 (paper Table 4)", got)
	}
	if g.NumCells() != 625 {
		t.Fatalf("total cells = %d, want 625", g.NumCells())
	}
}

func TestConsistentCells2D(t *testing.T) {
	// Figure 4: 3x3 grid with i0 <= i1 -> 6 consistent reducers of 9.
	g, _ := NewUniform(2, 3)
	cells := g.ConsistentCells([]Less{{0, 1}})
	if len(cells) != 6 {
		t.Fatalf("consistent cells = %d, want 6", len(cells))
	}
	coord := make([]int, 2)
	for _, id := range cells {
		coord = g.Coord(id, coord)
		if coord[0] > coord[1] {
			t.Fatalf("inconsistent cell %v enumerated", coord)
		}
	}
}

func TestEnumerateBounds(t *testing.T) {
	g := MustNew([]int{4, 4})
	var got [][2]int
	bounds := []Bound{{Min: 2, Max: 2}, {Min: 1, Max: 3}}
	g.Enumerate(bounds, []Less{{0, 1}}, func(id int64, coord []int) {
		got = append(got, [2]int{coord[0], coord[1]})
	})
	want := [][2]int{{2, 2}, {2, 3}}
	if len(got) != len(want) {
		t.Fatalf("enumerated %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("enumerated %v, want %v", got, want)
		}
	}
}

func TestEnumerateClampsBounds(t *testing.T) {
	g := MustNew([]int{3})
	var n int
	g.Enumerate([]Bound{{Min: -5, Max: 99}}, nil, func(int64, []int) { n++ })
	if n != 3 {
		t.Fatalf("enumerated %d cells, want 3 (bounds must clamp)", n)
	}
}

func TestEnumerateMatchesBruteForce(t *testing.T) {
	g := MustNew([]int{3, 4, 3})
	cons := []Less{{0, 2}, {1, 0}} // i0<=i2 and i1<=i0
	fast := make(map[int64]bool)
	g.Enumerate(nil, cons, func(id int64, _ []int) { fast[id] = true })
	slow := 0
	for a := 0; a < 3; a++ {
		for b := 0; b < 4; b++ {
			for c := 0; c < 3; c++ {
				if a <= c && b <= a {
					slow++
					if !fast[g.ID([]int{a, b, c})] {
						t.Fatalf("cell (%d,%d,%d) missing from enumeration", a, b, c)
					}
				}
			}
		}
	}
	if len(fast) != slow {
		t.Fatalf("enumeration found %d cells, brute force %d", len(fast), slow)
	}
}

// TestRunsMatchBruteForce: on random grids — up to ten dimensions, past the
// walk's stack room — under random constraints and bounds, Runs yields
// exactly the maximal runs of the consistent in-bounds ids a scan of every
// cell finds, in increasing order.
func TestRunsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		dims := make([]int, 1+rng.Intn(4))
		if trial%25 == 0 {
			dims = make([]int, stackDims+2)
		}
		for k := range dims {
			dims[k] = 1 + rng.Intn(4)
			if len(dims) > stackDims {
				dims[k] = 1 + rng.Intn(2)
			}
		}
		g := MustNew(dims)
		var cons []Less
		for i := rng.Intn(4); i > 0; i-- {
			cons = append(cons, Less{A: rng.Intn(len(dims)), B: rng.Intn(len(dims))})
		}
		var bounds []Bound
		if rng.Intn(2) == 0 {
			bounds = g.FreeBounds()
			k := rng.Intn(len(dims))
			lo := rng.Intn(dims[k]+2) - 1
			bounds[k] = Bound{Min: lo, Max: lo + rng.Intn(3)}
		}
		var want [][2]int64
		coord := make([]int, len(dims))
		for id := int64(0); id < g.NumCells(); id++ {
			coord = g.Coord(id, coord)
			in := Consistent(coord, cons)
			for k, b := range bounds {
				in = in && coord[k] >= b.Min && coord[k] <= b.Max
			}
			switch {
			case !in:
			case len(want) > 0 && want[len(want)-1][1] == id-1:
				want[len(want)-1][1] = id
			default:
				want = append(want, [2]int64{id, id})
			}
		}
		var got [][2]int64
		g.Cells(cons).Runs(bounds, func(lo, hi int64) { got = append(got, [2]int64{lo, hi}) })
		if len(got) != len(want) {
			t.Fatalf("dims %v cons %v bounds %v: runs %v, want %v", dims, cons, bounds, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("dims %v cons %v bounds %v: runs %v, want %v", dims, cons, bounds, got, want)
			}
		}
	}
}

func TestConsistentHelper(t *testing.T) {
	if !Consistent([]int{1, 2}, []Less{{0, 1}}) {
		t.Error("(1,2) should satisfy i0<=i1")
	}
	if Consistent([]int{2, 1}, []Less{{0, 1}}) {
		t.Error("(2,1) should violate i0<=i1")
	}
	if !Consistent([]int{2, 1}, nil) {
		t.Error("no constraints should always be consistent")
	}
}
