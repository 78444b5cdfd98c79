// Package grid models the multi-dimensional reducer spaces of the matrix
// algorithms (Sections 7–9): an l-dimensional array of cells where dimension
// k is divided into o_k partitions. A cell is a reducer; its coordinates are
// the per-dimension partition indices. The package enumerates the cells that
// are consistent with the less-than order constraints a query imposes, and
// encodes cell coordinates into the int64 reducer keys of the MR engine.
package grid

import "fmt"

// Grid is an immutable l-dimensional cell space.
type Grid struct {
	dims    []int
	strides []int64
	cells   int64
}

// New builds a grid with dims[k] partitions along dimension k. Every
// dimension must have at least one partition.
func New(dims []int) (Grid, error) {
	if len(dims) == 0 {
		return Grid{}, fmt.Errorf("grid: no dimensions")
	}
	g := Grid{dims: make([]int, len(dims)), strides: make([]int64, len(dims)), cells: 1}
	copy(g.dims, dims)
	for k := len(dims) - 1; k >= 0; k-- {
		if dims[k] < 1 {
			return Grid{}, fmt.Errorf("grid: dimension %d has %d partitions", k, dims[k])
		}
		g.strides[k] = g.cells
		g.cells *= int64(dims[k])
	}
	return g, nil
}

// NewUniform builds an l-dimensional grid with o partitions per dimension.
func NewUniform(l, o int) (Grid, error) {
	dims := make([]int, l)
	for i := range dims {
		dims[i] = o
	}
	return New(dims)
}

// MustNew is New for tests and examples; it panics on error.
func MustNew(dims []int) Grid {
	g, err := New(dims)
	if err != nil {
		panic(err)
	}
	return g
}

// Dims returns a copy of the per-dimension partition counts.
func (g Grid) Dims() []int {
	out := make([]int, len(g.dims))
	copy(out, g.dims)
	return out
}

// NumDims is the dimensionality l.
func (g Grid) NumDims() int { return len(g.dims) }

// NumCells is the total cell count (product of dimensions).
func (g Grid) NumCells() int64 { return g.cells }

// ID encodes cell coordinates into a single reducer key. Coordinates are
// validated; out-of-range coordinates panic (they indicate a routing bug).
func (g Grid) ID(coord []int) int64 {
	if len(coord) != len(g.dims) {
		panic(fmt.Sprintf("grid: coordinate arity %d, grid arity %d", len(coord), len(g.dims)))
	}
	var id int64
	for k, c := range coord {
		if c < 0 || c >= g.dims[k] {
			panic(fmt.Sprintf("grid: coordinate %d out of range [0,%d) in dimension %d", c, g.dims[k], k))
		}
		id += int64(c) * g.strides[k]
	}
	return id
}

// Coord decodes a reducer key back into coordinates, reusing out when it has
// the right length.
func (g Grid) Coord(id int64, out []int) []int {
	if cap(out) < len(g.dims) {
		out = make([]int, len(g.dims))
	}
	out = out[:len(g.dims)]
	for k := range g.dims {
		out[k] = int(id / g.strides[k] % int64(g.dims[k]))
	}
	return out
}

// Less is a consistency constraint between two dimensions: the cell index
// along dimension A must be less than or equal to the index along dimension
// B. It encodes "component/relation A is in less-than order with B".
type Less struct {
	A, B int
}

// Bound restricts the coordinate range of one dimension during enumeration.
type Bound struct {
	Min, Max int // inclusive
}

// FreeBounds returns unconstrained bounds for the grid.
func (g Grid) FreeBounds() []Bound {
	out := make([]Bound, len(g.dims))
	for k := range out {
		out[k] = Bound{Min: 0, Max: g.dims[k] - 1}
	}
	return out
}

// Consistent reports whether coord satisfies every less constraint.
func Consistent(coord []int, cons []Less) bool {
	for _, c := range cons {
		if coord[c.A] > coord[c.B] {
			return false
		}
	}
	return true
}

// Cells is a grid's set of cells consistent with some less constraints,
// prepared for walking: each constraint is filed once, under the later of
// its two dimensions, where it bounds that dimension's coordinate by an
// earlier one — from below for c_A <= c_k, from above for c_k <= c_B. So,
// given the coordinates before it, a dimension's consistent coordinates are
// one interval, and the innermost dimension's are one run of consecutive
// ids. A Cells is read-only and may be walked by many goroutines at once; a
// walk over at most stackDims dimensions allocates nothing.
type Cells struct {
	g Grid
	// cons[at[k]:at[k+1]] are the constraints whose later dimension is k.
	cons []Less
	at   []int
}

// stackDims is how many dimensions a walk keeps its coordinates for on the
// stack; a larger grid's walk allocates them.
const stackDims = 8

// Cells prepares the cells consistent with cons for walking.
func (g Grid) Cells(cons []Less) Cells {
	n := len(g.dims)
	c := Cells{g: g, at: make([]int, n+1)}
	for k := 0; k < n; k++ {
		c.at[k] = len(c.cons)
		for _, cn := range cons {
			if cn.A != cn.B && max(cn.A, cn.B) == k {
				c.cons = append(c.cons, cn)
			}
		}
	}
	c.at[n] = len(c.cons)
	return c
}

// span is dimension k's coordinate range within bounds (nil for none) that
// is consistent with the coordinates of the dimensions before it. It is
// empty when lo > hi.
func (c *Cells) span(k int, bounds []Bound, coord []int) (lo, hi int) {
	lo, hi = 0, c.g.dims[k]-1
	if bounds != nil {
		lo, hi = max(lo, bounds[k].Min), min(hi, bounds[k].Max)
	}
	for _, cn := range c.cons[c.at[k]:c.at[k+1]] {
		if cn.B == k {
			lo = max(lo, coord[cn.A])
		} else {
			hi = min(hi, coord[cn.B])
		}
	}
	return lo, hi
}

// Runs calls fn with every maximal run [lo, hi] of consecutive cell ids
// whose cells lie within bounds and are consistent; bounds may be nil for
// the whole grid. The walk visits cells in lexicographic coordinate order,
// which is increasing id order, one innermost range at a time, and joins
// ranges that touch: whenever the innermost dimension is free, a whole row
// is one run. Feeding the runs to mr.Emitter.EmitRange turns a per-cell
// broadcast into an emit-once range record.
func (c Cells) Runs(bounds []Bound, fn func(lo, hi int64)) {
	n := len(c.g.dims)
	if bounds != nil && len(bounds) != n {
		panic(fmt.Sprintf("grid: %d bounds for %d dimensions", len(bounds), n))
	}
	var buf [2 * stackDims]int
	state := buf[:]
	if n > stackDims {
		state = make([]int, 2*n)
	}
	// coord[k] is dimension k's current coordinate and last[k] the end of
	// its consistent range.
	coord, last := state[:n], state[n:2*n]
	// hi starts below lo-1 so the first range can never extend the sentinel.
	runLo, runHi := int64(-1), int64(-2)
	k := 0
	coord[0], last[0] = c.span(0, bounds, coord)
	for k >= 0 {
		switch {
		case coord[k] > last[k]:
			// Dimension k is done: advance the one before it.
			if k--; k >= 0 {
				coord[k]++
			}
		case k < n-1:
			k++
			coord[k], last[k] = c.span(k, bounds, coord)
		default:
			// The innermost stride is 1: the range is a run of ids.
			var base int64
			for j := 0; j < k; j++ {
				base += int64(coord[j]) * c.g.strides[j]
			}
			lo, hi := base+int64(coord[k]), base+int64(last[k])
			if lo == runHi+1 {
				runHi = hi
			} else {
				if runHi >= runLo {
					fn(runLo, runHi)
				}
				runLo, runHi = lo, hi
			}
			coord[k] = last[k] + 1
		}
	}
	if runHi >= runLo {
		fn(runLo, runHi)
	}
}

// Count returns the number of cells.
func (c Cells) Count() int64 {
	var n int64
	c.Runs(nil, func(lo, hi int64) { n += hi - lo + 1 })
	return n
}

// Enumerate calls fn with every cell whose coordinates lie within bounds and
// satisfy all less constraints. The coordinate slice passed to fn is reused;
// fn must not retain it. bounds may be nil for the full grid.
func (g Grid) Enumerate(bounds []Bound, cons []Less, fn func(id int64, coord []int)) {
	coord := make([]int, len(g.dims))
	g.Cells(cons).Runs(bounds, func(lo, hi int64) {
		for id := lo; id <= hi; id++ {
			fn(id, g.Coord(id, coord))
		}
	})
}

// EnumerateRuns calls fn with every maximal run [lo, hi] of consecutive
// cell ids whose cells lie within bounds and satisfy all less constraints
// (Cells.Runs, for a one-off walk).
func (g Grid) EnumerateRuns(bounds []Bound, cons []Less, fn func(lo, hi int64)) {
	g.Cells(cons).Runs(bounds, fn)
}

// ConsistentCells returns the ids of all cells satisfying the constraints —
// the "consistent reducers" of the paper. Inconsistent cells are never sent
// any data.
func (g Grid) ConsistentCells(cons []Less) []int64 {
	var out []int64
	g.Cells(cons).Runs(nil, func(lo, hi int64) {
		for id := lo; id <= hi; id++ {
			out = append(out, id)
		}
	})
	return out
}

// CountConsistent returns the number of consistent cells.
func (g Grid) CountConsistent(cons []Less) int64 { return g.Cells(cons).Count() }
