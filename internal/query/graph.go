package query

import (
	"cmp"
	"fmt"
	"slices"

	"intervaljoin/internal/interval"
)

// Component is a connected component of the join graph after removing
// sequence edges (Sections 8 and 9): a set of (relation, attribute) vertices
// linked by colocation conditions, encapsulating one colocation sub-query.
type Component struct {
	ID       int
	Vertices []Operand // sorted by (Rel, Attr)
	CondIdx  []int     // indices into Query.Conds of the colocation conditions inside
}

// Decomposition is the join graph G of a query, its colocation components
// (graph G' of the paper), and the less-than order among components implied
// by the sequence conditions.
type Decomposition struct {
	Query      *Query
	Components []Component
	// CompOf maps every vertex to its component id.
	CompOf map[Operand]int
	// SeqCondIdx are the indices of the sequence conditions in Query.Conds.
	SeqCondIdx []int
	// Less holds the directed component pairs {lesser, greater} derived
	// from the sequence conditions, deduplicated.
	Less [][2]int
	// Contradictory is true when two sequence conditions enforce opposite
	// orders between the same pair of components; the query output is then
	// provably empty (Section 9).
	Contradictory bool
}

// Decompose builds the decomposition of q. Every vertex that appears in any
// condition gets a component; vertices connected by colocation conditions
// share one.
func Decompose(q *Query) *Decomposition {
	// Collect vertices in first-appearance order for deterministic ids.
	var verts []Operand
	seen := make(map[Operand]int)
	note := func(op Operand) {
		if _, ok := seen[op]; !ok {
			seen[op] = len(verts)
			verts = append(verts, op)
		}
	}
	for _, c := range q.Conds {
		note(c.Left)
		note(c.Right)
	}

	// Union-find over vertex indices, merging along colocation edges.
	parent := make([]int, len(verts))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			if rb < ra {
				ra, rb = rb, ra
			}
			parent[rb] = ra
		}
	}
	var seqIdx []int
	for i, c := range q.Conds {
		if c.Pred.IsSequence() {
			seqIdx = append(seqIdx, i)
			continue
		}
		union(seen[c.Left], seen[c.Right])
	}

	// Materialise components ordered by their smallest vertex index so the
	// decomposition is deterministic.
	rootToComp := make(map[int]int)
	d := &Decomposition{Query: q, CompOf: make(map[Operand]int), SeqCondIdx: seqIdx}
	for vi, op := range verts {
		root := find(vi)
		ci, ok := rootToComp[root]
		if !ok {
			ci = len(d.Components)
			rootToComp[root] = ci
			d.Components = append(d.Components, Component{ID: ci})
		}
		d.Components[ci].Vertices = append(d.Components[ci].Vertices, op)
		d.CompOf[op] = ci
	}
	for ci := range d.Components {
		vs := d.Components[ci].Vertices
		slices.SortFunc(vs, func(a, b Operand) int {
			if c := cmp.Compare(a.Rel, b.Rel); c != 0 {
				return c
			}
			return cmp.Compare(a.Attr, b.Attr)
		})
	}
	for i, c := range q.Conds {
		if c.Pred.IsSequence() {
			continue
		}
		ci := d.CompOf[c.Left]
		d.Components[ci].CondIdx = append(d.Components[ci].CondIdx, i)
	}

	// Derive the component less-than order from sequence conditions and
	// detect contradictions.
	type pair struct{ a, b int }
	lessSet := make(map[pair]struct{})
	for _, i := range seqIdx {
		c := q.Conds[i]
		lc, rc := d.CompOf[c.Left], d.CompOf[c.Right]
		var lesser, greater int
		if c.Pred.LessThanOrder() == interval.LeftLess {
			lesser, greater = lc, rc
		} else {
			lesser, greater = rc, lc
		}
		if lesser == greater {
			// A sequence condition within one component: its two vertices
			// were merged via colocation edges. Cell consistency cannot
			// help; the condition is still checked at the reducer.
			continue
		}
		if _, conflict := lessSet[pair{greater, lesser}]; conflict {
			d.Contradictory = true
		}
		if _, dup := lessSet[pair{lesser, greater}]; !dup {
			lessSet[pair{lesser, greater}] = struct{}{}
			d.Less = append(d.Less, [2]int{lesser, greater})
		}
	}
	slices.SortFunc(d.Less, func(a, b [2]int) int {
		if c := cmp.Compare(a[0], b[0]); c != 0 {
			return c
		}
		return cmp.Compare(a[1], b[1])
	})
	return d
}

// NumComponents is the dimensionality l of the reducer space used by
// All-Seq-Matrix and Gen-Matrix.
func (d *Decomposition) NumComponents() int { return len(d.Components) }

// VerticesOfRel returns the vertices of relation rel grouped by the
// component they belong to. Gen-Matrix routes each tuple according to all of
// its attributes jointly.
func (d *Decomposition) VerticesOfRel(rel int) map[int][]Operand {
	out := make(map[int][]Operand)
	for op, ci := range d.CompOf {
		if op.Rel == rel {
			out[ci] = append(out[ci], op)
		}
	}
	return out
}

// SubQueryConds returns the conditions of component ci's encapsulated
// colocation query Q_C.
func (d *Decomposition) SubQueryConds(ci int) []Condition {
	conds := make([]Condition, 0, len(d.Components[ci].CondIdx))
	for _, i := range d.Components[ci].CondIdx {
		conds = append(conds, d.Query.Conds[i])
	}
	return conds
}

// String summarises the decomposition.
func (d *Decomposition) String() string {
	var b []byte
	for _, c := range d.Components {
		b = append(b, fmt.Sprintf("C%d{", c.ID)...)
		for i, v := range c.Vertices {
			if i > 0 {
				b = append(b, ' ')
			}
			b = append(b, d.Query.operandString(v)...)
		}
		b = append(b, "} "...)
	}
	for _, l := range d.Less {
		b = append(b, fmt.Sprintf("C%d<C%d ", l[0], l[1])...)
	}
	return string(b)
}
