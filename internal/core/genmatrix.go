package core

import (
	"fmt"
	"slices"
	"strings"

	"intervaljoin/internal/interval"
	"intervaljoin/internal/mr"
	"intervaljoin/internal/query"
	"intervaljoin/internal/relation"
)

// GenMatrix generalises All-Seq-Matrix to queries over multiple interval
// attributes and real-valued attributes (Section 9). The join graph's
// vertices are (relation, attribute) pairs; dropping sequence edges yields l
// colocation components, each with its own attribute range and partitioning,
// spanning an l-dimensional consistent-cell grid.
//
// Because a relation may own vertices in several components, a tuple's grid
// routing depends on the RCCIS flags of all its vertices jointly; the flags
// are computed per component in cycle 1 (one record per vertex) and
// assembled per tuple in a short merge cycle before the grid join — the one
// mechanical step the paper leaves implicit. Relations whose every vertex
// sits in a distinct component need the merge only when they have more than
// one vertex; single-attribute queries degrade to All-Seq-Matrix's two
// cycles.
//
// Real-valued attributes are length-zero intervals: they never cross a
// partition boundary, so their components replicate nothing and the grid
// dimension degenerates to hash partitioning, exactly as Section 9 argues.
type GenMatrix struct{}

// Name implements Algorithm.
func (GenMatrix) Name() string { return "gen-matrix" }

// Run implements Algorithm.
func (a GenMatrix) Run(ctx *Context) (*Result, error) {
	return ctx.runStages(a.Name(), a.stages)
}

func (a GenMatrix) stages(ctx *Context, env *chainEnv) ([]mr.Stage, *execPlan, error) {
	d := env.d
	for ci := range d.Components {
		seenRel := make(map[int]bool)
		for _, v := range d.Components[ci].Vertices {
			if seenRel[v.Rel] {
				return nil, nil, fmt.Errorf("core: gen-matrix does not support two attributes of %s in one colocation component",
					ctx.Query.Relations[v.Rel].Name)
			}
			seenRel[v.Rel] = true
		}
	}

	// One dimension per component, partitioned over the component's own
	// attribute range.
	dims, err := componentPartitionings(ctx, d, env.opts.PartitionsPerDim)
	if err != nil {
		return nil, nil, err
	}
	sp, err := ctx.product(dims, soundComponentLess(d))
	if err != nil {
		return nil, nil, err
	}
	join := cellJoin{name: "join", sp: sp, from: "merged", owner: true}
	return []mr.Stage{
		{Job: ctx.markJob(dims, true)},
		{Job: a.mergeJob(sp), Tap: func(rec string) {
			// Count tuples with at least one replicate-flagged vertex.
			if _, n, err := splitMember(rec); err == nil && strings.IndexByte(rec[n:], 1) >= 0 {
				env.res.ReplicatedIntervals++
			}
		}},
		{Job: join.job(ctx)},
	}, nil, nil
}

// componentPartitionings lays every component along its own dimension with
// an o-partition partitioning spanning the bounds of the component's vertex
// columns. Components related by a sequence order constraint compare
// partition indices across their two grid dimensions, so every group of
// order-connected components shares one partitioning over the union of the
// group's bounds (the paper's "each dimension spanning identical temporal
// range").
func componentPartitionings(ctx *Context, d *query.Decomposition, o int) ([]dimension, error) {
	l := len(d.Components)
	// Union-find over components along order edges.
	group := make([]int, l)
	for i := range group {
		group[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for group[x] != x {
			group[x] = group[group[x]]
			x = group[x]
		}
		return x
	}
	for _, e := range d.Less {
		a, b := find(e[0]), find(e[1])
		if a != b {
			group[b] = a
		}
	}
	// Per-group bounds over all member components' vertex columns.
	type bounds struct {
		t0, tn interval.Point
		set    bool
	}
	groupBounds := make(map[int]*bounds)
	for ci := range d.Components {
		g := find(ci)
		gb := groupBounds[g]
		if gb == nil {
			gb = &bounds{}
			groupBounds[g] = gb
		}
		for _, v := range d.Components[ci].Vertices {
			a0, an, ok := relation.AttrBounds(ctx.Rels[v.Rel], v.Attr)
			if !ok {
				continue
			}
			if !gb.set {
				gb.t0, gb.tn, gb.set = a0, an, true
				continue
			}
			if a0 < gb.t0 {
				gb.t0 = a0
			}
			if an > gb.tn {
				gb.tn = an
			}
		}
	}
	// With equi-depth partitioning, each group's boundaries come from the
	// quantiles of its own vertex columns' start points.
	groupSamples := make(map[int][]interval.Point)
	if ctx.Opts.EquiDepth {
		for ci := range d.Components {
			g := find(ci)
			for _, v := range d.Components[ci].Vertices {
				rel := ctx.Rels[v.Rel]
				stride := rel.Len()/sampleBudget + 1
				for i, t := range rel.Tuples {
					if i%stride == 0 {
						groupSamples[g] = append(groupSamples[g], t.Attrs[v.Attr].Start)
					}
				}
			}
		}
	}
	groupParts := make(map[int]interval.Partitioning)
	dims := make([]dimension, l)
	for ci := range d.Components {
		g := find(ci)
		dims[ci].verts = d.Components[ci].Vertices
		if p, ok := groupParts[g]; ok {
			dims[ci].part = p // order-related components share one partitioning
			continue
		}
		gb := groupBounds[g]
		t0, tn := gb.t0, gb.tn
		if !gb.set {
			t0, tn = 0, 1 // empty component data; any range works
		}
		var p interval.Partitioning
		var err error
		if ctx.Opts.EquiDepth {
			p, err = interval.NewEquiDepth(t0, tn, o, groupSamples[g])
		} else {
			p, err = interval.MakeUniform(t0, tn, o)
		}
		if err != nil {
			return nil, err
		}
		groupParts[g] = p
		dims[ci].part = p
	}
	return dims, nil
}

// mergeJob is cycle 2: group the per-vertex flags of "marked" by tuple and
// emit one flag-vector record per tuple, "merged", the flags in the order of
// the relation's vertices in the space.
func (GenMatrix) mergeJob(sp *space) mr.Job {
	m := int64(len(sp.at))
	return mr.Job{
		Name:   "merge",
		Inputs: []mr.Input{{File: "marked"}},
		Map: func(_ int, record string, emit mr.Emitter) error {
			rel, member, _, _, err := splitVertexFlagged(record)
			if err != nil {
				return err
			}
			emit.Emit(relation.BinaryID(member[headerLen:])*m+int64(rel), record)
			return nil
		},
		Reduce: func(key int64, values []string, write func(string) error) error {
			rel := int(key % m)
			vs := sp.at[rel]
			flags := make([]byte, len(vs))
			var tuple string
			for _, v := range values {
				r, member, attr, replicate, err := splitVertexFlagged(v)
				if err != nil {
					return err
				}
				var buf [4]interval.Interval
				if _, err := decodeTuple(member, buf[:0]); err != nil {
					return err
				}
				if r != rel {
					return fmt.Errorf("core: gen-matrix merge: relation mismatch %d vs %d", r, rel)
				}
				tuple = member
				vi := slices.IndexFunc(vs, func(at vertexAt) bool { return at.attr == attr })
				if vi < 0 {
					return fmt.Errorf("core: gen-matrix merge: unknown vertex attribute %d of relation %d", attr, rel)
				}
				if replicate {
					flags[vi] = 1
				}
			}
			var out recordSlab
			out.room(len(tuple) + len(flags))
			out.putString(tuple)
			out.put(flags)
			return write(out.cut())
		},
		Output: "merged",
	}
}
