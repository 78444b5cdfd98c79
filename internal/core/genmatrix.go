package core

import (
	"fmt"

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
// Two MR cycles, the paper's. Cycle 1 is the RCCIS marking per component,
// one flag per flagged vertex. Because a relation may own vertices in
// several components, a tuple's grid routing depends on the flags of all its
// vertices jointly: the flags leave their cycle through the tap every mark
// cycle has, which gathers them per relation and vertex (marking), and
// cycle 2, the grid join, maps the base relations and reads each tuple's
// flags from there, as every join after a mark cycle does. The marking is
// complete only once the mark cycle has finished, so the mark→join boundary
// is a barrier.
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

func (GenMatrix) stages(ctx *Context, env *chainEnv) ([]mr.Stage, *execPlan, error) {
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
	marked := ctx.newMarking()
	join := cellJoin{name: "join", sp: sp, marked: marked, owner: true}
	return []mr.Stage{
		ctx.markStage(dims, marked, &env.res.ReplicatedIntervals),
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
