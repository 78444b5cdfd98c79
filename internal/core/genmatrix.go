package core

import (
	"cmp"
	"fmt"
	"slices"

	"intervaljoin/internal/grid"
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

// vertexInfo locates one vertex of a relation: its component and attribute.
type vertexInfo struct {
	comp, attr int
}

// relVertices returns, per relation, its vertices sorted by (component,
// attribute) — the canonical flag-vector order.
func relVertices(d *query.Decomposition, m int) [][]vertexInfo {
	out := make([][]vertexInfo, m)
	for op, ci := range d.CompOf {
		out[op.Rel] = append(out[op.Rel], vertexInfo{comp: ci, attr: op.Attr})
	}
	for r := range out {
		vs := out[r]
		slices.SortFunc(vs, func(a, b vertexInfo) int {
			if c := cmp.Compare(a.comp, b.comp); c != 0 {
				return c
			}
			return cmp.Compare(a.attr, b.attr)
		})
	}
	return out
}

// Run implements Algorithm.
func (a GenMatrix) Run(ctx *Context) (*Result, error) {
	return ctx.runStages(a.Name(), a.stages)
}

func (a GenMatrix) stages(ctx *Context, env *chainEnv) ([]mr.Stage, *execPlan, error) {
	d := env.d
	verts := relVertices(d, len(ctx.Rels))
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

	// Per-component partitionings over the component's own attribute range.
	parts, err := componentPartitionings(ctx, d, env.opts.PartitionsPerDim)
	if err != nil {
		return nil, nil, err
	}
	join, err := a.joinJob(ctx, d, parts, verts)
	if err != nil {
		return nil, nil, err
	}
	return []mr.Stage{
		{Job: a.markJob(ctx, d, parts, env.opts.PartitionsPerDim)},
		{Job: a.mergeJob(ctx, verts), Tap: func(rec string) {
			// Count tuples with at least one replicate-flagged vertex.
			if _, flags, _, err := decodeVector(rec); err == nil && slices.Contains(flags, true) {
				env.res.ReplicatedIntervals++
			}
		}},
		{Job: join},
	}, nil, nil
}

// componentPartitionings builds one o-partition partitioning per component,
// spanning the bounds of the component's vertex columns. Components related
// by a sequence order constraint compare partition indices across their two
// grid dimensions, so every group of order-connected components shares one
// partitioning over the union of the group's bounds (the paper's "each
// dimension spanning identical temporal range").
func componentPartitionings(ctx *Context, d *query.Decomposition, o int) ([]interval.Partitioning, error) {
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
	parts := make([]interval.Partitioning, l)
	for ci := range d.Components {
		g := find(ci)
		if p, ok := groupParts[g]; ok {
			parts[ci] = p // order-related components share one partitioning
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
		parts[ci] = p
	}
	return parts, nil
}

// markJob is cycle 1: RCCIS marking per component over vertex values. Its
// output, "marked", holds one flagged record per (tuple, vertex).
func (GenMatrix) markJob(ctx *Context, d *query.Decomposition,
	parts []interval.Partitioning, perDim int) mr.Job {

	// Vertices per relation per component, and per-component reducers.
	attrOfComp := make([]map[int]int, len(d.Components)) // comp -> rel -> attr
	relsOfComp := make([][]int, len(d.Components))
	for op, ci := range d.CompOf {
		if attrOfComp[ci] == nil {
			attrOfComp[ci] = make(map[int]int)
		}
		attrOfComp[ci][op.Rel] = op.Attr
		relsOfComp[ci] = append(relsOfComp[ci], op.Rel)
	}
	reducers := make([]mr.ReduceFunc, len(d.Components))
	for ci := range d.Components {
		slices.Sort(relsOfComp[ci])
		inner := markReducerAttrs(d.SubQueryConds(ci), parts[ci], relsOfComp[ci], attrOfComp[ci])
		ci := ci
		reducers[ci] = func(key int64, values []string, write func(string) error) error {
			// Re-wrap the inner writer so the output records carry the
			// vertex attribute (needed by the merge cycle).
			return inner(key, values, func(rec string) error {
				rel, replicate, t, err := decodeFlagged(rec)
				if err != nil {
					return err
				}
				return write(encodeVertexFlagged(rel, attrOfComp[ci][rel], replicate, t))
			})
		}
	}
	o := int64(perDim)
	compOfVertex := d.CompOf

	return mr.Job{
		Name:   "mark",
		Inputs: ctx.relInputs(),
		Map: func(tag int, record string, emit mr.Emitter) error {
			t, err := relation.DecodeTuple(record)
			if err != nil {
				return err
			}
			for op, ci := range compOfVertex {
				if op.Rel != tag {
					continue
				}
				first, last := parts[ci].Split(t.Attrs[op.Attr])
				// Keys within one component block are contiguous.
				emit.EmitRange(int64(ci)*o+int64(first), int64(ci)*o+int64(last), encodeTagged(tag, t))
			}
			return nil
		},
		Reduce: func(key int64, values []string, write func(string) error) error {
			ci := int(key / o)
			return reducers[ci](key%o, values, write)
		},
		Output: "marked",
	}
}

// mergeJob is cycle 2: group the per-vertex flags of "marked" by tuple and
// emit one flag-vector record per tuple, "merged".
func (GenMatrix) mergeJob(ctx *Context, verts [][]vertexInfo) mr.Job {
	m := int64(len(ctx.Rels))
	return mr.Job{
		Name:   "merge",
		Inputs: []mr.Input{{File: "marked"}},
		Map: func(_ int, record string, emit mr.Emitter) error {
			rel, _, _, t, err := decodeVertexFlagged(record)
			if err != nil {
				return err
			}
			emit.Emit(t.ID*m+int64(rel), record)
			return nil
		},
		Reduce: func(key int64, values []string, write func(string) error) error {
			rel := int(key % m)
			vs := verts[rel]
			flags := make([]bool, len(vs))
			var tuple relation.Tuple
			for i, v := range values {
				r, attr, replicate, t, err := decodeVertexFlagged(v)
				if err != nil {
					return err
				}
				if r != rel {
					return fmt.Errorf("core: gen-matrix merge: relation mismatch %d vs %d", r, rel)
				}
				if i == 0 {
					tuple = t
				}
				found := false
				for vi, info := range vs {
					if info.attr == attr {
						flags[vi] = flags[vi] || replicate
						found = true
						break
					}
				}
				if !found {
					return fmt.Errorf("core: gen-matrix merge: unknown vertex attribute %d of relation %d", attr, rel)
				}
			}
			return write(encodeVector(rel, flags, tuple))
		},
		Output: "merged",
	}
}

// joinJob is cycle 3: route each tuple of "merged" into the grid jointly
// per its vertex flags and join per cell.
func (GenMatrix) joinJob(ctx *Context, d *query.Decomposition,
	parts []interval.Partitioning, verts [][]vertexInfo) (mr.Job, error) {

	l := d.NumComponents()
	dims := make([]int, l)
	for i := range dims {
		dims[i] = parts[i].Len()
	}
	g, err := grid.New(dims)
	if err != nil {
		return mr.Job{}, err
	}
	cons := soundComponentLess(d)
	m := len(ctx.Rels)

	mapFn := func(_ int, record string, emit mr.Emitter) error {
		rel, flags, t, err := decodeVector(record)
		if err != nil {
			return err
		}
		if len(flags) != len(verts[rel]) {
			return fmt.Errorf("core: gen-matrix: flag vector arity %d, want %d", len(flags), len(verts[rel]))
		}
		bounds := g.FreeBounds()
		for vi, info := range verts[rel] {
			q := parts[info.comp].Project(t.Attrs[info.attr])
			if flags[vi] {
				b := bounds[info.comp]
				if q > b.Min {
					b.Min = q
				}
				bounds[info.comp] = b // E2, replicated: i_k >= q
			} else {
				bounds[info.comp] = grid.Bound{Min: q, Max: q} // E2: i_k = q
			}
		}
		enc := encodeTagged(rel, t)
		g.EnumerateRuns(bounds, cons, func(lo, hi int64) { emit.EmitRange(lo, hi, enc) })
		return nil
	}

	// Shared across reduce calls: the plan is static and per-run state is
	// pooled inside the enumerator.
	e := newEnumerator(ctx.Query.Conds, allRelations(m)).withTracer(ctx.Engine.Tracer())
	lvl := identityLevels(m)
	reduceFn := func(key int64, values []string, write func(string) error) error {
		coord := g.Coord(key, nil)
		return e.runTagged(values, lvl, func(asg []relation.Tuple) error {
			for ci := range d.Components {
				maxStart := interval.Point(0)
				first := true
				for _, v := range d.Components[ci].Vertices {
					s := asg[v.Rel].Attrs[v.Attr].Start
					if first || s > maxStart {
						maxStart, first = s, false
					}
				}
				if parts[ci].IndexOf(maxStart) != coord[ci] {
					return nil
				}
			}
			out := make(OutputTuple, len(asg))
			for i, t := range asg {
				out[i] = t.ID
			}
			return write(out.Key())
		})
	}

	return mr.Job{
		Name:   "join",
		Inputs: []mr.Input{{File: "merged"}},
		Map:    mapFn,
		Reduce: reduceFn,
	}, nil
}
