package core

import (
	"fmt"

	"intervaljoin/internal/grid"
	"intervaljoin/internal/interval"
	"intervaljoin/internal/mr"
	"intervaljoin/internal/query"
	"intervaljoin/internal/relation"
)

// SeqMatrix is All-Seq-Matrix (Section 8.1): hybrid queries run in two MR
// cycles. Cycle 1 runs the RCCIS marking per colocation component (one job,
// keyed by component x partition). Cycle 2 routes every tuple into an
// l-dimensional consistent-cell grid — dimension k belongs to component k;
// a tuple is pinned to its start partition along its component's dimension
// (or to the partitions at and after it when RCCIS flagged it for
// replication, condition E2) — and each cell joins what it receives. An
// output tuple is emitted at the unique cell whose k-th coordinate is the
// start partition of the right-most interval among its component-k members.
//
// Deviation from the paper (documented in DESIGN.md): the paper prunes cells
// with i_j > i_k for every component order C_j < C_k. That constraint is
// unsound for components where an interval two colocation hops away from
// the sequence condition's operand can start after the other component's
// intervals; we therefore add the constraint only when a static analysis
// proves every member of C_j must start before C_k's right-most member.
// All the paper's example queries pass the analysis and keep full pruning.
type SeqMatrix struct{}

// Name implements Algorithm.
func (SeqMatrix) Name() string { return "all-seq-matrix" }

// Run implements Algorithm.
func (s SeqMatrix) Run(ctx *Context) (*Result, error) {
	if cls := ctx.Query.Classify(); cls == query.General {
		return nil, fmt.Errorf("core: all-seq-matrix handles single-attribute queries, got %v", cls)
	}
	return ctx.runStages(s.Name(), s.stages)
}

func (SeqMatrix) stages(ctx *Context, env *chainEnv) ([]mr.Stage, *execPlan, error) {
	part, _, err := ctx.boundaries(env.opts.PartitionsPerDim)
	if err != nil {
		return nil, nil, err
	}
	join, err := componentJoinJob(ctx, part, env.d, nil)
	if err != nil {
		return nil, nil, err
	}
	return []mr.Stage{
		{Job: componentMarkJob(ctx, part, env.d), Tap: replicateFlagTap(&env.res.ReplicatedIntervals)},
		{Job: join},
	}, nil, nil
}

// compOfRel maps relation index -> component id for single-attribute
// decompositions (every relation has exactly one vertex, at attribute 0).
func compOfRel(d *query.Decomposition) map[int]int {
	m := make(map[int]int)
	for op, ci := range d.CompOf {
		m[op.Rel] = ci
	}
	return m
}

// componentMarkJob builds the cycle-1 job: split every relation within its
// component's partitioning (key = component*o + partition) and run the RCCIS
// marking per (component, partition). Its output, "marked", holds every
// tuple exactly once, flagged for replication.
func componentMarkJob(ctx *Context, part interval.Partitioning, d *query.Decomposition) mr.Job {
	comp := compOfRel(d)
	o := int64(part.Len())

	// Per-component reducers, built once.
	reducers := make([]mr.ReduceFunc, len(d.Components))
	for ci := range d.Components {
		rels := make([]int, 0, len(d.Components[ci].Vertices))
		for _, v := range d.Components[ci].Vertices {
			rels = append(rels, v.Rel)
		}
		reducers[ci] = markReducerAttrs(d.SubQueryConds(ci), part, rels, uniformAttr0(rels))
	}

	return mr.Job{
		Name:   "mark",
		Inputs: ctx.relInputs(),
		Map: func(tag int, record string, emit mr.Emitter) error {
			t, err := relation.DecodeTuple(record)
			if err != nil {
				return err
			}
			ci := comp[tag]
			first, last := part.Split(t.Key())
			// Keys within one component block are contiguous.
			emit.EmitRange(int64(ci)*o+int64(first), int64(ci)*o+int64(last), encodeTagged(tag, t))
			return nil
		},
		Reduce: func(key int64, values []string, write func(string) error) error {
			ci := int(key / o)
			partKey := key % o
			return reducers[ci](partKey, values, write)
		},
		Output: "marked",
	}
}

// componentJoinJob builds the final routing-and-join cycle over "marked"
// shared by All-Seq-Matrix and PASM. pruned, when non-nil, maps relation ->
// set of tuple ids that cannot contribute to any output and are dropped
// map-side.
func componentJoinJob(ctx *Context, part interval.Partitioning,
	d *query.Decomposition, pruned []map[int64]bool) (mr.Job, error) {

	comp := compOfRel(d)
	l := d.NumComponents()
	o := part.Len()
	g, err := grid.NewUniform(l, o)
	if err != nil {
		return mr.Job{}, err
	}
	cons := soundComponentLess(d)
	m := len(ctx.Rels)

	mapFn := func(_ int, record string, emit mr.Emitter) error {
		rel, replicate, t, err := decodeFlagged(record)
		if err != nil {
			return err
		}
		if pruned != nil && pruned[rel] != nil && pruned[rel][t.ID] {
			return nil
		}
		k := comp[rel]
		q := part.Project(t.Key())
		bounds := g.FreeBounds()
		if replicate {
			bounds[k] = grid.Bound{Min: q, Max: o - 1} // E2, replicated
		} else {
			bounds[k] = grid.Bound{Min: q, Max: q} // E2, projected
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
			// Exactly-once: this cell's coordinate along every component
			// dimension must equal the start partition of the component's
			// right-most member.
			for ci := range d.Components {
				maxStart := interval.Point(0)
				first := true
				for _, v := range d.Components[ci].Vertices {
					s := asg[v.Rel].Key().Start
					if first || s > maxStart {
						maxStart, first = s, false
					}
				}
				if part.IndexOf(maxStart) != coord[ci] {
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
		Inputs: []mr.Input{{File: "marked"}},
		Map:    mapFn,
		Reduce: reduceFn,
	}, nil
}

// soundComponentLess derives the grid consistency constraints (E1) that are
// provably sound. For a sequence condition a-before-b with a in component j
// and b in component k, the constraint i_j <= i_k is sound when every vertex
// of component j provably starts no later than b starts in every satisfying
// assignment. The proof rules are:
//
//	(1) a itself: end(a) < start(b) implies start(a) < start(b);
//	(2) any vertex with a colocation condition directly to a shares a
//	    point with a, so it starts at or before end(a) < start(b);
//	(3) any vertex that is in less-than order with an already-proven
//	    vertex starts no later than it.
//
// Since start(b) <= the start of component k's right-most member, covered
// components give max-start(C_j) <= max-start(C_k), i.e. q_j <= q_k.
func soundComponentLess(d *query.Decomposition) []grid.Less {
	type pair struct{ a, b int }
	seen := make(map[pair]bool)
	var out []grid.Less
	for _, si := range d.SeqCondIdx {
		c := d.Query.Conds[si]
		var aOp, bOp query.Operand
		if c.Pred.LessThanOrder() == interval.LeftLess {
			aOp, bOp = c.Left, c.Right
		} else {
			aOp, bOp = c.Right, c.Left
		}
		j, k := d.CompOf[aOp], d.CompOf[bOp]
		if j == k || seen[pair{j, k}] {
			continue
		}
		if componentCoveredBy(d, j, aOp) {
			seen[pair{j, k}] = true
			out = append(out, grid.Less{A: j, B: k})
		}
	}
	return out
}

// componentCoveredBy reports whether every vertex of component ci is proven
// to start no later than start(b) given that a's end precedes start(b),
// using the three rules of soundComponentLess.
func componentCoveredBy(d *query.Decomposition, ci int, a query.Operand) bool {
	verts := d.Components[ci].Vertices
	proven := map[query.Operand]bool{a: true}
	// Rule 2: direct colocation neighbours of a.
	conds := d.SubQueryConds(ci)
	for _, c := range conds {
		if c.Left == a {
			proven[c.Right] = true
		}
		if c.Right == a {
			proven[c.Left] = true
		}
	}
	// Rule 3: close backwards along less-than order edges to a fixpoint.
	for changed := true; changed; {
		changed = false
		for _, c := range conds {
			var lesser, greater query.Operand
			if c.Pred.LessThanOrder() == interval.LeftLess {
				lesser, greater = c.Left, c.Right
			} else {
				lesser, greater = c.Right, c.Left
			}
			if proven[greater] && !proven[lesser] {
				proven[lesser] = true
				changed = true
			}
		}
	}
	for _, v := range verts {
		if !proven[v] {
			return false
		}
	}
	return true
}
