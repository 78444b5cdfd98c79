package core

import (
	"fmt"

	"intervaljoin/internal/grid"
	"intervaljoin/internal/mr"
	"intervaljoin/internal/query"
	"intervaljoin/internal/relation"
)

// AllMatrix handles multi-way sequence join queries in a single MR cycle
// (Section 7.1). The m relations span an m-dimensional cross-product space;
// each axis is divided into o partitions, every cell is a reducer, and only
// the cells consistent with the less-than order of the query's predicates
// receive any data (condition D1). A tuple of relation k whose interval
// starts in partition q is sent to every consistent cell whose k-th
// coordinate equals q (condition D2), which routes each output tuple to
// exactly one reducer and spreads the load that All-Replicate piles onto the
// right-most reducers evenly across the grid (Figure 4).
type AllMatrix struct {
	// DisableConsistencyFilter drops condition D1 (ablation): tuples are
	// routed to every cell with the matching coordinate, including cells
	// that provably produce no output.
	DisableConsistencyFilter bool
	// BroadcastAllCells drops condition D2 (ablation): every tuple goes to
	// every consistent cell, demonstrating why D2 matters. Output is
	// deduplicated by designating the cell that matches every tuple's
	// start partition.
	BroadcastAllCells bool
}

// Name implements Algorithm.
func (a AllMatrix) Name() string {
	switch {
	case a.DisableConsistencyFilter:
		return "all-matrix-nofilter"
	case a.BroadcastAllCells:
		return "all-matrix-broadcast"
	}
	return "all-matrix"
}

// Run implements Algorithm.
func (a AllMatrix) Run(ctx *Context) (*Result, error) {
	if cls := ctx.Query.Classify(); cls != query.Sequence {
		return nil, fmt.Errorf("core: all-matrix handles sequence queries, got %v", cls)
	}
	return ctx.runStages(a.Name(), a.stages)
}

func (a AllMatrix) stages(ctx *Context, env *chainEnv) ([]mr.Stage, *execPlan, error) {
	m := len(ctx.Rels)
	part, _, err := ctx.boundaries(env.opts.PartitionsPerDim)
	if err != nil {
		return nil, nil, err
	}
	o := part.Len()
	g, err := grid.NewUniform(m, o)
	if err != nil {
		return nil, nil, err
	}

	// Less-than order constraints: dimension k carries relation k.
	var cons []grid.Less
	if !a.DisableConsistencyFilter {
		for _, p := range ctx.Query.LessThanPairs() {
			cons = append(cons, grid.Less{A: p[0], B: p[1]})
		}
	}

	// Shared across reduce calls: the plan is static and per-run state is
	// pooled inside the enumerator.
	e := newEnumerator(ctx.Query.Conds, allRelations(m)).withTracer(ctx.Engine.Tracer())
	lvl := identityLevels(m)

	join := mr.Job{
		Name:   "join",
		Inputs: ctx.relInputs(),
		Map: func(tag int, record string, emit mr.Emitter) error {
			t, err := relation.DecodeTuple(record)
			if err != nil {
				return err
			}
			q := part.Project(t.Key())
			enc := encodeTagged(tag, t)
			bounds := g.FreeBounds()
			if !a.BroadcastAllCells {
				bounds[tag] = grid.Bound{Min: q, Max: q} // condition D2
			}
			g.EnumerateRuns(bounds, cons, func(lo, hi int64) { emit.EmitRange(lo, hi, enc) })
			return nil
		},
		Reduce: func(key int64, values []string, write func(string) error) error {
			coord := g.Coord(key, nil)
			return e.runTagged(values, lvl, func(asg []relation.Tuple) error {
				// Exactly-once: the designated cell matches every tuple's
				// start partition. Under D2 routing this holds
				// automatically; under the broadcast ablation it filters
				// the duplicates.
				for k, t := range asg {
					if part.Project(t.Key()) != coord[k] {
						return nil
					}
				}
				out := make(OutputTuple, len(asg))
				for i, t := range asg {
					out[i] = t.ID
				}
				return write(out.Key())
			})
		},
	}
	return []mr.Stage{{Job: join}}, nil, nil
}
