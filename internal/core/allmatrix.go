package core

import (
	"fmt"

	"intervaljoin/internal/grid"
	"intervaljoin/internal/interval"
	"intervaljoin/internal/mr"
	"intervaljoin/internal/query"
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
	// broadcast lets the grid lose the dimensions of small relations
	// (broadcastSmall); only Plan sets it.
	broadcast bool
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
	part, source, err := ctx.boundaries(env.opts.PartitionsPerDim)
	if err != nil {
		return nil, nil, err
	}
	// Dimension k carries relation k; the less-than order of the query's
	// predicates constrains the cells (condition D1).
	dims := make([]dimension, m)
	for k := range dims {
		dims[k] = dimension{part: part, verts: firstAttrs([]int{k})}
	}
	var cons []grid.Less
	if !a.DisableConsistencyFilter {
		for _, p := range ctx.Query.LessThanPairs() {
			cons = append(cons, grid.Less{A: p[0], B: p[1]})
		}
	}
	sp, err := ctx.plannedProduct(env, a.broadcast, source, dims, cons)
	if err != nil {
		return nil, nil, err
	}
	// Condition D2 projects every tuple along its own dimension, which
	// already routes each output tuple to exactly one cell; under the
	// broadcast ablation (no ops) the owner rule filters the duplicates.
	var ops []interval.Op
	if !a.BroadcastAllCells {
		ops = make([]interval.Op, m) // all OpProject
	}
	join := cellJoin{name: "join", sp: sp, ops: ops, owner: true}
	return []mr.Stage{{Job: join.job(ctx)}}, nil, nil
}
