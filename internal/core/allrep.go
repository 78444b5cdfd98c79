package core

import (
	"fmt"

	"intervaljoin/internal/interval"
	"intervaljoin/internal/mr"
	"intervaljoin/internal/query"
)

// AllRep is the All-Replicate baseline of Section 6: a single MR cycle that
// replicates every relation (or, when the query's less-than order has a
// unique right-most relation reachable from all others, projects that one
// and replicates the rest — the optimisation the paper applies to chain
// queries). It is correct for every single-interval-attribute query class
// but pays a huge communication cost, and for sequence queries it piles the
// whole load onto the right-most reducers (Figure 4).
type AllRep struct{}

// Name implements Algorithm.
func (AllRep) Name() string { return "all-rep" }

// Run implements Algorithm.
func (a AllRep) Run(ctx *Context) (*Result, error) {
	if cls := ctx.Query.Classify(); cls == query.General {
		return nil, fmt.Errorf("core: all-rep handles single-attribute queries only, got %v", cls)
	}
	return ctx.runStages(a.Name(), a.stages)
}

func (a AllRep) stages(ctx *Context, env *chainEnv) ([]mr.Stage, *execPlan, error) {
	projectRel := projectableRightmost(ctx.Query)
	m := len(ctx.Rels)
	plan, err := ctx.makePlan(a.Name(), env.opts.Partitions, m)
	if err != nil {
		return nil, nil, err
	}
	// Replication is decided per relation, not per record, so the statistic
	// is known before the cycle runs.
	ops := make([]interval.Op, m)
	for ri, r := range ctx.Rels {
		ops[ri] = interval.OpProject
		if ri != projectRel {
			ops[ri] = interval.OpReplicate
			env.res.ReplicatedIntervals += int64(r.Len())
		}
	}
	join := cellJoin{
		name:  "join",
		sp:    ctx.union(plan, dimension{part: plan.part, verts: firstAttrs(allRelations(m))}),
		ops:   ops,
		owner: true,
	}
	return []mr.Stage{{Job: join.job(ctx)}}, plan, nil
}

// projectableRightmost returns the index of the unique relation that is
// maximal in the query's less-than order and reachable from every other
// relation (so its interval always carries the assignment's maximal start
// point), or -1 when no such relation exists and every relation must be
// replicated.
func projectableRightmost(q *query.Query) int {
	m := len(q.Relations)
	adj := make([][]bool, m)
	for i := range adj {
		adj[i] = make([]bool, m)
	}
	isLesser := make([]bool, m)
	for _, p := range q.LessThanPairs() {
		adj[p[0]][p[1]] = true
		isLesser[p[0]] = true
	}
	candidate := -1
	for r := 0; r < m; r++ {
		if !isLesser[r] {
			if candidate >= 0 {
				return -1 // multiple right-most relations
			}
			candidate = r
		}
	}
	if candidate < 0 {
		return -1 // cyclic order; replicate everything
	}
	// Every other relation must reach the candidate.
	reached := make([]bool, m)
	var visit func(int)
	visit = func(x int) {
		if reached[x] {
			return
		}
		reached[x] = true
		for y := 0; y < m; y++ {
			if adj[y][x] { // walk edges backwards from the candidate
				visit(y)
			}
		}
	}
	visit(candidate)
	for r := 0; r < m; r++ {
		if !reached[r] {
			return -1
		}
	}
	return candidate
}
