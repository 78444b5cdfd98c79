package core

import (
	"fmt"

	"intervaljoin/internal/interval"
	"intervaljoin/internal/mr"
	"intervaljoin/internal/query"
)

// TwoWay computes a single-condition 2-way interval join in one MR cycle
// using the Figure 1 strategy table: depending on the Allen predicate, the
// two relations are projected, split or replicated so that every satisfying
// pair meets at exactly one reducer (Section 4).
type TwoWay struct{}

// Name implements Algorithm.
func (TwoWay) Name() string { return "two-way" }

// Run implements Algorithm.
func (tw TwoWay) Run(ctx *Context) (*Result, error) {
	if len(ctx.Query.Conds) != 1 || len(ctx.Rels) != 2 {
		return nil, fmt.Errorf("core: two-way requires exactly one condition over two relations")
	}
	if cls := ctx.Query.Classify(); cls == query.General {
		return nil, fmt.Errorf("core: two-way handles single-attribute queries only, got %v", cls)
	}
	return ctx.runStages(tw.Name(), tw.stages)
}

func (tw TwoWay) stages(ctx *Context, env *chainEnv) ([]mr.Stage, *execPlan, error) {
	plan, err := ctx.makePlan(tw.Name(), env.opts.Partitions, 2)
	if err != nil {
		return nil, nil, err
	}
	cond := ctx.Query.Conds[0]
	strategy := interval.JoinStrategy(cond.Pred)
	ops := make([]interval.Op, 2)
	ops[cond.Left.Rel], ops[cond.Right.Rel] = strategy.Left, strategy.Right
	// Exactly one reducer sees each satisfying pair — the strategy projects
	// at least one side — so the owner rule is not needed.
	join := cellJoin{
		name: "join",
		sp:   ctx.union(plan, dimension{part: plan.part, verts: []query.Operand{cond.Left, cond.Right}}),
		ops:  ops,
	}
	return []mr.Stage{{Job: join.job(ctx)}}, plan, nil
}
