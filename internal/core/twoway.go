package core

import (
	"fmt"

	"intervaljoin/internal/interval"
	"intervaljoin/internal/mr"
	"intervaljoin/internal/query"
	"intervaljoin/internal/relation"
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
	part := plan.part

	cond := ctx.Query.Conds[0]
	strategy := interval.JoinStrategy(cond.Pred)
	opOf := map[int]interval.Op{
		cond.Left.Rel:  strategy.Left,
		cond.Right.Rel: strategy.Right,
	}

	// Shared across reduce calls: the plan is static and per-run state is
	// pooled inside the enumerator. Binding order is (left, right), so the
	// right relation's level gets the specialized columnar kernel.
	e := newEnumerator(ctx.Query.Conds, []int{cond.Left.Rel, cond.Right.Rel}).
		withTracer(ctx.Engine.Tracer())
	lvl := make([]int, len(ctx.Rels))
	for r := range lvl {
		lvl[r] = -1
	}
	lvl[cond.Left.Rel] = 0
	lvl[cond.Right.Rel] = 1

	join := mr.Job{
		Name:   "join",
		Inputs: ctx.relInputs(),
		Map: func(tag int, record string, emit mr.Emitter) error {
			t, err := relation.DecodeTuple(record)
			if err != nil {
				return err
			}
			first, last := part.Apply(opOf[tag], t.Attrs[0])
			plan.emitRange(emit, first, last, tag, encodeTagged(tag, t))
			return nil
		},
		Resplit: resplitValues(2, streamOfTagged),
		Reduce: func(key int64, values []string, write func(string) error) error {
			// Exactly one reducer sees each satisfying pair: the strategy
			// projects at least one side, so no dedup filter is needed.
			return e.runTagged(values, lvl, func(asg []relation.Tuple) error {
				out := make(OutputTuple, 2)
				out[cond.Left.Rel] = asg[0].ID
				out[cond.Right.Rel] = asg[1].ID
				return write(out.Key())
			})
		},
	}
	return []mr.Stage{{Job: join}}, plan, nil
}
