package core

import (
	"fmt"
	"strconv"

	"intervaljoin/internal/grid"
	"intervaljoin/internal/interval"
	"intervaljoin/internal/mr"
	"intervaljoin/internal/query"
	"intervaljoin/internal/relation"
)

// Cascade is the 2-way Cascade baseline: it processes a multi-way query as a
// series of 2-way joins, materialising every intermediate result on the file
// store between cycles. Each step binds one new relation, checking every
// condition between it and the already-bound set. The paper's critique —
// that the big intermediate results are read and shuffled again and again —
// falls straight out of the pair counts the engine reports.
//
// With MatrixSteps set, steps whose driving predicate is a sequence
// predicate run as 2-dimensional All-Matrix joins (the configuration of the
// Figure 5 experiment); otherwise every step uses the Figure 1
// project/split/replicate strategies.
type Cascade struct {
	// MatrixSteps runs sequence-predicate steps on a 2-D consistent-cell
	// grid with Options.PartitionsPerDim partitions per axis.
	MatrixSteps bool
}

// Name implements Algorithm.
func (c Cascade) Name() string {
	if c.MatrixSteps {
		return "2way-cascade-matrix"
	}
	return "2way-cascade"
}

// Run implements Algorithm.
func (c Cascade) Run(ctx *Context) (*Result, error) {
	if cls := ctx.Query.Classify(); cls == query.General {
		return nil, fmt.Errorf("core: cascade handles single-attribute queries only, got %v", cls)
	}
	return ctx.runStages(c.Name(), c.stages)
}

func (c Cascade) stages(ctx *Context, env *chainEnv) ([]mr.Stage, *execPlan, error) {
	// One shared plan for all non-matrix steps: each step joins two input
	// streams (the running partial assignments and the novel relation).
	plan, err := ctx.makePlan(c.Name(), env.opts.Partitions, 2)
	if err != nil {
		return nil, nil, err
	}
	gridPart, _, err := ctx.boundaries(env.opts.PartitionsPerDim)
	if err != nil {
		return nil, nil, err
	}
	steps, err := planCascade(ctx.Query)
	if err != nil {
		return nil, nil, err
	}

	// Each step's partial-assignment input is the previous step's output;
	// the first step's is the existing relation itself.
	stages := make([]mr.Stage, len(steps))
	current := ""
	for si, step := range steps {
		d := step.driving
		var sp *space
		if !c.MatrixSteps || !d.Pred.IsSequence() {
			sp = ctx.union(plan, dimension{part: plan.part, verts: []query.Operand{d.Left, d.Right}})
		} else {
			// Dimension 0 carries the lesser operand of the driving condition.
			lesser, greater := d.Left, d.Right
			if d.Pred.LessThanOrder() != interval.LeftLess {
				lesser, greater = greater, lesser
			}
			sp, err = ctx.product([]dimension{
				{part: gridPart, verts: []query.Operand{lesser}},
				{part: gridPart, verts: []query.Operand{greater}},
			}, []grid.Less{{A: 0, B: 1}})
			if err != nil {
				return nil, nil, err
			}
		}
		bs := bindStep{name: "step-" + strconv.Itoa(si), sp: sp, step: step, current: current}
		if si < len(steps)-1 {
			bs.output = "inter-" + strconv.Itoa(si)
		}
		stages[si].Job = bs.job(ctx)
		current = bs.output
	}
	return stages, plan, nil
}

// cascadeStep binds relation novel to the running partial assignment via the
// driving condition; checkConds are all query conditions between novel and
// the previously bound relations (the driving one included).
type cascadeStep struct {
	existing   int // already-bound relation the driving condition touches
	novel      int // relation bound by this step
	driving    query.Condition
	checkConds []query.Condition
}

// planCascade orders the conditions into binding steps. The first step's
// "existing" relation is the driving condition's left operand.
func planCascade(q *query.Query) ([]cascadeStep, error) {
	m := len(q.Relations)
	boundSet := make([]bool, m)
	used := make([]bool, len(q.Conds))
	var steps []cascadeStep

	first := q.Conds[0]
	boundSet[first.Left.Rel] = true
	used[0] = true
	steps = append(steps, cascadeStep{
		existing: first.Left.Rel,
		novel:    first.Right.Rel,
		driving:  first,
	})
	boundAfter := func(novel int) []query.Condition {
		var conds []query.Condition
		for _, c := range q.Conds {
			li, ri := c.Left.Rel, c.Right.Rel
			if (li == novel && boundSet[ri]) || (ri == novel && boundSet[li]) {
				conds = append(conds, c)
			}
		}
		return conds
	}
	steps[0].checkConds = boundAfter(first.Right.Rel)
	boundSet[first.Right.Rel] = true

	for countBound(boundSet) < m {
		progress := false
		for i, cnd := range q.Conds {
			if used[i] {
				continue
			}
			li, ri := cnd.Left.Rel, cnd.Right.Rel
			var existing, novel int
			switch {
			case boundSet[li] && !boundSet[ri]:
				existing, novel = li, ri
			case boundSet[ri] && !boundSet[li]:
				existing, novel = ri, li
			default:
				if boundSet[li] && boundSet[ri] {
					used[i] = true // already checked when its later side bound
				}
				continue
			}
			used[i] = true
			steps = append(steps, cascadeStep{
				existing:   existing,
				novel:      novel,
				driving:    cnd,
				checkConds: boundAfter(novel),
			})
			boundSet[novel] = true
			progress = true
			break
		}
		if !progress {
			return nil, fmt.Errorf("core: cascade requires a connected query: %s", q)
		}
	}
	return steps, nil
}

func countBound(b []bool) int {
	n := 0
	for _, x := range b {
		if x {
			n++
		}
	}
	return n
}

// satisfiesStep checks every condition between the novel tuple and the
// partial assignment.
func satisfiesStep(pa partial, t relation.Tuple, step cascadeStep) bool {
	for _, c := range step.checkConds {
		var u, v interval.Interval
		if c.Left.Rel == step.novel {
			u = t.Attrs[c.Left.Attr]
			v = pa.tupleOf(c.Right.Rel).Attrs[c.Right.Attr]
		} else {
			u = pa.tupleOf(c.Left.Rel).Attrs[c.Left.Attr]
			v = t.Attrs[c.Right.Attr]
		}
		if !c.Pred.Eval(u, v) {
			return false
		}
	}
	return true
}

// partial is the intermediate record of the multi-cycle baselines — a partial
// assignment: the tuples bound so far, tuples[i] belonging to relation
// rels[i]. On the wire the members follow one another (encodePartial), so a
// lone tagged tuple is a one-member partial assignment.
type partial struct {
	rels   []int
	tuples []relation.Tuple
}

func (pa partial) tupleOf(rel int) relation.Tuple {
	for i, r := range pa.rels {
		if r == rel {
			return pa.tuples[i]
		}
	}
	panic("core: relation " + strconv.Itoa(rel) + " not bound in partial assignment")
}
