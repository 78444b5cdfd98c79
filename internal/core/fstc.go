package core

import (
	"fmt"
	"strconv"

	"intervaljoin/internal/grid"
	"intervaljoin/internal/interval"
	"intervaljoin/internal/mr"
	"intervaljoin/internal/query"
)

// FSTC — First Sequence Then Colocation — is the second naive hybrid
// approach Section 8 names: the sequence conditions are executed first with
// All-Matrix over the relations they touch, materialising a partial-
// assignment intermediate; the colocation conditions are then applied as a
// cascade of 2-way steps binding the remaining relations (each step uses
// the Figure 1 split/project strategy on the member interval the condition
// touches). Like FCTS it suffers from reading and shuffling materialised
// intermediate results, which All-Seq-Matrix avoids.
//
// Cycles: 1 (sequence matrix) + one per remaining relation.
type FSTC struct{}

// Name implements Algorithm.
func (FSTC) Name() string { return "fstc" }

// Run implements Algorithm.
func (a FSTC) Run(ctx *Context) (*Result, error) {
	if cls := ctx.Query.Classify(); cls != query.Hybrid {
		return nil, fmt.Errorf("core: fstc handles hybrid queries, got %v", cls)
	}
	return ctx.runStages(a.Name(), a.stages)
}

func (a FSTC) stages(ctx *Context, env *chainEnv) ([]mr.Stage, *execPlan, error) {
	part, _, err := ctx.boundaries(env.opts.PartitionsPerDim)
	if err != nil {
		return nil, nil, err
	}

	// Phase 1: All-Matrix over the relations the sequence conditions touch —
	// one dimension each, in first-appearance order, cells constrained by the
	// conditions' less-than order — checking every query condition among
	// them (sequence and colocation alike).
	var dims []dimension
	dimOf := make(map[int]int)
	var cons []grid.Less
	for _, si := range env.d.SeqCondIdx {
		c := ctx.Query.Conds[si]
		for _, r := range []int{c.Left.Rel, c.Right.Rel} {
			if _, seen := dimOf[r]; !seen {
				dimOf[r] = len(dims)
				dims = append(dims, dimension{part: part, verts: firstAttrs([]int{r})})
			}
		}
		less := grid.Less{A: dimOf[c.Left.Rel], B: dimOf[c.Right.Rel]}
		if c.Pred.LessThanOrder() != interval.LeftLess {
			less.A, less.B = less.B, less.A
		}
		cons = append(cons, less)
	}
	if len(dims) == 0 {
		return nil, nil, fmt.Errorf("core: fstc: hybrid query without sequence conditions")
	}
	sp, err := ctx.product(dims, cons)
	if err != nil {
		return nil, nil, err
	}

	// Phase 2: bind the remaining relations one by one, each step a 2-way
	// join on a colocation condition reaching into the bound set.
	m := len(ctx.Rels)
	bound := make([]bool, m)
	for r := range dimOf {
		bound[r] = true
	}
	var steps []cascadeStep
	for n := len(dims); n < m; n++ {
		step, ok := nextColocStep(ctx.Query, bound)
		if !ok {
			return nil, nil, fmt.Errorf("core: fstc requires a connected query: %s", ctx.Query)
		}
		steps = append(steps, step)
		bound[step.novel] = true
	}

	// Every stage but the last writes partial assignments; a query whose
	// every relation is in a sequence condition ends at the sequence stage.
	seq := cellJoin{name: "sequence", sp: sp, ops: make([]interval.Op, m)} // all OpProject
	if len(steps) > 0 {
		seq.output = "seq-inter"
	}
	stages := []mr.Stage{{Job: seq.job(ctx)}}
	current := seq.output
	for i, step := range steps {
		d := step.driving
		bs := bindStep{
			name:    "coloc-step-" + strconv.Itoa(step.novel),
			sp:      ctx.union(nil, dimension{part: part, verts: []query.Operand{d.Left, d.Right}}),
			step:    step,
			current: current,
		}
		if i < len(steps)-1 {
			bs.output = "coloc-" + strconv.Itoa(i+1)
		}
		stages = append(stages, mr.Stage{Job: bs.job(ctx)})
		current = bs.output
	}
	return stages, nil, nil
}

// nextColocStep picks the next unbound relation reachable through a
// condition from the bound set: the step's driving condition, plus every
// condition checkable once the relation binds.
func nextColocStep(q *query.Query, bound []bool) (cascadeStep, bool) {
	for _, c := range q.Conds {
		step := cascadeStep{existing: c.Left.Rel, novel: c.Right.Rel, driving: c}
		if bound[step.novel] {
			step.existing, step.novel = step.novel, step.existing
		}
		if !bound[step.existing] || bound[step.novel] {
			continue
		}
		for _, c2 := range q.Conds {
			l2, r2 := c2.Left.Rel, c2.Right.Rel
			if (l2 == step.novel && bound[r2]) || (r2 == step.novel && bound[l2]) {
				step.checkConds = append(step.checkConds, c2)
			}
		}
		return step, true
	}
	return cascadeStep{}, false
}
