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

	// Relations touched by sequence conditions, in first-appearance order.
	var seqRels []int
	seen := make(map[int]bool)
	for _, si := range env.d.SeqCondIdx {
		c := ctx.Query.Conds[si]
		for _, r := range []int{c.Left.Rel, c.Right.Rel} {
			if !seen[r] {
				seen[r] = true
				seqRels = append(seqRels, r)
			}
		}
	}
	if len(seqRels) == 0 {
		return nil, nil, fmt.Errorf("core: fstc: hybrid query without sequence conditions")
	}

	// Phase 1: All-Matrix over the sequence relations, emitting partial
	// assignments. Conditions checked: every query condition whose both
	// endpoints are sequence relations (sequence and colocation alike).
	seqJob, err := a.sequenceJob(ctx, part, seqRels)
	if err != nil {
		return nil, nil, err
	}
	stages := []mr.Stage{{Job: seqJob}}

	// Phase 2: cascade the remaining relations over colocation conditions.
	bound := make([]bool, len(ctx.Rels))
	for _, r := range seqRels {
		bound[r] = true
	}
	current := seqJob.Output
	for step := 1; countBound(bound) < len(ctx.Rels); step++ {
		novel, driving, checks := nextColocStep(ctx.Query, bound)
		if novel < 0 {
			return nil, nil, fmt.Errorf("core: fstc requires a connected query: %s", ctx.Query)
		}
		output := "coloc-" + strconv.Itoa(step)
		last := countBound(bound) == len(ctx.Rels)-1
		stages = append(stages, mr.Stage{Job: a.colocStepJob(ctx, part, current, output, novel, driving, checks, last)})
		bound[novel] = true
		current = output
	}
	return stages, nil, nil
}

// sequenceJob runs the multi-way join over the sequence relations on a
// consistent-cell grid (one dimension per sequence relation), checking all
// conditions local to those relations.
func (FSTC) sequenceJob(ctx *Context, part interval.Partitioning, seqRels []int) (mr.Job, error) {
	dim := make(map[int]int, len(seqRels))
	for i, r := range seqRels {
		dim[r] = i
	}
	o := part.Len()
	g, err := grid.NewUniform(len(seqRels), o)
	if err != nil {
		return mr.Job{}, err
	}
	// Local conditions and order constraints among sequence relations.
	var conds []query.Condition
	var cons []grid.Less
	for _, c := range ctx.Query.Conds {
		di, iok := dim[c.Left.Rel]
		dj, jok := dim[c.Right.Rel]
		if !iok || !jok {
			continue
		}
		conds = append(conds, c)
		if c.Pred.IsSequence() {
			if c.Pred.LessThanOrder() == interval.LeftLess {
				cons = append(cons, grid.Less{A: di, B: dj})
			} else {
				cons = append(cons, grid.Less{A: dj, B: di})
			}
		}
	}
	inputs := make([]mr.Input, len(seqRels))
	for i, r := range seqRels {
		inputs[i] = ctx.relInput(r, r)
	}

	// Shared across reduce calls: the plan is static and per-run state is
	// pooled inside the enumerator. lvl maps a global relation tag to its
	// grid dimension / binding level (-1 for colocation-only relations).
	seqEnum := newEnumerator(conds, seqRels).withTracer(ctx.Engine.Tracer())
	lvl := make([]int, len(ctx.Rels))
	for r := range lvl {
		lvl[r] = -1
	}
	for i, r := range seqRels {
		lvl[r] = i
	}

	return mr.Job{
		Name:   "sequence",
		Inputs: inputs,
		Map: func(tag int, record string, emit mr.Emitter) error {
			t, err := relation.DecodeTuple(record)
			if err != nil {
				return err
			}
			q := part.Project(t.Key())
			bounds := g.FreeBounds()
			bounds[dim[tag]] = grid.Bound{Min: q, Max: q}
			enc := encodeTagged(tag, t)
			g.EnumerateRuns(bounds, cons, func(lo, hi int64) { emit.EmitRange(lo, hi, enc) })
			return nil
		},
		Reduce: func(key int64, values []string, write func(string) error) error {
			return seqEnum.runTagged(values, lvl, func(asg []relation.Tuple) error {
				pa := make(partialAssignment, len(asg))
				for i, t := range asg {
					pa[i] = boundTuple{rel: seqRels[i], tuple: t}
				}
				return write(encodePartial(pa))
			})
		},
		Output: "seq-inter",
	}, nil
}

// nextColocStep picks the next unbound relation reachable through a
// condition from the bound set, returning the driving condition and every
// condition checkable once it binds.
func nextColocStep(q *query.Query, bound []bool) (novel int, driving query.Condition, checks []query.Condition) {
	for _, c := range q.Conds {
		li, ri := c.Left.Rel, c.Right.Rel
		switch {
		case bound[li] && !bound[ri]:
			novel = ri
		case bound[ri] && !bound[li]:
			novel = li
		default:
			continue
		}
		driving = c
		for _, c2 := range q.Conds {
			l2, r2 := c2.Left.Rel, c2.Right.Rel
			if (l2 == novel && bound[r2]) || (r2 == novel && bound[l2]) {
				checks = append(checks, c2)
			}
		}
		return novel, driving, checks
	}
	return -1, query.Condition{}, nil
}

// colocStepJob binds one new relation to the partial assignments via the
// Figure 1 strategy of the driving condition.
func (FSTC) colocStepJob(ctx *Context, part interval.Partitioning,
	current, output string, novel int, driving query.Condition, checks []query.Condition, last bool) mr.Job {

	boundIsLeft := driving.Right.Rel == novel
	strategy := interval.JoinStrategy(driving.Pred)
	boundOp, novelOp := strategy.Left, strategy.Right
	boundRel := driving.Left.Rel
	if !boundIsLeft {
		boundOp, novelOp = novelOp, boundOp
		boundRel = driving.Right.Rel
	}

	step := cascadeStep{existing: boundRel, novel: novel, driving: driving, checkConds: checks}
	return mr.Job{
		Name: "coloc-step-" + strconv.Itoa(novel),
		Inputs: []mr.Input{
			{File: current, Tag: intermediateTag},
			ctx.relInput(novel, novel),
		},
		Map: func(tag int, record string, emit mr.Emitter) error {
			if tag == intermediateTag {
				pa, err := decodePartial(record)
				if err != nil {
					return err
				}
				first, lastP := part.Apply(boundOp, pa.intervalOf(boundRel))
				emit.EmitRange(int64(first), int64(lastP), record)
				return nil
			}
			t, err := relation.DecodeTuple(record)
			if err != nil {
				return err
			}
			first, lastP := part.Apply(novelOp, t.Key())
			emit.EmitRange(int64(first), int64(lastP), encodePartial(partialAssignment{{rel: novel, tuple: t}}))
			return nil
		},
		Reduce: func(key int64, values []string, write func(string) error) error {
			var partials []partialAssignment
			var tuples []relation.Tuple
			for _, v := range values {
				pa, err := decodePartial(v)
				if err != nil {
					return err
				}
				if len(pa) == 1 && pa[0].rel == novel {
					tuples = append(tuples, pa[0].tuple)
					continue
				}
				partials = append(partials, pa)
			}
			for _, pa := range partials {
				for _, t := range tuples {
					if !satisfiesStep(pa, t, step) {
						continue
					}
					merged := append(append(partialAssignment{}, pa...), boundTuple{rel: novel, tuple: t})
					var rec string
					if last {
						out := make(OutputTuple, len(ctx.Rels))
						for i := range out {
							out[i] = -1
						}
						for _, bt := range merged {
							out[bt.rel] = bt.tuple.ID
						}
						rec = out.Key()
					} else {
						rec = encodePartial(merged)
					}
					if err := write(rec); err != nil {
						return err
					}
				}
			}
			return nil
		},
		Output: output,
	}
}
