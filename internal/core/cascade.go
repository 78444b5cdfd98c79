package core

import (
	"fmt"
	"strconv"
	"strings"

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

// intermediateTag marks records of the partial-assignment input in cascade
// map functions.
const intermediateTag = -1

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

	// Each step's partial-assignment input is the previous step's output.
	stages := make([]mr.Stage, len(steps))
	current := "" // intermediate file of partial assignments
	bound := []int{steps[0].existing}
	for si, step := range steps {
		output := "inter-" + strconv.Itoa(si)
		stages[si].Job = c.stepJob(ctx, plan, gridPart, "step-"+strconv.Itoa(si), output,
			current, bound, step, si == len(steps)-1)
		bound = append(bound, step.novel)
		current = output
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

// stepJob builds the MR job for one cascade step. For the first step the
// partial-assignment input is the existing relation itself.
func (c Cascade) stepJob(ctx *Context, plan *execPlan, gridPart interval.Partitioning,
	name, output, current string, bound []int, step cascadeStep, last bool) mr.Job {

	part := plan.part

	// Which operand of the driving condition is the bound side?
	boundIsLeft := step.driving.Left.Rel == step.existing
	matrix := c.MatrixSteps && step.driving.Pred.IsSequence()

	var inputs []mr.Input
	if current == "" {
		inputs = append(inputs, ctx.relInput(step.existing, intermediateTag))
	} else {
		inputs = append(inputs, mr.Input{File: current, Tag: intermediateTag})
	}
	inputs = append(inputs, ctx.relInput(step.novel, step.novel))

	firstStep := current == ""
	strategy := interval.JoinStrategy(step.driving.Pred)
	boundOp, novelOp := strategy.Left, strategy.Right
	if !boundIsLeft {
		boundOp, novelOp = novelOp, boundOp
	}

	// The 2-D matrix variant projects both sides into a consistent-cell
	// grid instead (Section 7.2 configuration for the cascade baseline).
	g, err := grid.New([]int{gridPart.Len(), gridPart.Len()})
	if err != nil {
		// A partitioner always has at least one bucket per dimension, so a
		// grid over two copies of it can only fail on a planner bug.
		panic("core: cascade grid construction failed: " + err.Error())
	}
	// Dimension 0 carries the lesser operand of the driving condition.
	boundLesser := (step.driving.Pred.LessThanOrder() == interval.LeftLess) == boundIsLeft
	cons := []grid.Less{{A: 0, B: 1}}

	emitMatrix := func(q int, dimIsLesser bool, enc string, emit mr.Emitter) {
		dim := 0
		if !dimIsLesser {
			dim = 1
		}
		bounds := g.FreeBounds()
		bounds[dim] = grid.Bound{Min: q, Max: q}
		g.EnumerateRuns(bounds, cons, func(lo, hi int64) { emit.EmitRange(lo, hi, enc) })
	}

	mapFn := func(tag int, record string, emit mr.Emitter) error {
		if tag == intermediateTag {
			var pa partialAssignment
			var err error
			if firstStep {
				var t relation.Tuple
				t, err = relation.DecodeTuple(record)
				pa = partialAssignment{{rel: step.existing, tuple: t}}
			} else {
				pa, err = decodePartial(record)
			}
			if err != nil {
				return err
			}
			iv := pa.intervalOf(step.existing)
			enc := encodePartial(pa)
			if matrix {
				emitMatrix(gridPart.Project(iv), boundLesser, enc, emit)
				return nil
			}
			first, lastP := part.Apply(boundOp, iv)
			plan.emitRange(emit, first, lastP, 0, enc)
			return nil
		}
		t, err := relation.DecodeTuple(record)
		if err != nil {
			return err
		}
		enc := encodePartial(partialAssignment{{rel: step.novel, tuple: t}})
		if matrix {
			emitMatrix(gridPart.Project(t.Key()), !boundLesser, enc, emit)
			return nil
		}
		first, lastP := part.Apply(novelOp, t.Key())
		plan.emitRange(emit, first, lastP, 1, enc)
		return nil
	}

	reduceFn := func(key int64, values []string, write func(string) error) error {
		var partials []partialAssignment
		var tuples []relation.Tuple
		for _, v := range values {
			pa, err := decodePartial(v)
			if err != nil {
				return err
			}
			if len(pa) == 1 && pa[0].rel == step.novel && step.novel != step.existing {
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
				merged := append(append(partialAssignment{}, pa...), boundTuple{rel: step.novel, tuple: t})
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
	}

	job := mr.Job{
		Name:   name,
		Inputs: inputs,
		Map:    mapFn,
		Reduce: reduceFn,
		Output: output,
	}
	if !matrix {
		// The key-independent pair loop decomposes cleanly; matrix steps
		// already spread load over the 2-D grid.
		job.Resplit = resplitValues(2, cascadeStreams(step.novel, step.existing))
	}
	return job
}

// satisfiesStep checks every condition between the novel tuple and the
// partial assignment.
func satisfiesStep(pa partialAssignment, t relation.Tuple, step cascadeStep) bool {
	for _, c := range step.checkConds {
		var u, v interval.Interval
		if c.Left.Rel == step.novel {
			u = t.Attrs[c.Left.Attr]
			v = pa.mustIntervalOf(c.Right.Rel, c.Right.Attr)
		} else {
			u = pa.mustIntervalOf(c.Left.Rel, c.Left.Attr)
			v = t.Attrs[c.Right.Attr]
		}
		if !c.Pred.Eval(u, v) {
			return false
		}
	}
	return true
}

// boundTuple is one bound relation of a partial assignment.
type boundTuple struct {
	rel   int
	tuple relation.Tuple
}

// partialAssignment is the cascade's intermediate record: the tuples bound
// so far.
type partialAssignment []boundTuple

func (pa partialAssignment) intervalOf(rel int) interval.Interval {
	return pa.mustIntervalOf(rel, 0)
}

func (pa partialAssignment) mustIntervalOf(rel, attr int) interval.Interval {
	for _, bt := range pa {
		if bt.rel == rel {
			return bt.tuple.Attrs[attr]
		}
	}
	//lint:ignore hotpathban cold path: formats a panic message for a planner bug, never reached per tuple
	panic(fmt.Sprintf("core: relation %d not bound in partial assignment", rel))
}

// encodePartial joins the tagged tuples with '#'.
func encodePartial(pa partialAssignment) string {
	parts := make([]string, len(pa))
	for i, bt := range pa {
		parts[i] = encodeTagged(bt.rel, bt.tuple)
	}
	return strings.Join(parts, "#")
}

// decodePartial parses encodePartial's output.
func decodePartial(s string) (partialAssignment, error) {
	parts := strings.Split(s, "#")
	pa := make(partialAssignment, len(parts))
	for i, p := range parts {
		rel, t, err := decodeTagged(p)
		if err != nil {
			return nil, err
		}
		pa[i] = boundTuple{rel: rel, tuple: t}
	}
	return pa, nil
}
