package core

import (
	"fmt"

	"intervaljoin/internal/grid"
	"intervaljoin/internal/interval"
	"intervaljoin/internal/mr"
	"intervaljoin/internal/query"
	"intervaljoin/internal/relation"
)

// FCTS — First Colocation Then Sequence — is the hybrid baseline of
// Section 8: every colocation component's sub-query is computed first (via
// RCCIS), materialising the component outputs as intermediate relations of
// partial assignments; a final matrix cycle then joins the component outputs
// on the sequence conditions. Like 2-way Cascade it pays for reading and
// shuffling large intermediate results, which is what All-Seq-Matrix
// removes. (FSTC, the mirror-image baseline, is in fstc.go.)
//
// Three MR cycles: component RCCIS marking; component joins (all components
// in one job, keyed by component x partition); sequence grid join over the
// materialised component outputs.
type FCTS struct{}

// Name implements Algorithm.
func (FCTS) Name() string { return "fcts" }

// Run implements Algorithm.
func (a FCTS) Run(ctx *Context) (*Result, error) {
	if cls := ctx.Query.Classify(); cls == query.General {
		return nil, fmt.Errorf("core: fcts handles single-attribute queries, got %v", cls)
	}
	return ctx.runStages(a.Name(), a.stages)
}

func (a FCTS) stages(ctx *Context, env *chainEnv) ([]mr.Stage, *execPlan, error) {
	part, _, err := ctx.boundaries(env.opts.PartitionsPerDim)
	if err != nil {
		return nil, nil, err
	}
	seq, err := a.sequenceJob(ctx, part, env.d)
	if err != nil {
		return nil, nil, err
	}
	return []mr.Stage{
		{Job: componentMarkJob(ctx, part, env.d), Tap: replicateFlagTap(&env.res.ReplicatedIntervals)},
		{Job: a.componentOutputJob(ctx, part, env.d)},
		{Job: seq},
	}, nil, nil
}

// componentOutputJob turns "marked" into every component sub-query's output
// as partial-assignment records, "components" (cycle 2). Keys are component*o + partition;
// each reducer enumerates the component's satisfying assignments among the
// tuples routed to it and emits those whose right-most member starts here.
func (FCTS) componentOutputJob(ctx *Context, part interval.Partitioning, d *query.Decomposition) mr.Job {
	comp := compOfRel(d)
	o := int64(part.Len())
	compRels := make([][]int, len(d.Components))
	compConds := make([][]query.Condition, len(d.Components))
	for ci := range d.Components {
		for _, v := range d.Components[ci].Vertices {
			compRels[ci] = append(compRels[ci], v.Rel)
		}
		compConds[ci] = d.SubQueryConds(ci)
	}
	// One shared enumerator per component: plans are static and per-run
	// state is pooled inside each enumerator. lvls[ci] maps a global
	// relation tag to its binding level within component ci's enumerator
	// (-1 for relations of other components).
	enums := make([]*enumerator, len(d.Components))
	lvls := make([][]int, len(d.Components))
	for ci := range d.Components {
		enums[ci] = newEnumerator(compConds[ci], compRels[ci]).withTracer(ctx.Engine.Tracer())
		lvls[ci] = make([]int, len(ctx.Rels))
		for r := range lvls[ci] {
			lvls[ci][r] = -1
		}
		for i, r := range compRels[ci] {
			lvls[ci][r] = i
		}
	}

	return mr.Job{
		Name:   "component-join",
		Inputs: []mr.Input{{File: "marked"}},
		Map: func(_ int, record string, emit mr.Emitter) error {
			rel, replicate, t, err := decodeFlagged(record)
			if err != nil {
				return err
			}
			ci := comp[rel]
			q := part.Project(t.Key())
			last := q
			if replicate {
				last = int(o) - 1
			}
			// Keys within one component block are contiguous.
			emit.EmitRange(int64(ci)*o+int64(q), int64(ci)*o+int64(last), encodeTagged(rel, t))
			return nil
		},
		Reduce: func(key int64, values []string, write func(string) error) error {
			ci := int(key / o)
			p := int(key % o)
			rels := compRels[ci]
			return enums[ci].runTagged(values, lvls[ci], func(asg []relation.Tuple) error {
				maxStart := asg[0].Key().Start
				for _, t := range asg[1:] {
					if s := t.Key().Start; s > maxStart {
						maxStart = s
					}
				}
				if part.IndexOf(maxStart) != p {
					return nil
				}
				pa := make(partialAssignment, len(asg))
				for i, t := range asg {
					pa[i] = boundTuple{rel: rels[i], tuple: t}
				}
				return write(encodePartial(pa))
			})
		},
		Output: "components",
	}
}

// sequenceJob joins the component outputs, "components", on the sequence
// conditions in an l-dimensional consistent-cell grid (cycle 3). Each
// component record is pinned along its own dimension at the partition of its
// right-most member's start; full assignments therefore form at exactly one
// cell.
func (FCTS) sequenceJob(ctx *Context, part interval.Partitioning, d *query.Decomposition) (mr.Job, error) {
	comp := compOfRel(d)
	l := d.NumComponents()
	g, err := grid.NewUniform(l, part.Len())
	if err != nil {
		return mr.Job{}, err
	}
	cons := soundComponentLess(d)
	m := len(ctx.Rels)
	seqConds := make([]query.Condition, 0, len(d.SeqCondIdx))
	for _, i := range d.SeqCondIdx {
		seqConds = append(seqConds, d.Query.Conds[i])
	}

	mapFn := func(_ int, record string, emit mr.Emitter) error {
		pa, err := decodePartial(record)
		if err != nil {
			return err
		}
		ci := comp[pa[0].rel]
		maxStart := pa[0].tuple.Key().Start
		for _, bt := range pa[1:] {
			if s := bt.tuple.Key().Start; s > maxStart {
				maxStart = s
			}
		}
		q := part.IndexOf(maxStart)
		bounds := g.FreeBounds()
		bounds[ci] = grid.Bound{Min: q, Max: q}
		g.EnumerateRuns(bounds, cons, func(lo, hi int64) { emit.EmitRange(lo, hi, record) })
		return nil
	}

	reduceFn := func(key int64, values []string, write func(string) error) error {
		byComp := make([][]partialAssignment, l)
		for _, v := range values {
			pa, err := decodePartial(v)
			if err != nil {
				return err
			}
			ci := comp[pa[0].rel]
			byComp[ci] = append(byComp[ci], pa)
		}
		// Backtracking across components, checking sequence conditions as
		// soon as both operand components are bound.
		asg := make([]relation.Tuple, m)
		var rec func(ci int) error
		rec = func(ci int) error {
			if ci == l {
				out := make(OutputTuple, m)
				for i, t := range asg {
					out[i] = t.ID
				}
				return write(out.Key())
			}
		next:
			for _, pa := range byComp[ci] {
				for _, bt := range pa {
					asg[bt.rel] = bt.tuple
				}
				for _, c := range seqConds {
					lc, rc := comp[c.Left.Rel], comp[c.Right.Rel]
					if lc > ci || rc > ci {
						continue
					}
					if !c.Pred.Eval(asg[c.Left.Rel].Attrs[c.Left.Attr], asg[c.Right.Rel].Attrs[c.Right.Attr]) {
						continue next
					}
				}
				if err := rec(ci + 1); err != nil {
					return err
				}
			}
			return nil
		}
		return rec(0)
	}

	return mr.Job{
		Name:   "sequence-join",
		Inputs: []mr.Input{{File: "components"}},
		Map:    mapFn,
		Reduce: reduceFn,
	}, nil
}
