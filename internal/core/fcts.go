package core

import (
	"fmt"

	"intervaljoin/internal/grid"
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
	dims := componentDims(env.d, part)
	sp, err := ctx.product(dims, soundComponentLess(env.d))
	if err != nil {
		return nil, nil, err
	}
	// Cycle 2 turns "marked" into every component sub-query's output as
	// partial-assignment records: each component joins along its own line,
	// emitting an assignment where its right-most member starts.
	components := cellJoin{name: "component-join", sp: ctx.union(nil, dims...), from: "marked", owner: true, output: "components"}
	return []mr.Stage{
		{Job: ctx.markJob(dims, false), Tap: replicateFlagTap(&env.res.ReplicatedIntervals, nil)},
		{Job: components.job(ctx)},
		{Job: a.sequenceJob(ctx, sp, env.d)},
	}, nil, nil
}

// sequenceJob joins the component outputs, "components", on the sequence
// conditions in the product of the component dimensions (cycle 3). Each
// component record is pinned along its own dimension at the partition of its
// right-most member's start; full assignments therefore form at exactly one
// cell.
func (FCTS) sequenceJob(ctx *Context, sp *space, d *query.Decomposition) mr.Job {
	m, l := len(ctx.Rels), len(sp.dims)
	byRel := allRelations(m) // assignments indexed by relation
	comp := make([]int, m)
	for op, ci := range d.CompOf {
		comp[op.Rel] = ci
	}
	seqConds := make([]query.Condition, 0, len(d.SeqCondIdx))
	for _, i := range d.SeqCondIdx {
		seqConds = append(seqConds, d.Query.Conds[i])
	}

	mapFn := func(_ int, record string, emit mr.Emitter) error {
		pa, err := decodePartial(record)
		if err != nil {
			return err
		}
		asg := make([]relation.Tuple, m)
		for i, r := range pa.rels {
			asg[r] = pa.tuples[i]
		}
		ci := comp[pa.rels[0]]
		q := sp.dims[ci].owner(asg, byRel)
		var room [8]grid.Bound
		bounds := append(room[:0], sp.free...)
		bounds[ci] = grid.Bound{Min: q, Max: q}
		sp.cells.Runs(bounds, func(lo, hi int64) { emit.EmitRange(lo, hi, record) })
		return nil
	}

	join := func(_ int64, values []string, emit func([]int, []relation.Tuple) error) error {
		byComp := make([][]partial, l)
		slab := newPartialSlab(values)
		for _, v := range values {
			pa, err := slab.decode(v)
			if err != nil {
				return err
			}
			ci := comp[pa.rels[0]]
			byComp[ci] = append(byComp[ci], pa)
		}
		// Backtracking across components, checking sequence conditions as
		// soon as both operand components are bound.
		asg := make([]relation.Tuple, m)
		var rec func(ci int) error
		rec = func(ci int) error {
			if ci == l {
				return emit(byRel, asg)
			}
		next:
			for _, pa := range byComp[ci] {
				for i, r := range pa.rels {
					asg[r] = pa.tuples[i]
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

	job := mr.Job{
		Name:   "sequence-join",
		Inputs: []mr.Input{{File: "components"}},
		Map:    mapFn,
	}
	ctx.setJoin(&job, "", join) // the chain's last stage
	return job
}
