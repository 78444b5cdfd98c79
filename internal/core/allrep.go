package core

import (
	"fmt"

	"intervaljoin/internal/interval"
	"intervaljoin/internal/mr"
	"intervaljoin/internal/query"
	"intervaljoin/internal/relation"
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
	part := plan.part

	// Replication is decided per relation, not per record, so the statistic
	// is known before the cycle runs.
	for ri, r := range ctx.Rels {
		if ri != projectRel {
			env.res.ReplicatedIntervals += int64(r.Len())
		}
	}

	join := mr.Job{
		Name:   "join",
		Inputs: ctx.relInputs(),
		Map: func(tag int, record string, emit mr.Emitter) error {
			t, err := relation.DecodeTuple(record)
			if err != nil {
				return err
			}
			op := interval.OpReplicate
			if tag == projectRel {
				op = interval.OpProject
			}
			first, last := part.Apply(op, t.Key())
			// Destination partitions are contiguous, so one range record
			// stands in for the per-partition broadcast (split partitions
			// expand to the record's cell-cover rows, still run-coalesced).
			plan.emitRange(emit, first, last, tag, encodeTagged(tag, t))
			return nil
		},
		Resplit: resplitValues(m, streamOfTagged),
		Reduce:  reduceJoinAtPartition(ctx, plan),
	}
	return []mr.Stage{{Job: join}}, plan, nil
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

// reduceJoinAtPartition returns the reduce function shared by All-Rep and
// RCCIS cycle 2: group the received tagged tuples by relation, enumerate
// satisfying assignments, and emit exactly those whose right-most interval
// (maximal start point) lies in this reducer's partition — the paper's
// "computing output tuple" rule, which guarantees exactly-once output.
// Under a virtual-split plan several reduce keys share one partition; the
// cell cover guarantees each assignment materialises at exactly one of
// them, and the filter tests the partition the key belongs to.
func reduceJoinAtPartition(ctx *Context, plan *execPlan) mr.ReduceFunc {
	m := len(ctx.Rels)
	part := plan.part
	// One shared enumerator: the query plan is static across reduce calls
	// and the enumerator is safe for concurrent use (all per-run state
	// lives in pooled preparedJoins).
	e := newEnumerator(ctx.Query.Conds, allRelations(m)).withTracer(ctx.Engine.Tracer())
	lvl := identityLevels(m)
	return func(key int64, values []string, write func(string) error) error {
		p := plan.partitionOf(key)
		return e.runTagged(values, lvl, func(asg []relation.Tuple) error {
			maxStart := asg[0].Key().Start
			for _, t := range asg[1:] {
				if s := t.Key().Start; s > maxStart {
					maxStart = s
				}
			}
			if part.IndexOf(maxStart) != p {
				return nil
			}
			out := make(OutputTuple, len(asg))
			for i, t := range asg {
				out[i] = t.ID
			}
			return write(out.Key())
		})
	}
}
