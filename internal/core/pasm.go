package core

import (
	"encoding/binary"
	"fmt"

	"intervaljoin/internal/mr"
	"intervaljoin/internal/query"
	"intervaljoin/internal/relation"
)

// PASM is Pruned-All-Seq-Matrix (Section 8.2): All-Seq-Matrix extended with
// a pruning cycle. A tuple that does not appear in the output of its
// colocation component's sub-query cannot appear in the hybrid query's
// output, so it need not be routed into the grid at all.
//
// Three MR cycles:
//
//  1. the RCCIS marking per component (same as All-Seq-Matrix cycle 1);
//  2. per component and partition, replicate/project the component's base
//     tuples as the marking says, in one dimension, and decide, for every
//     tuple at its home partition, whether it participates in any component
//     sub-query output;
//  3. the All-Seq-Matrix grid join over the base relations, with pruned
//     tuples dropped map-side.
//
// Cycles 1 and 2 map only components of two or more vertices (multiVertex):
// on a query with none, a sequence query, neither runs, and PASM is
// All-Matrix's one cycle.
//
// Each cycle needs what the earlier ones decided, complete. The decisions
// reach the later cycles as id sets that taps fill while the cycles run —
// the marking every mark cycle fills, and the pruned ids — and Hadoop would
// publish both through the distributed cache, so both boundaries are
// barriers and the run writes nothing to the store.
//
// When pruning removes little, the extra cycle makes PASM slightly slower
// than All-Seq-Matrix — exactly the trade-off Table 3 explores.
type PASM struct{}

// Name implements Algorithm.
func (PASM) Name() string { return "pasm" }

// Run implements Algorithm.
func (a PASM) Run(ctx *Context) (*Result, error) {
	if cls := ctx.Query.Classify(); cls == query.General {
		return nil, fmt.Errorf("core: pasm handles single-attribute queries, got %v", cls)
	}
	return ctx.runStages(a.Name(), a.stages)
}

func (PASM) stages(ctx *Context, env *chainEnv) ([]mr.Stage, *execPlan, error) {
	part, _, err := ctx.boundaries(env.opts.PartitionsPerDim)
	if err != nil {
		return nil, nil, err
	}
	dims := componentDims(env.d, part)
	sp, err := ctx.product(dims, soundComponentLess(env.d))
	if err != nil {
		return nil, nil, err
	}
	marked := ctx.newMarking()
	pruned := make([]map[int64]bool, len(ctx.Rels))
	env.res.PrunedIntervals = make(map[int]int64)
	join := cellJoin{name: "join", sp: sp, marked: marked, pruned: pruned, owner: true}
	return []mr.Stage{
		ctx.markStage(dims, marked, &env.res.ReplicatedIntervals),
		{Job: ctx.pruneJob(dims, marked), Tap: prunedTap(pruned, env.res.PrunedIntervals)},
		{Job: join.job(ctx)},
	}, nil, nil
}

// prunedTap collects the prune records leaving cycle 2 into the
// per-relation id sets the join cycle's map consults (Hadoop would publish
// them through the distributed cache). Malformed records are impossible by
// construction (the tap sees exactly what the prune reducer wrote) and are
// ignored.
func prunedTap(pruned []map[int64]bool, counts map[int]int64) func(string) {
	return func(rec string) {
		if len(rec) != 1+8 || int(rec[0]) >= len(pruned) { // [rel][id]
			return
		}
		rel, id := int(rec[0]), relation.BinaryID(rec[1:])
		if pruned[rel] == nil {
			pruned[rel] = make(map[int64]bool)
		}
		if !pruned[rel][id] {
			pruned[rel][id] = true
			counts[rel]++
		}
	}
}

// pruneJob builds PASM's cycle 2 after the marking marked. Each reducer
// receives a component's base tuples routed along the component's line
// exactly as RCCIS cycle 2 would route them (markedMap), and decides for
// every tuple whose home partition this is whether it participates in any
// output of the component's colocation sub-query. Non-participating tuples
// are published as prune records: the relation byte and the id.
//
// The decision is exact for unreplicated tuples (all assignments containing
// them are local to their home partition) and conservative (never pruned)
// for replicated ones, which are few by RCCIS's construction. Singleton
// components are skipped entirely (multiVertex): their sub-query output is
// the relation itself and nothing can be pruned.
func (c *Context) pruneJob(dims []dimension, marked marking) mr.Job {
	sp, conds := c.multiVertex(dims)
	return mr.Job{
		Name:   "prune",
		Inputs: c.baseInputs(sp),
		MapAt:  c.markedMap(sp, marked, nil),
		Reduce: func(key int64, values []string, write func(string) error) error {
			k, coord := sp.locate(key)
			d, p := sp.dims[k], coord[0]
			byRel, err := c.candidates(values)
			if err != nil {
				return err
			}
			rels, cands := make([]int, len(d.verts)), make([][]relation.Tuple, len(d.verts))
			for i, v := range d.verts {
				rels[i], cands[i] = v.Rel, byRel[v.Rel]
			}
			surviving := semijoinReduce(conds[k], rels, cands)
			var out recordSlab
			for i, v := range d.verts {
				kept := make(map[int64]bool, len(surviving[i]))
				for _, t := range surviving[i] {
					kept[t.ID] = true
				}
				for _, t := range cands[i] {
					// Only a home tuple is decided here, and one the marking
					// replicates is never pruned.
					if kept[t.ID] || d.part.IndexOf(t.Attrs[v.Attr].Start) != p || marked[v.Rel][v.Attr][t.ID] {
						continue
					}
					var buf [1 + 8]byte
					out.room(len(buf))
					out.put(binary.LittleEndian.AppendUint64(append(buf[:0], byte(v.Rel)), uint64(t.ID)))
					if err := write(out.cut()); err != nil {
						return err
					}
				}
			}
			return nil
		},
	}
}
