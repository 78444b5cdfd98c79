package core

import (
	"encoding/binary"
	"fmt"
	"slices"

	"intervaljoin/internal/interval"
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
//  2. per component and partition, replicate/project the flagged tuples in
//     one dimension and decide, for every tuple at its home partition,
//     whether it participates in any component sub-query output;
//  3. the All-Seq-Matrix grid join over the base relations, with pruned
//     tuples dropped map-side.
//
// The join cycle needs what both earlier cycles decided, and the prune
// cycle's decisions are complete only once it has finished. Both reach it as
// id sets that taps fill while the cycles run — the marking is the one
// Gen-Matrix's join reads, with one vertex a relation, and Hadoop would
// publish both through the distributed cache — so the prune→join boundary is
// a barrier and the run writes nothing to the store.
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
	// The marking streams into the prune cycle; the prune records never
	// leave their tap. The join does not read the prune output, so the
	// prune→join boundary is a barrier and the marking and the pruned ids
	// are complete before any join map runs.
	marked := newMarking(sp)
	pruned := make([]map[int64]bool, len(ctx.Rels))
	env.res.PrunedIntervals = make(map[int]int64)
	join := cellJoin{name: "join", sp: sp, marked: marked, pruned: pruned, owner: true}
	return []mr.Stage{
		{Job: ctx.markJob(dims, false), Tap: replicateFlagTap(&env.res.ReplicatedIntervals, marked)},
		{Job: ctx.pruneJob(dims), Tap: prunedTap(pruned, env.res.PrunedIntervals)},
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

// pruneJob builds PASM's cycle 2 over "marked". Each reducer receives a
// component's tuples routed along the component's line exactly as RCCIS
// cycle 2 would route them, and decides for every tuple whose home partition
// this is whether it participates in any output of the component's
// colocation sub-query. Non-participating tuples are published as prune
// records: the relation byte and the id.
//
// The decision is exact for unreplicated tuples (all assignments containing
// them are local to their home partition) and conservative (never pruned)
// for replicated ones, which are few by RCCIS's construction. Singleton
// components are skipped entirely — their vertices are left out of the
// space, so their tuples are routed nowhere: their sub-query output is the
// relation itself and nothing can be pruned.
func (c *Context) pruneJob(dims []dimension) mr.Job {
	multi := slices.Clone(dims)
	conds := make([][]query.Condition, len(dims))
	for k, d := range dims {
		conds[k] = condsWithin(c.Query, d.verts)
		if len(d.verts) < 2 {
			multi[k].verts = nil
		}
	}
	sp := c.union(nil, multi...)

	return mr.Job{
		Name:   "prune",
		Inputs: []mr.Input{{File: "marked"}},
		// The reducer needs the replicate flags, so the flagged records
		// travel as they are.
		Map: sp.flaggedMap(true),
		Reduce: func(key int64, values []string, write func(string) error) error {
			k, coord := sp.locate(key)
			d, p := multi[k], coord[0]
			rels := make([]int, len(d.verts))
			pos := make(map[int]int, len(rels))
			for i, v := range d.verts {
				rels[i], pos[v.Rel] = v.Rel, i
			}
			cands := make([][]relation.Tuple, len(rels))
			type home struct {
				rel int
				id  int64
			}
			var homes []home
			replicatedHome := make(map[home]bool)
			// One slab holds every value's intervals, as many as their
			// headers say.
			attrs := 0
			for _, v := range values {
				if len(v) >= headerLen {
					attrs += int(v[1])
				}
			}
			slab := make([]interval.Interval, 0, attrs)
			for _, v := range values {
				rel, member, replicate, err := splitMarked(v)
				if err != nil {
					return err
				}
				at := len(slab)
				var id int64
				if id, slab, err = relation.DecodeBinary(member[headerLen:], slab); err != nil {
					return err
				}
				t := relation.Tuple{ID: id, Attrs: slab[at:len(slab):len(slab)]}
				i := pos[rel]
				cands[i] = append(cands[i], t)
				if d.part.IndexOf(t.Attrs[d.verts[i].Attr].Start) == p {
					h := home{rel: rel, id: t.ID}
					homes = append(homes, h)
					if replicate {
						replicatedHome[h] = true
					}
				}
			}
			surviving := semijoinReduce(conds[k], rels, cands)
			kept := make(map[home]bool)
			for i, r := range rels {
				for _, t := range surviving[i] {
					kept[home{rel: r, id: t.ID}] = true
				}
			}
			out := recordSlab{hint: len(homes) * (1 + 8)}
			for _, h := range homes {
				if replicatedHome[h] || kept[h] {
					continue
				}
				var buf [1 + 8]byte
				out.room(len(buf))
				out.put(binary.LittleEndian.AppendUint64(append(buf[:0], byte(h.rel)), uint64(h.id)))
				if err := write(out.cut()); err != nil {
					return err
				}
			}
			return nil
		},
	}
}
