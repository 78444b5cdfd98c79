package core

import (
	"fmt"
	"strconv"
	"strings"

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
//     whether it participates in any component sub-query output. The
//     pruned ids are published as a side file (Hadoop would use the
//     distributed cache);
//  3. the All-Seq-Matrix grid join with pruned tuples dropped map-side.
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
	// The marking feeds the prune cycle and is re-read by the join cycle.
	// The prune records never touch the store: a tap fills the id sets the
	// join cycle's map consults, and the prune→join boundary is a barrier
	// (the join does not read the prune output), so the sets are complete
	// before any join map runs.
	pruned := make([]map[int64]bool, len(ctx.Rels))
	env.res.PrunedIntervals = make(map[int]int64)
	join, err := componentJoinJob(ctx, part, env.d, pruned)
	if err != nil {
		return nil, nil, err
	}
	return []mr.Stage{
		{Job: componentMarkJob(ctx, part, env.d), Tap: replicateFlagTap(&env.res.ReplicatedIntervals)},
		{Job: pruneJob(part, env.d), Tap: prunedTap(pruned, env.res.PrunedIntervals)},
		{Job: join},
	}, nil, nil
}

// prunedTap collects the prune records leaving cycle 2 into the
// per-relation id sets the join cycle's map consults (Hadoop would publish
// them through the distributed cache). Malformed records are impossible by
// construction (the tap sees exactly what the prune reducer wrote) and are
// ignored.
func prunedTap(pruned []map[int64]bool, counts map[int]int64) func(string) {
	return func(rec string) {
		comma := strings.IndexByte(rec, ',')
		if comma < 0 {
			return
		}
		rel, err := strconv.Atoi(rec[:comma])
		if err != nil || rel < 0 || rel >= len(pruned) {
			return
		}
		id, err := strconv.ParseInt(rec[comma+1:], 10, 64)
		if err != nil {
			return
		}
		if pruned[rel] == nil {
			pruned[rel] = make(map[int64]bool)
		}
		if !pruned[rel][id] {
			pruned[rel][id] = true
			counts[rel]++
		}
	}
}

// pruneJob builds PASM's cycle 2 over "marked". Key space: component*o +
// partition. Each reducer receives the component's tuples routed exactly as
// RCCIS cycle 2 would route them in one dimension, and decides for every
// tuple whose home partition this is whether it participates in any output
// of the component's colocation sub-query. Non-participating tuples are
// published as "rel,id" prune records.
//
// The decision is exact for unreplicated tuples (all assignments containing
// them are local to their home partition) and conservative (never pruned)
// for replicated ones, which are few by RCCIS's construction. Singleton
// components are skipped entirely: their sub-query output is the relation
// itself, so nothing can be pruned.
func pruneJob(part interval.Partitioning, d *query.Decomposition) mr.Job {
	comp := compOfRel(d)
	o := int64(part.Len())
	multi := make(map[int]bool) // components with >1 vertex
	for ci := range d.Components {
		if len(d.Components[ci].Vertices) > 1 {
			multi[ci] = true
		}
	}
	compRels := make([][]int, len(d.Components))
	compConds := make([][]query.Condition, len(d.Components))
	for ci := range d.Components {
		for _, v := range d.Components[ci].Vertices {
			compRels[ci] = append(compRels[ci], v.Rel)
		}
		compConds[ci] = d.SubQueryConds(ci)
	}

	return mr.Job{
		Name:   "prune",
		Inputs: []mr.Input{{File: "marked"}},
		Map: func(_ int, record string, emit mr.Emitter) error {
			rel, replicate, t, err := decodeFlagged(record)
			if err != nil {
				return err
			}
			ci := comp[rel]
			if !multi[ci] {
				return nil // singleton component: nothing can be pruned
			}
			q := part.Project(t.Key())
			last := q
			if replicate {
				last = int(o) - 1
			}
			// Keys within one component block are contiguous.
			emit.EmitRange(int64(ci)*o+int64(q), int64(ci)*o+int64(last), record)
			return nil
		},
		Reduce: func(key int64, values []string, write func(string) error) error {
			ci := int(key / o)
			p := int(key % o)
			rels := compRels[ci]
			cands := make([][]relation.Tuple, len(rels))
			pos := make(map[int]int, len(rels))
			for i, r := range rels {
				pos[r] = i
			}
			type home struct {
				rel int
				id  int64
			}
			var homes []home
			replicatedHome := make(map[home]bool)
			for _, v := range values {
				rel, replicate, t, err := decodeFlagged(v)
				if err != nil {
					return err
				}
				cands[pos[rel]] = append(cands[pos[rel]], t)
				if part.IndexOf(t.Key().Start) == p {
					h := home{rel: rel, id: t.ID}
					homes = append(homes, h)
					if replicate {
						replicatedHome[h] = true
					}
				}
			}
			surviving := semijoinReduce(compConds[ci], rels, cands)
			kept := make(map[home]bool)
			for i, r := range rels {
				for _, t := range surviving[i] {
					kept[home{rel: r, id: t.ID}] = true
				}
			}
			for _, h := range homes {
				if replicatedHome[h] || kept[h] {
					continue
				}
				if err := write(strconv.Itoa(h.rel) + "," + strconv.FormatInt(h.id, 10)); err != nil {
					return err
				}
			}
			return nil
		},
	}
}
