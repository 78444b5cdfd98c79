package core

import (
	"fmt"

	"intervaljoin/internal/interval"
	"intervaljoin/internal/mr"
	"intervaljoin/internal/query"
	"intervaljoin/internal/relation"
)

// RCCIS — Replicate Consistent And Crossing Interval Sets (Section 6.1) —
// computes a multi-way colocation join in two MR cycles.
//
// Cycle 1 splits every relation over the partitioning; each reducer p then
// decides which of the intervals starting in p must be replicated: exactly
// those that belong to some interval-set that is (C1) consistent and (C2)
// crosses p. Every interval is written out exactly once (by its start
// partition's reducer) with a replicate flag.
//
// Cycle 2 replicates the flagged intervals, projects the rest, and joins at
// each reducer, emitting an output tuple at the partition in which its
// right-most interval starts.
type RCCIS struct{}

// Name implements Algorithm.
func (RCCIS) Name() string { return "rccis" }

// Run implements Algorithm.
func (r RCCIS) Run(ctx *Context) (*Result, error) {
	if cls := ctx.Query.Classify(); cls != query.Colocation {
		return nil, fmt.Errorf("core: rccis handles colocation queries, got %v", cls)
	}
	return ctx.runStages(r.Name(), r.stages)
}

func (r RCCIS) stages(ctx *Context, env *chainEnv) ([]mr.Stage, *execPlan, error) {
	m := len(ctx.Rels)
	// The join cycle takes the skew-adaptive plan (one stream per relation);
	// both cycles run over its one dimension, which holds every relation.
	plan, err := ctx.makePlan(r.Name(), env.opts.Partitions, m)
	if err != nil {
		return nil, nil, err
	}
	dim := dimension{part: plan.part, verts: firstAttrs(allRelations(m))}
	join := cellJoin{name: "join", sp: ctx.union(plan, dim), from: "marked", owner: true}
	return []mr.Stage{
		{Job: ctx.markJob([]dimension{dim}, false), Tap: replicateFlagTap(&env.res.ReplicatedIntervals)},
		{Job: join.job(ctx)},
	}, plan, nil
}

func allRelations(m int) []int {
	rels := make([]int, m)
	for i := range rels {
		rels[i] = i
	}
	return rels
}

// firstAttrs returns the join-graph vertices of the given relations in a
// single-attribute query: every relation's interval is its attribute 0.
func firstAttrs(rels []int) []query.Operand {
	verts := make([]query.Operand, len(rels))
	for i, r := range rels {
		verts[i] = query.Operand{Rel: r}
	}
	return verts
}

// markCrossingParticipants returns, per relation, the ids of the tuples at
// partition p that belong to at least one consistent interval-set crossing p
// (conditions C1 and C2 of RCCIS). verts names each relation's join interval;
// cands holds the tuples split onto p, by relation. It enumerates every
// proper non-empty subset S of the relation set; for each it applies the
// unary boundary filters B1/B2 derived from the conditions between S and its
// complement, then keeps the tuples participating in a satisfying assignment
// over S via a semi-join fixpoint (exact for the acyclic condition graphs of
// the paper's queries, a safe superset otherwise).
func markCrossingParticipants(conds []query.Condition, part interval.Partitioning, p int,
	verts []query.Operand, cands map[int][]relation.Tuple) map[int]map[int64]bool {

	marked := make(map[int]map[int64]bool, len(verts))
	for _, v := range verts {
		marked[v.Rel] = make(map[int64]bool)
	}
	m := len(verts)
	inS := make(map[int]bool, m)
	// Iterate proper non-empty subsets of rels via bitmasks. An output
	// tuple (S = full set) is not a crossing set — its computation needs
	// no replication — so the full mask is excluded.
	for mask := 1; mask < (1<<m)-1; mask++ {
		var sub []query.Operand
		for i, v := range verts {
			inS[v.Rel] = mask&(1<<i) != 0
			if inS[v.Rel] {
				sub = append(sub, v)
			}
		}
		// Derive per-relation boundary requirements from conditions with
		// exactly one endpoint in S.
		needRight := make(map[int]bool)
		needLeft := make(map[int]bool)
		subConds := conds[:0:0]
		for _, c := range conds {
			lIn, rIn := inS[c.Left.Rel], inS[c.Right.Rel]
			switch {
			case lIn && rIn:
				subConds = append(subConds, c)
			case lIn || rIn:
				inside := c.Left
				if rIn {
					inside = c.Right
				}
				// Determine whether the inside relation is the lesser or
				// the greater operand of the condition.
				insideIsLeft := inside == c.Left
				lesserIsLeft := c.Pred.LessThanOrder() == interval.LeftLess
				if insideIsLeft == lesserIsLeft {
					// Inside relation is in less-than order with the
					// outside one: B1, cross the right boundary.
					needRight[inside.Rel] = true
				} else {
					// Outside relation is lesser: B2, cross the left
					// boundary.
					needLeft[inside.Rel] = true
				}
			}
			// A subset with no condition leaving it crosses p vacuously;
			// only the full relation set is excluded (an output tuple is
			// not a crossing set).
		}
		// Unary filters, then participation.
		filtered := make([][]relation.Tuple, len(sub))
		empty := false
		subRels := make([]int, len(sub))
		for i, v := range sub {
			subRels[i] = v.Rel
			var keep []relation.Tuple
			for _, t := range cands[v.Rel] {
				iv := t.Attrs[v.Attr]
				if needRight[v.Rel] && !part.CrossesRight(iv, p) {
					continue
				}
				if needLeft[v.Rel] && !part.CrossesLeft(iv, p) {
					continue
				}
				keep = append(keep, t)
			}
			if len(keep) == 0 {
				empty = true
				break
			}
			filtered[i] = keep
		}
		if empty {
			continue
		}
		surviving := semijoinReduce(subConds, subRels, filtered)
		for i, r := range subRels {
			for _, t := range surviving[i] {
				marked[r][t.ID] = true
			}
		}
	}
	return marked
}
