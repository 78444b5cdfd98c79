package core

import (
	"fmt"

	"intervaljoin/internal/interval"
	"intervaljoin/internal/mr"
	"intervaljoin/internal/obs"
	"intervaljoin/internal/query"
	"intervaljoin/internal/relation"
)

// RCCIS — Replicate Consistent And Crossing Interval Sets (Section 6.1) —
// computes a multi-way colocation join in two MR cycles.
//
// Cycle 1 splits every relation over the partitioning; each reducer p then
// decides which of the intervals starting in p must be replicated: exactly
// those that belong to some interval-set that is (C1) consistent and (C2)
// crosses p. It writes one vertex flag for each of them and nothing for the
// rest, and the flags reach cycle 2 through the cycle's tap as id sets
// (marking) — Hadoop would publish them through the distributed cache — so
// the boundary between the cycles is a barrier.
//
// Cycle 2 maps the base relations, replicates the flagged intervals,
// projects the rest, and joins at each reducer, emitting an output tuple at
// the partition in which its right-most interval starts.
//
// The RCCIS that Plan returns runs cycle 2 alone, over every tuple split a
// bounded reach past its end, when the intervals are short against the
// partitions (reachJoin); the named one always marks.
type RCCIS struct {
	// planned lets the run skip the marking when the longest interval bounds
	// how far a row can reach (reachJoin); only Plan sets it.
	planned bool
}

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
	sp := ctx.union(plan, dim)
	if r.planned {
		if join, reach, ok := ctx.reachJoin(sp); ok {
			plan.reach = []obs.Reach{reach}
			return []mr.Stage{{Job: join.job(ctx)}}, plan, nil
		}
	}
	marked := ctx.newMarking()
	join := cellJoin{name: "join", sp: sp, marked: marked, owner: true}
	return []mr.Stage{
		ctx.markStage([]dimension{dim}, marked, &env.res.ReplicatedIntervals),
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

// markCrossingParticipants decides, for the tuples split onto partition p,
// which belong to at least one consistent interval-set crossing p (conditions
// C1 and C2 of RCCIS): the result is parallel to cands, which holds those
// tuples by relation. verts names each relation's join interval. It
// enumerates every proper non-empty subset S of the relation set; for each it
// applies the unary boundary filters B1/B2 derived from the conditions
// between S and its complement, then keeps the tuples participating in a
// satisfying assignment over S via a semi-join fixpoint (exact for the
// acyclic condition graphs of the paper's queries, a safe superset
// otherwise).
//
// B1 — an inside tuple in less-than order with an outside one crosses p's
// right boundary — is applied to the tuples that start in p only; a tuple
// that starts before p passes it (DESIGN.md's deviations). B2 — an inside
// tuple whose outside partner is lesser crosses p's left boundary — holds of
// every member of a crossing set as the paper states it.
func markCrossingParticipants(conds []query.Condition, part interval.Partitioning, p int,
	verts []query.Operand, cands [][]relation.Tuple) [][]bool {

	marked := make([][]bool, len(cands))
	for _, v := range verts {
		marked[v.Rel] = make([]bool, len(cands[v.Rel]))
	}
	m := len(verts)
	// Per subset, by relation: membership in S and the boundary each member
	// relation must cross. A list some filter applies to is cut from scratch,
	// which grows to the largest subset's survivors — few tuples cross a
	// boundary — and one none applies to is the candidate list itself.
	inS := make([]bool, len(cands))
	needRight := make([]bool, len(cands))
	needLeft := make([]bool, len(cands))
	var scratch []relation.Tuple
	sub := make([]query.Operand, 0, m)
	subRels := make([]int, 0, m)
	filtered := make([][]relation.Tuple, 0, m)
	// Iterate proper non-empty subsets of rels via bitmasks. An output
	// tuple (S = full set) is not a crossing set — its computation needs
	// no replication — so the full mask is excluded.
	for mask := 1; mask < (1<<m)-1; mask++ {
		sub, subRels, filtered, scratch = sub[:0], subRels[:0], filtered[:0], scratch[:0]
		for i, v := range verts {
			inS[v.Rel] = mask&(1<<i) != 0
			needRight[v.Rel], needLeft[v.Rel] = false, false
			if inS[v.Rel] {
				sub = append(sub, v)
			}
		}
		// Derive per-relation boundary requirements from conditions with
		// exactly one endpoint in S.
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
		for _, v := range sub {
			keep := cands[v.Rel]
			if needRight[v.Rel] || needLeft[v.Rel] {
				at := len(scratch)
				for _, t := range keep {
					iv := t.Attrs[v.Attr]
					// B1 binds only a tuple that starts in p: its greater
					// partner starts no earlier, so outside p it starts
					// after p, and the tuple must reach it. The partner of
					// one that starts before p may have ended before p too.
					before := part.CrossesLeft(iv, p)
					if needRight[v.Rel] && !before && !part.CrossesRight(iv, p) {
						continue
					}
					if needLeft[v.Rel] && !before {
						continue
					}
					scratch = append(scratch, t)
				}
				keep = scratch[at:len(scratch):len(scratch)]
			}
			if len(keep) == 0 {
				break
			}
			subRels, filtered = append(subRels, v.Rel), append(filtered, keep)
		}
		if len(filtered) < len(sub) {
			continue
		}
		surviving := semijoinReduce(subConds, subRels, filtered)
		// A surviving list is its candidate list thinned out, order kept, so
		// one walk along both finds each survivor's place.
		for i, r := range subRels {
			at := 0
			for _, t := range surviving[i] {
				for &cands[r][at].Attrs[0] != &t.Attrs[0] {
					at++
				}
				marked[r][at] = true
				at++
			}
		}
	}
	return marked
}
