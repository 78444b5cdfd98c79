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
	// The join cycle takes the skew-adaptive plan (one stream per
	// relation). The mark cycle keeps the plain one-key-per-partition
	// layout: its reducer needs every tuple split onto a partition in one
	// place to decide crossing-set membership, so it is not decomposable.
	plan, err := ctx.makePlan(r.Name(), env.opts.Partitions, m)
	if err != nil {
		return nil, nil, err
	}
	part := plan.part

	mark := mr.Job{
		Name:   "mark",
		Inputs: ctx.relInputs(),
		Map: func(tag int, record string, emit mr.Emitter) error {
			t, err := relation.DecodeTuple(record)
			if err != nil {
				return err
			}
			first, last := part.Split(t.Key())
			emit.EmitRange(int64(first), int64(last), encodeTagged(tag, t))
			return nil
		},
		Reduce: markReducer(ctx.Query, part, allRelations(m)),
		Output: "marked",
	}

	join := mr.Job{
		Name:   "join",
		Inputs: []mr.Input{{File: "marked"}},
		Map: func(_ int, record string, emit mr.Emitter) error {
			rel, replicate, t, err := decodeFlagged(record)
			if err != nil {
				return err
			}
			op := interval.OpProject
			if replicate {
				op = interval.OpReplicate
			}
			first, last := part.Apply(op, t.Key())
			plan.emitRange(emit, first, last, rel, encodeTagged(rel, t))
			return nil
		},
		Resplit: resplitValues(m, streamOfTagged),
		Reduce:  reduceJoinAtPartition(ctx, plan),
	}
	return []mr.Stage{
		{Job: mark, Tap: replicateFlagTap(&env.res.ReplicatedIntervals)},
		{Job: join},
	}, plan, nil
}

func allRelations(m int) []int {
	rels := make([]int, m)
	for i := range rels {
		rels[i] = i
	}
	return rels
}

// markReducer builds the RCCIS cycle-1 reduce function for the given
// condition set and relation subset (the hybrid algorithms reuse it per
// colocation component). The reducer receives all tuples split onto its
// partition and writes every tuple that *starts* there, flagged with the
// replication decision.
//
// attrOf selects which attribute of a relation's tuple is the join interval;
// for the single-attribute algorithms it is attribute 0 throughout.
func markReducer(q *query.Query, part interval.Partitioning, rels []int) mr.ReduceFunc {
	return markReducerAttrs(q.Conds, part, rels, uniformAttr0(rels))
}

func uniformAttr0(rels []int) map[int]int {
	m := make(map[int]int, len(rels))
	for _, r := range rels {
		m[r] = 0
	}
	return m
}

// markReducerAttrs is the attribute-aware form used by Gen-Matrix, where the
// join interval of relation r is t.Attrs[attrOf[r]].
func markReducerAttrs(conds []query.Condition, part interval.Partitioning, rels []int, attrOf map[int]int) mr.ReduceFunc {
	return func(key int64, values []string, write func(string) error) error {
		p := int(key)
		// Decode through a per-call arena: one flat interval column for the
		// whole candidate list instead of one Attrs slice per record. The
		// raw bodies ride along so survivors are re-emitted by splicing the
		// flag in (encodeFlaggedBody) — byte-identical to re-encoding, with
		// no per-endpoint formatting.
		var arena relation.Arena
		cands := make(map[int][]relation.Tuple, len(rels))
		bodies := make(map[int][]string, len(rels))
		for _, v := range values {
			rel, body, err := splitTagged(v)
			if err != nil {
				return err
			}
			ref, err := arena.AppendDecode(body)
			if err != nil {
				return err
			}
			cands[rel] = append(cands[rel], arena.Tuple(ref))
			bodies[rel] = append(bodies[rel], body)
		}
		replicate := markCrossingParticipants(conds, part, p, rels, attrOf, cands)
		// Write every tuple that starts in this partition, flagged.
		for _, rel := range rels {
			attr := attrOf[rel]
			for i, t := range cands[rel] {
				if part.IndexOf(t.Attrs[attr].Start) != p {
					continue
				}
				if err := write(encodeFlaggedBody(rel, replicate[rel][t.ID], bodies[rel][i])); err != nil {
					return err
				}
			}
		}
		return nil
	}
}

// markCrossingParticipants returns, per relation, the ids of the tuples at
// partition p that belong to at least one consistent interval-set crossing p
// (conditions C1 and C2 of RCCIS). It enumerates every proper non-empty
// subset S of the relation set; for each it applies the unary boundary
// filters B1/B2 derived from the conditions between S and its complement,
// then keeps the tuples participating in a satisfying assignment over S via
// a semi-join fixpoint (exact for the acyclic condition graphs of the
// paper's queries, a safe superset otherwise).
func markCrossingParticipants(conds []query.Condition, part interval.Partitioning, p int,
	rels []int, attrOf map[int]int, cands map[int][]relation.Tuple) map[int]map[int64]bool {

	marked := make(map[int]map[int64]bool, len(rels))
	for _, r := range rels {
		marked[r] = make(map[int64]bool)
	}
	m := len(rels)
	inS := make(map[int]bool, m)
	// Iterate proper non-empty subsets of rels via bitmasks. An output
	// tuple (S = full set) is not a crossing set — its computation needs
	// no replication — so the full mask is excluded.
	for mask := 1; mask < (1<<m)-1; mask++ {
		var sub []int
		for i, r := range rels {
			inS[r] = mask&(1<<i) != 0
			if inS[r] {
				sub = append(sub, r)
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
		for i, r := range sub {
			attr := attrOf[r]
			var keep []relation.Tuple
			for _, t := range cands[r] {
				iv := t.Attrs[attr]
				if needRight[r] && !part.CrossesRight(iv, p) {
					continue
				}
				if needLeft[r] && !part.CrossesLeft(iv, p) {
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
		surviving := semijoinReduce(subConds, sub, filtered)
		for i, r := range sub {
			for _, t := range surviving[i] {
				marked[r][t.ID] = true
			}
		}
	}
	return marked
}
