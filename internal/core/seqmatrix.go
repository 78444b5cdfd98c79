package core

import (
	"fmt"

	"intervaljoin/internal/grid"
	"intervaljoin/internal/interval"
	"intervaljoin/internal/mr"
	"intervaljoin/internal/obs"
	"intervaljoin/internal/query"
)

// SeqMatrix is All-Seq-Matrix (Section 8.1): hybrid queries run in two MR
// cycles. Cycle 1 runs the RCCIS marking per colocation component (one job,
// keyed by component x partition). Cycle 2 routes every tuple into an
// l-dimensional consistent-cell grid — dimension k belongs to component k;
// a tuple is pinned to its start partition along its component's dimension
// (or to the partitions at and after it when RCCIS flagged it for
// replication, condition E2) — and each cell joins what it receives. An
// output tuple is emitted at the unique cell whose k-th coordinate is the
// start partition of the right-most interval among its component-k members.
//
// Deviation from the paper (documented in DESIGN.md): the paper prunes cells
// with i_j > i_k for every component order C_j < C_k. That constraint is
// unsound for components where an interval two colocation hops away from
// the sequence condition's operand can start after the other component's
// intervals; we therefore add the constraint only when a static analysis
// proves every member of C_j must start before C_k's right-most member.
// All the paper's example queries pass the analysis and keep full pruning.
//
// The All-Seq-Matrix that Plan returns may broadcast small relations
// (broadcastSmall); when that leaves one dimension of short intervals, it
// runs cycle 2 alone over every tuple split a bounded reach past its end
// (reachJoin). The named one always marks.
type SeqMatrix struct {
	// planned lets the join space lose the dimensions of small
	// single-relation components (broadcastSmall) and, when one dimension is
	// left and its intervals are short, the run skip the marking
	// (reachJoin); only Plan sets it.
	planned bool
}

// Name implements Algorithm.
func (SeqMatrix) Name() string { return "all-seq-matrix" }

// Run implements Algorithm.
func (s SeqMatrix) Run(ctx *Context) (*Result, error) {
	if cls := ctx.Query.Classify(); cls == query.General {
		return nil, fmt.Errorf("core: all-seq-matrix handles single-attribute queries, got %v", cls)
	}
	return ctx.runStages(s.Name(), s.stages)
}

func (s SeqMatrix) stages(ctx *Context, env *chainEnv) ([]mr.Stage, *execPlan, error) {
	part, source, err := ctx.boundaries(env.opts.PartitionsPerDim)
	if err != nil {
		return nil, nil, err
	}
	sp, err := ctx.plannedProduct(env, s.planned, source, componentDims(env.d, part), soundComponentLess(env.d))
	if err != nil {
		return nil, nil, err
	}
	if s.planned {
		if join, reach, ok := ctx.reachJoin(sp); ok {
			env.productPlan(sp, source).Reach = []obs.Reach{reach}
			return []mr.Stage{{Job: join.job(ctx)}}, nil, nil
		}
	}
	// Only the components left in the space are marked: a relation the
	// reducers hold whole is neither marked nor shuffled.
	join := cellJoin{name: "join", sp: sp, from: "marked", owner: true}
	return []mr.Stage{
		{Job: ctx.markJob(sp.dims, false), Tap: replicateFlagTap(&env.res.ReplicatedIntervals, nil)},
		{Job: join.job(ctx)},
	}, nil, nil
}

// componentDims lays every colocation component of the decomposition along
// its own dimension, all cut by the same partitioning.
func componentDims(d *query.Decomposition, part interval.Partitioning) []dimension {
	dims := make([]dimension, len(d.Components))
	for ci, c := range d.Components {
		dims[ci] = dimension{part: part, verts: c.Vertices}
	}
	return dims
}

// soundComponentLess derives the grid consistency constraints (E1) that are
// provably sound. For a sequence condition a-before-b with a in component j
// and b in component k, the constraint i_j <= i_k is sound when every vertex
// of component j provably starts no later than b starts in every satisfying
// assignment. The proof rules are:
//
//	(1) a itself: end(a) < start(b) implies start(a) < start(b);
//	(2) any vertex with a colocation condition directly to a shares a
//	    point with a, so it starts at or before end(a) < start(b);
//	(3) any vertex that is in less-than order with an already-proven
//	    vertex starts no later than it.
//
// Since start(b) <= the start of component k's right-most member, covered
// components give max-start(C_j) <= max-start(C_k), i.e. q_j <= q_k.
func soundComponentLess(d *query.Decomposition) []grid.Less {
	type pair struct{ a, b int }
	seen := make(map[pair]bool)
	var out []grid.Less
	for _, si := range d.SeqCondIdx {
		c := d.Query.Conds[si]
		var aOp, bOp query.Operand
		if c.Pred.LessThanOrder() == interval.LeftLess {
			aOp, bOp = c.Left, c.Right
		} else {
			aOp, bOp = c.Right, c.Left
		}
		j, k := d.CompOf[aOp], d.CompOf[bOp]
		if j == k || seen[pair{j, k}] {
			continue
		}
		if componentCoveredBy(d, j, aOp) {
			seen[pair{j, k}] = true
			out = append(out, grid.Less{A: j, B: k})
		}
	}
	return out
}

// componentCoveredBy reports whether every vertex of component ci is proven
// to start no later than start(b) given that a's end precedes start(b),
// using the three rules of soundComponentLess.
func componentCoveredBy(d *query.Decomposition, ci int, a query.Operand) bool {
	verts := d.Components[ci].Vertices
	proven := map[query.Operand]bool{a: true}
	// Rule 2: direct colocation neighbours of a.
	conds := d.SubQueryConds(ci)
	for _, c := range conds {
		if c.Left == a {
			proven[c.Right] = true
		}
		if c.Right == a {
			proven[c.Left] = true
		}
	}
	// Rule 3: close backwards along less-than order edges to a fixpoint.
	for changed := true; changed; {
		changed = false
		for _, c := range conds {
			var lesser, greater query.Operand
			if c.Pred.LessThanOrder() == interval.LeftLess {
				lesser, greater = c.Left, c.Right
			} else {
				lesser, greater = c.Right, c.Left
			}
			if proven[greater] && !proven[lesser] {
				proven[lesser] = true
				changed = true
			}
		}
	}
	for _, v := range verts {
		if !proven[v] {
			return false
		}
	}
	return true
}
