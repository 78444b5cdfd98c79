package core

import (
	"cmp"
	"math"
	"slices"

	"intervaljoin/internal/grid"
	"intervaljoin/internal/interval"
	"intervaljoin/internal/obs"
	"intervaljoin/internal/query"
)

// kernelKind is the planner's dispatch choice for one binding level of the
// reduce-side enumerator — which inner loop shape the level runs
// (sweep.go). The dispatch table, by the oriented predicates applicable at
// the level:
//
//	level shape                                  kernel
//	─────────────────────────────────────────────────────────
//	any condition off the sort attribute,        kindGeneric
//	or no conditions at all
//	every condition on the sort attribute        kindSweep
//	(all 13 Allen predicates)
type kernelKind uint8

const (
	// kindGeneric: binary-search probe plus per-candidate Eval through the
	// arena — the only kernel that handles conditions over attributes other
	// than the level's sort attribute (General-class queries), and the
	// trivial scan for condition-free levels.
	kindGeneric kernelKind = iota
	// kindSweep: the Piatov-style columnar sweep — scan the start column
	// within the intersected exact window, filter on the end column.
	kindSweep
)

// String names the kernel kind for diagnostics.
func (k kernelKind) String() string {
	if k == kindSweep {
		return "sweep"
	}
	return "generic"
}

// chooseKernel picks the inner-loop shape for a compiled level. Exactness
// of the specialized kernels rests on interval.Window (sweep.go): for
// conditions over the level's single sort attribute, the Allen predicate
// decomposes exactly into endpoint windows, so no per-candidate Eval is
// needed. Levels where that precondition fails keep the generic path.
func chooseKernel(lp levelPlan) kernelKind {
	if !lp.sweep || len(lp.conds) == 0 {
		return kindGeneric
	}
	return kindSweep
}

// Plan selects the paper's recommended algorithm for a query's class:
// RCCIS for colocation queries, All-Matrix for sequence queries,
// All-Seq-Matrix for hybrid queries (PASM when PreferPruning is set), and
// Gen-Matrix for general multi-attribute queries. Two-relation
// single-condition queries use the one-cycle 2-way strategy table directly.
//
// The RCCIS, All-Matrix and All-Seq-Matrix it returns are the planner's own:
// the product drivers may join a small relation whole in every reducer
// instead of giving it a grid dimension (broadcastSmall), and RCCIS and
// All-Seq-Matrix may join in one cycle without marking when the intervals
// are short (reachJoin). The same algorithms by name — the zero values
// Algorithms and the registry hand out — are the paper's and never do.
func Plan(q *query.Query, preferPruning bool) Algorithm {
	if len(q.Conds) == 1 && len(q.Relations) == 2 && q.Classify() != query.General {
		return TwoWay{}
	}
	switch q.Classify() {
	case query.Colocation:
		return RCCIS{planned: true}
	case query.Sequence:
		return AllMatrix{broadcast: true}
	case query.Hybrid:
		if preferPruning {
			return PASM{}
		}
		return SeqMatrix{planned: true}
	default:
		return GenMatrix{}
	}
}

// InLine says that Engine.Run joins ctx's relations in line (JoinInLine)
// rather than through the planner's job, and how the join spreads over the
// engine's workers, or is nil when the job runs: the rule is inLine's.
func InLine(ctx *Context) *obs.InLine {
	if !inLine(ctx.Query, ctx.Opts) {
		return nil
	}
	var tuples int64
	for _, r := range ctx.Rels {
		tuples += int64(r.Len())
	}
	s := ctx.inLineSplit()
	return &obs.InLine{Tuples: tuples, Stretches: s.stretches, Ranges: s.ranges}
}

// inLine is the rule: no option set, and relations bound in a connected
// order. When the whole input fits one reducer, one reducer with replication
// rate 1 is the best schema (Afrati et al.); an input in memory fits it, and
// the in-line join spreads over the engine's workers (inLineSplit), as the
// job spreads over its reducers. An option asks for the job's layout by
// name. A disconnected order leaves a level with no bound partner, whose
// every candidate meets every partial: the job's partitions bound that
// product and one reducer does not.
func inLine(q *query.Query, opts Options) bool {
	return opts == (Options{}) && connectedOrder(q)
}

// inLineSplit is how JoinInLine spreads over the engine's workers.
type inLineSplit struct {
	// workers is how many goroutines walk and order, the caller among them.
	workers int
	// stretches is how many stretches of about equal length the first
	// level's candidates, in start order, are cut into for the walkers to
	// take in turn.
	stretches int
	// ranges is how many ranges of about equal width the first relation's
	// id span is cut into: each range's rows make one stretch of the result,
	// ordered alone.
	ranges int
}

// stretchesPerWorker is how many stretches of the first level the in-line
// walk is cut into for each worker: enough that the walkers even out a
// Zipf-dense stretch, few enough that each still walks a stretch of the line.
const stretchesPerWorker = 4

// inLineSplit is the split JoinInLine runs: one goroutine, one stretch and
// one range without an engine (the service's delta joins), with one worker,
// or when the rows do not pack into words; otherwise a goroutine a worker,
// stretchesPerWorker stretches a worker and a range a worker, but never more
// stretches than first-level candidates nor more ranges than first-relation
// ids.
func (c *Context) inLineSplit() inLineSplit {
	if c.Engine == nil || c.Engine.Workers() < 2 || !c.packing.words {
		return inLineSplit{workers: 1, stretches: 1, ranges: 1}
	}
	workers, f := c.Engine.Workers(), &c.facts[0]
	return inLineSplit{
		workers:   workers,
		stretches: max(1, min(stretchesPerWorker*workers, c.Rels[0].Len())),
		// The rows pack, so the span is below 2^63 and one more fits.
		ranges: int(min(uint64(workers), uint64(f.Hi)-uint64(f.Lo)+1)),
	}
}

// connectedOrder reports whether every prefix of q's relations, in the order
// the enumerator binds them, is connected in the condition graph: each
// relation after the first shares a condition with an earlier one.
func connectedOrder(q *query.Query) bool {
	for r := 1; r < len(q.Relations); r++ {
		if !slices.ContainsFunc(q.Conds, func(c query.Condition) bool {
			return max(c.Left.Rel, c.Right.Rel) == r && min(c.Left.Rel, c.Right.Rel) < r
		}) {
			return false
		}
	}
	return true
}

// plannedProduct builds a product driver's join space over dims under cons:
// as given for the paper's algorithm, or, when the planner chose the driver
// (broadcast), less the dimensions broadcastSmall takes out. A space that
// lost dimensions is reported: the relations its reducers hold whole are the
// chain's last stage's to price (chainEnv.whole), and the choice, with both
// sides of its rule, is the run's plan.
func (c *Context) plannedProduct(env *chainEnv, broadcast bool, source string, dims []dimension, cons []grid.Less) (*space, error) {
	var whole []int
	var taken []obs.Broadcast
	if broadcast {
		var err error
		if dims, cons, whole, taken, err = c.broadcastSmall(dims, cons); err != nil {
			return nil, err
		}
	}
	sp, err := c.product(dims, cons)
	if err != nil || len(whole) == 0 {
		return sp, err
	}
	sp.whole, env.whole = whole, whole
	env.productPlan(sp, source).Broadcast = taken
	return sp, nil
}

// productPlan is the plan a product driver reports, made on first use: it
// reports one only when the planner changed its space or its cycles.
func (env *chainEnv) productPlan(sp *space, source string) *obs.PlanInfo {
	if env.res.Metrics.Plan == nil {
		env.res.Metrics.Plan = &obs.PlanInfo{
			Partitions:      sp.dims[0].part.Len(),
			BoundarySource:  source,
			VirtualReducers: int(sp.cells.Count()),
		}
	}
	return env.res.Metrics.Plan
}

// reachJoin is the planner's one-cycle join over sp: ok, and the rule's
// sides to report, when the rule below holds; otherwise the paper's mark +
// join runs.
//
// Every colocation predicate implies that its two intervals share a point,
// so along a path of conditions each vertex starts no later than the one
// before it ends, and ends at most L later than it starts, L the longest
// interval among them. When the colocation conditions among a dimension's m
// vertices connect them, a path between two vertices of a row has m−1 hops
// at most, and the row's right-most start — the one the owner rule reads —
// lies at most reach = max(m−2, 0)·L past any member's end. Splitting every
// tuple over [start, end + reach] (dimension.apply) therefore meets each row
// at its owner partition in one cycle, and the owner rule emits it there
// once. The mark cycle and its tap go.
//
// That holds for any L; the rule says when it is cheaper, in pairs. With W
// the narrowest partition, L + reach ≤ W keeps every extended interval
// within two partitions: 2n pairs at most for n tuples. The mark path ships
// 2n at least: its mark cycle splits every tuple at least once and its join
// cycle ships every tuple at least once. The rule is for a space of one
// dimension only: in a product a spanning tuple is copied across every free
// cell, and the pairs are not compared there.
//
// Every vertex is split. The dimension holds two at least: RCCIS binds two
// relations or more, and broadcastSmall takes out only dimensions one
// relation makes up alone, never a colocation component's.
func (c *Context) reachJoin(sp *space) (join cellJoin, r obs.Reach, ok bool) {
	if len(sp.dims) != 1 || !linked(c.Query, sp.dims[0].verts) {
		return cellJoin{}, obs.Reach{}, false
	}
	d := &sp.dims[0]
	m := len(d.verts)
	r = obs.Reach{Vertices: m, Width: narrowest(d.part)}
	for _, v := range d.verts {
		r.Longest = max(r.Longest, c.facts[v.Rel].Longest)
	}
	// L + (m−2)·L ≤ W, that is max(m−1, 1)·L ≤ W, without overflow.
	if r.Longest > r.Width/int64(max(m-1, 1)) {
		return cellJoin{}, obs.Reach{}, false
	}
	r.Reach = int64(max(m-2, 0)) * r.Longest
	r.Span = r.Longest + r.Reach
	d.reach = r.Reach
	ops := make([]interval.Op, len(c.Rels))
	for rel := range ops {
		ops[rel] = interval.OpSplit
	}
	return cellJoin{name: "join", sp: sp, ops: ops, owner: true}, r, true
}

// linked reports whether the colocation conditions among verts connect them.
func linked(q *query.Query, verts []query.Operand) bool {
	conds := condsWithin(q, verts)
	reached := []query.Operand{verts[0]}
	for grown := true; grown; {
		grown = false
		for _, cd := range conds {
			l, r := slices.Contains(reached, cd.Left), slices.Contains(reached, cd.Right)
			switch {
			case l && !r:
				reached, grown = append(reached, cd.Right), true
			case r && !l:
				reached, grown = append(reached, cd.Left), true
			}
		}
	}
	return len(reached) == len(verts)
}

// narrowest is the width of part's narrowest partition, in points.
func narrowest(part interval.Partitioning) int64 {
	w := uint64(math.MaxInt64)
	for i := range part.Len() {
		iv := part.PartitionInterval(i)
		w = min(w, uint64(iv.End)-uint64(iv.Start)+1)
	}
	return int64(w)
}

// broadcastSmall takes out of a product space the dimensions of relations
// small enough to join whole in every reducer — the map-side join of
// Przyjaciel-Zablocki et al. on the paper's own measure, pairs. A dimension
// qualifies when one relation R makes it up alone (every vertex of R on it,
// nothing else on it). Sending R to every cell costs |R| × c pairs, c the
// consistent cells of the space without R's dimension; keeping the
// dimension copies the other relations along R's axis, at least once each.
// So R goes when |R| × c ≤ Σ_{S≠R} |S|. Candidates are tried smallest
// first (then by index) while the rule holds, and one dimension always
// stays.
//
// The owner rule then runs over the dimensions left: each assignment of
// their relations still meets at exactly one reducer, and R is entire at
// every reducer, so each output row is still written once. Constraints that
// touched a dimension taken out go with it — that loses pruning, never rows
// — and the rest are renumbered. It returns the dimensions and constraints
// left, the relations taken in index order, and the choices in the order
// they were made.
func (c *Context) broadcastSmall(dims []dimension, cons []grid.Less) ([]dimension, []grid.Less, []int, []obs.Broadcast, error) {
	total := 0
	for _, r := range c.Rels {
		total += r.Len()
	}
	type candidate struct{ dim, rel int }
	var cands []candidate
	for k, d := range dims {
		rel := d.verts[0].Rel
		alone := true
		for j, e := range dims {
			for _, v := range e.verts {
				if (j == k) != (v.Rel == rel) {
					alone = false
				}
			}
		}
		if alone {
			cands = append(cands, candidate{k, rel})
		}
	}
	slices.SortStableFunc(cands, func(a, b candidate) int {
		return cmp.Or(cmp.Compare(c.Rels[a.rel].Len(), c.Rels[b.rel].Len()), cmp.Compare(a.rel, b.rel))
	})
	drop := make([]bool, len(dims))
	var whole []int
	var taken []obs.Broadcast
	for _, cd := range cands {
		if len(whole) == len(dims)-1 {
			break
		}
		drop[cd.dim] = true
		rest, restCons := residual(dims, cons, drop)
		g, err := gridOf(rest)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		n := c.Rels[cd.rel].Len()
		ship, others := int64(n)*g.Cells(restCons).Count(), int64(total-n)
		if ship > others {
			drop[cd.dim] = false
			break
		}
		whole = append(whole, cd.rel)
		taken = append(taken, obs.Broadcast{Relation: c.Query.Relations[cd.rel].Name, ShipPairs: ship, OtherTuples: others})
	}
	slices.Sort(whole)
	rest, restCons := residual(dims, cons, drop)
	return rest, restCons, whole, taken, nil
}

// residual is dims without the dropped ones, and the constraints among the
// dimensions left, renumbered.
func residual(dims []dimension, cons []grid.Less, drop []bool) ([]dimension, []grid.Less) {
	at := make([]int, len(dims))
	var rest []dimension
	for k, d := range dims {
		at[k] = -1
		if !drop[k] {
			at[k] = len(rest)
			rest = append(rest, d)
		}
	}
	var restCons []grid.Less
	for _, cn := range cons {
		if at[cn.A] >= 0 && at[cn.B] >= 0 {
			restCons = append(restCons, grid.Less{A: at[cn.A], B: at[cn.B]})
		}
	}
	return rest, restCons
}

// Algorithms returns every distributed algorithm applicable to the query,
// the paper's recommended one first. The reference oracle is not included,
// and neither are All-Seq-Matrix and PASM on a sequence query: every
// component there is one vertex, with nothing to mark or prune, so either
// runs All-Matrix's one cycle.
func Algorithms(q *query.Query) []Algorithm {
	switch q.Classify() {
	case query.Colocation:
		algs := []Algorithm{RCCIS{}}
		if len(q.Conds) == 1 && len(q.Relations) == 2 {
			algs = append(algs, TwoWay{})
		}
		return append(algs, SeqMatrix{}, PASM{}, FCTS{}, AllRep{}, Cascade{})
	case query.Sequence:
		algs := []Algorithm{AllMatrix{}}
		if len(q.Conds) == 1 && len(q.Relations) == 2 {
			algs = append(algs, TwoWay{})
		}
		return append(algs, AllRep{}, Cascade{}, Cascade{MatrixSteps: true})
	case query.Hybrid:
		return []Algorithm{SeqMatrix{}, PASM{}, FCTS{}, FSTC{}, AllRep{}, Cascade{}, Cascade{MatrixSteps: true}}
	default:
		return []Algorithm{GenMatrix{}}
	}
}
