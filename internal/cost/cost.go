// Package cost estimates the communication volume (intermediate key-value
// pairs) of each join algorithm from per-relation statistics, in the spirit
// of the Zhang et al. cost model the paper plans to integrate ("we can
// further improve All-Matrix by using the cost models and ideas presented
// in Zhang et al.", Section 7.2; the model is extended here with the
// distribution of interval lengths, as Section 7.2 prescribes).
//
// The estimates assume uniformly distributed start points; they are meant
// for algorithm and partition-count advice, not precise prediction. The
// Advise function ranks the applicable algorithms by estimated pairs.
package cost

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"intervaljoin/internal/grid"
	"intervaljoin/internal/query"
	"intervaljoin/internal/relation"
)

// RelStats summarises one relation's join column.
type RelStats struct {
	// Count is the number of tuples.
	Count int64
	// MeanLength is the average interval length.
	MeanLength float64
	// Span is the width of the covered time range.
	Span float64
}

// Analyze computes the statistics of one attribute column.
func Analyze(r *relation.Relation, attr int) RelStats {
	s := RelStats{Count: int64(r.Len())}
	if r.Len() == 0 {
		s.Span = 1
		return s
	}
	var sum float64
	lo, hi := r.Tuples[0].Attrs[attr].Start, r.Tuples[0].Attrs[attr].End
	for _, t := range r.Tuples {
		iv := t.Attrs[attr]
		sum += float64(uint64(iv.End) - uint64(iv.Start))
		if iv.Start < lo {
			lo = iv.Start
		}
		if iv.End > hi {
			hi = iv.End
		}
	}
	s.MeanLength = sum / float64(r.Len())
	s.Span = float64(uint64(hi)-uint64(lo)) + 1
	return s
}

// CombinedSpan is the union span all single-attribute algorithms partition.
func CombinedSpan(stats []RelStats) float64 {
	span := 1.0
	for _, s := range stats {
		if s.Span > span {
			span = s.Span
		}
	}
	return span
}

// splitPairs estimates the pairs emitted by splitting a relation over k
// partitions: every interval hits its start partition plus ~len/width more.
func splitPairs(s RelStats, k int, span float64) float64 {
	width := span / float64(k)
	return float64(s.Count) * (1 + s.MeanLength/width)
}

// replicatePairs estimates the pairs emitted by replicating: a uniform
// start lands mid-range, so each interval reaches ~(k+1)/2 partitions.
func replicatePairs(s RelStats, k int) float64 {
	return float64(s.Count) * float64(k+1) / 2
}

// crossProb estimates the probability that an interval crosses a partition
// boundary: len/width, capped at 1.
func crossProb(s RelStats, k int, span float64) float64 {
	width := span / float64(k)
	return math.Min(1, s.MeanLength/width)
}

// Estimate is one algorithm's predicted communication cost.
type Estimate struct {
	// Algorithm is the algorithm name as registered by the core package.
	Algorithm string
	// Pairs is the predicted total intermediate pairs across all cycles.
	Pairs float64
	// MaxReducerLoad is the predicted pair count of the heaviest reducer —
	// the straggler that determines cluster makespan. Balanced algorithms
	// approach Pairs / reducers; All-Replicate's right-most reducer
	// receives every replicated interval.
	MaxReducerLoad float64
	// Cycles is the algorithm's MR cycle count for this query.
	Cycles int
}

// EstimateAllRep predicts All-Replicate: one relation projected when the
// order has a unique maximum (approximated: always assume one), the rest
// replicated.
func EstimateAllRep(stats []RelStats, k int) Estimate {
	var pairs, replicated float64
	var projected float64
	// Project the largest-index relation (chain convention), replicate the
	// rest.
	for i, s := range stats {
		if i == len(stats)-1 {
			pairs += float64(s.Count)
			projected = float64(s.Count)
			continue
		}
		pairs += replicatePairs(s, k)
		replicated += float64(s.Count)
	}
	// The right-most reducer receives every replicated interval plus its
	// share of the projected relation.
	maxLoad := replicated + projected/float64(k)
	return Estimate{Algorithm: "all-rep", Pairs: pairs, MaxReducerLoad: maxLoad, Cycles: 1}
}

// EstimateRCCIS predicts RCCIS: cycle 1 splits everything; cycle 2 projects
// everything and replicates the boundary-crossing participants.
// participation is the fraction of crossing intervals that actually belong
// to a consistent crossing set (1 is the safe upper bound; dense workloads
// approach it).
func EstimateRCCIS(stats []RelStats, k int, participation float64) Estimate {
	span := CombinedSpan(stats)
	var pairs float64
	for _, s := range stats {
		pairs += splitPairs(s, k, span) // cycle 1
		pairs += float64(s.Count)       // cycle 2 projections
		pairs += float64(s.Count) * crossProb(s, k, span) * participation * float64(k+1) / 2
	}
	// Uniform starts spread RCCIS's load evenly.
	return Estimate{Algorithm: "rccis", Pairs: pairs, MaxReducerLoad: pairs / float64(k), Cycles: 2}
}

// EstimateAllMatrix predicts All-Matrix exactly for the routing (the
// reduce-side join cost is workload-dependent and excluded): each tuple of
// relation d reaches every consistent cell whose d-th coordinate is its
// start partition; the expected fan-out is the exact average over start
// partitions, computed from the grid.
func EstimateAllMatrix(stats []RelStats, q *query.Query, o int) (Estimate, error) {
	m := len(stats)
	g, err := grid.NewUniform(m, o)
	if err != nil {
		return Estimate{}, err
	}
	var cons []grid.Less
	for _, p := range q.LessThanPairs() {
		cons = append(cons, grid.Less{A: p[0], B: p[1]})
	}
	var pairs float64
	for d, s := range stats {
		var totalCells int64
		for qi := 0; qi < o; qi++ {
			bounds := g.FreeBounds()
			bounds[d] = grid.Bound{Min: qi, Max: qi}
			g.Enumerate(bounds, cons, func(int64, []int) { totalCells++ })
		}
		pairs += float64(s.Count) * float64(totalCells) / float64(o)
	}
	cells := g.CountConsistent(cons)
	if cells == 0 {
		cells = 1
	}
	// The grid spreads load evenly over the consistent cells.
	return Estimate{Algorithm: "all-matrix", Pairs: pairs, MaxReducerLoad: pairs / float64(cells), Cycles: 1}, nil
}

// selectivity roughly estimates P(pred holds) for a random pair drawn from
// the two relations, using the mean lengths and the shared span.
func selectivity(pred queryPredicate, a, b RelStats, span float64) float64 {
	switch {
	case pred.IsSequence():
		return 0.5
	default:
		// Colocation: the two intervals must share a point; the paper's
		// predicates are refinements, approximated by the intersection
		// probability scaled down by 1/2 for directionality.
		p := (a.MeanLength + b.MeanLength + 1) / span / 2
		return math.Min(1, p)
	}
}

// queryPredicate is the subset of interval.Predicate behaviour the
// selectivity model needs; it keeps this package decoupled from the
// interval package's internals.
type queryPredicate interface {
	IsSequence() bool
}

// EstimateCascade predicts the 2-way cascade: each step shuffles the
// current intermediate plus the next relation, with intermediate sizes
// driven by the per-step selectivity.
func EstimateCascade(stats []RelStats, q *query.Query, k int) Estimate {
	span := CombinedSpan(stats)
	// Follow the conditions in order, mirroring planCascade's greedy plan.
	interSize := float64(stats[q.Conds[0].Left.Rel].Count)
	var pairs float64
	bound := map[int]bool{q.Conds[0].Left.Rel: true}
	cycles := 0
	for _, c := range q.Conds {
		li, ri := c.Left.Rel, c.Right.Rel
		var novel int
		switch {
		case bound[li] && bound[ri]:
			continue // filter within an existing step
		case bound[li]:
			novel = ri
		case bound[ri]:
			novel = li
		default:
			continue // disconnected; the real planner errors
		}
		cycles++
		ns := stats[novel]
		// The intermediate side is split or replicated (~2 partitions per
		// record on average for colocation, (k+1)/2 for sequence), the
		// novel side projected.
		fan := 1 + (stats[li].MeanLength/(span/float64(k)))/2
		if c.Pred.IsSequence() {
			fan = float64(k+1) / 2
		}
		pairs += interSize*fan + float64(ns.Count)
		interSize *= float64(ns.Count) * selectivity(c.Pred, stats[li], stats[ri], span)
		bound[novel] = true
	}
	return Estimate{Algorithm: "2way-cascade", Pairs: pairs, MaxReducerLoad: pairs / float64(k), Cycles: cycles}
}

// Advise ranks the applicable algorithms for the query by estimated
// communication pairs. k is the 1-D partition count and o the grid
// partitions per dimension.
func Advise(q *query.Query, rels []*relation.Relation, k, o int) ([]Estimate, error) {
	if q.Classify() == query.General {
		return nil, fmt.Errorf("cost: advice covers single-attribute queries")
	}
	stats := make([]RelStats, len(rels))
	for i, r := range rels {
		stats[i] = Analyze(r, 0)
	}
	var out []Estimate
	switch q.Classify() {
	case query.Colocation:
		out = append(out, EstimateRCCIS(stats, k, 1), EstimateAllRep(stats, k), EstimateCascade(stats, q, k))
	case query.Sequence:
		am, err := EstimateAllMatrix(stats, q, o)
		if err != nil {
			return nil, err
		}
		out = append(out, am, EstimateAllRep(stats, k), EstimateCascade(stats, q, k))
	default: // hybrid: the matrix algorithms dominate; report baselines too
		out = append(out, EstimateRCCIS(stats, k, 1), EstimateAllRep(stats, k), EstimateCascade(stats, q, k))
	}
	// Rank by the straggler load (what determines cluster makespan), then
	// by total communication.
	slices.SortFunc(out, func(a, b Estimate) int {
		if c := cmp.Compare(a.MaxReducerLoad, b.MaxReducerLoad); c != 0 {
			return c
		}
		return cmp.Compare(a.Pairs, b.Pairs)
	})
	return out, nil
}

// AdvisePartitions sweeps candidate partition counts for RCCIS and returns
// the k minimising estimated pairs: small k wastes parallelism, large k
// multiplies boundary crossings and replication.
func AdvisePartitions(rels []*relation.Relation, candidates []int) int {
	stats := make([]RelStats, len(rels))
	for i, r := range rels {
		stats[i] = Analyze(r, 0)
	}
	if len(candidates) == 0 {
		candidates = []int{4, 8, 16, 32, 64}
	}
	best, bestPairs := candidates[0], math.Inf(1)
	for _, k := range candidates {
		if est := EstimateRCCIS(stats, k, 1); est.Pairs < bestPairs {
			best, bestPairs = k, est.Pairs
		}
	}
	return best
}
