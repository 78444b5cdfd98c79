package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"intervaljoin/internal/interval"
	"intervaljoin/internal/mr"
	"intervaljoin/internal/obs"
	"intervaljoin/internal/query"
	"intervaljoin/internal/relation"
)

// The reach suite's partitions: reachK of them, each reachW points wide on
// the uniform boundaries. reachW divides by every m−1 of its shapes, so that
// an exact case lands L + reach on W.
const (
	reachK = 6
	reachW = 120
)

// reachShape is one query of the reach suite. m is the vertices on the
// planner's join dimension. bounded says whether a path bounds how far its
// rows reach — the space is left with one dimension, whose vertices the
// colocation conditions connect — so that the rule may fire. small names the
// relations made small enough to be broadcast; every other has n tuples.
type reachShape struct {
	name    string
	q       *query.Query
	m       int
	bounded bool
	n       int
	small   []string
}

// reachShapes are the 3-way chains over every colocation predicate, a 4-way
// chain, a 5-way star and the paper's Figure 3 query, which the planner joins
// with RCCIS, a colocation query of two unconnected pairs, whose rows no path
// bounds, and hybrids its All-Seq-Matrix joins: three that broadcasting
// leaves one dimension, over two or three vertices, and two left with two.
func reachShapes() []reachShape {
	mk := func(name, q string, m int, bounded bool, n int, small ...string) reachShape {
		return reachShape{name: name, q: query.MustParse(q), m: m, bounded: bounded, n: n, small: small}
	}
	var shapes []reachShape
	for p := interval.Predicate(0); p < interval.NumPredicates; p++ {
		if p.IsColocation() {
			// A strict nest of three is rare on the lattice: more tuples.
			n := 40
			if p == interval.Contains || p == interval.ContainedBy {
				n = 100
			}
			shapes = append(shapes, mk("chain-"+p.String(), "R1 "+p.String()+" R2 and R2 "+p.String()+" R3", 3, true, n))
		}
	}
	return append(shapes,
		mk("chain-4", "R1 overlaps R2 and R2 overlaps R3 and R3 overlaps R4", 4, true, 30),
		mk("star-5", "R1 contains R2 and R1 overlaps R3 and R1 overlappedby R4 and R1 startedby R5", 5, true, 30),
		mk("figure-3", "R1 overlaps R2 and R2 contains R3 and R3 overlaps R4", 4, true, 30),
		mk("unconnected", "R1 overlaps R2 and R3 overlaps R4", 4, false, 15),
		mk("hybrid-one-dim", "R1 overlaps R2 and R2 before R3", 2, true, 40, "R3"),
		mk("hybrid-one-dim-3", "R1 overlaps R2 and R2 overlaps R3 and R3 before R4", 3, true, 40, "R4"),
		mk("hybrid-two-small", "R1 overlaps R2 and R2 before R3 and R3 before R4", 2, true, 60, "R3", "R4"),
		mk("hybrid-two-dims", "R1 overlaps R2 and R2 before R3 and R3 overlaps R4", 2, false, 30),
		mk("hybrid-none-small", "R1 overlaps R2 and R2 before R3", 2, false, 40),
	)
}

// reachLengths are the interval lengths every shape runs under, measured
// against the rule (m−1)·L ≤ W on the uniform boundaries: exact puts L +
// reach on W, which fires, and over narrows W one point below it, which does
// not; short fires with room to spare and long misses by far. sizes returns
// the case's longest interval and partition width for a dimension of m
// vertices.
var reachLengths = []struct {
	name  string
	fires bool
	sizes func(m int) (longest, width int64)
}{
	{"short", true, func(m int) (int64, int64) { return max(1, exact(m)/4), reachW }},
	{"exact", true, func(m int) (int64, int64) { return exact(m), reachW }},
	{"over", false, func(m int) (int64, int64) { return exact(m), reachW - 1 }},
	{"long", false, func(int) (int64, int64) { return 2 * reachW, reachW }},
}

// exact is the longest interval for which a dimension of m vertices fires
// the rule at width reachW.
func exact(m int) int64 { return reachW / int64(max(m-1, 1)) }

// reachModes are the boundaries each case runs under; the adaptive one forces
// virtual splits.
var reachModes = []struct {
	name string
	opts Options
}{
	{"uniform", Options{Partitions: reachK, PartitionsPerDim: reachK}},
	{"equi-depth", Options{Partitions: reachK, PartitionsPerDim: reachK, EquiDepth: true}},
	{"adaptive-split", Options{Partitions: reachK, PartitionsPerDim: reachK,
		Adaptive: true, SplitThreshold: 0.01, MaxVirtual: 3}},
}

// reachRelations draws a shape's relations over [0, reachK·width): starts and
// lengths on a lattice of a quarter of the longest interval, so that the
// predicates that pin an endpoint find partners and the strict ones nest,
// and lengths at most longest. R1 holds [0, longest] and [end−1, end−1], so
// the range and the longest interval are exactly the case's.
func reachRelations(rng *rand.Rand, sh reachShape, longest, width int64) []*relation.Relation {
	end := reachK * width
	step := max(1, longest/4)
	rels := make([]*relation.Relation, len(sh.q.Relations))
	for i, s := range sh.q.Relations {
		n := sh.n
		if slices.Contains(sh.small, s.Name) {
			n = 3
		}
		var ivs []interval.Interval
		if i == 0 {
			ivs = append(ivs, interval.New(0, longest), interval.PointInterval(end-1))
		}
		for range n {
			start := step * rng.Int63n((end-1-longest)/step+1)
			ivs = append(ivs, interval.New(start, start+step*rng.Int63n(longest/step+1)))
		}
		rels[i] = relation.FromIntervals(s.Name, ivs)
	}
	return rels
}

// narrowestOf is the width of part's narrowest partition, worked out apart
// from the planner's own.
func narrowestOf(part interval.Partitioning) int64 {
	w := int64(math.MaxInt64)
	for i := range part.Len() {
		iv := part.PartitionInterval(i)
		w = min(w, iv.End-iv.Start+1)
	}
	return w
}

// TestReachPlanMatchesReference holds the planner's reach plan to the oracle
// on every shape, length class and boundary source: the rows, id for id, in
// canonical form, and Σ ReducerPairs == IntermediatePairs per cycle. It also
// pins which plan ran, from the cycle count and PlanInfo.Reach, against the
// rule worked out from the case's own boundaries — on the uniform ones
// exactly as the length class says — so neither half passes vacuously. A
// reach plan reports the rule's sides, replicates nothing and, without
// virtual splits, shuffles at most two pairs per tuple on its dimension.
func TestReachPlanMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	runs := map[bool]int{}
	for _, sh := range reachShapes() {
		rows := 0
		for _, lc := range reachLengths {
			longest, width := lc.sizes(sh.m)
			rels := reachRelations(rng, sh, longest, width)
			for _, mode := range reachModes {
				label := sh.name + " " + lc.name + " " + mode.name
				want, _ := runSingle(t, Reference{}, sh.q, rels, mode.opts)
				rows += len(want.Tuples)
				got, _ := runSingle(t, Plan(sh.q, false), sh.q, rels, mode.opts)
				if !slices.Equal(got.IDs, want.IDs) {
					t.Errorf("%s: the planner returned %d rows, the oracle %d, or other ids", label, len(got.Tuples), len(want.Tuples))
				}
				checkResultForm(t, label, got, len(rels))
				for i, m := range append([]*mr.Metrics{got.Metrics}, got.PerCycle...) {
					if sum := sumPairs(m); sum != m.IntermediatePairs {
						t.Errorf("%s: metrics %d: Σ ReducerPairs = %d, IntermediatePairs = %d", label, i, sum, m.IntermediatePairs)
					}
				}

				ctx, err := NewContext(mr.NewEngine(mr.Config{}), sh.q, rels, mode.opts)
				if err != nil {
					t.Fatal(err)
				}
				part, _, err := ctx.boundaries(reachK)
				if err != nil {
					t.Fatal(err)
				}
				w := narrowestOf(part)
				fires := sh.bounded && int64(max(sh.m-1, 1))*longest <= w
				if mode.name == "uniform" && (w != width || fires != (sh.bounded && lc.fires)) {
					t.Fatalf("%s: the case has width %d and fires = %v; it is built for %d and %v", label, w, fires, width, sh.bounded && lc.fires)
				}
				runs[fires]++
				var reach []obs.Reach
				if p := got.Metrics.Plan; p != nil {
					reach = p.Reach
				}
				if !fires {
					if got.Metrics.Cycles != 2 || len(reach) != 0 {
						t.Errorf("%s: %d cycles, reach %+v; the rule does not hold, so the marking must run", label, got.Metrics.Cycles, reach)
					}
					continue
				}
				want1 := obs.Reach{Vertices: sh.m, Longest: longest, Reach: int64(max(sh.m-2, 0)) * longest, Width: w}
				want1.Span = want1.Longest + want1.Reach
				if got.Metrics.Cycles != 1 || len(reach) != 1 || reach[0] != want1 {
					t.Errorf("%s: %d cycles, reach %+v; want the one-cycle plan under %+v", label, got.Metrics.Cycles, reach, want1)
				}
				if got.ReplicatedIntervals != 0 {
					t.Errorf("%s: the reach plan reports %d replicated intervals", label, got.ReplicatedIntervals)
				}
				if mode.opts.Adaptive {
					// RCCIS's join runs on the adaptive plan: the forced
					// split must have split something.
					if p := got.Metrics.Plan; sh.q.Classify() == query.Colocation && p.SplitPartitions == 0 {
						t.Errorf("%s: the forced split split no partition: %+v", label, p)
					}
					continue
				}
				var tuples, whole int64
				for _, r := range ctx.Rels {
					if slices.Contains(sh.small, r.Schema.Name) {
						whole += int64(r.Len())
					} else {
						tuples += int64(r.Len())
					}
				}
				join := got.PerCycle[0]
				if shuffled := join.IntermediatePairs - int64(len(join.ReducerPairs))*whole; shuffled > 2*tuples {
					t.Errorf("%s: the reach plan shuffled %d pairs for %d tuples", label, shuffled, tuples)
				}
			}
		}
		if rows == 0 {
			t.Errorf("%s: the oracle has no rows in any case; the shape checks nothing", sh.name)
		}
		t.Logf("%s: %d oracle rows over its cases", sh.name, rows)
	}
	t.Logf("%d runs took the reach plan, %d the marking", runs[true], runs[false])
	if runs[true] == 0 || runs[false] == 0 {
		t.Errorf("%d runs took the reach plan and %d the marking; the suite must see both", runs[true], runs[false])
	}
}

// rowCap bounds the outputs FuzzPlanReach joins in full.
const rowCap = 20_000

// errRowCap stops countRows' enumeration.
var errRowCap = errors.New("row cap reached")

// countRows is the number of rows the query has over rels, counted up to one
// past limit without materialising any.
func countRows(q *query.Query, rels []*relation.Relation, limit int) int {
	cands := make([][]relation.Tuple, len(rels))
	for i, r := range rels {
		cands[i] = r.Tuples
	}
	n := 0
	_ = newEnumerator(q.Conds, allRelations(len(rels))).run(cands, func([]relation.Tuple) error {
		if n++; n > limit {
			return errRowCap
		}
		return nil
	})
	return n
}

// FuzzPlanReach holds the planner to the oracle around the reach rule's flip
// point. The bytes decode into a connected colocation query over 3–5
// relations, each relation after the first tied to an earlier one by one of
// the 11 colocation predicates; a partition count k of 1–17; uniform or
// equi-depth boundaries; a domain; relation sizes 0–60; and the longest
// interval, within four points of L* = W/(m−1) for the uniform width W — the
// length at which the rule flips between the one-cycle reach plan and mark +
// join. One interval in eight has that length, the rest at most an eighth of
// it. The planner's rows must be the oracle's id for id, and every cycle's
// Σ ReducerPairs its IntermediatePairs. A case with more than rowCap rows is
// skipped before any is materialised.
func FuzzPlanReach(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		m := 3 + next()%3
		conds := make([]string, 0, m-1)
		for i := 2; i <= m; i++ {
			parent := 1 + next()%(i-1)
			conds = append(conds, fmt.Sprintf("R%d %s R%d", parent, interval.Meets+interval.Predicate(next()%11), i))
		}
		q := query.MustParse(strings.Join(conds, " and "))
		k := 1 + next()%17
		opts := Options{Partitions: k, EquiDepth: next()%2 == 1}
		domain := int64(100 + 8*next())
		longest := max(0, domain/int64(k)/int64(m-1)+int64(next()%9)-4)
		sizes := make([]int, m)
		for i := range sizes {
			sizes[i] = next() % 61
		}
		rng := rand.New(rand.NewSource(int64(next()<<8 | next())))
		step := max(1, longest/4)
		rels := make([]*relation.Relation, m)
		for i := range rels {
			ivs := make([]interval.Interval, sizes[i])
			for j := range ivs {
				n := longest
				if rng.Intn(4) > 0 {
					n = step * rng.Int63n(longest/step+1)
				}
				s := step * rng.Int63n((domain-n)/step)
				ivs[j] = interval.New(s, s+n)
			}
			rels[i] = relation.FromIntervals(q.Relations[i].Name, ivs)
		}
		if countRows(q, rels, rowCap) > rowCap {
			t.Skipf("%s: more than %d rows", q, rowCap)
		}

		want, _ := runSingle(t, Reference{}, q, rels, opts)
		got, _ := runSingle(t, Plan(q, false), q, rels, opts)
		var reach []obs.Reach
		if p := got.Metrics.Plan; p != nil {
			reach = p.Reach
		}
		t.Logf("%s, k = %d, equi-depth %v, sizes %v, longest %d: %d rows, %d cycles, reach %+v",
			q, k, opts.EquiDepth, sizes, longest, len(want.Tuples), got.Metrics.Cycles, reach)
		if !slices.Equal(got.IDs, want.IDs) {
			t.Fatalf("the planner returned %d rows, the oracle %d, or other ids", len(got.Tuples), len(want.Tuples))
		}
		checkResultForm(t, "planner", got, m)
		for i, cycle := range got.PerCycle {
			if sum := sumPairs(cycle); sum != cycle.IntermediatePairs {
				t.Fatalf("cycle %d: Σ ReducerPairs = %d, IntermediatePairs = %d", i+1, sum, cycle.IntermediatePairs)
			}
		}
	})
}
