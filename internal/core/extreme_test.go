package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"intervaljoin/internal/dfs"
	"intervaljoin/internal/interval"
	"intervaljoin/internal/mr"
	"intervaljoin/internal/query"
	"intervaljoin/internal/relation"
)

// extremeShapes are ranges of the int64 time line whose width, or whose
// end points, do not fit the arithmetic of a range held in int64: End + 1
// wraps at MaxInt64, and tn − t0 wraps once the range holds more than half
// of the line. "wide" is such a range that touches neither end.
var extremeShapes = []struct {
	name   string
	lo, hi int64
}{
	{"top", math.MaxInt64 - 1<<20, math.MaxInt64},
	{"bottom", math.MinInt64, math.MinInt64 + 1<<20},
	{"wide", -(1 << 62) - 12_345, 1<<62 + 6_789},
	{"full", math.MinInt64, math.MaxInt64},
}

// extremeRelation draws n intervals inside [lo, hi]: half of them short,
// half reaching a random way towards hi. Tuple 0 starts at lo and tuple 1
// ends at hi.
func extremeRelation(rng *rand.Rand, name string, n int, lo, hi int64) *relation.Relation {
	// below returns a uniform draw from [0, span], span counted in uint64.
	below := func(span uint64) uint64 {
		if span == math.MaxUint64 {
			return rng.Uint64()
		}
		return rng.Uint64() % (span + 1)
	}
	ivs := make([]interval.Interval, n)
	for i := range ivs {
		start := int64(uint64(lo) + below(uint64(hi)-uint64(lo)))
		room := uint64(hi) - uint64(start)
		length := below(min(room, 63))
		if i%2 == 1 {
			length = below(room)
		}
		ivs[i] = interval.New(start, int64(uint64(start)+length))
	}
	ivs[0] = interval.New(lo, lo+rng.Int63n(8))
	ivs[1] = interval.New(hi-rng.Int63n(8), hi)
	return relation.FromIntervals(name, ivs)
}

// TestExtremeEndpointsMatchReference: every distributed algorithm, and the
// planner's choice, returns the oracle's rows on data at either end of the
// int64 time line and on data spanning more of it than an int64 can count —
// under uniform, equi-depth and adaptive boundaries, with one, a few and
// many partitions — and every boundary build those runs make holds the
// partitioning's invariant.
func TestExtremeEndpointsMatchReference(t *testing.T) {
	queries := []string{
		"R1 overlaps R2",
		"R1 overlaps R2 and R2 overlaps R3",
		"R1 overlaps R2 and R2 before R3",
	}
	modes := []struct {
		name string
		opts Options
	}{
		{"uniform", Options{}},
		{"equi-depth", Options{EquiDepth: true}},
		{"adaptive", Options{Adaptive: true}},
	}
	rng := rand.New(rand.NewSource(63))
	for _, sh := range extremeShapes {
		for _, qs := range queries {
			q := query.MustParse(qs)
			rels := make([]*relation.Relation, len(q.Relations))
			for i, s := range q.Relations {
				rels[i] = extremeRelation(rng, s.Name, 24, sh.lo, sh.hi)
			}
			algs := append([]Algorithm{Plan(q, false)}, Algorithms(q)...)
			rows := 0
			for _, k := range []int{1, 4, 16} {
				for _, mode := range modes {
					opts := mode.opts
					opts.Partitions, opts.PartitionsPerDim = k, k
					want, err := runRecovered(Reference{}, q, rels, opts)
					if err != nil {
						t.Fatalf("%s/%s/k=%d/%s: reference: %v", sh.name, qs, k, mode.name, err)
					}
					rows += len(want.Tuples)
					// The boundaries every driver of these queries builds.
					if err := checkBoundaries(q, rels, opts, k); err != nil {
						t.Errorf("%s/%s/k=%d/%s: %v", sh.name, qs, k, mode.name, err)
					}
					for _, alg := range algs {
						label := fmt.Sprintf("%s/%s/k=%d/%s/%s", sh.name, qs, k, mode.name, alg.Name())
						got, err := runRecovered(alg, q, rels, opts)
						switch {
						case err != nil:
							t.Errorf("%s: %v", label, err)
						case !slices.Equal(got.IDs, want.IDs):
							t.Errorf("%s: %d rows, the oracle has %d, or other ids", label, len(got.Tuples), len(want.Tuples))
						}
					}
				}
			}
			if rows == 0 {
				t.Errorf("%s/%s: the oracle has no rows in any case; the shape checks nothing", sh.name, qs)
			}
		}
	}
}

// checkBoundaries builds k partitions as the drivers do (Context.boundaries)
// and checks them (checkPartitioning).
func checkBoundaries(q *query.Query, rels []*relation.Relation, opts Options, k int) error {
	ctx, err := NewContext(nil, q, rels, opts)
	if err != nil {
		return err
	}
	part, source, err := ctx.boundaries(k)
	if err != nil {
		return err
	}
	t0, tn, err := ctx.timeRange()
	if err != nil {
		return err
	}
	if err := checkPartitioning(part, t0, tn, rels); err != nil {
		return fmt.Errorf("%s boundaries: %w", source, err)
	}
	return nil
}

// checkPartitioning is a Partitioning's invariant, checked from outside as
// an interval tree's check() is: its bounds strictly increase, the first is
// t0 and the last tn, and every start of rels' first attribute lies inside,
// in [t0, tn) or at tn when tn is the top of the line (Bounds saturates it
// there, and the last partition takes the point).
func checkPartitioning(part interval.Partitioning, t0, tn interval.Point, rels []*relation.Relation) error {
	n := part.Len()
	bounds := make([]interval.Point, n+1)
	for i := range n {
		bounds[i] = part.PartitionInterval(i).Start
	}
	_, bounds[n] = part.Range()
	for i := 1; i <= n; i++ {
		if bounds[i] <= bounds[i-1] {
			return fmt.Errorf("bound %d is %d, after %d", i, bounds[i], bounds[i-1])
		}
	}
	if bounds[0] != t0 || bounds[n] != tn {
		return fmt.Errorf("bounds run from %d to %d, the data's range from %d to %d", bounds[0], bounds[n], t0, tn)
	}
	for _, r := range rels {
		for _, t := range r.Tuples {
			if s := t.Attrs[0].Start; s < t0 || s > tn || s == tn && tn != math.MaxInt64 {
				return fmt.Errorf("%s tuple %d starts at %d, outside [%d, %d)", r.Schema.Name, t.ID, s, t0, tn)
			}
		}
	}
	return nil
}

// runRecovered is runSingle that reports a failed run, or a panic on the
// calling goroutine, as an error, so one broken case does not hide the
// others.
func runRecovered(alg Algorithm, q *query.Query, rels []*relation.Relation, opts Options) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	ctx, err := NewContext(mr.NewEngine(mr.Config{Store: dfs.NewMem(), Workers: 4}), q, rels, opts)
	if err != nil {
		return nil, err
	}
	return alg.Run(ctx)
}
