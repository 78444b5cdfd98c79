package core

import (
	"math"
	"math/rand"
	"runtime/debug"
	"slices"
	"testing"

	"intervaljoin/internal/dfs"
	"intervaljoin/internal/grid"
	"intervaljoin/internal/interval"
	"intervaljoin/internal/mr"
	"intervaljoin/internal/query"
	"intervaljoin/internal/relation"
)

// renumbered is rels with the same intervals under ids that do not pack: the
// first relation's ids step by 2^40 around zero and the second's by 2^30, so
// the two columns span more than 63 bits between them. Both numberings
// increase with the tuple's position, so they order rows alike.
func renumbered(rels []*relation.Relation) []*relation.Relation {
	out := make([]*relation.Relation, len(rels))
	for k, r := range rels {
		c := &relation.Relation{Schema: r.Schema, Tuples: slices.Clone(r.Tuples)}
		for i := range c.Tuples {
			switch k {
			case 0:
				c.Tuples[i].ID = int64(i-len(c.Tuples)/2) << 40
			case 1:
				c.Tuples[i].ID = int64(i) << 30
			}
		}
		out[k] = c
	}
	return out
}

// TestResultRowsMatchReference is the result path against the oracle: for
// the planner's algorithm, every Algorithms(q) entry and JoinInLine, on the
// 13 two-way predicates and the three-way colocation, hybrid (with and
// without a relation small enough for the planner to broadcast) and sequence
// shapes, under uniform, equi-depth and force-split adaptive boundaries,
// Result.IDs equal Reference's id for id. Every case runs twice — on ids that
// pack, so the join's last level writes words and the result is
// radix-ordered, and on the same intervals renumbered past 63 bits, so rows
// are ids and ordered by comparison — and each run asserts which of the two
// it took. The oracle's own two runs must agree once the second's ids are
// mapped back.
func TestResultRowsMatchReference(t *testing.T) {
	type shape struct {
		name string
		q    *query.Query
		// small names a relation drawn small enough to broadcast.
		small string
	}
	var shapes []shape
	for p := interval.Predicate(0); p < interval.NumPredicates; p++ {
		shapes = append(shapes, shape{name: p.String(), q: query.MustParse("R1 " + p.String() + " R2")})
	}
	shapes = append(shapes,
		shape{name: "colocation", q: query.MustParse("R1 overlaps R2 and R2 overlaps R3")},
		shape{name: "hybrid", q: query.MustParse("R1 before R2 and R1 overlaps R3")},
		shape{name: "hybrid-broadcast", q: query.MustParse("R1 overlaps R2 and R2 before R3"), small: "R3"},
		shape{name: "sequence", q: query.MustParse("R1 before R2 and R2 before R3")},
	)
	layouts := []struct {
		name string
		opts Options
	}{
		{"uniform", Options{}},
		{"equi-depth", Options{EquiDepth: true}},
		{"force-split", Options{Adaptive: true, SplitThreshold: 0.01, MaxVirtual: 3}},
	}
	rng := rand.New(rand.NewSource(27))
	engine := mr.NewEngine(mr.Config{Store: dfs.NewMem(), Workers: 2})
	broadcast := false
	for _, sh := range shapes {
		var rels []*relation.Relation
		for _, s := range sh.q.Relations {
			n := 40
			if s.Name == sh.small {
				n = 3
			}
			rels = append(rels, skewedRelation(rng, s.Name, n, 160, 30))
		}
		algs := append([]Algorithm{Plan(sh.q, false)}, Algorithms(sh.q)...)
		for _, layout := range layouts {
			opts := layout.opts
			opts.Partitions, opts.PartitionsPerDim = 5, 4
			var packedRef *Result
			for _, words := range []bool{true, false} {
				in := rels
				if !words {
					in = renumbered(rels)
				}
				label := sh.name + "/" + layout.name
				ctx, err := NewContext(engine, sh.q, in, opts)
				if err != nil {
					t.Fatal(err)
				}
				if ctx.packing.words != words {
					t.Fatalf("%s: rows are words = %v, the case is for %v", label, ctx.packing.words, words)
				}
				want, err := Reference{}.Run(ctx)
				if err != nil {
					t.Fatal(err)
				}
				checkResultForm(t, label+" reference", want, len(in))
				if len(want.Tuples) == 0 {
					t.Fatalf("%s: the oracle has no rows; the case checks nothing", label)
				}
				if words {
					packedRef = want
				} else if !slices.Equal(positions(in, want.IDs), packedRef.IDs) {
					t.Fatalf("%s: the oracle's rows differ between the two numberings", label)
				}
				for _, alg := range algs {
					got, err := alg.Run(ctx)
					if err != nil {
						t.Fatalf("%s %s: %v", label, alg.Name(), err)
					}
					checkResultForm(t, label+" "+alg.Name(), got, len(in))
					if !slices.Equal(got.IDs, want.IDs) {
						t.Errorf("%s %s (words %v): %d rows, the oracle %d, or other ids", label, alg.Name(), words, len(got.Tuples), len(want.Tuples))
					}
					if p := got.Metrics.Plan; p != nil && len(p.Broadcast) > 0 {
						broadcast = true
					}
				}
				got, err := JoinInLine(ctx)
				if err != nil {
					t.Fatalf("%s in-line: %v", label, err)
				}
				checkResultForm(t, label+" in-line", got, len(in))
				if !slices.Equal(got.IDs, want.IDs) {
					t.Errorf("%s in-line (words %v): %d rows, the oracle %d, or other ids", label, words, len(got.Tuples), len(want.Tuples))
				}
			}
		}
	}
	if !broadcast {
		t.Error("no run broadcast a relation: the broadcast levels were not covered")
	}
}

// positions maps a result's ids back to each tuple's position in its
// relation: the ids FromIntervals gives the tuples renumbered draws from.
func positions(rels []*relation.Relation, ids []int64) []int64 {
	at := make([]map[int64]int64, len(rels))
	for k, r := range rels {
		at[k] = make(map[int64]int64, r.Len())
		for i, t := range r.Tuples {
			at[k][t.ID] = int64(i)
		}
	}
	out := make([]int64, len(ids))
	for i, id := range ids {
		out[i] = at[i%len(rels)][id]
	}
	return out
}

// TestOwnerSpanMatchesIndexOf: the owner rule's range test accepts a start
// at partition c exactly when IndexOf maps it to c, points below and above
// the range included.
func TestOwnerSpanMatchesIndexOf(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sample := make([]interval.Point, 200)
	for i := range sample {
		sample[i] = rng.Int63n(50) * rng.Int63n(50)
	}
	for _, part := range []interval.Partitioning{
		interval.NewUniform(0, 100, 1),
		interval.NewUniform(0, 100, 7),
		interval.NewUniform(-50, 3, 4),
		must(interval.NewEquiDepth(0, 2500, 6, sample)),
	} {
		d := dimension{part: part}
		t0, tn := part.Range()
		for _, pt := range []interval.Point{math.MinInt64, t0 - 1, t0, t0 + 1, tn - 1, tn, tn + 1, math.MaxInt64, (t0 + tn) / 2} {
			for c := 0; c < part.Len(); c++ {
				lo, hi := d.span(c)
				if in := lo <= pt && pt <= hi; in != (part.IndexOf(pt) == c) {
					t.Errorf("%v: point %d in span %d = [%d, %d] is %v, IndexOf says %d", part, pt, c, lo, hi, in, part.IndexOf(pt))
				}
			}
		}
	}
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// TestRowEmissionAllocs pins what leaf words are for: a last-stage reduce
// writes each row as one word into the rows it is handed and allocates
// nothing for it. A two-way reduce and an All-Seq-Matrix one (owner rule on,
// over a grid cell) are given the same values twice, on intervals that make
// N rows and 8·N; beyond what appending the words to a Rows costs, both
// allocate the same number of objects.
func TestRowEmissionAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const k, j = 10, 25 // N = k·j R1 × R2 pairs, 8N when every R2 tuple overlaps
	rels := func(q *query.Query, all bool) []*relation.Relation {
		r1 := make([]interval.Interval, k)
		for i := range r1 {
			r1[i] = interval.New(0, 50)
		}
		r2 := make([]interval.Interval, 8*j)
		for i := range r2 {
			r2[i] = interval.New(60, 70) // after R1's ends: no overlap
			if all || i < j {
				r2[i] = interval.New(10, 60)
			}
		}
		out := []*relation.Relation{relation.FromIntervals("R1", r1), relation.FromIntervals("R2", r2)}
		if len(q.Relations) == 3 {
			out = append(out, relation.FromIntervals("R3", []interval.Interval{{Start: 900, End: 950}, {Start: 990, End: 1000}}))
		}
		return out
	}
	for _, tc := range []struct {
		name string
		alg  interface {
			Algorithm
			stages(*Context, *chainEnv) ([]mr.Stage, *execPlan, error)
		}
		query string
		key   int64
		rows  int
	}{
		{"two-way", TwoWay{}, "R1 overlaps R2", 0, k * j},
		// Two partitions a dimension over [0, 1000]: R1 and R2 start in the
		// first, R3 in the second, so every row is cell (0, 1)'s.
		{"all-seq-matrix", SeqMatrix{}, "R1 overlaps R2 and R2 before R3", grid.MustNew([]int{2, 2}).ID([]int{0, 1}), k * j * 2},
	} {
		q := query.MustParse(tc.query)
		objects := make([]float64, 2)
		for i, all := range []bool{false, true} {
			engine := mr.NewEngine(mr.Config{Store: dfs.NewMem(), Workers: 1})
			ctx, err := NewContext(engine, q, rels(q, all), Options{Partitions: 1, PartitionsPerDim: 2})
			if err != nil {
				t.Fatal(err)
			}
			env := &chainEnv{opts: ctx.Opts.withDefaults(), d: query.Decompose(q), res: &Result{Metrics: mr.NewMetrics(tc.alg.Name())}}
			stages, _, err := tc.alg.stages(ctx, env)
			if err != nil {
				t.Fatal(err)
			}
			job := stages[len(stages)-1].Job
			var values []string
			for rel, r := range ctx.Rels {
				for pos := range r.Tuples {
					values = append(values, ctx.tagged(rel, pos))
				}
			}
			want := tc.rows
			if all {
				want *= 8
			}
			reduce := func() {
				out := ctx.packing.rows()
				if err := job.ReduceRows(tc.key, values, out); err != nil || out.Len() != want {
					t.Fatalf("%s: %d rows, want %d (%v)", tc.name, out.Len(), want, err)
				}
				out.Release()
			}
			fill := func() {
				out := ctx.packing.rows()
				for range want {
					out.Append()[0] = 0
				}
				out.Release()
			}
			if !ctx.packing.words {
				t.Fatalf("%s: rows do not pack", tc.name)
			}
			objects[i] = testing.AllocsPerRun(100, reduce) - testing.AllocsPerRun(100, fill)
		}
		t.Logf("%s: %.0f objects a reduce for %d rows and %.0f for %d", tc.name, objects[0], tc.rows, objects[1], 8*tc.rows)
		// The pooled join state and row chunks are recycled, so the counts
		// are equal — up to the few objects a run that the race detector's
		// pool drops add, far below one a row (N = 250).
		if math.Abs(objects[0]-objects[1]) > 20 {
			t.Errorf("%s: a reduce allocates %.0f objects for %d rows and %.0f for %d", tc.name, objects[0], tc.rows, objects[1], 8*tc.rows)
		}
	}
}
