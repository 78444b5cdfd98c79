package core

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"intervaljoin/internal/dfs"
	"intervaljoin/internal/interval"
	"intervaljoin/internal/mr"
	"intervaljoin/internal/query"
	"intervaljoin/internal/relation"
)

func benchCands(n int) [][]relation.Tuple {
	rng := rand.New(rand.NewSource(1))
	mk := func() []relation.Tuple {
		out := make([]relation.Tuple, n)
		for i := range out {
			s := rng.Int63n(100_000)
			out[i] = mkTuple(int64(i), interval.New(s, s+rng.Int63n(100)))
		}
		return out
	}
	return [][]relation.Tuple{mk(), mk(), mk()}
}

// BenchmarkEnumeratorChain measures the reduce-side join core: a 3-way
// overlaps chain over sorted range-pruned candidate lists.
func BenchmarkEnumeratorChain(b *testing.B) {
	q := query.MustParse("R1 overlaps R2 and R2 overlaps R3")
	cands := benchCands(2_000)
	e := newEnumerator(q.Conds, []int{0, 1, 2})
	b.ReportAllocs()
	b.ResetTimer()
	count := 0
	for i := 0; i < b.N; i++ {
		e.run(cands, func([]relation.Tuple) error { count++; return nil })
	}
	b.ReportMetric(float64(count)/float64(b.N), "pairs/op")
}

// BenchmarkEnumeratorSequence: a before-chain, whose output is much denser.
func BenchmarkEnumeratorSequence(b *testing.B) {
	q := query.MustParse("R1 before R2 and R2 before R3")
	cands := benchCands(60)
	e := newEnumerator(q.Conds, []int{0, 1, 2})
	b.ReportAllocs()
	b.ResetTimer()
	count := 0
	for i := 0; i < b.N; i++ {
		e.run(cands, func([]relation.Tuple) error { count++; return nil })
	}
	b.ReportMetric(float64(count)/float64(b.N), "pairs/op")
}

// BenchmarkEnumeratorMixed covers the probe fallback: a query mixing
// colocation and sequence predicates on the same level so the sweep windows
// degrade gracefully to binary-searched bounds.
func BenchmarkEnumeratorMixed(b *testing.B) {
	q := query.MustParse("R1 overlaps R2 and R1 before R3 and R2 overlaps R3")
	cands := benchCands(700)
	e := newEnumerator(q.Conds, []int{0, 1, 2})
	b.ReportAllocs()
	b.ResetTimer()
	count := 0
	for i := 0; i < b.N; i++ {
		e.run(cands, func([]relation.Tuple) error { count++; return nil })
	}
	b.ReportMetric(float64(count)/float64(b.N), "pairs/op")
}

// benchReduceKernel measures one whole reduce task through the columnar
// kernel: tagged-record decode into the arena, endpoint-column seal, and
// the specialized sweep over a 3-way overlaps chain. n is the per-relation
// candidate-list length; density is held constant as n scales so the three
// sizes expose the decode-, seal- and sweep-dominated regimes.
func benchReduceKernel(b *testing.B, n int) {
	q := query.MustParse("R1 overlaps R2 and R2 overlaps R3")
	rng := rand.New(rand.NewSource(4))
	values := make([]string, 0, 3*n)
	for rel := 0; rel < 3; rel++ {
		for i := 0; i < n; i++ {
			s := rng.Int63n(int64(n) * 20)
			values = append(values, encodeTagged(rel, mkTuple(int64(i), interval.New(s, s+rng.Int63n(40)))))
		}
	}
	e := newEnumerator(q.Conds, []int{0, 1, 2})
	lvl := allRelations(3)
	b.ReportAllocs()
	b.ResetTimer()
	count := 0
	for i := 0; i < b.N; i++ {
		if err := e.runTagged(values, lvl, func([]relation.Tuple) error { count++; return nil }); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(count)/float64(b.N), "pairs/op")
}

func BenchmarkReduceKernel16(b *testing.B)   { benchReduceKernel(b, 16) }
func BenchmarkReduceKernel256(b *testing.B)  { benchReduceKernel(b, 256) }
func BenchmarkReduceKernel4096(b *testing.B) { benchReduceKernel(b, 4096) }

// BenchmarkSemijoinReduce measures the RCCIS marking primitive.
func BenchmarkSemijoinReduce(b *testing.B) {
	q := query.MustParse("R1 overlaps R2 and R2 overlaps R3")
	cands := benchCands(2_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		semijoinReduce(q.Conds, []int{0, 1, 2}, cands)
	}
}

// BenchmarkMarkCrossingParticipants measures RCCIS cycle-1 decision making
// for one partition.
func BenchmarkMarkCrossingParticipants(b *testing.B) {
	q := query.MustParse("R1 overlaps R2 and R2 overlaps R3")
	cands := benchCands(2_000)
	part := interval.NewUniform(0, 100_100, 16)
	verts := firstAttrs([]int{0, 1, 2})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		markCrossingParticipants(q.Conds, part, 4, verts, cands)
	}
}

// BenchmarkEncodeTagged measures the member encoder — what builds a
// relation's slab, once per tuple per Context; the map side itself emits
// substrings. The point of interest is allocs/op: none.
func BenchmarkEncodeTagged(b *testing.B) {
	t := relation.Tuple{ID: 123456, Attrs: []interval.Interval{
		interval.New(987654, 998765), interval.New(12, 64000),
	}}
	buf := make([]byte, 0, memberLen(2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if buf = appendMember(buf[:0], 7, t); len(buf) != memberLen(2) {
			b.Fatal("short record")
		}
	}
}

// BenchmarkDecodeMember measures the reduce side's decoder: one tagged
// record split and loaded into a grown arena.
func BenchmarkDecodeMember(b *testing.B) {
	rec := encodeTagged(7, relation.Tuple{ID: 123456, Attrs: []interval.Interval{
		interval.New(987654, 998765), interval.New(12, 64000),
	}})
	var arena relation.Arena
	arena.Grow(1, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arena.Reset()
		_, body, err := splitTagged(rec)
		if err == nil {
			_, err = arena.AppendBinary(body)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

// benchChainAlg runs a multi-cycle algorithm end-to-end on a fresh engine.
func benchChainAlg(b *testing.B, alg Algorithm) {
	b.Helper()
	rng := rand.New(rand.NewSource(2))
	q := query.MustParse("R1 overlaps R2 and R2 overlaps R3")
	rels := make([]*relation.Relation, len(q.Relations))
	for i, s := range q.Relations {
		rels[i] = randomRelation(rng, s.Name, 20_000, 400_000, 12)
	}
	opts := Options{Partitions: 16}
	engine := mr.NewEngine(mr.Config{Store: dfs.NewMem()})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ctx, err := NewContext(engine, q, rels, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := alg.Run(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Tuples) == 0 {
			b.Fatal("empty join output")
		}
	}
}

// benchShuffleAlg runs a replication-heavy sequence join and reports the
// logical vs physical shuffle volume: logicalB/op is what a per-partition
// emit ships (one record copy per covered reducer), physB/op is what the
// range-coalesced shuffle actually stores.
func benchShuffleAlg(b *testing.B, alg Algorithm) {
	b.Helper()
	rng := rand.New(rand.NewSource(3))
	q := query.MustParse("R1 before R2 and R2 before R3")
	rels := make([]*relation.Relation, len(q.Relations))
	for i, s := range q.Relations {
		rels[i] = randomRelation(rng, s.Name, 60, 400_000, 12)
	}
	opts := Options{Partitions: 16, PartitionsPerDim: 16}
	b.ReportAllocs()
	b.ResetTimer()
	var m *mr.Metrics
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		store := dfs.NewMem()
		engine := mr.NewEngine(mr.Config{Store: store})
		ctx, err := NewContext(engine, q, rels, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := alg.Run(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Tuples) == 0 {
			b.Fatal("empty join output")
		}
		m = res.Metrics
	}
	b.ReportMetric(float64(m.IntermediateBytes), "logicalB/op")
	b.ReportMetric(float64(m.PhysicalBytes), "physB/op")
	b.ReportMetric(m.ReplicationFactor(), "repl")
}

func BenchmarkShuffleAllRep(b *testing.B)    { benchShuffleAlg(b, AllRep{}) }
func BenchmarkShuffleAllMatrix(b *testing.B) { benchShuffleAlg(b, AllMatrix{}) }

// BenchmarkChainRCCISPipelined and BenchmarkChainPASMPipelined time the two
// marking chains end to end on benchChainAlg's input: RCCIS's mark and join,
// PASM's mark, prune and join. Every boundary of both is a barrier — a mark
// or prune cycle writes only its decisions, which reach the next cycle by
// tap — so the names' "Pipelined" is the runner's one mode (RunPipeline),
// not a streamed boundary.
func BenchmarkChainRCCISPipelined(b *testing.B) { benchChainAlg(b, RCCIS{}) }
func BenchmarkChainPASMPipelined(b *testing.B)  { benchChainAlg(b, PASM{}) }

// BenchmarkBroadcast checks broadcastSmall's rule against the clock: the
// batch-matrix recipe (R1 overlaps R2 and R2 before R3, 3 100 tuples in R1
// and R2) with R3 growing, through the planner and through the named
// All-Seq-Matrix. At the default 6 partitions per dimension the rule takes
// R3 out while 6·|R3| ≤ |R1| + |R2| = 6 200, i.e. up to |R3| = 1 033; at
// 1 100 both sub-benchmarks run the same plan. broadcast/op is how many
// relations the run took out, pairs/op what it counts as shipped.
func BenchmarkBroadcast(b *testing.B) {
	q := query.MustParse("R1 overlaps R2 and R2 before R3")
	for _, n := range []int{15, 60, 240, 600, 1100} {
		rng := rand.New(rand.NewSource(1))
		rels := []*relation.Relation{
			randomRelation(rng, "R1", 3100, 200_000, 120),
			randomRelation(rng, "R2", 3100, 200_000, 120),
			randomRelation(rng, "R3", n, 200_000, 120),
		}
		for _, arm := range []struct {
			name string
			alg  Algorithm
		}{{"planner", Plan(q, false)}, {"all-seq-matrix", SeqMatrix{}}} {
			b.Run(fmt.Sprintf("R3=%d/%s", n, arm.name), func(b *testing.B) {
				engine := mr.NewEngine(mr.Config{Store: dfs.NewMem()})
				var res *Result
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ctx, err := NewContext(engine, q, rels, Options{})
					if err == nil {
						res, err = arm.alg.Run(ctx)
					}
					if err != nil {
						b.Fatal(err)
					}
				}
				var taken int
				if res.Metrics.Plan != nil {
					taken = len(res.Metrics.Plan.Broadcast)
				}
				b.ReportMetric(float64(taken), "broadcast/op")
				b.ReportMetric(float64(res.Metrics.IntermediatePairs), "pairs/op")
			})
		}
	}
}

// benchSetRows orders n rows of w ids below limit, the dev-loop number for
// Result.setRows. The rows arrive as a join's do: in short stretches that
// share their leading id, the stretches in no order, and packed as the
// relations' id ranges say — a word a row, or w ids when they do not fit.
// With more than one range, the rows are filed under ranges of the first
// column's ids by two walkers, as a split in-line join files them
// (fileRows), and setRanges orders them on up to workers goroutines.
func benchSetRows(b *testing.B, n, w int, limit int64, ranges, workers int) {
	b.Helper()
	rng := rand.New(rand.NewSource(4))
	const stretch = 4
	data := make([]int64, 0, n*w)
	for len(data) < n*w {
		lead := rng.Int63n(limit)
		for s := 0; s < stretch && len(data) < n*w; s++ {
			data = append(data, lead)
			for k := 1; k < w; k++ {
				data = append(data, rng.Int63n(limit))
			}
		}
	}
	// The relations number their tuples 0..limit-1.
	lo, hi := make([]int64, w), make([]int64, w)
	for k := range hi {
		hi[k] = limit - 1
	}
	p := newRowPacking(lo, hi)
	cuts := idCuts(0, limit-1, ranges)
	var res Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if ranges == 1 {
			rows := collect(&p, w, data)
			b.StartTimer()
			res.setRows(rows, &p, nil, true)
			continue
		}
		rows := fileRows(&p, w, data, cuts, 2)
		b.StartTimer()
		res.setRanges(&p, rows, ranges, workers, nil, true)
	}
	if len(res.Tuples) != n {
		b.Fatalf("%d rows of %d", len(res.Tuples), n)
	}
}

// The shapes that matter: batch-skew's and batch-matrix's results, which
// pack into 20 and 30 bits, and ids too wide to pack, which take the
// comparison sort; then the packed shapes filed under two id ranges and
// ordered range by range, on the caller alone and on two workers, at
// batch-skew's size and at a quarter of it.
func BenchmarkSetRows(b *testing.B) {
	b.Run("skew-64kx2", func(b *testing.B) { benchSetRows(b, 64_000, 2, 1000, 1, 1) })
	b.Run("matrix-58kx3", func(b *testing.B) { benchSetRows(b, 58_000, 3, 1000, 1, 1) })
	b.Run("wide-64kx2", func(b *testing.B) { benchSetRows(b, 64_000, 2, 1<<40, 1, 1) })
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("skew-64kx2/ranges=2/workers=%d", workers), func(b *testing.B) { benchSetRows(b, 64_000, 2, 1000, 2, workers) })
		b.Run(fmt.Sprintf("matrix-58kx3/ranges=2/workers=%d", workers), func(b *testing.B) { benchSetRows(b, 58_000, 3, 1000, 2, workers) })
		b.Run(fmt.Sprintf("skew-16kx2/ranges=2/workers=%d", workers), func(b *testing.B) { benchSetRows(b, 16_000, 2, 1000, 2, workers) })
	}
}

// inLineShape is one query of BenchmarkInLineVsJob with its inputs at n tuples
// in all, drawn at a density that does not change with n.
type inLineShape struct {
	name, query string
	rels        func(rng *rand.Rand, n int) []*relation.Relation
	// most is the largest n the sweep runs, when below 2^17.
	most int
}

var inLineShapes = []inLineShape{
	// batch-sparse's chain: three equal relations, a start every 100 points
	// in each, intervals up to 100 long.
	{"chain", "R1 overlaps R2 and R2 overlaps R3", func(rng *rand.Rand, n int) []*relation.Relation {
		k := n / 3
		return []*relation.Relation{
			randomRelation(rng, "R1", k, int64(k)*100, 100),
			randomRelation(rng, "R2", k, int64(k)*100, 100),
			randomRelation(rng, "R3", n-2*k, int64(k)*100, 100),
		}
	}, 0},
	// batch-matrix's hybrid: R1 and R2 at its density, and its 60 tuples in
	// R3, which the planner broadcasts.
	{"hybrid", "R1 overlaps R2 and R2 before R3", func(rng *rand.Rand, n int) []*relation.Relation {
		k := (n - 60) / 2
		domain := int64(k) * 200_000 / 3100
		return []*relation.Relation{
			randomRelation(rng, "R1", k, domain, 120),
			randomRelation(rng, "R2", n-60-k, domain, 120),
			randomRelation(rng, "R3", 60, domain, 120),
		}
	}, 0},
	// batch-skew's two-way join at its density: blocks of 1 000 tuples a
	// relation, each with power-law starts over 100 000 points, intervals 1
	// to 100 long, laid end to end so that the rows grow as the tuples do.
	{"skew", "R1 overlaps R2", func(rng *rand.Rand, n int) []*relation.Relation {
		skewed := func(name string, k int) *relation.Relation {
			ivs := make([]interval.Interval, k)
			for i := range ivs {
				block := int64(i / 1000)
				s := block*100_000 + powerLawStart(rng.Float64(), int64(min(k, 1000))*100)
				ivs[i] = interval.New(s, s+1+rng.Int63n(100))
			}
			return relation.FromIntervals(name, ivs)
		}
		return []*relation.Relation{skewed("R1", n/2), skewed("R2", n-n/2)}
	}, 1 << 15},
	// The hybrid with every relation's ids in start order, as a loader
	// numbers a file sorted by time: a first-relation id range is then a
	// stretch of the line, and the early ones, which have more R3 tuples
	// after them, hold more rows — the case the id ranges balance worst.
	{"hybrid-sorted", "R1 overlaps R2 and R2 before R3", func(rng *rand.Rand, n int) []*relation.Relation {
		k := (n - 60) / 2
		domain := int64(k) * 200_000 / 3100
		sorted := func(name string, m int) *relation.Relation {
			ivs := make([]interval.Interval, m)
			for i := range ivs {
				s := rng.Int63n(domain)
				ivs[i] = interval.New(s, s+rng.Int63n(121))
			}
			slices.SortFunc(ivs, func(a, b interval.Interval) int { return cmp.Compare(a.Start, b.Start) })
			return relation.FromIntervals(name, ivs)
		}
		return []*relation.Relation{sorted("R1", k), sorted("R2", n-60-k), sorted("R3", 60)}
	}, 0},
	// Example_spatial's General query: cities and one river for every 64
	// cities, on a map whose area grows with n.
	{"general", "city.x overlaps river.x and city.y overlaps river.y", func(rng *rand.Rand, n int) []*relation.Relation {
		side := int64(10_000 * math.Sqrt(float64(n)/3040))
		box := func(lo, hi int64) interval.Interval {
			length := lo + rng.Int63n(hi-lo+1)
			s := rng.Int63n(side - length)
			return interval.New(s, s+length)
		}
		rivers := relation.New(relation.NewSchema("river", "x", "y"))
		for range n / 64 {
			rivers.Append(box(side/5, 3*side/5), box(100, 400))
		}
		cities := relation.New(relation.NewSchema("city", "x", "y"))
		for range n - rivers.Len() {
			cities.Append(box(100, 400), box(100, 400))
		}
		return []*relation.Relation{cities, rivers}
	}, 0},
}

// powerLawStart maps u in [0, 1) onto [0, span] with density proportional to
// (1+x)^-1.1: the repository benchmark's skewed starts.
func powerLawStart(u float64, span int64) int64 {
	const a = 1 - 1.1
	top := math.Pow(1+float64(span), a)
	return min(max(int64(math.Pow(1-u*(1-top), 1/a)-1), 0), span)
}

// BenchmarkInLineVsJob is the sweep the in-line rule rests on: each shape at
// n tuples in all, from NewContext on, as Engine.Run runs them, three ways —
// the planner's job on an engine with the default workers, the in-line join
// on one goroutine, and the in-line join split over the workers as
// JoinInLine splits it (inLineSplit). The three run in turn, each first in
// turn, so that a busy host slows them alike. It reports each arm's median
// wall (job-ms, one-ms, split-ms), the share of runs in which the split beat
// one goroutine (split-wins) and in which it beat the job (in-line-wins), the
// first level's candidates (first/op) and the join's output (rows/op).
func BenchmarkInLineVsJob(b *testing.B) {
	for _, sh := range inLineShapes {
		q := query.MustParse(sh.query)
		for n := 1 << 10; n <= cmp.Or(sh.most, 1<<17); n <<= 1 {
			rels := sh.rels(rand.New(rand.NewSource(1)), n)
			arms := [3]func(*Context) (*Result, error){
				Plan(q, false).Run,
				func(ctx *Context) (*Result, error) { return joinInLine(ctx, inLineSplit{1, 1, 1}, nil, true) },
				JoinInLine,
			}
			b.Run(fmt.Sprintf("%s/n=%d", sh.name, n), func(b *testing.B) {
				var walls [3][]float64
				splitWins, inLineWins, rows := 0, 0, 0
				for i := 0; i < b.N; i++ {
					var took [3]time.Duration
					for k := range arms {
						arm := (i + k) % len(arms)
						start := time.Now()
						ctx, err := NewContext(mr.NewEngine(mr.Config{Store: dfs.NewMem()}), q, rels, Options{})
						var res *Result
						if err == nil {
							res, err = arms[arm](ctx)
						}
						if err != nil {
							b.Fatal(err)
						}
						took[arm] = time.Since(start)
						walls[arm] = append(walls[arm], took[arm].Seconds()*1e3)
						rows = len(res.Tuples)
					}
					if took[2] < took[1] {
						splitWins++
					}
					if took[2] <= took[0] {
						inLineWins++
					}
				}
				b.ReportMetric(median(walls[0]), "job-ms")
				b.ReportMetric(median(walls[1]), "one-ms")
				b.ReportMetric(median(walls[2]), "split-ms")
				b.ReportMetric(float64(splitWins)/float64(b.N), "split-wins")
				b.ReportMetric(float64(inLineWins)/float64(b.N), "in-line-wins")
				b.ReportMetric(float64(rels[0].Len()), "first/op")
				b.ReportMetric(float64(rows), "rows/op")
			})
		}
	}
}

// median is the middle of v, which it sorts.
func median(v []float64) float64 {
	slices.Sort(v)
	return v[len(v)/2]
}
