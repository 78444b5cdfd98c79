package core

import (
	"fmt"
	"math/rand"
	"testing"

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
		if err := e.runTagged(values, lvl, nil, func([]relation.Tuple) error { count++; return nil }); err != nil {
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

// BenchmarkEncodeMarkedBody measures the mark reducer's writer — the member
// it received with the flag appended, one record per tuple leaving every
// mark cycle.
func BenchmarkEncodeMarkedBody(b *testing.B) {
	member := encodeTagged(7, relation.Tuple{ID: 123456, Attrs: []interval.Interval{
		interval.New(987654, 998765), interval.New(12, 64000),
	}})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := member + flagSuffix[i%2]; len(s) == 0 {
			b.Fatal("empty record")
		}
	}
}

// BenchmarkEncodeVector measures the Gen-Matrix merge reducer's writer: a
// member with one flag byte per vertex behind it.
func BenchmarkEncodeVector(b *testing.B) {
	member := encodeTagged(3, relation.Tuple{ID: 123456, Attrs: []interval.Interval{
		interval.New(987654, 998765), interval.New(12, 64000),
	}})
	flags := []byte{1, 0, 1, 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := member + string(flags); len(s) == 0 {
			b.Fatal("empty record")
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
func benchSetRows(b *testing.B, n, w int, limit int64) {
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
	var res Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		rows := collect(&p, w, data)
		b.StartTimer()
		res.setRows(rows, &p)
	}
	if len(res.Tuples) != n {
		b.Fatalf("%d rows of %d", len(res.Tuples), n)
	}
}

// The shapes that matter: batch-skew's and batch-matrix's results, which
// pack into 20 and 30 bits, and ids too wide to pack, which take the
// comparison sort.
func BenchmarkSetRows(b *testing.B) {
	b.Run("skew-64kx2", func(b *testing.B) { benchSetRows(b, 64_000, 2, 1000) })
	b.Run("matrix-58kx3", func(b *testing.B) { benchSetRows(b, 58_000, 3, 1000) })
	b.Run("wide-64kx2", func(b *testing.B) { benchSetRows(b, 64_000, 2, 1<<40) })
}
