package intervaljoin

// One benchmark per table and figure of the paper's evaluation, each
// running the experiment's compared algorithms on a scaled-down instance of
// its workload. Besides ns/op, every benchmark reports the communication
// metrics the paper's results are built on: intermediate key-value pairs
// ("pairs/op"), replicated intervals ("repl/op") and reducer load imbalance
// ("imbalance"). Regenerate everything with:
//
//	go test -bench=. -benchmem
//
// The full experiment tables (all sizes, all rows) come from
// cmd/experiments; these benchmarks pin one representative configuration
// per artefact so regressions are visible in CI.

import (
	"fmt"
	"testing"

	"intervaljoin/internal/core"
	"intervaljoin/internal/dfs"
	"intervaljoin/internal/mr"
	"intervaljoin/internal/obs"
	"intervaljoin/internal/query"
	"intervaljoin/internal/relation"
	"intervaljoin/internal/trace"
	"intervaljoin/internal/workload"
)

// benchRun executes one algorithm repeatedly on the prepared inputs.
func benchRun(b *testing.B, alg core.Algorithm, q *query.Query, rels []*relation.Relation, opts core.Options) {
	b.Helper()
	var lastPairs, lastRepl int64
	var lastImb float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine := mr.NewEngine(mr.Config{Store: dfs.NewMem()})
		ctx, err := core.NewContext(engine, q, rels, opts)
		if err != nil {
			b.Fatal(err)
		}
		res, err := alg.Run(ctx)
		if err != nil {
			b.Fatal(err)
		}
		lastPairs = res.Metrics.IntermediatePairs
		lastRepl = res.ReplicatedIntervals
		lastImb = res.Metrics.LoadImbalance()
	}
	b.ReportMetric(float64(lastPairs), "pairs/op")
	b.ReportMetric(float64(lastRepl), "repl/op")
	b.ReportMetric(lastImb, "imbalance")
}

// table1Data builds Q1's synthetic relations at a benchmark-friendly size.
func table1Data(b *testing.B, n int) (*query.Query, []*relation.Relation) {
	b.Helper()
	q := query.MustParse("R1 overlaps R2 and R2 overlaps R3")
	rels := make([]*relation.Relation, 3)
	for i := range rels {
		r, err := workload.Generate(workload.Table1Spec(fmt.Sprintf("R%d", i+1), n, int64(i+1)))
		if err != nil {
			b.Fatal(err)
		}
		rels[i] = r
	}
	return q, rels
}

// BenchmarkTable1 is Table 1: Q1 colocation chain, 2-way Cascade vs
// All-Replicate vs RCCIS on 16 reducers.
func BenchmarkTable1(b *testing.B) {
	q, rels := table1Data(b, 2_000)
	opts := core.Options{Partitions: 16}
	b.Run("cascade", func(b *testing.B) { benchRun(b, core.Cascade{}, q, rels, opts) })
	b.Run("all-rep", func(b *testing.B) { benchRun(b, core.AllRep{}, q, rels, opts) })
	b.Run("rccis", func(b *testing.B) { benchRun(b, core.RCCIS{}, q, rels, opts) })
}

// BenchmarkTable2 is Table 2: the star overlap self-join over simulated P04
// packet trains, Cascade vs RCCIS.
func BenchmarkTable2(b *testing.B) {
	profile, err := trace.ProfileByName("P04")
	if err != nil {
		b.Fatal(err)
	}
	packets, err := trace.Synthesize(profile, 0.01, 1)
	if err != nil {
		b.Fatal(err)
	}
	trains := trace.ReplicateTrains(trace.BuildTrains(packets, trace.DefaultCutoffMs), 3_000, profile.DurationMs, 1)
	q := query.MustParse("T1 overlaps T2 and T2 overlaps T3")
	rels := []*relation.Relation{
		trace.TrainsRelation("T1", trains),
		trace.TrainsRelation("T2", trains),
		trace.TrainsRelation("T3", trains),
	}
	opts := core.Options{Partitions: 16}
	b.Run("cascade", func(b *testing.B) { benchRun(b, core.Cascade{}, q, rels, opts) })
	b.Run("rccis", func(b *testing.B) { benchRun(b, core.RCCIS{}, q, rels, opts) })
}

// BenchmarkFigure4 is Figure 4: the 2-way before join, All-Replicate's
// skewed 1-D reducers vs All-Matrix's balanced grid (watch "imbalance").
func BenchmarkFigure4(b *testing.B) {
	q := query.MustParse("R1 before R2")
	rels := make([]*relation.Relation, 2)
	for i := range rels {
		r, err := workload.Generate(workload.Spec{
			Name: fmt.Sprintf("R%d", i+1), NumIntervals: 400,
			StartDist: workload.Uniform, LengthDist: workload.Uniform,
			TMin: 0, TMax: 10_000, IMin: 1, IMax: 100, Seed: int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		rels[i] = r
	}
	b.Run("all-rep", func(b *testing.B) { benchRun(b, core.AllRep{}, q, rels, core.Options{Partitions: 6}) })
	b.Run("all-matrix", func(b *testing.B) { benchRun(b, core.AllMatrix{}, q, rels, core.Options{PartitionsPerDim: 3}) })
}

// figure5Data builds Q2's relations.
func figure5Data(b *testing.B, n int) (*query.Query, []*relation.Relation) {
	b.Helper()
	q := query.MustParse("R1 before R2 and R2 before R3")
	rels := make([]*relation.Relation, 3)
	for i := range rels {
		r, err := workload.Generate(workload.Figure5Spec(fmt.Sprintf("R%d", i+1), n, int64(i+1)))
		if err != nil {
			b.Fatal(err)
		}
		rels[i] = r
	}
	return q, rels
}

// BenchmarkFigure5a is Figure 5(a): Q2 sequence chain on synthetic data,
// All-Matrix (6^3 grid) vs matrix-stepped Cascade (11^2 per step) vs
// All-Replicate (64 reducers).
func BenchmarkFigure5a(b *testing.B) {
	q, rels := figure5Data(b, 100)
	b.Run("all-matrix", func(b *testing.B) { benchRun(b, core.AllMatrix{}, q, rels, core.Options{PartitionsPerDim: 6}) })
	b.Run("cascade-matrix", func(b *testing.B) {
		benchRun(b, core.Cascade{MatrixSteps: true}, q, rels, core.Options{Partitions: 16, PartitionsPerDim: 11})
	})
	b.Run("all-rep", func(b *testing.B) { benchRun(b, core.AllRep{}, q, rels, core.Options{Partitions: 64}) })
}

// BenchmarkFigure5b is Figure 5(b): Q2 over simulated P04 packet trains.
func BenchmarkFigure5b(b *testing.B) {
	profile, err := trace.ProfileByName("P04")
	if err != nil {
		b.Fatal(err)
	}
	packets, err := trace.Synthesize(profile, 0.005, 1)
	if err != nil {
		b.Fatal(err)
	}
	trains := trace.BuildTrains(packets, trace.DefaultCutoffMs)
	if len(trains) > 100 {
		trains = trains[:100]
	}
	q := query.MustParse("R1 before R2 and R2 before R3")
	rels := []*relation.Relation{
		trace.TrainsRelation("R1", trains),
		trace.TrainsRelation("R2", trains),
		trace.TrainsRelation("R3", trains),
	}
	b.Run("all-matrix", func(b *testing.B) { benchRun(b, core.AllMatrix{}, q, rels, core.Options{PartitionsPerDim: 6}) })
	b.Run("cascade-matrix", func(b *testing.B) {
		benchRun(b, core.Cascade{MatrixSteps: true}, q, rels, core.Options{Partitions: 16, PartitionsPerDim: 11})
	})
	b.Run("all-rep", func(b *testing.B) { benchRun(b, core.AllRep{}, q, rels, core.Options{Partitions: 64}) })
}

// table3Data builds Q4's relations with the paper's size ratios and a given
// R3 maximum interval length.
func table3Data(b *testing.B, maxLen int64) (*query.Query, []*relation.Relation) {
	b.Helper()
	q := query.MustParse("R1 before R2 and R1 overlaps R3")
	r1, err := workload.Generate(workload.Table3Spec("R1", 5_000, 1000, 1))
	if err != nil {
		b.Fatal(err)
	}
	r2, err := workload.Generate(workload.Table3Spec("R2", 100, 1000, 2))
	if err != nil {
		b.Fatal(err)
	}
	r3, err := workload.Generate(workload.Table3Spec("R3", 1_000, maxLen, 3))
	if err != nil {
		b.Fatal(err)
	}
	return q, []*relation.Relation{r1, r2, r3}
}

// BenchmarkTable3 is Table 3: the hybrid Q4 at both ends of the pruning
// spectrum — long R3 intervals (little pruning, FCTS drowned by its
// materialised component outputs) and short ones (strong pruning, PASM
// ahead) — FCTS vs All-Seq-Matrix vs PASM.
func BenchmarkTable3(b *testing.B) {
	for _, maxLen := range []int64{1000, 200} {
		q, rels := table3Data(b, maxLen)
		opts := core.Options{PartitionsPerDim: 6}
		b.Run(fmt.Sprintf("maxlen=%d/fcts", maxLen), func(b *testing.B) { benchRun(b, core.FCTS{}, q, rels, opts) })
		b.Run(fmt.Sprintf("maxlen=%d/all-seq-matrix", maxLen), func(b *testing.B) { benchRun(b, core.SeqMatrix{}, q, rels, opts) })
		b.Run(fmt.Sprintf("maxlen=%d/pasm", maxLen), func(b *testing.B) { benchRun(b, core.PASM{}, q, rels, opts) })
	}
}

// BenchmarkTable4 is Table 4: Gen-Matrix on the 4-attribute Q5, 5 partitions
// per dimension (375 of 625 cells consistent).
func BenchmarkTable4(b *testing.B) {
	q := query.MustParse("R1.I before R2.I and R1.I overlaps R3.I and R1.A = R3.A and R2.B = R3.B")
	specs := workload.Table4Specs(1_000, 100, 1_000, 50, 1)
	rels := make([]*relation.Relation, len(specs))
	for i, s := range specs {
		r, err := workload.GenerateMulti(s)
		if err != nil {
			b.Fatal(err)
		}
		rels[i] = r
	}
	opts := core.Options{PartitionsPerDim: 5}
	b.Run("gen-matrix", func(b *testing.B) { benchRun(b, core.GenMatrix{}, q, rels, opts) })
}

// BenchmarkAblationD1D2 measures All-Matrix's routing conditions: dropping
// D1 (consistency filter) or D2 (pin-own-dimension) inflates pairs/op while
// producing the same output.
func BenchmarkAblationD1D2(b *testing.B) {
	q, rels := figure5Data(b, 100)
	opts := core.Options{PartitionsPerDim: 6}
	b.Run("full", func(b *testing.B) { benchRun(b, core.AllMatrix{}, q, rels, opts) })
	b.Run("no-d1", func(b *testing.B) {
		benchRun(b, core.AllMatrix{DisableConsistencyFilter: true}, q, rels, opts)
	})
	b.Run("no-d2", func(b *testing.B) {
		benchRun(b, core.AllMatrix{BroadcastAllCells: true}, q, rels, opts)
	})
}

// BenchmarkAblationPartitions sweeps o, the grid partitions per dimension.
func BenchmarkAblationPartitions(b *testing.B) {
	q, rels := figure5Data(b, 100)
	for _, o := range []int{2, 4, 6, 8, 12} {
		b.Run(fmt.Sprintf("o=%d", o), func(b *testing.B) {
			benchRun(b, core.AllMatrix{}, q, rels, core.Options{PartitionsPerDim: o})
		})
	}
}

// BenchmarkAblationSkew compares uniform-width and equi-depth partitioning
// for RCCIS on zipf-skewed starts (watch the imbalance metric).
func BenchmarkAblationSkew(b *testing.B) {
	q := query.MustParse("R1 overlaps R2 and R2 overlaps R3")
	rels := make([]*relation.Relation, 3)
	for i := range rels {
		r, err := workload.Generate(workload.Spec{
			Name: fmt.Sprintf("R%d", i+1), NumIntervals: 500,
			StartDist: workload.Zipf, LengthDist: workload.Uniform,
			TMin: 0, TMax: 10_000, IMin: 1, IMax: 5, Seed: int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		rels[i] = r
	}
	b.Run("uniform", func(b *testing.B) {
		benchRun(b, core.RCCIS{}, q, rels, core.Options{Partitions: 16})
	})
	b.Run("equi-depth", func(b *testing.B) {
		benchRun(b, core.RCCIS{}, q, rels, core.Options{Partitions: 16, EquiDepth: true})
	})
}

// BenchmarkAblationPASMNoPruning is the adversarial Table 3 counterpart: R3
// as dense and long as R1, so PASM's pruning cycle buys nothing.
func BenchmarkAblationPASMNoPruning(b *testing.B) {
	q := query.MustParse("R1 before R2 and R1 overlaps R3")
	r1, err := workload.Generate(workload.Table3Spec("R1", 1_000, 1000, 1))
	if err != nil {
		b.Fatal(err)
	}
	r2, err := workload.Generate(workload.Table3Spec("R2", 100, 1000, 2))
	if err != nil {
		b.Fatal(err)
	}
	r3, err := workload.Generate(workload.Spec{
		Name: "R3", NumIntervals: 2_000,
		StartDist: workload.Uniform, LengthDist: workload.Uniform,
		TMin: 0, TMax: 200_000, IMin: 1000, IMax: 2000, Seed: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	rels := []*relation.Relation{r1, r2, r3}
	opts := core.Options{PartitionsPerDim: 6}
	b.Run("all-seq-matrix", func(b *testing.B) { benchRun(b, core.SeqMatrix{}, q, rels, opts) })
	b.Run("pasm", func(b *testing.B) { benchRun(b, core.PASM{}, q, rels, opts) })
}

// benchSkewRun is benchRun for the skew scenarios: besides the pair-based
// imbalance it reports the wall-clock reducer imbalance (max/mean reduce
// wall, "time_imbalance").
func benchSkewRun(b *testing.B, alg core.Algorithm, q *query.Query, rels []*relation.Relation, opts core.Options) {
	b.Helper()
	var lastPairs int64
	var lastImb, lastTimeImb float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine := mr.NewEngine(mr.Config{Store: dfs.NewMem()})
		ctx, err := core.NewContext(engine, q, rels, opts)
		if err != nil {
			b.Fatal(err)
		}
		res, err := alg.Run(ctx)
		if err != nil {
			b.Fatal(err)
		}
		lastPairs = res.Metrics.IntermediatePairs
		skew := obs.NewSkewReport(res.Metrics.ReducerPairs, res.Metrics.ReducerTime, 0)
		lastImb = skew.Imbalance
		lastTimeImb = skew.TimeImbalance
	}
	b.ReportMetric(float64(lastPairs), "pairs/op")
	b.ReportMetric(lastImb, "imbalance")
	b.ReportMetric(lastTimeImb, "time_imbalance")
}

// BenchmarkReduceSkewZipf pits uniform execution against the skew-aware
// plan on the Zipf heavy-tail scenario: most starts pile into the first
// partitions, so uniform boundaries produce a straggler reducer that
// adaptive boundaries plus virtual splitting flatten out.
func BenchmarkReduceSkewZipf(b *testing.B) {
	q := query.MustParse("R1 overlaps R2")
	rels := []*relation.Relation{
		workload.MustGenerate(workload.HeavyTailSpec("R1", 4_000, 1)),
		workload.MustGenerate(workload.HeavyTailSpec("R2", 4_000, 2)),
	}
	b.Run("uniform", func(b *testing.B) {
		benchSkewRun(b, core.TwoWay{}, q, rels, core.Options{Partitions: 16})
	})
	b.Run("adaptive", func(b *testing.B) {
		benchSkewRun(b, core.TwoWay{}, q, rels, core.Options{Partitions: 16, Adaptive: true, MaxVirtual: 32})
	})
}

// BenchmarkReduceSkewMAWI replays the P04 packet-train trace (Table 2):
// bursty flow arrivals skew the train starts without any synthetic knob.
func BenchmarkReduceSkewMAWI(b *testing.B) {
	q := query.MustParse("R1 overlaps R2")
	r1, err := workload.MAWIReplay("R1", "P04", 0.05, 4_000, 1)
	if err != nil {
		b.Fatal(err)
	}
	r2, err := workload.MAWIReplay("R2", "P04", 0.05, 4_000, 2)
	if err != nil {
		b.Fatal(err)
	}
	rels := []*relation.Relation{r1, r2}
	b.Run("uniform", func(b *testing.B) {
		benchSkewRun(b, core.TwoWay{}, q, rels, core.Options{Partitions: 16})
	})
	b.Run("adaptive", func(b *testing.B) {
		benchSkewRun(b, core.TwoWay{}, q, rels, core.Options{Partitions: 16, Adaptive: true, MaxVirtual: 32})
	})
}
