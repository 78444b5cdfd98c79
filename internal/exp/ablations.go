package exp

import (
	"fmt"

	"intervaljoin/internal/core"
	"intervaljoin/internal/query"
	"intervaljoin/internal/relation"
	"intervaljoin/internal/workload"
)

// AblationD1D2 quantifies All-Matrix's two routing conditions on Q2: with
// D1 off, tuples are also sent to provably output-free (inconsistent)
// cells; with D2 off, every tuple is broadcast to every consistent cell.
// Both ablations return the same output (exactly-once is restored by the
// designated-cell filter) at a strictly higher communication cost — the
// paper's argument for the two conditions, measured.
func AblationD1D2(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	q := query.MustParse("R1 before R2 and R2 before R3")
	n := cfg.scaled(50_000)
	rels := make([]*relation.Relation, 3)
	for i := range rels {
		r, err := workload.Generate(workload.Figure5Spec(fmt.Sprintf("R%d", i+1), n, cfg.Seed+int64(i)))
		if err != nil {
			return nil, err
		}
		rels[i] = r
	}
	t := &Table{
		ID:      "ablation-d1d2",
		Title:   "All-Matrix routing conditions on Q2 (6x6x6 grid)",
		Columns: []string{"variant", "pairs", "keys", "wall_ms", "output"},
		Notes: []string{
			"expected shape: pairs(full) < pairs(no D1) and pairs(full) << pairs(no D2); identical outputs",
		},
	}
	opts := core.Options{PartitionsPerDim: 6}
	for _, alg := range []core.Algorithm{
		core.AllMatrix{},
		core.AllMatrix{DisableConsistencyFilter: true},
		core.AllMatrix{BroadcastAllCells: true},
	} {
		run, err := execute(cfg, alg, q, rels, opts)
		if err != nil {
			return nil, err
		}
		t.AddRow(run.Algorithm, fmtCount(run.Pairs),
			fmt.Sprintf("%d", run.Result.Metrics.DistinctKeys),
			fmt.Sprintf("%d", run.WallMs), fmtCount(run.OutputRows))
	}
	return t, nil
}

// AblationPartitions sweeps o, the partitions per grid dimension, for
// All-Matrix on Q2. Small o under-parallelises (few consistent cells);
// large o multiplies routing fan-out (each tuple reaches more cells).
func AblationPartitions(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	q := query.MustParse("R1 before R2 and R2 before R3")
	n := cfg.scaled(50_000)
	rels := make([]*relation.Relation, 3)
	for i := range rels {
		r, err := workload.Generate(workload.Figure5Spec(fmt.Sprintf("R%d", i+1), n, cfg.Seed+int64(i)))
		if err != nil {
			return nil, err
		}
		rels[i] = r
	}
	t := &Table{
		ID:      "ablation-partitions",
		Title:   "All-Matrix partitions-per-dimension sweep on Q2",
		Columns: []string{"o", "consistent_cells", "pairs", "imbalance", "wall_ms"},
		Notes: []string{
			"expected shape: pairs grow ~quadratically in o (fan-out per tuple ~ o^(m-1)/2); imbalance falls as o rises",
			"imbalance: the join cycle's largest reducer's pairs over the mean",
		},
	}
	for _, o := range []int{2, 4, 6, 8, 12} {
		run, err := execute(cfg, core.AllMatrix{}, q, rels, core.Options{PartitionsPerDim: o})
		if err != nil {
			return nil, err
		}
		t.AddRow(
			fmt.Sprintf("%d", o),
			fmt.Sprintf("%d", run.Result.Metrics.DistinctKeys),
			fmtCount(run.Pairs),
			fmt.Sprintf("%.2f", run.Imbalance),
			fmt.Sprintf("%d", run.WallMs),
		)
	}
	return t, nil
}

// AblationSkew measures the equi-depth partitioning extension on
// zipf-skewed data: with uniform-width partitions most intervals land in
// the first few reducers (the skew problem the paper notes requires
// different processing); quantile boundaries restore balance without
// changing the output.
func AblationSkew(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	q := query.MustParse("R1 overlaps R2 and R2 overlaps R3")
	// Zipf clustering makes the hot region's join output grow
	// combinatorially, so the relations stay modest and the intervals
	// short; the routing imbalance is what the experiment measures.
	n := cfg.scaled(500_000)
	if n > 5_000 {
		n = 5_000
	}
	rels := make([]*relation.Relation, 3)
	for i := range rels {
		r, err := workload.Generate(workload.Spec{
			Name: fmt.Sprintf("R%d", i+1), NumIntervals: n,
			StartDist: workload.Zipf, LengthDist: workload.Uniform,
			TMin: 0, TMax: 100_000, IMin: 1, IMax: 10, Seed: cfg.Seed + int64(i),
		})
		if err != nil {
			return nil, err
		}
		rels[i] = r
	}
	t := &Table{
		ID:      "ablation-skew",
		Title:   "RCCIS on zipf-skewed starts: uniform-width vs equi-depth partitioning (16 reducers)",
		Columns: []string{"partitioning", "imbalance", "max_reducer_pairs", "pairs", "wall_ms", "output"},
		Notes: []string{
			"expected shape: equi-depth cuts imbalance by several x with identical output",
			"imbalance and max_reducer_pairs: the join cycle's, not the mark cycle's",
		},
	}
	for _, equi := range []bool{false, true} {
		name := "uniform"
		opts := core.Options{Partitions: 16}
		if equi {
			name = "equi-depth"
			opts.EquiDepth = true
		}
		run, err := execute(cfg, core.RCCIS{}, q, rels, opts)
		if err != nil {
			return nil, err
		}
		t.AddRow(name,
			fmt.Sprintf("%.2f", run.Imbalance),
			fmtCount(run.Result.PerCycle[len(run.Result.PerCycle)-1].MaxReducerPairs()),
			fmtCount(run.Pairs),
			fmt.Sprintf("%d", run.WallMs),
			fmtCount(run.OutputRows))
	}
	return t, nil
}

// AblationRangeShuffle measures what the range-coalesced shuffle saves per
// algorithm: each map function emits one record per contiguous destination
// range instead of one per reducer, so the physical pair count divided into
// the logical one is the replication factor recovered. Output is unchanged
// by construction (the reduce sweep re-expands ranges); this table records
// the communication side of that trade.
func AblationRangeShuffle(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	n := cfg.scaled(50_000)
	rels := make([]*relation.Relation, 3)
	for i := range rels {
		r, err := workload.Generate(workload.Figure5Spec(fmt.Sprintf("R%d", i+1), n, cfg.Seed+int64(i)))
		if err != nil {
			return nil, err
		}
		rels[i] = r
	}
	t := &Table{
		ID:      "ablation-range-shuffle",
		Title:   "Range-coalesced shuffle: logical vs physically stored pairs per algorithm",
		Columns: []string{"algorithm", "query", "pairs", "phys_pairs", "repl", "pct_saved"},
		Notes: []string{
			"expected shape: replicate-heavy algorithms (all-rep, all-matrix) recover several x; project/split-dominated ones stay near 1x",
		},
	}
	seq := query.MustParse("R1 before R2 and R2 before R3")
	coloc := query.MustParse("R1 overlaps R2 and R2 overlaps R3")
	cases := []struct {
		alg  core.Algorithm
		q    *query.Query
		opts core.Options
	}{
		{core.AllRep{}, seq, core.Options{Partitions: 16}},
		// A finer grid lengthens the consistent-cell runs and with them the
		// coalescing win (cf. the partitions sweep above).
		{core.AllMatrix{}, seq, core.Options{PartitionsPerDim: 12}},
		{core.RCCIS{}, coloc, core.Options{Partitions: 16}},
		{core.SeqMatrix{}, coloc, core.Options{Partitions: 16, PartitionsPerDim: 6}},
	}
	for _, c := range cases {
		run, err := execute(cfg, c.alg, c.q, rels, c.opts)
		if err != nil {
			return nil, err
		}
		saved := 0.0
		if run.Pairs > 0 {
			saved = 100 * float64(run.Pairs-run.PhysPairs) / float64(run.Pairs)
		}
		t.AddRow(run.Algorithm, c.q.String(),
			fmtCount(run.Pairs), fmtCount(run.PhysPairs),
			fmt.Sprintf("%.2fx", run.ReplFactor),
			fmt.Sprintf("%.1f", saved))
	}
	return t, nil
}

// AblationPruning runs PASM and All-Seq-Matrix on a Q4 workload where R3 is
// as large and long as R1, so almost every R1 interval overlaps some R3
// interval, pruning removes very little, and PASM's third cycle is mostly
// overhead — the trade-off Section 8.2 warns about (Table 3 explores the
// opposite, pruning-friendly regime).
func AblationPruning(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	q := query.MustParse("R1 before R2 and R1 overlaps R3")
	n1 := cfg.scaled(500_000)
	n2 := cfg.scaled(100_000)
	r1, err := workload.Generate(workload.Table3Spec("R1", n1, 1000, cfg.Seed))
	if err != nil {
		return nil, err
	}
	r2, err := workload.Generate(workload.Table3Spec("R2", n2, 1000, cfg.Seed+1))
	if err != nil {
		return nil, err
	}
	// R3 denser than R1 (floored so its range coverage is
	// scale-independent) and strictly longer: nearly every R1 interval has
	// an R3 starting inside it and outlasting it, so almost no R1 prunes.
	n3 := 2 * n1
	if n3 < 2000 {
		n3 = 2000
	}
	r3, err := workload.Generate(workload.Spec{
		Name: "R3", NumIntervals: n3,
		StartDist: workload.Uniform, LengthDist: workload.Uniform,
		TMin: 0, TMax: 200_000, IMin: 1000, IMax: 2000, Seed: cfg.Seed + 2,
	})
	if err != nil {
		return nil, err
	}
	rels := []*relation.Relation{r1, r2, r3}
	t := &Table{
		ID:      "ablation-pruning",
		Title:   "PASM vs All-Seq-Matrix under near-zero pruning (R3 as dense as R1)",
		Columns: []string{"algorithm", "cycles", "pct_R1_pruned", "pairs", "wall_ms"},
		Notes: []string{
			"expected shape: little pruned; pasm pays an extra cycle for almost nothing and is not faster than asm",
		},
	}
	opts := core.Options{PartitionsPerDim: 6}
	asm, err := execute(cfg, core.SeqMatrix{}, q, rels, opts)
	if err != nil {
		return nil, err
	}
	pasm, err := execute(cfg, core.PASM{}, q, rels, opts)
	if err != nil {
		return nil, err
	}
	t.AddRow(asm.Algorithm, fmt.Sprintf("%d", asm.Cycles), "-", fmtCount(asm.Pairs), fmt.Sprintf("%d", asm.WallMs))
	pct := 100 * float64(pasm.Result.PrunedIntervals[0]) / float64(n1)
	t.AddRow(pasm.Algorithm, fmt.Sprintf("%d", pasm.Cycles), fmt.Sprintf("%.2f", pct), fmtCount(pasm.Pairs), fmt.Sprintf("%d", pasm.WallMs))
	return t, nil
}
