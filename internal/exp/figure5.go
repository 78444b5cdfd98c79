package exp

import (
	"fmt"
	"math/rand"

	"intervaljoin/internal/core"
	"intervaljoin/internal/query"
	"intervaljoin/internal/relation"
	"intervaljoin/internal/trace"
	"intervaljoin/internal/workload"
)

// figure5Algorithms runs the three contenders of Figure 5 with the paper's
// partitioning choices: All-Matrix on a 6x6x6 grid (56 consistent cells),
// 2-way Cascade whose sequence steps use 11x11 2-D matrices (66 consistent
// cells per step), and All-Replicate on 64 one-dimensional reducers — the
// counts chosen so every approach has a comparable number of active
// reducers.
func figure5Algorithms(cfg Config, q *query.Query, rels []*relation.Relation) (matrix, cascade, allrep Run, err error) {
	matrix, err = execute(cfg, core.AllMatrix{}, q, rels, core.Options{PartitionsPerDim: 6})
	if err != nil {
		return
	}
	cascade, err = execute(cfg, core.Cascade{MatrixSteps: true}, q, rels, core.Options{Partitions: 16, PartitionsPerDim: 11})
	if err != nil {
		return
	}
	allrep, err = execute(cfg, core.AllRep{}, q, rels, core.Options{Partitions: 64})
	return
}

// Figure5a reproduces Figure 5(a): the 3-way sequence query Q2 = R1 before
// R2 and R2 before R3 on synthetic data (range [0,1000], max length 100,
// uniform), relation size rising in steps.
func Figure5a(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	q := query.MustParse("R1 before R2 and R2 before R3")
	t := &Table{
		ID:    "figure5a",
		Title: "Q2 sequence join on synthetic data (range [0,1000], max len 100)",
		Columns: []string{
			"nI", "allmatrix_ms", "cascade_ms", "allrep_ms",
			"imb_matrix", "imb_allrep", "pairs_matrix", "pairs_allrep",
		},
		Notes: []string{
			"expected shape: all-matrix fastest; all-rep dominated by its lagging right-most reducers (high imbalance)",
			"imb_*: the join cycle's largest reducer's pairs over the mean",
			"sizes: a sequence join's output is cubic in nI, so the local ladder is 30K-75K (the paper's cluster used 100K-400K)",
		},
	}
	for step, paperSize := range []int{30_000, 45_000, 60_000, 75_000} {
		n := cfg.scaled(paperSize)
		rels := make([]*relation.Relation, 3)
		for i := range rels {
			r, err := workload.Generate(workload.Figure5Spec(fmt.Sprintf("R%d", i+1), n, cfg.Seed+int64(step*3+i)))
			if err != nil {
				return nil, err
			}
			rels[i] = r
		}
		matrix, cascade, allrep, err := figure5Algorithms(cfg, q, rels)
		if err != nil {
			return nil, err
		}
		t.AddRow(
			fmtCount(int64(n)),
			fmt.Sprintf("%d", matrix.WallMs),
			fmt.Sprintf("%d", cascade.WallMs),
			fmt.Sprintf("%d", allrep.WallMs),
			fmt.Sprintf("%.1f", matrix.Imbalance),
			fmt.Sprintf("%.1f", allrep.Imbalance),
			fmtCount(matrix.Pairs),
			fmtCount(allrep.Pairs),
		)
	}
	return t, nil
}

// Figure5b reproduces Figure 5(b): Q2 over the P04 packet-train trace,
// sampling the trains in rising steps (the paper samples 18K trains in 3K
// steps).
func Figure5b(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	q := query.MustParse("R1 before R2 and R2 before R3")
	profile, err := trace.ProfileByName("P04")
	if err != nil {
		return nil, err
	}
	// Synthesise the full (scaled) P04 and sample in six steps like the
	// paper.
	packets, err := trace.Synthesize(profile, clampScale(cfg.Scale*5), cfg.Seed)
	if err != nil {
		return nil, err
	}
	trains := trace.BuildTrains(packets, trace.DefaultCutoffMs)
	// The paper samples trains randomly in steps; shuffle once so each
	// step's prefix is a uniform sample.
	rng := rand.New(rand.NewSource(cfg.Seed + 99))
	rng.Shuffle(len(trains), func(i, j int) { trains[i], trains[j] = trains[j], trains[i] })
	t := &Table{
		ID:      "figure5b",
		Title:   "Q2 sequence join on simulated trace P04, sampled in steps",
		Columns: []string{"trains", "allmatrix_ms", "cascade_ms", "allrep_ms", "imb_matrix", "imb_allrep"},
		Notes: []string{
			"expected shape: same ordering as figure5a on real-shaped (bursty) interval data",
			"imb_*: the join cycle's largest reducer's pairs over the mean",
			fmt.Sprintf("full simulated P04 train count at this scale: %d", len(trains)),
		},
	}
	for step := 1; step <= 6; step++ {
		k := len(trains) * step / 6
		if k < 3 {
			k = min(3, len(trains))
		}
		sample := trains[:k]
		rels := []*relation.Relation{
			trace.TrainsRelation("R1", sample),
			trace.TrainsRelation("R2", sample),
			trace.TrainsRelation("R3", sample),
		}
		matrix, cascade, allrep, err := figure5Algorithms(cfg, q, rels)
		if err != nil {
			return nil, err
		}
		t.AddRow(
			fmtCount(int64(k)),
			fmt.Sprintf("%d", matrix.WallMs),
			fmt.Sprintf("%d", cascade.WallMs),
			fmt.Sprintf("%d", allrep.WallMs),
			fmt.Sprintf("%.1f", matrix.Imbalance),
			fmt.Sprintf("%.1f", allrep.Imbalance),
		)
	}
	return t, nil
}

func clampScale(s float64) float64 {
	if s > 1 {
		return 1
	}
	return s
}
