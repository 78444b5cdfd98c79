package exp

import (
	"fmt"

	"intervaljoin/internal/core"
	"intervaljoin/internal/query"
	"intervaljoin/internal/relation"
	"intervaljoin/internal/workload"
)

// Table1Params reproduces the parameter sweep Section 6.2 mentions without
// printing ("we also carried out experiments varying other parameters like
// distribution of start-point of intervals (dS), max interval length
// (i_max) etc and we observed similar results"): Q1 at a fixed size with
// dS ∈ {uniform, normal, zipf, exponential} and i_max ∈ {50, 100, 400},
// comparing RCCIS against All-Replicate on every combination.
func Table1Params(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	q := query.MustParse("R1 overlaps R2 and R2 overlaps R3")
	// The sweep runs 24 joins including zipf's combinatorial hot cluster,
	// so it uses a smaller instance than Table 1 proper, capped outright.
	n := cfg.scaled(250_000)
	if n > 2_000 {
		n = 2_000
	}
	t := &Table{
		ID:    "table1-params",
		Title: "Q1 parameter sweep: start distribution x max interval length (16 reducers)",
		Columns: []string{
			"dS", "i_max", "rccis_ms", "allrep_ms", "repl_rccis", "repl_allrep",
			"pairs_rccis", "pairs_allrep", "imb_rccis", "imb_allrep",
		},
		Notes: []string{
			"expected shape: rccis beats all-rep on pairs and replication for every distribution and length;",
			"longer intervals cross more boundaries, so rccis replication grows with i_max but stays far below all-rep's",
			"imb_*: the join cycle's largest reducer's pairs over the mean",
		},
	}
	t.Notes = append(t.Notes,
		"zipf rows use shorter intervals (5/10/25): the distribution's hot cluster makes the join output combinatorial in interval length")
	opts := core.Options{Partitions: 16}
	dists := []workload.Distribution{workload.Uniform, workload.Normal, workload.Zipf, workload.Exponential}
	for di, dist := range dists {
		lengths := []int64{50, 100, 400}
		if dist == workload.Zipf {
			lengths = []int64{5, 10, 25}
		}
		for li, maxLen := range lengths {
			rels := make([]*relation.Relation, 3)
			for i := range rels {
				r, err := workload.Generate(workload.Spec{
					Name: fmt.Sprintf("R%d", i+1), NumIntervals: n,
					StartDist: dist, LengthDist: workload.Uniform,
					TMin: 0, TMax: 100_000, IMin: 1, IMax: maxLen,
					Seed: cfg.Seed + int64(di*100+li*10+i),
				})
				if err != nil {
					return nil, err
				}
				rels[i] = r
			}
			rccis, err := execute(cfg, core.RCCIS{}, q, rels, opts)
			if err != nil {
				return nil, err
			}
			allrep, err := execute(cfg, core.AllRep{}, q, rels, opts)
			if err != nil {
				return nil, err
			}
			t.AddRow(
				dist.String(),
				fmt.Sprintf("%d", maxLen),
				fmt.Sprintf("%d", rccis.WallMs),
				fmt.Sprintf("%d", allrep.WallMs),
				fmtCount(rccis.Replicated),
				fmtCount(allrep.Replicated),
				fmtCount(rccis.Pairs),
				fmtCount(allrep.Pairs),
				fmt.Sprintf("%.1f", rccis.Imbalance),
				fmt.Sprintf("%.1f", allrep.Imbalance),
			)
		}
	}
	return t, nil
}
