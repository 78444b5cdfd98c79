package exp

import (
	"bytes"
	"fmt"

	"intervaljoin/internal/cache"
	"intervaljoin/internal/query"
	"intervaljoin/internal/relation"
	"intervaljoin/internal/workload"
)

// QueryMix measures the ijoind semantic segment cache on a zipfian
// time-range query mix (workload.ZipfQueryMix): each window runs once cold
// (one delta join over the whole window, cache bypassed) and once through
// the cache, which merges covered segments and re-joins only the uncovered
// gaps. The sweep over the zipf exponent shows the cache's leverage growing
// with access skew: hotter mixes re-visit the same ranges, so the span hit
// ratio climbs and the warm mean latency collapses.
func QueryMix(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	q := query.MustParse("R1 overlaps R2")
	n := cfg.scaled(500_000)
	rels := make([]*relation.Relation, 2)
	for i := range rels {
		r, err := workload.Generate(workload.Table1Spec(fmt.Sprintf("R%d", i+1), n, cfg.Seed+int64(i)))
		if err != nil {
			return nil, err
		}
		rels[i] = r
	}
	tmin, tmax, ok := relation.Bounds(rels...)
	if !ok {
		return nil, fmt.Errorf("exp: querymix relations are empty")
	}
	t := &Table{
		ID:      "querymix",
		Title:   "semantic segment cache on zipfian query mixes (ijoind)",
		Columns: []string{"skew", "queries", "hit_ratio", "full_hits", "delta_rows", "cold_ms", "warm_ms", "speedup"},
		Notes: []string{
			"expected shape: hit ratio and speedup rise with skew; every warm answer is verified byte-identical to its cold run",
			"delta joins run in line, one join over the tuples that can reach the gap, on no engine; a traced run records one span per warm delta join",
		},
	}
	queries := cfg.scaled(20_000)
	if queries < 20 {
		queries = 20
	}
	for _, skew := range []float64{1.2, 1.5, 2.5} {
		svc, err := cache.NewService(cache.ServiceConfig{})
		if err != nil {
			return nil, err
		}
		for _, r := range rels {
			if _, err := svc.Register(r); err != nil {
				return nil, err
			}
		}
		mix, err := workload.ZipfQueryMix(workload.QueryMixSpec{
			N: queries, TMin: int64(tmin), TMax: int64(tmax), Skew: skew, Seed: cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
		var coldNS, warmNS int64
		for _, w := range mix {
			win := cache.Window{Lo: w.Lo, Hi: w.Hi}
			cold, err := svc.RunCold(q, win)
			if err != nil {
				return nil, err
			}
			warm, err := svc.QueryTraced(q, win, cfg.Tracer)
			if err != nil {
				return nil, err
			}
			// Both answers are in (anchor start, anchor id, ids) order, so
			// the same row set is the same bytes.
			if !bytes.Equal(cold.RowsJSON, warm.RowsJSON) {
				return nil, fmt.Errorf("exp: querymix skew %.1f window [%d,%d]: warm answer has %d rows, cold %d, and their text differs",
					skew, w.Lo, w.Hi, warm.Count, cold.Count)
			}
			coldNS += cold.Wall.Nanoseconds()
			warmNS += warm.Wall.Nanoseconds()
		}
		st := svc.Stats()
		coldMS := float64(coldNS) / 1e6
		warmMS := float64(warmNS) / 1e6
		speedup := "-"
		if warmNS > 0 {
			speedup = fmt.Sprintf("%.1fx", float64(coldNS)/float64(warmNS))
		}
		t.AddRow(fmt.Sprintf("%.1f", skew), fmt.Sprintf("%d", queries),
			fmt.Sprintf("%.3f", st.HitRatio()), fmt.Sprintf("%d", st.FullHits),
			fmtCount(st.DeltaRows), fmt.Sprintf("%.1f", coldMS),
			fmt.Sprintf("%.1f", warmMS), speedup)
	}
	return t, nil
}
