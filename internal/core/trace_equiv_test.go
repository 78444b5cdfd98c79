package core

import (
	"math/rand"
	"testing"

	"intervaljoin/internal/dfs"
	"intervaljoin/internal/mr"
	"intervaljoin/internal/obs"
	"intervaljoin/internal/query"
	"intervaljoin/internal/relation"
)

// runSingleTraced mirrors runSingle with a tracer attached, returning the
// tracer alongside the result and output lines.
func runSingleTraced(t *testing.T, alg Algorithm, q *query.Query, rels []*relation.Relation, opts Options) (*Result, []string, *obs.Tracer) {
	t.Helper()
	store := dfs.NewMem()
	tr := obs.New(obs.Options{})
	engine := mr.NewEngine(mr.Config{Store: store, Workers: 4, Tracer: tr})
	ctx, err := NewContext(engine, q, rels, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := alg.Run(ctx)
	if err != nil {
		t.Fatalf("%s: %v", alg.Name(), err)
	}
	return res, resultLines(res), tr
}

// TestTracedDriverMatchesUntraced runs representative algorithms (single
// cycle, pipelined multi-cycle, grid-keyed) with and without a tracer and
// requires byte-identical output — tracing must be purely observational —
// plus driver-annotated cycle spans in the trace.
func TestTracedDriverMatchesUntraced(t *testing.T) {
	cases := []struct {
		name   string
		alg    Algorithm
		query  string
		cycles int
	}{
		{"all-rep", AllRep{}, "R1 overlaps R2", 1},
		{"rccis", RCCIS{}, "R1 overlaps R2 and R2 overlaps R3", 2},
		{"pasm", PASM{}, "R1 before R2 and R1 overlaps R3", 3},
	}
	rng := rand.New(rand.NewSource(7))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q := query.MustParse(tc.query)
			rels := make([]*relation.Relation, len(q.Relations))
			for i, s := range q.Relations {
				rels[i] = randomRelation(rng, s.Name, 45, 160, 30)
			}
			opts := Options{
				Partitions: 6, PartitionsPerDim: 4,
				Scratch: "traced-equiv", SortValues: true,
			}
			_, wantLines := runSingle(t, tc.alg, q, rels, opts)
			res, gotLines, tr := runSingleTraced(t, tc.alg, q, rels, opts)

			if len(gotLines) != len(wantLines) {
				t.Fatalf("output has %d lines traced, %d untraced", len(gotLines), len(wantLines))
			}
			for i := range gotLines {
				if gotLines[i] != wantLines[i] {
					t.Fatalf("output line %d differs:\ntraced:   %q\nuntraced: %q", i, gotLines[i], wantLines[i])
				}
			}
			if res.Metrics.TrueWalls.Zero() {
				t.Error("traced run has no TrueWalls")
			}
			// Every cycle span must carry the driver's algorithm annotation.
			var cycles int
			for _, sp := range tr.Snapshot().Spans {
				if sp.Cat != obs.CatCycle {
					continue
				}
				cycles++
				var alg string
				for _, a := range sp.Args {
					if a.Key == "algorithm" {
						alg = a.Val
					}
				}
				if alg != tc.alg.Name() {
					t.Errorf("cycle span %q algorithm = %q, want %q", sp.Name, alg, tc.alg.Name())
				}
			}
			if cycles != tc.cycles {
				t.Errorf("trace has %d cycle spans, want %d", cycles, tc.cycles)
			}
		})
	}
}
