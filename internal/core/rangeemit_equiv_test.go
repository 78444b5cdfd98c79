package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"intervaljoin/internal/dfs"
	"intervaljoin/internal/interval"
	"intervaljoin/internal/mr"
	"intervaljoin/internal/query"
	"intervaljoin/internal/relation"
)

// runWithConfig executes one algorithm against a fresh store with the given
// engine configuration and returns the result plus its rows rendered as lines.
func runWithConfig(t *testing.T, alg Algorithm, q *query.Query, rels []*relation.Relation,
	opts Options, cfg mr.Config) (*Result, []string) {
	t.Helper()
	store := dfs.NewMem()
	cfg.Store = store
	cfg.Workers = 4
	engine := mr.NewEngine(cfg)
	ctx, err := NewContext(engine, q, rels, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := alg.Run(ctx)
	if err != nil {
		t.Fatalf("%s: %v", alg.Name(), err)
	}
	return res, resultLines(res)
}

// requireOracleRows asserts a run over the range-coalesced shuffle returned
// the oracle's rows byte for byte — the rows a shuffle holding one pair per
// covered key returns — and that coalescing only ever shrinks the physical
// shuffle. What each cycle sent where, in logical pairs, is pinned by
// TestRoutingGolden.
func requireOracleRows(t *testing.T, res *Result, lines []string, q *query.Query, rels []*relation.Relation) {
	t.Helper()
	_, want := runSingle(t, Reference{}, q, rels, Options{})
	if !slices.Equal(lines, want) {
		t.Fatalf("output differs from the oracle's: %d rows, want %d", len(lines), len(want))
	}
	m := res.Metrics
	if m.PhysicalPairs > m.IntermediatePairs {
		t.Errorf("physical pairs %d exceed logical %d", m.PhysicalPairs, m.IntermediatePairs)
	}
	if m.PhysicalBytes > m.IntermediateBytes {
		t.Errorf("physical bytes %d exceed logical %d", m.PhysicalBytes, m.IntermediateBytes)
	}
}

// TestRangeEmitMatchesExpandedAllenPredicates joins two relations under each
// of the thirteen Allen predicates over the range-coalesced shuffle, requiring
// the oracle's output.
func TestRangeEmitMatchesExpandedAllenPredicates(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	r1 := randomRelation(rng, "R1", 70, 160, 35)
	r2 := randomRelation(rng, "R2", 70, 160, 35)
	for p := interval.Predicate(0); p < interval.NumPredicates; p++ {
		t.Run(p.String(), func(t *testing.T) {
			q := query.MustParse(fmt.Sprintf("R1 %s R2", p))
			opts := Options{Partitions: 8}
			rels := []*relation.Relation{r1, r2}
			res, lines := runWithConfig(t, TwoWay{}, q, rels, opts, mr.Config{})
			requireOracleRows(t, res, lines, q, rels)
		})
	}
}

// TestRangeEmitMatchesExpandedAlgorithms covers every algorithm and query
// class, on the in-memory shuffle and on a spilling engine — the coalesced
// shuffle must be invisible everywhere.
func TestRangeEmitMatchesExpandedAlgorithms(t *testing.T) {
	cases := []struct {
		name  string
		alg   Algorithm
		query string
	}{
		{"two-way-seq", TwoWay{}, "R1 before R2"},
		{"all-rep-coloc", AllRep{}, "R1 overlaps R2 and R2 overlaps R3"},
		{"all-rep-seq", AllRep{}, "R1 before R2 and R2 before R3"},
		{"all-matrix", AllMatrix{}, "R1 before R2 and R2 before R3"},
		{"cascade", Cascade{}, "R1 overlaps R2 and R2 overlaps R3"},
		{"cascade-matrix", Cascade{MatrixSteps: true}, "R1 before R2 and R2 before R3"},
		{"rccis", RCCIS{}, "R1 overlaps R2 and R2 overlaps R3"},
		{"all-seq-matrix", SeqMatrix{}, "R1 overlaps R2 and R2 overlaps R3"},
		{"all-seq-matrix-hybrid", SeqMatrix{}, "R1 before R2 and R1 overlaps R3"},
		{"fcts", FCTS{}, "R1 overlaps R2 and R2 overlaps R3"},
		{"fcts-hybrid", FCTS{}, "R1 before R2 and R1 overlaps R3"},
		{"pasm-hybrid", PASM{}, "R1 before R2 and R1 overlaps R3"},
		{"gen-matrix", GenMatrix{}, "R1 before R2 and R1 overlaps R3"},
	}
	modes := []struct {
		name  string
		spill int
	}{
		{"pipelined", 0},
		{"spilled", 200},
	}
	rng := rand.New(rand.NewSource(99))
	for _, tc := range cases {
		q := query.MustParse(tc.query)
		rels := make([]*relation.Relation, len(q.Relations))
		for i, s := range q.Relations {
			rels[i] = randomRelation(rng, s.Name, 40, 150, 30)
		}
		for _, mode := range modes {
			t.Run(tc.name+"/"+mode.name, func(t *testing.T) {
				opts := Options{Partitions: 6, PartitionsPerDim: 4}
				res, lines := runWithConfig(t, tc.alg, q, rels, opts,
					mr.Config{SpillPairThreshold: mode.spill})
				requireOracleRows(t, res, lines, q, rels)
			})
		}
	}
}

// TestRangeEmitShrinksReplicateHeavyShuffle pins the headline win: on the
// replication-heavy baselines the physical shuffle must be at most half the
// logical volume.
func TestRangeEmitShrinksReplicateHeavyShuffle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cases := []struct {
		name  string
		alg   Algorithm
		query string
	}{
		{"all-rep", AllRep{}, "R1 before R2 and R2 before R3"},
		{"all-matrix", AllMatrix{}, "R1 before R2 and R2 before R3"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q := query.MustParse(tc.query)
			rels := make([]*relation.Relation, len(q.Relations))
			for i, s := range q.Relations {
				rels[i] = randomRelation(rng, s.Name, 80, 200, 25)
			}
			// A finer grid lengthens the consistent-cell runs, which is what
			// amortises the 16-byte range header over more covered keys.
			opts := Options{Partitions: 12, PartitionsPerDim: 16}
			res, _ := runWithConfig(t, tc.alg, q, rels, opts, mr.Config{})
			m := res.Metrics
			if m.PhysicalPairs == 0 {
				t.Fatal("no physical pair accounting")
			}
			if m.PhysicalBytes*2 > m.IntermediateBytes {
				t.Errorf("physical bytes %d not under half of logical %d (repl %.2fx)",
					m.PhysicalBytes, m.IntermediateBytes, m.ReplicationFactor())
			}
		})
	}
}
