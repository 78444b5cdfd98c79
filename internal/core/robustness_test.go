package core

import (
	"math/rand"
	"testing"

	"intervaljoin/internal/dfs"
	"intervaljoin/internal/interval"
	"intervaljoin/internal/mr"
	"intervaljoin/internal/query"
	"intervaljoin/internal/relation"
)

// TestAlgorithmsUnderSpill runs the main algorithms on an engine configured
// with an external-spill shuffle and checks the output still matches the
// oracle exactly — spilling must be invisible to the algorithms.
func TestAlgorithmsUnderSpill(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	cases := []struct {
		qs   string
		algs []Algorithm
	}{
		{"R1 overlaps R2 and R2 overlaps R3", []Algorithm{RCCIS{}, AllRep{}, Cascade{}}},
		{"R1 before R2 and R2 before R3", []Algorithm{AllMatrix{}, Cascade{MatrixSteps: true}}},
		{"R1 before R2 and R1 overlaps R3", []Algorithm{SeqMatrix{}, PASM{}, FCTS{}}},
		{"R1.I overlaps R2.I and R1.A = R2.A", []Algorithm{GenMatrix{}}},
	}
	for _, tc := range cases {
		q := query.MustParse(tc.qs)
		rels := make([]*relation.Relation, len(q.Relations))
		for i, s := range q.Relations {
			if s.Arity() == 1 {
				rels[i] = randomRelation(rng, s.Name, 60, 150, 30)
				continue
			}
			r := relation.New(s)
			for j := 0; j < 60; j++ {
				r.Append(randomAttrs(rng, s.Arity())...)
			}
			rels[i] = r
		}

		refCtx, err := NewContext(mr.NewEngine(mr.Config{Store: dfs.NewMem()}), q, rels,
			Options{Partitions: 5, PartitionsPerDim: 4})
		if err != nil {
			t.Fatal(err)
		}
		want, err := Reference{}.Run(refCtx)
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range tc.algs {
			engine := mr.NewEngine(mr.Config{
				Store:              dfs.NewMem(),
				Workers:            4,
				SpillPairThreshold: 64,
			})
			ctx, err := NewContext(engine, q, rels, Options{Partitions: 5, PartitionsPerDim: 4})
			if err != nil {
				t.Fatal(err)
			}
			got, err := alg.Run(ctx)
			if err != nil {
				t.Fatalf("%s on %q: %v", alg.Name(), tc.qs, err)
			}
			if err := rowsDiffer(got, want); err != nil {
				t.Errorf("%s on %q under spill: %v", alg.Name(), tc.qs, err)
			}
		}
	}
}

// randomAttrs builds arity random interval attributes; the second and later
// attributes use a small point domain so equality predicates match.
func randomAttrs(rng *rand.Rand, arity int) []interval.Interval {
	out := make([]interval.Interval, arity)
	for i := range out {
		if i == 0 {
			s := rng.Int63n(150)
			out[i] = interval.New(s, s+rng.Int63n(30))
			continue
		}
		p := rng.Int63n(4)
		out[i] = interval.PointInterval(p)
	}
	return out
}
