package core

import (
	"math/rand"
	"testing"

	"intervaljoin/internal/dfs"
	"intervaljoin/internal/mr"
	"intervaljoin/internal/query"
	"intervaljoin/internal/relation"
)

// resultLines renders a result's rows, in order, as the text lines the
// equivalence suites compare byte for byte.
func resultLines(res *Result) []string {
	lines := make([]string, len(res.Tuples))
	for i, t := range res.Tuples {
		lines[i] = t.Key()
	}
	return lines
}

// runSingle executes one algorithm on a fresh store with a pinned scratch
// directory and returns the result plus its rows rendered as lines.
func runSingle(t *testing.T, alg Algorithm, q *query.Query, rels []*relation.Relation, opts Options) (*Result, []string) {
	t.Helper()
	return runOnStore(t, dfs.NewMem(), alg, q, rels, opts)
}

// runOnStore is runSingle on a store the caller keeps, so it can inspect
// the intermediates the run left behind.
func runOnStore(t *testing.T, store dfs.Store, alg Algorithm, q *query.Query, rels []*relation.Relation, opts Options) (*Result, []string) {
	t.Helper()
	engine := mr.NewEngine(mr.Config{Store: store, Workers: 4})
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

// TestPipelinedMatchesMaterialized runs every multi-cycle algorithm twice —
// once as one pipeline (the default) and once with Materialize: true (a
// store barrier at every boundary) — and requires byte-identical final
// output plus identical result statistics. SortValues pins reduce-value
// order so both modes are deterministic. For the algorithms whose first
// cycle is the RCCIS marking, the materialized arm also recounts the
// replicate-flagged records from the "marked" file the barrier left on the
// store — a check of the streaming tap that shares no code with it.
func TestPipelinedMatchesMaterialized(t *testing.T) {
	cases := []struct {
		name   string
		alg    Algorithm
		query  string
		marked bool // cycle 1 writes flagged tuples to <scratch>/marked
	}{
		{"cascade", Cascade{}, "R1 overlaps R2 and R2 overlaps R3", false},
		{"cascade-matrix", Cascade{MatrixSteps: true}, "R1 before R2 and R2 before R3", false},
		{"rccis", RCCIS{}, "R1 overlaps R2 and R2 overlaps R3", true},
		{"all-seq-matrix", SeqMatrix{}, "R1 overlaps R2 and R2 overlaps R3", true},
		{"all-seq-matrix-hybrid", SeqMatrix{}, "R1 before R2 and R1 overlaps R3", true},
		{"fcts", FCTS{}, "R1 overlaps R2 and R2 overlaps R3", true},
		{"fcts-hybrid", FCTS{}, "R1 before R2 and R1 overlaps R3", true},
		{"fstc-hybrid", FSTC{}, "R1 before R2 and R1 overlaps R3", false},
		{"pasm", PASM{}, "R1 overlaps R2 and R2 overlaps R3", true},
		{"pasm-hybrid", PASM{}, "R1 before R2 and R1 overlaps R3", true},
		{"gen-matrix", GenMatrix{}, "R1 before R2 and R1 overlaps R3", false},
	}
	rng := rand.New(rand.NewSource(42))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q := query.MustParse(tc.query)
			rels := make([]*relation.Relation, len(q.Relations))
			for i, s := range q.Relations {
				rels[i] = randomRelation(rng, s.Name, 45, 160, 30)
			}
			opts := Options{
				Partitions: 6, PartitionsPerDim: 4,
				Scratch: "equiv", SortValues: true,
			}
			seq := opts
			seq.Materialize = true
			seqStore := dfs.NewMem()
			wantRes, wantLines := runOnStore(t, seqStore, tc.alg, q, rels, seq)
			gotRes, gotLines := runSingle(t, tc.alg, q, rels, opts)

			if tc.marked {
				marked, err := dfs.ReadAll(seqStore, seq.Scratch+"/marked")
				if err != nil {
					t.Fatalf("materialized run left no marked file: %v", err)
				}
				var flagged int64
				for _, rec := range marked {
					_, _, flags, err := splitVector(rec)
					if err != nil {
						t.Fatalf("marked record %q: %v", rec, err)
					}
					if flags == flagSuffix[1] {
						flagged++
					}
				}
				if flagged != wantRes.ReplicatedIntervals {
					t.Errorf("replicated: result says %d, marked file holds %d flagged records",
						wantRes.ReplicatedIntervals, flagged)
				}
			}
			for mode, res := range map[string]*Result{"pipelined": gotRes, "materialized": wantRes} {
				if res.Metrics.Job != tc.alg.Name() {
					t.Errorf("%s Metrics.Job = %q, want %q", mode, res.Metrics.Job, tc.alg.Name())
				}
			}

			if len(gotLines) != len(wantLines) {
				t.Fatalf("output has %d lines pipelined, %d materialized", len(gotLines), len(wantLines))
			}
			for i := range gotLines {
				if gotLines[i] != wantLines[i] {
					t.Fatalf("output line %d differs:\npipelined:    %q\nmaterialized: %q",
						i, gotLines[i], wantLines[i])
				}
			}
			if len(gotRes.Tuples) != len(wantRes.Tuples) {
				t.Errorf("tuples: %d pipelined, %d materialized", len(gotRes.Tuples), len(wantRes.Tuples))
			}
			if gotRes.ReplicatedIntervals != wantRes.ReplicatedIntervals {
				t.Errorf("replicated: %d pipelined, %d materialized",
					gotRes.ReplicatedIntervals, wantRes.ReplicatedIntervals)
			}
			for _, rels := range [][]map[int]int64{{gotRes.PrunedIntervals, wantRes.PrunedIntervals}} {
				got, want := rels[0], rels[1]
				for k, v := range want {
					if got[k] != v {
						t.Errorf("pruned[%d]: %d pipelined, %d materialized", k, got[k], v)
					}
				}
				for k, v := range got {
					if v != 0 && want[k] != v {
						t.Errorf("pruned[%d]: %d pipelined, %d materialized", k, v, want[k])
					}
				}
			}
			if gotRes.Metrics.StreamedPairs == 0 {
				t.Error("pipelined run streamed no pairs across cycle boundaries")
			}
			if wantRes.Metrics.StreamedPairs != 0 {
				t.Errorf("materialized run streamed %d pairs, want 0", wantRes.Metrics.StreamedPairs)
			}
			if gotRes.Metrics.Cycles != wantRes.Metrics.Cycles {
				t.Errorf("cycles: %d pipelined, %d materialized",
					gotRes.Metrics.Cycles, wantRes.Metrics.Cycles)
			}
		})
	}
}
