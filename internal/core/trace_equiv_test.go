package core

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strconv"
	"testing"

	"intervaljoin/internal/dfs"
	"intervaljoin/internal/mr"
	"intervaljoin/internal/obs"
	"intervaljoin/internal/query"
	"intervaljoin/internal/relation"
)

// runSingleTraced mirrors runSingle with a tracer attached, returning the
// tracer alongside the output lines.
func runSingleTraced(t *testing.T, alg Algorithm, q *query.Query, rels []*relation.Relation, opts Options) ([]string, *obs.Tracer) {
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
	return resultLines(res), tr
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
			opts := Options{Partitions: 6, PartitionsPerDim: 4}
			_, wantLines := runSingle(t, tc.alg, q, rels, opts)
			gotLines, tr := runSingleTraced(t, tc.alg, q, rels, opts)

			if len(gotLines) != len(wantLines) {
				t.Fatalf("output has %d lines traced, %d untraced", len(gotLines), len(wantLines))
			}
			for i := range gotLines {
				if gotLines[i] != wantLines[i] {
					t.Fatalf("output line %d differs:\ntraced:   %q\nuntraced: %q", i, gotLines[i], wantLines[i])
				}
			}
			snap := tr.Snapshot()
			if walls := snap.PhaseWalls(0); walls[obs.CatMap] <= 0 || walls[obs.CatReduce] <= 0 {
				t.Errorf("traced run has phase walls %v, want map and reduce", walls)
			}
			// Every cycle span must carry the driver's algorithm annotation.
			var cycles int
			for _, sp := range snap.Spans {
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

// TestTracedReportHoldsEveryCount: with the tracer recording spans only,
// metrics.json still carries every count of a run that exercised each
// engine feature — an adaptive RCCIS with a spilling shuffle. The counts
// sit in the serialized model and the plan; the spans carry the
// per-event detail as args.
func TestTracedReportHoldsEveryCount(t *testing.T) {
	q := query.MustParse("R1 overlaps R2 and R2 overlaps R3")
	rng := rand.New(rand.NewSource(11))
	rels := make([]*relation.Relation, len(q.Relations))
	for i, s := range q.Relations {
		rels[i] = randomRelation(rng, s.Name, 80, 160, 30)
	}
	tr := obs.New(obs.Options{})
	engine := mr.NewEngine(mr.Config{
		Store: dfs.NewMem(), Workers: 4, Tracer: tr,
		SpillPairThreshold: 64,
	})
	ctx, err := NewContext(engine, q, rels, Options{Partitions: 6, Adaptive: true, SplitThreshold: 0.01, MaxVirtual: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RCCIS{}.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := mr.WriteMetricsJSON(&buf, "rccis", tr, res.Metrics); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Serialized struct {
			SpilledPairs int64 `json:"spilled_pairs"`
		} `json:"serialized"`
		Plan struct {
			Partitions      int `json:"partitions"`
			VirtualReducers int `json:"virtual_reducers"`
			SplitPartitions int `json:"split_partitions"`
		} `json:"plan"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if doc.Serialized.SpilledPairs == 0 || doc.Serialized.SpilledPairs != m.SpilledPairs {
		t.Errorf("serialized.spilled_pairs = %d, Metrics.SpilledPairs = %d, want the same, non-zero", doc.Serialized.SpilledPairs, m.SpilledPairs)
	}
	if doc.Plan.VirtualReducers <= doc.Plan.Partitions || doc.Plan.SplitPartitions == 0 {
		t.Errorf("plan = %+v, want the forced split to add virtual reducers", doc.Plan)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &top); err != nil {
		t.Fatal(err)
	}
	for _, gone := range []string{"counters", "hists"} {
		if _, ok := top[gone]; ok {
			t.Errorf("metrics.json has %q: every count lives in serialized, skew or plan", gone)
		}
	}

	seen := map[string]int{}
	for _, sp := range tr.Snapshot().Spans {
		args := map[string]string{}
		for _, a := range sp.Args {
			args[a.Key] = a.Val
		}
		switch {
		case sp.Cat == obs.CatSpill:
			if n, err := strconv.Atoi(args["records"]); err != nil || n <= 0 {
				t.Errorf("spill span args %v, want a positive records count", args)
			}
			seen[sp.Cat]++
		case sp.Cat == obs.CatVirtualSplit:
			if args["virtual_reducers"] != strconv.Itoa(doc.Plan.VirtualReducers) || args["split_partitions"] != strconv.Itoa(doc.Plan.SplitPartitions) {
				t.Errorf("virtual_split span args %v, plan %+v", args, doc.Plan)
			}
			seen[sp.Cat]++
		}
	}
	for _, want := range []string{obs.CatSpill, obs.CatVirtualSplit} {
		if seen[want] == 0 {
			t.Errorf("no %s span in the trace (saw %v)", want, seen)
		}
	}
}
