package core

import (
	"slices"
	"strconv"
	"strings"
	"testing"

	"intervaljoin/internal/dfs"
	"intervaljoin/internal/interval"
	"intervaljoin/internal/mr"
	"intervaljoin/internal/query"
	"intervaljoin/internal/relation"
	"intervaljoin/internal/workload"
)

// TestDiskStoreWithSpillEndToEnd runs the paper's Q1 on an engine whose
// store is on disk and whose shuffle spills, end to end: the most
// Hadoop-like configuration the engine supports. Guarded by -short.
func TestDiskStoreWithSpillEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("disk+spill integration test skipped in -short mode")
	}
	disk, err := dfs.NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	engine := mr.NewEngine(mr.Config{
		Store:              disk,
		Workers:            4,
		SpillPairThreshold: 512,
		MaxTaskAttempts:    2,
	})
	q := query.MustParse("R1 overlaps R2 and R2 overlaps R3")
	rels := make([]*relation.Relation, 3)
	for i, s := range q.Relations {
		r, err := workload.Generate(workload.Table1Spec(s.Name, 3_000, int64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		rels[i] = r
	}
	refCtx, err := NewContext(engine, q, rels, Options{Partitions: 16})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Reference{}.Run(refCtx)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []Algorithm{RCCIS{}, AllRep{}, Cascade{}} {
		ctx, err := NewContext(engine, q, rels, Options{Partitions: 16})
		if err != nil {
			t.Fatal(err)
		}
		got, err := alg.Run(ctx)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		if got.Metrics.SpillRuns == 0 {
			t.Errorf("%s: expected shuffle spills at threshold 512", alg.Name())
		}
		if len(got.TupleSet()) != len(want.Tuples) {
			t.Fatalf("%s on disk+spill: %d tuples, oracle %d", alg.Name(), len(got.TupleSet()), len(want.Tuples))
		}
	}
}

// TestBinaryRecordsThroughStores is the end-to-end half of dfs's
// TestEveryByteRoundTrips: the engine's records are binary, so a tuple whose
// id or endpoint is 10 puts a '\n' on the store and nearly every record is
// full of zeros. RCCIS, the 2-way cascade and PASM run with a spilling
// shuffle (every emission a store record), on both backends, over ids and
// endpoints that take every byte value, and must agree with the oracle; PASM,
// whose marking is a store file in every run, on a hybrid query, so that a
// cycle boundary holds those bytes too.
func TestBinaryRecordsThroughStores(t *testing.T) {
	const (
		chain  = "R1 overlaps R2 and R2 overlaps R3"
		hybrid = "R1 overlaps R2 and R2 before R3"
	)
	rels := make([]*relation.Relation, 3)
	for i := range rels {
		ivs := make([]interval.Interval, 300)
		for k := range ivs {
			start := int64(2*k + i)
			ivs[k] = interval.New(start, start+3+int64(k%5))
		}
		rels[i] = relation.FromIntervals("R"+strconv.Itoa(i+1), ivs)
	}
	disk, err := dfs.NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for backend, store := range map[string]dfs.Store{"mem": dfs.NewMem(), "disk": disk} {
		engine := mr.NewEngine(mr.Config{Store: store, Workers: 4, SpillPairThreshold: 64})
		for _, tc := range []struct {
			query string
			algs  []Algorithm
		}{{chain, []Algorithm{RCCIS{}, Cascade{}}}, {hybrid, []Algorithm{PASM{}}}} {
			q := query.MustParse(tc.query)
			refCtx, err := NewContext(engine, q, rels, Options{Partitions: 8})
			if err != nil {
				t.Fatal(err)
			}
			want, err := Reference{}.Run(refCtx)
			if err != nil || len(want.Tuples) == 0 {
				t.Fatalf("oracle: %d rows, %v", len(want.Tuples), err)
			}
			for _, alg := range tc.algs {
				checkBinaryRun(t, backend, engine, alg, q, rels, want, tc.query == hybrid)
			}
		}
	}
}

// checkBinaryRun runs alg on the spilling engine and requires the oracle's
// rows, a spill, and — for a run that leaves its marking on the store — a
// boundary file that really held the bytes a line store would choke on.
func checkBinaryRun(t *testing.T, backend string, engine *mr.Engine, alg Algorithm, q *query.Query,
	rels []*relation.Relation, want *Result, marked bool) {
	t.Helper()
	scratch := "bytes-" + alg.Name()
	ctx, err := NewContext(engine, q, rels, Options{Partitions: 8, Scratch: scratch})
	if err != nil {
		t.Fatal(err)
	}
	got, err := alg.Run(ctx)
	if err != nil {
		t.Fatalf("%s on %s: %v", alg.Name(), backend, err)
	}
	if got.Metrics.SpillRuns == 0 {
		t.Errorf("%s on %s: no shuffle spill at threshold 64", alg.Name(), backend)
	}
	if !slices.Equal(got.IDs, want.IDs) {
		t.Errorf("%s on %s: %d rows, oracle %d, or other rows", alg.Name(), backend, len(got.Tuples), len(want.Tuples))
	}
	if !marked {
		return
	}
	recs, err := dfs.ReadAll(engine.Store(), scratch+"/marked")
	if err != nil {
		t.Fatalf("%s on %s: the run left no marked boundary: %v", alg.Name(), backend, err)
	}
	var newlines, zeros int
	for _, rec := range recs {
		newlines += strings.Count(rec, "\n")
		zeros += strings.Count(rec, "\x00")
	}
	if newlines == 0 || zeros == 0 {
		t.Errorf("%s on %s: the boundary file holds %d newline and %d zero bytes; the test no longer covers them", alg.Name(), backend, newlines, zeros)
	}
}
