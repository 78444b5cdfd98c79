package core

import (
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"intervaljoin/internal/dfs"
	"intervaljoin/internal/interval"
	"intervaljoin/internal/mr"
	"intervaljoin/internal/query"
	"intervaljoin/internal/relation"
	"intervaljoin/internal/workload"
)

// TestSpillEndToEnd runs the paper's Q1 on an engine whose shuffle spills,
// end to end: every emission goes through the store as a spill record, and
// the answer must still be the oracle's. Guarded by -short.
func TestSpillEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("spill integration test skipped in -short mode")
	}
	engine := mr.NewEngine(mr.Config{
		Store:              dfs.NewMem(),
		Workers:            4,
		SpillPairThreshold: 512,
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
		if !slices.Equal(got.IDs, want.IDs) {
			t.Fatalf("%s with spill: %d tuples, oracle %d, or other tuples", alg.Name(), len(got.Tuples), len(want.Tuples))
		}
	}
}

// byteCountingStore counts the newline and zero bytes in every record
// written to the store it wraps.
type byteCountingStore struct {
	dfs.Store
	newlines, zeros atomic.Int64
}

func (s *byteCountingStore) Create(name string) (dfs.Writer, error) {
	w, err := s.Store.Create(name)
	return byteCountingWriter{Writer: w, store: s}, err
}

type byteCountingWriter struct {
	dfs.Writer
	store *byteCountingStore
}

func (w byteCountingWriter) Write(rec string) error {
	w.store.newlines.Add(int64(strings.Count(rec, "\n")))
	w.store.zeros.Add(int64(strings.Count(rec, "\x00")))
	return w.Writer.Write(rec)
}

// TestBinaryRecordsThroughStores is the end-to-end half of dfs's
// TestEveryByteRoundTrips: the engine's records are binary, so a tuple whose
// id or endpoint is 10 puts a '\n' on the store and nearly every record is
// full of zeros. RCCIS, the 2-way cascade and PASM run with a spilling
// shuffle (every emission a store record) over ids and endpoints that take
// every byte value, and must agree with the oracle; PASM on a hybrid query,
// so that the marking its prune cycle shuffles — flag bytes behind every
// member — is spilled too. The spill runs must really have held those
// bytes, and none may be left behind.
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
	store := &byteCountingStore{Store: dfs.NewMem()}
	engine := mr.NewEngine(mr.Config{Store: store, Workers: 4, SpillPairThreshold: 64})
	for _, tc := range []struct {
		query string
		algs  []Algorithm
	}{{chain, []Algorithm{RCCIS{}, Cascade{}}}, {hybrid, []Algorithm{PASM{}}}} {
		q := query.MustParse(tc.query)
		ctx, err := NewContext(engine, q, rels, Options{Partitions: 8})
		if err != nil {
			t.Fatal(err)
		}
		want, err := Reference{}.Run(ctx)
		if err != nil || len(want.Tuples) == 0 {
			t.Fatalf("oracle: %d rows, %v", len(want.Tuples), err)
		}
		for _, alg := range tc.algs {
			store.newlines.Store(0)
			store.zeros.Store(0)
			got, err := alg.Run(ctx)
			if err != nil {
				t.Fatalf("%s: %v", alg.Name(), err)
			}
			if got.Metrics.SpillRuns == 0 {
				t.Errorf("%s: no shuffle spill at threshold 64", alg.Name())
			}
			if !slices.Equal(got.IDs, want.IDs) {
				t.Errorf("%s: %d rows, oracle %d, or other rows", alg.Name(), len(got.Tuples), len(want.Tuples))
			}
			if store.newlines.Load() == 0 || store.zeros.Load() == 0 {
				t.Errorf("%s: the spill runs held %d newline and %d zero bytes; the test no longer covers them",
					alg.Name(), store.newlines.Load(), store.zeros.Load())
			}
			if files, _ := store.List(""); len(files) != 0 {
				t.Errorf("%s left %v on the store", alg.Name(), files)
			}
		}
	}
}
