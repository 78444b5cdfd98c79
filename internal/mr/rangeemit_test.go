package mr

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strconv"
	"testing"

	"intervaljoin/internal/dfs"
)

// broadcastJob routes each record to a contiguous band of reducers: record i
// covers keys [from+i%7, from+i%7+width-1], through one EmitRange call or —
// perKey, the reference — one Emit per covered key. Each reducer reports its
// sorted value list, so the output is sensitive to exactly which values
// reached which key.
func broadcastJob(n, width int, from int64, perKey bool) (Job, []string) {
	recs := make([]string, n)
	for i := range recs {
		recs[i] = strconv.Itoa(i)
	}
	return Job{
		Name:   "bcast",
		Inputs: []Input{{File: "in"}},
		Map: func(tag int, record string, emit Emitter) error {
			v, _ := strconv.ParseInt(record, 10, 64)
			lo := from + v%7
			hi := lo + int64(width) - 1
			if !perKey {
				emit.EmitRange(lo, hi, record)
				return nil
			}
			for k := lo; k <= hi; k++ {
				emit.Emit(k, record)
			}
			return nil
		},
		Reduce: func(key int64, values []string, write func(string) error) error {
			sorted := append([]string(nil), values...)
			sort.Strings(sorted)
			return write(fmt.Sprintf("%d:%d:%s", key, len(sorted), joinMax(sorted, 5)))
		},
		Output: "out",
	}, recs
}

func joinMax(vs []string, max int) string {
	if len(vs) > max {
		vs = vs[:max]
	}
	s := ""
	for i, v := range vs {
		if i > 0 {
			s += ","
		}
		s += v
	}
	return s
}

// runBroadcast runs broadcastJob both ways on engines of the given spill
// threshold and requires what must not depend on how the map function spells
// a broadcast: the reduce output byte for byte, the logical pair and byte
// counts and the per-reducer accounting. It returns the EmitRange run's
// metrics and the per-key run's.
func runBroadcast(t *testing.T, n, width int, from int64, spill int) (ranged, perKey *Metrics) {
	t.Helper()
	var out [2][]string
	var met [2]*Metrics
	for i, reference := range []bool{false, true} {
		store := dfs.NewMem()
		job, recs := broadcastJob(n, width, from, reference)
		if err := dfs.WriteAll(store, "in", recs); err != nil {
			t.Fatal(err)
		}
		e := NewEngine(Config{Store: store, Workers: 4, SpillPairThreshold: spill})
		m, err := e.Run(job)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := dfs.ReadAll(store, "out")
		if err != nil {
			t.Fatal(err)
		}
		out[i], met[i] = rows, m
	}
	if !slices.Equal(out[0], out[1]) {
		t.Fatalf("EmitRange output differs from per-key Emit:\n%q\n%q", out[0], out[1])
	}
	if met[0].IntermediatePairs != int64(n*width) || met[1].IntermediatePairs != int64(n*width) {
		t.Fatalf("logical pairs: range %d, per key %d, want %d",
			met[0].IntermediatePairs, met[1].IntermediatePairs, n*width)
	}
	if met[0].IntermediateBytes != met[1].IntermediateBytes {
		t.Fatalf("logical bytes: range %d, per key %d", met[0].IntermediateBytes, met[1].IntermediateBytes)
	}
	if met[0].DistinctKeys != met[1].DistinctKeys {
		t.Fatalf("keys: range %d, per key %d", met[0].DistinctKeys, met[1].DistinctKeys)
	}
	if !maps.Equal(met[0].ReducerPairs, met[1].ReducerPairs) {
		t.Fatalf("reducer pairs: range %v, per key %v", met[0].ReducerPairs, met[1].ReducerPairs)
	}
	if met[1].PhysicalPairs != int64(n*width) {
		t.Fatalf("per-key physical pairs = %d, want %d", met[1].PhysicalPairs, n*width)
	}
	return met[0], met[1]
}

// TestEmitRangeEquivalence checks the range-coalesced shuffle produces
// byte-identical reduce output to a map function that emits the same value
// once per covered key, in memory and through the spill path, and that the
// logical pair metrics agree while the physical counts shrink.
func TestEmitRangeEquivalence(t *testing.T) {
	const n, width = 3000, 9
	for _, spill := range []int{0, 100, 4096} {
		t.Run(fmt.Sprintf("spill=%d", spill), func(t *testing.T) {
			m, _ := runBroadcast(t, n, width, 0, spill)
			if m.PhysicalPairs != int64(n) {
				t.Fatalf("physical pairs = %d, want one per EmitRange call (%d)", m.PhysicalPairs, n)
			}
			if rf := m.ReplicationFactor(); rf != float64(width) {
				t.Fatalf("replication factor = %v, want %d", rf, width)
			}
			if m.PhysicalBytes*2 > m.IntermediateBytes {
				t.Fatalf("physical bytes %d not under half of logical %d",
					m.PhysicalBytes, m.IntermediateBytes)
			}
		})
	}
}

// TestRangeSpillRoundtrip spills a mix of point and range emissions and reads
// them back through the run cursor.
func TestRangeSpillRoundtrip(t *testing.T) {
	store := dfs.NewMem()
	ems := []emission{
		{lo: 5, hi: 5, value: "point5"},
		{lo: 0, hi: 3, value: "range0-3"},
		{lo: 3, hi: 3, value: ""},
		{lo: 1234567890123, hi: 9876543210987, value: "wide"},
		{lo: 2, hi: 7, value: "range2-7"},
	}
	if err := spillRun(store, "run0", ems); err != nil {
		t.Fatal(err)
	}
	rc, err := openRun(store, "run0")
	if err != nil {
		t.Fatal(err)
	}
	defer rc.close()
	want := []emission{
		{0, 3, "range0-3"},
		{2, 7, "range2-7"},
		{3, 3, ""},
		{5, 5, "point5"},
		{1234567890123, 9876543210987, "wide"},
	}
	for i, w := range want {
		got, ok := rc.peek()
		if !ok {
			t.Fatalf("cursor exhausted at %d", i)
		}
		if got != w {
			t.Fatalf("emission %d = %+v, want %+v", i, got, w)
		}
		if err := rc.next(); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := rc.peek(); ok {
		t.Fatal("cursor not exhausted after all emissions")
	}
}

// TestMergeRunsRangeSweep drives the sweep directly with overlapping ranges,
// point pairs, and key gaps across multiple cursors.
func TestMergeRunsRangeSweep(t *testing.T) {
	cursors := []cursor{
		&memCursor{ems: []emission{{1, 4, "a"}, {10, 10, "x"}}},
		&memCursor{ems: []emission{{2, 2, "b"}, {3, 6, "c"}, {20, 21, "y"}}},
	}
	type row struct {
		key  int64
		vals []string
	}
	var got []row
	err := mergeRuns(cursors, func(key int64, values []string) error {
		vs := append([]string(nil), values...)
		sort.Strings(vs)
		got = append(got, row{key, vs})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []row{
		{1, []string{"a"}},
		{2, []string{"a", "b"}},
		{3, []string{"a", "c"}},
		{4, []string{"a", "c"}},
		{5, []string{"c"}},
		{6, []string{"c"}},
		{10, []string{"x"}},
		{20, []string{"y"}},
		{21, []string{"y"}},
	}
	if len(got) != len(want) {
		t.Fatalf("swept %d keys, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i].key != want[i].key || fmt.Sprint(got[i].vals) != fmt.Sprint(want[i].vals) {
			t.Fatalf("key %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestEmitRangeNegativeLo checks ranges dipping below zero fall back to
// per-key pairs (spill runs reject negative keys, so they must never
// coalesce): the run is the per-key reference's in every count, physical ones
// included.
func TestEmitRangeNegativeLo(t *testing.T) {
	// Every band starts in [-9, -3] and ends in [-5, 1].
	const n, width = 40, 5
	m, ref := runBroadcast(t, n, width, -9, 0)
	if m.PhysicalPairs != ref.PhysicalPairs || m.PhysicalBytes != ref.PhysicalBytes {
		t.Fatalf("physical pairs/bytes %d/%d, per-key reference %d/%d",
			m.PhysicalPairs, m.PhysicalBytes, ref.PhysicalPairs, ref.PhysicalBytes)
	}
}

// TestEmitRangeEmptyAndSingle checks degenerate ranges: hi < lo is a no-op,
// hi == lo is a plain pair.
func TestEmitRangeEmptyAndSingle(t *testing.T) {
	var buf []emission
	emit := Emitter{buf: &buf}
	emit.EmitRange(5, 4, "dropped")
	emit.EmitRange(7, 7, "single")
	if len(buf) != 1 || buf[0] != (emission{7, 7, "single"}) {
		t.Fatalf("buf = %+v", buf)
	}
	if buf[0].isRange() {
		t.Fatal("degenerate range should be a point pair")
	}
}
