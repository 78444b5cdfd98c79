package mr

import (
	"slices"
	"testing"
	"time"
)

func TestReducerLoadVector(t *testing.T) {
	m := newMetrics("t")
	if got := m.ReducerLoadVector(); len(got) != 0 {
		t.Fatalf("empty metrics load vector = %v, want empty", got)
	}
	m.ReducerPairs = map[int64]int64{5: 7, 0: 3, 2: 11}
	if got, want := m.ReducerLoadVector(), []int64{3, 11, 7}; !slices.Equal(got, want) {
		t.Fatalf("load vector = %v, want %v (key order)", got, want)
	}
}

func TestDerivedStatsEdgeCases(t *testing.T) {
	m := newMetrics("t")
	// Zero reducers: means are zero, imbalance defined as balanced.
	if got := m.MeanReducerPairs(); got != 0 {
		t.Fatalf("mean over no reducers = %v, want 0", got)
	}
	if got := m.MaxReducerPairs(); got != 0 {
		t.Fatalf("max over no reducers = %v, want 0", got)
	}
	if got := m.LoadImbalance(); got != 1 {
		t.Fatalf("imbalance over no reducers = %v, want 1", got)
	}
	// Single reducer: trivially balanced.
	m.ReducerPairs = map[int64]int64{3: 42}
	if got := m.MeanReducerPairs(); got != 42 {
		t.Fatalf("single-reducer mean = %v, want 42", got)
	}
	if got := m.LoadImbalance(); got != 1 {
		t.Fatalf("single-reducer imbalance = %v, want 1", got)
	}
	// Skewed vector: one reducer holds most of the load.
	m.ReducerPairs = map[int64]int64{0: 10, 1: 10, 2: 100, 3: 40}
	if got := m.MaxReducerPairs(); got != 100 {
		t.Fatalf("max = %v, want 100", got)
	}
	if got, want := m.MeanReducerPairs(), 40.0; got != want {
		t.Fatalf("mean = %v, want %v", got, want)
	}
	if got, want := m.LoadImbalance(), 2.5; got != want {
		t.Fatalf("imbalance = %v, want %v", got, want)
	}
	// All-zero loads: mean 0 must not divide; defined as balanced.
	m.ReducerPairs = map[int64]int64{0: 0, 1: 0}
	if got := m.LoadImbalance(); got != 1 {
		t.Fatalf("all-zero imbalance = %v, want 1", got)
	}
}

func TestReplicationFactorEdgeCases(t *testing.T) {
	m := newMetrics("t")
	if got := m.ReplicationFactor(); got != 1 {
		t.Fatalf("zero physical pairs factor = %v, want 1", got)
	}
	m.IntermediatePairs, m.PhysicalPairs = 120, 30
	if got := m.ReplicationFactor(); got != 4 {
		t.Fatalf("factor = %v, want 4", got)
	}
}

// TestMergeZeroValueIdempotent checks that merging a zero-value metrics
// value changes nothing observable, so empty cycles (or aggregation
// seeds) never perturb chain aggregates.
func TestMergeZeroValueIdempotent(t *testing.T) {
	m := newMetrics("chain")
	m.IntermediatePairs = 100
	m.PhysicalPairs = 25
	m.MapWall = 3 * time.Second
	m.ReduceWall = 2 * time.Second
	m.ReducerPairs = map[int64]int64{1: 60, 2: 40}
	m.ReducerTime = map[int64]time.Duration{1: time.Second}
	m.DistinctKeys = 2

	zero := newMetrics("empty")
	zero.Cycles = 0
	before := *m
	beforePairs := map[int64]int64{1: 60, 2: 40}
	m.Merge(zero)
	if m.IntermediatePairs != before.IntermediatePairs || m.MapWall != before.MapWall ||
		m.ReduceWall != before.ReduceWall || m.Cycles != before.Cycles ||
		m.DistinctKeys != before.DistinctKeys {
		t.Fatalf("merge of zero metrics changed scalars: %+v -> %+v", before, m)
	}
	for k, v := range beforePairs {
		if m.ReducerPairs[k] != v {
			t.Fatalf("merge of zero metrics changed ReducerPairs[%d] = %d, want %d", k, m.ReducerPairs[k], v)
		}
	}
}

func TestMergeSerializedModel(t *testing.T) {
	a := newMetrics("c1")
	a.MapWall, a.ReduceWall, a.TotalWall = time.Second, 2*time.Second, 3*time.Second
	a.IntermediatePairs = 10
	a.ReducerPairs = map[int64]int64{1: 10}
	b := newMetrics("c2")
	b.MapWall, b.ReduceWall, b.TotalWall = 4*time.Second, 5*time.Second, 9*time.Second
	b.IntermediatePairs = 20
	b.ReducerPairs = map[int64]int64{1: 5, 2: 15}

	agg := newMetrics("chain")
	agg.Cycles = 0
	agg.Merge(a)
	agg.Merge(b)
	// The serialized model sums wall clocks as if cycles ran back to back.
	if agg.MapWall != 5*time.Second || agg.TotalWall != 12*time.Second {
		t.Fatalf("summed walls = %v / %v", agg.MapWall, agg.TotalWall)
	}
	if agg.Cycles != 2 || agg.IntermediatePairs != 30 {
		t.Fatalf("cycles=%d pairs=%d", agg.Cycles, agg.IntermediatePairs)
	}
	// Same key across cycles merges onto one node.
	if agg.ReducerPairs[1] != 15 || agg.ReducerPairs[2] != 15 || agg.DistinctKeys != 2 {
		t.Fatalf("reducer pairs = %v, keys = %d", agg.ReducerPairs, agg.DistinctKeys)
	}
}
