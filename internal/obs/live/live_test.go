package live

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ij_test_ops_total", "operations")
	g := r.Gauge("ij_test_depth", "queue depth")
	const goroutines, perG = 8, 10_000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				c.Inc()
				g.Inc()
				g.Dec()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*perG {
		t.Errorf("counter lost increments: got %d, want %d", got, goroutines*perG)
	}
	if got := g.Value(); got != 0 {
		t.Errorf("gauge drifted: got %d, want 0", got)
	}
	if c.Add(-5); c.Value() != goroutines*perG {
		t.Error("counter accepted a negative delta")
	}
}

func TestHistConcurrentAndBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Hist("ij_test_width", "sample widths")
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(base int64) {
			defer wg.Done()
			for v := int64(0); v < 1000; v++ {
				h.Observe(base + v)
			}
		}(int64(i) * 1000)
	}
	wg.Wait()
	d := h.snapshot()
	if d.Count != 4000 {
		t.Fatalf("hist count %d, want 4000", d.Count)
	}
	var bucketSum int64
	for _, n := range d.Counts {
		bucketSum += n
	}
	if bucketSum != d.Count {
		t.Errorf("bucket sum %d != count %d", bucketSum, d.Count)
	}
	wantSum := float64(3999*4000/2) + 0 // sum of 0..3999
	if d.Sum != wantSum {
		t.Errorf("hist sum %g, want %g", d.Sum, wantSum)
	}
}

// TestLatencyQuantileBounds checks the quantile estimate lands inside the
// bucket that truly contains the quantile: the estimate of the
// q-quantile of a known sample set must lie within the bucket bounds
// bracketing the exact value.
func TestLatencyQuantileBounds(t *testing.T) {
	r := NewRegistry()
	h := r.Latency("ij_test_latency_seconds", "latencies")
	// 1..1000 ms uniformly: exact p50 = 500ms (bucket (0.25, 0.5]),
	// p95 = 950ms (bucket (0.5, 1]), p99 = 990ms (same).
	for ms := 1; ms <= 1000; ms++ {
		h.Observe(time.Duration(ms) * time.Millisecond)
	}
	d := h.snapshot()
	cases := []struct {
		q      float64
		lo, hi float64 // bucket bounds bracketing the exact quantile
	}{
		{0.50, 0.25, 0.5},
		{0.95, 0.5, 1},
		{0.99, 0.5, 1},
	}
	for _, c := range cases {
		got := d.Quantile(c.q)
		if got < c.lo || got > c.hi {
			t.Errorf("p%g = %g, want within (%g, %g]", c.q*100, got, c.lo, c.hi)
		}
	}
	if mean := d.Mean(); math.Abs(mean-0.5005) > 1e-9 {
		t.Errorf("mean %g, want 0.5005", mean)
	}
}

func TestHistQuantileEmpty(t *testing.T) {
	var d *HistData
	if d.Quantile(0.5) != 0 || d.Mean() != 0 {
		t.Error("nil HistData quantile/mean not zero")
	}
}

func TestSnapshotMerge(t *testing.T) {
	mk := func(c1, g1 int64, obs []time.Duration) *Snapshot {
		r := NewRegistry()
		r.Counter("ij_m_total", "c").Add(c1)
		r.Gauge("ij_m_inflight", "g").Set(g1)
		h := r.Latency("ij_m_latency_seconds", "h")
		for _, d := range obs {
			h.Observe(d)
		}
		v := r.CounterVec("ij_m_requests_total", "v", "code")
		v.With("200").Add(c1)
		return r.Snapshot()
	}
	a := mk(3, 1, []time.Duration{time.Millisecond, time.Second})
	b := mk(5, 2, []time.Duration{10 * time.Millisecond})
	a.Merge(b)

	if f := a.Family("ij_m_total"); f == nil || f.Series[0].Value != 8 {
		t.Fatalf("merged counter: %+v", f)
	}
	if f := a.Family("ij_m_inflight"); f == nil || f.Series[0].Value != 3 {
		t.Fatalf("merged gauge: %+v", f)
	}
	f := a.Family("ij_m_latency_seconds")
	if f == nil || f.Series[0].Hist == nil {
		t.Fatal("merged histogram missing")
	}
	if got := f.Series[0].Hist.Count; got != 3 {
		t.Errorf("merged hist count %d, want 3", got)
	}
	wantSum := 1.011
	if got := f.Series[0].Hist.Sum; math.Abs(got-wantSum) > 1e-9 {
		t.Errorf("merged hist sum %g, want %g", got, wantSum)
	}
	if f := a.Family("ij_m_requests_total"); f == nil || f.Series[0].Value != 8 {
		t.Fatalf("merged labeled counter: %+v", f)
	}
	// Merged snapshots must still expose cleanly.
	var sb strings.Builder
	if err := WriteText(&sb, a); err != nil {
		t.Fatal(err)
	}
	if _, err := Parse(strings.NewReader(sb.String())); err != nil {
		t.Fatalf("merged snapshot fails validation: %v", err)
	}
}

func TestRegistryPanicsOnBadRegistration(t *testing.T) {
	cases := []struct {
		name string
		fn   func(r *Registry)
	}{
		{"invalid name", func(r *Registry) { r.Counter("ij_bad-name", "h") }},
		{"empty help", func(r *Registry) { r.Counter("ij_ok_total", "") }},
		{"duplicate", func(r *Registry) { r.Counter("ij_dup_total", "h"); r.Counter("ij_dup_total", "h") }},
		{"bad label", func(r *Registry) { r.CounterVec("ij_vec_total", "h", "__reserved") }},
		{"no labels", func(r *Registry) { r.CounterVec("ij_vec2_total", "h") }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", c.name)
				}
			}()
			c.fn(NewRegistry())
		})
	}
}

func TestVecReusesSeries(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("ij_codes_total", "by code", "code")
	v.With("200").Inc()
	v.With("200").Inc()
	v.With("500").Inc()
	s := r.Snapshot()
	f := s.Family("ij_codes_total")
	if f == nil || len(f.Series) != 2 {
		t.Fatalf("want 2 series, got %+v", f)
	}
	if f.Series[0].Value != 2 || f.Series[0].Labels[0].Value != "200" {
		t.Errorf("code=200 series: %+v", f.Series[0])
	}
}

func TestCollectorRunsAtSnapshot(t *testing.T) {
	r := NewRegistry()
	g := r.FloatGauge("ij_bridge_ratio", "bridged ratio")
	calls := 0
	r.OnCollect(func() { calls++; g.Set(0.25) })
	s := r.Snapshot()
	if calls != 1 {
		t.Fatalf("collector ran %d times, want 1", calls)
	}
	if f := s.Family("ij_bridge_ratio"); f == nil || f.Series[0].Value != 0.25 {
		t.Fatalf("bridged gauge: %+v", f)
	}
}

func TestValidNames(t *testing.T) {
	for _, ok := range []string{"ij_x", "a:b", "_x", "ij_query_latency_seconds"} {
		if !ValidName(ok) {
			t.Errorf("ValidName(%q) = false", ok)
		}
	}
	for _, bad := range []string{"", "1x", "ij-x", "ij x", "ij_x\n"} {
		if ValidName(bad) {
			t.Errorf("ValidName(%q) = true", bad)
		}
	}
	for _, ok := range []string{"code", "x_1"} {
		if !ValidLabel(ok) {
			t.Errorf("ValidLabel(%q) = false", ok)
		}
	}
	for _, bad := range []string{"", "__name__", "1x", "a-b"} {
		if ValidLabel(bad) {
			t.Errorf("ValidLabel(%q) = true", bad)
		}
	}
}
