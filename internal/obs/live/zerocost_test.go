package live

import (
	"testing"
	"time"
)

// TestLiveDisabledZeroCost pins the package contract that check.sh gates:
// with telemetry disabled (a nil registry, and therefore nil metric
// handles), every instrumentation point on the query hot path costs a nil
// check and zero allocations — exactly the parent obs package's
// nil-tracer rule.
func TestLiveDisabledZeroCost(t *testing.T) {
	var r *Registry
	c := r.Counter("ij_disabled_total", "disabled")
	g := r.Gauge("ij_disabled_inflight", "disabled")
	fg := r.FloatGauge("ij_disabled_ratio", "disabled")
	h := r.Hist("ij_disabled_span", "disabled")
	lat := r.Latency("ij_disabled_latency_seconds", "disabled")
	vec := r.CounterVec("ij_disabled_codes_total", "disabled", "code")
	pre := vec.With("200") // handles pre-resolved at startup, as ijoind does
	stage := r.LatencyVec("ij_disabled_stage_seconds", "disabled", "stage").With("merge")
	r.OnCollect(func() { t.Error("collector ran on a disabled registry") })

	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Inc()
		g.Set(7)
		g.Dec()
		fg.Set(0.5)
		h.Observe(12345)
		lat.Observe(3 * time.Millisecond)
		pre.Inc()
		stage.Observe(40 * time.Microsecond)
	})
	if allocs != 0 {
		t.Fatalf("disabled telemetry allocated %.1f times per op, want 0", allocs)
	}
	if s := r.Snapshot(); s != nil {
		t.Fatalf("disabled registry snapshot = %+v, want nil", s)
	}
}
