package live

import (
	"strings"
	"testing"
	"time"
)

// TestExpositionGolden pins the exact text-format output of a small
// registry: family ordering (by name), TYPE/HELP lines, label rendering,
// histogram expansion into cumulative buckets, escaping. Any drift in the
// exposition writer shows up as a readable diff here.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("ij_requests_total", "requests served").Add(42)
	r.Gauge("ij_inflight", "queries in the join path").Set(3)
	r.FloatGauge("ij_hit_ratio", "span hit ratio").Set(0.75)
	v := r.CounterVec("ij_codes_total", "responses by status code", "code")
	v.With("200").Add(40)
	v.With("429").Add(2)
	h := r.Hist("ij_span", "window spans")
	h.Observe(0)
	h.Observe(1)
	h.Observe(3)
	h.Observe(3)
	e := r.GaugeVec("ij_esc", "label \\ escaping\ncheck", "q")
	e.With(`a"b\c`).Set(1)

	var sb strings.Builder
	if err := WriteText(&sb, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	const want = `# HELP ij_codes_total responses by status code
# TYPE ij_codes_total counter
ij_codes_total{code="200"} 40
ij_codes_total{code="429"} 2
# HELP ij_esc label \\ escaping\ncheck
# TYPE ij_esc gauge
ij_esc{q="a\"b\\c"} 1
# HELP ij_hit_ratio span hit ratio
# TYPE ij_hit_ratio gauge
ij_hit_ratio 0.75
# HELP ij_inflight queries in the join path
# TYPE ij_inflight gauge
ij_inflight 3
# HELP ij_requests_total requests served
# TYPE ij_requests_total counter
ij_requests_total 42
# HELP ij_span window spans
# TYPE ij_span histogram
ij_span_bucket{le="0"} 1
ij_span_bucket{le="1"} 2
ij_span_bucket{le="3"} 4
ij_span_bucket{le="+Inf"} 4
ij_span_sum 7
ij_span_count 4
`
	if got := sb.String(); got != want {
		t.Errorf("exposition drifted:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if _, err := Parse(strings.NewReader(sb.String())); err != nil {
		t.Errorf("golden output fails its own validator: %v", err)
	}
}

// TestParseRoundTrip checks a realistic snapshot (latency histogram
// included) survives write → parse with values intact.
func TestParseRoundTrip(t *testing.T) {
	r := NewRegistry()
	lat := r.Latency("ij_query_latency_seconds", "query latency")
	lat.Observe(2 * time.Millisecond)
	lat.Observe(40 * time.Millisecond)
	lat.Observe(3 * time.Second)
	r.Counter("ij_admission_rejected_total", "rejected").Add(7)
	stages := r.LatencyVec("ij_query_stage_seconds", "query latency by stage", "stage")
	stages.With("merge").Observe(40 * time.Microsecond)
	stages.With("encode").Observe(20 * time.Microsecond)
	stages.With("encode").Observe(30 * time.Microsecond)

	var sb strings.Builder
	if err := WriteText(&sb, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	samples, err := Parse(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	byName := make(map[string][]Sample)
	for _, s := range samples {
		byName[s.Name] = append(byName[s.Name], s)
	}
	if v := byName["ij_admission_rejected_total"]; len(v) != 1 || v[0].Value != 7 {
		t.Errorf("counter round trip: %+v", v)
	}
	if v := byName["ij_query_latency_seconds_count"]; len(v) != 1 || v[0].Value != 3 {
		t.Errorf("hist count round trip: %+v", v)
	}
	buckets := byName["ij_query_latency_seconds_bucket"]
	if len(buckets) != len(latencyBounds)+1 {
		t.Fatalf("want %d bucket samples, got %d", len(latencyBounds)+1, len(buckets))
	}
	if inf := buckets[len(buckets)-1]; inf.Label("le") != "+Inf" || inf.Value != 3 {
		t.Errorf("+Inf bucket: %+v", inf)
	}
	// A labeled histogram carries its series label on every bucket, sum
	// and count line, one set per label value.
	for _, s := range byName["ij_query_stage_seconds_count"] {
		if want := map[string]float64{"merge": 1, "encode": 2}[s.Label("stage")]; s.Value != want {
			t.Errorf("stage %q count = %v, want %v", s.Label("stage"), s.Value, want)
		}
	}
	if n := len(byName["ij_query_stage_seconds_bucket"]); n != 2*(len(latencyBounds)+1) {
		t.Errorf("want %d stage bucket samples, got %d", 2*(len(latencyBounds)+1), n)
	}
}

func TestValidatorRejects(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		frag string
	}{
		{
			"duplicate series",
			"a_total 1\na_total 2\n",
			"duplicate series",
		},
		{
			"duplicate labeled series",
			`a{x="1",y="2"} 1` + "\n" + `a{y="2",x="1"} 1` + "\n",
			"duplicate series",
		},
		{
			"invalid name",
			"bad-name 1\n",
			"invalid metric name",
		},
		{
			"bad value",
			"a_total abc\n",
			"bad sample value",
		},
		{
			"unknown type",
			"# TYPE a_total pie\n",
			"unknown metric type",
		},
		{
			"type after samples",
			"a_total 1\n# TYPE a_total counter\n",
			"after its samples",
		},
		{
			"unterminated labels",
			`a{x="1` + "\n",
			"unterminated",
		},
		{
			"bucket order",
			"# TYPE h histogram\n" + `h_bucket{le="2"} 1` + "\n" + `h_bucket{le="1"} 2` + "\n" + `h_bucket{le="+Inf"} 3` + "\n",
			"out of order",
		},
		{
			"cumulative decrease",
			"# TYPE h histogram\n" + `h_bucket{le="1"} 5` + "\n" + `h_bucket{le="2"} 3` + "\n" + `h_bucket{le="+Inf"} 5` + "\n",
			"decrease",
		},
		{
			"missing inf",
			"# TYPE h histogram\n" + `h_bucket{le="1"} 5` + "\n",
			"+Inf",
		},
		{
			"count mismatch",
			"# TYPE h histogram\n" + `h_bucket{le="+Inf"} 5` + "\nh_count 4\n",
			"disagrees with _count",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(strings.NewReader(c.doc))
			if err == nil {
				t.Fatalf("validator accepted %q", c.doc)
			}
			if !strings.Contains(err.Error(), c.frag) {
				t.Errorf("error %q does not mention %q", err, c.frag)
			}
		})
	}
	// And a healthy document passes.
	ok := "# HELP a_total fine\n# TYPE a_total counter\na_total 3\n" +
		`b{code="200"} 1.5 1700000000000` + "\n"
	if _, err := Parse(strings.NewReader(ok)); err != nil {
		t.Errorf("validator rejected a healthy document: %v", err)
	}
}
