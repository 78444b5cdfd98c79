// Fixture for the metricname analyzer: registrations against the live
// telemetry registry need constant, valid, ij_-prefixed names, constant
// help, and constant valid label names.
package fixture

import "intervaljoin/internal/obs/live"

const (
	goodName = "ij_fixture_rows_total"
	goodHelp = "rows processed by the fixture"
)

func register(r *live.Registry, runtimeName, runtimeLabel string) {
	r.Counter("ij_requests_total", "requests served")
	r.Counter(goodName, goodHelp) // named constants are constants too
	r.Gauge("ij_inflight", "queries in flight")
	r.FloatGauge("ij_hit_ratio", "cache hit ratio")
	r.Hist("ij_rows", "rows per answer")
	r.Latency("ij_latency_seconds", "query latency")
	r.CounterVec("ij_codes_total", "requests by status", "code")
	r.LatencyVec("ij_stage_seconds", "latency by stage", "stage")

	r.Counter("bad name", "spaces are not allowed")     // want `not a valid Prometheus metric name`
	r.Gauge("2ij_leading_digit", "starts with a digit") // want `not a valid Prometheus metric name`
	r.Counter("requests_total", "missing namespace")    // want `must carry the ij_ prefix`
	r.Counter(runtimeName, "computed at runtime")       // want `must be a literal constant`
	r.Hist("ij_unhelpful", "")                          // want `non-empty constant`
	r.Latency("ij_lat_"+runtimeName, "concatenated")    // want `must be a literal constant`

	r.CounterVec("ij_vec_total", "labelled series", "le!") // want `not a valid Prometheus label name`
	r.GaugeVec("ij_gvec", "labelled gauge", runtimeLabel)  // want `must be a literal constant`
	r.LatencyVec("ij_lvec_seconds", "by stage", "0stage")  // want `not a valid Prometheus label name`
}

// Methods named like registrations on unrelated types stay out of scope.
type notRegistry struct{}

func (notRegistry) Counter(name, help string) {}

func otherReceiver(n notRegistry, dyn string) {
	n.Counter(dyn, "")
}
