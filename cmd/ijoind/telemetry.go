package main

import (
	"strconv"
	"time"

	"intervaljoin/internal/cache"
	"intervaljoin/internal/obs/live"
)

// telemetry is the server's live metric surface: every handle is
// pre-resolved at startup so the per-request path touches only atomics
// (and stays a nil-check no-op when telemetry is disabled — the
// TestLiveDisabledZeroCost contract).
type telemetry struct {
	reg *live.Registry

	latency     *live.LatencyHist // ij_query_latency_seconds
	stageMerge  *live.LatencyHist // ij_query_stage_seconds{stage="merge"}
	stageEncode *live.LatencyHist // ij_query_stage_seconds{stage="encode"}
	windowSpan  *live.Hist        // ij_query_window_span
	respBytes   *live.Hist        // ij_response_bytes
	inflight    *live.Gauge       // ij_inflight
	draining    *live.Gauge       // ij_draining
	rejected    *live.Counter     // ij_admission_rejected_total

	requests     map[int]*live.Counter // ij_requests_total{code=...}, pre-resolved
	requestsVec  *live.CounterVec
	hitSegments  *live.Counter // ij_query_hit_segments_total
	deltaWindows *live.Counter // ij_query_delta_windows_total
	fullHits     *live.Counter // ij_query_full_hits_total
	rowsServed   *live.Counter // ij_query_rows_total
	slowQueries  *live.Counter // ij_slow_queries_total
	traces       *live.Counter // ij_query_traces_written_total
}

// requestCodes are the status codes the handlers can produce; their
// counters are resolved once here so the hot path never joins label
// values.
var requestCodes = []int{200, 400, 404, 405, 413, 422, 429, 500, 503}

// newTelemetry builds the registry, the request series and the cache stats
// collector. A nil svc (or disabled
// telemetry) is handled by the callees' nil contracts.
func newTelemetry(svc *cache.Service) *telemetry {
	reg := live.NewRegistry()
	stages := reg.LatencyVec("ij_query_stage_seconds", "time successful queries spend per stage: merging segments into the answer, encoding and writing the response", "stage")
	t := &telemetry{
		reg:         reg,
		latency:     reg.Latency("ij_query_latency_seconds", "service-side query latency, successful queries"),
		stageMerge:  stages.With("merge"),
		stageEncode: stages.With("encode"),
		windowSpan:  reg.Hist("ij_query_window_span", "closed window span (hi-lo+1) of successful queries"),
		respBytes:   reg.Hist("ij_response_bytes", "response body size of successful queries"),
		inflight:    reg.Gauge("ij_inflight", "queries currently in the join path"),
		draining:    reg.Gauge("ij_draining", "1 while the server is draining for shutdown"),
		rejected:    reg.Counter("ij_admission_rejected_total", "queries rejected by admission control (429)"),

		requestsVec:  reg.CounterVec("ij_requests_total", "requests by HTTP status code", "code"),
		hitSegments:  reg.Counter("ij_query_hit_segments_total", "cached segments merged into answers"),
		deltaWindows: reg.Counter("ij_query_delta_windows_total", "uncovered gap windows joined by delta joins"),
		fullHits:     reg.Counter("ij_query_full_hits_total", "queries answered entirely from cache"),
		rowsServed:   reg.Counter("ij_query_rows_total", "result rows returned to clients"),
		slowQueries:  reg.Counter("ij_slow_queries_total", "queries over the slow-query threshold"),
		traces:       reg.Counter("ij_query_traces_written_total", "per-query Chrome traces written"),
	}
	t.requests = make(map[int]*live.Counter, len(requestCodes))
	for _, code := range requestCodes {
		t.requests[code] = t.requestsVec.With(strconv.Itoa(code))
	}
	cache.RegisterLive(reg, svc)
	return t
}

// countRequest increments the status-code series, falling back to a
// lazily created series for a code outside the pre-resolved set.
func (t *telemetry) countRequest(code int) {
	if t == nil {
		return
	}
	if c, ok := t.requests[code]; ok {
		c.Inc()
		return
	}
	t.requestsVec.With(strconv.Itoa(code)).Inc()
}

// observeAnswer records a successful query's latency and merge stage,
// window span and cache provenance.
func (t *telemetry) observeAnswer(ans *cache.Answer) {
	if t == nil {
		return
	}
	t.latency.Observe(ans.Wall)
	t.stageMerge.Observe(ans.Merge)
	t.windowSpan.Observe(ans.Window.Span())
	t.hitSegments.Add(int64(ans.HitSegments))
	t.deltaWindows.Add(int64(len(ans.DeltaWindows)))
	if len(ans.DeltaWindows) == 0 {
		t.fullHits.Inc()
	}
	t.rowsServed.Add(int64(ans.Count))
}

// observeResponse records the encode stage — appending the body's tail
// after the rows, which the merge stage copied in, and handing the body to
// the connection — and the body's size.
func (t *telemetry) observeResponse(encode time.Duration, size int) {
	if t == nil {
		return
	}
	t.stageEncode.Observe(encode)
	t.respBytes.Observe(int64(size))
}
