package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"intervaljoin/internal/cache"
	"intervaljoin/internal/obs/live"
)

// selfcheckSpec drives the live-scrape gate: how many queries to fire and
// where the validated /metrics snapshot lands.
type selfcheckSpec struct {
	query      string
	queries    int
	tmin, tmax int64
	scrapeOut  string
}

// runSelfcheck boots the real server on a loopback port, drives the query
// mix at it over HTTP — the first half from one client, the second from two
// at once — decoding every body, scrapes /metrics mid-load and after, and
// fails on any telemetry defect: exposition-format violations, key series
// missing or frozen, a row count that is not the rows the bodies held, or
// a sampled trace that never materialised. The final scrape
// is written to spec.scrapeOut so CI can archive it.
func runSelfcheck(svc *cache.Service, cfg serveConfig, spec selfcheckSpec) error {
	s, err := newServer(svc, cfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: s.mux(), ReadHeaderTimeout: 5 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	fail := func(err error) error {
		httpSrv.Close()
		<-errc
		return fmt.Errorf("selfcheck: %w", err)
	}

	// The window mix cycles a handful of overlapping windows so the run
	// exercises misses, partial hits, and full hits — the delta-window
	// count and the cache bridge all have to move.
	n := spec.queries
	if n < 4 {
		n = 4
	}
	span := spec.tmax - spec.tmin
	if span < 8 {
		span = 8
	}
	window := func(i int) (int64, int64) {
		lo := spec.tmin + int64(i%4)*span/8
		return lo, lo + span/4
	}
	// rows sums the rows of every body decoded; ij_query_rows_total must
	// end at it.
	var rows atomic.Int64
	post := func(i int) error {
		lo, hi := window(i)
		body, err := json.Marshal(queryRequest{Query: spec.query, Lo: lo, Hi: hi})
		if err != nil {
			return err
		}
		resp, err := http.Post(base+"/query", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		out, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("query %d: status %d: %s", i, resp.StatusCode, out)
		}
		var answer struct {
			Rows [][]int64 `json:"rows"`
		}
		if err := json.Unmarshal(out, &answer); err != nil {
			return fmt.Errorf("query %d: body does not decode: %w", i, err)
		}
		rows.Add(int64(len(answer.Rows)))
		return nil
	}

	for i := 0; i < n/2; i++ {
		if err := post(i); err != nil {
			return fail(err)
		}
	}
	mid, err := scrape(base)
	if err != nil {
		return fail(err)
	}
	// The second half comes from two clients at once, so the server runs
	// their delta joins side by side.
	const clients = 2
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		go func() {
			for i := n/2 + c; i < n; i += clients {
				if err := post(i); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	var postErr error
	for c := 0; c < clients; c++ {
		postErr = errors.Join(postErr, <-errs)
	}
	if postErr != nil {
		return fail(postErr)
	}
	final, err := scrape(base)
	if err != nil {
		return fail(err)
	}

	// /stats back-compat: still valid JSON.
	stats, err := getBody(base + "/stats")
	if err != nil {
		return fail(err)
	}
	if !json.Valid(stats) {
		return fail(fmt.Errorf("/stats is not valid JSON"))
	}

	if err := checkScrapes(mid, final, n, rows.Load()); err != nil {
		return fail(err)
	}
	if s.traces != nil {
		if err := checkTraceDir(cfg.traceDir); err != nil {
			return fail(err)
		}
	}
	if spec.scrapeOut != "" {
		if err := os.MkdirAll(filepath.Dir(spec.scrapeOut), 0o755); err != nil {
			return fail(err)
		}
		if err := os.WriteFile(spec.scrapeOut, final, 0o644); err != nil {
			return fail(err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		return fail(err)
	}
	if err := <-errc; err != nil && err != http.ErrServerClosed {
		return fmt.Errorf("selfcheck: %w", err)
	}
	fmt.Printf("selfcheck: ok — %d queries, %d metric samples validated, scrape at %s\n",
		n, countSamples(final), spec.scrapeOut)
	return nil
}

// scrape fetches and strictly validates /metrics, returning the raw text.
func scrape(base string) ([]byte, error) {
	body, err := getBody(base + "/metrics")
	if err != nil {
		return nil, err
	}
	if err := live.Validate(bytes.NewReader(body)); err != nil {
		return nil, fmt.Errorf("/metrics failed validation: %w", err)
	}
	return body, nil
}

func getBody(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// checkScrapes asserts the key series exist and moved between the
// mid-load and final scrapes, and that the final scrape counts the n
// queries and the rows their bodies held.
func checkScrapes(mid, final []byte, n int, rows int64) error {
	midS, err := live.Parse(bytes.NewReader(mid))
	if err != nil {
		return err
	}
	finS, err := live.Parse(bytes.NewReader(final))
	if err != nil {
		return err
	}
	midCount, ok := findSample(midS, "ij_query_latency_seconds_count")
	if !ok {
		return fmt.Errorf("mid scrape: ij_query_latency_seconds_count missing")
	}
	finCount, ok := findSample(finS, "ij_query_latency_seconds_count")
	if !ok {
		return fmt.Errorf("final scrape: ij_query_latency_seconds_count missing")
	}
	if finCount <= midCount {
		return fmt.Errorf("ij_query_latency_seconds_count did not move: mid %v, final %v", midCount, finCount)
	}
	if finCount != float64(n) {
		return fmt.Errorf("ij_query_latency_seconds_count = %v, want %d", finCount, n)
	}
	for _, name := range []string{
		"ij_inflight",
		"ij_draining",
		"ij_cache_hit_ratio",
		"ij_cache_lookups",
		"ij_cache_bytes_in_use",
		"ij_admission_rejected_total",
		"ij_query_delta_windows_total",
		"ij_query_window_span_count",
		"ij_response_bytes_count",
	} {
		if _, ok := findSample(finS, name); !ok {
			return fmt.Errorf("final scrape: %s missing", name)
		}
	}
	if v, ok := findSample(finS, "ij_query_rows_total"); !ok || v != float64(rows) {
		return fmt.Errorf("ij_query_rows_total = %v (present %v), want %d: the rows the bodies held", v, ok, rows)
	}
	if v, ok := findSample(finS, "ij_query_delta_windows_total"); !ok || v <= 0 {
		return fmt.Errorf("ij_query_delta_windows_total = %v, want > 0 (delta joins ran)", v)
	}
	if v, ok := findSample(finS, "ij_cache_hit_ratio"); !ok || v <= 0 {
		return fmt.Errorf("ij_cache_hit_ratio = %v, want > 0 (the mix repeats windows)", v)
	}
	// Both stages of every successful query are timed: the series must
	// exist mid-load and have moved by the end.
	for _, stage := range []string{"merge", "encode"} {
		midN, ok := findStageCount(midS, stage)
		if !ok {
			return fmt.Errorf("mid scrape: ij_query_stage_seconds_count{stage=%q} missing", stage)
		}
		if finN, _ := findStageCount(finS, stage); finN <= midN {
			return fmt.Errorf("ij_query_stage_seconds_count{stage=%q} did not move: mid %v, final %v", stage, midN, finN)
		}
	}
	okReq := false
	for _, sm := range finS {
		if sm.Name == "ij_requests_total" && sm.Label("code") == "200" && sm.Value > 0 {
			okReq = true
		}
	}
	if !okReq {
		return fmt.Errorf(`ij_requests_total{code="200"} missing or zero`)
	}
	return nil
}

// findSample returns the value of the first sample with the given name.
func findSample(samples []live.Sample, name string) (float64, bool) {
	for _, s := range samples {
		if s.Name == name {
			return s.Value, true
		}
	}
	return 0, false
}

// findStageCount returns the observation count of one query stage.
func findStageCount(samples []live.Sample, stage string) (float64, bool) {
	for _, s := range samples {
		if s.Name == "ij_query_stage_seconds_count" && s.Label("stage") == stage {
			return s.Value, true
		}
	}
	return 0, false
}

func countSamples(text []byte) int {
	samples, err := live.Parse(bytes.NewReader(text))
	if err != nil {
		return 0
	}
	return len(samples)
}

// checkTraceDir asserts at least one sampled query trace landed and is
// Chrome-trace-shaped JSON (an object with a traceEvents array).
func checkTraceDir(dir string) error {
	paths, err := filepath.Glob(filepath.Join(dir, "query-*.trace.json"))
	if err != nil {
		return err
	}
	if len(paths) == 0 {
		return fmt.Errorf("no sampled query trace in %s", dir)
	}
	raw, err := os.ReadFile(paths[0])
	if err != nil {
		return err
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return fmt.Errorf("%s: not valid trace JSON: %w", paths[0], err)
	}
	if len(doc.TraceEvents) == 0 {
		return fmt.Errorf("%s: empty traceEvents", paths[0])
	}
	return nil
}
