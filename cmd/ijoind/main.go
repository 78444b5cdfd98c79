// Command ijoind is the long-running interval-join service: it holds
// resident relations in memory and answers windowed join queries over an
// HTTP/JSON API, serving covered time spans from a semantic segment cache
// and running the join engine only over the uncovered delta windows (see
// docs/SERVICE.md).
//
// Serve mode:
//
//	ijoind -rel R1=a.txt -rel R2=b.txt [-addr :7077] [-cache-mb 64]
//	       [-max-inflight 4] [-workers N] [-partitions 16] [-per-dim 6]
//	       [-algorithm name] [-metrics metrics.json]
//	       [-log-level info] [-slow-query 2s]
//	       [-trace-dir DIR] [-trace-sample N] [-trace-keep 16]
//
//	POST /query         {"query":"R1 overlaps R2","lo":0,"hi":5000}
//	                    → {"rows":[[3,7],...],"hit_segments":1,...}
//	GET  /metrics       → Prometheus text-format telemetry (docs/OBSERVABILITY.md)
//	GET  /stats         → cache accounting JSON (back-compat)
//	GET  /healthz       → 200 "ok" (503 while draining)
//	GET  /debug/pprof/  → runtime profiles
//
// Admission control holds at most -max-inflight queries in the join path;
// excess requests get 429. Requests are logged as structured JSON
// (log/slog) with a per-request id; queries slower than -slow-query get a
// warning line. With -trace-dir set, every -trace-sample'th query — plus
// the query after any slow one — runs under a fresh tracer and dumps a
// Perfetto-loadable Chrome trace into a bounded ring of files.
// SIGINT/SIGTERM drains in-flight queries via http.Server.Shutdown,
// answers new ones with 503, flushes -metrics, and exits.
//
// Selfcheck mode (-selfcheck) boots the server on a loopback port, fires
// a window mix at it over HTTP, scrapes and validates /metrics, verifies
// a sampled trace appeared, writes the scrape to -scrape-out, and exits
// non-zero on any telemetry defect — the live-scrape gate scripts/check.sh
// runs. Without -rel bindings it generates the paper's Table 1 relations.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"intervaljoin"
	"intervaljoin/internal/cache"
	"intervaljoin/internal/core"
	"intervaljoin/internal/dfs"
	"intervaljoin/internal/mr"
	"intervaljoin/internal/obs"
	"intervaljoin/internal/obs/live"
	"intervaljoin/internal/query"
	"intervaljoin/internal/relation"
	"intervaljoin/internal/workload"
)

type relArg struct {
	name, path string
}

// serveConfig carries the serve-mode knobs from flag parsing to serve().
type serveConfig struct {
	addr        string
	maxInflight int
	metricsOut  string
	logLevel    string
	slowQuery   time.Duration
	traceDir    string
	traceSample int64
	traceKeep   int
}

func main() {
	var (
		addr       = flag.String("addr", ":7077", "HTTP listen address")
		cacheMB    = flag.Int64("cache-mb", 64, "segment cache byte budget in MiB")
		maxInfl    = flag.Int("max-inflight", 4, "admission control: concurrent queries beyond this get 429")
		workers    = flag.Int("workers", 0, "engine parallelism (0 = GOMAXPROCS)")
		partitions = flag.Int("partitions", 16, "partitions for 1-D algorithms")
		perDim     = flag.Int("per-dim", 6, "partitions per grid dimension for matrix algorithms")
		algorithm  = flag.String("algorithm", "", "join algorithm (default: planner choice per query)")
		metricsOut = flag.String("metrics", "", "write metrics.json (with the cache section) here on shutdown")
		logLevel   = flag.String("log-level", "info", "structured log level: debug, info, warn, error")
		slowQuery  = flag.Duration("slow-query", 2*time.Second, "log queries slower than this as slow (0 disables)")
		traceDir   = flag.String("trace-dir", "", "write sampled per-query Chrome traces into this directory (empty disables)")
		traceN     = flag.Int64("trace-sample", 0, "with -trace-dir, trace every Nth query (0: only latency-triggered captures)")
		traceKeep  = flag.Int("trace-keep", defaultTraceKeep, "bounded trace ring: keep at most this many trace files")
		selfcheck  = flag.Bool("selfcheck", false, "boot on a loopback port, drive the query mix over HTTP, validate /metrics, and exit")
		scrapeOut  = flag.String("scrape-out", "artifacts/live-metrics.prom", "selfcheck: write the validated /metrics scrape here")
		mixQuery   = flag.String("query", "R1 overlaps R2", "selfcheck: the join query of the mix")
		queries    = flag.Int("queries", 200, "selfcheck: number of windows in the mix")
		rows       = flag.Int("rows", 20_000, "selfcheck: generated rows per relation when no -rel is given")
		seed       = flag.Int64("seed", 1, "selfcheck: generation seed")
	)
	var relArgs []relArg
	flag.Func("rel", "resident relation binding name=file (repeatable)", func(s string) error {
		eq := strings.IndexByte(s, '=')
		if eq <= 0 || eq == len(s)-1 {
			return fmt.Errorf("want name=file, got %q", s)
		}
		relArgs = append(relArgs, relArg{name: s[:eq], path: s[eq+1:]})
		return nil
	})
	flag.Parse()

	engine := mr.NewEngine(mr.Config{Store: dfs.NewMem(), Workers: *workers})

	var algFn func(*query.Query) core.Algorithm
	if *algorithm != "" {
		alg, err := intervaljoin.AlgorithmByName(*algorithm)
		if err != nil {
			fatal(err)
		}
		algFn = func(*query.Query) core.Algorithm { return alg }
	}
	svc, err := cache.NewService(cache.ServiceConfig{
		Engine:     engine,
		CacheBytes: *cacheMB << 20,
		Opts:       core.Options{Partitions: *partitions, PartitionsPerDim: *perDim},
		Algorithm:  algFn,
	})
	if err != nil {
		fatal(err)
	}

	rels, err := loadOrGenerate(relArgs, *selfcheck, *rows, *seed)
	if err != nil {
		fatal(err)
	}
	var tmin, tmax int64 = 0, 1
	if t0, tn, ok := relation.Bounds(rels...); ok {
		tmin, tmax = t0, tn
	}
	for _, r := range rels {
		if _, err := svc.Register(r); err != nil {
			fatal(err)
		}
	}

	cfg := serveConfig{
		addr:        *addr,
		maxInflight: *maxInfl,
		metricsOut:  *metricsOut,
		logLevel:    *logLevel,
		slowQuery:   *slowQuery,
		traceDir:    *traceDir,
		traceSample: *traceN,
		traceKeep:   *traceKeep,
	}
	if *selfcheck {
		if err := runSelfcheck(svc, cfg, selfcheckSpec{
			query: *mixQuery, queries: *queries, tmin: tmin, tmax: tmax,
			scrapeOut: *scrapeOut,
		}); err != nil {
			fatal(err)
		}
		return
	}
	if err := serve(svc, cfg); err != nil {
		fatal(err)
	}
}

// loadOrGenerate loads the -rel bindings, or (selfcheck mode only)
// generates the paper's Table 1 relations R1 and R2.
func loadOrGenerate(relArgs []relArg, generate bool, rows int, seed int64) ([]*relation.Relation, error) {
	if len(relArgs) == 0 {
		if !generate {
			return nil, fmt.Errorf("no -rel bindings; serve mode needs resident relations")
		}
		r1, err := workload.Generate(workload.Table1Spec("R1", rows, seed))
		if err != nil {
			return nil, err
		}
		r2, err := workload.Generate(workload.Table1Spec("R2", rows, seed+1))
		if err != nil {
			return nil, err
		}
		return []*relation.Relation{r1, r2}, nil
	}
	rels := make([]*relation.Relation, 0, len(relArgs))
	for _, ra := range relArgs {
		rel, err := relation.LoadFile(relation.NewSchema(ra.name), ra.path)
		if err != nil {
			return nil, err
		}
		rels = append(rels, rel)
	}
	return rels, nil
}

// ---- serve mode ----

// drainTimeout bounds graceful shutdown: Shutdown waits this long for
// in-flight queries before closing connections hard.
const drainTimeout = 30 * time.Second

type server struct {
	svc      *cache.Service
	tel      *telemetry
	log      *slog.Logger
	inflight chan struct{}
	draining atomic.Bool

	reqSeq   atomic.Int64 // request ids, all endpoints
	querySeq atomic.Int64 // admitted /query requests, drives sampling

	slowQuery   time.Duration
	traceSample int64
	traces      *traceRing
	slowArm     atomic.Bool // latency-triggered capture: trace the next query
}

type queryRequest struct {
	Query string `json:"query"`
	Lo    int64  `json:"lo"`
	Hi    int64  `json:"hi"`
}

// parseLogLevel maps the -log-level flag onto slog levels.
func parseLogLevel(s string) (slog.Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("unknown -log-level %q (want debug, info, warn or error)", s)
}

// newServer assembles the handler state shared by serve and selfcheck.
func newServer(svc *cache.Service, cfg serveConfig) (*server, error) {
	level, err := parseLogLevel(cfg.logLevel)
	if err != nil {
		return nil, err
	}
	maxInflight := cfg.maxInflight
	if maxInflight <= 0 {
		maxInflight = 1
	}
	s := &server{
		svc:         svc,
		tel:         newTelemetry(svc),
		log:         slog.New(slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: level})),
		inflight:    make(chan struct{}, maxInflight),
		slowQuery:   cfg.slowQuery,
		traceSample: cfg.traceSample,
	}
	if cfg.traceDir != "" {
		ring, err := newTraceRing(cfg.traceDir, cfg.traceKeep)
		if err != nil {
			return nil, err
		}
		s.traces = ring
	}
	return s, nil
}

// mux builds the server's route table.
func (s *server) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func serve(svc *cache.Service, cfg serveConfig) error {
	s, err := newServer(svc, cfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{
		Handler: s.mux(),
		// A client that dribbles its headers must not pin a connection
		// forever; body reads are bounded by the drain deadline instead.
		ReadHeaderTimeout: 5 * time.Second,
	}
	// The serving line keeps its legacy plain format — cmd/cmdtest and
	// operator scripts parse the address out of it; structured request
	// logs follow on the same stream.
	fmt.Fprintf(os.Stderr, "ijoind: serving %v on %s (relations: %s)\n",
		time.Now().Format(time.RFC3339), ln.Addr(), strings.Join(svc.Relations(), ", "))

	// Graceful shutdown: the first signal flips the server to draining —
	// new queries see 503 — and http.Server.Shutdown waits (bounded by
	// drainTimeout) for in-flight handlers before closing connections;
	// then metrics flush and exit.
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() {
		<-sigc
		s.startDrain()
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		done <- httpSrv.Shutdown(ctx)
	}()
	err = httpSrv.Serve(ln)
	if err == http.ErrServerClosed {
		err = <-done
	}
	if cfg.metricsOut != "" {
		if werr := writeFileWith(cfg.metricsOut, func(w io.Writer) error {
			return cacheReportJSON(w, svc)
		}); werr != nil && err == nil {
			err = werr
		}
		s.log.Info("metrics flushed", "path", cfg.metricsOut)
	}
	return err
}

// startDrain flips the server into drain state (idempotently safe).
func (s *server) startDrain() {
	s.draining.Store(true)
	s.tel.draining.Set(1)
	s.log.Info("draining in-flight queries")
}

// fail rejects a request: counts the status code, logs the request id
// and whatever else is known about the request, and writes the error
// response.
func (s *server) fail(w http.ResponseWriter, r *http.Request, id int64, code int, msg string, known ...slog.Attr) {
	s.tel.countRequest(code)
	if code == http.StatusTooManyRequests {
		s.tel.rejected.Inc()
	}
	attrs := append([]slog.Attr{slog.Int64("req", id), slog.Int("status", code), slog.String("error", msg)}, known...)
	s.log.LogAttrs(r.Context(), slog.LevelWarn, "request rejected", attrs...)
	http.Error(w, msg, code)
}

// maxQueryBody bounds a /query request body. A query string, two numbers
// and JSON punctuation fit many times over; anything larger is refused
// with 413 before it is parsed.
const maxQueryBody = 64 << 10

// readQuery reads and decodes a /query body: exactly one JSON object, at
// most maxQueryBody bytes. On failure it returns the status to answer with.
func readQuery(w http.ResponseWriter, r *http.Request) (req queryRequest, code int, err error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxQueryBody))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return req, http.StatusRequestEntityTooLarge, err
		}
		return req, http.StatusBadRequest, err
	}
	// Unmarshal, unlike a Decoder, rejects anything but white space after
	// the object.
	if err := json.Unmarshal(body, &req); err != nil {
		return req, http.StatusBadRequest, err
	}
	return req, http.StatusOK, nil
}

func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	id := s.reqSeq.Add(1)
	if r.Method != http.MethodPost {
		s.fail(w, r, id, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if s.draining.Load() {
		s.fail(w, r, id, http.StatusServiceUnavailable, "draining")
		return
	}
	select {
	case s.inflight <- struct{}{}:
		s.tel.inflight.Inc()
		defer func() {
			s.tel.inflight.Dec()
			<-s.inflight
		}()
	default:
		s.fail(w, r, id, http.StatusTooManyRequests, "too many in-flight queries")
		return
	}
	req, code, err := readQuery(w, r)
	if err != nil {
		s.fail(w, r, id, code, err.Error())
		return
	}
	q, err := query.Parse(req.Query)
	if err != nil {
		s.fail(w, r, id, http.StatusBadRequest, err.Error())
		return
	}

	// Sampling: every traceSample'th admitted query runs under a fresh
	// tracer, as does the first query after a slow one (the
	// latency-triggered capture) — traced runs return byte-identical rows,
	// only the recording differs.
	qid := s.querySeq.Add(1)
	var tr *obs.Tracer
	if s.traces != nil {
		if s.traceSample > 0 && qid%s.traceSample == 0 {
			tr = obs.New(obs.Options{})
		} else if s.slowArm.CompareAndSwap(true, false) {
			tr = obs.New(obs.Options{})
		}
	}
	var ans *cache.Answer
	if tr != nil {
		ans, err = s.svc.QueryTraced(q, cache.Window{Lo: req.Lo, Hi: req.Hi}, tr)
	} else {
		ans, err = s.svc.Query(q, cache.Window{Lo: req.Lo, Hi: req.Hi})
	}
	if err != nil {
		s.fail(w, r, id, http.StatusUnprocessableEntity, err.Error(),
			slog.String("query", req.Query), slog.Int64("lo", req.Lo), slog.Int64("hi", req.Hi))
		return
	}
	// Counted before the body goes out: a client that scrapes /metrics
	// right after reading its answer must find the query there.
	s.tel.countRequest(http.StatusOK)
	s.tel.observeAnswer(ans)

	var tracePath string
	if tr != nil {
		if tracePath, err = s.traces.write(qid, tr.Snapshot()); err != nil {
			s.log.LogAttrs(r.Context(), slog.LevelWarn, "query trace not written",
				slog.Int64("req", id), slog.String("error", err.Error()))
			tracePath = ""
		} else {
			s.tel.traces.Inc()
		}
	}
	slow := s.slowQuery > 0 && ans.Wall > s.slowQuery
	if slow {
		s.tel.slowQueries.Inc()
		if s.traces != nil && tracePath == "" {
			// Arm the latency-triggered capture: the next query runs traced.
			s.slowArm.Store(true)
		}
	}

	encodeStart := time.Now()
	buf := respBufs.Get().(*[]byte)
	*buf = appendQueryResponse((*buf)[:0], ans)
	size := len(*buf)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(size))
	_, werr := w.Write(*buf)
	if cap(*buf) <= maxPooledResp {
		respBufs.Put(buf)
	}
	encode := time.Since(encodeStart)
	s.tel.observeResponse(encode, size)

	level, msg := slog.LevelInfo, "query"
	if slow {
		level, msg = slog.LevelWarn, "slow query"
	}
	if s.log.Enabled(r.Context(), level) {
		attrs := []slog.Attr{
			slog.Int64("req", id),
			slog.String("query", req.Query),
			slog.Int64("lo", req.Lo),
			slog.Int64("hi", req.Hi),
			slog.Int("status", http.StatusOK),
			slog.Int("rows", len(ans.Rows)),
			slog.Int("hit_segments", ans.HitSegments),
			slog.Int("delta_windows", len(ans.DeltaWindows)),
			slog.String("algorithm", ans.Algorithm),
			slog.String("wall", ans.Wall.String()),
			slog.String("merge", ans.Merge.String()),
			slog.String("encode", encode.String()),
		}
		if tracePath != "" {
			attrs = append(attrs, slog.String("trace", tracePath))
		}
		s.log.LogAttrs(r.Context(), level, msg, attrs...)
	}
	if werr != nil {
		s.log.LogAttrs(r.Context(), slog.LevelDebug, "response write failed",
			slog.Int64("req", id), slog.String("error", werr.Error()))
	}
}

// handleMetrics serves the live registry in the Prometheus text format.
func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.tel.countRequest(http.StatusOK)
	w.Header().Set("Content-Type", live.ContentType)
	if err := live.WriteText(w, s.tel.reg.Snapshot()); err != nil {
		s.log.Debug("metrics write failed", "error", err.Error())
	}
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	// Render into a buffer first so a report error can still become a
	// clean 500 instead of a truncated 200 body.
	var buf bytes.Buffer
	if err := cacheReportJSON(&buf, s.svc); err != nil {
		s.fail(w, r, s.reqSeq.Add(1), http.StatusInternalServerError, err.Error())
		return
	}
	s.tel.countRequest(http.StatusOK)
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write(buf.Bytes()); err != nil {
		s.log.Debug("stats write failed", "error", err.Error())
	}
}

func (s *server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		s.tel.countRequest(http.StatusServiceUnavailable)
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	s.tel.countRequest(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

// cacheReportJSON writes the metrics.json report with the cache section
// filled from the service's accounting. The engine runs untraced — only
// sampled queries get a tracer, and their spans go to their own trace file
// — so the cache section is all the report holds.
func cacheReportJSON(w io.Writer, svc *cache.Service) error {
	st := svc.Stats()
	rep := obs.NewReport("cache-mix", nil)
	rep.Cache = &obs.CacheReport{
		Lookups:       st.Lookups,
		FullHits:      st.FullHits,
		PartialHits:   st.PartialHits,
		Misses:        st.Misses,
		HitSegments:   st.HitSegments,
		CachedRows:    st.CachedRows,
		DeltaRows:     st.DeltaRows,
		SpanRequested: st.SpanRequested,
		SpanCovered:   st.SpanCovered,
		HitRatio:      st.HitRatio(),
		Insertions:    st.Insertions,
		Evictions:     st.Evictions,
		BytesInUse:    st.BytesInUse,
		BytesBudget:   st.BytesBudget,
	}
	return rep.WriteJSON(w)
}

// writeFileWith creates path and streams fn's output into it.
func writeFileWith(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ijoind:", err)
	os.Exit(1)
}
