package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"intervaljoin"
	"intervaljoin/internal/cache"
	"intervaljoin/internal/core"
	"intervaljoin/internal/cost"
	"intervaljoin/internal/dfs"
	"intervaljoin/internal/grid"
	"intervaljoin/internal/interval"
	"intervaljoin/internal/mr"
	"intervaljoin/internal/obs"
	"intervaljoin/internal/obs/live"
	"intervaljoin/internal/query"
	"intervaljoin/internal/relation"
)

// The layer probes time calls into each package's public functions on the
// workload's own inputs. They run only in the traced pass, from the
// benchmark's side of each boundary; nothing is added to the program.

// probeReps is how often a probe repeats; its metric is the median.
const probeReps = 3

// timed returns the median wall time, in ms, of reps calls of fn.
func timed(reps int, fn func() error) (float64, error) {
	vals := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		vals = append(vals, ms(time.Since(start)))
	}
	return median(vals), nil
}

// layerInputs is what the probes share: the workload's relations, loaded
// once, and its parsed query.
type layerInputs struct {
	in      *instance
	q       *query.Query
	rels    []*relation.Relation
	records []string // R1 in the engine's record encoding
}

func loadLayerInputs(in *instance) (*layerInputs, error) {
	q, err := query.Parse(in.w.query)
	if err != nil {
		return nil, err
	}
	li := &layerInputs{in: in, q: q}
	for i, f := range in.files {
		rel, err := relation.LoadFile(relation.NewSchema(in.names[i]), f)
		if err != nil {
			return nil, err
		}
		li.rels = append(li.rels, rel)
	}
	for _, t := range li.rels[0].Tuples {
		li.records = append(li.records, relation.EncodeTuple(t))
	}
	return li, nil
}

// probeLeafLayers covers the packages below the engine: relation, query,
// interval, grid, dfs and cost.
func probeLeafLayers(li *layerInputs, m map[string]float64) error {
	var err error
	if m["relation.load_ms"], err = timed(probeReps, func() error {
		for i, f := range li.in.files {
			if _, err := relation.LoadFile(relation.NewSchema(li.in.names[i]), f); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	n := float64(len(li.records))
	arena, err := timed(probeReps, func() error {
		var a relation.Arena
		for _, rec := range li.records {
			if _, err := a.AppendDecode(rec); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["relation.arena_decode_ns_per_row"] = arena * 1e6 / n

	const parseReps = 200
	parse, err := timed(probeReps, func() error {
		for i := 0; i < parseReps; i++ {
			q, err := query.Parse(li.in.w.query)
			if err != nil {
				return err
			}
			q.Classify()
			core.CanonicalPlan(q)
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["query.parse_us"] = parse * 1e3 / parseReps

	t0, tn, _ := relation.Bounds(li.rels...)
	part, err := interval.MakeUniform(t0, tn, 16)
	if err != nil {
		return err
	}
	apply, err := timed(probeReps, func() error {
		var sum int
		for _, t := range li.rels[0].Tuples {
			first, last := part.Apply(interval.OpSplit, t.Attrs[0])
			sum += last - first
		}
		calibSink.Add(uint64(sum))
		return nil
	})
	if err != nil {
		return err
	}
	m["interval.apply_ns_per_row"] = apply * 1e6 / n

	g, err := grid.NewUniform(len(li.q.Relations), 6)
	if err != nil {
		return err
	}
	var cons []grid.Less
	for _, p := range li.q.LessThanPairs() {
		cons = append(cons, grid.Less{A: p[0], B: p[1]})
	}
	const gridReps = 100
	runs, err := timed(probeReps, func() error {
		for i := 0; i < gridReps; i++ {
			g.EnumerateRuns(nil, cons, func(lo, hi int64) { calibSink.Add(uint64(hi - lo)) })
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["grid.enumerate_runs_us"] = runs * 1e3 / gridReps
	m["grid.consistent_cells"] = float64(g.CountConsistent(cons))

	store := dfs.NewMem()
	if m["dfs.write_ms"], err = timed(probeReps, func() error { return dfs.WriteAll(store, "probe", li.records) }); err != nil {
		return err
	}
	if m["dfs.read_ms"], err = timed(probeReps, func() error {
		_, err := dfs.ReadAll(store, "probe")
		return err
	}); err != nil {
		return err
	}

	m["cost.advise_ms"], err = timed(probeReps, func() error {
		if _, err := cost.Advise(li.q, li.rels, 16, 6); err != nil {
			return err
		}
		cost.AdvisePartitions(li.rels, nil)
		cost.RecommendEquiDepth(li.rels, 16, 0)
		return nil
	})
	return err
}

// probeEngine covers internal/mr with no join logic in the way, and the
// staging step of internal/core that feeds it.
func probeEngine(li *layerInputs, m map[string]float64) error {
	store := dfs.NewMem()
	eng := mr.NewEngine(mr.Config{Store: store})
	var err error
	if m["core.stage_ms"], err = timed(probeReps, func() error {
		ctx, err := core.NewContext(eng, li.q, li.rels, core.Options{})
		if err != nil {
			return err
		}
		return ctx.Stage()
	}); err != nil {
		return err
	}
	// The identity job: map sends record i to reducer i mod 16, reduce
	// counts. What remains is the framework's own cost.
	identity := func(name string, inputs []mr.Input) mr.Job {
		return mr.Job{
			Name:   name,
			Inputs: inputs,
			Map: func(_ int, rec string, emit mr.Emitter) error {
				bar := strings.IndexByte(rec, '|')
				if bar < 0 {
					return fmt.Errorf("record %q has no id", rec)
				}
				id, err := strconv.ParseInt(rec[:bar], 10, 64)
				if err != nil {
					return err
				}
				emit.Emit(id%16, rec)
				return nil
			},
			Reduce: func(_ int64, values []string, write func(string) error) error {
				return write(strconv.Itoa(len(values)))
			},
			Output: name + "/out",
		}
	}
	var staged []mr.Input
	for i, name := range li.in.names {
		staged = append(staged, mr.Input{File: "input/" + name, Tag: i})
	}
	alloc0 := selfAlloc()
	if m["mr.identity_job_ms"], err = timed(probeReps, func() error {
		_, err := eng.Run(identity("identity", staged))
		return err
	}); err != nil {
		return err
	}
	m["mr.identity_alloc_mb"] = float64(selfAlloc()-alloc0) / probeReps / (1 << 20)
	if err := dfs.WriteAll(store, "small", li.records[:min(1000, len(li.records))]); err != nil {
		return err
	}
	const smallReps = 20
	small, err := timed(probeReps, func() error {
		for i := 0; i < smallReps; i++ {
			if _, err := eng.Run(identity("small-job", []mr.Input{{File: "small"}})); err != nil {
				return err
			}
		}
		return nil
	})
	m["mr.small_job_ms"] = small / smallReps
	return err
}

// coreStats is what one op's Result says about the engine's phases.
type coreStats struct {
	feed, mapW, reduce, engine, maxReducer float64 // ms
	imbalance, replication                 float64
	pairs, physPairs, rows, cycles         float64
}

func statsOf(res *intervaljoin.Result) coreStats {
	mt := res.Metrics
	engine := mt.TotalWall
	if mt.PipelineWall > 0 {
		engine = mt.PipelineWall
	}
	var sum, maxT time.Duration
	for _, d := range mt.ReducerTime {
		sum += d
		maxT = max(maxT, d)
	}
	imbalance := 1.0
	if sum > 0 {
		imbalance = float64(maxT) * float64(len(mt.ReducerTime)) / float64(sum)
	}
	return coreStats{
		feed: ms(mt.FeedWall), mapW: ms(mt.MapWall), reduce: ms(mt.ReduceWall),
		engine: ms(engine), maxReducer: ms(mt.MaxReducerTime),
		imbalance: imbalance, replication: mt.ReplicationFactor(),
		pairs: float64(mt.IntermediatePairs), physPairs: float64(mt.PhysicalPairs),
		rows: float64(len(res.Tuples)), cycles: float64(mt.Cycles),
	}
}

// medianOf reduces per-op stats to one value by the given field.
func medianOf(stats []coreStats, field func(coreStats) float64) float64 {
	vals := make([]float64, len(stats))
	for i, s := range stats {
		vals[i] = field(s)
	}
	return median(vals)
}

// probeBatchOps runs the workload's join in-process twice over: with only
// the benchmark's recorder on, then with the engine's own tracer attached
// as well. The first gives the op's waterfall and the Result-derived
// engine phases, the second the tracer's phase walls and its overhead.
func probeBatchOps(ctx context.Context, in *instance, seconds float64, rec *recorder, m map[string]float64) (untraced, traced *pass, err error) {
	_, want, _, err := batchOp(in, nil, nil, -1)
	if err != nil {
		return nil, nil, err
	}
	// loop runs ops for the pass's time, each under a fresh engine tracer
	// when traced, and hands every op's result to visit.
	loop := func(rec *recorder, traced bool, visit func(*intervaljoin.Result, *intervaljoin.Tracer)) (*pass, error) {
		p := &pass{}
		start := time.Now()
		for op := 0; !done(time.Since(start), seconds, op, 3); op++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			var tracer *intervaljoin.Tracer
			if traced {
				tracer = intervaljoin.NewTracer(intervaljoin.TracerOptions{})
			}
			d, got, res, err := batchOp(in, tracer, rec, op)
			if err != nil {
				return nil, err
			}
			if got != want {
				p.failed++
			}
			p.lat = append(p.lat, ms(d))
			visit(res, tracer)
		}
		return p, nil
	}
	var stats []coreStats
	plain, err := loop(rec, false, func(res *intervaljoin.Result, _ *intervaljoin.Tracer) {
		stats = append(stats, statsOf(res))
	})
	if err != nil {
		return nil, nil, err
	}
	self := rec.selfTimes()
	m["core.run_ms"] = self["core.run"]
	m["core.feed_ms"] = medianOf(stats, func(s coreStats) float64 { return s.feed })
	m["core.map_ms"] = medianOf(stats, func(s coreStats) float64 { return s.mapW })
	m["core.reduce_ms"] = medianOf(stats, func(s coreStats) float64 { return s.reduce })
	m["core.engine_ms"] = medianOf(stats, func(s coreStats) float64 { return s.engine })
	m["core.max_reducer_ms"] = medianOf(stats, func(s coreStats) float64 { return s.maxReducer })
	m["core.reducer_time_imbalance"] = medianOf(stats, func(s coreStats) float64 { return s.imbalance })
	m["core.replication_factor"] = medianOf(stats, func(s coreStats) float64 { return s.replication })
	m["core.pairs"] = medianOf(stats, func(s coreStats) float64 { return s.pairs })
	m["core.phys_pairs"] = medianOf(stats, func(s coreStats) float64 { return s.physPairs })
	m["core.output_rows"] = medianOf(stats, func(s coreStats) float64 { return s.rows })
	m["core.cycles"] = medianOf(stats, func(s coreStats) float64 { return s.cycles })

	phases := make(map[string][]float64)
	tr, err := loop(nil, true, func(_ *intervaljoin.Result, tracer *intervaljoin.Tracer) {
		for cat, wall := range tracer.Snapshot().PhaseWalls(0) {
			phases[cat] = append(phases[cat], ms(wall))
		}
	})
	if err != nil {
		return nil, nil, err
	}
	for _, cat := range []string{obs.CatFeed, obs.CatMap, obs.CatMerge, obs.CatReduce, obs.CatOutput} {
		m["obs.phase."+cat+"_ms"] = median(phases[cat])
	}
	return plain, tr, nil
}

// algInstance is a fixed small input for one query class, on which every
// algorithm of that class must agree.
type algInstance struct {
	query string
	rels  []relSpec
	attrs map[string][]string // multi-attribute schemas, by relation
	algs  []string
}

var algInstances = []algInstance{
	{ // Q1, colocation, Table-1 data.
		query: "R1 overlaps R2 and R2 overlaps R3",
		rels:  uniformRels(5000, 100_000, 100, "R1", "R2", "R3"),
		algs:  []string{"rccis", "all-rep", "2way-cascade", "fcts"},
	},
	{ // One condition, two relations.
		query: "R1 overlaps R2",
		rels:  uniformRels(5000, 100_000, 100, "R1", "R2"),
		algs:  []string{"two-way"},
	},
	{ // Q2, sequence, Figure-5 data.
		query: "R1 before R2 and R2 before R3",
		rels:  uniformRels(100, 1000, 100, "R1", "R2", "R3"),
		algs:  []string{"all-matrix"},
	},
	{ // Q4, hybrid.
		query: "R1 overlaps R2 and R2 before R3",
		rels:  []relSpec{{name: "R1", n: 2000, tmax: 200_000, imin: 1, imax: 120}, {name: "R2", n: 2000, tmax: 200_000, imin: 1, imax: 120}, {name: "R3", n: 40, tmax: 200_000, imin: 1, imax: 120}},
		algs:  []string{"all-seq-matrix", "pasm", "fstc"},
	},
	{ // Q5, general, Table-4 data: interval I plus point attributes.
		query: "R1.I before R2.I and R1.I overlaps R3.I and R1.A = R3.A and R2.B = R3.B",
		rels:  uniformRels(400, 100_000, 1000, "R1", "R2", "R3"),
		attrs: map[string][]string{"R1": {"I", "A"}, "R2": {"I", "B"}, "R3": {"I", "A", "B"}},
		algs:  []string{"gen-matrix"},
	},
}

// pointDomain bounds the Table-4 point attributes; small, so that the
// equality conditions of Q5 select something at this scale.
const pointDomain = 5

// build generates the instance's relations in memory.
func (ai algInstance) build(seed int64) []*intervaljoin.Relation {
	rels := make([]*intervaljoin.Relation, len(ai.rels))
	for i, s := range ai.rels {
		ivs := genRel(s, subSeed(seed, 100+i))
		attrs := ai.attrs[s.name]
		rel := intervaljoin.NewRelation(intervaljoin.NewSchema(s.name, attrs...))
		for j, iv := range ivs {
			vals := []intervaljoin.Interval{intervaljoin.NewInterval(iv.s, iv.e)}
			for k := 1; k < len(attrs); k++ {
				vals = append(vals, intervaljoin.PointValue(int64((j*7+k*3+int(iv.s))%pointDomain)))
			}
			rel.Append(vals...)
		}
		rels[i] = rel
	}
	return rels
}

// probeAlgorithms times every registered algorithm on the instance of its
// query class. Algorithms sharing an instance must return the same rows.
func probeAlgorithms(ctx context.Context, seed int64, m map[string]float64) (failed int, err error) {
	for _, ai := range algInstances {
		q, err := intervaljoin.ParseQuery(ai.query)
		if err != nil {
			return failed, err
		}
		rels := ai.build(seed)
		var want digest
		for i, name := range ai.algs {
			if err := ctx.Err(); err != nil {
				return failed, err
			}
			alg, err := intervaljoin.AlgorithmByName(name)
			if err != nil {
				return failed, err
			}
			var got digest
			m["core.alg."+name+".run_ms"], err = timed(2, func() error {
				eng, err := intervaljoin.NewEngine(intervaljoin.EngineOptions{})
				if err != nil {
					return err
				}
				res, err := eng.RunWith(alg, q, rels, intervaljoin.RunOptions{})
				if err != nil {
					return err
				}
				got = consume(res.Tuples)
				return nil
			})
			if err != nil {
				return failed, fmt.Errorf("%s on %q: %w", name, ai.query, err)
			}
			if i == 0 {
				want = got
			} else if got != want {
				fmt.Fprintf(os.Stderr, "bench: %s returned %d rows on %q, %s returned %d\n", name, got.rows, ai.query, ai.algs[0], want.rows)
				failed++
			}
		}
	}
	return failed, nil
}

// probeService runs the workload's windows through an in-process
// cache.Service: the cache layer without HTTP around it.
func probeService(ctx context.Context, li *layerInputs, windows []window, m map[string]float64) error {
	store := dfs.NewMem()
	svc, err := cache.NewService(cache.ServiceConfig{
		Engine:     mr.NewEngine(mr.Config{Store: store}),
		CacheBytes: int64(li.in.w.cacheMB) << 20,
		Opts:       core.Options{Partitions: 16, PartitionsPerDim: 6},
	})
	if err != nil {
		return err
	}
	start := time.Now()
	for _, rel := range li.rels {
		if _, err := svc.Register(rel); err != nil {
			return err
		}
	}
	m["cache.register_ms"] = ms(time.Since(start))

	const passWindows, coldWindows = 240, 8
	var hit, miss, rowCounts []float64
	var key cache.Key
	for i := 0; i < passWindows; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		w := windows[i%len(windows)]
		ans, err := svc.Query(li.q, cache.Window{Lo: w.lo, Hi: w.hi})
		if err != nil {
			return err
		}
		key = ans.Key
		rowCounts = append(rowCounts, float64(len(ans.Rows)))
		if len(ans.DeltaWindows) > 0 {
			miss = append(miss, ms(ans.Wall))
		} else {
			hit = append(hit, ms(ans.Wall))
		}
	}
	m["cache.query_hit_ms"] = median(hit)
	m["cache.query_miss_ms"] = median(miss)
	var cold []float64
	for i := 0; i < coldWindows; i++ {
		w := windows[(i*passWindows/coldWindows)%len(windows)]
		ans, err := svc.RunCold(li.q, cache.Window{Lo: w.lo, Hi: w.hi})
		if err != nil {
			return err
		}
		cold = append(cold, ms(ans.Wall))
	}
	m["cache.runcold_ms"] = median(cold)

	files, err := store.List("")
	if err != nil {
		return err
	}
	var retained int64
	for _, f := range files {
		_, b, err := store.Stat(f)
		if err != nil {
			return err
		}
		retained += b
	}
	m["dfs.retained_files"] = float64(len(files))
	m["dfs.retained_mb"] = float64(retained) / (1 << 20)

	// The cache proper, at this workload's window and answer sizes.
	rows := make([]cache.Row, int(median(rowCounts)))
	for i := range rows {
		rows[i] = cache.Row{IDs: core.OutputTuple{int64(i), int64(i)}, Anchor: interval.New(0, 1)}
	}
	c := cache.New(int64(li.in.w.cacheMB) << 20)
	var insert, lookup []float64
	for i := 0; i < passWindows; i++ {
		w := windows[i%len(windows)]
		t0 := time.Now()
		_, gaps := c.Lookup(key, cache.Window{Lo: w.lo, Hi: w.hi})
		lookup = append(lookup, float64(time.Since(t0))/1e3)
		for _, g := range gaps {
			t0 = time.Now()
			c.Insert(key, g, slices.Clone(rows))
			insert = append(insert, float64(time.Since(t0))/1e3)
		}
	}
	m["cache.lookup_us"] = median(lookup)
	m["cache.insert_us"] = median(insert)
	return nil
}

// cacheCounters is the cache section of the child's /stats document.
type cacheCounters struct {
	Lookups       float64 `json:"lookups"`
	CachedRows    float64 `json:"cached_rows"`
	DeltaRows     float64 `json:"delta_rows"`
	SpanRequested float64 `json:"span_requested"`
	SpanCovered   float64 `json:"span_covered"`
	Evictions     float64 `json:"evictions"`
}

func (s *server) cacheCounters(ctx context.Context) (cacheCounters, error) {
	body, err := s.get(ctx, "/stats")
	if err != nil {
		return cacheCounters{}, err
	}
	var doc struct {
		Cache *cacheCounters `json:"cache"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return cacheCounters{}, fmt.Errorf("/stats: %w", err)
	}
	if doc.Cache == nil {
		return cacheCounters{}, fmt.Errorf("/stats has no cache section")
	}
	return *doc.Cache, nil
}

// fillCache replays the workload's first windows untimed through both
// clients, so the measured windows meet the cache state the mix builds.
func fillCache(ctx context.Context, s *server, in *instance, windows []window, n int) error {
	if n == 0 {
		return nil
	}
	p, err := servePass(ctx, s, in, windows, load{clients: maxClients, minOps: n, maxOps: n}, nil)
	if err != nil {
		return err
	}
	if p.failed > 0 {
		return fmt.Errorf("%d of %d cache-fill queries failed", p.failed, p.ops())
	}
	return nil
}

// probeServer drives the real ijoind child: the workload's two-client
// loop, then one client alone, with the child's own counters read from
// its endpoints around them.
func probeServer(ctx context.Context, e *env, in *instance, windows []window, seconds float64, rec *recorder, m map[string]float64) (twoClient *pass, err error) {
	w := in.w
	srv, err := startServer(ctx, e.ijoind, in, w.cacheMB)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	m["ijoind.ready_s"] = srv.ready.Seconds()
	if err := fillCache(ctx, srv, in, windows, w.fill); err != nil {
		return nil, err
	}
	rss0, err := procStatusKB(srv.pid(), "VmRSS")
	if err != nil {
		return nil, err
	}
	c0, err := srv.cacheCounters(ctx)
	if err != nil {
		return nil, err
	}
	h0, err := srv.heapStats(ctx)
	if err != nil {
		return nil, err
	}
	two, err := servePass(ctx, srv, in, windows, load{first: w.fill, clients: maxClients, seconds: seconds, minOps: 20}, rec)
	if err != nil {
		return nil, err
	}
	h1, err := srv.heapStats(ctx)
	if err != nil {
		return nil, err
	}
	c1, err := srv.cacheCounters(ctx)
	if err != nil {
		return nil, err
	}
	rss1, err := procStatusKB(srv.pid(), "VmRSS")
	if err != nil {
		return nil, err
	}
	ops := float64(two.ops())
	lat := two.sortedLat()
	m["ijoind.resp_kb_per_op"] = float64(two.respBytes) / 1024 / ops
	m["ijoind.rejected_429"] = float64(two.rejected)
	m["ijoind.rss_mb_per_1k_ops"] = float64(rss1-rss0) / 1024 / ops * 1000
	m["ijoind.gc_pause_ms"] = ms(gcPauseBetween(h0, h1))
	m["cache.hit_ratio"] = (c1.SpanCovered - c0.SpanCovered) / (c1.SpanRequested - c0.SpanRequested)
	m["cache.evictions"] = c1.Evictions - c0.Evictions
	m["cache.delta_rows_per_op"] = (c1.DeltaRows - c0.DeltaRows) / ops
	m["cache.cached_rows_per_op"] = (c1.CachedRows - c0.CachedRows) / ops

	one, err := servePass(ctx, srv, in, windows, load{first: w.fill + two.ops(), clients: 1, seconds: seconds, minOps: 20}, nil)
	if err != nil {
		return nil, err
	}
	two.failed += one.failed
	oneP50 := percentile(one.sortedLat(), 0.5)
	svc := median(one.svcWall)
	m["ijoind.svc_wall_p50_ms"] = svc
	m["ijoind.http_overhead_p50_ms"] = oneP50 - svc
	m["ijoind.queue_wait_p50_ms"] = percentile(lat, 0.5) - oneP50
	m["ijoind.one_client_ops_per_s"] = float64(one.ops()) / one.wall.Seconds()
	m["ijoind.two_client_ops_per_s"] = ops / two.wall.Seconds()

	start := time.Now()
	body, err := srv.get(ctx, "/metrics")
	if err != nil {
		return nil, err
	}
	if _, err := live.Parse(bytes.NewReader(body)); err != nil {
		return nil, fmt.Errorf("/metrics does not parse: %w", err)
	}
	m["live.scrape_ms"] = ms(time.Since(start))
	return two, nil
}

// probeTracedServer repeats the two-client loop against a child that
// traces every query, for the serve workloads' tracing overhead.
func probeTracedServer(ctx context.Context, e *env, in *instance, windows []window, seconds float64, dir string) (*pass, error) {
	traceDir := filepath.Join(dir, "query-traces")
	srv, err := startServer(ctx, e.ijoind, in, in.w.cacheMB, "-trace-dir", traceDir, "-trace-sample", "1")
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	if err := fillCache(ctx, srv, in, windows, in.w.fill); err != nil {
		return nil, err
	}
	return servePass(ctx, srv, in, windows, load{first: in.w.fill, clients: maxClients, seconds: seconds, minOps: 20}, nil)
}
