package cache

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"intervaljoin/internal/core"
	"intervaljoin/internal/dfs"
	"intervaljoin/internal/interval"
	"intervaljoin/internal/mr"
	"intervaljoin/internal/obs"
	"intervaljoin/internal/query"
	"intervaljoin/internal/relation"
)

// Service is the resident-relation join service: relations register once
// (staged to the store under a versioned resident file), and windowed
// queries answer from the semantic segment cache, running the join engine
// only over the uncovered delta windows. It is the transport-free core of
// cmd/ijoind and directly usable in tests and benchmarks.
type Service struct {
	engine    *mr.Engine
	residents *dfs.Residents
	cache     *Cache
	tracer    *obs.Tracer
	opts      core.Options
	algorithm func(*query.Query) core.Algorithm

	// runMu serializes engine executions: the MapReduce engine models one
	// cluster, so delta joins queue while cache-served queries proceed
	// concurrently.
	runMu sync.Mutex
	// scratchSeq numbers the delta runs' scratch prefixes on the store.
	scratchSeq atomic.Int64

	mu   sync.Mutex
	rels map[string]*residentRel
}

// residentRel is one registered relation: the in-memory copy (bound into
// run contexts for planning), its staged store file + version, and the
// id → anchor index used to attach clip anchors to delta rows.
type residentRel struct {
	rel     *relation.Relation
	file    string
	version int
	anchors map[int64]interval.Interval
}

// ServiceConfig configures a Service.
type ServiceConfig struct {
	// Engine runs the delta joins. Required; its store receives the
	// resident files.
	Engine *mr.Engine
	// CacheBytes is the segment cache's byte budget (0 → DefaultBudget).
	CacheBytes int64
	// Tracer, when non-nil, receives the cache_* counters per query.
	Tracer *obs.Tracer
	// Opts are the base run options applied to every delta join; Window,
	// WindowRel, ResidentInputs and Scratch are overwritten per run.
	Opts core.Options
	// Algorithm optionally overrides the planner's choice per query; nil
	// uses core.Plan.
	Algorithm func(*query.Query) core.Algorithm
}

// NewService builds a service over the engine's store.
func NewService(cfg ServiceConfig) (*Service, error) {
	if cfg.Engine == nil {
		return nil, fmt.Errorf("cache: ServiceConfig.Engine is required")
	}
	alg := cfg.Algorithm
	if alg == nil {
		alg = func(q *query.Query) core.Algorithm { return core.Plan(q, false) }
	}
	return &Service{
		engine:    cfg.Engine,
		residents: dfs.NewResidents(cfg.Engine.Store()),
		cache:     New(cfg.CacheBytes),
		tracer:    cfg.Tracer,
		opts:      cfg.Opts,
		algorithm: alg,
		rels:      make(map[string]*residentRel),
	}, nil
}

// Register stages the relation as the next version of its name and makes
// it queryable. Re-registering a name bumps the version: cached segments
// built on the old version stop matching new queries' keys and age out of
// the LRU; in-flight queries keep reading the old resident file.
func (s *Service) Register(rel *relation.Relation) (version int, err error) {
	if err := rel.Validate(); err != nil {
		return 0, err
	}
	records := make([]string, rel.Len())
	anchors := make(map[int64]interval.Interval, rel.Len())
	for i, t := range rel.Tuples {
		records[i] = relation.EncodeTuple(t)
		anchors[t.ID] = t.Attrs[0]
	}
	file, version, err := s.residents.Register(rel.Schema.Name, records)
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	s.rels[rel.Schema.Name] = &residentRel{rel: rel, file: file, version: version, anchors: anchors}
	s.mu.Unlock()
	return version, nil
}

// Relations lists the registered relation names, sorted.
func (s *Service) Relations() []string { return s.residents.Names() }

// Stats snapshots the segment cache accounting.
func (s *Service) Stats() Stats { return s.cache.Stats() }

// Answer is one query's result and its cache provenance.
type Answer struct {
	// Rows is the deduplicated result: every join row whose anchor (first
	// attribute of the first relation's tuple) intersects the query
	// window. Sorted canonically. The tuples are views into cached
	// segments' id slabs, shared with every other answer: read-only.
	Rows []core.OutputTuple
	// RowsJSON is Rows as a JSON array of id arrays, "[[3,7],[3,9]]",
	// assembled from the text the segments stored at insert.
	RowsJSON []byte
	// Window echoes the queried window.
	Window Window
	// Key is the cache key the query resolved to.
	Key Key
	// HitSegments is the number of cached segments merged in;
	// DeltaWindows are the uncovered gaps the engine re-joined.
	HitSegments  int
	DeltaWindows []Window
	// CachedRows / DeltaRows count merged rows by provenance, before
	// clipping and dedup.
	CachedRows, DeltaRows int64
	// Algorithm is the driver that ran the delta joins ("" on a full hit).
	Algorithm string
	// Engine aggregates the engine metrics of the query's delta runs (one
	// Merge per gap window). Nil when the cache covered the whole window —
	// the telemetry bridge in cmd/ijoind publishes it after each query.
	Engine *mr.Metrics
	// Merge is the part of Wall spent clipping and merging the segments
	// into Rows and RowsJSON.
	Merge time.Duration
	// Wall is the query's service-side latency.
	Wall time.Duration
}

// Query answers a windowed query: rows whose anchor intersects the closed
// window [w.Lo, w.Hi]. Every relation the query names must be registered.
// Cache-covered spans merge without touching the engine; uncovered gaps
// run as delta-window joins over the resident files and populate the cache
// for the next query.
func (s *Service) Query(q *query.Query, w Window) (*Answer, error) {
	return s.queryOn(s.engine, q, w)
}

// QueryTraced answers exactly like Query but runs the query's delta joins
// on an engine derived with tr, so a sampled request's execution spans
// land in a tracer of their own (dumped as a per-query Chrome trace by
// cmd/ijoind). Rows are byte-identical to an untraced Query — tracing
// never changes results, only what gets recorded.
func (s *Service) QueryTraced(q *query.Query, w Window, tr *obs.Tracer) (*Answer, error) {
	return s.queryOn(s.engine.WithTracer(tr), q, w)
}

func (s *Service) queryOn(engine *mr.Engine, q *query.Query, w Window) (*Answer, error) {
	start := time.Now()
	if w.Hi < w.Lo {
		return nil, fmt.Errorf("cache: window [%d,%d] is empty", w.Lo, w.Hi)
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	rels, files, versions, anchors, err := s.bind(q)
	if err != nil {
		return nil, err
	}
	key := Key{
		Plan:     core.CanonicalPlan(q),
		Family:   q.Classify().String(),
		Versions: versions,
	}
	ans := &Answer{Window: w, Key: key}
	if query.ProvablyEmpty(q) {
		if err := ans.merge(nil); err != nil {
			return nil, err
		}
		ans.Wall = time.Since(start)
		return ans, nil
	}

	segs, gaps := s.cache.Lookup(key, w)
	ans.HitSegments = len(segs)
	ans.DeltaWindows = gaps
	for _, seg := range segs {
		ans.CachedRows += int64(seg.rows())
	}
	// Each gap's delta result is built into segment form before it is
	// cached, so the answer is one merge over segments whether they came
	// from the cache or from the engine just now.
	for _, gap := range gaps {
		seg, err := s.runDelta(engine, q, rels, files, anchors, key, gap, ans)
		if err != nil {
			return nil, err
		}
		s.cache.add(seg)
		segs = append(segs, seg)
	}
	if err := ans.merge(segs); err != nil {
		return nil, err
	}

	s.tracer.Count("cache_lookups", 1)
	s.tracer.Count("cache_hit_segments", int64(ans.HitSegments))
	s.tracer.Count("cache_delta_rows", ans.DeltaRows)
	s.tracer.Count("cache_cached_rows", ans.CachedRows)
	if len(gaps) == 0 {
		s.tracer.Count("cache_full_hits", 1)
	}
	ans.Wall = time.Since(start)
	return ans, nil
}

// RunCold answers the windowed query with a single engine run over the
// whole window, bypassing the cache entirely — neither reading nor
// populating it. It is the benchmark's cold control and the equivalence
// tests' engine-side oracle; Query with a warm cache must produce exactly
// this row set.
func (s *Service) RunCold(q *query.Query, w Window) (*Answer, error) {
	start := time.Now()
	if w.Hi < w.Lo {
		return nil, fmt.Errorf("cache: window [%d,%d] is empty", w.Lo, w.Hi)
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	rels, files, versions, anchors, err := s.bind(q)
	if err != nil {
		return nil, err
	}
	key := Key{Plan: core.CanonicalPlan(q), Family: q.Classify().String(), Versions: versions}
	ans := &Answer{Window: w, Key: key}
	var segs []*Segment
	if !query.ProvablyEmpty(q) {
		seg, err := s.runDelta(s.engine, q, rels, files, anchors, key, w, ans)
		if err != nil {
			return nil, err
		}
		segs = append(segs, seg)
		ans.DeltaWindows = []Window{w}
	}
	if err := ans.merge(segs); err != nil {
		return nil, err
	}
	ans.Wall = time.Since(start)
	return ans, nil
}

// merge sets the answer's rows to the union of the segments' anchor
// groups that intersect the answer's window: selectGroups picks the
// groups, then each stretch of them leaves its segment in bulk — the wire
// text in one copy into a buffer of exactly the answer's size, the rows
// as views into the segment's id slab, which is immutable and stays alive
// for as long as the answer refers to it.
func (a *Answer) merge(segs []*Segment) error {
	start := time.Now()
	sc := mergeScratches.Get().(*mergeScratch)
	defer mergeScratches.Put(sc)
	if err := sc.selectGroups(segs, a.Window); err != nil {
		return err
	}
	nrows, nwire := 0, 0
	for _, r := range sc.runs {
		g := segs[r.seg].groups
		nrows += g[r.hi].row - g[r.lo].row
		nwire += g[r.hi].wire - g[r.lo].wire
	}
	rows := make([]core.OutputTuple, 0, nrows)
	// Two bytes more than the rows' text: the opening bracket, and the
	// closing one when there is no last row whose comma it can overwrite.
	wire := append(make([]byte, 0, nwire+2), '[')
	for _, r := range sc.runs {
		s := segs[r.seg]
		lo, hi := s.groups[r.lo], s.groups[r.hi]
		for i := lo.row * s.arity; i < hi.row*s.arity; i += s.arity {
			rows = append(rows, s.ids[i:i+s.arity:i+s.arity])
		}
		wire = append(wire, s.wire[lo.wire:hi.wire]...)
	}
	if nrows == 0 {
		wire = append(wire, ']')
	} else {
		wire[len(wire)-1] = ']'
	}
	a.Rows = rows
	a.RowsJSON = wire
	a.Merge = time.Since(start)
	return nil
}

// run is a stretch of consecutive groups [lo, hi) of segs[seg] that all
// go into an answer, so their wire text leaves the slab in one copy.
type run struct{ seg, lo, hi int }

// mergeScratch is selectGroups' working memory, recycled between queries.
// It holds no pointers into segments.
type mergeScratch struct {
	pos  []int // per segment, the next group to consider
	runs []run
}

var mergeScratches = sync.Pool{New: func() any { return new(mergeScratch) }}

// selectGroups fills sc.runs with the distinct anchor groups of the
// segments that intersect w, in ascending anchor id. The directories are
// walked together — they are few, one per hit or gap, so a linear
// min-scan beats a heap. The halo shows up as one anchor id at the head
// of several directories: those groups are identical (every segment holds
// all rows of an anchor it contains), so one is kept; differing row
// counts mean a segment broke that invariant and fail the query.
func (sc *mergeScratch) selectGroups(segs []*Segment, w Window) error {
	sc.pos = append(sc.pos[:0], make([]int, len(segs))...)
	sc.runs = sc.runs[:0]
	pos := sc.pos
	for {
		best := -1
		var id int64
		for i, s := range segs {
			if pos[i] == len(s.groups)-1 {
				continue
			}
			if h := s.groups[pos[i]].id; best < 0 || h < id {
				best, id = i, h
			}
		}
		if best < 0 {
			return nil
		}
		s, g := segs[best], pos[best]
		n := s.groups[g+1].row - s.groups[g].row
		pos[best]++
		for i := best + 1; i < len(segs); i++ {
			t, p := segs[i], pos[i]
			if p == len(t.groups)-1 || t.groups[p].id != id {
				continue
			}
			if m := t.groups[p+1].row - t.groups[p].row; m != n {
				return fmt.Errorf("cache: anchor %d has %d rows in segment [%d,%d] and %d in segment [%d,%d]",
					id, n, s.Win.Lo, s.Win.Hi, m, t.Win.Lo, t.Win.Hi)
			}
			pos[i]++
		}
		if an := s.groups[g].anchor; an.Start > w.Hi || an.End < w.Lo {
			continue
		}
		if k := len(sc.runs) - 1; k >= 0 && sc.runs[k].seg == best && sc.runs[k].hi == g {
			sc.runs[k].hi = g + 1
		} else {
			sc.runs = append(sc.runs, run{seg: best, lo: g, hi: g + 1})
		}
	}
}

// bind resolves the query's relations against the registry, returning the
// bound relations, their resident files (query relation order), the
// version string for the cache key, and the anchor index of relation 0.
func (s *Service) bind(q *query.Query) ([]*relation.Relation, []string, string, map[int64]interval.Interval, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rels := make([]*relation.Relation, len(q.Relations))
	files := make([]string, len(q.Relations))
	versions := make([]byte, 0, 32)
	var anchors map[int64]interval.Interval
	for i, schema := range q.Relations {
		r, ok := s.rels[schema.Name]
		if !ok {
			return nil, nil, "", nil, fmt.Errorf("cache: relation %s is not registered", schema.Name)
		}
		rels[i] = r.rel
		files[i] = r.file
		if i > 0 {
			versions = append(versions, ',')
		}
		versions = append(versions, schema.Name...)
		versions = append(versions, "@v"...)
		versions = strconv.AppendInt(versions, int64(r.version), 10)
		if i == 0 {
			anchors = r.anchors
		}
	}
	return rels, files, string(versions), anchors, nil
}

// runDelta executes the join restricted to the gap window over the
// resident files, on the given engine (the shared one, or a per-query
// traced derivation), and returns the result in segment form: exactly
// the rows whose anchor intersects the gap, including whole (unclipped)
// straddling anchors — the halo the merge dedups. The run's algorithm
// name, row count and engine metrics are folded into ans. Engine runs
// serialize on runMu. Each run has a scratch prefix of its own on the
// store, for the cycle boundaries a multi-cycle join may put there (the
// result itself never touches the store); it is emptied again once the
// run is over.
func (s *Service) runDelta(engine *mr.Engine, q *query.Query, rels []*relation.Relation, files []string, anchors map[int64]interval.Interval, key Key, gap Window, ans *Answer) (*Segment, error) {
	opts := s.opts
	opts.Window = &[2]interval.Point{gap.Lo, gap.Hi}
	opts.WindowRel = 0
	opts.ResidentInputs = files
	opts.Scratch = "delta/" + strconv.FormatInt(s.scratchSeq.Add(1), 10)
	ctx, err := core.NewContext(engine, q, rels, opts)
	if err != nil {
		return nil, err
	}
	alg := s.algorithm(q)
	s.runMu.Lock()
	res, err := alg.Run(ctx)
	s.runMu.Unlock()
	s.removeScratch(engine.Store(), opts.Scratch+"/")
	if err != nil {
		return nil, err
	}
	ans.Algorithm = res.Algorithm
	ans.mergeEngine(res.Metrics)
	ans.DeltaRows += int64(len(res.Tuples))
	// The result is already a slab in canonical order; it becomes the
	// segment's as it is.
	arity := len(rels)
	return layoutSegment(key, gap, arity, res.IDs, func(row int) interval.Interval {
		return anchors[res.IDs[row*arity]]
	}), nil
}

// removeScratch deletes a finished run's files from the store. A file
// that cannot be listed or removed stays behind and is counted; the
// query's answer does not depend on it.
func (s *Service) removeScratch(store dfs.Store, prefix string) {
	names, err := store.List(prefix)
	if err != nil {
		s.tracer.Count("cache_scratch_remove_failed", 1)
		return
	}
	for _, name := range names {
		if err := store.Remove(name); err != nil {
			s.tracer.Count("cache_scratch_remove_failed", 1)
		}
	}
}

// mergeEngine folds one delta run's engine metrics into the answer.
func (a *Answer) mergeEngine(m *mr.Metrics) {
	if m == nil {
		return
	}
	if a.Engine == nil {
		a.Engine = mr.NewMetrics("query")
		a.Engine.Cycles = 0
	}
	a.Engine.Merge(m)
}
