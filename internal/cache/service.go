package cache

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"time"

	"intervaljoin/internal/core"
	"intervaljoin/internal/interval"
	"intervaljoin/internal/mr"
	"intervaljoin/internal/obs"
	"intervaljoin/internal/query"
	"intervaljoin/internal/relation"
)

// Service is the resident-relation join service: relations register once
// and stay in memory, decoded and versioned, and windowed queries answer
// from the semantic segment cache, running the join engine only over the
// uncovered delta windows — and there only on the tuples that can reach the
// window (narrow). It is the transport-free core of cmd/ijoind and directly
// usable in tests and benchmarks.
type Service struct {
	engine    *mr.Engine
	cache     *Cache
	opts      core.Options
	algorithm func(*query.Query) core.Algorithm

	// runMu serializes engine executions: the MapReduce engine models one
	// cluster, so delta joins queue while cache-served queries proceed
	// concurrently.
	runMu sync.Mutex

	mu   sync.Mutex
	rels map[string]*residentRel
}

// residentRel is one registered relation, its version — 1 at first
// registration, one more each time the name is registered again — and, per
// attribute, what finds the tuples intersecting an interval without reading
// them all.
type residentRel struct {
	rel     *relation.Relation
	version int
	// byStart[a] is the tuples in ascending start of attribute a, and
	// endBy[a][i] the latest end of that attribute among byStart[a][:i+1] —
	// non-decreasing, so both ends of the stretch that can intersect an
	// interval are binary searches.
	byStart [][]relation.Tuple
	endBy   [][]interval.Point
}

func newResidentRel(rel *relation.Relation, version int) *residentRel {
	r := &residentRel{rel: rel, version: version}
	for a := 0; a < rel.Schema.Arity(); a++ {
		sorted := slices.Clone(rel.Tuples)
		slices.SortFunc(sorted, func(x, y relation.Tuple) int { return cmp.Compare(x.Attrs[a].Start, y.Attrs[a].Start) })
		ends := make([]interval.Point, len(sorted))
		for i, t := range sorted {
			ends[i] = t.Attrs[a].End
			if i > 0 && ends[i-1] > ends[i] {
				ends[i] = ends[i-1]
			}
		}
		r.byStart, r.endBy = append(r.byStart, sorted), append(r.endBy, ends)
	}
	return r
}

// intersecting is the relation cut down to the tuples whose attribute attr
// intersects iv, in start order. The tuples keep their ids and share the
// relation's intervals.
func (r *residentRel) intersecting(attr int, iv interval.Interval) *relation.Relation {
	sorted := r.byStart[attr]
	// Nothing before lo reaches iv.Start, nothing from hi on starts by iv.End.
	lo, _ := slices.BinarySearch(r.endBy[attr], iv.Start)
	hi, _ := slices.BinarySearchFunc(sorted, iv.End, func(t relation.Tuple, end interval.Point) int {
		if t.Attrs[attr].Start > end {
			return 1
		}
		return -1
	})
	kept := &relation.Relation{Schema: r.rel.Schema}
	for _, t := range sorted[min(lo, hi):hi] {
		if t.Attrs[attr].End >= iv.Start {
			kept.Tuples = append(kept.Tuples, t)
		}
	}
	return kept
}

// ServiceConfig configures a Service.
type ServiceConfig struct {
	// Engine runs the delta joins. Required.
	Engine *mr.Engine
	// CacheBytes is the segment cache's byte budget (0 → DefaultBudget).
	CacheBytes int64
	// Opts are the run options applied to every delta join.
	Opts core.Options
	// Algorithm optionally overrides the planner's choice per query; nil
	// uses core.Plan.
	Algorithm func(*query.Query) core.Algorithm
}

// NewService builds a service that runs its delta joins on cfg.Engine.
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
		cache:     New(cfg.CacheBytes),
		opts:      cfg.Opts,
		algorithm: alg,
		rels:      make(map[string]*residentRel),
	}, nil
}

// Register makes the relation queryable as the next version of its name.
// Re-registering a name bumps the version: cached segments built on the old
// version stop matching new queries' keys and age out of the LRU; in-flight
// queries keep the relation they bound. The service reads rel from now on;
// the caller must not change it.
func (s *Service) Register(rel *relation.Relation) (version int, err error) {
	if rel.Schema.Name == "" {
		return 0, fmt.Errorf("cache: resident relation needs a name")
	}
	if err := rel.Validate(); err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	version = 1
	if old, ok := s.rels[rel.Schema.Name]; ok {
		version = old.version + 1
	}
	s.rels[rel.Schema.Name] = newResidentRel(rel, version)
	return version, nil
}

// Relations lists the registered relation names, sorted.
func (s *Service) Relations() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.rels))
	for name := range s.rels {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

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
// run as delta joins over the resident tuples that can reach the gap and
// populate the cache for the next query.
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
	rels, versions, err := s.bind(q)
	if err != nil {
		return nil, err
	}
	key := keyFor(q, versions)
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
		seg, err := s.runDelta(engine, q, rels, key, gap, ans)
		if err != nil {
			return nil, err
		}
		s.cache.add(seg)
		segs = append(segs, seg)
	}
	if err := ans.merge(segs); err != nil {
		return nil, err
	}

	ans.Wall = time.Since(start)
	return ans, nil
}

// keyFor is the one place a cache key is built: a key without the versions
// serves stale rows after a relation is registered again, and one without
// the family lets two queries whose plans render alike share segments.
func keyFor(q *query.Query, versions string) Key {
	return Key{Plan: core.CanonicalPlan(q), Family: q.Classify().String(), Versions: versions}
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
	rels, versions, err := s.bind(q)
	if err != nil {
		return nil, err
	}
	key := keyFor(q, versions)
	ans := &Answer{Window: w, Key: key}
	var segs []*Segment
	if !query.ProvablyEmpty(q) {
		seg, err := s.runDelta(s.engine, q, rels, key, w, ans)
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
// bound relations (query relation order) and the version string for the
// cache key.
func (s *Service) bind(q *query.Query) ([]*residentRel, string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rels := make([]*residentRel, len(q.Relations))
	versions := make([]byte, 0, 32)
	for i, schema := range q.Relations {
		r, ok := s.rels[schema.Name]
		if !ok {
			return nil, "", fmt.Errorf("cache: relation %s is not registered", schema.Name)
		}
		if r.rel.Schema.Arity() < schema.Arity() {
			return nil, "", fmt.Errorf("cache: relation %s has arity %d, query needs %d", schema.Name, r.rel.Schema.Arity(), schema.Arity())
		}
		rels[i] = r
		if i > 0 {
			versions = append(versions, ',')
		}
		versions = append(versions, schema.Name...)
		versions = append(versions, "@v"...)
		versions = strconv.AppendInt(versions, int64(r.version), 10)
	}
	return rels, string(versions), nil
}

// narrow returns, relation by relation, the tuples a join row anchored in gap
// can contain, or nil when there can be no such row. The anchors are relation
// 0's tuples whose first attribute intersects the gap. From there the query's
// colocation conditions are followed breadth-first: a colocation predicate
// holds only between intervals that share a point, so a tuple joined by one
// to a chosen tuple intersects that tuple's condition attribute, and so the
// hull — [min start, max end] — of that attribute over all chosen tuples;
// the neighbour keeps what intersects the hull. A relation tied to the rest
// only by before/after can match from anywhere and stays whole. The join over
// the narrowed relations is therefore the join over the whole ones restricted
// to rows anchored in the gap, straddling anchors included whole.
func narrow(q *query.Query, rels []*residentRel, gap Window) []*relation.Relation {
	out := make([]*relation.Relation, len(rels))
	out[0] = rels[0].intersecting(0, interval.Interval{Start: gap.Lo, End: gap.Hi})
	for queue := []int{0}; len(queue) > 0; queue = queue[1:] {
		from := out[queue[0]]
		if from.Len() == 0 {
			return nil
		}
		for _, c := range q.Conds {
			near, far := c.Left, c.Right
			if far.Rel == queue[0] {
				near, far = far, near
			}
			if near.Rel != queue[0] || out[far.Rel] != nil || !c.Pred.IsColocation() {
				continue
			}
			hull := from.Tuples[0].Attrs[near.Attr]
			for _, t := range from.Tuples[1:] {
				hull = hull.Union(t.Attrs[near.Attr])
			}
			out[far.Rel] = rels[far.Rel].intersecting(far.Attr, hull)
			queue = append(queue, far.Rel)
		}
	}
	for i, r := range out {
		if r == nil {
			out[i] = rels[i].rel
		}
	}
	return out
}

// runDelta answers one gap: the ordinary, un-windowed join over the tuples
// that can reach the gap (narrow), on the given engine (the shared one, or a
// per-query traced derivation), returned in segment form: exactly the rows
// whose anchor intersects the gap, including whole (unclipped) straddling
// anchors — the halo the merge dedups. A gap no row can be anchored in is an
// empty segment and runs nothing. The run's algorithm name, row count and
// engine metrics are folded into ans. Engine runs serialize on runMu.
func (s *Service) runDelta(engine *mr.Engine, q *query.Query, rels []*residentRel, key Key, gap Window, ans *Answer) (*Segment, error) {
	alg := s.algorithm(q)
	ans.Algorithm = alg.Name()
	arity := len(rels)
	near := narrow(q, rels, gap)
	if near == nil {
		return layoutSegment(key, gap, arity, nil, nil), nil
	}
	ctx, err := core.NewContext(engine, q, near, s.opts)
	if err != nil {
		return nil, err
	}
	s.runMu.Lock()
	res, err := alg.Run(ctx)
	s.runMu.Unlock()
	if err != nil {
		return nil, err
	}
	ans.mergeEngine(res.Metrics)
	ans.DeltaRows += int64(len(res.Tuples))
	anchors := make(map[int64]interval.Interval, near[0].Len())
	for _, t := range near[0].Tuples {
		anchors[t.ID] = t.Attrs[0]
	}
	// The result is already a slab in canonical order; it becomes the
	// segment's as it is.
	return layoutSegment(key, gap, arity, res.IDs, func(row int) interval.Interval {
		return anchors[res.IDs[row*arity]]
	}), nil
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
