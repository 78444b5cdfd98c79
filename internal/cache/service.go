package cache

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"intervaljoin/internal/core"
	"intervaljoin/internal/interval"
	"intervaljoin/internal/obs"
	"intervaljoin/internal/query"
	"intervaljoin/internal/relation"
)

// Service is the resident-relation join service: relations register once
// and stay in memory, decoded and versioned, and windowed queries answer
// from the semantic segment cache, joining only the uncovered delta windows
// — and there only the tuples that can reach the window (narrow). It is the
// transport-free core of cmd/ijoind and directly usable in tests and
// benchmarks.
//
// A delta join runs in line, in the querying goroutine (core.JoinInLineIDs):
// its input is the few tuples that can reach one gap, which one reducer
// holding them all joins best, so there is no engine, job or shuffle.
// Queries run concurrently all the way through, delta joins included: each
// gets a core.Context of its own. The caller bounds how many run at once
// (cmd/ijoind through admission control).
type Service struct {
	cache *Cache
	// join runs a delta join into an id buffer: core.JoinInLineIDs, which a
	// test may wrap.
	join func(*core.Context, []int64) ([]int64, error)

	mu   sync.Mutex // guards rels
	rels map[string]*residentRel
}

// residentRel is one registered relation, its version — 1 at first
// registration, one more each time the name is registered again — laid out
// once, at registration, as pointer-free columns: the collector has nothing
// to walk in a resident however many tuples it holds, and a delta join finds
// the tuples intersecting an interval without reading them all.
type residentRel struct {
	schema  relation.Schema
	version int
	// ids[p] is the id of the tuple at position p: positions follow
	// ascending id, so a selection read out in position order is in id
	// order too.
	ids []int64
	// ivs holds each position's intervals back to back, arity of them a
	// position.
	ivs []interval.Interval
	// byStart[a] orders the positions by the start of attribute a.
	byStart []startOrder

	// whole is the relation as tuples in id order, viewing ivs: built on
	// the first query that joins the relation whole (through before/after
	// only), and kept.
	wholeOnce sync.Once
	whole     *relation.Relation
}

// startOrder is one attribute's index: order[i] is the position with the
// i-th smallest start — of equal starts, the smallest position, so the
// smallest id, first — starts[i] that start, and endBy[i] the latest end of
// the attribute among order[:i+1] — non-decreasing, so both ends of the
// stretch that can intersect an interval are binary searches.
type startOrder struct {
	order  []int32
	starts []interval.Point
	endBy  []interval.Point
}

// newResidentRel lays out a validated relation; Register sets the version.
// Nothing of rel is kept.
func newResidentRel(rel *relation.Relation) (*residentRel, error) {
	n, arity := rel.Len(), rel.Schema.Arity()
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("cache: relation %s has %d tuples, a resident holds at most %d", rel.Schema.Name, n, math.MaxInt32)
	}
	// byID[p] is the caller's index of the tuple at position p.
	byID := make([]int32, n)
	for i := range byID {
		byID[i] = int32(i)
	}
	tuples := rel.Tuples
	slices.SortFunc(byID, func(x, y int32) int { return cmp.Compare(tuples[x].ID, tuples[y].ID) })
	r := &residentRel{
		schema:  relation.Schema{Name: rel.Schema.Name, Attrs: slices.Clone(rel.Schema.Attrs)},
		ids:     make([]int64, n),
		ivs:     make([]interval.Interval, 0, n*arity),
		byStart: make([]startOrder, arity),
	}
	for p, i := range byID {
		r.ids[p] = tuples[i].ID
		r.ivs = append(r.ivs, tuples[i].Attrs...)
	}
	for a := range r.byStart {
		order := make([]int32, n)
		for p := range order {
			order[p] = int32(p)
		}
		slices.SortFunc(order, func(x, y int32) int {
			return cmp.Or(cmp.Compare(r.attr(x, a).Start, r.attr(y, a).Start), cmp.Compare(x, y))
		})
		starts, ends := make([]interval.Point, n), make([]interval.Point, n)
		for i, p := range order {
			iv := r.attr(p, a)
			starts[i], ends[i] = iv.Start, iv.End
			if i > 0 && ends[i-1] > ends[i] {
				ends[i] = ends[i-1]
			}
		}
		r.byStart[a] = startOrder{order: order, starts: starts, endBy: ends}
	}
	return r, nil
}

// attr is attribute a of the tuple at position p.
func (r *residentRel) attr(p int32, a int) interval.Interval {
	return r.ivs[int(p)*r.schema.Arity()+a]
}

// stretch is the part of attribute attr's start order that can intersect
// iv: nothing before it reaches iv.Start, nothing after starts by iv.End.
func (r *residentRel) stretch(attr int, iv interval.Interval) []int32 {
	idx := r.byStart[attr]
	lo, _ := slices.BinarySearch(idx.endBy, iv.Start)
	hi := sort.Search(len(idx.starts), func(i int) bool { return idx.starts[i] > iv.End })
	return idx.order[min(lo, hi):hi]
}

// intersecting marks in keep the positions whose attribute attr intersects
// iv and returns how many it marked.
func (r *residentRel) intersecting(attr int, iv interval.Interval, keep []uint64) int {
	n := 0
	for _, p := range r.stretch(attr, iv) {
		if r.attr(p, attr).End >= iv.Start {
			keep[p/64] |= 1 << (p % 64)
			n++
		}
	}
	return n
}

// ranked lists the positions intersecting(attr, iv, keep) marked in start
// order, each as its index in selection(keep)'s id order: its rank among
// the positions keep holds, counted from the words before it.
func (r *residentRel) ranked(attr int, iv interval.Interval, keep []uint64, n int) []int32 {
	below := make([]int32, len(keep), len(keep)+n)
	out := below[len(keep):]
	k := int32(0)
	for w, word := range keep {
		below[w] = k
		k += int32(bits.OnesCount64(word))
	}
	for _, p := range r.stretch(attr, iv) {
		if word, bit := keep[p/64], uint64(1)<<(p%64); word&bit != 0 {
			out = append(out, below[p/64]+int32(bits.OnesCount64(word&(bit-1))))
		}
	}
	return out
}

// tuple is the tuple at position p, its intervals a view of the resident's.
func (r *residentRel) tuple(p int) relation.Tuple {
	a := r.schema.Arity()
	return relation.Tuple{ID: r.ids[p], Attrs: r.ivs[p*a : (p+1)*a : (p+1)*a]}
}

// selection is the relation cut down to the n positions set in keep, in id
// order.
func (r *residentRel) selection(keep []uint64, n int) *relation.Relation {
	kept := &relation.Relation{Schema: r.schema, Tuples: make([]relation.Tuple, 0, n)}
	for w, word := range keep {
		for ; word != 0; word &= word - 1 {
			kept.Tuples = append(kept.Tuples, r.tuple(w*64+bits.TrailingZeros64(word)))
		}
	}
	return kept
}

// wholeRelation is every tuple of the resident in id order, built on first
// use and kept.
func (r *residentRel) wholeRelation() *relation.Relation {
	r.wholeOnce.Do(func() {
		r.whole = &relation.Relation{Schema: r.schema, Tuples: make([]relation.Tuple, len(r.ids))}
		for p := range r.ids {
			r.whole.Tuples[p] = r.tuple(p)
		}
	})
	return r.whole
}

// ServiceConfig configures a Service.
type ServiceConfig struct {
	// CacheBytes is the segment cache's byte budget (0 → DefaultBudget).
	CacheBytes int64
	// Engine is ignored: a delta join runs in line, on no engine. It is
	// typed any so that the package does not import the engine's.
	//
	// Deprecated: ignored; left for callers that still set it.
	Engine any
	// Opts is ignored: a delta join has no partitions to size.
	//
	// Deprecated: ignored; left for callers that still set it.
	Opts core.Options
}

// NewService builds a service with an empty cache of cfg.CacheBytes. The
// error is always nil.
func NewService(cfg ServiceConfig) (*Service, error) {
	return &Service{
		cache: New(cfg.CacheBytes),
		join:  core.JoinInLineIDs,
		rels:  make(map[string]*residentRel),
	}, nil
}

// Register makes the relation queryable as the next version of its name.
// Re-registering a name bumps the version: cached segments built on the old
// version stop matching new queries' keys and age out of the LRU; in-flight
// queries keep the version they bound. The service copies what it needs out
// of rel and keeps no reference to it.
func (s *Service) Register(rel *relation.Relation) (version int, err error) {
	if rel.Schema.Name == "" {
		return 0, fmt.Errorf("cache: resident relation needs a name")
	}
	if err := rel.Validate(); err != nil {
		return 0, err
	}
	r, err := newResidentRel(rel)
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	r.version = 1
	if old, ok := s.rels[rel.Schema.Name]; ok {
		r.version = old.version + 1
	}
	s.rels[rel.Schema.Name] = r
	return r.version, nil
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

// Answer is one query's result and its cache provenance. Query,
// QueryTraced and RunCold fill Rows and RowsJSON; AppendQuery fills
// neither and appends the rows' text to its caller's buffer instead.
type Answer struct {
	// Rows is the result: every join row whose anchor (first attribute of
	// the first relation's tuple) intersects the query window, once, in
	// (anchor start, anchor id, ids) order on every path. The rows are
	// decoded from RowsJSON into one slab of the answer's own.
	Rows []core.OutputTuple
	// RowsJSON is Rows as a JSON array of id arrays, "[[3,7],[3,9]]",
	// assembled from the text the segments stored at insert.
	RowsJSON []byte
	// Count is the number of rows, on every path: len(Rows) where Rows
	// is filled.
	Count int
	// Window echoes the queried window.
	Window Window
	// Key is the cache key the query resolved to.
	Key Key
	// HitSegments is the number of cached segments merged in;
	// DeltaWindows are the uncovered gaps the service joined.
	HitSegments  int
	DeltaWindows []Window
	// CachedRows / DeltaRows count the rows of the merged segments by
	// provenance, before the window cuts them.
	CachedRows, DeltaRows int64
	// Merge is the part of Wall spent cutting the segments to the window
	// and copying the rows' text out of them.
	Merge time.Duration
	// Wall is the query's service-side latency.
	Wall time.Duration
}

// Query answers a windowed query: rows whose anchor intersects the closed
// window [w.Lo, w.Hi]. Every relation the query names must be registered.
// Cache-covered spans merge without a join; uncovered gaps run as delta
// joins over the resident tuples that can reach the gap and populate the
// cache for the next query.
func (s *Service) Query(q *query.Query, w Window) (*Answer, error) {
	return s.answer(s.cache, q, w, nil)
}

// QueryTraced answers exactly like Query and records one span on tr per
// delta join it runs, so a sampled request's joins land in a tracer of their
// own (dumped as a per-query Chrome trace by cmd/ijoind). Rows are
// byte-identical to an untraced Query — tracing never changes results, only
// what gets recorded.
func (s *Service) QueryTraced(q *query.Query, w Window, tr *obs.Tracer) (*Answer, error) {
	return s.answer(s.cache, q, w, tr)
}

// AppendQuery answers like QueryTraced (tr may be nil) but appends the rows'
// JSON array — RowsJSON's bytes — to dst instead of filling Rows and
// RowsJSON: each row's text is copied once, from the cached segments into
// dst, and no row is decoded. The answer carries the row count. On error
// it returns dst as it was passed.
func (s *Service) AppendQuery(dst []byte, q *query.Query, w Window, tr *obs.Tracer) ([]byte, *Answer, error) {
	return s.queryOn(s.cache, dst, q, w, tr, false)
}

// RunCold answers the windowed query with a single delta join over the
// whole window, bypassing the cache entirely — neither reading nor
// populating it. It is the benchmark's cold control and the equivalence
// tests' uncached reference; Query with a warm cache must produce exactly
// these rows, in this order.
func (s *Service) RunCold(q *query.Query, w Window) (*Answer, error) {
	return s.answer(nil, q, w, nil)
}

// answer is Query's, QueryTraced's and RunCold's: queryOn with decoded
// rows, its text a buffer of exactly its size.
func (s *Service) answer(c *Cache, q *query.Query, w Window, tr *obs.Tracer) (*Answer, error) {
	wire, ans, err := s.queryOn(c, nil, q, w, tr, true)
	if err != nil {
		return nil, err
	}
	ans.RowsJSON = wire
	return ans, nil
}

// queryOn answers the query from c and the delta joins of the gaps c does
// not cover, which it adds to c — with c nil, from one delta join — and
// appends the rows' JSON array to dst, filling Rows when decode is set.
func (s *Service) queryOn(c *Cache, dst []byte, q *query.Query, w Window, tr *obs.Tracer, decode bool) ([]byte, *Answer, error) {
	start := time.Now()
	if w.Hi < w.Lo {
		return dst, nil, fmt.Errorf("cache: window [%d,%d] is empty", w.Lo, w.Hi)
	}
	if err := q.Validate(); err != nil {
		return dst, nil, err
	}
	rels, versions, err := s.bind(q)
	if err != nil {
		return dst, nil, err
	}
	key := keyFor(q, versions)
	ans := &Answer{Window: w, Key: key}
	var segs []*Segment
	if !query.ProvablyEmpty(q) {
		var gaps []Window
		if c != nil {
			segs, gaps = c.Lookup(key, w)
		} else {
			gaps = []Window{w}
		}
		ans.HitSegments = len(segs)
		ans.DeltaWindows = gaps
		for _, seg := range segs {
			ans.CachedRows += int64(seg.rows())
		}
		// Each gap's delta result is built into segment form before it is
		// cached, so the answer is one merge over segments whether they
		// came from the cache or from a join just now.
		for _, gap := range gaps {
			seg, err := s.runDelta(tr, q, rels, key, gap, ans)
			if err != nil {
				return dst, nil, err
			}
			if c != nil {
				c.add(seg)
			}
			segs = append(segs, seg)
		}
	}
	out := ans.appendRows(dst, segs, decode)
	ans.Wall = time.Since(start)
	return out, ans, nil
}

// keyFor is the one place a cache key is built: a key without the versions
// serves stale rows after a relation is registered again, and one without
// the family lets two queries whose plans render alike share segments.
func keyFor(q *query.Query, versions string) Key {
	return Key{Plan: core.CanonicalPlan(q), Family: q.Classify().String(), Versions: versions}
}

// appendRows appends to dst, as a JSON array, the anchor groups of the
// segments — which must cover the answer's window, disjointly, and which
// it puts in window order — that intersect the window, and sets the
// answer's Count and, when decode is set, its Rows: selectGroups picks the
// groups, then each stretch of them leaves its segment's wire text in one
// copy, and the rows are decoded back out of the copied text
// (decodeRows). A nil dst becomes a buffer of exactly the array's size.
func (a *Answer) appendRows(dst []byte, segs []*Segment, decode bool) []byte {
	start := time.Now()
	sc := mergeScratches.Get().(*mergeScratch)
	defer mergeScratches.Put(sc)
	slices.SortFunc(segs, func(s, t *Segment) int { return cmp.Compare(s.Win.Lo, t.Win.Lo) })
	sc.selectGroups(segs, a.Window)
	nrows, nwire, arity := 0, 0, 0
	for _, r := range sc.runs {
		g := segs[r.seg].groups
		nrows += g[r.hi].row - g[r.lo].row
		nwire += g[r.hi].wire - g[r.lo].wire
		arity = segs[r.seg].arity
	}
	// Two bytes more than the rows' text: the opening bracket, and the
	// closing one when there is no last row whose comma it can overwrite.
	if dst == nil {
		dst = make([]byte, 0, nwire+2)
	}
	dst = append(slices.Grow(dst, nwire+2), '[')
	text := len(dst)
	for _, r := range sc.runs {
		s := segs[r.seg]
		dst = append(dst, s.wire[s.groups[r.lo].wire:s.groups[r.hi].wire]...)
	}
	if decode {
		a.Rows = decodeRows(dst[text:], nrows, arity)
	}
	if nrows == 0 {
		dst = append(dst, ']')
	} else {
		dst[len(dst)-1] = ']'
	}
	a.Count = nrows
	a.Merge = time.Since(start)
	return dst
}

// decodeRows parses n rows of arity ids each back out of wire text —
// "[3,7],[3,9]," as layout wrote it, so well formed — into one slab, and
// returns a header per row into it. A magnitude is gathered as a uint64, so
// every int64 decodes exactly: -9223372036854775808's negation wraps to
// MinInt64 itself.
func decodeRows(text []byte, n, arity int) []core.OutputTuple {
	ids := make([]int64, 0, n*arity)
	var u uint64
	neg, digits := false, false
	for _, c := range text {
		switch {
		case '0' <= c && c <= '9':
			u, digits = u*10+uint64(c-'0'), true
		case c == '-':
			neg = true
		case digits: // a comma or a closing bracket ends the id
			id := int64(u)
			if neg {
				id = -id
			}
			ids = append(ids, id)
			u, neg, digits = 0, false, false
		}
	}
	rows := make([]core.OutputTuple, n)
	for i := range rows {
		rows[i] = ids[i*arity : (i+1)*arity : (i+1)*arity]
	}
	return rows
}

// run is a stretch of consecutive groups [lo, hi) of segs[seg] that all
// go into an answer, so their wire text leaves the slab in one copy: a
// segment's stretch of groups that start in the window, or one group of
// the first segment that starts before it.
type run struct{ seg, lo, hi int }

// mergeScratch is selectGroups' working memory, recycled between queries.
// It holds no pointers into segments.
type mergeScratch struct {
	runs []run
}

var mergeScratches = sync.Pool{New: func() any { return new(mergeScratch) }}

// selectGroups fills sc.runs with the anchor groups of the segments, in
// window order, that intersect w, in (anchor start, anchor id) order. An
// anchor that meets w starts in it in exactly one segment, in the stretch
// of groups that start in both windows, or holds w.Lo: the first segment's
// groups that start less than its reach before w.Lo are tested one by one.
func (sc *mergeScratch) selectGroups(segs []*Segment, w Window) {
	sc.runs = sc.runs[:0]
	for i, s := range segs {
		from := s.firstStart(func(start interval.Point) bool { return start >= max(w.Lo, s.Win.Lo) })
		if i == 0 {
			// Unsigned, the distance back to a start fits however far it is.
			near := func(start interval.Point) bool { return start >= w.Lo || uint64(w.Lo)-uint64(start) <= s.reach }
			for g := s.firstStart(near); g < from; g++ {
				if s.groups[g].anchor.End >= w.Lo {
					sc.runs = append(sc.runs, run{seg: i, lo: g, hi: g + 1})
				}
			}
		}
		if to := s.firstStart(func(start interval.Point) bool { return start > min(w.Hi, s.Win.Hi) }); from < to {
			sc.runs = append(sc.runs, run{seg: i, lo: from, hi: to})
		}
	}
}

// firstStart is the index of the segment's first group whose anchor start
// satisfies from, which holds of every start after one it holds of.
func (s *Segment) firstStart(from func(interval.Point) bool) int {
	return sort.Search(len(s.groups)-1, func(g int) bool { return from(s.groups[g].anchor.Start) })
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
		if r.schema.Arity() < schema.Arity() {
			return nil, "", fmt.Errorf("cache: relation %s has arity %d, query needs %d", schema.Name, r.schema.Arity(), schema.Arity())
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
// can contain, in id order, or nil when there can be no such row, and the
// anchors' order: the index in near[0] of each anchor, in (start, id) order.
// The anchors are relation 0's tuples whose first attribute intersects the
// gap. From there the query's colocation conditions are followed
// breadth-first: a colocation predicate holds only between intervals that
// share a point, so a tuple joined by one to a chosen tuple intersects that
// tuple's condition attribute, and so the hull — [min start, max end] — of
// that attribute over all chosen tuples; the neighbour keeps what
// intersects the hull. A relation tied to the rest only by before/after can
// match from anywhere and stays whole. The join over the narrowed relations
// is therefore the join over the whole ones restricted to rows anchored in
// the gap, straddling anchors included whole.
func narrow(q *query.Query, rels []*residentRel, gap Window) (near []*relation.Relation, order []int32) {
	out := make([]*relation.Relation, len(rels))
	pick := func(i, attr int, iv interval.Interval) []uint64 {
		keep := make([]uint64, (len(rels[i].ids)+63)/64)
		out[i] = rels[i].selection(keep, rels[i].intersecting(attr, iv, keep))
		return keep
	}
	anchors := interval.Interval{Start: gap.Lo, End: gap.Hi}
	keep := pick(0, 0, anchors)
	for queue := []int{0}; len(queue) > 0; queue = queue[1:] {
		from := out[queue[0]]
		if from.Len() == 0 {
			return nil, nil
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
			pick(far.Rel, far.Attr, hull)
			queue = append(queue, far.Rel)
		}
	}
	for i, r := range out {
		if r == nil {
			out[i] = rels[i].wholeRelation()
		}
	}
	return out, rels[0].ranked(0, anchors, keep, out[0].Len())
}

// runDelta answers one gap: the ordinary, un-windowed join over the tuples
// that can reach the gap (narrow), run in line, returned in segment form:
// exactly the rows whose anchor intersects the gap, including whole
// (unclipped) straddling anchors, their groups laid out in the anchors'
// start order narrow read off the resident. A gap no row can be anchored
// in is an empty segment and joins nothing. The join writes
// its rows into the layout scratch's reused id buffer; the segment keeps
// only their text. The row count is folded into ans, and a join is one span
// on tr. Joins of concurrent queries proceed side by side; two that miss on
// the same gap both run, and the cache keeps the segment inserted first.
func (s *Service) runDelta(tr *obs.Tracer, q *query.Query, rels []*residentRel, key Key, gap Window, ans *Answer) (*Segment, error) {
	arity := len(rels)
	sc := layoutScratches.Get().(*layoutScratch)
	defer layoutScratches.Put(sc)
	near, order := narrow(q, rels, gap)
	if near == nil {
		return sc.layout(key, gap, arity, nil, nil, nil), nil
	}
	lane := tr.Acquire()
	defer tr.Release(lane)
	start := lane.Begin()
	ctx, err := core.NewContext(nil, q, near, core.Options{})
	if err != nil {
		return nil, err
	}
	ids, err := s.join(ctx, sc.ids[:0])
	if err != nil {
		return nil, err
	}
	sc.ids = ids
	rows := len(ids) / arity
	if lane != nil {
		lane.End(obs.CatReduce, "reduce:delta-join", start,
			obs.Arg{Key: "gap", Val: "[" + strconv.FormatInt(gap.Lo, 10) + "," + strconv.FormatInt(gap.Hi, 10) + "]"},
			obs.Arg{Key: "rows", Val: strconv.Itoa(rows)})
	}
	ans.DeltaRows += int64(rows)
	// The rows come in canonical order. Their anchor groups come in
	// ascending id, and so do the anchors (narrow), so one forward walk
	// finds each anchor's rows: every row's first id is one of the
	// anchors'.
	spans, r := sc.spans[:0], 0
	for _, a := range near[0].Tuples {
		lo := r
		for r < rows && ids[r*arity] == a.ID {
			r++
		}
		spans = append(spans, span{anchor: a.Attrs[0], lo: lo, hi: r})
	}
	sc.spans = spans
	return sc.layout(key, gap, arity, ids, spans, order), nil
}
