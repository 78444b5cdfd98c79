// Package cache implements the semantic result cache behind the ijoind
// join service: completed join results stored as time-range segments,
// keyed by (canonical plan, predicate family, resident-relation versions),
// with byte-budgeted LRU eviction.
//
// Window semantics. A windowed query over the closed time range [lo, hi]
// returns exactly the join rows whose anchor — the first interval
// attribute of the query's first relation — intersects the window, so the
// answer for a window is the union of the answers for any cover of it.
// Anchors are joined whole, never clipped: a segment holds the rows of
// every anchor that meets its window, those straddling its edges (the
// "halo") included.
//
// Anchor groups. All rows of one anchor tuple share IDs[0] and the anchor
// interval and enter or leave a window together, so a segment keeps a
// directory of its groups, in (anchor start, anchor id) order, over one
// pointer-free slab of the rows' JSON text, encoded once at insert. The
// segments of a key are window-disjoint — a miss inserts only the gap
// windows — so an anchor that meets a window starts in exactly one of the
// segments covering it, or before it, in the first: an answer is one
// stretch of groups per segment, in window order, found by two binary
// searches, after the first segment's groups that start before the window
// and reach into it, and its rows are in (anchor start, anchor id, ids)
// order.
package cache

import (
	"cmp"
	"container/list"
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"
	"unsafe"

	"intervaljoin/internal/core"
	"intervaljoin/internal/interval"
)

// Key identifies the result space a segment belongs to. Two queries share
// a key exactly when their canonical plans coincide over identical
// resident-relation versions; any re-registration of an input bumps the
// version string and orphans prior segments (they age out via LRU).
// The service builds every Key in one function (keyFor), with every field
// set: a key that dropped Versions or Family would serve stale or
// cross-family rows.
type Key struct {
	// Plan is core.CanonicalPlan of the query: normalized conjuncts over
	// the ordered relation list.
	Plan string
	// Family is the query's predicate family ("colocation", "sequence",
	// "hybrid", "general").
	Family string
	// Versions renders the resident inputs as "name@vN" in query relation
	// order.
	Versions string
}

// Window is a closed time range [Lo, Hi].
type Window struct {
	Lo, Hi interval.Point
}

// Span is the window's closed length, math.MaxInt64 when it is longer.
func (w Window) Span() int64 {
	if d := uint64(w.Hi) - uint64(w.Lo); d < math.MaxInt64 {
		return int64(d) + 1
	}
	return math.MaxInt64
}

// addSpan is a+b for non-negative spans, math.MaxInt64 when that is more.
func addSpan(a, b int64) int64 {
	if a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}

// Row is one join result row handed to the cache: the output tuple plus
// its anchor interval (the first attribute of the first relation's
// tuple), kept so a later query can clip the segment to its own window.
type Row struct {
	IDs    core.OutputTuple
	Anchor interval.Interval
}

// Segment is one cached result range: every row whose anchor intersects
// Win, laid out as its wire text and a directory of its anchor groups.
// Segments are immutable after construction, so lookups share them outside
// the cache lock.
type Segment struct {
	Key Key
	Win Window

	// arity is the number of ids per row (the query's relation count).
	arity int
	// wire holds each row's JSON text followed by a comma — "[3,7]," —
	// back to back, group after group: the bytes a response carries.
	wire []byte
	// groups is the anchor-group directory in (anchor start, anchor id)
	// order, closed by a sentinel that carries the row count and
	// len(wire), so group g spans groups[g].row..groups[g+1].row and
	// likewise for wire.
	groups []group
	// reach is the longest anchor's End − Start, unsigned to fit any span.
	reach uint64

	bytes int64
	elem  *list.Element
}

// group locates one anchor's rows inside a segment's wire text.
type group struct {
	anchor interval.Interval // that tuple's interval, what clipping tests
	row    int               // index of the group's first row
	wire   int               // offset of the group's first byte in wire
}

// segmentOverhead approximates a segment's fixed cost in the budget; the
// wire text and the directory are charged at their real sizes.
const segmentOverhead = 128

// newSegment is the []Row way into a segment, Cache.Insert's: it sorts the
// rows if they are not in canonical order, checks that they share one
// non-zero arity and rows with equal IDs[0] one anchor, and flattens them
// into the scratch's id buffer and their groups' start order for layout.
func newSegment(k Key, w Window, rows []Row) (*Segment, error) {
	if !slices.IsSortedFunc(rows, compareRowIDs) {
		slices.SortFunc(rows, compareRowIDs)
	}
	arity := 0
	if len(rows) > 0 {
		arity = len(rows[0].IDs)
	}
	sc := layoutScratches.Get().(*layoutScratch)
	defer layoutScratches.Put(sc)
	ids, spans, order := sc.ids[:0], sc.spans[:0], sc.order[:0]
	for i, r := range rows {
		if len(r.IDs) != arity || arity == 0 {
			return nil, fmt.Errorf("cache: row %d has %d ids, want %d (and at least one)", i, len(r.IDs), arity)
		}
		switch {
		case i == 0 || r.IDs[0] != rows[i-1].IDs[0]:
			order = append(order, int32(len(spans)))
			spans = append(spans, span{anchor: r.Anchor, lo: i})
		case r.Anchor != rows[i-1].Anchor:
			return nil, fmt.Errorf("cache: anchor id %d carries two anchors, %v and %v", r.IDs[0], rows[i-1].Anchor, r.Anchor)
		}
		spans[len(spans)-1].hi = i + 1
		ids = append(ids, r.IDs...)
	}
	// The groups are in id order, which a stable sort keeps for equal starts.
	slices.SortStableFunc(order, func(a, b int32) int { return cmp.Compare(spans[a].anchor.Start, spans[b].anchor.Start) })
	sc.ids, sc.spans, sc.order = ids, spans, order
	return sc.layout(k, w, arity, ids, spans, order), nil
}

// span is one anchor's rows [lo, hi) in an id slab, empty if none joined.
type span struct {
	anchor interval.Interval
	lo, hi int
}

// layout builds the segment for rows that are one slab: ids holds them back
// to back, arity ids each, in canonical order, spans[g] is the rows of
// their g-th anchor, and order lists the spans in (anchor start, anchor id)
// order, the groups'. The segment keeps nothing of ids.
//
// One pass writes the wire text and the directory into the scratch, and
// each goes into a slab of exactly its length, so the budget charges no
// slack. An anchor's id is formatted once, with the row's opening bracket,
// and the group's later rows copy that prefix.
func (sc *layoutScratch) layout(k Key, w Window, arity int, ids []int64, spans []span, order []int32) *Segment {
	seg := &Segment{Key: k, Win: w, arity: arity}
	wire, groups := sc.wire[:0], sc.groups[:0]
	row := 0
	for _, g := range order {
		sp := spans[g]
		if sp.lo == sp.hi {
			continue
		}
		id := ids[sp.lo*arity]
		groups = append(groups, group{anchor: sp.anchor, row: row, wire: len(wire)})
		seg.reach = max(seg.reach, uint64(sp.anchor.End)-uint64(sp.anchor.Start))
		lo := len(wire) // the group's "[id0" is wire[lo:hi]
		wire = strconv.AppendInt(append(wire, '['), id, 10)
		hi := len(wire)
		for r := sp.lo; r < sp.hi; r++ {
			if r > sp.lo {
				wire = append(wire, wire[lo:hi]...)
			}
			for _, id := range ids[r*arity+1 : (r+1)*arity] {
				wire = strconv.AppendInt(append(wire, ','), id, 10)
			}
			wire = append(wire, ']', ',')
		}
		row += sp.hi - sp.lo
	}
	groups = append(groups, group{row: row, wire: len(wire)})
	seg.wire = append(make([]byte, 0, len(wire)), wire...)
	seg.groups = append(make([]group, 0, len(groups)), groups...)
	sc.wire, sc.groups = wire, groups
	seg.bytes = segmentOverhead + int64(cap(seg.wire)) + int64(unsafe.Sizeof(group{}))*int64(cap(seg.groups))
	return seg
}

// layoutScratch is a segment's working memory, recycled between segments:
// the id buffer its rows are ordered into (by the delta join, or by
// newSegment from Rows), their spans and start order, and the wire text
// and directory layout writes before it copies them out. It holds no
// pointers into segments.
type layoutScratch struct {
	ids    []int64
	spans  []span
	order  []int32
	wire   []byte
	groups []group
}

var layoutScratches = sync.Pool{New: func() any { return new(layoutScratch) }}

// rows is the segment's row count.
func (s *Segment) rows() int { return s.groups[len(s.groups)-1].row }

// Stats is the cache's cumulative accounting, and its only record: the
// metrics report's cache section and the live ij_cache_* series render it.
// The span pair defines the semantic hit ratio.
type Stats struct {
	// Lookups counts queries; FullHits/PartialHits/Misses classify them by
	// whether the cache covered all, some, or none of the window span.
	Lookups, FullHits, PartialHits, Misses int64
	// HitSegments counts segments handed to queries for merging.
	HitSegments int64
	// CachedRows counts rows served from segments (before clipping);
	// DeltaRows counts rows inserted from delta-window joins.
	CachedRows, DeltaRows int64
	// SpanRequested/SpanCovered accumulate closed window lengths.
	SpanRequested, SpanCovered int64
	// Insertions/Evictions/BytesInUse track the byte-budgeted LRU.
	Insertions, Evictions int64
	BytesInUse            int64
	BytesBudget           int64
}

// HitRatio is the fraction of requested window span served from cache.
func (s Stats) HitRatio() float64 {
	if s.SpanRequested == 0 {
		return 0
	}
	return float64(s.SpanCovered) / float64(s.SpanRequested)
}

// Cache is the byte-budgeted LRU segment store. Safe for concurrent use.
type Cache struct {
	mu     sync.Mutex
	budget int64
	bytes  int64
	lru    *list.List         // of *Segment; front = most recently used
	segs   map[Key][]*Segment // per key, sorted by Win.Lo, windows disjoint
	stats  Stats
}

// DefaultBudget is the byte budget used when New is given a non-positive
// one.
const DefaultBudget int64 = 64 << 20

// New makes an empty cache with the given byte budget.
func New(budgetBytes int64) *Cache {
	if budgetBytes <= 0 {
		budgetBytes = DefaultBudget
	}
	return &Cache{budget: budgetBytes, lru: list.New(), segs: make(map[Key][]*Segment)}
}

// Lookup returns the cached segments intersecting the window (oldest window
// first) and the uncovered gap windows, and updates the hit accounting.
// Returned segments are immutable shared views; the caller cuts from each
// the anchor groups its own window takes.
func (c *Cache) Lookup(k Key, w Window) (hits []*Segment, gaps []Window) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Lookups++
	c.stats.SpanRequested = addSpan(c.stats.SpanRequested, w.Span())
	// [cur, w.Hi] is not covered yet while open. A segment that reaches
	// w.Hi closes the scan: the one after it would start at its Hi+1, which
	// wraps at the top of the time line.
	cur, open := w.Lo, true
	for _, s := range c.segs[k] {
		if s.Win.Hi < w.Lo || s.Win.Lo > w.Hi {
			continue
		}
		if s.Win.Lo > cur {
			gaps = append(gaps, Window{Lo: cur, Hi: s.Win.Lo - 1})
		}
		hits = append(hits, s)
		c.lru.MoveToFront(s.elem)
		c.stats.CachedRows += int64(s.rows())
		c.stats.SpanCovered = addSpan(c.stats.SpanCovered, Window{Lo: max(s.Win.Lo, w.Lo), Hi: min(s.Win.Hi, w.Hi)}.Span())
		if s.Win.Hi >= w.Hi {
			open = false
			break
		}
		cur = max(cur, s.Win.Hi+1)
	}
	if open {
		gaps = append(gaps, Window{Lo: cur, Hi: w.Hi})
	}
	c.stats.HitSegments += int64(len(hits))
	switch {
	case len(gaps) == 0:
		c.stats.FullHits++
	case len(hits) > 0:
		c.stats.PartialHits++
	default:
		c.stats.Misses++
	}
	return hits, gaps
}

// Insert caches rows as the segment for window w under the key. The window
// must be one of the gaps a Lookup returned; if it meanwhile overlaps an
// existing segment (two queries raced on the same gap), the insert is
// dropped — the disjointness invariant wins over the duplicate work. Rows
// that cannot form a segment (see newSegment) are not cached either.
func (c *Cache) Insert(k Key, w Window, rows []Row) *Segment {
	seg, err := newSegment(k, w, rows)
	if err != nil {
		return nil
	}
	return c.add(seg)
}

// add links a built segment into its key's list and the LRU, or drops it
// (returning nil) when its window overlaps a resident segment.
func (c *Cache) add(seg *Segment) *Segment {
	c.mu.Lock()
	defer c.mu.Unlock()
	segs := c.segs[seg.Key]
	at := len(segs)
	for i, s := range segs {
		if s.Win.Hi >= seg.Win.Lo && s.Win.Lo <= seg.Win.Hi {
			return nil
		}
		if s.Win.Lo > seg.Win.Hi {
			at = i
			break
		}
	}
	c.segs[seg.Key] = append(segs[:at:at], append([]*Segment{seg}, segs[at:]...)...)
	seg.elem = c.lru.PushFront(seg)
	c.bytes += seg.bytes
	c.stats.Insertions++
	c.stats.DeltaRows += int64(seg.rows())
	c.evictLocked()
	return seg
}

// evictLocked drops least-recently-used segments until the budget holds.
// A single segment larger than the whole budget is evicted immediately
// after insertion — correct (the cache just stays cold) and simple.
func (c *Cache) evictLocked() {
	for c.bytes > c.budget && c.lru.Len() > 0 {
		s := c.lru.Back().Value.(*Segment)
		c.removeLocked(s)
		c.stats.Evictions++
	}
}

// removeLocked unlinks the segment from the LRU and the per-key list.
// Callers hold c.mu (the Locked suffix is the contract).
func (c *Cache) removeLocked(s *Segment) {
	c.lru.Remove(s.elem)
	segs := c.segs[s.Key]
	for i, t := range segs {
		if t == s {
			//lint:ignore shardlock called with c.mu held by evictLocked's callers
			c.segs[s.Key] = append(segs[:i:i], segs[i+1:]...)
			break
		}
	}
	if len(c.segs[s.Key]) == 0 {
		//lint:ignore shardlock called with c.mu held by evictLocked's callers
		delete(c.segs, s.Key)
	}
	//lint:ignore shardlock called with c.mu held by evictLocked's callers
	c.bytes -= s.bytes
}

// compareRowIDs orders rows canonically: lexicographically by id.
func compareRowIDs(a, b Row) int { return slices.Compare(a.IDs, b.IDs) }

// Stats returns a snapshot of the cumulative accounting.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.BytesInUse = c.bytes
	s.BytesBudget = c.budget
	return s
}

// Len reports the number of resident segments.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}
