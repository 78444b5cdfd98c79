package cache

import (
	"math"
	"testing"

	"intervaljoin/internal/core"
	"intervaljoin/internal/interval"
)

func mkRows(n int, anchor interval.Interval) []Row {
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{IDs: core.OutputTuple{int64(i), int64(i)}, Anchor: anchor}
	}
	return rows
}

var testKey = Key{Plan: "R1(I),R2(I)|r0.a0 overlaps r1.a0", Family: "colocation", Versions: "R1@v1,R2@v1"}

func TestLookupDecomposition(t *testing.T) {
	c := New(1 << 20)
	// Cold: the whole window is one gap.
	hits, gaps := c.Lookup(testKey, Window{0, 99})
	if len(hits) != 0 || len(gaps) != 1 || gaps[0] != (Window{0, 99}) {
		t.Fatalf("cold lookup: hits=%v gaps=%v", hits, gaps)
	}
	c.Insert(testKey, Window{0, 99}, mkRows(3, interval.New(10, 20)))
	c.Insert(testKey, Window{200, 299}, mkRows(2, interval.New(210, 220)))

	// Full hit inside a segment.
	hits, gaps = c.Lookup(testKey, Window{10, 50})
	if len(hits) != 1 || len(gaps) != 0 {
		t.Fatalf("full hit: hits=%d gaps=%v", len(hits), gaps)
	}
	// Partial: the hole between segments plus overhang on the right.
	hits, gaps = c.Lookup(testKey, Window{50, 350})
	if len(hits) != 2 {
		t.Fatalf("partial hit: hits=%d", len(hits))
	}
	want := []Window{{100, 199}, {300, 350}}
	if len(gaps) != 2 || gaps[0] != want[0] || gaps[1] != want[1] {
		t.Fatalf("partial gaps=%v want %v", gaps, want)
	}
	// Disjoint key spaces do not mix.
	other := Key{Plan: testKey.Plan, Family: testKey.Family, Versions: "R1@v2,R2@v1"}
	if hits, _ := c.Lookup(other, Window{0, 99}); len(hits) != 0 {
		t.Fatalf("version-bumped key hit stale segments: %v", hits)
	}

	st := c.Stats()
	if st.Lookups != 4 || st.FullHits != 1 || st.PartialHits != 1 || st.Misses != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.SpanRequested == 0 || st.SpanCovered == 0 || st.HitRatio() <= 0 || st.HitRatio() >= 1 {
		t.Fatalf("span accounting = %+v ratio=%v", st, st.HitRatio())
	}
}

// TestLookupAtTheTopOfTheTimeLine: a window that runs to math.MaxInt64 —
// "everything after t" — is cached like any other. Asked again it is a full
// hit that runs no delta join, and the span counters stay non-negative: a
// segment reaching the top of the time line ends the lookup's scan instead
// of wrapping it back to math.MinInt64.
func TestLookupAtTheTopOfTheTimeLine(t *testing.T) {
	if got := (Window{math.MinInt64, math.MaxInt64}).Span(); got != math.MaxInt64 {
		t.Fatalf("the whole time line spans %d", got)
	}
	svc := newTestService(t, adversarialRelation("R1", 101), adversarialRelation("R2", 103))
	q := predQuery(t, interval.Overlaps)
	w := Window{100, math.MaxInt64}
	first, err := svc.Query(q, w)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.DeltaWindows) != 1 || first.DeltaWindows[0] != w || len(first.Rows) == 0 {
		t.Fatalf("cold query ran delta joins over %v for %d rows; want one over %v", first.DeltaWindows, len(first.Rows), w)
	}
	again, err := svc.Query(q, w)
	if err != nil {
		t.Fatal(err)
	}
	if len(again.DeltaWindows) != 0 || again.DeltaRows != 0 || again.HitSegments != 1 {
		t.Fatalf("second query: gaps %v, %d delta rows, %d segments; want a full hit of one segment", again.DeltaWindows, again.DeltaRows, again.HitSegments)
	}
	if string(again.RowsJSON) != string(first.RowsJSON) {
		t.Fatalf("second query's rows %s, first's %s", again.RowsJSON, first.RowsJSON)
	}
	st := svc.Stats()
	if st.FullHits != 1 || st.PartialHits != 0 || st.Misses != 1 || st.Insertions != 1 {
		t.Fatalf("stats = %+v; want one miss, one insertion and one full hit", st)
	}
	if st.SpanRequested <= 0 || st.SpanCovered <= 0 || st.SpanCovered > st.SpanRequested {
		t.Fatalf("span counters requested %d, covered %d", st.SpanRequested, st.SpanCovered)
	}
}

func TestInsertOverlapDropped(t *testing.T) {
	c := New(1 << 20)
	if seg := c.Insert(testKey, Window{0, 99}, mkRows(1, interval.New(1, 2))); seg == nil {
		t.Fatal("first insert dropped")
	}
	// A racing insert overlapping an existing segment must be dropped to
	// keep per-key windows disjoint.
	if seg := c.Insert(testKey, Window{50, 150}, mkRows(1, interval.New(60, 70))); seg != nil {
		t.Fatal("overlapping insert accepted")
	}
	if c.Len() != 1 {
		t.Fatalf("segments = %d, want 1", c.Len())
	}
}

func TestByteBudgetLRUEviction(t *testing.T) {
	// The budget charges a segment what it keeps, at its real size: per
	// row the wire text "[i,i],", per one-row group a 32-byte directory
	// entry (plus the sentinel), and the fixed overhead.
	seg, err := newSegment(testKey, Window{0, 9}, mkRows(10, interval.New(0, 5)))
	if err != nil {
		t.Fatal(err)
	}
	segBytes := int64(segmentOverhead + len("[0,0],")*10 + 11*32)
	if seg.bytes != segBytes {
		t.Fatalf("10-row segment charged %d bytes, slabs hold %d", seg.bytes, segBytes)
	}
	c := New(3 * segBytes)
	c.Insert(testKey, Window{0, 9}, mkRows(10, interval.New(0, 5)))
	c.Insert(testKey, Window{10, 19}, mkRows(10, interval.New(12, 15)))
	c.Insert(testKey, Window{20, 29}, mkRows(10, interval.New(22, 25)))
	// Touch the oldest segment so the middle one becomes LRU.
	c.Lookup(testKey, Window{0, 9})
	c.Insert(testKey, Window{30, 39}, mkRows(10, interval.New(32, 35)))
	st := c.Stats()
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	if st.BytesInUse > st.BytesBudget {
		t.Fatalf("bytes in use %d exceeds budget %d", st.BytesInUse, st.BytesBudget)
	}
	// The untouched middle segment [10,19] is the one that went.
	_, gaps := c.Lookup(testKey, Window{0, 39})
	if len(gaps) != 1 || gaps[0] != (Window{10, 19}) {
		t.Fatalf("gaps after eviction = %v, want [{10 19}]", gaps)
	}
}

func TestOversizedSegmentStaysCold(t *testing.T) {
	c := New(int64(segmentOverhead + len("[0,0],")*10)) // holds the wire text of a 10-row segment, not its directory
	c.Insert(testKey, Window{0, 9}, mkRows(10, interval.New(0, 5)))
	if c.Len() != 0 {
		t.Fatalf("oversized segment retained; len=%d", c.Len())
	}
	if st := c.Stats(); st.BytesInUse != 0 || st.Evictions != 1 {
		t.Fatalf("stats after oversized insert = %+v", st)
	}
}
