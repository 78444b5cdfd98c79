package cache

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"encoding/json"
	"math"
	"slices"
	"strings"
	"testing"

	"intervaljoin/internal/core"
	"intervaljoin/internal/interval"
	"intervaljoin/internal/query"
	"intervaljoin/internal/relation"
)

// mergeRuns is the row-level oracle the group-level merge replaced: it
// merges sorted duplicate-free runs into one run in canonical order,
// comparing whole tuples and dropping cross-run duplicates (the boundary
// halo) one row at a time.
func mergeRuns(runs [][]core.OutputTuple) []core.OutputTuple {
	idx := make([]int, len(runs))
	var out []core.OutputTuple
	for {
		best := -1
		for i, r := range runs {
			if idx[i] >= len(r) {
				continue
			}
			if best < 0 || slices.Compare(r[idx[i]], runs[best][idx[best]]) < 0 {
				best = i
			}
		}
		if best < 0 {
			return out
		}
		t := runs[best][idx[best]]
		idx[best]++
		if n := len(out); n == 0 || slices.Compare(out[n-1], t) != 0 {
			out = append(out, t)
		}
	}
}

// clipRows is the oracle's per-row clip: the ids of the rows whose anchor
// intersects w.
func clipRows(rows []Row, w Window) []core.OutputTuple {
	var out []core.OutputTuple
	for _, r := range rows {
		if r.Anchor.Start > w.Hi || r.Anchor.End < w.Lo {
			continue
		}
		out = append(out, r.IDs)
	}
	return out
}

// anchorsOf maps each id of relation 0 to its anchor interval.
func anchorsOf(rel *relation.Relation) map[int64]interval.Interval {
	anchors := make(map[int64]interval.Interval, rel.Len())
	for _, tup := range rel.Tuples {
		anchors[tup.ID] = tup.Attrs[0]
	}
	return anchors
}

// pieceRows computes one piece's rows with the in-memory reference join —
// every row whose anchor intersects the piece, whole straddlers included —
// in canonical order, with the anchors attached.
func pieceRows(t *testing.T, q *query.Query, rels []*relation.Relation, piece Window) []Row {
	t.Helper()
	res := oracleResult(t, q, rels, piece)
	anchors := anchorsOf(rels[0])
	rows := make([]Row, len(res.Tuples))
	for i, tup := range res.Tuples {
		rows[i] = Row{IDs: tup, Anchor: anchors[tup[0]]}
	}
	slices.SortFunc(rows, compareRowIDs)
	return rows
}

// mergePieces are the segment windows the property test cuts the time
// line into: boundaries on the multiples of 100 the adversarial inputs
// straddle, and a last piece beyond every interval, so one segment is
// always empty.
var mergePieces = []Window{{0, 99}, {100, 199}, {200, 299}, {300, 400}, {401, 600}, {601, 700}}

// mergeWindows are the queried windows: the service mix, a point on a
// boundary, a window that ends one short of a boundary, one inside the
// empty piece and one over everything.
var mergeWindows = append([]Window{{200, 200}, {100, 198}, {620, 680}, {0, 700}}, windowMix...)

// checkGroupMergeEqualsRowMerge builds one segment per piece and requires,
// for every queried window, that the group-level merge of the segments the
// window intersects returns exactly what the row-level oracle does, put in
// (anchor start, ids) order — same rows, same order, and as RowsJSON the
// text encoding/json gives them. Every segment must pass check. It returns
// how many duplicate rows the oracle dropped, all windows together.
func checkGroupMergeEqualsRowMerge(t *testing.T, q *query.Query, rels []*relation.Relation) (dropped int) {
	t.Helper()
	segs := make([]*Segment, len(mergePieces))
	rows := make([][]Row, len(mergePieces))
	for i, piece := range mergePieces {
		rows[i] = pieceRows(t, q, rels, piece)
		seg, err := newSegment(testKey, piece, slices.Clone(rows[i]))
		if err != nil {
			t.Fatal(err)
		}
		if err := seg.check(); err != nil {
			t.Fatal(err)
		}
		segs[i] = seg
	}
	anchors := anchorsOf(rels[0])
	if segs[len(segs)-1].rows() != 0 {
		t.Fatalf("piece %v should be empty, holds %d rows", mergePieces[len(segs)-1], segs[len(segs)-1].rows())
	}
	for _, w := range mergeWindows {
		var hit []*Segment
		var runs [][]core.OutputTuple
		clipped := 0
		for i, piece := range mergePieces {
			if piece.Hi < w.Lo || piece.Lo > w.Hi {
				continue
			}
			hit = append(hit, segs[i])
			run := clipRows(rows[i], w)
			runs = append(runs, run)
			clipped += len(run)
		}
		want := mergeRuns(runs)
		dropped += clipped - len(want)
		slices.SortStableFunc(want, func(a, b core.OutputTuple) int {
			return cmp.Compare(anchors[a[0]].Start, anchors[b[0]].Start)
		})

		ans := &Answer{Window: w, Key: testKey}
		ans.merge(hit)
		if len(ans.Rows) != len(want) {
			t.Fatalf("window %s: group merge returned %d rows, row merge %d", w.string(), len(ans.Rows), len(want))
		}
		for i := range want {
			if slices.Compare(ans.Rows[i], want[i]) != 0 {
				t.Fatalf("window %s row %d: group merge %v, row merge %v", w.string(), i, ans.Rows[i], want[i])
			}
		}
		if wantJSON := rowsJSON(t, want); string(ans.RowsJSON) != wantJSON {
			t.Fatalf("window %s: RowsJSON differs from encoding/json:\n got %.200s\nwant %.200s", w.string(), ans.RowsJSON, wantJSON)
		}
	}
	return dropped
}

// merge sets the answer's Rows and RowsJSON from the segments, as Query
// does from the ones a lookup and its delta joins give it.
func (a *Answer) merge(segs []*Segment) {
	a.RowsJSON = a.appendRows(nil, segs, true)
}

// rowsJSON is encoding/json's text for the rows, the /query "rows" value.
func rowsJSON(t *testing.T, rows []core.OutputTuple) string {
	t.Helper()
	plain := make([][]int64, len(rows))
	for i, r := range rows {
		plain[i] = r
	}
	b, err := json.Marshal(plain)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestGroupMergeEqualsRowMerge pins the hit path's one shortcut: taking
// whole anchor groups by start, each from the one segment its anchor
// starts in, gives the answer that clipping and deduplicating single rows
// gives. All 13 Allen predicates run over the boundary-straddling inputs
// of TestCachedMergePlusDeltaEqualsColdRun, and each must have made the
// oracle drop duplicates — a predicate whose straddlers never matched
// would prove nothing.
func TestGroupMergeEqualsRowMerge(t *testing.T) {
	for p := interval.Predicate(0); p < interval.NumPredicates; p++ {
		t.Run(p.String(), func(t *testing.T) {
			t.Parallel()
			r1 := adversarialRelation("R1", 7)
			r2 := adversarialRelation("R2", 11)
			if checkGroupMergeEqualsRowMerge(t, predQuery(t, p), []*relation.Relation{r1, r2}) == 0 {
				t.Fatal("anti-vacuity: no window met a duplicate group")
			}
		})
	}
}

// TestGroupMergeEqualsRowMergeThreeWay repeats the property on a 3-way
// hybrid query, whose groups are long (every R2, R3 combination of an
// anchor) and whose rows have three ids.
func TestGroupMergeEqualsRowMergeThreeWay(t *testing.T) {
	r1 := adversarialRelation("R1", 19)
	r2 := adversarialRelation("R2", 23)
	r3 := adversarialRelation("R3", 29)
	q := query.New()
	if err := q.AddCondition("R1", "", interval.Overlaps, "R2", ""); err != nil {
		t.Fatal(err)
	}
	if err := q.AddCondition("R2", "", interval.Before, "R3", ""); err != nil {
		t.Fatal(err)
	}
	if checkGroupMergeEqualsRowMerge(t, q, []*relation.Relation{r1, r2, r3}) == 0 {
		t.Fatal("anti-vacuity: no window met a duplicate group")
	}
}

// TestMergeHandBuiltSegments covers the shapes the generated inputs reach
// only by luck: a window that touches nothing but one straddling anchor,
// anchors whose id order is not their start order, merges of nothing and
// of empty segments, and the layout check — a hand-broken copy of a
// segment, one invariant at a time, fails check.
func TestMergeHandBuiltSegments(t *testing.T) {
	left := []Row{
		{IDs: core.OutputTuple{1, 10}, Anchor: interval.New(10, 20)},
		{IDs: core.OutputTuple{2, 10}, Anchor: interval.New(95, 105)},
		{IDs: core.OutputTuple{2, 11}, Anchor: interval.New(95, 105)},
		{IDs: core.OutputTuple{4, 13}, Anchor: interval.New(5, 8)},
	}
	right := []Row{
		{IDs: core.OutputTuple{2, 10}, Anchor: interval.New(95, 105)},
		{IDs: core.OutputTuple{2, 11}, Anchor: interval.New(95, 105)},
		{IDs: core.OutputTuple{3, 12}, Anchor: interval.New(150, 160)},
	}
	mk := func(w Window, rows []Row) *Segment {
		t.Helper()
		seg, err := newSegment(testKey, w, rows)
		if err != nil {
			t.Fatal(err)
		}
		if err := seg.check(); err != nil {
			t.Fatal(err)
		}
		return seg
	}
	segL, segR := mk(Window{0, 99}, left), mk(Window{100, 199}, right)
	empty := mk(Window{200, 299}, nil)

	for _, tc := range []struct {
		name string
		segs []*Segment
		w    Window
		want string
	}{
		{"single straddler", []*Segment{segL, segR}, Window{99, 100}, "[[2,10],[2,11]]"},
		{"both sides", []*Segment{segL, segR}, Window{0, 199}, "[[4,13],[1,10],[2,10],[2,11],[3,12]]"},
		{"order of segments is free", []*Segment{segR, segL}, Window{0, 199}, "[[4,13],[1,10],[2,10],[2,11],[3,12]]"},
		{"everything clipped", []*Segment{segL, segR}, Window{30, 90}, "[]"},
		{"with an empty segment", []*Segment{empty, segR, empty}, Window{100, 299}, "[[2,10],[2,11],[3,12]]"},
		{"only empty segments", []*Segment{empty}, Window{200, 299}, "[]"},
		{"no segments", nil, Window{0, 10}, "[]"},
	} {
		ans := &Answer{Window: tc.w, Key: testKey}
		ans.merge(tc.segs)
		if string(ans.RowsJSON) != tc.want || rowsJSON(t, ans.Rows) != tc.want {
			t.Errorf("%s: RowsJSON %s, Rows %s, want %s", tc.name, ans.RowsJSON, rowsJSON(t, ans.Rows), tc.want)
		}
	}

	// segL's directory is anchor 4 [5,8], anchor 1 [10,20], anchor 2
	// [95,105] and the sentinel; each break leaves the rest as it was.
	for _, tc := range []struct {
		name   string
		want   string
		mangle func(s *Segment)
	}{
		{"groups out of start order", "(start, id) order", func(s *Segment) { s.groups[0].anchor, s.groups[1].anchor = s.groups[1].anchor, s.groups[0].anchor }},
		{"equal starts out of id order", "(start, id) order", func(s *Segment) { s.groups[0].anchor = s.groups[1].anchor }},
		{"anchor off the window", "misses the window", func(s *Segment) { s.Win = Window{50, 99} }},
		{"reach short of an anchor", "past the reach", func(s *Segment) { s.reach = 9 }},
		{"a group's rows miscounted", "holds 2 rows, its directory 1", func(s *Segment) { s.groups[3].row-- }},
		{"a row of another anchor", "holds the row", func(s *Segment) {
			s.wire = slices.Clone(s.wire)
			s.wire[bytes.LastIndex(s.wire, []byte("[2,"))+1] = '7'
		}},
		{"text past the sentinel", "the sentinel closes", func(s *Segment) { s.wire = append(slices.Clone(s.wire), "[2,12],"...) }},
	} {
		broken := *segL
		broken.groups = slices.Clone(segL.groups)
		tc.mangle(&broken)
		if err := broken.check(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: check = %v, want an error naming %q", tc.name, err, tc.want)
		}
	}
	// A cache whose key holds two segments that overlap fails its check.
	c := New(0)
	c.segs[testKey] = []*Segment{segL, mk(Window{99, 199}, right)}
	if err := c.check(); err == nil || !strings.Contains(err.Error(), "overlap") {
		t.Errorf("overlapping segments: check = %v", err)
	}
}

// TestNewSegmentRejectsMalformedRows pins the checks that keep the flat
// layout sound.
func TestNewSegmentRejectsMalformedRows(t *testing.T) {
	for name, rows := range map[string][]Row{
		"mixed arity": {
			{IDs: core.OutputTuple{1, 2}, Anchor: interval.New(0, 1)},
			{IDs: core.OutputTuple{2, 3, 4}, Anchor: interval.New(0, 1)},
		},
		"no ids": {{Anchor: interval.New(0, 1)}},
		"two anchors for one id": {
			{IDs: core.OutputTuple{1, 2}, Anchor: interval.New(0, 1)},
			{IDs: core.OutputTuple{1, 3}, Anchor: interval.New(0, 2)},
		},
	} {
		if _, err := newSegment(testKey, Window{0, 9}, rows); err == nil {
			t.Errorf("%s: newSegment accepted the rows", name)
		}
		if seg := New(0).Insert(testKey, Window{0, 9}, rows); seg != nil {
			t.Errorf("%s: Insert cached the rows", name)
		}
	}
}

// TestInsertSortsUnsortedRows keeps the cold path's guard: rows handed
// over out of order are stored in canonical order.
func TestInsertSortsUnsortedRows(t *testing.T) {
	rows := []Row{
		{IDs: core.OutputTuple{5, 1}, Anchor: interval.New(50, 60)},
		{IDs: core.OutputTuple{-3, 9}, Anchor: interval.New(0, 5)},
		{IDs: core.OutputTuple{5, -1}, Anchor: interval.New(50, 60)},
	}
	seg, err := newSegment(testKey, Window{0, 99}, rows)
	if err != nil {
		t.Fatal(err)
	}
	ans := &Answer{Window: Window{0, 99}, Key: testKey}
	ans.merge([]*Segment{seg})
	if got, want := string(ans.RowsJSON), "[[-3,9],[5,-1],[5,1]]"; got != want {
		t.Fatalf("RowsJSON = %s, want %s", got, want)
	}
}

// rowsFromBytes cuts fuzz input into rows of 1 to 4 ids, eight bytes an
// id, with every row its own anchor group or all rows one group.
func rowsFromBytes(data []byte) []Row {
	if len(data) == 0 {
		return nil
	}
	arity := int(data[0]%4) + 1
	oneGroup := data[0]&4 != 0
	data = data[1:]
	var rows []Row
	for len(data) >= 8*arity {
		ids := make(core.OutputTuple, arity)
		for k := range ids {
			ids[k] = int64(binary.LittleEndian.Uint64(data[8*k:]))
		}
		data = data[8*arity:]
		if oneGroup && len(rows) > 0 {
			ids[0] = rows[0].IDs[0]
		}
		rows = append(rows, Row{IDs: ids, Anchor: interval.New(0, 1)})
	}
	slices.SortFunc(rows, compareRowIDs)
	return slices.CompactFunc(rows, func(a, b Row) bool { return compareRowIDs(a, b) == 0 })
}

// FuzzStoredWireMatchesEncodingJSON checks the text written once at
// insert against encoding/json for arbitrary ids: a segment built from
// the rows and merged back out must carry exactly json.Marshal of them,
// in a slab of exactly the predicted size, and the rows decoded back out
// of that text must be the rows inserted, MinInt64 and MaxInt64 among the
// seeds.
func FuzzStoredWireMatchesEncodingJSON(f *testing.F) {
	le := func(ids ...int64) []byte {
		b := []byte{byte(len(ids) - 1)}
		for _, id := range ids {
			b = binary.LittleEndian.AppendUint64(b, uint64(id))
		}
		return b
	}
	f.Add([]byte{})
	f.Add(le(0))
	f.Add(le(math.MinInt64, math.MaxInt64))
	f.Add(le(-1, 9, -10, 99))
	f.Add(append(le(-100, 1000, -10000), le(7, 8, 9)[1:]...))
	f.Add(append([]byte{1 | 4}, append(le(3, 1)[1:], le(4, 2)[1:]...)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		rows := rowsFromBytes(data)
		seg, err := newSegment(testKey, Window{0, 9}, slices.Clone(rows))
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for _, r := range rows {
			want += rowWireLen(r.IDs)
		}
		if len(seg.wire) != want || cap(seg.wire) != want {
			t.Fatalf("wire slab len %d cap %d, predicted %d", len(seg.wire), cap(seg.wire), want)
		}
		if err := seg.check(); err != nil {
			t.Fatal(err)
		}
		ans := &Answer{Window: Window{0, 9}, Key: testKey}
		ans.merge([]*Segment{seg})
		if cap(ans.RowsJSON) > len(ans.RowsJSON)+1 {
			t.Fatalf("RowsJSON len %d in a buffer of %d", len(ans.RowsJSON), cap(ans.RowsJSON))
		}
		ids := make([]core.OutputTuple, len(rows))
		for i, r := range rows {
			ids[i] = r.IDs
		}
		if got, want := string(ans.RowsJSON), rowsJSON(t, ids); got != want {
			t.Fatalf("RowsJSON = %s, encoding/json gives %s", got, want)
		}
		if !slices.EqualFunc(ans.Rows, ids, slices.Equal) {
			t.Fatalf("Rows decoded from the merged text = %v, inserted %v", ans.Rows, ids)
		}
	})
}

// rowWireLen is the length of one row's wire text, "[3,7],", counted
// digit by digit rather than formatted: the fuzz target's prediction of the
// wire slab's exact size.
func rowWireLen(ids core.OutputTuple) int {
	n := 2 + len(ids) // brackets, separators, trailing comma
	for _, id := range ids {
		u := uint64(id)
		if id < 0 {
			n++
			u = -u
		}
		for n++; u >= 10; u /= 10 {
			n++
		}
	}
	return n
}
