package main

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"testing"
	"time"

	"intervaljoin/internal/cache"
	"intervaljoin/internal/core"
	"intervaljoin/internal/interval"
	"intervaljoin/internal/query"
	"intervaljoin/internal/relation"
)

// queryResponse is the documented /query response as a struct for
// encoding/json: the oracle the handler's body must match byte for byte.
type queryResponse struct {
	Rows         [][]int64    `json:"rows"`
	Window       windowJSON   `json:"window"`
	HitSegments  int          `json:"hit_segments"`
	DeltaWindows []windowJSON `json:"delta_windows,omitempty"`
	CachedRows   int64        `json:"cached_rows"`
	DeltaRows    int64        `json:"delta_rows"`
	WallNS       int64        `json:"wall_ns"`
}

type windowJSON struct {
	Lo int64 `json:"lo"`
	Hi int64 `json:"hi"`
}

// oracleBody encodes the answer the way the handler did before it had an
// encoder of its own, from Rows alone.
func oracleBody(t *testing.T, ans *cache.Answer) []byte {
	t.Helper()
	resp := queryResponse{
		Rows:        make([][]int64, len(ans.Rows)),
		Window:      windowJSON{Lo: ans.Window.Lo, Hi: ans.Window.Hi},
		HitSegments: ans.HitSegments,
		CachedRows:  ans.CachedRows,
		DeltaRows:   ans.DeltaRows,
		WallNS:      ans.Wall.Nanoseconds(),
	}
	for i, r := range ans.Rows {
		resp.Rows[i] = r
	}
	for _, d := range ans.DeltaWindows {
		resp.DeltaWindows = append(resp.DeltaWindows, windowJSON{Lo: d.Lo, Hi: d.Hi})
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// withRows returns the answer with the given rows and the text
// encoding/json gives them (the cache's own text is checked against
// encoding/json in internal/cache, and end to end below).
func withRows(t *testing.T, ans cache.Answer, rows ...core.OutputTuple) *cache.Answer {
	t.Helper()
	plain := make([][]int64, len(rows))
	for i, r := range rows {
		plain[i] = r
	}
	text, err := json.Marshal(plain)
	if err != nil {
		t.Fatal(err)
	}
	ans.Rows, ans.RowsJSON, ans.Count = rows, text, len(rows)
	return &ans
}

// responseBody builds the body the way the handler does: queryHead, the
// rows' JSON array where the service appends it, then the tail.
func responseBody(ans *cache.Answer) []byte {
	return appendQueryTail(append([]byte(queryHead), ans.RowsJSON...), ans)
}

func TestResponseBytesMatchEncodingJSON(t *testing.T) {
	for name, ans := range map[string]*cache.Answer{
		"full hit": withRows(t, cache.Answer{
			Window: cache.Window{Lo: 0, Hi: 5000}, HitSegments: 2, CachedRows: 1840, Wall: 48 * time.Microsecond,
		}, core.OutputTuple{3, 7}, core.OutputTuple{3, 9}),
		"partial hit": withRows(t, cache.Answer{
			Window: cache.Window{Lo: 0, Hi: 5000}, HitSegments: 1, CachedRows: 1, DeltaRows: 121,
			DeltaWindows: []cache.Window{{Lo: 1200, Hi: 1799}, {Lo: 4000, Hi: 5000}},
			Wall:         1834211,
		}, core.OutputTuple{3, 7}),
		"no rows": withRows(t, cache.Answer{Window: cache.Window{Lo: 7, Hi: 7}}),
		"extreme ids, three wide": withRows(t, cache.Answer{
			Window:       cache.Window{Lo: math.MinInt64, Hi: math.MaxInt64},
			HitSegments:  math.MaxInt32,
			DeltaWindows: []cache.Window{{Lo: -5, Hi: -1}},
			CachedRows:   math.MaxInt64, DeltaRows: math.MaxInt64, Wall: math.MaxInt64,
		}, core.OutputTuple{math.MinInt64, -1, 0}, core.OutputTuple{-1, math.MaxInt64, 10}),
	} {
		got := responseBody(ans)
		if want := oracleBody(t, ans); !bytes.Equal(got, want) {
			t.Errorf("%s:\n got %s\nwant %s", name, got, want)
		}
		// The shape the benchmark's scanner and older clients rely on.
		if !bytes.HasPrefix(got, []byte(`{"rows":[`)) || !bytes.Contains(got, []byte(`],"window":{"lo":`)) ||
			!bytes.HasSuffix(got, []byte("}\n")) || bytes.Count(got, []byte(`,"wall_ns":`)) != 1 {
			t.Errorf("%s: body lost its shape: %s", name, got)
		}
		var decoded struct {
			Rows [][]int64 `json:"rows"`
		}
		if err := json.Unmarshal(got, &decoded); err != nil || len(decoded.Rows) != len(ans.Rows) {
			t.Errorf("%s: body decodes to %d rows (err %v), want %d", name, len(decoded.Rows), err, len(ans.Rows))
		}
	}
}

// TestServedAnswerBytesMatchEncodingJSON runs the real thing: relations
// whose ids cover the int64 range, answers straight from the service — a
// miss, a full hit, a partial hit, an empty one — and for each the body
// the handler builds, its rows appended by AppendQuery into one reused
// buffer, against encoding/json's for the Rows that Query gives on a twin
// service asked the same windows.
func TestServedAnswerBytesMatchEncodingJSON(t *testing.T) {
	ids := []int64{math.MinInt64, -12345, -1, 0, 7, 1 << 40, math.MaxInt64}
	newService := func() *cache.Service {
		svc, err := cache.NewService(cache.ServiceConfig{})
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"R1", "R2"} {
			rel := relation.New(relation.NewSchema(name))
			for i, id := range ids {
				start := interval.Point(i * 40)
				rel.Tuples = append(rel.Tuples, relation.Tuple{ID: id, Attrs: []interval.Interval{interval.New(start, start+100)}})
			}
			if _, err := svc.Register(rel); err != nil {
				t.Fatal(err)
			}
		}
		return svc
	}
	served, twin := newService(), newService()
	q, err := query.Parse("R1 overlaps R2")
	if err != nil {
		t.Fatal(err)
	}
	sawRows, sawEmpty := false, false
	var buf []byte
	for _, w := range []cache.Window{{Lo: 0, Hi: 150}, {Lo: 20, Hi: 120}, {Lo: 100, Hi: 400}, {Lo: 1000, Hi: 2000}} {
		var ans *cache.Answer
		buf, ans, err = served.AppendQuery(append(buf[:0], queryHead...), q, w, nil)
		if err != nil {
			t.Fatal(err)
		}
		buf = appendQueryTail(buf, ans)
		viewed, err := twin.Query(q, w)
		if err != nil {
			t.Fatal(err)
		}
		if ans.Rows != nil || ans.RowsJSON != nil || ans.Count != len(viewed.Rows) {
			t.Fatalf("window [%d,%d]: AppendQuery's answer has %d rows, %d bytes of RowsJSON and a count of %d; want none, none and %d",
				w.Lo, w.Hi, len(ans.Rows), len(ans.RowsJSON), ans.Count, len(viewed.Rows))
		}
		if ans.HitSegments != viewed.HitSegments || !slices.Equal(ans.DeltaWindows, viewed.DeltaWindows) ||
			ans.CachedRows != viewed.CachedRows || ans.DeltaRows != viewed.DeltaRows {
			t.Fatalf("window [%d,%d]: AppendQuery's provenance %+v, Query's %+v", w.Lo, w.Hi, ans, viewed)
		}
		sawRows = sawRows || ans.Count > 0
		sawEmpty = sawEmpty || ans.Count == 0
		oracle := *ans
		oracle.Rows = viewed.Rows
		if want := oracleBody(t, &oracle); !bytes.Equal(buf, want) {
			t.Errorf("window [%d,%d]:\n got %s\nwant %s", w.Lo, w.Hi, buf, want)
		}
	}
	if !sawRows || !sawEmpty {
		t.Fatalf("windows gave rows=%v, no rows=%v; want both", sawRows, sawEmpty)
	}
}

func FuzzResponseBytesMatchEncodingJSON(f *testing.F) {
	f.Add(int64(0), int64(5000), 2, uint8(0), int64(1840), int64(0), int64(48000), int64(3), int64(7))
	f.Add(int64(-9), int64(-1), 0, uint8(3), int64(0), int64(121), int64(1834211), int64(math.MinInt64), int64(-1))
	f.Add(int64(1), int64(2), -1, uint8(193), int64(-5), int64(-6), int64(-1), int64(0), int64(0))
	f.Fuzz(func(t *testing.T, lo, hi int64, hits int, deltas uint8, cached, delta, wall, a, b int64) {
		ans := cache.Answer{
			Window: cache.Window{Lo: lo, Hi: hi}, HitSegments: hits,
			CachedRows: cached, DeltaRows: delta, Wall: time.Duration(wall),
		}
		for i := 0; i < int(deltas%4); i++ {
			ans.DeltaWindows = append(ans.DeltaWindows, cache.Window{Lo: lo + int64(i), Hi: hi - int64(i)})
		}
		var rows []core.OutputTuple
		for i := 0; i < int(deltas/64); i++ {
			rows = append(rows, core.OutputTuple{a, b + int64(i)})
		}
		full := withRows(t, ans, rows...)
		got := responseBody(full)
		if want := oracleBody(t, full); !bytes.Equal(got, want) {
			t.Fatalf("\n got %s\nwant %s", got, want)
		}
	})
}
