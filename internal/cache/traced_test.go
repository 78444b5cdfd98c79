package cache

import (
	"slices"
	"strconv"
	"testing"

	"intervaljoin/internal/interval"
	"intervaljoin/internal/obs"
)

// TestQueryTracedMatchesUntraced pins the telemetry non-interference
// contract the service instrumentation rides on: running a query under a
// per-query tracer (the sampled-tracing path ijoind takes) must return the
// exact same answer — same rows in the same order, same cache
// provenance — as the plain path on an identically warmed twin service.
// It also pins what the tracer records: one reduce span per delta join,
// whose rows add up to the answer's DeltaRows, and nothing for a full hit.
// Two more twins answer through AppendQuery, one untraced and one traced,
// which must append the untraced answer's RowsJSON and record the same
// spans.
func TestQueryTracedMatchesUntraced(t *testing.T) {
	r1a, r2a := adversarialRelation("R1", 31), adversarialRelation("R2", 37)
	r1b, r2b := adversarialRelation("R1", 31), adversarialRelation("R2", 37)
	plain := newTestService(t, r1a, r2a)
	traced := newTestService(t, r1b, r2b)
	appended, appendedTraced := newTestService(t, r1a, r2a), newTestService(t, r1b, r2b)
	q := predQuery(t, interval.Overlaps)

	sawDelta, sawFullHit := false, false
	for i, w := range windowMix {
		want, err := plain.Query(q, w)
		if err != nil {
			t.Fatal(err)
		}
		tr := obs.New(obs.Options{})
		got, err := traced.QueryTraced(q, w, tr)
		if err != nil {
			t.Fatal(err)
		}
		at := "query " + strconv.Itoa(i) + " window " + w.string()
		sameAppended(t, at+", appended", appended, q, w, nil, want)
		trApp := obs.New(obs.Options{})
		sameAppended(t, at+", appended traced", appendedTraced, q, w, trApp, want)
		if n, m := len(tr.Snapshot().Spans), len(trApp.Snapshot().Spans); n != m {
			t.Fatalf("%s: QueryTraced recorded %d spans, AppendQuery traced %d", at, n, m)
		}
		if !slices.EqualFunc(got.Rows, want.Rows, slices.Equal) || string(got.RowsJSON) != string(want.RowsJSON) {
			t.Fatalf("query %d window [%d,%d]: traced %d rows %s, untraced %d rows %s",
				i, w.Lo, w.Hi, len(got.Rows), got.RowsJSON, len(want.Rows), want.RowsJSON)
		}
		if got.HitSegments != want.HitSegments || len(got.DeltaWindows) != len(want.DeltaWindows) || got.DeltaRows != want.DeltaRows {
			t.Fatalf("query %d: traced provenance (%d segments, %d deltas, %d delta rows) != untraced (%d, %d, %d)",
				i, got.HitSegments, len(got.DeltaWindows), got.DeltaRows, want.HitSegments, len(want.DeltaWindows), want.DeltaRows)
		}
		spans := tr.Snapshot().Spans
		if len(got.DeltaWindows) == 0 {
			sawFullHit = true
			if len(spans) != 0 {
				t.Fatalf("query %d was a full hit but recorded %d spans", i, len(spans))
			}
			continue
		}
		sawDelta = true
		if len(spans) != len(got.DeltaWindows) {
			t.Fatalf("query %d ran %d delta joins and recorded %d spans", i, len(got.DeltaWindows), len(spans))
		}
		var rows int64
		for _, sp := range spans {
			if sp.Cat != obs.CatReduce || sp.Name != "reduce:delta-join" {
				t.Fatalf("query %d recorded span %s %q, want a reduce:delta-join", i, sp.Cat, sp.Name)
			}
			for _, a := range sp.Args {
				if a.Key == "rows" {
					n, err := strconv.ParseInt(a.Val, 10, 64)
					if err != nil {
						t.Fatal(err)
					}
					rows += n
				}
			}
		}
		if rows != got.DeltaRows {
			t.Fatalf("query %d: the spans hold %d rows, the answer %d delta rows", i, rows, got.DeltaRows)
		}
	}
	// Anti-vacuity: the mix must have exercised both paths.
	if !sawDelta || !sawFullHit {
		t.Fatalf("window mix exercised delta=%v fullHit=%v; want both", sawDelta, sawFullHit)
	}
}
