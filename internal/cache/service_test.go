package cache

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"intervaljoin/internal/core"
	"intervaljoin/internal/dfs"
	"intervaljoin/internal/interval"
	"intervaljoin/internal/mr"
	"intervaljoin/internal/obs"
	"intervaljoin/internal/query"
	"intervaljoin/internal/relation"
	"intervaljoin/internal/workload"
)

// adversarialRelation builds tuples that stress the delta-boundary
// handling: interval endpoints pinned exactly on the window boundaries the
// test queries use (multiples of 100 over [0,400]), degenerate points on
// boundaries, long stradlers spanning several windows, plus seeded random
// fill.
func adversarialRelation(name string, seed int64) *relation.Relation {
	rng := rand.New(rand.NewSource(seed))
	var ivs []interval.Interval
	for b := interval.Point(0); b <= 400; b += 100 {
		ivs = append(ivs,
			interval.New(b, b),             // point on the boundary
			interval.New(b, b+100),         // starts on a boundary, ends on the next
			interval.New(max(0, b-1), b+1), // straddles by one
		)
	}
	ivs = append(ivs,
		interval.New(0, 400),  // spans everything
		interval.New(99, 301), // straddles three boundaries
		interval.New(100, 299),
		interval.New(101, 298),
	)
	for i := 0; i < 40; i++ {
		s := interval.Point(rng.Intn(400))
		e := s + interval.Point(rng.Intn(150))
		ivs = append(ivs, interval.New(s, e))
	}
	return relation.FromIntervals(name, ivs)
}

// newConfiguredService builds a service of cfg over rels.
func newConfiguredService(t *testing.T, cfg ServiceConfig, rels ...*relation.Relation) *Service {
	t.Helper()
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rels {
		if _, err := svc.Register(r); err != nil {
			t.Fatal(err)
		}
	}
	return svc
}

func newTestService(t *testing.T, rels ...*relation.Relation) *Service {
	t.Helper()
	return newConfiguredService(t, ServiceConfig{}, rels...)
}

func predQuery(t *testing.T, pred interval.Predicate) *query.Query {
	t.Helper()
	q := query.New()
	if err := q.AddCondition("R1", "", pred, "R2", ""); err != nil {
		t.Fatal(err)
	}
	return q
}

// oracle is a windowed answer as the tests define it (oracleResult): its
// rows in the order the service answers in, and the anchor start of every
// id of relation 0.
type oracle struct {
	Tuples []core.OutputTuple
	start  map[int64]interval.Point
}

// compare orders two rows as an answer does: by anchor start, then id by
// id — the anchor id first.
func (o *oracle) compare(a, b core.OutputTuple) int {
	return cmp.Or(cmp.Compare(o.start[a[0]], o.start[b[0]]), slices.Compare(a, b))
}

// oracleResult is the tests' definition of a windowed answer, written out
// by hand and sharing nothing with the service's selection: relation 0 is cut
// down to the tuples whose first attribute meets the closed window, every
// other relation stays whole, the in-memory reference join runs over that,
// and its rows are put in the answer's order.
func oracleResult(t *testing.T, q *query.Query, rels []*relation.Relation, w Window) *oracle {
	t.Helper()
	anchors := relation.New(rels[0].Schema)
	for _, tup := range rels[0].Tuples {
		if a := tup.Attrs[0]; a.Start <= w.Hi && a.End >= w.Lo {
			anchors.Tuples = append(anchors.Tuples, tup)
		}
	}
	ctx, err := core.NewContext(nil, q, append([]*relation.Relation{anchors}, rels[1:]...), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Reference{}.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	o := &oracle{Tuples: res.Tuples, start: make(map[int64]interval.Point, anchors.Len())}
	for _, tup := range anchors.Tuples {
		o.start[tup.ID] = tup.Attrs[0].Start
	}
	slices.SortFunc(o.Tuples, o.compare)
	return o
}

// rowsDiffer says how an answer's rows differ from the oracle's, nil when
// they do not: they must strictly increase in (anchor start, ids) order — a
// repeated row is a fault, not a duplicate to look past — and equal the
// oracle's rows, row for row. The first differing row is named.
func rowsDiffer(got []core.OutputTuple, want *oracle) error {
	for i := 1; i < len(got); i++ {
		if want.compare(got[i-1], got[i]) >= 0 {
			return fmt.Errorf("row %d %v does not follow row %d %v (%d rows)", i, got[i], i-1, got[i-1], len(got))
		}
	}
	n := len(want.Tuples)
	for i := 0; i < min(len(got), n); i++ {
		if row := want.Tuples[i]; !slices.Equal(got[i], row) {
			return fmt.Errorf("row %d is %v, the oracle's %v (%d rows, the oracle %d)", i, got[i], row, len(got), n)
		}
	}
	if len(got) != n {
		return fmt.Errorf("%d rows, the oracle %d, which agree on the first %d", len(got), n, min(len(got), n))
	}
	return nil
}

// sameRows fails the test when the answer's rows are not the oracle's.
func sameRows(t *testing.T, label string, got *Answer, want *oracle) {
	t.Helper()
	if err := rowsDiffer(got.Rows, want); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
}

// sameAppended asks app for the window through AppendQuery, traced on tr
// when tr is not nil, into a buffer that holds a head and has no room
// left, and fails the test unless the head is kept and the text after it
// is want's RowsJSON byte for byte, the answer's count is len(want.Rows),
// its provenance is want's, and it fills neither Rows nor RowsJSON.
func sameAppended(t *testing.T, label string, app *Service, q *query.Query, w Window, tr *obs.Tracer, want *Answer) *Answer {
	t.Helper()
	const head = `{"rows":`
	buf, got, err := app.AppendQuery([]byte(head), q, w, tr)
	if err != nil {
		t.Fatalf("%s: AppendQuery: %v", label, err)
	}
	if string(buf) != head+string(want.RowsJSON) {
		t.Fatalf("%s: AppendQuery appended %s, Query's RowsJSON is %s", label, buf, want.RowsJSON)
	}
	if got.Count != len(want.Rows) || want.Count != len(want.Rows) || got.Rows != nil || got.RowsJSON != nil {
		t.Fatalf("%s: AppendQuery counts %d rows and fills %d rows and %d bytes; Query counts %d and has %d rows",
			label, got.Count, len(got.Rows), len(got.RowsJSON), want.Count, len(want.Rows))
	}
	if got.Window != want.Window || got.Key != want.Key || got.HitSegments != want.HitSegments ||
		!slices.Equal(got.DeltaWindows, want.DeltaWindows) || got.CachedRows != want.CachedRows || got.DeltaRows != want.DeltaRows {
		t.Fatalf("%s: AppendQuery's provenance %+v, Query's %+v", label, got, want)
	}
	return got
}

// TestRowsDifferCatchesPlantedRows: the comparison the cache suites make
// fails an answer with one row planted twice and one with a row missing, at
// the head, in the middle and at the tail, and one whose first two anchors'
// rows trade places — id order where the answer is in start order — and
// passes the oracle's own rows.
func TestRowsDifferCatchesPlantedRows(t *testing.T) {
	q := predQuery(t, interval.Overlaps)
	rels := []*relation.Relation{adversarialRelation("R1", 7), adversarialRelation("R2", 11)}
	want := oracleResult(t, q, rels, Window{0, 400})
	if len(want.Tuples) < 3 {
		t.Fatalf("the oracle has %d rows; the plants need three", len(want.Tuples))
	}
	if err := rowsDiffer(want.Tuples, want); err != nil {
		t.Fatalf("the oracle's own rows: %v", err)
	}
	for _, at := range []int{0, len(want.Tuples) / 2, len(want.Tuples) - 1} {
		dup := slices.Insert(slices.Clone(want.Tuples), at, want.Tuples[at])
		if rowsDiffer(dup, want) == nil {
			t.Errorf("row %d planted twice passed", at)
		}
		if rowsDiffer(slices.Delete(slices.Clone(want.Tuples), at, at+1), want) == nil {
			t.Errorf("row %d left out passed", at)
		}
	}
	// The first row whose anchor starts later than the head's, moved to the
	// front.
	at := slices.IndexFunc(want.Tuples, func(r core.OutputTuple) bool { return want.start[r[0]] > want.start[want.Tuples[0][0]] })
	if at < 0 {
		t.Fatal("every row of the oracle has one anchor start")
	}
	if rowsDiffer(append([]core.OutputTuple{want.Tuples[at]}, slices.Delete(slices.Clone(want.Tuples), at, at+1)...), want) == nil {
		t.Errorf("row %d moved to the head passed", at)
	}
}

// windowMix is a query sequence engineered to produce cold misses, partial
// hits with boundary-straddling gaps, and exact full hits.
var windowMix = []Window{
	{0, 199},   // cold
	{100, 299}, // partial: [200,299] is the gap, stradlers cross 200
	{50, 249},  // full hit (covered by [0,199]+[200,299])
	{0, 399},   // partial: gap [300,399]
	{150, 250}, // full hit
	{100, 299}, // exact repeat: full hit
	{380, 400}, // partial overhang: gap [400,400]
	{0, 400},   // full hit of everything
}

// TestCachedMergePlusDeltaEqualsColdRun is the equivalence property test:
// for every one of the 13 Allen predicates, a service answering the window
// mix from its evolving cache must produce, for each query, exactly the
// cold windowed result — sorted-set identical — despite boundary-straddling
// anchors appearing in multiple segments. RunCold's text, and the text a
// twin service appends through AppendQuery from a cache of its own, must
// be the answer's RowsJSON byte for byte. The anti-vacuity guard asserts
// the mix actually exercised partial hits, full hits and cached segments,
// so the equivalence is not vacuously about empty caches. Both caches pass
// their check after every query.
func TestCachedMergePlusDeltaEqualsColdRun(t *testing.T) {
	for p := interval.Predicate(0); p < interval.NumPredicates; p++ {
		t.Run(p.String(), func(t *testing.T) {
			t.Parallel()
			r1 := adversarialRelation("R1", 7)
			r2 := adversarialRelation("R2", 11)
			q := predQuery(t, p)
			rels := []*relation.Relation{r1, r2}
			svc, app := newTestService(t, r1, r2), newTestService(t, r1, r2)
			label := p.String()
			sawPartial := false
			for i, w := range windowMix {
				ans, err := svc.Query(q, w)
				if err != nil {
					t.Fatal(err)
				}
				if ans.HitSegments > 0 && len(ans.DeltaWindows) > 0 {
					sawPartial = true
				}
				at := label + " window " + w.string() + " (query " + itoa(i) + ")"
				sameRows(t, at, ans, oracleResult(t, q, rels, w))
				sameAppended(t, at, app, q, w, nil, ans)
				for _, s := range []*Service{svc, app} {
					if err := s.cache.check(); err != nil {
						t.Fatalf("%s: %v", at, err)
					}
				}
				cold, err := svc.RunCold(q, w)
				if err != nil {
					t.Fatal(err)
				}
				if string(cold.RowsJSON) != string(ans.RowsJSON) || cold.Count != ans.Count {
					t.Fatalf("%s: RunCold %d rows %s, Query %d rows %s", at, cold.Count, cold.RowsJSON, ans.Count, ans.RowsJSON)
				}
			}
			st := svc.Stats()
			if st.FullHits == 0 || st.PartialHits == 0 || st.HitSegments == 0 {
				t.Fatalf("%s: anti-vacuity: mix never exercised the cache: %+v", label, st)
			}
			if !sawPartial {
				t.Fatalf("%s: anti-vacuity: no query merged cached segments with delta joins", label)
			}
			if st.DeltaRows == 0 && st.CachedRows == 0 {
				t.Fatalf("%s: anti-vacuity: no rows flowed at all: %+v", label, st)
			}
		})
	}
}

func (w Window) string() string { return "[" + itoa(int(w.Lo)) + "," + itoa(int(w.Hi)) + "]" }

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	neg := i < 0
	if neg {
		i = -i
	}
	var b [20]byte
	n := len(b)
	for i > 0 {
		n--
		b[n] = byte('0' + i%10)
		i /= 10
	}
	if neg {
		n--
		b[n] = '-'
	}
	return string(b[n:])
}

// TestWarmAnswerMatchesColdEngineRun pins the other leg of the equivalence:
// the service's warm answer equals a from-scratch delta join of the same
// windowed query on a fresh service (cold cache), exercising the service's
// own selection rather than the in-memory oracle — and both are the
// oracle's.
func TestWarmAnswerMatchesColdEngineRun(t *testing.T) {
	r1 := adversarialRelation("R1", 3)
	r2 := adversarialRelation("R2", 5)
	q := predQuery(t, interval.Overlaps)

	warm := newTestService(t, r1, r2)
	for _, w := range windowMix {
		if _, err := warm.Query(q, w); err != nil {
			t.Fatal(err)
		}
	}
	for _, w := range []Window{{60, 260}, {0, 400}, {199, 201}} {
		warmAns, err := warm.Query(q, w)
		if err != nil {
			t.Fatal(err)
		}
		cold := newTestService(t, r1, r2)
		coldAns, err := cold.Query(q, w)
		if err != nil {
			t.Fatal(err)
		}
		if coldAns.HitSegments != 0 {
			t.Fatalf("cold service reported cache hits: %+v", coldAns)
		}
		if !slices.EqualFunc(warmAns.Rows, coldAns.Rows, slices.Equal) || string(warmAns.RowsJSON) != string(coldAns.RowsJSON) {
			t.Fatalf("warm vs cold %s: %d rows %s, the cold service's %d rows %s", w.string(), len(warmAns.Rows), warmAns.RowsJSON, len(coldAns.Rows), coldAns.RowsJSON)
		}
		sameRows(t, "warm "+w.string(), warmAns, oracleResult(t, q, []*relation.Relation{r1, r2}, w))
	}
}

// TestVersionBumpInvalidates ensures a re-registered relation changes the
// cache key: stale segments stop matching and answers reflect new data.
func TestVersionBumpInvalidates(t *testing.T) {
	r1 := adversarialRelation("R1", 13)
	r2 := adversarialRelation("R2", 17)
	svc := newTestService(t, r1, r2)
	q := predQuery(t, interval.Before)
	w := Window{0, 400}
	first, err := svc.Query(q, w)
	if err != nil {
		t.Fatal(err)
	}
	// Replace R2 with a single tuple; every cached row is now stale.
	r2b := relation.FromIntervals("R2", []interval.Interval{interval.New(350, 360)})
	if _, err := svc.Register(r2b); err != nil {
		t.Fatal(err)
	}
	second, err := svc.Query(q, w)
	if err != nil {
		t.Fatal(err)
	}
	if second.HitSegments != 0 {
		t.Fatalf("query after re-registration hit stale segments: %+v", second)
	}
	if first.Key == second.Key {
		t.Fatalf("cache key did not change across versions: %+v", first.Key)
	}
	sameRows(t, "post-bump", second, oracleResult(t, q, []*relation.Relation{r1, r2b}, w))
}

// TestThreeWayHybridWindow covers a multi-relation hybrid query through the
// cached path.
func TestThreeWayHybridWindow(t *testing.T) {
	r1 := adversarialRelation("R1", 19)
	r2 := adversarialRelation("R2", 23)
	r3 := adversarialRelation("R3", 29)
	svc := newTestService(t, r1, r2, r3)
	q := query.New()
	if err := q.AddCondition("R1", "", interval.Overlaps, "R2", ""); err != nil {
		t.Fatal(err)
	}
	if err := q.AddCondition("R2", "", interval.Before, "R3", ""); err != nil {
		t.Fatal(err)
	}
	rels := []*relation.Relation{r1, r2, r3}
	for _, w := range []Window{{0, 199}, {100, 299}, {0, 299}, {0, 299}} {
		ans, err := svc.Query(q, w)
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, "hybrid "+w.string(), ans, oracleResult(t, q, rels, w))
	}
	if st := svc.Stats(); st.FullHits == 0 || st.HitSegments == 0 {
		t.Fatalf("hybrid mix never hit the cache: %+v", st)
	}
}

// TestUnregisteredRelationRejected pins the service's binding error.
func TestUnregisteredRelationRejected(t *testing.T) {
	svc := newTestService(t, adversarialRelation("R1", 31))
	if _, err := svc.Query(predQuery(t, interval.Meets), Window{0, 10}); err == nil {
		t.Fatal("query over unregistered relation succeeded")
	}
	if _, err := svc.Query(predQuery(t, interval.Meets), Window{10, 0}); err == nil {
		t.Fatal("empty window accepted")
	}
	// A query that names more attributes of a relation than it has is
	// refused before the selection would index them.
	if _, err := svc.Register(adversarialRelation("R2", 37)); err != nil {
		t.Fatal(err)
	}
	wide := predQuery(t, interval.Meets)
	if err := wide.AddCondition("R1", "Other", interval.Overlaps, "R2", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Query(wide, Window{0, 10}); err == nil || !strings.Contains(err.Error(), "arity") {
		t.Fatalf("query over a missing attribute: err = %v", err)
	}
}

// TestDeltaScratchIsRemoved pins the store's steady state for a caller that
// still hands the service an engine (the deprecated, ignored
// ServiceConfig.Engine): registration writes nothing, and no delta join — a
// miss, a gap of a partial hit, a RunCold; two-way, a three-way chain or a
// hybrid — puts anything on that engine's store, so it is empty after every
// query.
func TestDeltaScratchIsRemoved(t *testing.T) {
	threeWay := predQuery(t, interval.Overlaps)
	if err := threeWay.AddCondition("R2", "", interval.Overlaps, "R3", ""); err != nil {
		t.Fatal(err)
	}
	hybrid := predQuery(t, interval.Overlaps)
	if err := hybrid.AddCondition("R2", "", interval.Before, "R3", ""); err != nil {
		t.Fatal(err)
	}
	t.Run("planner", func(t *testing.T) {
		store := dfs.NewMem()
		cfg := ServiceConfig{Engine: mr.NewEngine(mr.Config{Store: store}), Opts: core.Options{Partitions: 4, PartitionsPerDim: 3}}
		svc := newConfiguredService(t, cfg, adversarialRelation("R1", 41), adversarialRelation("R2", 43), adversarialRelation("R3", 45))
		empty := func(after string) {
			t.Helper()
			files, err := store.List("")
			if err != nil || len(files) != 0 {
				t.Fatalf("store holds %v (%v) after %s, want nothing", files, err, after)
			}
		}
		empty("registration")
		for _, q := range []*query.Query{predQuery(t, interval.Overlaps), threeWay, hybrid} {
			for lo := interval.Point(0); lo < 400; lo += 25 {
				ans, err := svc.Query(q, Window{lo, lo + 30})
				if err != nil {
					t.Fatal(err)
				}
				if len(ans.DeltaWindows) == 0 {
					t.Fatalf("window [%d,%d] ran no delta join; the test wants one per query", lo, lo+30)
				}
				empty(fmt.Sprintf("window [%d,%d]", lo, lo+30))
			}
			if _, err := svc.RunCold(q, Window{0, 400}); err != nil {
				t.Fatal(err)
			}
			empty("RunCold")
		}
	})
}

// TestRegisterKeepsNoTuplePointers: a registered relation is the service's
// own columns, and the caller's relation can be collected once the caller
// drops it. The intervals LoadFile reads are one slab; a finalizer on it
// must run after Register, and both a colocation query and one that joins
// a before-neighbour whole must still answer as RunCold and the oracle do.
func TestRegisterKeepsNoTuplePointers(t *testing.T) {
	dir := t.TempDir()
	names := []string{"R1", "R2", "R3"}
	path := func(name string) string { return filepath.Join(dir, name+".txt") }
	for i, name := range names {
		if err := relation.SaveFile(adversarialRelation(name, int64(107+2*i)), path(name)); err != nil {
			t.Fatal(err)
		}
	}
	svc := newTestService(t)
	freed := make(chan string, len(names))
	register := func(name string) {
		rel, err := relation.LoadFile(relation.NewSchema(name), path(name))
		if err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(&rel.Tuples[0].Attrs[0], func(*interval.Interval) { freed <- name })
		if _, err := svc.Register(rel); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range names {
		register(name)
	}
	deadline := time.Now().Add(10 * time.Second)
	for n := 0; n < len(names); {
		runtime.GC()
		select {
		case <-freed:
			n++
		case <-time.After(10 * time.Millisecond):
			if time.Now().After(deadline) {
				t.Fatalf("%d of %d registered relations were collected; the service keeps pointers into the rest", n, len(names))
			}
		}
	}
	var rels []*relation.Relation
	for _, name := range names {
		rel, err := relation.LoadFile(relation.NewSchema(name), path(name))
		if err != nil {
			t.Fatal(err)
		}
		rels = append(rels, rel)
	}
	coloc := predQuery(t, interval.Overlaps)
	before := predQuery(t, interval.Overlaps)
	if err := before.AddCondition("R1", "", interval.Before, "R3", ""); err != nil {
		t.Fatal(err)
	}
	w := Window{150, 260}
	for _, tc := range []struct {
		q    *query.Query
		rels []*relation.Relation
	}{{coloc, rels[:2]}, {before, rels}} {
		ans, err := svc.Query(tc.q, w)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := svc.RunCold(tc.q, w)
		if err != nil {
			t.Fatal(err)
		}
		if len(ans.Rows) == 0 || string(ans.RowsJSON) != string(cold.RowsJSON) {
			t.Fatalf("%s: rows %s, RunCold's %s", tc.q, ans.RowsJSON, cold.RowsJSON)
		}
		sameRows(t, tc.q.String(), ans, oracleResult(t, tc.q, tc.rels, w))
	}
}

// TestFullHitAllocationsIndependentOfRows is the hit path's allocation
// guard: a query answered from the cache allocates its wire text, the id
// slab and row headers it decodes and a fixed number of small things around
// them — the same count for a handful of rows as for all of them.
func TestFullHitAllocationsIndependentOfRows(t *testing.T) {
	svc := newTestService(t, adversarialRelation("R1", 59), adversarialRelation("R2", 61))
	q := predQuery(t, interval.Overlaps)
	if _, err := svc.Query(q, Window{0, 600}); err != nil {
		t.Fatal(err)
	}
	measure := func(w Window) (allocs float64, rows int) {
		allocs = testing.AllocsPerRun(200, func() {
			ans, err := svc.Query(q, w)
			if err != nil || len(ans.DeltaWindows) != 0 {
				t.Fatalf("window %s: err %v, %d delta windows; want a full hit", w.string(), err, len(ans.DeltaWindows))
			}
			rows = len(ans.Rows)
		})
		return allocs, rows
	}
	few, fewRows := measure(Window{37, 38})
	all, allRows := measure(Window{0, 600})
	if fewRows == 0 || allRows < 10*fewRows {
		t.Fatalf("windows return %d and %d rows; the guard needs them far apart", fewRows, allRows)
	}
	t.Logf("full hit: %.0f allocations for %d rows, %.0f for %d", few, fewRows, all, allRows)
	// The merge scratch comes from a sync.Pool, which may hand out a fresh
	// one now and then (the race detector makes it do so on purpose); a
	// per-row or per-group allocation would show as hundreds.
	if all > few+3 {
		t.Fatalf("a full hit allocates %.0f times for %d rows and %.0f times for %d", few, fewRows, all, allRows)
	}
}

// TestAppendQueryAllocsIndependentOfRows is the ijoind hit path's
// allocation guard: an answer appended into a buffer with room allocates
// nothing per row or per group — no decoded rows, no text of its own — so a
// window of a few rows and one of thousands cost the same objects, served
// from one cached segment (a full hit) or from three whose directories
// interleave (the benchmarks' partial hit).
func TestAppendQueryAllocsIndependentOfRows(t *testing.T) {
	var rels []*relation.Relation
	for i, name := range []string{"R1", "R2"} {
		rel, err := workload.Generate(workload.Table1Spec(name, 20_000, int64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		rels = append(rels, rel)
	}
	q := predQuery(t, interval.Overlaps)
	buf := make([]byte, 0, 1<<20)
	for _, tc := range []struct {
		name        string
		fill        []Window
		small, wide Window
	}{
		{"full hit", []Window{{38_000, 44_000}}, Window{40_000, 40_009}, Window{38_000, 44_000}},
		{"partial hit", []Window{{38_000, 40_999}, {41_000, 41_999}, {42_000, 44_000}}, Window{40_999, 42_000}, Window{38_000, 44_000}},
	} {
		svc := newTestService(t, rels...)
		for _, w := range tc.fill {
			if _, err := svc.Query(q, w); err != nil {
				t.Fatal(err)
			}
		}
		measure := func(w Window) (allocs float64, rows int) {
			allocs = testing.AllocsPerRun(200, func() {
				var ans *Answer
				var err error
				buf, ans, err = svc.AppendQuery(buf[:0], q, w, nil)
				if err != nil || len(ans.DeltaWindows) != 0 || ans.HitSegments != len(tc.fill) {
					t.Fatalf("%s window %s: err %v, %d delta windows, %d segments; want a hit of %d", tc.name, w.string(), err, len(ans.DeltaWindows), ans.HitSegments, len(tc.fill))
				}
				rows = ans.Count
			})
			return allocs, rows
		}
		few, fewRows := measure(tc.small)
		all, allRows := measure(tc.wide)
		if fewRows == 0 || allRows < 5*fewRows || cap(buf) != 1<<20 {
			t.Fatalf("%s: windows return %d and %d rows into a buffer of %d; the guard needs them far apart in the same buffer", tc.name, fewRows, allRows, cap(buf))
		}
		t.Logf("%s: %.0f allocations for %d rows, %.0f for %d", tc.name, few, fewRows, all, allRows)
		// As in TestFullHitAllocationsIndependentOfRows, the pooled merge
		// scratch is now and then made anew; a per-row or per-group
		// allocation would show as hundreds.
		if all > few+3 || few > all+3 {
			t.Fatalf("%s: an appended answer allocates %.0f times for %d rows and %.0f times for %d", tc.name, few, fewRows, all, allRows)
		}
	}
}

// TestColdMissBytesPerRow pins what a delta join allocates per row it
// answers: a cold AppendQuery miss keeps its rows' text and their anchor
// groups' directory, and the join writes its ids into the layout scratch's
// reused buffer, with no header per row. Of sixty disjoint windows, each a
// miss over the serve workloads' residents, the leanest must allocate less
// than 85 bytes per row it answers (it reads about 60, and 70 under the
// race detector); an id slab of its own and a header per row, 40 bytes
// between them, took it to about 105 (113). The leanest, because a
// collection empties the pools a query takes its scratch and its full-size
// row chunks from, and the race detector drops pooled items at random: a
// query that refills one pays for it, and the one that refills none shows
// what a query itself allocates.
func TestColdMissBytesPerRow(t *testing.T) {
	var rels []*relation.Relation
	for i, name := range []string{"R1", "R2"} {
		rel, err := workload.Generate(workload.Table1Spec(name, 20_000, int64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		rels = append(rels, rel)
	}
	svc := newConfiguredService(t, ServiceConfig{CacheBytes: 1 << 20}, rels...)
	q := predQuery(t, interval.Overlaps)
	buf := make([]byte, 0, 1<<20)
	leanest, rows := math.Inf(1), 0
	for lo := int64(0); lo < 60_000; lo += 1000 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		out, ans, err := svc.AppendQuery(buf[:0], q, Window{lo, lo + 999}, nil)
		runtime.ReadMemStats(&after)
		if err != nil || ans.HitSegments != 0 || len(ans.DeltaWindows) != 1 || ans.Count < 500 {
			t.Fatalf("window [%d,%d]: err %v, %d segments hit, %d rows; want a miss of 500 rows or more", lo, lo+999, err, ans.HitSegments, ans.Count)
		}
		buf = out
		leanest, rows = min(leanest, float64(after.TotalAlloc-before.TotalAlloc)/float64(ans.Count)), rows+ans.Count
	}
	t.Logf("cold misses: %d rows, the leanest query %.1f bytes per row", rows, leanest)
	if leanest >= 85 {
		t.Fatalf("the leanest cold miss allocates %.1f bytes per row; want under 85", leanest)
	}
}

// TestConcurrentQueriesShareSegments runs the window mix from several
// goroutines at once against a cache too small to hold the span the mix
// covers — its budget is a byte short of the one segment an unbounded cache
// makes for the whole span, and segments that cover it in pieces take at
// least as many bytes, so whatever order the queries come in, the cache
// evicts — and answers are copied out of segments that other queries are
// reading, and that the cache drops while they are in use. Each goroutine also asks every
// window traced, under a tracer of its own, and cold, bypassing the cache, so
// delta joins of all three paths run side by side. Every answer must still be
// the oracle's, and once the goroutines are done no goroutine a query
// started is left running. The cache passes its check after every query.
func TestConcurrentQueriesShareSegments(t *testing.T) {
	before := runtime.NumGoroutine()
	r1, r2 := adversarialRelation("R1", 67), adversarialRelation("R2", 71)
	rels := []*relation.Relation{r1, r2}
	q := predQuery(t, interval.Overlaps)
	unbounded := newConfiguredService(t, ServiceConfig{}, rels...)
	if _, err := unbounded.Query(q, Window{0, 400}); err != nil {
		t.Fatal(err)
	}
	whole := unbounded.Stats().BytesInUse
	t.Logf("budget: %d bytes", whole-1)
	svc := newConfiguredService(t, ServiceConfig{CacheBytes: whole - 1}, rels...)
	want := make([]*oracle, len(windowMix))
	for i, w := range windowMix {
		want[i] = oracleResult(t, q, rels, w)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for i := range windowMix {
					i = (i + g) % len(windowMix)
					w := windowMix[i]
					for _, path := range []struct {
						name  string
						query func() (*Answer, error)
					}{
						{"query", func() (*Answer, error) { return svc.Query(q, w) }},
						{"traced", func() (*Answer, error) { return svc.QueryTraced(q, w, obs.New(obs.Options{})) }},
						{"cold", func() (*Answer, error) { return svc.RunCold(q, w) }},
					} {
						ans, err := path.query()
						if err != nil {
							t.Error(err)
							return
						}
						if err := rowsDiffer(ans.Rows, want[i]); err != nil {
							t.Errorf("%s, window %s: %v", path.name, w.string(), err)
							return
						}
						if err := svc.cache.check(); err != nil {
							t.Errorf("%s, window %s: %v", path.name, w.string(), err)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if st := svc.Stats(); st.Evictions == 0 || st.HitSegments == 0 {
		t.Fatalf("anti-vacuity: the run never evicted or never hit: %+v", st)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines outlive the queries, %d before them:\n%s", runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
	}
}

// errOneAtATime is what a delta join held back for a second one reports
// when none came.
var errOneAtATime = errors.New("delta joins ran one at a time")

// TestDeltaJoinsRunConcurrently: two queries that miss a cold cache on
// disjoint windows run their delta joins at the same time, not one after the
// other — the first join waits to start until the second has come in, at
// most 10 s. Each answer is RunCold's for its window.
func TestDeltaJoinsRunConcurrently(t *testing.T) {
	var entered atomic.Int32
	both := make(chan struct{})
	svc := newTestService(t, adversarialRelation("R1", 89), adversarialRelation("R2", 97))
	join := svc.join
	svc.join = func(ctx *core.Context, dst []int64) ([]int64, error) {
		switch entered.Add(1) {
		case 1:
			select {
			case <-both:
			case <-time.After(10 * time.Second):
				return nil, errOneAtATime
			}
		case 2:
			close(both)
		}
		return join(ctx, dst)
	}
	q := predQuery(t, interval.Overlaps)
	windows := []Window{{0, 150}, {250, 400}}
	answers := make([]*Answer, len(windows))
	errs := make([]error, len(windows))
	var wg sync.WaitGroup
	for i, w := range windows {
		wg.Add(1)
		go func() {
			defer wg.Done()
			answers[i], errs[i] = svc.Query(q, w)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("window %s: %v", windows[i].string(), err)
		}
	}
	for i, w := range windows {
		if len(answers[i].DeltaWindows) != 1 || answers[i].DeltaRows == 0 {
			t.Fatalf("window %s ran no delta join", w.string())
		}
		cold, err := svc.RunCold(q, w)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := string(answers[i].RowsJSON), string(cold.RowsJSON); got != want || len(cold.Rows) == 0 {
			t.Fatalf("window %s: the query answered %d rows and RunCold %d; want the same, and some", w.string(), len(answers[i].Rows), len(cold.Rows))
		}
	}
}

// TestServiceSpansTheWholeLine: data may lie anywhere on the int64 time line
// and so may a window. The residents cluster around ±2^62, with intervals
// spanning the two clusters, the middle and either end of the line; the whole
// line, a window inside it and the two half-lines through 0 are each asked
// cold of a fresh service, through RunCold, and in turn of one service whose
// cache the earlier windows filled — the half-line [0, MaxInt64] after
// [MinInt64, 0] is a partial hit, the rest full hits — and every answer is
// the oracle's, and both caches pass their check.
func TestServiceSpansTheWholeLine(t *testing.T) {
	const far = int64(1) << 62
	rng := rand.New(rand.NewSource(62))
	var rels []*relation.Relation
	for _, name := range []string{"R1", "R2", "R3"} {
		var ivs []interval.Interval
		for _, c := range []int64{-far, far} {
			for i := 0; i < 30; i++ {
				s := c + rng.Int63n(400) - 200
				ivs = append(ivs, interval.New(s, s+rng.Int63n(50)))
			}
		}
		ivs = append(ivs,
			interval.New(-far, far),
			interval.New(-far+rng.Int63n(100), 0),
			interval.New(0, far+rng.Int63n(100)),
			interval.New(0, 0),
			interval.New(math.MinInt64, math.MinInt64+rng.Int63n(8)),
			interval.New(math.MaxInt64-rng.Int63n(8), math.MaxInt64),
			interval.New(math.MinInt64, math.MaxInt64),
		)
		rels = append(rels, relation.FromIntervals(name, ivs))
	}
	chain := predQuery(t, interval.Overlaps)
	if err := chain.AddCondition("R2", "", interval.Overlaps, "R3", ""); err != nil {
		t.Fatal(err)
	}
	before := predQuery(t, interval.Overlaps)
	if err := before.AddCondition("R1", "", interval.Before, "R3", ""); err != nil {
		t.Fatal(err)
	}
	windows := []Window{
		{math.MinInt64, 0},
		{0, math.MaxInt64},
		{-far + 100, far - 100},
		{math.MinInt64, math.MaxInt64},
	}
	for _, tc := range []struct {
		name string
		q    *query.Query
		rels []*relation.Relation
	}{
		{"two-way", predQuery(t, interval.Overlaps), rels[:2]},
		{"chain", chain, rels},
		{"before", before, rels},
	} {
		warm := newTestService(t, tc.rels...)
		for _, w := range windows {
			want := oracleResult(t, tc.q, tc.rels, w)
			if len(want.Tuples) == 0 {
				t.Fatalf("%s %s: the oracle has no rows; the window checks nothing", tc.name, w.string())
			}
			fresh := newTestService(t, tc.rels...)
			cold, err := fresh.Query(tc.q, w)
			if err != nil {
				t.Fatalf("%s %s: %v", tc.name, w.string(), err)
			}
			sameRows(t, tc.name+" cold "+w.string(), cold, want)
			run, err := warm.RunCold(tc.q, w)
			if err != nil {
				t.Fatalf("%s %s: %v", tc.name, w.string(), err)
			}
			sameRows(t, tc.name+" RunCold "+w.string(), run, want)
			cached, err := warm.Query(tc.q, w)
			if err != nil {
				t.Fatalf("%s %s: %v", tc.name, w.string(), err)
			}
			sameRows(t, tc.name+" cached "+w.string(), cached, want)
			for _, s := range []*Service{fresh, warm} {
				if err := s.cache.check(); err != nil {
					t.Fatalf("%s %s: %v", tc.name, w.string(), err)
				}
			}
		}
		if st := warm.Stats(); st.PartialHits != 1 || st.FullHits != 2 {
			t.Fatalf("%s: the windows were %d partial and %d full hits, want 1 and 2: %+v", tc.name, st.PartialHits, st.FullHits, st)
		}
	}
}
