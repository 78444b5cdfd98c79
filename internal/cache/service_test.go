package cache

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"intervaljoin/internal/core"
	"intervaljoin/internal/dfs"
	"intervaljoin/internal/interval"
	"intervaljoin/internal/mr"
	"intervaljoin/internal/obs/live"
	"intervaljoin/internal/query"
	"intervaljoin/internal/relation"
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

func max(a, b interval.Point) interval.Point {
	if a > b {
		return a
	}
	return b
}

func newTestService(t *testing.T, rels ...*relation.Relation) *Service {
	t.Helper()
	eng := mr.NewEngine(mr.Config{Store: dfs.NewMem(), Workers: 4})
	svc, err := NewService(ServiceConfig{Engine: eng, Opts: core.Options{Partitions: 4, PartitionsPerDim: 3}})
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

func predQuery(t *testing.T, pred interval.Predicate) *query.Query {
	t.Helper()
	q := query.New()
	if err := q.AddCondition("R1", "", pred, "R2", ""); err != nil {
		t.Fatal(err)
	}
	return q
}

// oracleResult is the tests' definition of a windowed answer, written out
// by hand and sharing nothing with the service's selection: relation 0 is cut
// down to the tuples whose first attribute meets the closed window, every
// other relation stays whole, and the in-memory reference join runs over
// that.
func oracleResult(t *testing.T, svc *Service, q *query.Query, rels []*relation.Relation, w Window) *core.Result {
	t.Helper()
	anchors := relation.New(rels[0].Schema)
	for _, tup := range rels[0].Tuples {
		if a := tup.Attrs[0]; a.Start <= w.Hi && a.End >= w.Lo {
			anchors.Tuples = append(anchors.Tuples, tup)
		}
	}
	ctx, err := core.NewContext(svc.engine, q, append([]*relation.Relation{anchors}, rels[1:]...), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Reference{}.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// oracleWindow is the oracle's answer as a set of row keys.
func oracleWindow(t *testing.T, svc *Service, q *query.Query, rels []*relation.Relation, w Window) map[string]struct{} {
	t.Helper()
	return oracleResult(t, svc, q, rels, w).TupleSet()
}

func answerSet(a *Answer) map[string]struct{} {
	set := make(map[string]struct{}, len(a.Rows))
	for _, r := range a.Rows {
		set[r.Key()] = struct{}{}
	}
	return set
}

func diffSets(t *testing.T, label string, got, want map[string]struct{}) {
	t.Helper()
	for k := range want {
		if _, ok := got[k]; !ok {
			t.Fatalf("%s: missing row %s (got %d rows, want %d)", label, k, len(got), len(want))
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Fatalf("%s: extra row %s (got %d rows, want %d)", label, k, len(got), len(want))
		}
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
// anchors appearing in multiple segments. The anti-vacuity guard asserts
// the mix actually exercised partial hits, full hits and cached segments,
// so the equivalence is not vacuously about empty caches.
func TestCachedMergePlusDeltaEqualsColdRun(t *testing.T) {
	for p := interval.Predicate(0); p < interval.NumPredicates; p++ {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			t.Parallel()
			r1 := adversarialRelation("R1", 7)
			r2 := adversarialRelation("R2", 11)
			svc := newTestService(t, r1, r2)
			q := predQuery(t, p)
			rels := []*relation.Relation{r1, r2}

			sawPartial := false
			for i, w := range windowMix {
				ans, err := svc.Query(q, w)
				if err != nil {
					t.Fatal(err)
				}
				if ans.HitSegments > 0 && len(ans.DeltaWindows) > 0 {
					sawPartial = true
				}
				want := oracleWindow(t, svc, q, rels, w)
				diffSets(t, p.String()+" window "+w.string()+" (query "+itoa(i)+")", answerSet(ans), want)
			}
			st := svc.Stats()
			if st.FullHits == 0 || st.PartialHits == 0 || st.HitSegments == 0 {
				t.Fatalf("anti-vacuity: mix never exercised the cache: %+v", st)
			}
			if !sawPartial {
				t.Fatal("anti-vacuity: no query merged cached segments with delta joins")
			}
			if st.DeltaRows == 0 && st.CachedRows == 0 {
				t.Fatalf("anti-vacuity: no rows flowed at all: %+v", st)
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
// the service's warm answer equals a from-scratch engine run of the same
// windowed query on a fresh service (cold cache), exercising the service's
// own selection rather than the in-memory oracle.
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
		diffSets(t, "warm vs cold "+w.string(), answerSet(warmAns), answerSet(coldAns))
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
	want := oracleWindow(t, svc, q, []*relation.Relation{r1, r2b}, w)
	diffSets(t, "post-bump", answerSet(second), want)
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
		diffSets(t, "hybrid "+w.string(), answerSet(ans), oracleWindow(t, svc, q, rels, w))
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

// TestDeltaScratchIsRemoved pins the store's steady state: registration
// writes nothing (the relations stay in memory), and no delta join — a miss,
// a gap of a partial hit, a RunCold; two-way, a three-way chain, or PASM with
// the barrier between its prune and join cycles — puts anything there, so
// the store is empty after every query.
func TestDeltaScratchIsRemoved(t *testing.T) {
	threeWay := predQuery(t, interval.Overlaps)
	if err := threeWay.AddCondition("R2", "", interval.Overlaps, "R3", ""); err != nil {
		t.Fatal(err)
	}
	hybrid := predQuery(t, interval.Overlaps)
	if err := hybrid.AddCondition("R2", "", interval.Before, "R3", ""); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		alg     core.Algorithm // nil: the planner's choice
		queries []*query.Query
	}{
		{"planner", nil, []*query.Query{predQuery(t, interval.Overlaps), threeWay}},
		{"pasm", core.PASM{}, []*query.Query{threeWay, hybrid}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			svc := newTestService(t, adversarialRelation("R1", 41), adversarialRelation("R2", 43), adversarialRelation("R3", 45))
			if tc.alg != nil {
				svc.algorithm = func(*query.Query) core.Algorithm { return tc.alg }
			}
			empty := func(after string) {
				t.Helper()
				files, err := svc.engine.Store().List("")
				if err != nil || len(files) != 0 {
					t.Fatalf("store holds %v (%v) after %s, want nothing", files, err, after)
				}
			}
			for _, q := range tc.queries {
				for lo := interval.Point(0); lo < 400; lo += 25 {
					ans, err := svc.Query(q, Window{lo, lo + 30})
					if err != nil {
						t.Fatal(err)
					}
					if len(ans.DeltaWindows) == 0 {
						t.Fatalf("window [%d,%d] ran no delta join; the test wants one per query", lo, lo+30)
					}
					if tc.alg != nil && ans.Algorithm != tc.alg.Name() {
						t.Fatalf("the delta join ran %s, want %s", ans.Algorithm, tc.alg.Name())
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
}

// stuckStore is a store whose files cannot be removed.
type stuckStore struct{ *dfs.Mem }

func (stuckStore) Remove(name string) error { return fmt.Errorf("remove %s: read-only", name) }

// TestFailedScratchRemovalIsCounted: a spill run the store refuses to delete
// does not fail the query, and shows in the answer's engine metrics
// (CleanupFailures) and from there in the live ij_engine_cleanup_failures_total
// series. Spill runs are the only files a run leaves to remove: what stays
// on the store is exactly the runs the shuffle spilled, for PASM's three
// cycles as for the default two-way join.
func TestFailedScratchRemovalIsCounted(t *testing.T) {
	hybrid := predQuery(t, interval.Overlaps)
	if err := hybrid.AddCondition("R2", "", interval.Before, "R3", ""); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		q    *query.Query
		alg  core.Algorithm // nil: the planner's choice
	}{
		{"hybrid pasm", hybrid, core.PASM{}},
		{"two-way default", predQuery(t, interval.Overlaps), nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store := stuckStore{dfs.NewMem()}
			eng := mr.NewEngine(mr.Config{Store: store, Workers: 2, SpillPairThreshold: 16})
			cfg := ServiceConfig{Engine: eng, Opts: core.Options{Partitions: 4, PartitionsPerDim: 4}}
			if tc.alg != nil {
				cfg.Algorithm = func(*query.Query) core.Algorithm { return tc.alg }
			}
			svc, err := NewService(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []*relation.Relation{adversarialRelation("R1", 47), adversarialRelation("R2", 53), adversarialRelation("R3", 57)} {
				if _, err := svc.Register(r); err != nil {
					t.Fatal(err)
				}
			}
			ans, err := svc.Query(tc.q, Window{0, 400})
			if err != nil {
				t.Fatal(err)
			}
			if len(ans.Rows) == 0 || ans.Engine == nil {
				t.Fatal("the query ran no delta join, or it returned no rows")
			}
			left, err := store.List("")
			if err != nil {
				t.Fatal(err)
			}
			failed := ans.Engine.CleanupFailures
			if failed == 0 || failed != len(left) || failed != ans.Engine.SpillRuns {
				t.Fatalf("CleanupFailures = %d, SpillRuns = %d, files left %v, with a store that removes nothing",
					failed, ans.Engine.SpillRuns, left)
			}
			for _, f := range left {
				if !strings.HasPrefix(f, ".spill/") {
					t.Errorf("the run left %s, which is no spill run", f)
				}
			}
			reg := live.NewRegistry()
			mr.NewLiveSet(reg).Publish(ans.Engine)
			series := -1.0
			for _, f := range reg.Snapshot().Families {
				if f.Name == "ij_engine_cleanup_failures_total" {
					series = f.Series[0].Value
				}
			}
			if series != float64(failed) {
				t.Fatalf("ij_engine_cleanup_failures_total = %v, Answer.Engine.CleanupFailures = %d", series, failed)
			}
		})
	}
}

// TestFullHitAllocationsIndependentOfRows is the hit path's allocation
// guard: a query answered from the cache allocates its id slab, its wire
// text, its row views and a fixed number of small things around them —
// the same count for a handful of rows as for all of them.
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

// TestConcurrentQueriesShareSegments runs the window mix from several
// goroutines at once against a cache small enough to evict all the time:
// answers are views into segments that other queries are reading, and
// that the cache drops while they are in use. Every answer must still be
// the oracle's.
func TestConcurrentQueriesShareSegments(t *testing.T) {
	r1, r2 := adversarialRelation("R1", 67), adversarialRelation("R2", 71)
	rels := []*relation.Relation{r1, r2}
	eng := mr.NewEngine(mr.Config{Store: dfs.NewMem(), Workers: 2})
	svc, err := NewService(ServiceConfig{Engine: eng, CacheBytes: 8 << 10, Opts: core.Options{Partitions: 4}})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rels {
		if _, err := svc.Register(r); err != nil {
			t.Fatal(err)
		}
	}
	q := predQuery(t, interval.Overlaps)
	want := make([]map[string]struct{}, len(windowMix))
	for i, w := range windowMix {
		want[i] = oracleWindow(t, svc, q, rels, w)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for i := range windowMix {
					i = (i + g) % len(windowMix)
					ans, err := svc.Query(q, windowMix[i])
					if err != nil {
						t.Error(err)
						return
					}
					got := answerSet(ans)
					if len(got) != len(ans.Rows) {
						t.Errorf("window %s: %d rows, %d distinct", windowMix[i].string(), len(ans.Rows), len(got))
					}
					for k := range want[i] {
						if _, ok := got[k]; !ok || len(got) != len(want[i]) {
							t.Errorf("window %s: answer of %d rows differs from the oracle's %d (row %s)", windowMix[i].string(), len(got), len(want[i]), k)
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
}
