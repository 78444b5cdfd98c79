package cache

import (
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"

	"intervaljoin/internal/interval"
	"intervaljoin/internal/query"
	"intervaljoin/internal/relation"
	"intervaljoin/internal/workload"
)

// benchHitService registers the serve workloads' residents (2 x 20 000
// Table 1 intervals) and caches the given windows, one segment each.
func benchHitService(b *testing.B, fill []Window) (*Service, *query.Query) {
	b.Helper()
	svc, err := NewService(ServiceConfig{})
	if err != nil {
		b.Fatal(err)
	}
	for i, name := range []string{"R1", "R2"} {
		rel, err := workload.Generate(workload.Table1Spec(name, 20_000, int64(i+1)))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := svc.Register(rel); err != nil {
			b.Fatal(err)
		}
	}
	q := query.New()
	if err := q.AddCondition("R1", "", interval.Overlaps, "R2", ""); err != nil {
		b.Fatal(err)
	}
	for _, w := range fill {
		if _, err := svc.Query(q, w); err != nil {
			b.Fatal(err)
		}
	}
	return svc, q
}

// benchHits times cache-served queries of one window and reports the
// answer's size next to the time and allocations. With appended set it
// times AppendQuery into one reused buffer, ijoind's path, instead of Query.
func benchHits(b *testing.B, svc *Service, q *query.Query, w Window, wantSegments int, appended bool) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	var ans *Answer
	var buf []byte
	for i := 0; i < b.N; i++ {
		var err error
		if appended {
			buf, ans, err = svc.AppendQuery(buf[:0], q, w, nil)
		} else {
			ans, err = svc.Query(q, w)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(ans.DeltaWindows) != 0 || ans.HitSegments != wantSegments {
		b.Fatalf("answer merged %d segments and ran %d delta joins, want %d and 0", ans.HitSegments, len(ans.DeltaWindows), wantSegments)
	}
	b.ReportMetric(float64(ans.Count), "rows/op")
}

// fullHitFill and partialHitFill are the cached windows of the full- and
// partial-hit benchmarks, hitWindow the window they ask.
var (
	fullHitFill    = []Window{{38_000, 44_000}}
	partialHitFill = []Window{{38_000, 40_999}, {41_000, 41_999}, {42_000, 44_000}}
	hitWindow      = Window{40_000, 43_000}
)

// BenchmarkServiceFullHit answers a ~3.5k-row window that lies inside one
// cached segment: two binary searches and one copy.
func BenchmarkServiceFullHit(b *testing.B) {
	svc, q := benchHitService(b, fullHitFill)
	benchHits(b, svc, q, hitWindow, 1, false)
}

// BenchmarkServiceFullHitAppend is BenchmarkServiceFullHit through
// AppendQuery into a reused buffer.
func BenchmarkServiceFullHitAppend(b *testing.B) {
	svc, q := benchHitService(b, fullHitFill)
	benchHits(b, svc, q, hitWindow, 1, true)
}

// BenchmarkServicePartialHit answers the same window when each of three
// cached segments holds a part of it: each segment gives the stretch of
// its groups that start in its part.
func BenchmarkServicePartialHit(b *testing.B) {
	svc, q := benchHitService(b, partialHitFill)
	benchHits(b, svc, q, hitWindow, 3, false)
}

// BenchmarkServicePartialHitAppend is BenchmarkServicePartialHit through
// AppendQuery into a reused buffer.
func BenchmarkServicePartialHitAppend(b *testing.B) {
	svc, q := benchHitService(b, partialHitFill)
	benchHits(b, svc, q, hitWindow, 3, true)
}

// The three shapes of one narrow window, [40 000, 40 500]: cached as a
// segment of exactly that window, inside one segment over the whole data
// range, and across three segments that tile it, two of them wide. A warm
// hit should cost what it returns, so the three read alike.
var (
	narrowWindow = Window{40_000, 40_500}
	tiledFill    = []Window{{0, 40_199}, {40_200, 40_299}, {40_300, 100_000}}
)

// BenchmarkServiceExactHitAppend answers the narrow window from a segment
// cached for exactly it.
func BenchmarkServiceExactHitAppend(b *testing.B) {
	svc, q := benchHitService(b, []Window{narrowWindow})
	benchHits(b, svc, q, narrowWindow, 1, true)
}

// BenchmarkServiceWholeLineHitAppend answers the narrow window from one
// segment cached over [0, 100 000].
func BenchmarkServiceWholeLineHitAppend(b *testing.B) {
	svc, q := benchHitService(b, []Window{{0, 100_000}})
	benchHits(b, svc, q, narrowWindow, 1, true)
}

// BenchmarkServiceTiledHitAppend answers the narrow window from the three
// segments of tiledFill.
func BenchmarkServiceTiledHitAppend(b *testing.B) {
	svc, q := benchHitService(b, tiledFill)
	benchHits(b, svc, q, narrowWindow, 3, true)
}

// BenchmarkServiceWarmMix replays the serve-warm workload's window mix in
// process through AppendQuery: 8 hotspots of Zipf(1.5) popularity, spans
// of 500 to 5 000, a 64 MiB cache filled by the mix's first 1 000 windows
// untimed, then the next 4 096 windows in turn. Nearly every query is a
// hit over a few segments; it reports the segments merged (hit and gap)
// and the rows returned per query.
func BenchmarkServiceWarmMix(b *testing.B) {
	svc, q := benchHitService(b, nil)
	const fill = 1000
	mix, err := workload.ZipfQueryMix(workload.QueryMixSpec{
		N: fill + 4096, TMin: 0, TMax: 100_000, Hotspots: 8, Skew: 1.5, SpanMin: 500, SpanMax: 5000, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	var buf []byte
	ask := func(w workload.QueryWindow) *Answer {
		var ans *Answer
		var err error
		buf, ans, err = svc.AppendQuery(buf[:0], q, Window{w.Lo, w.Hi}, nil)
		if err != nil {
			b.Fatal(err)
		}
		return ans
	}
	for _, w := range mix[:fill] {
		ask(w)
	}
	timed := mix[fill:]
	segs, rows := 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ans := ask(timed[i%len(timed)])
		segs += ans.HitSegments + len(ans.DeltaWindows)
		rows += ans.Count
	}
	b.StopTimer()
	b.ReportMetric(float64(segs)/float64(b.N), "segments/op")
	b.ReportMetric(float64(rows)/float64(b.N), "rows/op")
}

// BenchmarkServiceColdMiss answers uniformly random windows 500 to 5 000
// wide over the serve workloads' residents as cmd/ijoind holds them: each
// loaded from its text file into one interval slab, joined by a service
// with a 1 MiB cache, so almost every query is a delta join. It
// reports the rows an answer holds and the collector's cycles per 1 000
// queries next to the time and allocations.
func BenchmarkServiceColdMiss(b *testing.B) { benchColdMiss(b, false) }

// BenchmarkServiceColdMissAppend is BenchmarkServiceColdMiss through
// AppendQuery into a reused buffer.
func BenchmarkServiceColdMissAppend(b *testing.B) { benchColdMiss(b, true) }

func benchColdMiss(b *testing.B, appended bool) {
	svc, err := NewService(ServiceConfig{CacheBytes: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	for i, name := range []string{"R1", "R2"} {
		rel, err := workload.Generate(workload.Table1Spec(name, 20_000, int64(i+1)))
		if err != nil {
			b.Fatal(err)
		}
		path := filepath.Join(dir, name+".txt")
		if err := relation.SaveFile(rel, path); err != nil {
			b.Fatal(err)
		}
		if rel, err = relation.LoadFile(relation.NewSchema(name), path); err != nil {
			b.Fatal(err)
		}
		if _, err := svc.Register(rel); err != nil {
			b.Fatal(err)
		}
	}
	q := query.New()
	if err := q.AddCondition("R1", "", interval.Overlaps, "R2", ""); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	windows := make([]Window, 4096)
	for i := range windows {
		lo := interval.Point(rng.Intn(100_000))
		windows[i] = Window{lo, lo + 499 + interval.Point(rng.Intn(4_501))}
	}
	var before, after runtime.MemStats
	var buf []byte
	rows := 0
	b.ReportAllocs()
	b.ResetTimer()
	runtime.ReadMemStats(&before)
	for i := 0; i < b.N; i++ {
		var ans *Answer
		var err error
		if appended {
			buf, ans, err = svc.AppendQuery(buf[:0], q, windows[i%len(windows)], nil)
		} else {
			ans, err = svc.Query(q, windows[i%len(windows)])
		}
		if err != nil {
			b.Fatal(err)
		}
		rows += ans.Count
	}
	runtime.ReadMemStats(&after)
	b.StopTimer()
	b.ReportMetric(float64(rows)/float64(b.N), "rows/op")
	b.ReportMetric(1000*float64(after.NumGC-before.NumGC)/float64(b.N), "gc/1k-ops")
}
