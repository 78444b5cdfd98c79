package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestDisabledTracerIsNilSafe(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	if tr.PprofLabels() {
		t.Fatal("nil tracer wants pprof labels")
	}
	l := tr.Acquire()
	if l != nil {
		t.Fatalf("nil tracer handed out lane %v", l)
	}
	if got := l.ID(); got != -1 {
		t.Fatalf("nil lane ID = %d, want -1", got)
	}
	start := l.Begin()
	if !start.IsZero() {
		t.Fatal("nil lane Begin read the clock")
	}
	l.End(CatMap, "task", start)
	l.Event(CatMap, "retry")
	tr.Release(l)
	if s := tr.Snapshot(); s != nil {
		t.Fatalf("nil tracer snapshot = %v, want nil", s)
	}
	if !tr.Epoch().IsZero() {
		t.Fatal("nil tracer has an epoch")
	}
}

// TestDisabledTracerZeroCost is the overhead smoke check scripts/check.sh
// runs: the disabled tracing path must not allocate, so the engine's
// always-compiled instrumentation stays near-free when no tracer is
// attached. It calls every method a Tracer and a Lane have.
func TestDisabledTracerZeroCost(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		_ = tr.Enabled() || tr.PprofLabels() || !tr.Epoch().IsZero()
		l := tr.Acquire()
		_ = l.ID()
		start := l.Begin()
		l.End(CatReduce, "task", start)
		l.Event(CatMap, "retry")
		tr.Release(l)
		_ = tr.Snapshot()
	})
	if allocs != 0 {
		t.Fatalf("disabled tracer path allocates %.1f per op, want 0", allocs)
	}
}

func TestLaneSpansAndSnapshot(t *testing.T) {
	tr := New(Options{})
	l := tr.Acquire()
	start := l.Begin()
	time.Sleep(time.Millisecond)
	l.End(CatMap, "map:task0", start, Arg{Key: "algorithm", Val: "rccis"})
	l.Event(CatMap, "retry")
	tr.Release(l)

	s := tr.Snapshot()
	if len(s.Spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(s.Spans))
	}
	sp := s.Spans[0]
	if sp.Cat != CatMap || sp.Name != "map:task0" || sp.Dur <= 0 {
		t.Fatalf("bad span %+v", sp)
	}
	if len(sp.Args) != 1 || sp.Args[0].Val != "rccis" {
		t.Fatalf("bad span args %+v", sp.Args)
	}
	if ev := s.Spans[1]; ev.Name != "retry" || ev.Dur != 0 {
		t.Fatalf("bad event %+v", ev)
	}
}

func TestLanePoolReuse(t *testing.T) {
	tr := New(Options{})
	a := tr.Acquire()
	id := a.ID()
	tr.Release(a)
	b := tr.Acquire()
	if b.ID() != id {
		t.Fatalf("released lane not reused: got id %d, want %d", b.ID(), id)
	}
	c := tr.Acquire() // b still held: must be a fresh lane
	if c.ID() == b.ID() {
		t.Fatal("two held lanes share an id")
	}
}

func TestConcurrentLanesRaceFree(t *testing.T) {
	tr := New(Options{LaneSpanCap: 64})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l := tr.Acquire()
			defer tr.Release(l)
			for i := 0; i < 200; i++ {
				start := l.Begin()
				l.End(CatReduce, "task", start)
			}
		}()
	}
	wg.Wait()
	s := tr.Snapshot()
	if len(s.Lanes) == 0 || len(s.Lanes) > 8 {
		t.Fatalf("lanes = %d, want 1..8", len(s.Lanes))
	}
	// 200 spans per goroutine with cap 64: rings must have wrapped and
	// counted drops, retaining exactly cap spans per lane.
	var dropped int64
	for _, l := range s.Lanes {
		dropped += l.Dropped
	}
	if want := int64(8*200) - int64(len(s.Lanes)*64); dropped != want {
		t.Fatalf("dropped = %d, want %d", dropped, want)
	}
	if len(s.Spans) != len(s.Lanes)*64 {
		t.Fatalf("retained %d spans, want %d", len(s.Spans), len(s.Lanes)*64)
	}
}

func TestPhaseWallsUnion(t *testing.T) {
	s := &Snapshot{Spans: []Span{
		{Cat: CatMap, Start: 0, Dur: 10 * time.Millisecond},
		{Cat: CatMap, Start: 5 * time.Millisecond, Dur: 10 * time.Millisecond}, // overlaps: union 0..15
		{Cat: CatMap, Start: 20 * time.Millisecond, Dur: 5 * time.Millisecond}, // disjoint: +5
		{Cat: CatReduce, Start: 8 * time.Millisecond, Dur: 4 * time.Millisecond},
	}}
	walls := s.PhaseWalls(0)
	if got, want := walls[CatMap], 20*time.Millisecond; got != want {
		t.Fatalf("map wall = %v, want %v", got, want)
	}
	if got, want := walls[CatReduce], 4*time.Millisecond; got != want {
		t.Fatalf("reduce wall = %v, want %v", got, want)
	}
	// A mark clips spans: only the tail past the mark counts.
	walls = s.PhaseWalls(12 * time.Millisecond)
	if got, want := walls[CatMap], 8*time.Millisecond; got != want {
		t.Fatalf("marked map wall = %v, want %v", got, want)
	}
	if _, ok := walls[CatReduce]; ok {
		t.Fatal("reduce span fully before mark still counted")
	}
}

func TestChromeTraceRoundTrips(t *testing.T) {
	tr := New(Options{})
	l := tr.Acquire()
	start := l.Begin()
	l.End(CatCycle, "cycle:test/join", start, Arg{Key: "cycle", Val: "1"})
	l.Event(CatMap, "retry")
	tr.Release(l)

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var phases []string
	for _, ev := range doc.TraceEvents {
		phases = append(phases, ev["ph"].(string))
	}
	joined := strings.Join(phases, "")
	// Metadata (process + thread names), one complete event, one instant.
	if !strings.Contains(joined, "M") || !strings.Contains(joined, "X") || !strings.Contains(joined, "i") {
		t.Fatalf("trace event phases = %v", phases)
	}
	for _, ev := range doc.TraceEvents {
		if ev["ph"] == "X" {
			if ev["name"] != "cycle:test/join" {
				t.Fatalf("X event name = %v", ev["name"])
			}
			args := ev["args"].(map[string]any)
			if args["cycle"] != "1" {
				t.Fatalf("X event args = %v", args)
			}
		}
	}
}

func TestSkewReport(t *testing.T) {
	pairs := map[int64]int64{0: 10, 1: 10, 2: 100, 3: 10}
	times := map[int64]time.Duration{2: time.Second}
	r := NewSkewReport(pairs, times, 2)
	if r.Reducers != 4 || r.TotalPairs != 130 || r.MaxPairs != 100 {
		t.Fatalf("report = %+v", r)
	}
	if want := 100 / 32.5; r.Imbalance != want {
		t.Fatalf("imbalance = %v, want %v", r.Imbalance, want)
	}
	if len(r.Top) != 2 || r.Top[0].Key != 2 || r.Top[0].Time != time.Second {
		t.Fatalf("top = %+v", r.Top)
	}
	if r.Top[1].Key != 0 { // ties broken by ascending key
		t.Fatalf("top = %+v", r.Top)
	}
	// Power-of-two load buckets: 10 lies in [8, 15], 100 in [64, 127], and
	// a reducer that received nothing in [0, 0].
	want := []SkewBucket{{Lo: 8, Hi: 15, Reducers: 3}, {Lo: 64, Hi: 127, Reducers: 1}}
	if !reflect.DeepEqual(r.Histogram, want) {
		t.Fatalf("histogram = %+v, want %+v", r.Histogram, want)
	}
	zero := NewSkewReport(map[int64]int64{0: 0, 1: 1}, nil, 2)
	if want := []SkewBucket{{Lo: 0, Hi: 0, Reducers: 1}, {Lo: 1, Hi: 1, Reducers: 1}}; !reflect.DeepEqual(zero.Histogram, want) {
		t.Fatalf("histogram = %+v, want %+v", zero.Histogram, want)
	}

	empty := NewSkewReport(nil, nil, 5)
	if empty.Reducers != 0 || empty.Imbalance != 0 {
		t.Fatalf("empty report = %+v", empty)
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	tr := New(Options{})
	l := tr.Acquire()
	start := l.Begin()
	l.End(CatReduce, "task", start)
	tr.Release(l)

	r := NewReport("test-run", tr.Snapshot())
	r.Skew = NewSkewReport(map[int64]int64{1: 5}, nil, 3)
	r.Model = &SerializedModel{Cycles: 2, Pairs: 100}

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got Report
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got.Name != "test-run" || got.Model.Cycles != 2 || got.Model.Pairs != 100 {
		t.Fatalf("round trip = %+v", got)
	}
	if got.Phases[CatReduce].Spans != 1 || got.Phases[CatReduce].WallNS <= 0 {
		t.Fatalf("phases = %+v", got.Phases)
	}
	if got.Skew.Reducers != 1 {
		t.Fatalf("skew = %+v", got.Skew)
	}
}
