// Package obs is the engine's always-compiled observability layer:
// structured execution spans, counters and histograms, collected through
// lock-cheap per-worker ring buffers and rendered as Chrome trace_event
// timelines (chrome://tracing, Perfetto), reducer-skew tables, and a
// machine-readable metrics report.
//
// The design rule is that a disabled tracer costs a nil check and nothing
// else: every method is safe on a nil *Tracer or nil *Lane and returns
// immediately, so instrumentation stays in the engine unconditionally and
// the hot paths never pay for timestamps they do not use. When enabled,
// recording is lock-free after lane acquisition — each Lane is owned by
// exactly one goroutine and appends into its own ring buffer; the only
// locks are taken at lane acquire/release and snapshot time, which happen
// at phase granularity, not task granularity.
package obs

import (
	"math/bits"
	"sort"
	"sync"
	"time"
)

// Arg is one key-value annotation on a span, rendered into the Chrome
// trace "args" object.
type Arg struct {
	Key string
	Val string
}

// Span is one completed timed region of engine execution.
type Span struct {
	// Cat is the span's phase category — one of the Cat* constants — used
	// to group spans into per-phase wall-clock unions.
	Cat string
	// Name identifies the work, e.g. "reduce:rccis-1/join k=12".
	Name string
	// Lane is the id of the lane (worker slot) that recorded the span.
	Lane int
	// Start is the span's start offset from the tracer epoch.
	Start time.Duration
	// Dur is the span's duration.
	Dur time.Duration
	// Args carry span-specific annotations (algorithm, cycle, key, ...).
	Args []Arg
}

// End returns the span's end offset from the tracer epoch.
func (s Span) End() time.Duration { return s.Start + s.Dur }

// Span categories: the engine's phase taxonomy. Every span the MR engine
// records carries one of these, so exporters and the per-phase wall-clock
// union can treat the categories as a closed set.
const (
	CatChain   = "chain"   // a whole RunPipeline execution
	CatCycle   = "cycle"   // one job (MR cycle)
	CatFeed    = "feed"    // map input file/stream reading
	CatMap     = "map"     // one map task (record batch)
	CatSpill   = "spill"   // writing one sorted run to the store
	CatMerge   = "merge"   // shuffle merge (per-shard or k-way spill merge)
	CatReduce  = "reduce"  // one reduce task (key)
	CatOutput  = "output"  // committing reduce output to the store
	CatBarrier = "barrier" // non-streamed boundary between pipeline groups

	// Skew-adaptive execution phases (PR 7).
	CatVirtualSplit = "virtual_split" // plan-time virtual-reducer splitting of hot partitions
	CatResplit      = "resplit"       // mid-job re-split of an oversized reduce task
)

// Options configure a Tracer.
type Options struct {
	// LaneSpanCap bounds the spans each lane retains; beyond it the ring
	// wraps and the oldest spans are dropped (counted per lane). 0 means
	// the default of 16384.
	LaneSpanCap int
	// PprofLabels makes the engine attach runtime/pprof labels
	// (algorithm, cycle, phase) to reduce task execution, so CPU profiles
	// taken during a traced run attribute samples to join cycles.
	PprofLabels bool
}

const defaultLaneSpanCap = 16384

// Tracer collects spans and aggregate statistics for one engine. A nil
// *Tracer is a valid, disabled tracer: every method no-ops.
type Tracer struct {
	opts  Options
	epoch time.Time

	mu     sync.Mutex
	lanes  []*Lane // every lane ever created, in id order
	free   []*Lane // released lanes available for reuse
	counts map[string]int64
}

// New returns an enabled tracer whose epoch is now.
func New(opts Options) *Tracer {
	if opts.LaneSpanCap <= 0 {
		opts.LaneSpanCap = defaultLaneSpanCap
	}
	return &Tracer{opts: opts, epoch: time.Now()}
}

// Enabled reports whether the tracer records anything.
func (t *Tracer) Enabled() bool { return t != nil }

// PprofLabels reports whether reduce tasks should run under pprof labels.
func (t *Tracer) PprofLabels() bool { return t != nil && t.opts.PprofLabels }

// Epoch returns the tracer's time origin (zero for a disabled tracer).
func (t *Tracer) Epoch() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.epoch
}

// Now returns the current offset from the tracer epoch — a cheap
// monotonic mark usable with Snapshot.PhaseWalls.
func (t *Tracer) Now() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.epoch)
}

// Acquire hands out a lane for one goroutine's exclusive use. Lanes are
// pooled: a released lane's ring buffer is reused by the next acquire, so
// the lane count is bounded by the peak concurrency, not the task count.
// Returns nil (a valid no-op lane) on a disabled tracer.
func (t *Tracer) Acquire() *Lane {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := len(t.free); n > 0 {
		l := t.free[n-1]
		t.free = t.free[:n-1]
		return l
	}
	l := &Lane{
		id:    len(t.lanes),
		epoch: t.epoch,
		spans: make([]Span, 0, min(t.opts.LaneSpanCap, 256)),
		cap:   t.opts.LaneSpanCap,
	}
	t.lanes = append(t.lanes, l)
	return l
}

// Release returns a lane to the pool. Safe on nil lanes and tracers.
func (t *Tracer) Release(l *Lane) {
	if t == nil || l == nil {
		return
	}
	t.mu.Lock()
	t.free = append(t.free, l)
	t.mu.Unlock()
}

// Count adds delta to a tracer-level shared counter, for callers without a
// lane of their own (e.g. the join kernel's per-family hit counts, flushed
// once per reduce task from whatever goroutine ran it). Mutex-guarded —
// callers must batch, not count per item. Merged into Snapshot.Counters
// alongside the lane-local counters. Safe on a nil tracer.
func (t *Tracer) Count(name string, delta int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.counts == nil {
		t.counts = make(map[string]int64, 8)
	}
	t.counts[name] += delta
	t.mu.Unlock()
}

// Lane is a single-goroutine span and statistics collector: a ring buffer
// of spans plus lane-local counters and histograms, merged at snapshot
// time. A nil *Lane is a valid, disabled lane.
type Lane struct {
	id      int
	epoch   time.Time
	spans   []Span
	next    int // ring write index once len(spans) == cap
	cap     int
	dropped int64
	counts  map[string]int64
	hists   map[string]*Hist
}

// ID returns the lane id (-1 for a disabled lane).
func (l *Lane) ID() int {
	if l == nil {
		return -1
	}
	return l.id
}

// Begin marks the start of a span. On a disabled lane it returns the zero
// time without reading the clock — the entire cost of disabled tracing.
func (l *Lane) Begin() time.Time {
	if l == nil {
		return time.Time{}
	}
	return time.Now()
}

// End records a completed span that began at start (a Begin result).
// No-op on a disabled lane or a zero start.
func (l *Lane) End(cat, name string, start time.Time, args ...Arg) {
	if l == nil || start.IsZero() {
		return
	}
	l.record(Span{
		Cat:   cat,
		Name:  name,
		Lane:  l.id,
		Start: start.Sub(l.epoch),
		Dur:   time.Since(start),
		Args:  args,
	})
}

// Event records an instantaneous span (zero duration) at the current
// time — retry and fault events use it.
func (l *Lane) Event(cat, name string, args ...Arg) {
	if l == nil {
		return
	}
	l.record(Span{Cat: cat, Name: name, Lane: l.id, Start: time.Since(l.epoch), Args: args})
}

func (l *Lane) record(s Span) {
	if len(l.spans) < l.cap {
		l.spans = append(l.spans, s)
		return
	}
	l.spans[l.next] = s
	l.next = (l.next + 1) % l.cap
	l.dropped++
}

// Count adds delta to the named lane-local counter.
func (l *Lane) Count(name string, delta int64) {
	if l == nil {
		return
	}
	if l.counts == nil {
		l.counts = make(map[string]int64, 8)
	}
	l.counts[name] += delta
}

// Observe records one sample into the named lane-local histogram.
func (l *Lane) Observe(name string, v int64) {
	if l == nil {
		return
	}
	if l.hists == nil {
		l.hists = make(map[string]*Hist, 8)
	}
	h := l.hists[name]
	if h == nil {
		h = &Hist{Min: v, Max: v}
		l.hists[name] = h
	}
	h.observe(v)
}

// Hist is a power-of-two-bucketed histogram of int64 samples. Bucket i
// counts samples v with bits.Len64(v) == i, i.e. bucket 0 holds v == 0,
// bucket i holds 2^(i-1) <= v < 2^i.
type Hist struct {
	Count   int64
	Sum     int64
	Min     int64
	Max     int64
	Buckets [65]int64
}

func (h *Hist) observe(v int64) {
	if h.Count == 0 || v < h.Min {
		h.Min = v
	}
	if v > h.Max {
		h.Max = v
	}
	h.Count++
	h.Sum += v
	h.Buckets[bucketOf(v)]++
}

// bucketOf maps a sample to its bucket index; negative samples clamp to
// bucket 0.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// Mean returns the histogram's mean sample.
func (h Hist) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// merge accumulates other into h.
func (h *Hist) merge(other *Hist) {
	if other.Count == 0 {
		return
	}
	if h.Count == 0 || other.Min < h.Min {
		h.Min = other.Min
	}
	if other.Max > h.Max {
		h.Max = other.Max
	}
	h.Count += other.Count
	h.Sum += other.Sum
	for i, n := range other.Buckets {
		h.Buckets[i] += n
	}
}

// LaneSnap describes one lane in a snapshot.
type LaneSnap struct {
	ID      int
	Dropped int64
}

// Snapshot is a point-in-time copy of everything a tracer collected.
type Snapshot struct {
	Epoch    time.Time
	Spans    []Span // all lanes merged, sorted by Start
	Lanes    []LaneSnap
	Counters map[string]int64
	Hists    map[string]Hist
}

// Snapshot copies the tracer's state. It must not run concurrently with
// span recording on acquired lanes — take it between runs, as the CLIs
// do, or after Release. Returns nil on a disabled tracer.
func (t *Tracer) Snapshot() *Snapshot {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &Snapshot{
		Epoch:    t.epoch,
		Counters: make(map[string]int64),
		Hists:    make(map[string]Hist),
	}
	for _, l := range t.lanes {
		s.Lanes = append(s.Lanes, LaneSnap{ID: l.id, Dropped: l.dropped})
		// Ring order: the oldest retained span is at next once wrapped.
		if len(l.spans) == l.cap && l.dropped > 0 {
			s.Spans = append(s.Spans, l.spans[l.next:]...)
			s.Spans = append(s.Spans, l.spans[:l.next]...)
		} else {
			s.Spans = append(s.Spans, l.spans...)
		}
		for name, v := range l.counts {
			s.Counters[name] += v
		}
		for name, h := range l.hists {
			merged := s.Hists[name]
			merged.merge(h)
			s.Hists[name] = merged
		}
	}
	for name, v := range t.counts {
		s.Counters[name] += v
	}
	sort.Slice(s.Spans, func(i, j int) bool { return s.Spans[i].Start < s.Spans[j].Start })
	return s
}

// PhaseWalls returns, per span category, the wall-clock union of the
// category's spans clipped to start at or after mark (a Tracer.Now
// result; 0 means everything). Unlike summing span durations, overlapping
// spans — concurrent workers, pipelined cycles — are counted once, so the
// result is the true elapsed time the phase had work in flight.
func (s *Snapshot) PhaseWalls(mark time.Duration) map[string]time.Duration {
	return phaseWalls(s.Spans, mark)
}

// PhaseWalls is Snapshot().PhaseWalls(mark) at the cost of the spans that
// ended after mark, not of every span the rings retain: a lane records its
// spans as they end, so the ones after mark are the newest of each ring.
// The engine calls it after every run — on a server whose tracer lives as
// long as the process, a snapshot per query would copy and sort a history
// that grows with each query served. Like Snapshot it must not run while
// acquired lanes record. Returns nil on a disabled tracer.
func (t *Tracer) PhaseWalls(mark time.Duration) map[string]time.Duration {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var recent []Span
	for _, l := range t.lanes {
		n := len(l.spans)
		// next is 0 until the ring wraps, then the oldest span's index;
		// either way the newest sits just before it.
		for k := 1; k <= n; k++ {
			sp := l.spans[(l.next-k+n)%n]
			if sp.End() <= mark {
				break
			}
			recent = append(recent, sp)
		}
	}
	return phaseWalls(recent, mark)
}

func phaseWalls(spans []Span, mark time.Duration) map[string]time.Duration {
	type iv struct{ lo, hi time.Duration }
	byCat := make(map[string][]iv)
	for _, sp := range spans {
		lo, hi := sp.Start, sp.End()
		if hi <= mark {
			continue
		}
		if lo < mark {
			lo = mark
		}
		byCat[sp.Cat] = append(byCat[sp.Cat], iv{lo, hi})
	}
	walls := make(map[string]time.Duration, len(byCat))
	for cat, ivs := range byCat {
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		var union time.Duration
		curLo, curHi := ivs[0].lo, ivs[0].hi
		for _, x := range ivs[1:] {
			if x.lo > curHi {
				union += curHi - curLo
				curLo, curHi = x.lo, x.hi
				continue
			}
			if x.hi > curHi {
				curHi = x.hi
			}
		}
		union += curHi - curLo
		walls[cat] = union
	}
	return walls
}
