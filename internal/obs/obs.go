// Package obs is the engine's always-compiled observability layer:
// structured execution spans, collected through lock-cheap per-worker ring
// buffers and rendered as Chrome trace_event timelines (chrome://tracing,
// Perfetto), reducer-skew tables, and a machine-readable metrics report.
// The tracer records only spans: every count a report carries comes from
// the engine's mr.Metrics and its partition plan.
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

// Tracer collects spans for one engine. A nil *Tracer is a valid, disabled
// tracer: every method no-ops.
type Tracer struct {
	opts  Options
	epoch time.Time

	mu    sync.Mutex
	lanes []*Lane // every lane ever created, in id order
	free  []*Lane // released lanes available for reuse
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

// Lane is a single-goroutine span collector: a ring buffer of spans,
// merged at snapshot time. A nil *Lane is a valid, disabled lane.
type Lane struct {
	id      int
	epoch   time.Time
	spans   []Span
	next    int // ring write index once len(spans) == cap
	cap     int
	dropped int64
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
// time — a pipeline's barrier event uses it.
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

// LaneSnap describes one lane in a snapshot.
type LaneSnap struct {
	ID      int
	Dropped int64
}

// Snapshot is a point-in-time copy of everything a tracer collected.
type Snapshot struct {
	Epoch time.Time
	Spans []Span // all lanes merged, sorted by Start
	Lanes []LaneSnap
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
	s := &Snapshot{Epoch: t.epoch}
	for _, l := range t.lanes {
		s.Lanes = append(s.Lanes, LaneSnap{ID: l.id, Dropped: l.dropped})
		// Ring order: the oldest retained span is at next once wrapped.
		if len(l.spans) == l.cap && l.dropped > 0 {
			s.Spans = append(s.Spans, l.spans[l.next:]...)
			s.Spans = append(s.Spans, l.spans[:l.next]...)
		} else {
			s.Spans = append(s.Spans, l.spans...)
		}
	}
	sort.Slice(s.Spans, func(i, j int) bool { return s.Spans[i].Start < s.Spans[j].Start })
	return s
}

// PhaseWalls returns, per span category, the wall-clock union of the
// category's spans clipped to start at or after mark (an offset from the
// epoch; 0 means everything). Unlike summing span durations, overlapping
// spans — concurrent workers, pipelined cycles — are counted once, so the
// result is the true elapsed time the phase had work in flight.
func (s *Snapshot) PhaseWalls(mark time.Duration) map[string]time.Duration {
	type iv struct{ lo, hi time.Duration }
	byCat := make(map[string][]iv)
	for _, sp := range s.Spans {
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
