package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (never inside the program under test).
type span struct {
	Name   string
	Op     int // ops share an id across their spans
	Parent int // index of the enclosing span, -1 at the root
	Lane   int // client goroutine, for the Chrome trace's tid
	Start  time.Duration
	End    time.Duration
}

// recorder keeps spans in memory until the run ends. A nil recorder is
// the tracing-off state: begin and end are then a nil check.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its index for end and for children.
func (r *recorder) begin(name string, op, parent, lane int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Op: op, Parent: parent, Lane: lane, Start: now, End: -1})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].End = now
}

// selfTimes returns, per span name, the median over ops of the time spent
// in spans of that name minus the part their child spans cover.
func (r *recorder) selfTimes() map[string]float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	childCover := make([]time.Duration, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 && s.End >= 0 {
			childCover[s.Parent] += s.End - s.Start
		}
	}
	perOp := make(map[string]map[int]time.Duration)
	for i, s := range r.spans {
		if s.End < 0 {
			continue
		}
		m := perOp[s.Name]
		if m == nil {
			m = make(map[int]time.Duration)
			perOp[s.Name] = m
		}
		m[s.Op] += s.End - s.Start - childCover[i]
	}
	out := make(map[string]float64, len(perOp))
	for name, m := range perOp {
		vals := make([]float64, 0, len(m))
		for _, d := range m {
			vals = append(vals, ms(d))
		}
		out[name] = median(vals)
	}
	return out
}

// traceEvent is one Chrome trace_event "complete" record.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeChromeTrace writes the spans as a Perfetto-loadable document.
func (r *recorder) writeChromeTrace(path string) error {
	r.mu.Lock()
	events := make([]traceEvent, 0, len(r.spans))
	for i, s := range r.spans {
		if s.End < 0 {
			continue
		}
		events = append(events, traceEvent{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Lane,
			Ts:   float64(s.Start) / float64(time.Microsecond),
			Dur:  float64(s.End-s.Start) / float64(time.Microsecond),
			Args: map[string]int{"op": s.Op, "span": i, "parent": s.Parent},
		})
	}
	r.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": events}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// waterfallRow is one line of the per-layer breakdown of an op.
type waterfallRow struct {
	Layer string
	MS    float64
	Sub   bool // a split of the row above, not added to the total
}

// printWaterfall prints each layer's self time and its share of the op's
// median latency, then what the rows leave unattributed.
func printWaterfall(w io.Writer, workload string, opP50 float64, rows []waterfallRow) (unattributed float64) {
	fmt.Fprintf(w, "waterfall %s (op_p50 %.3f ms, span recorder on, engine tracer off)\n", workload, opP50)
	var sum float64
	for _, r := range rows {
		name := r.Layer
		if r.Sub {
			name = "  " + name
		} else {
			sum += r.MS
		}
		fmt.Fprintf(w, "  %-26s %10.3f ms %6.1f %%\n", name, r.MS, 100*r.MS/opP50)
	}
	unattributed = opP50 - sum
	fmt.Fprintf(w, "  %-26s %10.3f ms %6.1f %%\n", "unattributed", unattributed, 100*unattributed/opP50)
	return unattributed
}

// sortedKeys returns a map's keys in order, for stable printing.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
