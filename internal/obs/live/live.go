// Package live is the engine's service-facing telemetry layer: a
// stdlib-only, lock-free metrics registry whose series are scraped over
// HTTP in the Prometheus text exposition format (v0.0.4).
//
// Where the parent obs package records *per-run* execution spans for
// post-mortem analysis, live holds *cumulative* process-lifetime series —
// counters, gauges, and histograms with snapshot quantiles — that a
// long-running service (cmd/ijoind, and the coming master/worker split)
// exposes on GET /metrics. The design rules:
//
//   - The hot path is lock-free: counters, gauges and histogram buckets
//     are plain atomics; the only mutexes guard registration and labeled
//     series creation, which happen at startup or at worst once per new
//     label value.
//   - Disabled telemetry costs a nil check and zero allocations: every
//     method is safe on a nil *Registry, nil metric handle, or nil vec,
//     mirroring the parent package's nil-tracer contract.
//     TestLiveDisabledZeroCost pins this.
//   - Metric names are validated strictly at registration (and the
//     metricname ijlint analyzer additionally demands literal, ij_-prefixed
//     names at every call site), so a scrape can never emit a series the
//     exposition format rejects.
//
// Snapshots are mergeable (counters and histograms sum, gauges add),
// which is what a master aggregating worker scrapes will need.
package live

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// ValidName reports whether s is a valid Prometheus metric name:
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func ValidName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// ValidLabel reports whether s is a valid Prometheus label name:
// [a-zA-Z_][a-zA-Z0-9_]*. Names starting with __ are reserved.
func ValidLabel(s string) bool {
	if s == "" || strings.HasPrefix(s, "__") {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// Metric family types, as exposed on the TYPE line.
const (
	TypeCounter   = "counter"
	TypeGauge     = "gauge"
	TypeHistogram = "histogram"
)

// Registry holds metric families and hands out their series handles. A
// nil *Registry is a valid, disabled registry: every constructor returns
// a nil handle (itself a valid no-op), Snapshot returns nil, and OnCollect
// does nothing.
type Registry struct {
	mu         sync.Mutex
	byName     map[string]*family
	collectors []func()
}

// NewRegistry returns an empty, enabled registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// family is one registered metric family: a name/help/type triple plus
// its series children (one for unlabeled metrics, one per label-value
// combination for vecs).
type family struct {
	name   string
	help   string
	typ    string
	labels []string

	mu    sync.Mutex
	byKey map[string]*child
	order []*child
}

// child is one concrete series of a family.
type child struct {
	labelVals []string
	counter   *Counter
	gauge     *Gauge
	fgauge    *FloatGauge
	hist      *Hist
	latency   *LatencyHist
}

// register panics on an invalid or duplicate name — registration happens
// at startup, and a bad metric name must fail loudly, not at scrape time.
func (r *Registry) register(name, help, typ string, labels []string) *family {
	if !ValidName(name) {
		panic(fmt.Sprintf("live: invalid metric name %q", name))
	}
	if help == "" {
		panic(fmt.Sprintf("live: metric %s has no help string", name))
	}
	for _, l := range labels {
		if !ValidLabel(l) {
			panic(fmt.Sprintf("live: metric %s has invalid label name %q", name, l))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[name]; dup {
		panic(fmt.Sprintf("live: metric %s registered twice", name))
	}
	f := &family{name: name, help: help, typ: typ, labels: labels, byKey: make(map[string]*child)}
	r.byName[name] = f
	return f
}

// Counter registers and returns an unlabeled counter. Panics on an
// invalid or duplicate name; nil registries return a nil (no-op) handle.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	f := r.register(name, help, TypeCounter, nil)
	c := &Counter{}
	f.addChild(nil, &child{counter: c})
	return c
}

// Gauge registers and returns an unlabeled integer gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	f := r.register(name, help, TypeGauge, nil)
	g := &Gauge{}
	f.addChild(nil, &child{gauge: g})
	return g
}

// FloatGauge registers and returns an unlabeled float gauge (ratios,
// fractions).
func (r *Registry) FloatGauge(name, help string) *FloatGauge {
	if r == nil {
		return nil
	}
	f := r.register(name, help, TypeGauge, nil)
	g := &FloatGauge{}
	f.addChild(nil, &child{fgauge: g})
	return g
}

// Hist registers and returns a power-of-two histogram of int64 samples
// (pair counts, window spans): bucket i holds 2^(i-1) <= v < 2^i, matching
// the parent obs package's bucketing.
func (r *Registry) Hist(name, help string) *Hist {
	if r == nil {
		return nil
	}
	f := r.register(name, help, TypeHistogram, nil)
	h := &Hist{}
	f.addChild(nil, &child{hist: h})
	return h
}

// Latency registers and returns a latency histogram observing seconds
// over fixed exponential bounds, with p50/p95/p99 available from its
// snapshot.
func (r *Registry) Latency(name, help string) *LatencyHist {
	if r == nil {
		return nil
	}
	f := r.register(name, help, TypeHistogram, nil)
	h := &LatencyHist{}
	f.addChild(nil, &child{latency: h})
	return h
}

// CounterVec registers a labeled counter family; series are created by
// With. Panics unless at least one label name is given.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	if len(labels) == 0 {
		panic(fmt.Sprintf("live: counter vec %s needs at least one label", name))
	}
	return &CounterVec{fam: r.register(name, help, TypeCounter, labels)}
}

// GaugeVec registers a labeled gauge family; series are created by With.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	if len(labels) == 0 {
		panic(fmt.Sprintf("live: gauge vec %s needs at least one label", name))
	}
	return &GaugeVec{fam: r.register(name, help, TypeGauge, labels)}
}

// LatencyVec registers a labeled latency-histogram family; series are
// created by With.
func (r *Registry) LatencyVec(name, help string, labels ...string) *LatencyVec {
	if r == nil {
		return nil
	}
	if len(labels) == 0 {
		panic(fmt.Sprintf("live: latency vec %s needs at least one label", name))
	}
	return &LatencyVec{fam: r.register(name, help, TypeHistogram, labels)}
}

// OnCollect registers fn to run at the start of every Snapshot — the hook
// that bridges pull-model stats (cache accounting, runtime stats) into
// gauges right before a scrape.
func (r *Registry) OnCollect(fn func()) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	r.collectors = append(r.collectors, fn)
	r.mu.Unlock()
}

// addChild links a series into the family. Label values arrive validated
// by the vec lookup.
func (f *family) addChild(vals []string, c *child) {
	c.labelVals = vals
	f.mu.Lock()
	f.byKey[labelKey(vals)] = c
	f.order = append(f.order, c)
	f.mu.Unlock()
}

// labelKey joins label values into a map key; \xff cannot appear in a
// validated label value's UTF-8.
func labelKey(vals []string) string { return strings.Join(vals, "\xff") }

// lookup returns the child for the label values, creating it via mk on
// first use.
func (f *family) lookup(vals []string, mk func() *child) *child {
	if len(vals) != len(f.labels) {
		panic(fmt.Sprintf("live: metric %s wants %d label values, got %d", f.name, len(f.labels), len(vals)))
	}
	key := labelKey(vals)
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.byKey[key]; ok {
		return c
	}
	c := mk()
	c.labelVals = append([]string(nil), vals...)
	f.byKey[key] = c
	f.order = append(f.order, c)
	return c
}

// CounterVec is a labeled counter family.
type CounterVec struct{ fam *family }

// With returns the counter for the given label values, creating the
// series on first use. Nil vecs return a nil (no-op) counter. Hot paths
// should resolve their handles once at startup, not per operation.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.fam.lookup(values, func() *child { return &child{counter: &Counter{}} }).counter
}

// GaugeVec is a labeled gauge family.
type GaugeVec struct{ fam *family }

// With returns the gauge for the given label values, creating the series
// on first use. Nil vecs return a nil (no-op) gauge.
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil {
		return nil
	}
	return v.fam.lookup(values, func() *child { return &child{gauge: &Gauge{}} }).gauge
}

// LatencyVec is a labeled latency-histogram family.
type LatencyVec struct{ fam *family }

// With returns the latency histogram for the given label values, creating
// the series on first use. Nil vecs return a nil (no-op) histogram.
func (v *LatencyVec) With(values ...string) *LatencyHist {
	if v == nil {
		return nil
	}
	return v.fam.lookup(values, func() *child { return &child{latency: &LatencyHist{}} }).latency
}

// Counter is a monotonically increasing series. All methods are safe on a
// nil receiver and safe for concurrent use.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n; negative deltas are ignored (counters are monotone).
func (c *Counter) Add(n int64) {
	if c != nil && n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a series that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adds n (negative to subtract).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// FloatGauge is a float-valued gauge (ratios); stored as math.Float64bits
// in a uint64 atomic.
type FloatGauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *FloatGauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the current value.
func (g *FloatGauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// ---- snapshots ----

// Label is one name=value pair on a series.
type Label struct {
	Name  string
	Value string
}

// Series is one series in a snapshot: either a scalar Value
// (counter/gauge) or histogram data.
type Series struct {
	Labels []Label
	Value  float64
	Hist   *HistData
}

// Family is one metric family in a snapshot.
type Family struct {
	Name   string
	Help   string
	Type   string
	Series []Series
}

// Snapshot is a point-in-time copy of every registered series, ordered by
// family name and series label values — deterministic, so exposition
// output is stable and diffable.
type Snapshot struct {
	Families []Family
}

// Snapshot runs the collectors, then copies every family. Returns nil on
// a disabled registry.
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	collectors := append([]func(){}, r.collectors...)
	r.mu.Unlock()
	for _, fn := range collectors {
		fn()
	}
	r.mu.Lock()
	fams := make([]*family, 0, len(r.byName))
	for _, f := range r.byName {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	s := &Snapshot{Families: make([]Family, 0, len(fams))}
	for _, f := range fams {
		s.Families = append(s.Families, f.snapshot())
	}
	return s
}

func (f *family) snapshot() Family {
	f.mu.Lock()
	children := append([]*child(nil), f.order...)
	f.mu.Unlock()
	sort.Slice(children, func(i, j int) bool {
		return labelKey(children[i].labelVals) < labelKey(children[j].labelVals)
	})
	out := Family{Name: f.name, Help: f.help, Type: f.typ}
	for _, c := range children {
		s := Series{}
		for i, v := range c.labelVals {
			s.Labels = append(s.Labels, Label{Name: f.labels[i], Value: v})
		}
		switch {
		case c.counter != nil:
			s.Value = float64(c.counter.Value())
		case c.gauge != nil:
			s.Value = float64(c.gauge.Value())
		case c.fgauge != nil:
			s.Value = c.fgauge.Value()
		case c.hist != nil:
			s.Hist = c.hist.snapshot()
		case c.latency != nil:
			s.Hist = c.latency.snapshot()
		}
		out.Series = append(out.Series, s)
	}
	return out
}

// Merge accumulates other into s: families match by name, series by label
// set. Counters and histograms sum; gauges add too (inflight across
// workers aggregates additively — a max-merging consumer can recompute
// from per-worker snapshots). Families or series only present in other
// are appended.
func (s *Snapshot) Merge(other *Snapshot) {
	if s == nil || other == nil {
		return
	}
	byName := make(map[string]int, len(s.Families))
	for i, f := range s.Families {
		byName[f.Name] = i
	}
	for _, of := range other.Families {
		i, ok := byName[of.Name]
		if !ok {
			s.Families = append(s.Families, of)
			continue
		}
		f := &s.Families[i]
		byKey := make(map[string]int, len(f.Series))
		for j, sr := range f.Series {
			byKey[seriesKey(sr.Labels)] = j
		}
		for _, osr := range of.Series {
			j, ok := byKey[seriesKey(osr.Labels)]
			if !ok {
				f.Series = append(f.Series, osr)
				continue
			}
			sr := &f.Series[j]
			if sr.Hist != nil || osr.Hist != nil {
				if sr.Hist == nil {
					sr.Hist = osr.Hist
				} else {
					sr.Hist.merge(osr.Hist)
				}
				continue
			}
			sr.Value += osr.Value
		}
	}
	sort.Slice(s.Families, func(i, j int) bool { return s.Families[i].Name < s.Families[j].Name })
}

func seriesKey(labels []Label) string {
	var b strings.Builder
	for _, l := range labels {
		b.WriteString(l.Name)
		b.WriteByte('\xfe')
		b.WriteString(l.Value)
		b.WriteByte('\xff')
	}
	return b.String()
}

// Family returns the named family, or nil.
func (s *Snapshot) Family(name string) *Family {
	if s == nil {
		return nil
	}
	for i := range s.Families {
		if s.Families[i].Name == name {
			return &s.Families[i]
		}
	}
	return nil
}
