package obs

import (
	"encoding/json"
	"io"
)

// The metrics report is the machine-readable summary of a traced run:
// per-phase wall breakdowns (true unions from the tracer next to the
// engine's additive serialized-model sums), the reducer-skew report and the
// partition plan. It is what -metrics writes on the CLIs and what
// ijoind serves at /stats, so the field names here are a stable
// interchange format.

// PhaseStats is one phase category's time accounting.
type PhaseStats struct {
	// WallNS is the true wall-clock union of the phase's spans:
	// overlapping workers and pipelined cycles count once.
	WallNS int64 `json:"wall_ns"`
	// BusyNS sums the phase's span durations: total work performed, which
	// exceeds WallNS by the phase's average parallelism.
	BusyNS int64 `json:"busy_ns"`
	// Spans is the number of spans recorded in the phase.
	Spans int `json:"spans"`
}

// SerializedModel carries the engine's additive per-cycle Metrics sums —
// the "as if cycles ran back to back" accounting that Metrics.Merge has
// always produced. Under pipelining these sums double-count overlapped
// time; the Phases map holds the true unions alongside.
type SerializedModel struct {
	Cycles           int     `json:"cycles"`
	FeedNS           int64   `json:"feed_ns"`
	MapNS            int64   `json:"map_ns"`
	ReduceNS         int64   `json:"reduce_ns"`
	TotalNS          int64   `json:"total_ns"`
	PipelineNS       int64   `json:"pipeline_ns,omitempty"`
	OverlapSavedNS   int64   `json:"overlap_saved_ns,omitempty"`
	MakespanLPTNS    int64   `json:"makespan_lpt_ns,omitempty"`
	Pairs            int64   `json:"pairs"`
	PhysPairs        int64   `json:"phys_pairs"`
	Bytes            int64   `json:"bytes"`
	PhysBytes        int64   `json:"phys_bytes"`
	SpilledPairs     int64   `json:"spilled_pairs,omitempty"`
	OutputRecords    int64   `json:"output_records"`
	ReplicationFact  float64 `json:"replication_factor"`
	StreamedPairs    int64   `json:"streamed_pairs,omitempty"`
	DistinctReducers int     `json:"distinct_reducers"`
}

// PlanInfo records the partition plan a driver chose for a run: how many
// partitions, where the boundaries came from (uniform vs equi-depth
// histogram), whether the partition count itself was auto-advised, and how
// the virtual-reducer splitter expanded the key space. It is the
// machine-readable trail of the skew-adaptive planner, so `-partitions
// auto` and `-adaptive` runs are auditable from metrics.json alone.
type PlanInfo struct {
	// Partitions is the physical partition-interval count k.
	Partitions int `json:"partitions"`
	// BoundarySource is "uniform" or "equi-depth"; empty for a run joined
	// in line, which partitions nothing.
	BoundarySource string `json:"boundary_source"`
	// AutoK reports whether k was chosen by cost.AdvisePartitions.
	AutoK bool `json:"auto_k,omitempty"`
	// VirtualReducers is the total reduce-key count after splitting
	// (equals Partitions when nothing was split).
	VirtualReducers int `json:"virtual_reducers"`
	// SplitPartitions counts partitions expanded into >1 virtual reducer.
	SplitPartitions int `json:"split_partitions,omitempty"`
	// Streams is the cell-cover dimensionality (input streams per join).
	Streams int `json:"streams,omitempty"`
	// SplitThreshold is the load/mean ratio beyond which a partition is
	// split; MaxVirtual caps the per-partition virtual-reducer count.
	SplitThreshold float64 `json:"split_threshold,omitempty"`
	MaxVirtual     int     `json:"max_virtual,omitempty"`
	// Broadcast lists, in the order they were taken, the relations the
	// planner took out of a product space's grid: each is joined whole in
	// every reducer instead of being shuffled along a dimension of its own.
	// A product driver reports a plan only when it took one or skipped the
	// marking (Reach); Partitions is then the count per dimension and
	// VirtualReducers the consistent cells left.
	Broadcast []Broadcast `json:"broadcast,omitempty"`
	// Reach lists, for each dimension of the join space, the rule under
	// which the planner joined in one cycle without marking which intervals
	// cross a partition boundary. It is empty when the marking ran.
	Reach []Reach `json:"reach,omitempty"`
	// InLine is set when the run joined in the caller, with no job: one
	// reducer holding every relation whole.
	InLine *InLine `json:"in_line,omitempty"`
}

// InLine is a run joined in line: Tuples, the query's relation sizes summed;
// Stretches, the stretches of its first relation's tuples, in start order,
// that the engine's workers took in turn to walk; and Ranges, the ranges of
// the first relation's ids its rows were filed under, each ordered alone into
// its stretch of the result. Both are 1 when one goroutine did it all.
type InLine struct {
	Tuples    int64 `json:"tuples"`
	Stretches int   `json:"stretches"`
	Ranges    int   `json:"ranges"`
}

// Reach is one dimension the planner joins without a mark cycle. Every
// tuple on it is split over its interval extended Reach = max(m−2, 0) ×
// Longest past its end, m the vertices on the dimension and Longest the
// longest interval among their relations: no row's right-most start lies
// further from any member's end. The rule that chose it is Span = Longest +
// Reach ≤ Width, the narrowest partition, so that no tuple lands in more
// than two partitions.
type Reach struct {
	Vertices int   `json:"vertices"`
	Longest  int64 `json:"longest"`
	Reach    int64 `json:"reach"`
	Span     int64 `json:"span"`
	Width    int64 `json:"width"`
}

// Broadcast is one relation the planner sends whole to every reducer, with
// both sides of the rule that chose it: ShipPairs = |R| × c, c the
// consistent cells of the space without R's dimension, is no more than
// OtherTuples, the tuples of every other relation of the query.
type Broadcast struct {
	Relation    string `json:"relation"`
	ShipPairs   int64  `json:"ship_pairs"`
	OtherTuples int64  `json:"other_tuples"`
}

// CacheReport summarises the semantic segment cache over the queries a
// service has answered: the hit accounting ijoind reports at /stats and
// flushes with -metrics. Span ratios are over closed window lengths, so
// HitRatio is the fraction of requested time range served from cache
// rather than a per-query coin flip.
type CacheReport struct {
	// Lookups, FullHits, PartialHits and Misses count queries by how much
	// of their window the cache covered (all / some / none).
	Lookups     int64 `json:"lookups"`
	FullHits    int64 `json:"full_hits"`
	PartialHits int64 `json:"partial_hits"`
	Misses      int64 `json:"misses"`
	// HitSegments counts cached segments merged into answers.
	HitSegments int64 `json:"hit_segments"`
	// CachedRows / DeltaRows split answer rows by provenance: merged from
	// cached segments vs computed by delta-window joins.
	CachedRows int64 `json:"cached_rows"`
	DeltaRows  int64 `json:"delta_rows"`
	// SpanRequested / SpanCovered accumulate closed window lengths; their
	// ratio is the semantic hit ratio.
	SpanRequested int64   `json:"span_requested"`
	SpanCovered   int64   `json:"span_covered"`
	HitRatio      float64 `json:"hit_ratio"`
	// Insertions / Evictions / BytesInUse / BytesBudget describe the
	// byte-budgeted LRU.
	Insertions  int64 `json:"insertions"`
	Evictions   int64 `json:"evictions"`
	BytesInUse  int64 `json:"bytes_in_use"`
	BytesBudget int64 `json:"bytes_budget"`
}

// Report is the metrics.json document.
type Report struct {
	Name         string                `json:"name"`
	Algorithm    string                `json:"algorithm,omitempty"`
	Phases       map[string]PhaseStats `json:"phases,omitempty"`
	Model        *SerializedModel      `json:"serialized,omitempty"`
	Skew         *SkewReport           `json:"skew,omitempty"`
	Plan         *PlanInfo             `json:"plan,omitempty"`
	Cache        *CacheReport          `json:"cache,omitempty"`
	Lanes        int                   `json:"lanes"`
	DroppedSpans int64                 `json:"dropped_spans,omitempty"`
}

// NewReport summarises a snapshot: phase stats from the spans. The
// serialized model, skew report and plan are the engine's to fill
// (mr.BuildReport), since they come from Metrics, not from spans. A nil
// snapshot yields an empty named report.
func NewReport(name string, s *Snapshot) *Report {
	r := &Report{Name: name}
	if s == nil {
		return r
	}
	r.Lanes = len(s.Lanes)
	for _, l := range s.Lanes {
		r.DroppedSpans += l.Dropped
	}
	walls := s.PhaseWalls(0)
	r.Phases = make(map[string]PhaseStats, len(walls))
	for _, sp := range s.Spans {
		ps := r.Phases[sp.Cat]
		ps.BusyNS += sp.Dur.Nanoseconds()
		ps.Spans++
		r.Phases[sp.Cat] = ps
	}
	for cat, wall := range walls {
		ps := r.Phases[cat]
		ps.WallNS = wall.Nanoseconds()
		r.Phases[cat] = ps
	}
	return r
}

// WriteJSON writes the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}
