package mr

import (
	"io"

	"intervaljoin/internal/obs"
)

// Exporter glue: BuildReport marries the tracer's span-level view of a run
// (true per-phase walls) with the engine's Metrics (the serialized model,
// per-reducer loads, the plan) into the obs.Report the CLIs
// write as metrics.json. It lives here rather than in internal/obs because
// obs must not import mr.

// skewTopK is how many stragglers a report's skew table names.
const skewTopK = 10

// BuildReport summarises a traced run. name labels the report (typically
// the algorithm or chain name); m may be a single job's metrics or a chain
// aggregate; t may be nil (untraced run), in which case the report carries
// only the serialized model and skew derived from m.
func BuildReport(name string, t *obs.Tracer, m *Metrics) *obs.Report {
	var snap *obs.Snapshot
	if t.Enabled() {
		snap = t.Snapshot()
	}
	r := obs.NewReport(name, snap)
	if m == nil {
		return r
	}
	r.Model = &obs.SerializedModel{
		Cycles:           m.Cycles,
		FeedNS:           m.FeedWall.Nanoseconds(),
		MapNS:            m.MapWall.Nanoseconds(),
		ReduceNS:         m.ReduceWall.Nanoseconds(),
		TotalNS:          m.TotalWall.Nanoseconds(),
		PipelineNS:       m.PipelineWall.Nanoseconds(),
		OverlapSavedNS:   m.OverlapSaved.Nanoseconds(),
		MakespanLPTNS:    m.MakespanLPT.Nanoseconds(),
		Pairs:            m.IntermediatePairs,
		PhysPairs:        m.PhysicalPairs,
		Bytes:            m.IntermediateBytes,
		PhysBytes:        m.PhysicalBytes,
		SpilledPairs:     m.SpilledPairs,
		OutputRecords:    m.OutputRecords,
		ReplicationFact:  m.ReplicationFactor(),
		StreamedPairs:    m.StreamedPairs,
		DistinctReducers: m.DistinctKeys,
	}
	r.Skew = obs.NewSkewReport(m.ReducerPairs, m.ReducerTime, skewTopK)
	r.Plan = m.Plan
	return r
}

// WriteMetricsJSON writes a run's metrics.json document to w.
func WriteMetricsJSON(w io.Writer, name string, t *obs.Tracer, m *Metrics) error {
	return BuildReport(name, t, m).WriteJSON(w)
}

// WriteChromeTrace writes the tracer's snapshot as a Chrome trace_event
// JSON document to w — loadable in Perfetto or chrome://tracing. A nil
// tracer writes an empty (but valid) trace.
func WriteChromeTrace(w io.Writer, t *obs.Tracer) error {
	var snap *obs.Snapshot
	if t.Enabled() {
		snap = t.Snapshot()
	}
	return obs.WriteChromeTrace(w, snap)
}
