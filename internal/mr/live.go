package mr

import "intervaljoin/internal/obs/live"

// LiveSet is the engine's bridge into a live telemetry registry: the
// cumulative ij_engine_* series a long-running service exposes on
// /metrics. Per-run *Metrics stay the detailed post-mortem record; a
// LiveSet folds each finished run's counters into process-lifetime
// totals. A nil *LiveSet (disabled telemetry) publishes nothing at the
// cost of one nil check, matching the obs layer's contract.
type LiveSet struct {
	runs            *live.Counter
	cycles          *live.Counter
	mapInput        *live.Counter
	pairs           *live.Counter
	physPairs       *live.Counter
	bytes           *live.Counter
	physBytes       *live.Counter
	output          *live.Counter
	spilledPairs    *live.Counter
	spillRuns       *live.Counter
	cleanupFailures *live.Counter
	reducePairs     *live.Hist
}

// NewLiveSet registers the engine's live series on r and returns the
// publishing handle. A nil registry yields a nil (no-op) set.
func NewLiveSet(r *live.Registry) *LiveSet {
	if r == nil {
		return nil
	}
	return &LiveSet{
		runs:            r.Counter("ij_engine_runs_total", "engine runs completed (delta joins and cold runs)"),
		cycles:          r.Counter("ij_engine_cycles_total", "MapReduce cycles executed"),
		mapInput:        r.Counter("ij_engine_map_input_records_total", "records read by map tasks"),
		pairs:           r.Counter("ij_engine_intermediate_pairs_total", "logical map-to-reduce key-value pairs (communication volume)"),
		physPairs:       r.Counter("ij_engine_physical_pairs_total", "physically shuffled records after range coalescing"),
		bytes:           r.Counter("ij_engine_intermediate_bytes_total", "logical shuffled bytes"),
		physBytes:       r.Counter("ij_engine_physical_bytes_total", "physically shuffled bytes after range coalescing"),
		output:          r.Counter("ij_engine_output_records_total", "records written by reduce tasks"),
		spilledPairs:    r.Counter("ij_engine_spilled_pairs_total", "intermediate pairs written to sorted on-store spill runs"),
		spillRuns:       r.Counter("ij_engine_spill_runs_total", "sorted spill runs written by the external shuffle"),
		cleanupFailures: r.Counter("ij_engine_cleanup_failures_total", "spill runs that could not be removed from the store after a job"),
		reducePairs:     r.Hist("ij_engine_reduce_task_pairs", "values received per reduce task, across runs"),
	}
}

// Publish folds one finished run's metrics into the live series. Safe on
// a nil set or nil metrics.
func (s *LiveSet) Publish(m *Metrics) {
	if s == nil || m == nil {
		return
	}
	s.runs.Inc()
	s.cycles.Add(int64(m.Cycles))
	s.mapInput.Add(m.MapInputRecords)
	s.pairs.Add(m.IntermediatePairs)
	s.physPairs.Add(m.PhysicalPairs)
	s.bytes.Add(m.IntermediateBytes)
	s.physBytes.Add(m.PhysicalBytes)
	s.output.Add(m.OutputRecords)
	s.spilledPairs.Add(m.SpilledPairs)
	s.spillRuns.Add(int64(m.SpillRuns))
	s.cleanupFailures.Add(int64(m.CleanupFailures))
	for _, n := range m.ReducerPairs {
		s.reducePairs.Observe(n)
	}
}
