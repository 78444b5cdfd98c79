package mr

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"intervaljoin/internal/obs"
)

// Metrics captures what one job (or an aggregate of chained jobs) cost. The
// paper's evaluation compares algorithms on exactly these axes: intermediate
// key-value pairs generated (communication), number of intervals replicated,
// per-reducer load balance, and end-to-end time.
type Metrics struct {
	Job string
	// Cycles is the number of MR cycles aggregated (1 for a single job).
	Cycles int
	// MapInputRecords counts the records and positions map tasks were handed
	// across inputs.
	MapInputRecords int64
	// IntermediatePairs counts emitted key-value pairs — the map→reduce
	// communication volume. This is the logical count: a range emission
	// addressed to r reducers counts r pairs, exactly what the per-key emit
	// it replaces would have produced.
	IntermediatePairs int64
	// IntermediateBytes approximates the logical shuffled byte volume.
	IntermediateBytes int64
	// PhysicalPairs / PhysicalBytes count what the shuffle actually stored
	// and moved after range coalescing: one record per EmitRange call
	// instead of one per covered key. Equal to the logical counts when no
	// map function emits ranges; the logical/physical ratio is the
	// replication factor the coalescing recovered.
	PhysicalPairs int64
	PhysicalBytes int64
	// DistinctKeys is the number of reduce tasks that received data.
	DistinctKeys int
	// OutputRecords counts records written by reduce tasks.
	OutputRecords int64
	// ReducerPairs maps reduce key -> number of values received.
	ReducerPairs map[int64]int64
	// ReducerTime maps reduce key -> time spent reducing that key.
	ReducerTime map[int64]time.Duration
	// MaxReducerTime is the longest single reduce task — the straggler
	// that determines cluster makespan when each reduce task runs on its
	// own node.
	MaxReducerTime time.Duration
	// MapWall, ReduceWall and TotalWall are local wall-clock phases.
	MapWall, ReduceWall, TotalWall time.Duration
	// FeedWall is the wall-clock time the map phase spent reading input
	// records off the store — the I/O component of MapWall. The feed runs
	// one reader per input file, so this tracks the slowest file, not the
	// sum.
	FeedWall time.Duration
	// TaskRetries counts task attempts that failed transiently and were
	// re-run.
	TaskRetries int64
	// SpilledPairs counts intermediate pairs written to sorted on-store
	// runs by the external shuffle; SpillRuns is the number of runs.
	SpilledPairs int64
	SpillRuns    int
	// CleanupFailures counts the shuffle's spill runs that could not be
	// removed after the job finished. The result is unaffected, but leaked
	// store space is worth surfacing instead of silently dropping.
	CleanupFailures int
	// PipelineWall is the wall-clock of a whole pipelined chain (set on the
	// aggregate returned by RunPipeline; zero on per-cycle metrics). Unlike
	// TotalWall, overlapping cycles are not double counted.
	PipelineWall time.Duration
	// OverlapSaved is the wall-clock recovered by overlapping cycle k's
	// reduce with cycle k+1's map: the sum of per-cycle TotalWall minus
	// PipelineWall.
	OverlapSaved time.Duration
	// StreamedPairs / StreamedBytes count reduce output records that were
	// short-circuited directly into the next cycle's map feed instead of
	// being materialised to the store and re-parsed.
	StreamedPairs int64
	StreamedBytes int64
	// MakespanKeyOrder / MakespanLPT model the reduce phase's makespan on
	// this engine's worker pool under two dispatch orders, using the
	// measured per-task durations: ascending key order (naive FIFO) versus
	// the longest-processing-time-first order the engine actually uses.
	// LPT ≤ key-order; the gap is the straggler tail the ordering shaved.
	MakespanKeyOrder time.Duration
	MakespanLPT      time.Duration
	// Plan carries the skew-adaptive partition plan the driver chose for
	// the run (boundary source, auto-advised k, virtual-reducer layout),
	// exported into metrics.json as the report's "plan" object. Nil when
	// the driver ran the plain always-uniform layout. Merge keeps the
	// first non-nil plan — a chain's cycles share one plan.
	Plan *obs.PlanInfo
}

func newMetrics(job string) *Metrics {
	return &Metrics{
		Job:          job,
		Cycles:       1,
		ReducerPairs: make(map[int64]int64),
		ReducerTime:  make(map[int64]time.Duration),
	}
}

// NewMetrics returns an empty metrics value for external aggregation.
func NewMetrics(job string) *Metrics { return newMetrics(job) }

// Merge accumulates other into m. Reducer maps are merged key-wise by
// summation; this treats the same key in different cycles as the same node.
// Wall-clock fields are summed too — the "serialized model", which prices a
// chain as if its cycles ran back to back. Under pipelined execution cycles
// overlap, so these sums intentionally over-count wall time; the true
// per-phase walls are the tracer's (Snapshot.PhaseWalls), because a union
// over overlapping cycles cannot be recovered by adding per-cycle values.
func (m *Metrics) Merge(other *Metrics) {
	m.MapInputRecords += other.MapInputRecords
	m.IntermediatePairs += other.IntermediatePairs
	m.IntermediateBytes += other.IntermediateBytes
	m.PhysicalPairs += other.PhysicalPairs
	m.PhysicalBytes += other.PhysicalBytes
	m.OutputRecords = other.OutputRecords // the chain's output is the last job's
	m.MapWall += other.MapWall
	m.FeedWall += other.FeedWall
	m.ReduceWall += other.ReduceWall
	m.TotalWall += other.TotalWall
	m.MaxReducerTime += other.MaxReducerTime // stragglers serialise across cycles
	m.Cycles += other.Cycles
	m.TaskRetries += other.TaskRetries
	m.SpilledPairs += other.SpilledPairs
	m.SpillRuns += other.SpillRuns
	m.CleanupFailures += other.CleanupFailures
	m.PipelineWall += other.PipelineWall
	m.OverlapSaved += other.OverlapSaved
	m.StreamedPairs += other.StreamedPairs
	m.StreamedBytes += other.StreamedBytes
	m.MakespanKeyOrder += other.MakespanKeyOrder // cycles serialise
	m.MakespanLPT += other.MakespanLPT
	if m.Plan == nil {
		m.Plan = other.Plan
	}
	for k, v := range other.ReducerPairs {
		m.ReducerPairs[k] += v
	}
	for k, v := range other.ReducerTime {
		m.ReducerTime[k] += v
	}
	if len(m.ReducerPairs) > m.DistinctKeys {
		m.DistinctKeys = len(m.ReducerPairs)
	}
}

// ReplicationFactor is IntermediatePairs / PhysicalPairs — the average
// number of reducers each physically shuffled record addressed, i.e. the
// mean width of an emission, a point emission counting one. 1.0 means no
// range emission coalesced anything.
func (m *Metrics) ReplicationFactor() float64 {
	if m.PhysicalPairs == 0 {
		return 1
	}
	return float64(m.IntermediatePairs) / float64(m.PhysicalPairs)
}

// MaxReducerPairs returns the heaviest reducer's pair count.
func (m *Metrics) MaxReducerPairs() int64 {
	var max int64
	for _, v := range m.ReducerPairs {
		if v > max {
			max = v
		}
	}
	return max
}

// MeanReducerPairs returns the average pair count over reducers that
// received any data.
func (m *Metrics) MeanReducerPairs() float64 {
	if len(m.ReducerPairs) == 0 {
		return 0
	}
	var sum int64
	for _, v := range m.ReducerPairs {
		sum += v
	}
	return float64(sum) / float64(len(m.ReducerPairs))
}

// LoadImbalance is max/mean of per-reducer pair counts: 1.0 is perfectly
// balanced; large values indicate a straggler (the paper's Figure 4
// motivation for All-Matrix).
func (m *Metrics) LoadImbalance() float64 {
	mean := m.MeanReducerPairs()
	if mean == 0 {
		return 1
	}
	return float64(m.MaxReducerPairs()) / mean
}

// SimulatedMakespan models execution on a cluster with one node per reduce
// task: the map phase is embarrassingly parallel (ignored), every reduce
// task runs concurrently, so the job finishes when the slowest reduce task
// does. For chained jobs, cycle stragglers add up.
func (m *Metrics) SimulatedMakespan() time.Duration { return m.MaxReducerTime }

// listMakespan models greedy list scheduling: tasks are dispatched in the
// given order, each to the worker that frees up first, and the makespan is
// the time the last worker finishes. This is how the engine's reduce pool
// behaves, so feeding it measured task durations in two different orders
// quantifies what a dispatch ordering is worth.
func listMakespan(durations []time.Duration, workers int) time.Duration {
	if workers < 1 {
		workers = 1
	}
	free := make([]time.Duration, workers)
	for _, d := range durations {
		wi := 0
		for i := 1; i < workers; i++ {
			if free[i] < free[wi] {
				wi = i
			}
		}
		free[wi] += d
	}
	var span time.Duration
	for _, f := range free {
		if f > span {
			span = f
		}
	}
	return span
}

// ReducerLoadVector returns per-reducer pair counts sorted by key — the load
// distribution plotted in Figure 4.
func (m *Metrics) ReducerLoadVector() []int64 {
	keys := make([]int64, 0, len(m.ReducerPairs))
	for k := range m.ReducerPairs {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	out := make([]int64, len(keys))
	for i, k := range keys {
		out[i] = m.ReducerPairs[k]
	}
	return out
}

// String renders a one-line summary.
func (m *Metrics) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: cycles=%d in=%d pairs=%d keys=%d out=%d wall=%s makespan=%s imbalance=%.2f",
		m.Job, m.Cycles, m.MapInputRecords, m.IntermediatePairs, m.DistinctKeys,
		m.OutputRecords, m.TotalWall.Round(time.Millisecond),
		m.SimulatedMakespan().Round(time.Millisecond), m.LoadImbalance())
	if m.PhysicalPairs > 0 && m.PhysicalPairs != m.IntermediatePairs {
		fmt.Fprintf(&b, " phys=%d repl=%.1fx", m.PhysicalPairs, m.ReplicationFactor())
	}
	if m.PipelineWall > 0 {
		fmt.Fprintf(&b, " pipeline=%s overlap=%s streamed=%d",
			m.PipelineWall.Round(time.Millisecond),
			m.OverlapSaved.Round(time.Millisecond), m.StreamedPairs)
	}
	return b.String()
}
