package cost

import (
	"math"

	"intervaljoin/internal/interval"
)

// Virtual-reducer planning: once boundaries are fixed, the remaining skew
// lives inside single partition-intervals — a burst of starts (or a few
// very long intervals replicated everywhere) can make one reducer's
// candidate list dwarf the mean no matter where the boundaries sit. The
// planner estimates each partition's load from an interval sample and
// recommends splitting the hot ones into V balanced virtual reducers,
// 1-Bucket-Theta style (Okcan & Riedewald; see PAPERS.md): the driver
// covers a split partition with a cell grid over its input streams so
// every output assignment still meets at exactly one (virtual) reducer.

// PartitionLoads estimates, per partition, the number of interval replicas
// a reducer for that partition would receive: each sampled interval
// contributes scale to every partition it overlaps (its Split range —
// the footprint both the projected and the replicated routing operators
// are bounded by). scale is the sample's inverse sampling rate
// (population/sample); pass 1 when the sample is the whole input.
//
// Reducer work grows at least linearly — and for joins superlinearly —
// in this count, so it is a conservative split criterion that needs no
// selectivity model.
func PartitionLoads(sample []interval.Interval, part interval.Partitioning, scale float64) []float64 {
	loads := make([]float64, part.Len())
	if scale <= 0 {
		scale = 1
	}
	for _, iv := range sample {
		first, last := part.Split(iv)
		for p := first; p <= last; p++ {
			loads[p] += scale
		}
	}
	return loads
}

// PairLoads refines replica-count loads into expected candidate-pair
// counts per partition: a reducer's join work is quadratic in its input,
// discounted by the local match probability, which for the Allen
// predicates scales with interval length over partition width. Narrow
// partitions — exactly what equi-depth boundaries produce over a dense
// region — therefore hold more work per input replica, which a linear
// count misses: under equi-depth every partition holds the same count and
// only the pair estimate still separates hot from cold. meanLength <= 0
// skips the density discount and returns plain count².
func PairLoads(loads []float64, part interval.Partitioning, meanLength float64) []float64 {
	pairs := make([]float64, len(loads))
	for i, l := range loads {
		pairs[i] = l * l
		if meanLength <= 0 {
			continue
		}
		iv := part.PartitionInterval(i)
		width := float64(uint64(iv.End)-uint64(iv.Start)) + 1
		if p := meanLength / width; p < 1 {
			pairs[i] *= p
		}
	}
	return pairs
}

// RecommendSplits turns per-partition load estimates into per-partition
// virtual-reducer counts: the smallest counts (each between 1 and
// maxSplit) under which no virtual reducer's share load/v exceeds
// threshold× the mean load per virtual reducer. Splitting a partition
// adds reduce keys and so lowers that mean, which can demand further
// splitting — the fixed point is reached by iterating the per-partition
// rule v = ceil(load / (threshold · total/Σv)); counts only grow, so the
// iteration converges (the maxSplit cap bounds it). threshold <= 0
// selects the default of 1.25; maxSplit <= 0 the default of 8. The
// returned slice always has len(loads) entries, each >= 1.
func RecommendSplits(loads []float64, threshold float64, maxSplit int) []int {
	if threshold <= 0 {
		threshold = DefaultSplitThreshold
	}
	if maxSplit <= 0 {
		maxSplit = DefaultMaxVirtual
	}
	counts := make([]int, len(loads))
	keys := len(loads)
	for i := range counts {
		counts[i] = 1
	}
	var total float64
	for _, l := range loads {
		total += l
	}
	if len(loads) == 0 || total == 0 {
		return counts
	}
	for {
		limit := threshold * total / float64(keys) // per-virtual-reducer budget
		grown := false
		for i, l := range loads {
			v := int(math.Ceil(l / limit))
			if v > maxSplit {
				v = maxSplit
			}
			if v > counts[i] {
				keys += v - counts[i]
				counts[i] = v
				grown = true
			}
		}
		if !grown {
			return counts
		}
	}
}

// Planner defaults: split a partition once its projected load exceeds
// 1.25× the mean (the acceptance target is max/mean <= 1.5, so acting at
// 1.25 leaves headroom for estimation error), and never fan one partition
// out beyond 8 virtual reducers — past that the replicated-side fan-out
// costs more shuffle than the balance buys.
const (
	DefaultSplitThreshold = 1.25
	DefaultMaxVirtual     = 8
)
