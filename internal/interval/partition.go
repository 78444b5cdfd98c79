package interval

import (
	"fmt"
	"slices"
	"sort"
)

// Partitioning divides a time range [T0, Tn) into contiguous partition-
// intervals p_0, p_1, ..., p_{l-1}. Partition p_i covers [bounds[i],
// bounds[i+1]) — half-open, as in Section 3 of the paper — so every point of
// the range belongs to exactly one partition. Partition indices double as
// reducer ids for the single-dimensional algorithms, and as per-dimension
// coordinates for the matrix algorithms.
type Partitioning struct {
	bounds []Point // len = numPartitions + 1; strictly increasing
}

// NewUniform builds a partitioning of [t0, tn) into n equal-width partitions
// (the last partition absorbs any remainder when the range does not divide
// evenly). It panics if n < 1 or tn <= t0.
func NewUniform(t0, tn Point, n int) Partitioning {
	p, err := MakeUniform(t0, tn, n)
	if err != nil {
		panic(err)
	}
	return p
}

// MakeUniform is the checked variant of NewUniform.
func MakeUniform(t0, tn Point, n int) (Partitioning, error) {
	if n < 1 {
		return Partitioning{}, fmt.Errorf("interval: partitioning needs at least 1 partition, got %d", n)
	}
	if tn <= t0 {
		return Partitioning{}, fmt.Errorf("interval: empty time range [%d, %d)", t0, tn)
	}
	// The span is counted in uint64: tn − t0 passes MaxInt64 when the
	// range holds more than half of the time line.
	span := uint64(tn) - uint64(t0)
	if uint64(n) > span {
		// More partitions than points: cap so every partition is non-empty.
		n = int(span)
	}
	width := span / uint64(n)
	bounds := make([]Point, n+1)
	for i := 0; i < n; i++ {
		bounds[i] = Point(uint64(t0) + uint64(i)*width)
	}
	bounds[n] = tn
	return Partitioning{bounds: bounds}, nil
}

// NewEquiDepth builds a partitioning of [t0, tn) into at most n partitions
// whose boundaries are quantiles of the sample points, so each partition
// receives a similar number of interval start points even when the data is
// skewed. Duplicate quantiles collapse (heavily repeated points cannot be
// split), so the result may have fewer than n partitions. The sample is
// typically the start points of the staged relations, mirroring the
// sampling pass a Hadoop driver would run.
func NewEquiDepth(t0, tn Point, n int, sample []Point) (Partitioning, error) {
	if len(sample) == 0 {
		return MakeUniform(t0, tn, n)
	}
	if n < 1 {
		return Partitioning{}, fmt.Errorf("interval: partitioning needs at least 1 partition, got %d", n)
	}
	if tn <= t0 {
		return Partitioning{}, fmt.Errorf("interval: empty time range [%d, %d)", t0, tn)
	}
	sorted := make([]Point, len(sample))
	copy(sorted, sample)
	slices.Sort(sorted)
	bounds := make([]Point, 0, n+1)
	bounds = append(bounds, t0)
	for i := 1; i < n; i++ {
		q := sorted[len(sorted)*i/n]
		if q <= bounds[len(bounds)-1] || q >= tn {
			continue // collapse duplicate or out-of-range quantiles
		}
		bounds = append(bounds, q)
	}
	bounds = append(bounds, tn)
	return NewExplicit(bounds)
}

// NewExplicit builds a partitioning from explicit boundaries. bounds must be
// strictly increasing and contain at least two points; partition i covers
// [bounds[i], bounds[i+1]).
func NewExplicit(bounds []Point) (Partitioning, error) {
	if len(bounds) < 2 {
		return Partitioning{}, fmt.Errorf("interval: partitioning needs at least 2 boundaries, got %d", len(bounds))
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			return Partitioning{}, fmt.Errorf("interval: boundaries not strictly increasing at index %d", i)
		}
	}
	p := Partitioning{bounds: make([]Point, len(bounds))}
	copy(p.bounds, bounds)
	return p, nil
}

// Len is the number of partition-intervals.
func (p Partitioning) Len() int { return len(p.bounds) - 1 }

// Range returns the covered time range [t0, tn).
func (p Partitioning) Range() (t0, tn Point) { return p.bounds[0], p.bounds[len(p.bounds)-1] }

// PartitionInterval returns the closed interval form of partition i:
// [bounds[i], bounds[i+1]-1].
func (p Partitioning) PartitionInterval(i int) Interval {
	return Interval{Start: p.bounds[i], End: p.bounds[i+1] - 1}
}

// IndexOf returns the partition containing point t. Points below the range
// clamp to partition 0 and points at or above the range's end clamp to the
// last partition; the algorithms rely on this so that data slightly outside
// an estimated range still routes deterministically.
func (p Partitioning) IndexOf(t Point) int {
	n := p.Len()
	if t < p.bounds[0] {
		return 0
	}
	if t >= p.bounds[n] {
		return n - 1
	}
	// sort.Search finds the first boundary strictly greater than t; the
	// partition index is one less.
	i := sort.Search(n+1, func(i int) bool { return p.bounds[i] > t }) - 1
	return i
}

// Project returns the single partition in which the interval starts
// (Section 3: one key-value pair per interval).
func (p Partitioning) Project(iv Interval) int { return p.IndexOf(iv.Start) }

// Split returns the inclusive range [first, last] of partitions having at
// least one point in common with the interval.
func (p Partitioning) Split(iv Interval) (first, last int) {
	return p.IndexOf(iv.Start), p.IndexOf(iv.End)
}

// Replicate returns the inclusive range [first, last] of partitions that
// contain at least one point greater than or equal to the interval's start:
// every partition from the start partition through the final one.
func (p Partitioning) Replicate(iv Interval) (first, last int) {
	return p.IndexOf(iv.Start), p.Len() - 1
}

// Apply returns the inclusive partition range targeted by op for iv. Project
// yields a single-element range.
func (p Partitioning) Apply(op Op, iv Interval) (first, last int) {
	switch op {
	case OpProject:
		i := p.Project(iv)
		return i, i
	case OpSplit:
		return p.Split(iv)
	case OpReplicate:
		return p.Replicate(iv)
	}
	panic(fmt.Sprintf("interval: invalid op %d", uint8(op)))
}

// PairCount returns the number of key-value pairs op generates for iv — the
// communication cost of the operation in the paper's cost accounting.
func (p Partitioning) PairCount(op Op, iv Interval) int {
	first, last := p.Apply(op, iv)
	return last - first + 1
}

// CrossesRight reports whether the interval crosses the right boundary of
// partition i: its end point lies in a partition following p_i (condition B1
// of Section 5.3).
func (p Partitioning) CrossesRight(iv Interval, i int) bool {
	return p.IndexOf(iv.End) > i
}

// CrossesLeft reports whether the interval crosses the left boundary of
// partition i: its start point lies in a partition preceding p_i (condition
// B2 of Section 5.3).
func (p Partitioning) CrossesLeft(iv Interval, i int) bool {
	return p.IndexOf(iv.Start) < i
}

// String renders the partitioning boundaries.
func (p Partitioning) String() string {
	return fmt.Sprintf("partitioning%v", p.bounds)
}
