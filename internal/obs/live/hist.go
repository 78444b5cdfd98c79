package live

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Hist is a lock-free power-of-two histogram of int64 samples: bucket 0
// counts v <= 0, bucket i counts 2^(i-1) <= v < 2^i — the same bucketing
// as the parent obs package's per-run histograms, so live and per-run
// views of the same quantity line up.
type Hist struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [65]atomic.Int64
}

// Observe records one sample. Safe on a nil receiver and for concurrent
// use.
func (h *Hist) Observe(v int64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[pow2Bucket(v)].Add(1)
}

// pow2Bucket maps a sample to its bucket index; non-positive samples
// clamp to bucket 0.
func pow2Bucket(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// snapshot renders the histogram's occupied prefix as HistData: the upper
// bound of bucket i is 2^i - 1 (inclusive, exact for integer samples);
// trailing empty buckets are dropped and the final bucket acts as +Inf.
func (h *Hist) snapshot() *HistData {
	top := 0
	var counts [65]int64
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			counts[i] = n
			top = i
		}
	}
	d := &HistData{
		Count: h.count.Load(),
		Sum:   float64(h.sum.Load()),
	}
	for i := 0; i <= top; i++ {
		if i < 64 {
			d.Bounds = append(d.Bounds, float64(uint64(1)<<uint(i)-1))
		}
		d.Counts = append(d.Counts, counts[i])
	}
	// Counts has one entry per bound plus the +Inf overflow bucket.
	if len(d.Counts) == len(d.Bounds) {
		d.Counts = append(d.Counts, 0)
	}
	return d
}

// latencyBounds are the upper bucket bounds, in seconds, of a
// LatencyHist: 100µs to 60s, roughly 2.5x apart, chosen to straddle the
// service's observed query walls (sub-millisecond cache hits up to
// multi-second cold scans). The +Inf bucket is implicit.
var latencyBounds = [...]float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// LatencyHist is a lock-free histogram of durations exposed in seconds,
// with quantile estimation over its fixed exponential bounds.
type LatencyHist struct {
	count   atomic.Int64
	sumNS   atomic.Int64
	buckets [len(latencyBounds) + 1]atomic.Int64
}

// Observe records one duration. Safe on a nil receiver and for concurrent
// use.
func (h *LatencyHist) Observe(d time.Duration) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sumNS.Add(d.Nanoseconds())
	s := d.Seconds()
	i := 0
	for i < len(latencyBounds) && s > latencyBounds[i] {
		i++
	}
	h.buckets[i].Add(1)
}

func (h *LatencyHist) snapshot() *HistData {
	d := &HistData{
		Bounds: latencyBounds[:],
		Counts: make([]int64, len(latencyBounds)+1),
		Count:  h.count.Load(),
		Sum:    float64(h.sumNS.Load()) / 1e9,
	}
	for i := range h.buckets {
		d.Counts[i] = h.buckets[i].Load()
	}
	return d
}

// HistData is a histogram's snapshot: per-bucket (non-cumulative) counts
// over ascending inclusive upper bounds, with Counts carrying one extra
// final entry for the +Inf overflow bucket.
type HistData struct {
	Bounds []float64
	Counts []int64
	Count  int64
	Sum    float64
}

// Mean returns the mean sample.
func (d *HistData) Mean() float64 {
	if d == nil || d.Count == 0 {
		return 0
	}
	return d.Sum / float64(d.Count)
}

// Quantile estimates the q-quantile (0 < q <= 1) by linear interpolation
// inside the bucket holding the target rank; the +Inf bucket reports its
// lower bound. Returns 0 on an empty histogram.
func (d *HistData) Quantile(q float64) float64 {
	if d == nil || d.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(d.Count)
	var cum float64
	lower := 0.0
	for i, n := range d.Counts {
		upper := math.Inf(1)
		if i < len(d.Bounds) {
			upper = d.Bounds[i]
		}
		next := cum + float64(n)
		if next >= rank && n > 0 {
			if math.IsInf(upper, 1) {
				return lower
			}
			frac := 0.0
			if n > 0 {
				frac = (rank - cum) / float64(n)
			}
			return lower + (upper-lower)*frac
		}
		cum = next
		if !math.IsInf(upper, 1) {
			lower = upper
		}
	}
	return lower
}

// merge accumulates other into d, aligning buckets by bound value so
// snapshots from histograms with different occupied prefixes still merge
// exactly.
func (d *HistData) merge(other *HistData) {
	if other == nil || other.Count == 0 && other.Sum == 0 {
		return
	}
	byBound := make(map[float64]int64, len(d.Bounds)+len(other.Bounds))
	var inf int64
	add := func(h *HistData) {
		for i, n := range h.Counts {
			if i < len(h.Bounds) {
				byBound[h.Bounds[i]] += n
			} else {
				inf += n
			}
		}
	}
	add(d)
	add(other)
	bounds := make([]float64, 0, len(byBound))
	for b := range byBound {
		bounds = append(bounds, b)
	}
	sortFloats(bounds)
	d.Bounds = bounds
	d.Counts = make([]int64, 0, len(bounds)+1)
	for _, b := range bounds {
		d.Counts = append(d.Counts, byBound[b])
	}
	d.Counts = append(d.Counts, inf)
	d.Count += other.Count
	d.Sum += other.Sum
}

func sortFloats(v []float64) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}
