package obs

import (
	"math/bits"
	"sort"
	"time"
)

// Reducer skew diagnostics: the per-reducer load distribution the paper's
// Figure 4 reasons about, rendered as a power-of-two histogram plus a
// top-K straggler table so a skewed run names the reducers that stretched
// the phase.

// ReducerLoad is one reducer's measured load.
type ReducerLoad struct {
	Key   int64         `json:"key"`
	Pairs int64         `json:"pairs"`
	Time  time.Duration `json:"time_ns"`
}

// SkewBucket is one row of the load histogram: reducers whose pair count
// falls in [Lo, Hi].
type SkewBucket struct {
	Lo       int64 `json:"lo"`
	Hi       int64 `json:"hi"`
	Reducers int   `json:"reducers"`
}

// SkewReport summarises the per-reducer load distribution of a run.
type SkewReport struct {
	Reducers   int     `json:"reducers"`
	TotalPairs int64   `json:"total_pairs"`
	MaxPairs   int64   `json:"max_pairs"`
	MeanPairs  float64 `json:"mean_pairs"`
	Imbalance  float64 `json:"imbalance"` // max/mean; 1.0 is perfectly balanced
	// Wall-clock counterparts of the pair stats, from the measured
	// per-reducer reduce times; TimeImbalance is what the makespan target
	// ("max reducer wall within 1.5× of mean") is stated in.
	MaxTimeNS     int64         `json:"max_time_ns,omitempty"`
	MeanTimeNS    float64       `json:"mean_time_ns,omitempty"`
	TimeImbalance float64       `json:"time_imbalance,omitempty"` // max/mean reducer wall
	Histogram     []SkewBucket  `json:"histogram,omitempty"`
	Top           []ReducerLoad `json:"top,omitempty"` // heaviest reducers, descending
}

// NewSkewReport builds the report from per-reducer pair counts and
// (optionally nil) per-reducer reduce times, keeping the topK heaviest
// reducers in the straggler table.
func NewSkewReport(pairs map[int64]int64, times map[int64]time.Duration, topK int) *SkewReport {
	r := &SkewReport{Reducers: len(pairs)}
	if len(pairs) == 0 {
		return r
	}
	// buckets[i] counts reducers whose pair count n has bits.Len64(n) == i:
	// bucket 0 holds n == 0, bucket i holds 2^(i-1) <= n < 2^i.
	var buckets [65]int
	loads := make([]ReducerLoad, 0, len(pairs))
	for k, n := range pairs {
		r.TotalPairs += n
		if n > r.MaxPairs {
			r.MaxPairs = n
		}
		buckets[bits.Len64(uint64(max(n, 0)))]++
		loads = append(loads, ReducerLoad{Key: k, Pairs: n, Time: times[k]})
	}
	r.MeanPairs = float64(r.TotalPairs) / float64(len(pairs))
	if r.MeanPairs > 0 {
		r.Imbalance = float64(r.MaxPairs) / r.MeanPairs
	} else {
		r.Imbalance = 1
	}
	if len(times) > 0 {
		var total int64
		for _, d := range times {
			ns := d.Nanoseconds()
			total += ns
			if ns > r.MaxTimeNS {
				r.MaxTimeNS = ns
			}
		}
		r.MeanTimeNS = float64(total) / float64(len(times))
		if r.MeanTimeNS > 0 {
			r.TimeImbalance = float64(r.MaxTimeNS) / r.MeanTimeNS
		} else {
			r.TimeImbalance = 1
		}
	}
	for i, n := range buckets {
		if n == 0 {
			continue
		}
		lo, hi := int64(0), int64(0)
		if i > 0 {
			lo = int64(1) << (i - 1)
			hi = int64(1)<<i - 1
		}
		r.Histogram = append(r.Histogram, SkewBucket{Lo: lo, Hi: hi, Reducers: n})
	}
	sort.Slice(loads, func(i, j int) bool {
		if loads[i].Pairs != loads[j].Pairs {
			return loads[i].Pairs > loads[j].Pairs
		}
		return loads[i].Key < loads[j].Key
	})
	if topK > 0 && topK < len(loads) {
		loads = loads[:topK]
	}
	r.Top = loads
	return r
}
