package main

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
)

// The generators below copy the recipes of internal/workload instead of
// importing them, so a later change there cannot move the benchmark's
// inputs: the program under test only ever sees the files, query strings
// and windows made here.

// ival is one generated interval, the benchmark's own copy of the data it
// wrote, kept for the checks that do not go through the program.
type ival struct{ s, e int64 }

// relSpec is one relation's recipe: n intervals with lengths uniform in
// [imin, imax] and starts uniform (or, with zipf, power-law with exponent
// 1.1, densest at tmin) so that every interval lies within [tmin, tmax].
type relSpec struct {
	name       string
	n          int
	zipf       bool
	tmin, tmax int64
	imin, imax int64
}

// mixSpec is a window mix over [tmin, tmax]: uniformly placed windows, or
// — with hotspots > 0 — windows clustered on hot centers whose popularity
// is Zipf(skew), jittered so repeat visits overlap without coinciding.
type mixSpec struct {
	hotspots         int
	skew             float64
	spanMin, spanMax int64
}

type window struct{ lo, hi int64 }

// workload is one benchmark workload: inputs, the query, and which of the
// two user-facing paths an op takes.
type workload struct {
	name  string
	serve bool // op = POST /query round trip; otherwise op = one in-process join
	query string
	rels  []relSpec
	// Service side: the measured path of serve-*, a probed layer of batch-*
	// (there with a cache too small to hold the windows, so that the
	// probe's passes all meet the same cold state).
	cacheMB int
	mix     mixSpec
	fill    int // windows replayed untimed before measuring
	// Batch side.
	warmup    int // untimed ops before measuring
	oracleDiv int // set-up checks a 1/oracleDiv instance against Engine.Oracle
	minOps    int // the run measures at least this many ops
	// fixedOps, when set, makes the run measure exactly this many ops
	// however long they take: for a workload whose state grows with every
	// op, the op count is part of what is measured.
	fixedOps int
}

func uniformRels(n int, tmax, imax int64, names ...string) []relSpec {
	out := make([]relSpec, len(names))
	for i, name := range names {
		out[i] = relSpec{name: name, n: n, tmin: 0, tmax: tmax, imin: 1, imax: imax}
	}
	return out
}

// workloads is the fixed list; BENCHMARK.json names the same five.
var workloads = []workload{
	{
		name:  "batch-sparse",
		query: "R1 overlaps R2 and R2 overlaps R3",
		rels:  uniformRels(11_000, 1_100_000, 100, "R1", "R2", "R3"),
		// Probed service: windows of 1/200 .. 1/20 of the domain.
		cacheMB: 1, mix: mixSpec{spanMin: 5_500, spanMax: 55_000}, fill: 20,
		warmup: 10, oracleDiv: 5, minOps: 100,
	},
	{
		name:  "batch-skew",
		query: "R1 overlaps R2",
		rels: []relSpec{
			{name: "R1", n: 1000, zipf: true, tmin: 0, tmax: 100_000, imin: 1, imax: 100},
			{name: "R2", n: 1000, zipf: true, tmin: 0, tmax: 100_000, imin: 1, imax: 100},
		},
		cacheMB: 1, mix: mixSpec{spanMin: 500, spanMax: 5000}, fill: 20,
		warmup: 10, oracleDiv: 4, minOps: 100,
	},
	{
		name:  "batch-matrix",
		query: "R1 overlaps R2 and R2 before R3",
		// Many R1-R2 pairs and few R3 rows after each: the same output size
		// as three equal relations would give, but a pair count large enough
		// that it varies by a percent or two between seeds rather than ten.
		rels: []relSpec{
			{name: "R1", n: 3100, tmax: 200_000, imin: 1, imax: 120},
			{name: "R2", n: 3100, tmax: 200_000, imin: 1, imax: 120},
			{name: "R3", n: 60, tmax: 200_000, imin: 1, imax: 120},
		},
		cacheMB: 1, mix: mixSpec{spanMin: 1000, spanMax: 10_000}, fill: 20,
		warmup: 10, oracleDiv: 4, minOps: 100,
	},
	{
		name:    "serve-warm",
		serve:   true,
		query:   "R1 overlaps R2",
		rels:    uniformRels(20_000, 100_000, 100, "R1", "R2"),
		cacheMB: 64, mix: mixSpec{hotspots: 8, skew: 1.5, spanMin: 500, spanMax: 5000}, fill: 1000,
		minOps: 1000,
	},
	{
		name:    "serve-cold",
		serve:   true,
		query:   "R1 overlaps R2",
		rels:    uniformRels(20_000, 100_000, 100, "R1", "R2"),
		cacheMB: 1, mix: mixSpec{spanMin: 500, spanMax: 5000}, fill: 20,
		fixedOps: 360,
	},
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// subSeed derives the k-th independent generator seed of a run.
func subSeed(seed int64, k int) int64 { return seed*1_000_003 + int64(k)*7919 + 1 }

// stratified returns n values in [0, 1), one drawn uniformly from each of
// the n equal strata, in shuffled order. The marginal distribution is
// uniform, as with independent draws, but aggregate properties of the
// sample (how many intervals fall in a range, how many pairs join) vary
// far less from seed to seed, so run-to-run differences measure the
// program rather than the dice.
func stratified(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = (float64(i) + rng.Float64()) / float64(n)
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// powerLawExp is internal/workload's Zipf exponent.
const powerLawExp = 1.1

// powerLaw maps u in [0, 1) onto [0, span] with density proportional to
// (1+x)^-powerLawExp: the continuous form of the Zipf(1.1, 1) start
// recipe, by inversion so that it can be fed stratified draws.
func powerLaw(u float64, span int64) int64 {
	const a = 1 - powerLawExp
	top := math.Pow(1+float64(span), a)
	x := math.Pow(1-u*(1-top), 1/a) - 1
	return min(max(int64(x), 0), span)
}

// genRel draws a relation's intervals.
func genRel(s relSpec, seed int64) []ival {
	rng := rand.New(rand.NewSource(seed))
	lengths := stratified(rng, s.n)
	starts := stratified(rng, s.n)
	out := make([]ival, s.n)
	for i := range out {
		length := s.imin + int64(lengths[i]*float64(s.imax-s.imin+1))
		span := s.tmax - length - s.tmin
		var start int64
		if s.zipf {
			start = s.tmin + powerLaw(starts[i], span)
		} else {
			start = s.tmin + int64(starts[i]*float64(span+1))
		}
		out[i] = ival{start, start + length}
	}
	return out
}

// windowBlock is how many consecutive windows share one stratification,
// so that any stretch of a run sees a balanced set of places and spans.
const windowBlock = 32

// genWindows draws n windows of the mix over [tmin, tmax].
func genWindows(m mixSpec, tmin, tmax int64, n int, seed int64) []window {
	rng := rand.New(rand.NewSource(seed))
	var ranks *rand.Zipf
	var centers []int64
	if m.hotspots > 0 {
		ranks = rand.NewZipf(rng, m.skew, 1, uint64(m.hotspots-1))
		// Hot centers sit mid-stride across the range; the shuffle decouples
		// popularity rank from time order.
		centers = make([]int64, m.hotspots)
		stride := (tmax - tmin) / int64(m.hotspots)
		for i := range centers {
			centers[i] = tmin + stride/2 + int64(i)*stride
		}
		rng.Shuffle(len(centers), func(i, j int) { centers[i], centers[j] = centers[j], centers[i] })
	}
	jitter := (m.spanMin + m.spanMax) / 4
	out := make([]window, n)
	var places, spans []float64
	for i := range out {
		if i%windowBlock == 0 {
			places, spans = stratified(rng, windowBlock), stratified(rng, windowBlock)
		}
		place, spanU := places[i%windowBlock], spans[i%windowBlock]
		var c int64
		if ranks != nil {
			c = centers[ranks.Uint64()] + int64(place*float64(2*jitter+1)) - jitter
		} else {
			c = tmin + int64(place*float64(tmax-tmin+1))
		}
		span := m.spanMin + int64(spanU*float64(m.spanMax-m.spanMin+1))
		lo := c - span/2
		hi := lo + span
		if lo < tmin {
			lo, hi = tmin, tmin+span
		}
		if hi > tmax {
			hi = tmax
			lo = max(tmin, hi-span)
		}
		out[i] = window{lo, hi}
	}
	return out
}

// scaled returns the workload at 1/div of its size: row counts shrink,
// and for uniform data the domain and the window spans shrink with them,
// so density — and with it the join's shape and the planner's pick — is
// kept. A scaled workload checks itself against the oracle whole.
func (w workload) scaled(div int) workload {
	if div <= 1 {
		return w
	}
	rels := make([]relSpec, len(w.rels))
	for i, s := range w.rels {
		s.n = max(s.n/div, 1)
		if !s.zipf {
			s.tmax = s.tmin + (s.tmax-s.tmin)/int64(div)
		}
		rels[i] = s
	}
	if !w.rels[0].zipf {
		w.mix.spanMin = max(w.mix.spanMin/int64(div), 1)
		w.mix.spanMax = max(w.mix.spanMax/int64(div), w.mix.spanMin)
	}
	w.rels = rels
	w.fill = max(w.fill/div, setupChecks)
	w.minOps = max(w.minOps/div, 3)
	if w.fixedOps > 0 {
		w.fixedOps = max(w.fixedOps/div, 10*runSlices)
	}
	w.warmup = min(w.warmup, 2)
	w.oracleDiv = 1
	return w
}

// instance is one generated input set on disk.
type instance struct {
	w     *workload
	names []string
	files []string
	rels  [][]ival
	tmin  int64
	tmax  int64
}

// generate draws the workload's relations and writes them under dir in
// the text interchange format.
func generate(w *workload, seed int64, dir string) (*instance, error) {
	in := &instance{w: w, tmin: w.rels[0].tmin, tmax: w.rels[0].tmax}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	for i, s := range w.rels {
		rel := genRel(s, subSeed(seed, i))
		path := filepath.Join(dir, s.name+".txt")
		if err := writeRel(path, rel); err != nil {
			return nil, err
		}
		in.names = append(in.names, s.name)
		in.files = append(in.files, path)
		in.rels = append(in.rels, rel)
	}
	return in, nil
}

func writeRel(path string, rel []ival) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	buf := make([]byte, 0, 48)
	for _, iv := range rel {
		buf = strconv.AppendInt(buf[:0], iv.s, 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, iv.e, 10)
		buf = append(buf, '\n')
		if _, err := bw.Write(buf); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
