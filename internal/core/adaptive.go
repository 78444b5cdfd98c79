package core

import (
	"sort"
	"strconv"

	"intervaljoin/internal/cost"
	"intervaljoin/internal/grid"
	"intervaljoin/internal/interval"
	"intervaljoin/internal/mr"
	"intervaljoin/internal/obs"
)

// Skew-aware execution plan. The paper's partitioning maps partition
// interval i to reduce key i; on heavy-tailed data a few partitions then
// dominate reduce wall no matter where the boundaries sit. An execPlan
// widens that mapping: every partition owns a contiguous block of reduce
// keys [base[i], base[i+1]) — one key for cold partitions, a
// 1-Bucket-Theta-style cell grid of "virtual reducers" for hot ones. A
// record of input stream d routes to the cells whose dimension-d
// coordinate equals its deterministic row hash, so any complete
// assignment (one record per stream) still meets at exactly one cell and
// the drivers' exactly-once output rules carry over verbatim. With no
// splits the plan degenerates to the identity key mapping and the
// emissions are bit-identical to the unplanned ones.
type execPlan struct {
	part    interval.Partitioning
	streams int

	vcount []int      // virtual reducers per partition (>= 1)
	base   []int64    // prefix sums: partition i owns keys [base[i], base[i+1])
	cells  []cellRuns // precomputed cell cover per split partition (nil runs when vcount == 1)

	hasSplits bool
	splitten  int // partitions with vcount > 1

	source     string // boundaryUniform or boundaryEquiDepth
	autoK      bool
	threshold  float64
	maxVirtual int
	// reach is the rule under which the join ran without marking; nil when
	// the marking ran.
	reach []obs.Reach
}

const (
	boundaryUniform   = "uniform"
	boundaryEquiDepth = "equi-depth"
)

// keyRun is one contiguous run of partition-relative reduce keys.
type keyRun struct{ lo, hi int64 }

// cellRuns is a split partition's precomputed cell cover: for a record of
// stream d with row r, runs[d][r] lists the key runs of the cells whose
// dimension-d coordinate is r. Built once at plan time so the map hot
// path only hashes the record and walks a read-only slice — no per-record
// grid enumeration or allocation.
type cellRuns struct {
	dims []int
	runs [][][]keyRun // [stream][row][]keyRun
}

func newCellRuns(g grid.Grid) cellRuns {
	dims := g.Dims()
	cr := cellRuns{dims: dims, runs: make([][][]keyRun, len(dims))}
	for d, dim := range dims {
		cr.runs[d] = make([][]keyRun, dim)
		for r := 0; r < dim; r++ {
			bounds := g.FreeBounds()
			bounds[d] = grid.Bound{Min: r, Max: r}
			g.EnumerateRuns(bounds, nil, func(lo, hi int64) {
				cr.runs[d][r] = append(cr.runs[d][r], keyRun{lo, hi})
			})
		}
	}
	return cr
}

// newExecPlan assembles the key layout. vcounts may be nil (no splits) or
// shorter than part.Len(); missing entries mean 1. A partition's actual
// virtual-reducer count is rounded up to its cell grid's size.
func newExecPlan(part interval.Partitioning, vcounts []int, streams int, source string) *execPlan {
	n := part.Len()
	if streams < 1 {
		streams = 1
	}
	pl := &execPlan{
		part:    part,
		streams: streams,
		vcount:  make([]int, n),
		base:    make([]int64, n+1),
		cells:   make([]cellRuns, n),
		source:  source,
	}
	for i := 0; i < n; i++ {
		v := 1
		if i < len(vcounts) {
			v = vcounts[i]
		}
		if v > 1 {
			g := grid.MustNew(balancedDims(streams, v))
			pl.cells[i] = newCellRuns(g)
			v = int(g.NumCells())
			pl.splitten++
		} else {
			v = 1
		}
		pl.vcount[i] = v
		pl.base[i+1] = pl.base[i] + int64(v)
	}
	pl.hasSplits = pl.splitten > 0
	return pl
}

// keys is the total reduce-key count.
func (pl *execPlan) keys() int64 { return pl.base[len(pl.base)-1] }

// partitionOf inverts the key layout: the partition owning a reduce key.
func (pl *execPlan) partitionOf(key int64) int {
	if !pl.hasSplits {
		return int(key)
	}
	// Greatest i with base[i] <= key.
	i := sort.Search(len(pl.base), func(i int) bool { return pl.base[i] > key }) - 1
	if i < 0 {
		return 0
	}
	if i >= len(pl.vcount) {
		return len(pl.vcount) - 1
	}
	return i
}

// emitRange routes one record of the given input stream to partitions
// [first, last], expanding split partitions into the record's cell-cover
// rows. Runs of consecutive keys are coalesced so the physical shuffle
// stays range-replicated (one stored record per contiguous key range),
// exactly like the direct Emitter.EmitRange call it generalises.
func (pl *execPlan) emitRange(emit mr.Emitter, first, last, stream int, value string) {
	if !pl.hasSplits {
		emit.EmitRange(int64(first), int64(last), value)
		return
	}
	runLo, runHi := int64(-1), int64(-1)
	add := func(lo, hi int64) {
		if runLo >= 0 && lo == runHi+1 {
			runHi = hi
			return
		}
		if runLo >= 0 {
			emit.EmitRange(runLo, runHi, value)
		}
		runLo, runHi = lo, hi
	}
	for p := first; p <= last; p++ {
		off := pl.base[p]
		if pl.vcount[p] == 1 {
			add(off, off)
			continue
		}
		cr := &pl.cells[p]
		row := rowOf(value, virtualSalt+uint64(stream), cr.dims[stream])
		for _, r := range cr.runs[stream][row] {
			add(off+r.lo, off+r.hi)
		}
	}
	if runLo >= 0 {
		emit.EmitRange(runLo, runHi, value)
	}
}

// info summarises the plan for metrics.json.
func (pl *execPlan) info() *obs.PlanInfo {
	return &obs.PlanInfo{
		Partitions:      pl.part.Len(),
		BoundarySource:  pl.source,
		AutoK:           pl.autoK,
		VirtualReducers: int(pl.keys()),
		SplitPartitions: pl.splitten,
		Streams:         pl.streams,
		SplitThreshold:  pl.threshold,
		MaxVirtual:      pl.maxVirtual,
		Reach:           pl.reach,
	}
}

// balancedDims picks cell-grid dimensions for a split partition: one
// dimension per input stream, grown one at a time until the cell count
// reaches v — the near-cubic cover 1-Bucket-Theta uses for unknown
// selectivities, which bounds every stream's per-cell fan-out by
// ceil(v^(1/streams)).
func balancedDims(streams, v int) []int {
	dims := make([]int, streams)
	for i := range dims {
		dims[i] = 1
	}
	product := 1
	for product < v {
		smallest := 0
		for i, d := range dims {
			if d < dims[smallest] {
				smallest = i
			}
		}
		product = product / dims[smallest] * (dims[smallest] + 1)
		dims[smallest]++
	}
	return dims
}

// virtualSalt seeds the hash of the virtual split's cell cover. Its value
// is part of the routing TestRoutingGolden pins.
const virtualSalt uint64 = 0x01

// rowOf deterministically assigns a record to one row of a cell-grid
// dimension. FNV-1a over the record bytes with a splitmix64 finish —
// stable across runs and processes, so a run's routing repeats exactly
// (TestRoutingGolden pins it).
func rowOf(value string, salt uint64, dim int) int {
	if dim <= 1 {
		return 0
	}
	const (
		offset64 uint64 = 14695981039346656037
		prime64  uint64 = 1099511628211
	)
	h := offset64
	for i := 0; i < len(value); i++ {
		h ^= uint64(value[i])
		h *= prime64
	}
	h ^= salt * 0x9e3779b97f4a7c15
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return int(h % uint64(dim))
}

// boundaries builds n partition boundaries and names their source:
// quantile-based when Options.EquiDepth demands it, or when Options.
// Adaptive is set and the start-point histogram predicts a straggler
// factor worth acting on (cost.RecommendEquiDepth); uniform otherwise.
func (c *Context) boundaries(n int) (interval.Partitioning, string, error) {
	t0, tn, err := c.timeRange()
	if err != nil {
		return interval.Partitioning{}, "", err
	}
	if c.Opts.EquiDepth {
		p, err := interval.NewEquiDepth(t0, tn, n, c.sampleStarts())
		return p, boundaryEquiDepth, err
	}
	if c.Opts.Adaptive {
		return c.pickBoundaries(t0, tn, n)
	}
	p, err := interval.MakeUniform(t0, tn, n)
	return p, boundaryUniform, err
}

// pickBoundaries chooses between uniform and equi-depth boundaries by
// estimated post-split makespan rather than by a histogram heuristic:
// quantile boundaries flatten the per-partition input counts, but when
// starts pile up they collapse partition widths far below the interval
// length, and every interval then replicates across all of the narrow
// partitions — often costlier than leaving the hot region in one wide
// partition and splitting it over virtual reducers. Each candidate is
// scored by the largest per-virtual-reducer pair load its plan would
// leave, with the sampled replica volume (shuffle cost) as tie-breaker;
// equi-depth quantiles use interval midpoints, which spread half a length
// further than starts and so track mass without collapsing quite as hard.
func (c *Context) pickBoundaries(t0, tn interval.Point, n int) (interval.Partitioning, string, error) {
	uni, err := interval.MakeUniform(t0, tn, n)
	if err != nil {
		return interval.Partitioning{}, "", err
	}
	equi, err := interval.NewEquiDepth(t0, tn, n, c.sampleMidpoints())
	if err != nil {
		return uni, boundaryUniform, nil
	}
	sample, scale := c.sampleIntervals()
	if len(sample) == 0 {
		return uni, boundaryUniform, nil
	}
	meanLen := sampleMeanLength(sample)
	score := func(part interval.Partitioning) (makespan, volume float64) {
		loads := cost.PartitionLoads(sample, part, scale)
		pairs := cost.PairLoads(loads, part, meanLen)
		splits := cost.RecommendSplits(pairs, c.Opts.SplitThreshold, c.Opts.MaxVirtual)
		for i, p := range pairs {
			if cell := p / float64(splits[i]); cell > makespan {
				makespan = cell
			}
			volume += loads[i]
		}
		return makespan, volume
	}
	uniMax, uniVol := score(uni)
	equiMax, equiVol := score(equi)
	if equiMax < uniMax || (equiMax == uniMax && equiVol < uniVol) {
		return equi, boundaryEquiDepth, nil
	}
	return uni, boundaryUniform, nil
}

func sampleMeanLength(sample []interval.Interval) float64 {
	if len(sample) == 0 {
		return 0
	}
	var meanLen float64
	for _, iv := range sample {
		meanLen += float64(uint64(iv.End)-uint64(iv.Start)) + 1
	}
	return meanLen / float64(len(sample))
}

// makePlan builds the skew-aware execution plan of a 1-D join cycle with
// the given input stream count: boundary selection via boundaries, then —
// under Options.Adaptive — per-partition load estimation over an interval
// sample and virtual splitting of the partitions the planner flags. The
// planning work is recorded as a virtual_split span whose args carry
// virtual_reducers / split_partitions, the counts PlanInfo reports.
func (c *Context) makePlan(alg string, n, streams int) (*execPlan, error) {
	tracer := c.Engine.Tracer()
	lane := tracer.Acquire()
	start := lane.Begin()
	part, source, err := c.boundaries(n)
	if err != nil {
		tracer.Release(lane)
		return nil, err
	}
	var vcounts []int
	if c.Opts.Adaptive {
		sample, scale := c.sampleIntervals()
		loads := cost.PartitionLoads(sample, part, scale)
		pairs := cost.PairLoads(loads, part, sampleMeanLength(sample))
		vcounts = cost.RecommendSplits(pairs, c.Opts.SplitThreshold, c.Opts.MaxVirtual)
	}
	pl := newExecPlan(part, vcounts, streams, source)
	pl.threshold = c.Opts.SplitThreshold
	pl.maxVirtual = c.Opts.MaxVirtual
	pl.autoK = c.Opts.AutoPartitions
	if c.Opts.Adaptive {
		lane.End(obs.CatVirtualSplit, "plan:"+alg, start,
			obs.Arg{Key: "boundaries", Val: source},
			obs.Arg{Key: "virtual_reducers", Val: strconv.FormatInt(pl.keys(), 10)},
			obs.Arg{Key: "split_partitions", Val: strconv.Itoa(pl.splitten)})
	}
	tracer.Release(lane)
	return pl, nil
}

// sampleMidpoints stride-samples first-attribute interval midpoints for
// the adaptive boundary builder.
func (c *Context) sampleMidpoints() []interval.Point {
	sample, _ := c.sampleIntervals()
	mids := make([]interval.Point, len(sample))
	for i, iv := range sample {
		// In uint64: End − Start passes MaxInt64 on a wide interval.
		mids[i] = interval.Point(uint64(iv.Start) + (uint64(iv.End)-uint64(iv.Start))/2)
	}
	return mids
}

// sampleIntervals stride-samples the first-attribute intervals of every
// relation for the load planner, returning the sample and its inverse
// sampling rate (population / sample size).
func (c *Context) sampleIntervals() ([]interval.Interval, float64) {
	total := 0
	for _, r := range c.Rels {
		total += r.Len()
	}
	if total == 0 {
		return nil, 1
	}
	stride := total/sampleBudget + 1
	var sample []interval.Interval
	i := 0
	for _, r := range c.Rels {
		for _, t := range r.Tuples {
			if i%stride == 0 {
				sample = append(sample, t.Attrs[0])
			}
			i++
		}
	}
	if len(sample) == 0 {
		return nil, 1
	}
	return sample, float64(total) / float64(len(sample))
}
