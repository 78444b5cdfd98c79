// Package mr is a from-scratch MapReduce engine that plays the role Hadoop
// plays in the paper. It executes jobs — map over tagged inputs (store files,
// or positions of data the caller holds decoded), shuffle by integer key,
// reduce per key — on a pool of worker goroutines,
// and measures exactly the quantities the paper's evaluation reasons about:
// the number of intermediate key-value pairs (map/reduce communication
// cost), per-reducer load, and a simulated makespan that models one reduce
// node per key as on a real cluster.
//
// Keys are int64 reducer ids: the paper's partition-intervals and grid cells
// map directly onto them. Values are strings (records), which a job reads
// from and writes to files on the dfs.Store as Hadoop does on HDFS; a chain
// of jobs streams each boundary to the next job instead (RunPipeline). A
// chain's answer is no intermediate: a job may reduce to typed id rows
// instead (Job.ReduceRows), which go back to the caller as they are.
//
// Two Hadoop behaviours are modelled beyond the basic phases: map tasks
// are record batches that are retried on transient failures (as Hadoop
// re-schedules failed task attempts), and an external sort-merge shuffle
// spills key-sorted runs to the store when the in-memory budget is
// exceeded, so jobs larger than RAM still run.
package mr

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"intervaljoin/internal/dfs"
	"intervaljoin/internal/obs"
)

// Emitter publishes intermediate key-value pairs from a map function. Keys
// are the ids of the reduce tasks that will receive the value; they must be
// non-negative in a job that may spill. An emission is a header written into
// the worker's emission log: the value is not copied, so it is best a view of
// a slab that outlives the job (Context.tagged in internal/core), and the
// Emitter is good only for the call it was passed to.
type Emitter struct {
	// buf is the page being filled — the log's current one, or with no log a
	// plain slice that grows.
	buf *[]emission
	log *emitLog
}

func (e Emitter) add(p emission) {
	if e.log != nil && len(*e.buf) == cap(*e.buf) {
		e.log.turnPage()
	}
	*e.buf = append(*e.buf, p)
}

// Emit publishes one intermediate key-value pair.
func (e Emitter) Emit(key int64, value string) {
	e.add(emission{lo: key, hi: key, value: value})
}

// EmitRange publishes value to every reduce key in [lo, hi] — the broadcast
// every replication-based interval-join strategy performs over a contiguous
// run of partition ids. The shuffle stores the value once and expands the
// range lazily at the consuming reduce side, so the physical shuffle cost is
// one record instead of hi-lo+1 copies, while the logical pair metrics still
// count the full span. An empty range (hi < lo) emits nothing. A range that
// starts below zero is expanded into per-key pairs at emit time: the shuffle
// strides over a range from a non-negative start only.
func (e Emitter) EmitRange(lo, hi int64, value string) {
	if hi < lo {
		return
	}
	if lo < 0 {
		for k := lo; k <= hi; k++ {
			e.add(emission{lo: k, hi: k, value: value})
		}
		return
	}
	e.add(emission{lo: lo, hi: hi, value: value})
}

// MapFunc transforms one input record into intermediate pairs. tag
// identifies which job input the record came from (the algorithms use it for
// the relation index), so one job can map several relations with one
// function, as Hadoop does with multiple input paths.
type MapFunc func(tag int, record string, emit Emitter) error

// ReduceFunc processes all values received by one reduce task. write appends
// a record to the job output. values is a view of the shuffle's arena — or,
// when the shuffle spilled, scratch the engine reuses across tasks — and each
// value a view of whatever the map function emitted: implementations must not
// retain the slice past the call. A record handed to write may be a view too,
// of a slab the reducer built its records in; the engine keeps the string,
// never copies it, so the slab lives as long as any record of it does.
type ReduceFunc func(key int64, values []string, write func(record string) error) error

// PosMapFunc is the typed form of MapFunc, for an input the caller already
// holds decoded: the engine names a position of the input tagged tag — 0 up to
// its Count — and the function finds the record there itself, so nothing is
// rendered to text for the feed and nothing is parsed back.
type PosMapFunc func(tag, pos int, emit Emitter) error

// RowReduceFunc is the typed form of ReduceFunc, for a job whose reduce
// output is the answer itself rather than records another cycle will map
// over: each output is a row of Rows.Width ids, written in place into the
// slot out.Append returns, so nothing is formatted and nothing is parsed
// back. The same contract holds for values.
type RowReduceFunc func(key int64, values []string, out *Rows) error

// Rows is typed reduce output: rows of Width int64 ids. A job that sets
// ReduceRows names one as its destination (Job.Rows), the way Output names
// the destination of text records; when the job has run it holds every
// committed task's rows, tasks in ascending key order. Each task attempt
// writes into a Rows of its own, which reaches the job's only if the attempt
// succeeds.
//
// Rows are kept in chunks that are never reallocated: a chunk is filled, then
// a larger one is started, so appending copies nothing and a slot stays valid.
// Full-size chunks are pooled across jobs and engines: whoever has copied the
// ids out calls Release, after which the Rows — and every slot and chunk it
// handed out — must not be read.
//
// What a row's ids mean is the job's business. internal/core collects a
// result whose ids pack into one word per row in Rows of Width 1, each word
// a whole row; that is its convention for reading the chunks back, not a
// second kind of Rows.
type Rows struct {
	// Width is the number of ids per row. Set before the job runs.
	Width  int
	chunks [][]int64
}

// Chunk capacities: every task's first chunk holds minRowChunk rows — most
// tasks of most jobs emit a handful — and each further one doubles, up to
// rowChunkWords ids (8192 rows of a two-way join). Chunks of that size are
// what a large result is made of, and they come from and go back to
// chunkPool, so a run neither allocates nor zeroes them again.
const (
	minRowChunk   = 32
	rowChunkWords = 1 << 14
)

var chunkPool = sync.Pool{New: func() any { return new([rowChunkWords]int64) }}

// Append adds one row and returns it for the caller to fill in, every id of
// it: a recycled chunk still holds the last run's.
func (r *Rows) Append() []int64 {
	n := len(r.chunks)
	if n == 0 || len(r.chunks[n-1])+r.Width > cap(r.chunks[n-1]) {
		// Rows too wide for minRowChunk of them to fit a full chunk keep
		// the first size.
		words := minRowChunk * r.Width
		if n > 0 {
			words = max(words, min(2*cap(r.chunks[n-1]), rowChunkWords))
		}
		if words == rowChunkWords {
			r.chunks = append(r.chunks, chunkPool.Get().(*[rowChunkWords]int64)[:0])
		} else {
			r.chunks = append(r.chunks, make([]int64, 0, words))
		}
		n++
	}
	c := r.chunks[n-1]
	c = c[:len(c)+r.Width]
	r.chunks[n-1] = c
	return c[len(c)-r.Width:]
}

// Release empties r and hands its full-size chunks back for other runs to
// fill.
func (r *Rows) Release() {
	for _, c := range r.chunks {
		if cap(c) == rowChunkWords {
			chunkPool.Put((*[rowChunkWords]int64)(c[:rowChunkWords]))
		}
	}
	r.chunks = nil
}

// Len is the number of rows.
func (r *Rows) Len() int {
	n := 0
	for _, c := range r.chunks {
		n += len(c)
	}
	return n / max(r.Width, 1)
}

// Chunks returns the rows in the order they were committed: each chunk holds
// whole rows back to back. The chunks are the Rows' own storage, gone with
// Release.
func (r *Rows) Chunks() [][]int64 { return r.chunks }

// take moves other's rows to the end of r.
func (r *Rows) take(other *Rows) {
	r.chunks = append(r.chunks, other.chunks...)
	other.chunks = nil
}

// Phase identifies which phase a task attempt belongs to, for failure
// injection.
type Phase string

// The two task phases.
const (
	PhaseMap    Phase = "map"
	PhaseReduce Phase = "reduce"
)

// ErrTransient marks a task failure as retryable: the engine re-runs the
// attempt (up to Config.MaxTaskAttempts), discarding the failed attempt's
// partial output, exactly as Hadoop re-schedules failed task attempts.
// Wrap or return it from a map/reduce function (or a failure injector) to
// exercise the retry path.
var ErrTransient = errors.New("mr: transient task failure")

// Input is one input of a job, tagged for the map function: a store file, or
// — with no File — the positions 0..Count-1 of data the caller holds, which
// Job.MapAt maps.
type Input struct {
	File  string
	Tag   int
	Count int
}

// Job describes one map-reduce cycle.
type Job struct {
	// Name labels the job in metrics and errors.
	Name string
	// Inputs are the files and position ranges to map over.
	Inputs []Input
	// Map maps the records of file inputs (and of a streamed boundary), MapAt
	// the positions of positional ones. Each is required by the inputs it
	// serves.
	Map   MapFunc
	MapAt PosMapFunc
	// Reduce is the reduce function. Required, unless ReduceRows is set.
	Reduce ReduceFunc
	// ReduceRows, set instead of Reduce, makes the job's output typed id
	// rows collected in Rows (required with it) rather than text records.
	// Rows are committed exactly as records are: only a successful task
	// attempt contributes, Resplit shards concatenate in shard order, and
	// Metrics.OutputRecords counts rows. Such a job writes no Output, feeds
	// no Tap and streams to no later stage — it is a chain's last.
	ReduceRows RowReduceFunc
	Rows       *Rows
	// Output names the store file the reduce output is written to. Empty
	// discards output (metric-only runs).
	Output string
	// SortValues sorts each reduce task's value list before reduction,
	// making runs deterministic (Hadoop guarantees key order; this
	// additionally pins value order the way a secondary sort would).
	SortValues bool
	// Resplit, when set alongside Config.ResplitPairThreshold, lets the
	// engine re-shard an oversized reduce task's value list into sub-tasks
	// mid-job (before dispatch). The hook must return shards such that
	// reducing each shard independently and concatenating the outputs in
	// shard order produces exactly the records of reducing the whole list
	// (values may be replicated across shards to keep that true — the
	// drivers use a cell cover over the join's input streams). Returning
	// nil or a single shard declines the split. Each shard runs under the
	// task's original key with full retry semantics.
	Resplit func(key int64, values []string, parts int) [][]string
	// Meta annotates the job for observability: the tracer's cycle spans
	// and the optional pprof labels carry it, so traces and CPU profiles
	// attribute time to (algorithm, cycle, predicate family) rather than
	// to anonymous jobs. Optional; the zero value adds nothing.
	Meta JobMeta
}

// JobMeta is a job's observability annotation, set by the algorithm
// drivers.
type JobMeta struct {
	// Algorithm is the driver's name ("rccis", "all-matrix", ...).
	Algorithm string
	// Cycle is the job's 1-based position in the driver's MR chain.
	Cycle int
	// Family is the query's predicate family ("colocation", "sequence",
	// "hybrid", "general").
	Family string
}

// traceArgs renders the non-empty meta fields as span annotations.
func (jm JobMeta) traceArgs() []obs.Arg {
	args := make([]obs.Arg, 0, 3)
	if jm.Algorithm != "" {
		args = append(args, obs.Arg{Key: "algorithm", Val: jm.Algorithm})
	}
	if jm.Cycle > 0 {
		args = append(args, obs.Arg{Key: "cycle", Val: strconv.Itoa(jm.Cycle)})
	}
	if jm.Family != "" {
		args = append(args, obs.Arg{Key: "family", Val: jm.Family})
	}
	return args
}

// Config configures an Engine.
type Config struct {
	// Store holds file inputs and outputs and the shuffle's spill runs.
	// Required.
	Store dfs.Store
	// Workers is the number of concurrent map (and reduce) tasks.
	// Defaults to GOMAXPROCS.
	Workers int
	// SpillPairThreshold bounds the intermediate pairs each map worker
	// buffers in memory; beyond it the worker spills a key-sorted run to
	// the store and the reduce phase streams a merge of the runs.
	// 0 disables spilling (fully in-memory shuffle).
	SpillPairThreshold int
	// MaxTaskAttempts bounds attempts per task (map batch or reduce key).
	// Values below 1 mean 1 (no retry). Hadoop's default is 4.
	MaxTaskAttempts int
	// FailureInjector, when non-nil, runs before every task attempt and
	// may return an error (typically wrapping ErrTransient) to simulate
	// task failures. Used by the failure-injection tests.
	FailureInjector func(phase Phase, task, attempt int) error
	// ResplitPairThreshold arms the mid-job re-split: a reduce task whose
	// shuffled value count reaches the threshold is re-sharded through
	// Job.Resplit (when the job provides the hook) and its shards reduced
	// concurrently on spare goroutines. 0 disables re-splitting.
	ResplitPairThreshold int
	// Tracer, when non-nil, records structured execution spans (per map
	// and reduce task, spill, shuffle merge, cycle and chain) into
	// internal/obs; every count stays in Metrics. A nil tracer disables
	// all recording at the cost of a nil check per instrumentation site.
	Tracer *obs.Tracer
}

// Engine executes jobs.
type Engine struct {
	store    dfs.Store
	workers  int
	spill    int
	attempts int
	inject   func(phase Phase, task, attempt int) error
	resplit  int
	tracer   *obs.Tracer
}

// NewEngine returns an engine over the given store.
func NewEngine(cfg Config) *Engine {
	w := cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	a := cfg.MaxTaskAttempts
	if a < 1 {
		a = 1
	}
	return &Engine{
		store:    cfg.Store,
		workers:  w,
		spill:    cfg.SpillPairThreshold,
		attempts: a,
		inject:   cfg.FailureInjector,
		resplit:  cfg.ResplitPairThreshold,
		tracer:   cfg.Tracer,
	}
}

// Tracer returns the engine's tracer (nil when tracing is disabled).
func (e *Engine) Tracer() *obs.Tracer { return e.tracer }

// WithTracer returns a derived engine identical to e but recording into
// tr (which may be nil to disable tracing). The engine carries only
// configuration, so the copy shares the store and runs interchangeably
// with the original — this is how a service attaches a fresh per-query
// tracer to a sampled request without touching the shared engine.
func (e *Engine) WithTracer(tr *obs.Tracer) *Engine {
	d := *e
	d.tracer = tr
	return &d
}

// Store returns the engine's file store.
func (e *Engine) Store() dfs.Store { return e.store }

// Run executes one job and returns its metrics.
func (e *Engine) Run(job Job) (*Metrics, error) {
	return e.runJob(job, nil, nil, true)
}

// runJob executes one job. stream, when non-nil, feeds extra map input
// records alongside the job's file inputs (the pipelined cycle boundary);
// snk, when non-nil, observes every reduce task's committed output; writeOut
// false suppresses writing Job.Output (the records only travel through snk).
func (e *Engine) runJob(job Job, stream <-chan []taggedRecord, snk *sink, writeOut bool) (*Metrics, error) {
	if (job.Reduce == nil) == (job.ReduceRows == nil) {
		return nil, fmt.Errorf("mr: job %s: one of Reduce and ReduceRows is required", job.Name)
	}
	needMap, needMapAt := stream != nil, false
	for _, in := range job.Inputs {
		if (in.File == "") == (in.Count <= 0) {
			return nil, fmt.Errorf("mr: job %s: input tagged %d needs a File or a positive Count, not both", job.Name, in.Tag)
		}
		needMap = needMap || in.File != ""
		needMapAt = needMapAt || in.File == ""
	}
	if needMap && job.Map == nil || needMapAt && job.MapAt == nil || job.Map == nil && job.MapAt == nil {
		return nil, fmt.Errorf("mr: job %s: Map is required by file inputs, MapAt by positional ones", job.Name)
	}
	if (job.ReduceRows != nil) != (job.Rows != nil) || job.Rows != nil && (job.Rows.Width < 1 || job.Output != "") {
		return nil, fmt.Errorf("mr: job %s: ReduceRows and Rows go together, with a positive width and no Output", job.Name)
	}
	m := newMetrics(job.Name)
	jobLane := e.tracer.Acquire()
	defer e.tracer.Release(jobLane)
	jobStart := jobLane.Begin()
	start := time.Now()

	shuffle, err := e.mapPhase(job, m, stream, jobLane)
	if err != nil {
		return nil, err
	}
	if err := e.reducePhase(job, shuffle, m, snk, writeOut, jobLane); err != nil {
		return nil, err
	}
	m.CleanupFailures += shuffle.cleanup(e.store)
	m.TotalWall = time.Since(start)
	if jobLane != nil {
		jobLane.End(obs.CatCycle, "cycle:"+job.Name, jobStart, job.Meta.traceArgs()...)
	}
	return m, nil
}

// taggedRecord is one record of map input.
type taggedRecord struct {
	tag    int
	record string
}

// mapTask is one map task's input, the retry unit: a batch of records read
// from a file or streamed from the previous stage, or — with no records — the
// positions [lo, hi) of the positional input tagged tag.
type mapTask struct {
	records     []taggedRecord
	tag, lo, hi int
}

// mapBatchSize is the number of records or positions per map task.
const mapBatchSize = 256

// shuffleState carries the map output to the reduce phase: either fully
// in-memory groups partitioned into key shards, or spilled sorted runs plus
// in-memory leftovers. In memory every value list of a shard is a stretch of
// one arena, sized by count and filled by placement (mergeShard); the lists
// hold views of what the map functions emitted and are themselves views the
// reduce tasks are handed, so nothing here is copied after the map phase and
// nothing is owned by a task.
type shuffleState struct {
	shards   []map[int64][]string // in-memory mode, shards[shardOf(k)] holds k
	runFiles []string             // spill mode
	leftover [][]emission         // spill mode: per-worker lo-sorted tails
}

// shardOf partitions reduce keys across n shards. Map workers bucket their
// local output by shard, so the post-map merge parallelises with one merge
// task per shard and no locking.
func shardOf(key int64, n int) int { return int(uint64(key) % uint64(n)) }

// rangeShardStart returns the smallest key >= lo owned by shard p, so a
// range expansion visits only the keys of one shard. lo is non-negative
// (EmitRange expands negative ranges eagerly).
func rangeShardStart(lo int64, p, n int) int64 {
	return lo + ((int64(p)-lo)%int64(n)+int64(n))%int64(n)
}

// group returns the value list shuffled to key.
func (s *shuffleState) group(key int64) []string {
	return s.shards[shardOf(key, len(s.shards))][key]
}

func (s *shuffleState) spilled() bool { return s.runFiles != nil || s.leftover != nil }

// cleanup removes the job's spill runs and returns how many removals
// failed. Failures do not affect the job's result — the runs have been read —
// but the caller records them in Metrics so leaked store space is visible.
func (s *shuffleState) cleanup(store dfs.Store) int {
	failed := 0
	for _, f := range s.runFiles {
		if err := store.Remove(f); err != nil {
			failed++
		}
	}
	return failed
}

// spillSeq numbers the shuffles that spill, for their runs' names.
var spillSeq atomic.Int64

// batchPool recycles map-input batches: the feed hands each filled batch to
// a map worker, which returns it after the task completes.
var batchPool = sync.Pool{
	New: func() any { return make([]taggedRecord, 0, mapBatchSize) },
}

// valuesPool recycles the per-task value slices the streaming reduce path
// hands to reduce tasks (mirroring the sweep kernel's pooled scratch).
var valuesPool = sync.Pool{
	New: func() any { return new([]string) },
}

// recycleValues clears a pooled value slice's string references and returns
// it to the pool.
func recycleValues(vs *[]string) {
	clear(*vs)
	*vs = (*vs)[:0]
	valuesPool.Put(vs)
}

// mapWorker is what one map worker accumulates over its tasks: the emission
// log, and in memory how many values each reduce key will receive.
type mapWorker struct {
	log emitLog
	// counts[p][k] is the number of values the log holds for key k of shard
	// p (in-memory mode; nil when spilling). The merge sizes every value list
	// from it, so no list ever grows.
	counts []map[int64]int
	// run is the stretch of equal point keys being counted, not yet in
	// counts: one map update per run rather than per pair.
	runKey    int64
	runLen    int
	flat      []emission // spill mode: the log laid out flat for the sort
	runs      []string
	pairs     int64 // logical: one per covered key
	bytes     int64 // logical: value bytes per covered key
	physPairs int64 // physical: one per emission record
	physBytes int64 // physical: what the shuffle actually holds
	spilled   int64 // logical pairs inside spilled runs
	retries   int64
}

// fold accounts for the emissions of a successful attempt.
func (st *mapWorker) fold(ems []emission) {
	for i := range ems {
		p := &ems[i]
		n := p.span()
		st.pairs += n
		st.bytes += n * (int64(len(p.value)) + 8)
		st.physPairs++
		st.physBytes += p.physBytes()
		switch {
		case st.counts == nil:
		case p.isRange():
			for k := p.lo; k <= p.hi; k++ {
				st.counts[shardOf(k, len(st.counts))][k]++
			}
		case st.runLen > 0 && p.lo == st.runKey:
			st.runLen++
		default:
			st.endRun()
			st.runKey, st.runLen = p.lo, 1
		}
	}
}

// endRun moves the pending run of equal keys into counts.
func (st *mapWorker) endRun() {
	if st.runLen > 0 {
		st.counts[shardOf(st.runKey, len(st.counts))][st.runKey] += st.runLen
		st.runLen = 0
	}
}

// spillLog writes the log out as the run called name and empties it.
func (st *mapWorker) spillLog(store dfs.Store, name string) (records int, err error) {
	st.flat = st.log.appendTo(st.flat[:0])
	st.log.release()
	// The run holds the values now; the scratch must not keep them alive.
	defer clear(st.flat)
	for _, p := range st.flat {
		st.spilled += p.span()
	}
	st.runs = append(st.runs, name)
	return len(st.flat), spillRun(store, name, st.flat)
}

func (e *Engine) mapPhase(job Job, m *Metrics, stream <-chan []taggedRecord, jobLane *obs.Lane) (*shuffleState, error) {
	mapStart := time.Now()
	nshards := e.workers
	work := make(chan mapTask, 2*e.workers)
	errc := make(chan error, 2*e.workers)

	states := make([]*mapWorker, e.workers)
	// Every page goes back when the phase is over, however it ends: by then
	// the merge has placed the values, or the leftovers have been copied out.
	defer func() {
		for _, st := range states {
			st.log.release()
		}
	}()
	// The shuffle's spill runs are named by the engine, so two jobs on one
	// store never write the same run, whatever the jobs are called.
	var spillDir string
	if e.spill > 0 {
		spillDir = ".spill/" + strconv.FormatInt(spillSeq.Add(1), 10) + "/"
	}
	var taskSeq sync.Mutex
	nextTask := 0
	takeTask := func() int {
		taskSeq.Lock()
		defer taskSeq.Unlock()
		t := nextTask
		nextTask++
		return t
	}

	var wg sync.WaitGroup
	for w := 0; w < e.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lane := e.tracer.Acquire()
			defer e.tracer.Release(lane)
			var mapSpan, spillSpan string
			if lane != nil {
				mapSpan = "map:" + job.Name
				spillSpan = "spill:" + job.Name
			}
			st := &mapWorker{}
			if e.spill == 0 {
				st.counts = make([]map[int64]int, nshards)
				for p := range st.counts {
					st.counts[p] = make(map[int64]int)
				}
			}
			states[w] = st
			defer st.endRun()
			emit := Emitter{buf: &st.log.cur, log: &st.log}
			fold := st.fold
			for batch := range work {
				task := takeTask()
				taskStart := lane.Begin()
				began := st.log.mark()
				for attempt := 1; ; attempt++ {
					err := e.runMapAttempt(job, batch, task, attempt, emit)
					if err == nil {
						break
					}
					// The failed attempt's pairs leave the log.
					st.log.truncate(began)
					if !errors.Is(err, ErrTransient) || attempt >= e.attempts {
						errc <- fmt.Errorf("mr: job %s: map task %d: %w", job.Name, task, err)
						for range work {
						}
						return
					}
					st.retries++
					if lane != nil {
						lane.Event(obs.CatMap, "retry:"+job.Name)
					}
				}
				if batch.records != nil {
					batchPool.Put(batch.records[:0])
				}
				st.log.since(began, fold)
				if e.spill > 0 && st.log.len() >= e.spill {
					name := spillDir + "w" + strconv.Itoa(w) + "-r" + strconv.Itoa(len(st.runs))
					spillStart := lane.Begin()
					records, err := st.spillLog(e.store, name)
					if err != nil {
						errc <- fmt.Errorf("mr: job %s: %w", job.Name, err)
						for range work {
						}
						return
					}
					if lane != nil {
						lane.End(obs.CatSpill, spillSpan, spillStart, obs.Arg{Key: "records", Val: strconv.Itoa(records)})
					}
				}
				lane.End(obs.CatMap, mapSpan, taskStart)
			}
		}(w)
	}

	// Feed map tasks with one reader per input (bounded by the worker
	// count), so multi-file and multi-input jobs are not throttled by a
	// single reader goroutine.
	var records atomic.Int64
	feedErrc := make(chan error, len(job.Inputs))
	inputc := make(chan Input)
	readers := min(e.workers, len(job.Inputs))
	var feedWG sync.WaitGroup
	for r := 0; r < readers; r++ {
		feedWG.Add(1)
		go func() {
			defer feedWG.Done()
			lane := e.tracer.Acquire()
			defer e.tracer.Release(lane)
			for in := range inputc {
				if in.File == "" {
					// Nothing to read: the positions are the tasks.
					for lo := 0; lo < in.Count; lo += mapBatchSize {
						work <- mapTask{tag: in.Tag, lo: lo, hi: min(lo+mapBatchSize, in.Count)}
					}
					records.Add(int64(in.Count))
					continue
				}
				fStart := lane.Begin()
				if err := e.feedFile(job, in, work, &records); err != nil {
					feedErrc <- err
					// Keep draining so the dispatcher never blocks.
				}
				if lane != nil {
					lane.End(obs.CatFeed, "feed:"+in.File, fStart)
				}
			}
		}()
	}
	// A streamed boundary feeds upstream reduce batches straight into the
	// same work queue the file readers fill: upstream batches are already
	// the retry unit, so a failed downstream map attempt re-runs from the
	// buffered batch without touching the store.
	if stream != nil {
		feedWG.Add(1)
		go func() {
			defer feedWG.Done()
			for batch := range stream {
				records.Add(int64(len(batch)))
				work <- mapTask{records: batch}
			}
		}()
	}
	for _, in := range job.Inputs {
		inputc <- in
	}
	close(inputc)
	feedWG.Wait()
	m.FeedWall = time.Since(mapStart)
	close(work)
	wg.Wait()
	close(errc)
	close(feedErrc)
	if err := <-feedErrc; err != nil {
		return nil, err
	}
	if err := <-errc; err != nil {
		return nil, err
	}

	m.MapInputRecords = records.Load()
	m.MapWall = time.Since(mapStart)

	shuffle := &shuffleState{}
	for _, st := range states {
		m.IntermediatePairs += st.pairs
		m.IntermediateBytes += st.bytes
		m.PhysicalPairs += st.physPairs
		m.PhysicalBytes += st.physBytes
		m.SpilledPairs += st.spilled
		m.TaskRetries += st.retries
		if e.spill == 0 {
			continue
		}
		shuffle.runFiles = append(shuffle.runFiles, st.runs...)
		m.SpillRuns += len(st.runs)
		if st.log.len() > 0 {
			tail := st.log.appendTo(make([]emission, 0, st.log.len()))
			sortEmissions(tail)
			shuffle.leftover = append(shuffle.leftover, tail)
		}
	}
	if e.spill > 0 {
		return shuffle, nil
	}

	// Merge the workers' logs into per-shard groups, one merge task per
	// shard on its own goroutine — no shard is touched by two tasks, so the
	// merge needs no locks.
	shuffle.shards = make([]map[int64][]string, nshards)
	mergeStart := jobLane.Begin()
	var mergeWG sync.WaitGroup
	for p := 0; p < nshards; p++ {
		mergeWG.Add(1)
		go func(p int) {
			defer mergeWG.Done()
			shuffle.shards[p] = mergeShard(states, p)
		}(p)
	}
	mergeWG.Wait()
	if jobLane != nil {
		jobLane.End(obs.CatMerge, "merge:"+job.Name, mergeStart)
	}
	for _, shard := range shuffle.shards {
		m.DistinctKeys += len(shard)
		for k, vs := range shard {
			m.ReducerPairs[k] = int64(len(vs))
		}
	}
	return shuffle, nil
}

// mergeShard builds the value lists of shard p as a counting sort of the
// workers' logs: the counts kept at fold time size one arena for the whole
// shard and give every key its stretch of it, then one pass over the logs
// writes each value at its key's cursor — nothing is appended and no list
// grows. A range emission is expanded here, one shared string per covered
// key, stepping through the range with the shard stride so that the work is
// proportional to the keys the shard owns.
func mergeShard(states []*mapWorker, p int) map[int64][]string {
	nshards := len(states)
	// slot numbers the shard's keys; next[slot] is where the key's next value
	// goes — first its count, then, summed up, its cursor into the arena.
	most := len(states[0].counts[p])
	slot := make(map[int64]int, most)
	keys, next := make([]int64, 0, most), make([]int, 0, most)
	total := 0
	for _, st := range states {
		for k, n := range st.counts[p] {
			i, ok := slot[k]
			if !ok {
				i = len(keys)
				slot[k] = i
				keys, next = append(keys, k), append(next, 0)
			}
			next[i] += n
			total += n
		}
	}
	arena := make([]string, total)
	shard := make(map[int64][]string, len(keys))
	off := 0
	for i, k := range keys {
		n := next[i]
		shard[k] = arena[off : off+n : off+n]
		next[i] = off
		off += n
	}
	place := func(ems []emission) {
		for i := range ems {
			em := &ems[i]
			if !em.isRange() {
				if shardOf(em.lo, nshards) == p {
					c := &next[slot[em.lo]]
					arena[*c] = em.value
					*c++
				}
				continue
			}
			for k := rangeShardStart(em.lo, p, nshards); k <= em.hi; k += int64(nshards) {
				c := &next[slot[k]]
				arena[*c] = em.value
				*c++
			}
		}
	}
	for _, st := range states {
		st.log.since(logMark{}, place)
	}
	return shard
}

// feedFile streams one input file into map batches.
func (e *Engine) feedFile(job Job, in Input, work chan<- mapTask, records *atomic.Int64) error {
	it, err := e.store.Open(in.File)
	if err != nil {
		return fmt.Errorf("mr: job %s: %w", job.Name, err)
	}
	defer it.Close()
	batch := batchPool.Get().([]taggedRecord)
	n := int64(0)
	for {
		rec, ok, err := it.Next()
		if err != nil {
			batchPool.Put(batch[:0])
			return fmt.Errorf("mr: job %s: read %s: %w", job.Name, in.File, err)
		}
		if !ok {
			break
		}
		n++
		batch = append(batch, taggedRecord{tag: in.Tag, record: rec})
		if len(batch) == mapBatchSize {
			work <- mapTask{records: batch}
			batch = batchPool.Get().([]taggedRecord)
		}
	}
	records.Add(n)
	if len(batch) > 0 {
		work <- mapTask{records: batch}
	} else {
		batchPool.Put(batch[:0])
	}
	return nil
}

// runMapAttempt executes one map task attempt, its emissions going to emit.
func (e *Engine) runMapAttempt(job Job, in mapTask, task, attempt int, emit Emitter) error {
	if e.inject != nil {
		if err := e.inject(PhaseMap, task, attempt); err != nil {
			return err
		}
	}
	for _, tr := range in.records {
		if err := job.Map(tr.tag, tr.record, emit); err != nil {
			return err
		}
	}
	for pos := in.lo; pos < in.hi; pos++ {
		if err := job.MapAt(in.tag, pos, emit); err != nil {
			return err
		}
	}
	return nil
}

// reduceResult is one reduce task's buffered output: records, or rows for a
// ReduceRows job.
type reduceResult struct {
	key      int64
	output   []string
	rows     Rows
	duration time.Duration
	pairs    int64
}

// newResult starts the result of a task over n values; for a ReduceRows job
// its rows have the job's width.
func (job *Job) newResult(key int64, n int) reduceResult {
	res := reduceResult{key: key, pairs: int64(n)}
	if job.Rows != nil {
		res.rows.Width = job.Rows.Width
	}
	return res
}

func (e *Engine) reducePhase(job Job, shuffle *shuffleState, m *Metrics, snk *sink, writeOut bool, jobLane *obs.Lane) error {
	reduceStart := time.Now()
	var results []reduceResult
	var err error
	if shuffle.spilled() {
		results, err = e.reduceStreaming(job, shuffle, m, snk, jobLane)
	} else {
		results, err = e.reduceInMemory(job, shuffle, m, snk)
	}
	if err != nil {
		return err
	}
	slices.SortFunc(results, func(a, b reduceResult) int { return cmp.Compare(a.key, b.key) })

	for _, res := range results {
		m.ReducerTime[res.key] = res.duration
		if res.duration > m.MaxReducerTime {
			m.MaxReducerTime = res.duration
		}
		m.OutputRecords += int64(len(res.output) + res.rows.Len())
	}
	m.MakespanKeyOrder, m.MakespanLPT = modelDispatchOrders(results, e.workers)
	if job.Rows != nil {
		for i := range results {
			job.Rows.take(&results[i].rows)
		}
	}
	if writeOut {
		outStart := jobLane.Begin()
		if err := e.writeOutput(job, results); err != nil {
			return err
		}
		if jobLane != nil {
			jobLane.End(obs.CatOutput, "output:"+job.Name, outStart)
		}
	}
	m.ReduceWall = time.Since(reduceStart)
	return nil
}

// modelDispatchOrders replays the measured reduce task durations through the
// list scheduler in ascending key order and in the longest-first order the
// engine dispatches (by shuffled value count), quantifying the straggler
// tail the LPT ordering removes.
func modelDispatchOrders(results []reduceResult, workers int) (keyOrder, lpt time.Duration) {
	durs := make([]time.Duration, len(results))
	for i, r := range results {
		durs[i] = r.duration
	}
	keyOrder = listMakespan(durs, workers)
	order := make([]int, len(results))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(results[b].pairs, results[a].pairs); c != 0 {
			return c
		}
		return cmp.Compare(results[a].key, results[b].key)
	})
	for i, oi := range order {
		durs[i] = results[oi].duration
	}
	return keyOrder, listMakespan(durs, workers)
}

// writeOutput commits the buffered reduce outputs to the job's output file.
func (e *Engine) writeOutput(job Job, results []reduceResult) error {
	if job.Output == "" {
		return nil
	}
	w, err := e.store.Create(job.Output)
	if err != nil {
		return fmt.Errorf("mr: job %s: %w", job.Name, err)
	}
	for _, res := range results {
		for _, rec := range res.output {
			if err := w.Write(rec); err != nil {
				w.Close()
				return fmt.Errorf("mr: job %s: write output: %w", job.Name, err)
			}
		}
	}
	if err := w.Close(); err != nil {
		return fmt.Errorf("mr: job %s: close output: %w", job.Name, err)
	}
	return nil
}

// runReduceTask executes one reduce task with retry semantics.
func (e *Engine) runReduceTask(job Job, task int, key int64, values []string, m *retryCounter, lane *obs.Lane, spanName string) (reduceResult, error) {
	taskStart := lane.Begin()
	if job.SortValues {
		slices.Sort(values)
	}
	for attempt := 1; ; attempt++ {
		// The attempt's output lives in res and nowhere else, so a failed
		// attempt's partial output goes away with it, its row chunks back to
		// the pool.
		res := job.newResult(key, len(values))
		t0 := time.Now()
		err := func() error {
			if e.inject != nil {
				if err := e.inject(PhaseReduce, task, attempt); err != nil {
					return err
				}
			}
			if job.ReduceRows != nil {
				return job.ReduceRows(key, values, &res.rows)
			}
			return job.Reduce(key, values, func(record string) error {
				if res.output == nil {
					// Most record-writing reducers write about what they
					// received: a record per tuple they are home to.
					res.output = make([]string, 0, len(values))
				}
				res.output = append(res.output, record)
				return nil
			})
		}()
		if err == nil {
			if lane != nil {
				lane.End(obs.CatReduce, spanName, taskStart,
					obs.Arg{Key: "key", Val: strconv.FormatInt(key, 10)})
			}
			res.duration = time.Since(t0)
			return res, nil
		}
		res.rows.Release()
		if !errors.Is(err, ErrTransient) || attempt >= e.attempts {
			return reduceResult{}, fmt.Errorf("mr: job %s: reduce key %d: %w", job.Name, key, err)
		}
		m.add(1)
		if lane != nil {
			lane.Event(obs.CatReduce, "retry:"+job.Name)
		}
	}
}

// runReduceTaskSplit executes one reduce task, re-splitting it mid-job
// when its shuffled volume crossed Config.ResplitPairThreshold and the
// job opted in via Job.Resplit: the value list is re-sharded by the hook
// and the shards reduced concurrently on spare goroutines — the
// single-process analogue of re-scheduling a hot reduce task's input
// across idle cluster workers. Each shard keeps the original key and the
// full per-attempt retry machinery; the shard outputs (records or rows) are
// concatenated in shard order into one result, so downstream (sink delivery, output
// commit, per-key metrics) sees exactly one task whose duration is the
// wall clock of the whole split execution.
func (e *Engine) runReduceTaskSplit(job Job, task int, key int64, values []string, m *retryCounter, lane *obs.Lane, spanName string) (reduceResult, error) {
	if job.Resplit == nil || e.resplit <= 0 || len(values) < e.resplit {
		return e.runReduceTask(job, task, key, values, m, lane, spanName)
	}
	parts := (len(values) + e.resplit - 1) / e.resplit
	if parts > e.workers {
		parts = e.workers
	}
	if parts < 2 {
		parts = 2
	}
	splitStart := lane.Begin()
	t0 := time.Now()
	shards := job.Resplit(key, values, parts)
	if len(shards) <= 1 {
		return e.runReduceTask(job, task, key, values, m, lane, spanName)
	}
	results := make([]reduceResult, len(shards))
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	live := 0
	for si := range shards {
		if len(shards[si]) == 0 {
			continue
		}
		live++
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			slane := e.tracer.Acquire()
			defer e.tracer.Release(slane)
			var span string
			if slane != nil {
				span = "reduce-shard:" + job.Name
			}
			results[si], errs[si] = e.runReduceTask(job, task, key, shards[si], m, slane, span)
		}(si)
	}
	wg.Wait()
	merged := job.newResult(key, len(values))
	for si := range shards {
		if errs[si] != nil {
			return reduceResult{}, errs[si]
		}
		merged.output = append(merged.output, results[si].output...)
		merged.rows.take(&results[si].rows)
	}
	merged.duration = time.Since(t0)
	if lane != nil {
		lane.End(obs.CatResplit, "resplit:"+job.Name, splitStart,
			obs.Arg{Key: "key", Val: strconv.FormatInt(key, 10)},
			obs.Arg{Key: "shards", Val: strconv.Itoa(live)})
	}
	return merged, nil
}

// withReduceLabels runs fn, labelling its goroutine for CPU profiles when
// the tracer asks for pprof labels, so profile samples attribute reduce
// time to (algorithm, cycle, job) instead of anonymous worker goroutines.
func (e *Engine) withReduceLabels(job Job, fn func()) {
	if !e.tracer.PprofLabels() {
		fn()
		return
	}
	labels := pprof.Labels(
		"mr_phase", "reduce",
		"job", job.Name,
		"algorithm", job.Meta.Algorithm,
		"cycle", strconv.Itoa(job.Meta.Cycle),
	)
	pprof.Do(context.Background(), labels, func(context.Context) { fn() })
}

// retryCounter accumulates retries across concurrent reduce tasks.
type retryCounter struct {
	mu sync.Mutex
	n  int64
}

func (rc *retryCounter) add(d int64) {
	rc.mu.Lock()
	rc.n += d
	rc.mu.Unlock()
}

func (e *Engine) reduceInMemory(job Job, shuffle *shuffleState, m *Metrics, snk *sink) ([]reduceResult, error) {
	keys := make([]int64, 0, m.DistinctKeys)
	for _, shard := range shuffle.shards {
		for k := range shard {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)

	// Dispatch longest-processing-time first (by shuffled value count):
	// classic list scheduling, which keeps the heaviest reduce task from
	// landing last and stretching the phase by a whole straggler. keys
	// stays key-sorted so results/output ordering is unaffected.
	order := make([]int, len(keys))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(len(shuffle.group(keys[b])), len(shuffle.group(keys[a]))); c != 0 {
			return c
		}
		return cmp.Compare(keys[a], keys[b])
	})

	results := make([]reduceResult, len(keys))
	errc := make(chan error, e.workers)
	keyc := make(chan int, 2*e.workers)
	var retries retryCounter
	var wg sync.WaitGroup
	for w := 0; w < e.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lane := e.tracer.Acquire()
			defer e.tracer.Release(lane)
			var reduceSpan string
			if lane != nil {
				reduceSpan = "reduce:" + job.Name
			}
			e.withReduceLabels(job, func() {
				for ki := range keyc {
					key := keys[ki]
					res, err := e.runReduceTaskSplit(job, ki, key, shuffle.group(key), &retries, lane, reduceSpan)
					if err != nil {
						errc <- err
						for range keyc {
						}
						return
					}
					results[ki] = res
					snk.deliver(res.output)
				}
			})
		}()
	}
	for _, ki := range order {
		keyc <- ki
	}
	close(keyc)
	wg.Wait()
	close(errc)
	if err := <-errc; err != nil {
		return nil, err
	}
	m.TaskRetries += retries.n
	return results, nil
}

// reduceStreaming merges the spilled runs and in-memory leftovers in key
// order, dispatching each key's values to the worker pool as it completes —
// only one in-flight key list per worker is materialised.
func (e *Engine) reduceStreaming(job Job, shuffle *shuffleState, m *Metrics, snk *sink, jobLane *obs.Lane) ([]reduceResult, error) {
	cursors := make([]cursor, 0, len(shuffle.runFiles)+len(shuffle.leftover))
	for _, f := range shuffle.runFiles {
		rc, err := openRun(e.store, f)
		if err != nil {
			return nil, fmt.Errorf("mr: job %s: %w", job.Name, err)
		}
		defer rc.close()
		cursors = append(cursors, rc)
	}
	for _, l := range shuffle.leftover {
		cursors = append(cursors, &memCursor{ems: l})
	}

	type task struct {
		idx    int
		key    int64
		values *[]string
	}
	taskc := make(chan task, e.workers)
	errc := make(chan error, e.workers+1)
	var (
		mu      sync.Mutex
		results []reduceResult
		retries retryCounter
		wg      sync.WaitGroup
	)
	for w := 0; w < e.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lane := e.tracer.Acquire()
			defer e.tracer.Release(lane)
			var reduceSpan string
			if lane != nil {
				reduceSpan = "reduce:" + job.Name
			}
			e.withReduceLabels(job, func() {
				for t := range taskc {
					res, err := e.runReduceTaskSplit(job, t.idx, t.key, *t.values, &retries, lane, reduceSpan)
					recycleValues(t.values)
					if err != nil {
						errc <- err
						for range taskc {
						}
						return
					}
					mu.Lock()
					results = append(results, res)
					mu.Unlock()
					snk.deliver(res.output)
				}
			})
		}()
	}
	idx := 0
	mergeStart := jobLane.Begin()
	mergeErr := mergeRuns(cursors, func(key int64, values []string) error {
		// The merge reuses its values slice, so each dispatched task gets a
		// pooled copy that the worker recycles once the task commits —
		// bounded scratch instead of a fresh allocation per key.
		cp := valuesPool.Get().(*[]string)
		*cp = append((*cp)[:0], values...)
		m.ReducerPairs[key] = int64(len(values))
		taskc <- task{idx: idx, key: key, values: cp}
		idx++
		return nil
	})
	if jobLane != nil {
		jobLane.End(obs.CatMerge, "merge:"+job.Name, mergeStart)
	}
	close(taskc)
	wg.Wait()
	close(errc)
	if mergeErr != nil {
		return nil, fmt.Errorf("mr: job %s: shuffle merge: %w", job.Name, mergeErr)
	}
	if err := <-errc; err != nil {
		return nil, err
	}
	m.DistinctKeys = idx
	m.TaskRetries += retries.n
	return results, nil
}
