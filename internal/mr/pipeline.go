package mr

import (
	"fmt"
	"sync"
	"time"

	"intervaljoin/internal/obs"
)

// Pipelined chain execution. Running chained jobs one Run at a time writes
// every cycle boundary to the store and re-parses it — Hadoop's HDFS barrier
// between chained jobs. RunPipeline short-circuits those boundaries: when
// stage k's output file is consumed by stage k+1, each completed
// reduce task of stage k streams its records directly into stage k+1's map
// feed over a bounded channel, so k's reduce phase overlaps k+1's map phase
// and the file is never written. Fault tolerance is preserved because the
// streamed batch is the same retry unit as a file batch: a transient
// downstream map failure re-runs from the buffered batch, and an upstream
// reduce task only delivers output after its attempt has succeeded.
//
// Range emissions compose with streaming: a downstream stage's map emits
// ranges into its own shuffle, which keeps them coalesced until that stage's
// reduce sweep expands them — so a pipelined chain never materialises the
// per-key copies at any boundary.

// Stage is one cycle of a pipelined chain.
type Stage struct {
	// Job is the cycle's job.
	Job Job
	// Tap, when non-nil, observes every output record of the stage as its
	// reduce task commits, before (or instead of) being written. Calls
	// are serialised by the engine. Taps let drivers compute statistics
	// over intermediates without forcing them onto the store. A ReduceRows
	// job has no records to observe.
	Tap func(record string)
}

// sink receives the committed output of each reduce task: it feeds the
// records to the stage's Tap and, at a streamed boundary, batches them onto
// the bounded channel that the next stage's map feed consumes.
type sink struct {
	mu    sync.Mutex
	tag   int
	out   chan<- []taggedRecord
	tap   func(record string)
	pairs int64
	bytes int64
}

// deliver hands one reduce task's committed output downstream. Called only
// after the task attempt succeeded, so retried attempts never leak partial
// output past the boundary. Sends block when the channel is full — the
// backpressure that bounds how far the producer cycle can run ahead.
func (s *sink) deliver(records []string) {
	if s == nil || len(records) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tap != nil {
		for _, rec := range records {
			s.tap(rec)
		}
	}
	if s.out == nil {
		return
	}
	batch := batchPool.Get().([]taggedRecord)
	for _, rec := range records {
		s.pairs++
		s.bytes += int64(len(rec))
		batch = append(batch, taggedRecord{tag: s.tag, record: rec})
		if len(batch) == mapBatchSize {
			s.out <- batch
			batch = batchPool.Get().([]taggedRecord)
		}
	}
	if len(batch) > 0 {
		s.out <- batch
	} else {
		batchPool.Put(batch[:0])
	}
}

// boundaryPlan describes the edge from stage i to stage i+1.
type boundaryPlan struct {
	stream bool // reduce output of i feeds the map of i+1 directly
	tag    int  // map tag the streamed records carry downstream
}

// RunPipeline executes a chain of stages, streaming every cycle boundary it
// can and running the stages on both sides of a streamed boundary
// concurrently. It returns per-stage metrics (indexed like stages; nil for
// stages not reached after an error) and an aggregate whose PipelineWall,
// OverlapSaved and StreamedPairs/StreamedBytes fields record what the
// pipelining bought.
//
// A boundary i→i+1 streams when stage i writes an output file that stage i+1
// lists among its inputs. A streamed output is never written to the store, so
// a chain in which a later stage reads it again is rejected. A boundary that
// does not stream is a barrier: the downstream stage starts once its
// producers have finished and reads their files from the store.
func (e *Engine) RunPipeline(stages ...Stage) ([]*Metrics, *Metrics, error) {
	agg := newMetrics("pipeline")
	agg.Cycles = 0
	if len(stages) == 0 {
		return nil, agg, nil
	}
	n := len(stages)
	all := make([]*Metrics, n)
	bounds := make([]boundaryPlan, n)
	for i := 0; i < n-1; i++ {
		out := stages[i].Job.Output
		if out == "" {
			continue // discarded output: nothing to stream
		}
		tag, ok := consumes(stages[i+1].Job, out)
		if !ok {
			continue
		}
		for _, later := range stages[i+2:] {
			if _, ok := consumes(later.Job, out); ok {
				return all, agg, fmt.Errorf("mr: pipeline stage %d streams %s to the next stage, and stage %s reads it again", i, out, later.Job.Name)
			}
		}
		bounds[i] = boundaryPlan{stream: true, tag: tag}
	}

	start := time.Now()
	chainLane := e.tracer.Acquire()
	chainStart := chainLane.Begin()
	var firstErr error
	// Stages joined by streamed boundaries form a group that runs
	// concurrently; a non-streamed boundary is a barrier (the downstream
	// stage reads files from the store, so its producers must finish).
	for lo := 0; lo < n && firstErr == nil; {
		hi := lo
		for hi < n-1 && bounds[hi].stream {
			hi++
		}
		if chainLane != nil && lo > 0 {
			// A new group means the previous boundary was a store barrier,
			// not an overlapped stream.
			chainLane.Event(obs.CatBarrier, "barrier:"+stages[lo].Job.Name)
		}
		firstErr = e.runGroup(stages, bounds, lo, hi, all)
		lo = hi + 1
	}
	if chainLane != nil {
		chainLane.End(obs.CatChain, "pipeline", chainStart)
	}
	e.tracer.Release(chainLane)
	var sumWall time.Duration
	for _, m := range all {
		if m == nil {
			continue
		}
		agg.Merge(m)
		sumWall += m.TotalWall
	}
	agg.PipelineWall = time.Since(start)
	if sumWall > agg.PipelineWall {
		agg.OverlapSaved = sumWall - agg.PipelineWall
	}
	return all, agg, firstErr
}

// runGroup runs stages lo..hi concurrently, wired together by streamed
// boundaries, and records their metrics into all. Only stage hi, whose
// output does not stream, writes its Output to the store.
func (e *Engine) runGroup(stages []Stage, bounds []boundaryPlan, lo, hi int, all []*Metrics) error {
	errs := make([]error, hi-lo+1)
	var wg sync.WaitGroup
	var upstream chan []taggedRecord
	for k := lo; k <= hi; k++ {
		job := stages[k].Job
		in := upstream
		if in != nil {
			// The streamed input arrives over the channel; drop it from
			// the file inputs so it is neither re-read nor required to
			// exist on the store.
			job.Inputs = dropInput(job.Inputs, stages[k-1].Job.Output)
		}
		var snk *sink
		var out chan []taggedRecord
		if k < hi {
			out = make(chan []taggedRecord, 2*e.workers)
			snk = &sink{tag: bounds[k].tag, out: out, tap: stages[k].Tap}
		} else if stages[k].Tap != nil {
			snk = &sink{tap: stages[k].Tap}
		}
		wg.Add(1)
		go func(k int, job Job, in, out chan []taggedRecord, snk *sink) {
			defer wg.Done()
			m, err := e.runJob(job, in, snk, k == hi)
			if out != nil {
				// Wake the downstream stage's feed even on failure.
				close(out)
			}
			if in != nil {
				// If the job bailed before consuming its stream, drain it
				// so the upstream stage is never blocked on a full channel.
				for range in {
				}
			}
			if m != nil && snk != nil {
				m.StreamedPairs = snk.pairs
				m.StreamedBytes = snk.bytes
			}
			all[k] = m
			if err != nil {
				errs[k-lo] = fmt.Errorf("mr: pipeline stage %d: %w", k, err)
			}
		}(k, job, in, out, snk)
		upstream = out
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// consumes reports whether job reads file as one of its inputs, returning
// that input's map tag.
func consumes(job Job, file string) (int, bool) {
	for _, in := range job.Inputs {
		if in.File == file {
			return in.Tag, true
		}
	}
	return 0, false
}

// dropInput returns inputs without the entries reading file.
func dropInput(inputs []Input, file string) []Input {
	out := make([]Input, 0, len(inputs))
	for _, in := range inputs {
		if in.File != file {
			out = append(out, in)
		}
	}
	return out
}
