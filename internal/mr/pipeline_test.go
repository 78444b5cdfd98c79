package mr

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"intervaljoin/internal/dfs"
)

// chainJobs builds a 3-cycle chain over integer records: each cycle
// transforms and re-keys every record, so the boundary traffic is
// substantial and any record lost or duplicated at a boundary shows up in
// the final histogram.
func chainJobs() []Job {
	passThrough := func(key int64, values []string, write func(string) error) error {
		for _, v := range values {
			if err := write(v); err != nil {
				return err
			}
		}
		return nil
	}
	parse := func(rec string) (int64, error) { return strconv.ParseInt(rec, 10, 64) }
	j1 := Job{
		Name:   "t/j1",
		Inputs: []Input{{File: "in"}},
		Map: func(_ int, rec string, emit Emitter) error {
			v, err := parse(rec)
			if err != nil {
				return err
			}
			emit.Emit(v%17, strconv.FormatInt(v*3+1, 10))
			return nil
		},
		Reduce: passThrough,
		Output: "t/inter-1",
	}
	j2 := Job{
		Name:   "t/j2",
		Inputs: []Input{{File: "t/inter-1"}},
		Map: func(_ int, rec string, emit Emitter) error {
			v, err := parse(rec)
			if err != nil {
				return err
			}
			emit.Emit(v%13, strconv.FormatInt(v/2, 10))
			return nil
		},
		Reduce: passThrough,
		Output: "t/inter-2",
	}
	j3 := Job{
		Name:   "t/j3",
		Inputs: []Input{{File: "t/inter-2"}},
		Map: func(_ int, rec string, emit Emitter) error {
			v, err := parse(rec)
			if err != nil {
				return err
			}
			emit.Emit(v%7, rec)
			return nil
		},
		Reduce: func(key int64, values []string, write func(string) error) error {
			return write(fmt.Sprintf("%d:%d", key, len(values)))
		},
		Output: "t/out",
	}
	return []Job{j1, j2, j3}
}

func stageInput(n int) []string {
	recs := make([]string, n)
	for i := range recs {
		recs[i] = strconv.Itoa(i)
	}
	return recs
}

// chainStages wraps plain jobs as tap-less pipeline stages.
func chainStages(jobs ...Job) []Stage {
	stages := make([]Stage, len(jobs))
	for i, j := range jobs {
		stages[i] = Stage{Job: j}
	}
	return stages
}

// runSequential is the barriered reference the pipelined executor is
// compared against: one Engine.Run per job, every boundary written to the
// store and re-read, metrics merged as the cycles complete.
func runSequential(e *Engine, jobs ...Job) ([]*Metrics, *Metrics, error) {
	var per []*Metrics
	agg := newMetrics("sequential")
	agg.Cycles = 0
	for _, job := range jobs {
		m, err := e.Run(job)
		if err != nil {
			return per, agg, err
		}
		per = append(per, m)
		agg.Merge(m)
	}
	return per, agg, nil
}

func runChainOn(t *testing.T, cfg Config) ([]string, []*Metrics, *Metrics) {
	t.Helper()
	store := dfs.NewMem()
	cfg.Store = store
	dfs.WriteAll(store, "in", stageInput(5000))
	per, agg, err := runSequential(NewEngine(cfg), chainJobs()...)
	if err != nil {
		t.Fatal(err)
	}
	out, err := dfs.ReadAll(store, "t/out")
	if err != nil {
		t.Fatal(err)
	}
	return out, per, agg
}

func runPipelineOn(t *testing.T, cfg Config, stages []Stage) (dfs.Store, []string, []*Metrics, *Metrics) {
	t.Helper()
	store := dfs.NewMem()
	cfg.Store = store
	dfs.WriteAll(store, "in", stageInput(5000))
	per, agg, err := NewEngine(cfg).RunPipeline(stages...)
	if err != nil {
		t.Fatal(err)
	}
	out, err := dfs.ReadAll(store, "t/out")
	if err != nil {
		t.Fatal(err)
	}
	return store, out, per, agg
}

func sameLines(t *testing.T, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("output length %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("output line %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestPipelineMatchesChain is the engine-level equivalence check: the
// pipelined executor must produce byte-identical final output while never
// touching the store for the streamed boundaries.
func TestPipelineMatchesChain(t *testing.T) {
	want, _, _ := runChainOn(t, Config{Workers: 4})
	store, got, per, agg := runPipelineOn(t, Config{Workers: 4}, chainStages(chainJobs()...))
	sameLines(t, got, want)

	for _, f := range []string{"t/inter-1", "t/inter-2"} {
		if store.Exists(f) {
			t.Errorf("boundary %s was materialised despite streaming", f)
		}
	}
	if agg.Cycles != 3 {
		t.Errorf("aggregate cycles = %d, want 3", agg.Cycles)
	}
	if agg.StreamedPairs == 0 {
		t.Error("no pairs streamed across boundaries")
	}
	if agg.PipelineWall == 0 {
		t.Error("PipelineWall not recorded")
	}
	if len(per) != 3 {
		t.Fatalf("per-cycle metrics length %d, want 3", len(per))
	}
	// Streamed counters live on the producing stages; the last stage
	// streams nothing.
	if per[0].StreamedPairs == 0 || per[1].StreamedPairs == 0 {
		t.Errorf("producer stages streamed %d / %d pairs, want > 0",
			per[0].StreamedPairs, per[1].StreamedPairs)
	}
	if per[2].StreamedPairs != 0 {
		t.Errorf("final stage streamed %d pairs, want 0", per[2].StreamedPairs)
	}
}

// TestPipelineRejectsRereadStream: a streamed boundary is never written, so
// a chain in which a later stage reads it again is refused before any stage
// runs.
func TestPipelineRejectsRereadStream(t *testing.T) {
	jobs := chainJobs()
	jobs[2].Inputs = append(jobs[2].Inputs, Input{File: "t/inter-1", Tag: 1})
	store := dfs.NewMem()
	dfs.WriteAll(store, "in", stageInput(100))
	_, _, err := NewEngine(Config{Store: store, Workers: 2}).RunPipeline(chainStages(jobs...)...)
	if err == nil || !strings.Contains(err.Error(), "t/inter-1") {
		t.Fatalf("err = %v, want the re-read boundary refused", err)
	}
	if files, _ := store.List(""); len(files) != 1 {
		t.Errorf("store holds %v, want the input alone", files)
	}
}

// typedChain is chainJobs with a typed last stage: instead of one count per
// key, the third job returns a row (key, value) for every value it received,
// in value order — enough rows per task to span several chunks. The values
// arrive in whatever order the workers emitted them, so it sorts them.
func typedChain() ([]Job, *Rows) {
	jobs := chainJobs()
	rows := &Rows{Width: 2}
	jobs[2].Reduce, jobs[2].Output = nil, ""
	jobs[2].Rows = rows
	jobs[2].ReduceRows = func(key int64, values []string, out *Rows) error {
		for _, v := range sorted(values) {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return err
			}
			row := out.Append()
			row[0], row[1] = key, n
		}
		return nil
	}
	return jobs, rows
}

// sorted returns a sorted copy of values.
func sorted(values []string) []string {
	vs := slices.Clone(values)
	slices.Sort(vs)
	return vs
}

// flatRows is the rows' ids in commit order.
func flatRows(r *Rows) []int64 {
	var ids []int64
	for _, c := range r.Chunks() {
		ids = append(ids, c...)
	}
	return ids
}

// TestTypedLastStage: a ReduceRows job's rows are committed exactly as
// records are. Behind streamed boundaries, behind store barriers (each stage
// a pipeline of its own) and through the spilled shuffle, the chain returns
// the same rows in the same order, each once, and OutputRecords counts them.
func TestTypedLastStage(t *testing.T) {
	run := func(t *testing.T, cfg Config, jobs []Job, rows *Rows, barriers bool) []int64 {
		t.Helper()
		cfg.Store = dfs.NewMem()
		cfg.Workers = 4
		dfs.WriteAll(cfg.Store, "in", stageInput(5000))
		e := NewEngine(cfg)
		groups := [][]Stage{chainStages(jobs...)}
		if barriers {
			groups = [][]Stage{chainStages(jobs[0]), chainStages(jobs[1]), chainStages(jobs[2])}
		}
		var last *Metrics
		for _, g := range groups {
			per, _, err := e.RunPipeline(g...)
			if err != nil {
				t.Fatal(err)
			}
			last = per[len(per)-1]
		}
		if last.OutputRecords != int64(rows.Len()) || rows.Len() != 5000 {
			t.Fatalf("OutputRecords = %d, rows = %d, want 5000 of each", last.OutputRecords, rows.Len())
		}
		if cfg.Store.Exists("t/out") {
			t.Fatal("the typed stage wrote an output file")
		}
		return flatRows(rows)
	}
	jobs, rows := typedChain()
	want := run(t, Config{}, jobs, rows, false)
	for i := 2; i < len(want); i += 2 {
		if want[i] < want[i-2] {
			t.Fatalf("rows are not in reduce-key order: key %d follows %d", want[i], want[i-2])
		}
	}

	t.Run("barriers", func(t *testing.T) {
		jobs, rows := typedChain()
		if got := run(t, Config{}, jobs, rows, true); !slices.Equal(got, want) {
			t.Fatal("rows behind store barriers differ from rows behind streamed boundaries")
		}
	})
	t.Run("spill", func(t *testing.T) {
		jobs, rows := typedChain()
		if got := run(t, Config{SpillPairThreshold: 200}, jobs, rows, false); !slices.Equal(got, want) {
			t.Fatal("rows through the spilled shuffle differ")
		}
	})
}

// TestFailedTaskReturnsChunks: a task fills several full-size chunks and
// then fails. The job fails with its error and nothing runs again, the
// task's Rows is empty afterwards — its chunks are back in the pool — and
// the job's Rows holds nothing.
func TestFailedTaskReturnsChunks(t *testing.T) {
	const n = 3 * rowChunkWords / 2
	store := dfs.NewMem()
	dfs.WriteAll(store, "in", []string{"x"})
	rows := &Rows{Width: 2}
	var calls []*Rows
	full := 0
	job := Job{
		Name:   "failed-rows",
		Inputs: []Input{{File: "in"}},
		Map:    func(_ int, _ string, emit Emitter) error { emit.Emit(7, "v"); return nil },
		Rows:   rows,
		ReduceRows: func(key int64, _ []string, out *Rows) error {
			calls = append(calls, out)
			for i := 0; i < n; i++ {
				row := out.Append()
				row[0], row[1] = key, int64(i)
			}
			for _, c := range out.Chunks() {
				if cap(c) == rowChunkWords {
					full++
				}
			}
			return fmt.Errorf("after %d rows: %w", out.Len(), errBoom)
		},
	}
	_, err := NewEngine(Config{Store: store, Workers: 1}).Run(job)
	if !errors.Is(err, errBoom) {
		t.Fatalf("err = %v, want one wrapping %v", err, errBoom)
	}
	if len(calls) != 1 {
		t.Fatalf("the failing task ran %d times, want 1", len(calls))
	}
	if full == 0 {
		t.Error("the task filled no full-size chunk: the test does not reach the pool")
	}
	if calls[0].Len() != 0 || len(calls[0].Chunks()) != 0 {
		t.Errorf("the failed task still holds %d rows in %d chunks", calls[0].Len(), len(calls[0].Chunks()))
	}
	if rows.Len() != 0 {
		t.Errorf("the failed job collected %d rows", rows.Len())
	}
}

// TestPipelineSpill runs the pipelined chain with the external sort-merge
// shuffle engaged in every stage.
func TestPipelineSpill(t *testing.T) {
	want, _, _ := runChainOn(t, Config{Workers: 4})
	_, got, _, agg := runPipelineOn(t,
		Config{Workers: 4, SpillPairThreshold: 200}, chainStages(chainJobs()...))
	sameLines(t, got, want)
	if agg.SpillRuns == 0 {
		t.Error("spill threshold never triggered")
	}
	if agg.StreamedPairs == 0 {
		t.Error("no pairs streamed")
	}
}

// TestPipelineTap checks that a Tap observes every output record of its
// stage — streamed, materialised, or discarded.
func TestPipelineTap(t *testing.T) {
	var mu sync.Mutex
	counts := make([]int64, 3)
	stages := chainStages(chainJobs()...)
	for i := range stages {
		i := i
		stages[i].Tap = func(string) {
			mu.Lock()
			counts[i]++
			mu.Unlock()
		}
	}
	_, _, per, _ := runPipelineOn(t, Config{Workers: 4}, stages)
	for i, m := range per {
		if counts[i] != m.OutputRecords {
			t.Errorf("stage %d tap saw %d records, OutputRecords = %d", i, counts[i], m.OutputRecords)
		}
	}
}

// TestPipelinePersistentFailure checks a non-recoverable mid-pipeline
// failure surfaces as an error (from the failing stage) without
// deadlocking the stages around it.
func TestPipelinePersistentFailure(t *testing.T) {
	for _, phase := range []string{"map", "reduce"} {
		t.Run(phase, func(t *testing.T) {
			store := dfs.NewMem()
			dfs.WriteAll(store, "in", stageInput(5000))
			jobs := chainJobs()
			// Poison stage 2 only: stage 1 must still complete and stage 3
			// must not hang on its never-filled feed.
			switch phase {
			case "map":
				jobs[1].Map = func(_ int, _ string, _ Emitter) error {
					return errors.New("boom")
				}
			case "reduce":
				jobs[1].Reduce = func(_ int64, _ []string, _ func(string) error) error {
					return errors.New("boom")
				}
			}
			e := NewEngine(Config{Store: store, Workers: 4})
			done := make(chan error, 1)
			go func() {
				_, _, err := e.RunPipeline(chainStages(jobs...)...)
				done <- err
			}()
			select {
			case err := <-done:
				if err == nil || !strings.Contains(err.Error(), "boom") {
					t.Fatalf("err = %v, want the injected failure", err)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("pipeline deadlocked on persistent failure")
			}
		})
	}
}

// TestPipelineBarrierBoundary checks that a non-streamable boundary (the
// downstream job does not read the upstream output) degrades to sequential
// semantics: sequential execution with the file written.
func TestPipelineBarrierBoundary(t *testing.T) {
	jobs := chainJobs()
	// Break the 1→2 edge: job 2 reads a copy staged up front, not job 1's
	// output, so nothing can stream across.
	store := dfs.NewMem()
	dfs.WriteAll(store, "in", stageInput(2000))
	jobs[1].Inputs = []Input{{File: "side"}}
	dfs.WriteAll(store, "side", stageInput(100))
	per, agg, err := NewEngine(Config{Store: store, Workers: 4}).RunPipeline(chainStages(jobs...)...)
	if err != nil {
		t.Fatal(err)
	}
	if !store.Exists("t/inter-1") {
		t.Error("non-streamed boundary must be materialised")
	}
	if per[0].StreamedPairs != 0 {
		t.Errorf("stage 1 streamed %d pairs across a barrier", per[0].StreamedPairs)
	}
	if per[1].StreamedPairs == 0 || agg.StreamedPairs == 0 {
		t.Error("the 2→3 boundary should still stream")
	}
}

// TestListMakespan pins the list-scheduling model used for the reduce
// dispatch-order metrics.
func TestListMakespan(t *testing.T) {
	d := func(n int) time.Duration { return time.Duration(n) }
	// LPT order: {8} | {5,3} → 8. FIFO order 3,5,8 on 2 workers: w0=3+8, w1=5 → 11.
	if got := listMakespan([]time.Duration{d(3), d(5), d(8)}, 2); got != d(11) {
		t.Errorf("key-order makespan = %d, want 11", got)
	}
	if got := listMakespan([]time.Duration{d(8), d(5), d(3)}, 2); got != d(8) {
		t.Errorf("LPT makespan = %d, want 8", got)
	}
	if got := listMakespan(nil, 4); got != 0 {
		t.Errorf("empty makespan = %d, want 0", got)
	}
}

// TestDispatchOrderMetrics checks a run records both modelled makespans and
// that the LPT model never exceeds the key-order model by construction of
// the sort (identical durations ⇒ equal).
func TestDispatchOrderMetrics(t *testing.T) {
	store := dfs.NewMem()
	dfs.WriteAll(store, "in", stageInput(3000))
	job, _ := histogramJob(3000, 9)
	dfs.WriteAll(store, "in", stageInput(3000))
	m, err := NewEngine(Config{Store: store, Workers: 4}).Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if m.MakespanKeyOrder == 0 || m.MakespanLPT == 0 {
		t.Errorf("dispatch-order makespans not recorded: key=%v lpt=%v",
			m.MakespanKeyOrder, m.MakespanLPT)
	}
}
