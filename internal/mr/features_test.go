package mr

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"intervaljoin/internal/dfs"
)

// histogramJob groups n records over k keys and reports each key's count;
// used by several feature tests.
func histogramJob(n, k int) (Job, []string) {
	recs := make([]string, n)
	for i := range recs {
		recs[i] = strconv.Itoa(i)
	}
	return Job{
		Name:   "hist",
		Inputs: []Input{{File: "in"}},
		Map: func(tag int, record string, emit Emitter) error {
			v, _ := strconv.ParseInt(record, 10, 64)
			emit.Emit(v%int64(k), record)
			return nil
		},
		Reduce: func(key int64, values []string, write func(string) error) error {
			return write(fmt.Sprintf("%d:%d", key, len(values)))
		},
		Output: "out",
	}, recs
}

func TestSpillMatchesInMemory(t *testing.T) {
	const n, k = 5000, 13
	var want []string
	for _, spill := range []int{0, 100, 1, 4096, 100000} {
		t.Run(fmt.Sprintf("spill=%d", spill), func(t *testing.T) {
			store := dfs.NewMem()
			e := NewEngine(Config{Store: store, Workers: 4, SpillPairThreshold: spill})
			job, recs := histogramJob(n, k)
			if err := dfs.WriteAll(store, "in", recs); err != nil {
				t.Fatal(err)
			}
			m, err := e.Run(job)
			if err != nil {
				t.Fatal(err)
			}
			out, err := dfs.ReadAll(store, "out")
			if err != nil {
				t.Fatal(err)
			}
			if spill == 0 {
				want = out
				if m.SpillRuns != 0 || m.SpilledPairs != 0 {
					t.Fatalf("in-memory run reported spills: %+v", m)
				}
			} else {
				if len(out) != len(want) {
					t.Fatalf("spilled output %d rows, in-memory %d", len(out), len(want))
				}
				for i := range want {
					if out[i] != want[i] {
						t.Fatalf("row %d: %q vs %q", i, out[i], want[i])
					}
				}
			}
			if m.IntermediatePairs != n || m.DistinctKeys != k || m.OutputRecords != int64(k) {
				t.Fatalf("metrics = %+v", m)
			}
			if spill > 0 && spill <= n/2 && m.SpillRuns == 0 {
				t.Fatalf("threshold %d over %d pairs spilled nothing", spill, n)
			}
			// Spill runs are removed once read.
			files, err := store.List(".spill/")
			if err != nil {
				t.Fatal(err)
			}
			if len(files) != 0 {
				t.Fatalf("spill scratch left behind: %v", files)
			}
			// Reducer load accounting works in both modes.
			var total int64
			for _, v := range m.ReducerPairs {
				total += v
			}
			if total != n {
				t.Fatalf("reducer pairs account for %d of %d", total, n)
			}
		})
	}
}

// TestConcurrentSpilledJobsShareStore: two jobs of the same name spill
// concurrently onto one store. Each reduces only after both have mapped, so
// every run either wrote is on the store while the other reads its own: the
// engine names each shuffle's runs, and neither job reads, truncates or
// removes the other's. Each output equals its in-memory run, no removal
// fails, and no run is left behind.
func TestConcurrentSpilledJobsShareStore(t *testing.T) {
	inputs := map[string]int{"a": 3000, "b": 2000}
	want := make(map[string][]string)
	for in, n := range inputs {
		store := dfs.NewMem()
		job, recs := histogramJob(n, 7)
		job.Inputs = []Input{{File: in}}
		dfs.WriteAll(store, in, recs)
		if _, err := NewEngine(Config{Store: store, Workers: 2}).Run(job); err != nil {
			t.Fatal(err)
		}
		want[in], _ = dfs.ReadAll(store, "out")
	}

	store := dfs.NewMem()
	e := NewEngine(Config{Store: store, Workers: 2, SpillPairThreshold: 64})
	mapped := make(chan struct{})
	var arrivals sync.WaitGroup
	arrivals.Add(len(inputs))
	go func() { arrivals.Wait(); close(mapped) }()
	var wg sync.WaitGroup
	errs := make(chan error, len(inputs))
	for in, n := range inputs {
		job, recs := histogramJob(n, 7)
		job.Inputs, job.Output = []Input{{File: in}}, "out-"+in
		dfs.WriteAll(store, in, recs)
		var arrived sync.Once
		reduce := job.Reduce
		job.Reduce = func(key int64, values []string, write func(string) error) error {
			arrived.Do(arrivals.Done)
			select {
			case <-mapped:
			case <-time.After(10 * time.Second):
				return errors.New("the other job never reached its reduce phase")
			}
			return reduce(key, values, write)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			m, err := e.Run(job)
			switch {
			case err != nil:
				errs <- fmt.Errorf("job on %s: %w", in, err)
			case m.SpillRuns == 0 || m.CleanupFailures != 0:
				errs <- fmt.Errorf("job on %s: %d spill runs, %d failed removals", in, m.SpillRuns, m.CleanupFailures)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for in := range inputs {
		got, err := dfs.ReadAll(store, "out-"+in)
		if err != nil || !slices.Equal(got, want[in]) {
			t.Errorf("job on %s: output %v (%v), in memory %v", in, got, err, want[in])
		}
	}
	if files, _ := store.List(""); !slices.Equal(files, []string{"a", "b", "out-a", "out-b"}) {
		t.Errorf("store holds %v, want the inputs and outputs alone", files)
	}
}

func TestSpillRejectsNegativeKeys(t *testing.T) {
	store := dfs.NewMem()
	e := NewEngine(Config{Store: store, Workers: 1, SpillPairThreshold: 1})
	dfs.WriteAll(store, "in", []string{"x"})
	job := Job{
		Name:   "neg",
		Inputs: []Input{{File: "in"}},
		Map: func(tag int, record string, emit Emitter) error {
			emit.Emit(-5, record)
			return nil
		},
		Reduce: func(key int64, values []string, write func(string) error) error { return nil },
	}
	if _, err := e.Run(job); err == nil {
		t.Fatal("negative key spilled without error")
	}
}

// errBoom is the error the error-path tests' map and reduce functions fail
// with.
var errBoom = errors.New("boom")

// failingHistogram is histogramJob(2000, 9) with, as phase says, its map
// function failing on record 1500 or its reduce function failing on key 3;
// calls counts the failing function's calls for that record or key. With
// rows set the job reduces to Rows instead of writing records.
func failingHistogram(phase string, rows bool, calls *atomic.Int64) (Job, []string) {
	job, recs := histogramJob(2000, 9)
	failRecord, failKey := "1500", int64(-1)
	if phase == "reduce" {
		failRecord, failKey = "", 3
	}
	mapFn, reduce := job.Map, job.Reduce
	job.Map = func(tag int, record string, emit Emitter) error {
		if record == failRecord {
			calls.Add(1)
			return errBoom
		}
		return mapFn(tag, record, emit)
	}
	job.Reduce = func(key int64, values []string, write func(string) error) error {
		if key == failKey {
			calls.Add(1)
			return errBoom
		}
		return reduce(key, values, write)
	}
	if rows {
		job.Reduce, job.Output, job.Rows = nil, "", &Rows{Width: 2}
		job.ReduceRows = func(key int64, values []string, out *Rows) error {
			if key == failKey {
				calls.Add(1)
				return errBoom
			}
			row := out.Append()
			row[0], row[1] = key, int64(len(values))
			return nil
		}
	}
	return job, recs
}

// storeHoldsOnlyInput fails t unless the input is all that is left on store.
func storeHoldsOnlyInput(t *testing.T, store dfs.Store) {
	t.Helper()
	names, err := store.List("")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(names, []string{"in"}) {
		t.Errorf("store holds %v after the failed job, want only [in]", names)
	}
}

// TestTaskErrorFailsJob: a map or reduce function that returns an error fails
// the job with it — in memory and spilled, record and row reducers alike.
// Nothing runs again, no goroutine outlives the job, and nothing but the
// input is left on the store.
func TestTaskErrorFailsJob(t *testing.T) {
	for _, phase := range []string{"map", "reduce"} {
		for _, spill := range []int{0, 16} {
			for _, rows := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/spill=%d/rows=%v", phase, spill, rows), func(t *testing.T) {
					var calls atomic.Int64
					job, recs := failingHistogram(phase, rows, &calls)
					store := dfs.NewMem()
					if err := dfs.WriteAll(store, "in", recs); err != nil {
						t.Fatal(err)
					}
					before := runtime.NumGoroutine()
					_, err := NewEngine(Config{Store: store, Workers: 4, SpillPairThreshold: spill}).Run(job)
					if !errors.Is(err, errBoom) {
						t.Fatalf("err = %v, want one wrapping %v", err, errBoom)
					}
					if n := calls.Load(); n != 1 {
						t.Errorf("the failing %s function ran %d times for its task, want 1", phase, n)
					}
					for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(10 * time.Millisecond) {
						if time.Now().After(deadline) {
							buf := make([]byte, 1<<16)
							t.Fatalf("%d goroutines outlive the failed job, %d before it:\n%s", runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
						}
					}
					storeHoldsOnlyInput(t, store)
				})
			}
		}
	}
}

// TestReduceCallsBoundedByWorkers: a reduce task is one call on one of the
// engine's workers, so no more reduce calls run at once than there are
// workers — however hot a key is, in memory or spilled. Callers that bound
// a run's parallelism by Config.Workers rely on it.
func TestReduceCallsBoundedByWorkers(t *testing.T) {
	const workers, hot, cold = 2, 10_000, 15
	for _, spill := range []int{0, 512} {
		t.Run(fmt.Sprintf("spill=%d", spill), func(t *testing.T) {
			var running, highest atomic.Int64
			job := Job{
				Name:   "bounded",
				Inputs: []Input{{Count: hot + cold}},
				MapAt: func(_, pos int, emit Emitter) error {
					key := int64(0) // positions below hot make the hot key
					if pos >= hot {
						key = int64(pos - hot + 1)
					}
					emit.Emit(key, "v")
					return nil
				},
				Reduce: func(_ int64, values []string, write func(string) error) error {
					n := running.Add(1)
					defer running.Add(-1)
					for h := highest.Load(); n > h && !highest.CompareAndSwap(h, n); h = highest.Load() {
					}
					time.Sleep(time.Millisecond)
					return write(strconv.Itoa(len(values)))
				},
			}
			m, err := NewEngine(Config{Store: dfs.NewMem(), Workers: workers, SpillPairThreshold: spill}).Run(job)
			if err != nil {
				t.Fatal(err)
			}
			if m.OutputRecords != cold+1 || (spill > 0) != (m.SpilledPairs > 0) {
				t.Fatalf("%d reduce outputs, %d pairs spilled; want %d outputs, spilled only with a threshold", m.OutputRecords, m.SpilledPairs, cold+1)
			}
			if h := highest.Load(); h > workers {
				t.Fatalf("%d reduce calls ran at once on %d workers", h, workers)
			}
		})
	}
}

// TestFailedJobRemovesSpillRuns: a job that fails after its map workers have
// spilled removes the runs — whether the map phase or the reduce phase
// failed.
func TestFailedJobRemovesSpillRuns(t *testing.T) {
	for _, phase := range []string{"map", "reduce"} {
		t.Run(phase, func(t *testing.T) {
			var calls atomic.Int64
			job, recs := failingHistogram(phase, false, &calls)
			store := dfs.NewMem()
			if err := dfs.WriteAll(store, "in", recs); err != nil {
				t.Fatal(err)
			}
			if _, err := NewEngine(Config{Store: store, Workers: 2, SpillPairThreshold: 16}).Run(job); err == nil {
				t.Fatal("the failing job succeeded")
			}
			storeHoldsOnlyInput(t, store)
		})
	}
}

func TestMergeRunsUnit(t *testing.T) {
	store := dfs.NewMem()
	if err := spillRun(store, "r1", []emission{{3, 3, "c"}, {1, 1, "a"}, {5, 5, "e"}}); err != nil {
		t.Fatal(err)
	}
	if err := spillRun(store, "r2", []emission{{1, 1, "A"}, {4, 4, "d"}}); err != nil {
		t.Fatal(err)
	}
	c1, err := openRun(store, "r1")
	if err != nil {
		t.Fatal(err)
	}
	c2, err := openRun(store, "r2")
	if err != nil {
		t.Fatal(err)
	}
	mem := &memCursor{ems: []emission{{2, 2, "b"}, {5, 5, "E"}}}
	var got []string
	err = mergeRuns([]cursor{c1, c2, mem}, func(key int64, values []string) error {
		sort.Strings(values)
		got = append(got, fmt.Sprintf("%d=%s", key, strings.Join(values, "")))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"1=Aa", "2=b", "3=c", "4=d", "5=Ee"}
	if len(got) != len(want) {
		t.Fatalf("merge = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merge = %v, want %v", got, want)
		}
	}
}

func TestMergeRunsEmpty(t *testing.T) {
	if err := mergeRuns(nil, func(int64, []string) error {
		t.Fatal("fn called for empty merge")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
