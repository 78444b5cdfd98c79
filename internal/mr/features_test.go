package mr

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

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
			// Spill scratch files are cleaned up.
			files, err := store.List(job.Name + "/.spill/")
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

func TestSpillOnDiskStore(t *testing.T) {
	disk, err := dfs.NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(Config{Store: disk, Workers: 3, SpillPairThreshold: 64})
	job, recs := histogramJob(2000, 7)
	if err := dfs.WriteAll(disk, "in", recs); err != nil {
		t.Fatal(err)
	}
	m, err := e.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if m.SpillRuns == 0 {
		t.Fatal("no spill runs on disk store")
	}
	out, err := dfs.ReadAll(disk, "out")
	if err != nil || len(out) != 7 {
		t.Fatalf("output = %v, err %v", out, err)
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

// flakyInjector fails each task's first attempt with a transient error.
type flakyInjector struct {
	mu     sync.Mutex
	phase  Phase
	seen   map[string]bool
	failed int
}

func (f *flakyInjector) inject(phase Phase, task, attempt int) error {
	if f.phase != "" && phase != f.phase {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	key := fmt.Sprintf("%s/%d", phase, task)
	if f.seen[key] {
		return nil
	}
	f.seen[key] = true
	f.failed++
	return fmt.Errorf("injected: %w", ErrTransient)
}

func TestTransientFailuresAreRetried(t *testing.T) {
	for _, phase := range []Phase{PhaseMap, PhaseReduce, ""} {
		name := string(phase)
		if name == "" {
			name = "both"
		}
		t.Run(name, func(t *testing.T) {
			inj := &flakyInjector{phase: phase, seen: make(map[string]bool)}
			store := dfs.NewMem()
			e := NewEngine(Config{
				Store: store, Workers: 4,
				MaxTaskAttempts: 3,
				FailureInjector: inj.inject,
			})
			job, recs := histogramJob(3000, 9)
			dfs.WriteAll(store, "in", recs)
			m, err := e.Run(job)
			if err != nil {
				t.Fatal(err)
			}
			if inj.failed == 0 {
				t.Fatal("injector never fired")
			}
			if m.TaskRetries != int64(inj.failed) {
				t.Fatalf("retries = %d, injected failures = %d", m.TaskRetries, inj.failed)
			}
			// Output is exactly as if nothing failed: retried attempts'
			// partial emissions were discarded.
			out, _ := dfs.ReadAll(store, "out")
			if len(out) != 9 {
				t.Fatalf("output rows = %d, want 9", len(out))
			}
			for _, row := range out {
				parts := strings.Split(row, ":")
				if parts[1] != strconv.Itoa(3000/9) && parts[1] != strconv.Itoa(3000/9+1) {
					t.Fatalf("row %q has a wrong count (duplicate or lost records)", row)
				}
			}
			var total int
			for _, row := range out {
				n, _ := strconv.Atoi(strings.Split(row, ":")[1])
				total += n
			}
			if total != 3000 {
				t.Fatalf("total count %d, want 3000 — retry duplicated or lost data", total)
			}
		})
	}
}

func TestPersistentFailureFailsJob(t *testing.T) {
	store := dfs.NewMem()
	e := NewEngine(Config{
		Store: store, Workers: 2,
		MaxTaskAttempts: 3,
		FailureInjector: func(phase Phase, task, attempt int) error {
			if phase == PhaseMap && task == 0 {
				return fmt.Errorf("always down: %w", ErrTransient)
			}
			return nil
		},
	})
	job, recs := histogramJob(100, 3)
	dfs.WriteAll(store, "in", recs)
	if _, err := e.Run(job); err == nil || !errors.Is(err, ErrTransient) {
		t.Fatalf("err = %v, want exhausted transient failure", err)
	}
}

func TestNonTransientErrorNotRetried(t *testing.T) {
	store := dfs.NewMem()
	attempts := 0
	var mu sync.Mutex
	e := NewEngine(Config{
		Store: store, Workers: 1,
		MaxTaskAttempts: 5,
		FailureInjector: func(phase Phase, task, attempt int) error {
			if phase != PhaseMap {
				return nil
			}
			mu.Lock()
			attempts++
			mu.Unlock()
			return errors.New("hard failure")
		},
	})
	job, recs := histogramJob(10, 2)
	dfs.WriteAll(store, "in", recs)
	if _, err := e.Run(job); err == nil {
		t.Fatal("hard failure swallowed")
	}
	if attempts != 1 {
		t.Fatalf("hard failure attempted %d times, want 1", attempts)
	}
}

func TestRetryWithSpillStillCorrect(t *testing.T) {
	inj := &flakyInjector{seen: make(map[string]bool)}
	store := dfs.NewMem()
	e := NewEngine(Config{
		Store: store, Workers: 4,
		SpillPairThreshold: 32,
		MaxTaskAttempts:    2,
		FailureInjector:    inj.inject,
	})
	job, recs := histogramJob(2000, 5)
	dfs.WriteAll(store, "in", recs)
	m, err := e.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if m.SpillRuns == 0 || m.TaskRetries == 0 {
		t.Fatalf("expected both spills and retries: %+v", m)
	}
	out, _ := dfs.ReadAll(store, "out")
	var total int
	for _, row := range out {
		n, _ := strconv.Atoi(strings.Split(row, ":")[1])
		total += n
	}
	if total != 2000 {
		t.Fatalf("total = %d, want 2000", total)
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
