package mr

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"testing"

	"intervaljoin/internal/dfs"
)

func newTestEngine(t *testing.T, workers int) *Engine {
	t.Helper()
	return NewEngine(Config{Store: dfs.NewMem(), Workers: workers})
}

func writeInput(t *testing.T, e *Engine, name string, recs []string) {
	t.Helper()
	if err := dfs.WriteAll(e.Store(), name, recs); err != nil {
		t.Fatal(err)
	}
}

// wordCount is the canonical MR smoke test.
func TestWordCount(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			e := newTestEngine(t, workers)
			writeInput(t, e, "in", []string{"a b a", "c b", "a"})
			job := Job{
				Name:   "wordcount",
				Inputs: []Input{{File: "in"}},
				Map: func(tag int, record string, emit Emitter) error {
					for _, w := range strings.Fields(record) {
						emit.Emit(int64(w[0]), w)
					}
					return nil
				},
				Reduce: func(key int64, values []string, write func(string) error) error {
					return write(fmt.Sprintf("%c=%d", rune(key), len(values)))
				},
				Output: "out",
			}
			m, err := e.Run(job)
			if err != nil {
				t.Fatal(err)
			}
			out, err := dfs.ReadAll(e.Store(), "out")
			if err != nil {
				t.Fatal(err)
			}
			sort.Strings(out)
			want := []string{"a=3", "b=2", "c=1"}
			if len(out) != 3 || out[0] != want[0] || out[1] != want[1] || out[2] != want[2] {
				t.Fatalf("output = %v, want %v", out, want)
			}
			if m.MapInputRecords != 3 || m.IntermediatePairs != 6 || m.DistinctKeys != 3 || m.OutputRecords != 3 {
				t.Fatalf("metrics = %+v", m)
			}
		})
	}
}

func TestMultipleTaggedInputs(t *testing.T) {
	e := newTestEngine(t, 2)
	writeInput(t, e, "r1", []string{"x", "y"})
	writeInput(t, e, "r2", []string{"z"})
	job := Job{
		Name:   "tags",
		Inputs: []Input{{File: "r1", Tag: 0}, {File: "r2", Tag: 1}},
		Map: func(tag int, record string, emit Emitter) error {
			emit.Emit(0, fmt.Sprintf("%d:%s", tag, record))
			return nil
		},
		Reduce: func(key int64, values []string, write func(string) error) error {
			sort.Strings(values)
			return write(strings.Join(values, ","))
		},
		Output: "out",
	}
	if _, err := e.Run(job); err != nil {
		t.Fatal(err)
	}
	out, _ := dfs.ReadAll(e.Store(), "out")
	if len(out) != 1 || out[0] != "0:x,0:y,1:z" {
		t.Fatalf("output = %v", out)
	}
}

func TestOutputOrderedByKey(t *testing.T) {
	e := newTestEngine(t, 4)
	writeInput(t, e, "in", []string{"5", "1", "9", "3"})
	job := Job{
		Name:   "keyorder",
		Inputs: []Input{{File: "in"}},
		Map: func(tag int, record string, emit Emitter) error {
			k, _ := strconv.ParseInt(record, 10, 64)
			emit.Emit(k, record)
			return nil
		},
		Reduce: func(key int64, values []string, write func(string) error) error {
			return write(values[0])
		},
		Output: "out",
	}
	if _, err := e.Run(job); err != nil {
		t.Fatal(err)
	}
	out, _ := dfs.ReadAll(e.Store(), "out")
	want := []string{"1", "3", "5", "9"}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("output = %v, want %v (reduce output must be key-ordered)", out, want)
		}
	}
}

func TestMapErrorPropagates(t *testing.T) {
	e := newTestEngine(t, 4)
	writeInput(t, e, "in", []string{"a", "b", "c", "d", "e", "f"})
	boom := errors.New("boom")
	job := Job{
		Name:   "maperr",
		Inputs: []Input{{File: "in"}},
		Map: func(tag int, record string, emit Emitter) error {
			if record == "c" {
				return boom
			}
			emit.Emit(0, record)
			return nil
		},
		Reduce: func(key int64, values []string, write func(string) error) error { return nil },
	}
	if _, err := e.Run(job); err == nil || !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
}

func TestReduceErrorPropagates(t *testing.T) {
	e := newTestEngine(t, 4)
	writeInput(t, e, "in", []string{"a", "b"})
	boom := errors.New("boom")
	job := Job{
		Name:   "rederr",
		Inputs: []Input{{File: "in"}},
		Map: func(tag int, record string, emit Emitter) error {
			emit.Emit(int64(record[0]), record)
			return nil
		},
		Reduce: func(key int64, values []string, write func(string) error) error {
			return boom
		},
	}
	if _, err := e.Run(job); err == nil || !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
}

func TestMissingInputFile(t *testing.T) {
	e := newTestEngine(t, 2)
	job := Job{
		Name:   "missing",
		Inputs: []Input{{File: "nope"}},
		Map:    func(tag int, record string, emit Emitter) error { return nil },
		Reduce: func(key int64, values []string, write func(string) error) error { return nil },
	}
	if _, err := e.Run(job); err == nil {
		t.Fatal("missing input file not reported")
	}
}

func TestMissingFunctions(t *testing.T) {
	e := newTestEngine(t, 2)
	if _, err := e.Run(Job{Name: "nofn"}); err == nil {
		t.Fatal("job without Map/Reduce accepted")
	}
	// A job reduces to records or to rows, not both; rows need somewhere
	// to go, a width, and no output file.
	m := func(int, string, Emitter) error { return nil }
	ma := func(int, int, Emitter) error { return nil }
	r := func(int64, []string, func(string) error) error { return nil }
	rr := func(int64, []string, *Rows) error { return nil }
	writeInput(t, e, "in", []string{"a"})
	// An input is a file or a count of positions, and each kind needs the
	// map function that serves it.
	for name, job := range map[string]Job{
		"no map at all":           {Reduce: r},
		"neither file nor count":  {Inputs: []Input{{Tag: 1}}, Map: m, MapAt: ma, Reduce: r},
		"file and count":          {Inputs: []Input{{File: "in", Count: 1}}, Map: m, MapAt: ma, Reduce: r},
		"negative count":          {Inputs: []Input{{Count: -1}}, Map: m, MapAt: ma, Reduce: r},
		"positions without MapAt": {Inputs: []Input{{File: "in"}, {Tag: 1, Count: 3}}, Map: m, Reduce: r},
		"file without Map":        {Inputs: []Input{{File: "in"}, {Tag: 1, Count: 3}}, MapAt: ma, Reduce: r},
		"both reduces":            {Map: m, Reduce: r, ReduceRows: rr, Rows: &Rows{Width: 1}},
		"no rows":                 {Map: m, ReduceRows: rr},
		"rows unused":             {Map: m, Reduce: r, Rows: &Rows{Width: 1}},
		"zero width":              {Map: m, ReduceRows: rr, Rows: &Rows{}},
		"rows and file":           {Map: m, ReduceRows: rr, Rows: &Rows{Width: 1}, Output: "out"},
	} {
		if _, err := e.Run(job); err == nil {
			t.Errorf("%s: job accepted", name)
		}
	}
}

func TestEmptyInputProducesEmptyOutput(t *testing.T) {
	e := newTestEngine(t, 2)
	writeInput(t, e, "in", nil)
	job := Job{
		Name:   "empty",
		Inputs: []Input{{File: "in"}},
		Map: func(tag int, record string, emit Emitter) error {
			emit.Emit(0, record)
			return nil
		},
		Reduce: func(key int64, values []string, write func(string) error) error {
			return write("x")
		},
		Output: "out",
	}
	m, err := e.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if m.MapInputRecords != 0 || m.IntermediatePairs != 0 || m.OutputRecords != 0 {
		t.Fatalf("metrics = %+v", m)
	}
	out, err := dfs.ReadAll(e.Store(), "out")
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("output = %v, want empty", out)
	}
}

func TestSequentialChain(t *testing.T) {
	e := newTestEngine(t, 4)
	writeInput(t, e, "in", []string{"1", "2", "3"})
	inc := Job{
		Name:   "inc",
		Inputs: []Input{{File: "in"}},
		Map: func(tag int, record string, emit Emitter) error {
			n, _ := strconv.Atoi(record)
			emit.Emit(0, strconv.Itoa(n+1))
			return nil
		},
		Reduce: func(key int64, values []string, write func(string) error) error {
			for _, v := range values {
				if err := write(v); err != nil {
					return err
				}
			}
			return nil
		},
		Output: "mid",
	}
	double := inc
	double.Name = "double"
	double.Inputs = []Input{{File: "mid"}}
	double.Map = func(tag int, record string, emit Emitter) error {
		n, _ := strconv.Atoi(record)
		emit.Emit(0, strconv.Itoa(n*2))
		return nil
	}
	double.Output = "out"
	per, agg, err := runSequential(e, inc, double)
	if err != nil {
		t.Fatal(err)
	}
	if len(per) != 2 || agg.Cycles != 2 {
		t.Fatalf("chain metrics: %d jobs, cycles=%d", len(per), agg.Cycles)
	}
	if agg.IntermediatePairs != 6 {
		t.Fatalf("aggregate pairs = %d, want 6", agg.IntermediatePairs)
	}
	out, _ := dfs.ReadAll(e.Store(), "out")
	sort.Strings(out)
	want := []string{"4", "6", "8"}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("output = %v, want %v", out, want)
		}
	}
}

func TestMetricsReducerStats(t *testing.T) {
	m := newMetrics("x")
	m.ReducerPairs[0] = 10
	m.ReducerPairs[1] = 10
	m.ReducerPairs[2] = 40
	if m.MaxReducerPairs() != 40 {
		t.Fatalf("MaxReducerPairs = %d", m.MaxReducerPairs())
	}
	if got := m.MeanReducerPairs(); got != 20 {
		t.Fatalf("MeanReducerPairs = %v", got)
	}
	if got := m.LoadImbalance(); got != 2 {
		t.Fatalf("LoadImbalance = %v", got)
	}
	lv := m.ReducerLoadVector()
	if len(lv) != 3 || lv[0] != 10 || lv[2] != 40 {
		t.Fatalf("ReducerLoadVector = %v", lv)
	}
}

func TestMetricsMerge(t *testing.T) {
	a := newMetrics("a")
	a.IntermediatePairs = 5
	a.ReducerPairs[1] = 5
	b := newMetrics("b")
	b.IntermediatePairs = 7
	b.ReducerPairs[1] = 3
	b.ReducerPairs[2] = 4
	a.Merge(b)
	if a.IntermediatePairs != 12 || a.ReducerPairs[1] != 8 || a.ReducerPairs[2] != 4 {
		t.Fatalf("merged = %+v", a)
	}
	if a.Cycles != 2 {
		t.Fatalf("Cycles = %d, want 2", a.Cycles)
	}
}

func TestLoadImbalanceEmpty(t *testing.T) {
	m := newMetrics("e")
	if m.LoadImbalance() != 1 {
		t.Fatal("empty metrics should report balanced load")
	}
}

func TestLargeShuffle(t *testing.T) {
	e := newTestEngine(t, 0) // default workers
	const n = 20000
	recs := make([]string, n)
	for i := range recs {
		recs[i] = strconv.Itoa(i)
	}
	writeInput(t, e, "in", recs)
	job := Job{
		Name:   "large",
		Inputs: []Input{{File: "in"}},
		Map: func(tag int, record string, emit Emitter) error {
			v, _ := strconv.ParseInt(record, 10, 64)
			emit.Emit(v%16, record)
			return nil
		},
		Reduce: func(key int64, values []string, write func(string) error) error {
			return write(fmt.Sprintf("%d:%d", key, len(values)))
		},
		Output: "out",
	}
	m, err := e.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if m.IntermediatePairs != n || m.DistinctKeys != 16 {
		t.Fatalf("pairs=%d keys=%d", m.IntermediatePairs, m.DistinctKeys)
	}
	out, _ := dfs.ReadAll(e.Store(), "out")
	if len(out) != 16 {
		t.Fatalf("output rows = %d, want 16", len(out))
	}
	for _, row := range out {
		if !strings.HasSuffix(row, ":1250") {
			t.Fatalf("unbalanced row %q, want 20000/16=1250 each", row)
		}
	}
}
