package mr

import (
	"fmt"
	"maps"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"intervaljoin/internal/dfs"
)

// The positional tests run one two-stage chain in two forms and require the
// same records, pairs and keys from both: the file form reads every base
// input from the store, the positional form is handed the same records as
// slices and maps positions of them. Stage "join" maps two base inputs
// (tags 0 and 1) with range emissions; stage "bind" maps join's output
// together with a third base input (tag 2) — the shape of core's bind step,
// one job fed by a file or a streamed boundary and by positions at once.

// chainData is the base inputs by tag.
func chainData() [3][]string {
	var data [3][]string
	for tag, n := range [3]int{1500, 700, 900} {
		for i := 0; i < n; i++ {
			data[tag] = append(data[tag], strconv.Itoa(i*(tag+3)))
		}
	}
	return data
}

// positionalChain builds the two stages. mapBase is what both forms do with
// a base record; mapped counts the calls of it.
func positionalChain(data [3][]string, positional bool, mapped *atomic.Int64) []Stage {
	mapBase := func(tag int, record string, emit Emitter) error {
		mapped.Add(1)
		v, err := strconv.ParseInt(record, 10, 64)
		if err != nil {
			return err
		}
		emit.EmitRange(v%11, v%11+int64(tag)+2, strconv.Itoa(tag)+":"+record)
		return nil
	}
	mapAt := func(tag, pos int, emit Emitter) error {
		return mapBase(tag, data[tag][pos], emit)
	}
	// The values arrive in whatever order the workers emitted them; the
	// record names the least four.
	count := func(key int64, values []string, write func(string) error) error {
		return write(fmt.Sprintf("%d:%d:%s", key, len(values), joinMax(sorted(values), 4)))
	}
	join := Job{Name: "p/join", Reduce: count, Output: "p/joined"}
	bind := Job{
		Name: "p/bind",
		// Records of the joined intermediate are re-keyed by their length.
		Map: func(_ int, record string, emit Emitter) error {
			emit.Emit(int64(len(record)%5), record)
			return nil
		},
		Reduce: count, Output: "p/out",
	}
	if positional {
		join.Inputs = []Input{{Tag: 0, Count: len(data[0])}, {Tag: 1, Count: len(data[1])}}
		join.MapAt = mapAt
		bind.Inputs = []Input{{File: "p/joined", Tag: -1}, {Tag: 2, Count: len(data[2])}}
		bind.MapAt = mapAt
	} else {
		join.Inputs = []Input{{File: "in0", Tag: 0}, {File: "in1", Tag: 1}}
		join.Map = mapBase
		bind.Inputs = []Input{{File: "p/joined", Tag: -1}, {File: "in2", Tag: 2}}
		joined := bind.Map
		bind.Map = func(tag int, record string, emit Emitter) error {
			if tag < 0 {
				return joined(tag, record, emit)
			}
			return mapBase(tag, record, emit)
		}
	}
	return chainStages(join, bind)
}

// chainRun is what a run of the chain leaves behind.
type chainRun struct {
	joined, out []string
	per         []*Metrics
	mapped      int64
}

// runPositionalChain runs the chain on a fresh store. barrier runs each stage
// as its own pipeline, so the boundary is written to the store and read back.
func runPositionalChain(t *testing.T, cfg Config, positional, barrier bool) chainRun {
	t.Helper()
	store := dfs.NewMem()
	cfg.Store = store
	data := chainData()
	if !positional {
		for tag, recs := range data {
			if err := dfs.WriteAll(store, "in"+strconv.Itoa(tag), recs); err != nil {
				t.Fatal(err)
			}
		}
	}
	var mapped atomic.Int64
	stages := positionalChain(data, positional, &mapped)
	groups := [][]Stage{stages}
	if barrier {
		groups = [][]Stage{stages[:1], stages[1:]}
	}
	e := NewEngine(cfg)
	var run chainRun
	for _, g := range groups {
		per, _, err := e.RunPipeline(g...)
		if err != nil {
			t.Fatal(err)
		}
		run.per = append(run.per, per...)
	}
	var err error
	if run.out, err = dfs.ReadAll(store, "p/out"); err != nil {
		t.Fatal(err)
	}
	if barrier {
		if run.joined, err = dfs.ReadAll(store, "p/joined"); err != nil {
			t.Fatal(err)
		}
	} else if store.Exists("p/joined") {
		t.Fatal("the streamed boundary was written to the store")
	}
	if positional {
		if files, _ := store.List("in"); len(files) != 0 {
			t.Fatalf("positional run read base inputs from the store: %v", files)
		}
	}
	run.mapped = mapped.Load()
	return run
}

// sameChainRun requires got to have produced what want did, stage by stage.
func sameChainRun(t *testing.T, got, want chainRun) {
	t.Helper()
	sameLines(t, got.out, want.out)
	if got.joined != nil && want.joined != nil {
		sameLines(t, got.joined, want.joined)
	}
	for i, w := range want.per {
		g := got.per[i]
		if g.MapInputRecords != w.MapInputRecords || g.IntermediatePairs != w.IntermediatePairs ||
			g.IntermediateBytes != w.IntermediateBytes || g.PhysicalPairs != w.PhysicalPairs ||
			g.DistinctKeys != w.DistinctKeys || g.OutputRecords != w.OutputRecords ||
			!maps.Equal(g.ReducerPairs, w.ReducerPairs) {
			t.Fatalf("stage %d: metrics differ:\n got %+v\nwant %+v", i, g, w)
		}
	}
}

// TestPositionalInputsMatchFileInputs is the equivalence: in every execution
// mode the positional form yields the records, pair counts and keys of the
// file form, and MapInputRecords counts positions as it counts records.
func TestPositionalInputsMatchFileInputs(t *testing.T) {
	data := chainData()
	for _, tc := range []struct {
		name    string
		cfg     Config
		barrier bool
	}{
		{"streamed", Config{Workers: 4}, false},
		{"materialized", Config{Workers: 4}, true},
		{"one worker", Config{Workers: 1}, false},
		{"spill", Config{Workers: 4, SpillPairThreshold: 100}, false},
		{"spill materialized", Config{Workers: 3, SpillPairThreshold: 257}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := runPositionalChain(t, tc.cfg, false, tc.barrier)
			got := runPositionalChain(t, tc.cfg, true, tc.barrier)
			sameChainRun(t, got, want)
			if n := int64(len(data[0]) + len(data[1])); got.per[0].MapInputRecords != n {
				t.Fatalf("join mapped %d inputs, want the %d positions", got.per[0].MapInputRecords, n)
			}
			if n := got.per[0].OutputRecords + int64(len(data[2])); got.per[1].MapInputRecords != n {
				t.Fatalf("bind mapped %d inputs, want %d records and positions", got.per[1].MapInputRecords, n)
			}
			if base := int64(len(data[0]) + len(data[1]) + len(data[2])); got.mapped != base || want.mapped != base {
				t.Fatalf("base records mapped %d times positionally, %d times from files, want %d", got.mapped, want.mapped, base)
			}
		})
	}
}

// TestPositionalMapErrorPropagates: a position's error fails the job like a
// record's.
func TestPositionalMapErrorPropagates(t *testing.T) {
	e := newTestEngine(t, 2)
	_, err := e.Run(Job{
		Name:   "bad",
		Inputs: []Input{{Tag: 3, Count: 1000}},
		MapAt: func(tag, pos int, emit Emitter) error {
			if pos == 777 {
				return fmt.Errorf("tuple %d of input %d is bad", pos, tag)
			}
			emit.Emit(int64(pos%3), "v")
			return nil
		},
		Reduce: func(int64, []string, func(string) error) error { return nil },
	})
	if err == nil || !strings.Contains(err.Error(), "mr: job bad: map task") || !strings.Contains(err.Error(), "tuple 777 of input 3 is bad") {
		t.Fatalf("err = %v", err)
	}
}
