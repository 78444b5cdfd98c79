package mr

import (
	"fmt"
	"strconv"
	"sync/atomic"
	"testing"

	"intervaljoin/internal/dfs"
)

// benchEngine runs the histogram job over n records with the given spill
// threshold, measuring end-to-end engine throughput.
func benchEngine(b *testing.B, n, spill int) {
	b.Helper()
	store := dfs.NewMem()
	recs := make([]string, n)
	for i := range recs {
		recs[i] = strconv.Itoa(i)
	}
	if err := dfs.WriteAll(store, "in", recs); err != nil {
		b.Fatal(err)
	}
	e := NewEngine(Config{Store: store, SpillPairThreshold: spill})
	job := Job{
		Name:   "bench",
		Inputs: []Input{{File: "in"}},
		Map: func(tag int, record string, emit Emitter) error {
			v, _ := strconv.ParseInt(record, 10, 64)
			emit.Emit(v%64, record)
			return nil
		},
		Reduce: func(key int64, values []string, write func(string) error) error {
			return write(fmt.Sprintf("%d:%d", key, len(values)))
		},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(job); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(n))
}

func BenchmarkEngineInMemory(b *testing.B)  { benchEngine(b, 100_000, 0) }
func BenchmarkEngineSpilling(b *testing.B)  { benchEngine(b, 100_000, 4096) }
func BenchmarkEngineSmallJobs(b *testing.B) { benchEngine(b, 1_000, 0) }

// benchEngineChain measures a 3-cycle chain end-to-end, either one Run per
// job (every boundary written to the store and re-read) or through the
// pipelined executor (boundaries streamed between cycles).
func benchEngineChain(b *testing.B, pipelined bool) {
	b.Helper()
	const n = 50_000
	store := dfs.NewMem()
	recs := make([]string, n)
	for i := range recs {
		recs[i] = strconv.Itoa(i)
	}
	if err := dfs.WriteAll(store, "in", recs); err != nil {
		b.Fatal(err)
	}
	e := NewEngine(Config{Store: store})
	jobs := chainJobs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if pipelined {
			_, _, err = e.RunPipeline(chainStages(jobs...)...)
		} else {
			_, _, err = runSequential(e, jobs...)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(n)
}

func BenchmarkEngineChainSequential(b *testing.B) { benchEngineChain(b, false) }
func BenchmarkEngineChainPipelined(b *testing.B)  { benchEngineChain(b, true) }

// pointsJob emits n point pairs over keys, every other one to key 0 when hot,
// from a positional input; the values are views of one string. The reduce
// counts what it is given.
func pointsJob(n int, keys int64, hot bool, received *atomic.Int64) Job {
	value := "0123456789abcdefghijklmnop"
	return Job{
		Name:   "points",
		Inputs: []Input{{Count: n}},
		MapAt: func(_, pos int, emit Emitter) error {
			key := int64(pos) % keys
			if hot && pos%2 == 0 {
				key = 0
			}
			emit.Emit(key, value[pos%8:])
			return nil
		},
		Reduce: func(_ int64, values []string, _ func(string) error) error {
			received.Add(int64(len(values)))
			return nil
		},
	}
}

// BenchmarkShuffle is the dev-loop number of the shuffle alone: map functions
// that only emit, reducers that only count. -benchmem shows what the engine
// allocates around the pairs.
func BenchmarkShuffle(b *testing.B) {
	var received atomic.Int64
	ranges := Job{
		Name:   "ranges",
		Inputs: []Input{{Count: 2_000}},
		MapAt: func(_, pos int, emit Emitter) error {
			lo := int64(pos % 61)
			emit.EmitRange(lo, lo+7, "0123456789abcdefghijklmnop")
			return nil
		},
		Reduce: func(_ int64, values []string, _ func(string) error) error {
			received.Add(int64(len(values)))
			return nil
		},
	}
	for _, bc := range []struct {
		name string
		job  Job
	}{
		{"points-33000x16", pointsJob(33_000, 16, false, &received)},
		{"points-33000x16-hot", pointsJob(33_000, 16, true, &received)},
		{"ranges-2000x8", ranges},
	} {
		b.Run(bc.name, func(b *testing.B) {
			e := NewEngine(Config{Store: dfs.NewMem(), Workers: 2})
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(bc.job); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
