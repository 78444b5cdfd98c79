package mr

import (
	"fmt"
	"strconv"
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
