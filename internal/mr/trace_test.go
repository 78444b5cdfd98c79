package mr

import (
	"runtime"
	"strconv"
	"testing"
	"time"

	"intervaljoin/internal/dfs"
	"intervaljoin/internal/obs"
)

// TestTracedRunMatchesUntraced is the observability equivalence check: a
// tracer must never change what the engine computes. Both the sequential
// chain and the pipelined executor must produce byte-identical output with
// and without a tracer attached.
func TestTracedRunMatchesUntraced(t *testing.T) {
	want, _, _ := runChainOn(t, Config{Workers: 4})
	tr := obs.New(obs.Options{})
	got, _, _ := runChainOn(t, Config{Workers: 4, Tracer: tr})
	sameLines(t, got, want)
	hasWalls(t, "traced sequential chain", tr)

	trP := obs.New(obs.Options{})
	_, gotP, _, _ := runPipelineOn(t, Config{Workers: 4, Tracer: trP}, chainStages(chainJobs()...))
	sameLines(t, gotP, want)
	hasWalls(t, "traced pipeline", trP)
}

// hasWalls fails the test unless the tracer's spans give the map and the
// reduce phase a wall of their own.
func hasWalls(t *testing.T, what string, tr *obs.Tracer) {
	t.Helper()
	walls := tr.Snapshot().PhaseWalls(0)
	if walls[obs.CatMap] <= 0 || walls[obs.CatReduce] <= 0 {
		t.Fatalf("%s: phase walls %v, want map and reduce", what, walls)
	}
}

// TestTraceSpansAndMeta checks the span taxonomy of a traced run: per-task
// map spans, one reduce span per reduce task, a cycle span carrying the
// job's meta annotations, and phase walls bounded by the run's wall clock.
func TestTraceSpansAndMeta(t *testing.T) {
	store := dfs.NewMem()
	dfs.WriteAll(store, "in", stageInput(2000))
	tr := obs.New(obs.Options{})
	e := NewEngine(Config{Store: store, Workers: 4, Tracer: tr})
	job := chainJobs()[0]
	job.Meta = JobMeta{Algorithm: "rccis", Cycle: 1, Family: "colocation"}
	m, err := e.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	s := tr.Snapshot()
	counts := map[string]int{}
	var cycleSpan *obs.Span
	for i, sp := range s.Spans {
		counts[sp.Cat]++
		if sp.Cat == obs.CatCycle {
			cycleSpan = &s.Spans[i]
		}
	}
	for _, cat := range []string{obs.CatFeed, obs.CatMap, obs.CatMerge, obs.CatReduce, obs.CatOutput, obs.CatCycle} {
		if counts[cat] == 0 {
			t.Errorf("no %s spans recorded (got %v)", cat, counts)
		}
	}
	if cycleSpan == nil {
		t.Fatal("no cycle span")
	}
	args := map[string]string{}
	for _, a := range cycleSpan.Args {
		args[a.Key] = a.Val
	}
	if args["algorithm"] != "rccis" || args["cycle"] != "1" || args["family"] != "colocation" {
		t.Fatalf("cycle span args = %v", args)
	}
	walls := s.PhaseWalls(0)
	if walls[obs.CatMap] > m.TotalWall || walls[obs.CatReduce] > m.TotalWall {
		t.Fatalf("phase walls %v exceed TotalWall %v", walls, m.TotalWall)
	}
	if counts[obs.CatReduce] != m.DistinctKeys {
		t.Fatalf("%d reduce spans, want one per key: %d", counts[obs.CatReduce], m.DistinctKeys)
	}
}

// TestPipelineTraceShowsOverlap is the acceptance check for the pipelined
// trace: with a streamed boundary, a reduce span of cycle k must overlap a
// map span of cycle k+1 in time — the lanes Perfetto renders side by side.
func TestPipelineTraceShowsOverlap(t *testing.T) {
	store := dfs.NewMem()
	dfs.WriteAll(store, "in", stageInput(2000))
	passThrough := func(key int64, values []string, write func(string) error) error {
		time.Sleep(time.Millisecond) // stretch the reduce phase so overlap is visible
		for _, v := range values {
			if err := write(v); err != nil {
				return err
			}
		}
		return nil
	}
	j1 := Job{
		Name:   "p/j1",
		Inputs: []Input{{File: "in"}},
		Map: func(_ int, rec string, emit Emitter) error {
			v, _ := strconv.ParseInt(rec, 10, 64)
			emit.Emit(v%64, rec)
			return nil
		},
		Reduce: passThrough,
		Output: "p/inter",
	}
	j2 := Job{
		Name:   "p/j2",
		Inputs: []Input{{File: "p/inter"}},
		Map: func(_ int, rec string, emit Emitter) error {
			v, _ := strconv.ParseInt(rec, 10, 64)
			emit.Emit(v%8, rec)
			return nil
		},
		Reduce: func(key int64, values []string, write func(string) error) error {
			return write(strconv.Itoa(len(values)))
		},
		Output: "p/out",
	}
	tr := obs.New(obs.Options{})
	e := NewEngine(Config{Store: store, Workers: 4, Tracer: tr})
	if _, _, err := e.RunPipeline(chainStages(j1, j2)...); err != nil {
		t.Fatal(err)
	}
	s := tr.Snapshot()
	var upstream, downstream []obs.Span
	for _, sp := range s.Spans {
		switch {
		case sp.Cat == obs.CatReduce && sp.Name == "reduce:p/j1":
			upstream = append(upstream, sp)
		case sp.Cat == obs.CatMap && sp.Name == "map:p/j2":
			downstream = append(downstream, sp)
		}
	}
	if len(upstream) == 0 || len(downstream) == 0 {
		t.Fatalf("missing spans: %d upstream reduce, %d downstream map", len(upstream), len(downstream))
	}
	for _, r := range upstream {
		for _, mp := range downstream {
			if mp.Start < r.Start+r.Dur && r.Start < mp.Start+mp.Dur {
				return // found cycle-k reduce overlapping cycle-k+1 map
			}
		}
	}
	t.Fatal("no reduce span of cycle 1 overlaps a map span of cycle 2 in the pipelined trace")
}

// TestBuildReport checks the metrics.json glue: serialized model and skew
// from Metrics, phase stats from the tracer.
func TestBuildReport(t *testing.T) {
	store := dfs.NewMem()
	dfs.WriteAll(store, "in", stageInput(1000))
	tr := obs.New(obs.Options{})
	e := NewEngine(Config{Store: store, Workers: 4, Tracer: tr})
	m, err := e.Run(chainJobs()[0])
	if err != nil {
		t.Fatal(err)
	}
	r := BuildReport("test", tr, m)
	if r.Model == nil || r.Model.Pairs != m.IntermediatePairs || r.Model.Cycles != 1 {
		t.Fatalf("model = %+v", r.Model)
	}
	if r.Skew == nil || r.Skew.Reducers != m.DistinctKeys {
		t.Fatalf("skew = %+v", r.Skew)
	}
	if r.Phases[obs.CatReduce].Spans == 0 || r.Phases[obs.CatReduce].WallNS <= 0 {
		t.Fatalf("phases = %+v", r.Phases)
	}
	// Untraced: report still carries the serialized model.
	r = BuildReport("untraced", nil, m)
	if r.Model == nil || len(r.Phases) != 0 {
		t.Fatalf("untraced report = %+v", r)
	}
}

// TestTracedRunCostDoesNotGrowWithHistory: an engine whose tracer outlives
// its runs pays per run for that run's spans, not for every span the rings
// still hold. Each run's spans show in the snapshot's walls since its start,
// and the bytes a run allocates once hundreds of runs are on record stay
// near those of an early one.
func TestTracedRunCostDoesNotGrowWithHistory(t *testing.T) {
	store := dfs.NewMem()
	dfs.WriteAll(store, "in", stageInput(300))
	tr := obs.New(obs.Options{})
	e := NewEngine(Config{Store: store, Workers: 2, Tracer: tr})
	job := chainJobs()[0]
	run := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		mark := time.Since(tr.Epoch())
		m, err := e.Run(job)
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		walls := tr.Snapshot().PhaseWalls(mark)
		if walls[obs.CatMap] <= 0 || walls[obs.CatReduce] <= 0 || walls[obs.CatReduce] > m.TotalWall {
			t.Fatalf("the snapshot since the run's start says %v, the run took %v", walls, m.TotalWall)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	run()
	early := run()
	for i := 0; i < 400; i++ {
		run()
	}
	// The least of three: a ring doubling its backing array is one run's cost.
	if late := min(run(), run(), run()); late > 2*early {
		t.Fatalf("a run allocated %d bytes with 2 runs on record and %d with 400", early, late)
	}
}
