package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"intervaljoin/internal/dfs"
	"intervaljoin/internal/mr"
	"intervaljoin/internal/query"
	"intervaljoin/internal/relation"
)

// resultLines renders a result's rows, in order, as the text lines the
// equivalence suites compare byte for byte.
func resultLines(res *Result) []string {
	lines := make([]string, len(res.Tuples))
	for i, t := range res.Tuples {
		lines[i] = t.Key()
	}
	return lines
}

// runSingle executes one algorithm on a fresh store with a pinned scratch
// directory and returns the result plus its rows rendered as lines.
func runSingle(t *testing.T, alg Algorithm, q *query.Query, rels []*relation.Relation, opts Options) (*Result, []string) {
	t.Helper()
	return runOnStore(t, dfs.NewMem(), alg, q, rels, opts)
}

// runOnStore is runSingle on a store the caller keeps, so it can inspect
// the intermediates the run left behind.
func runOnStore(t *testing.T, store dfs.Store, alg Algorithm, q *query.Query, rels []*relation.Relation, opts Options) (*Result, []string) {
	t.Helper()
	engine := mr.NewEngine(mr.Config{Store: store, Workers: 4})
	ctx, err := NewContext(engine, q, rels, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := alg.Run(ctx)
	if err != nil {
		t.Fatalf("%s: %v", alg.Name(), err)
	}
	return res, resultLines(res)
}

// TestChainStatistics runs every multi-cycle algorithm and checks what the
// runner reports around the rows: the oracle's output, the aggregate named
// after the algorithm, one metrics entry per cycle, records streamed across
// the boundaries and nothing left on the store. For PASM it recounts the
// replicate-flagged records independently of the tap that counts them: the
// mark cycle runs again alone, writing its output to the store, and the
// flags are counted there. It also bounds the pruned counts by the tuples
// the output really lacks.
func TestChainStatistics(t *testing.T) {
	cases := []struct {
		name  string
		alg   Algorithm
		query string
	}{
		{"cascade", Cascade{}, "R1 overlaps R2 and R2 overlaps R3"},
		{"cascade-matrix", Cascade{MatrixSteps: true}, "R1 before R2 and R2 before R3"},
		{"rccis", RCCIS{}, "R1 overlaps R2 and R2 overlaps R3"},
		{"all-seq-matrix", SeqMatrix{}, "R1 overlaps R2 and R2 overlaps R3"},
		{"all-seq-matrix-hybrid", SeqMatrix{}, "R1 before R2 and R1 overlaps R3"},
		{"fcts", FCTS{}, "R1 overlaps R2 and R2 overlaps R3"},
		{"fcts-hybrid", FCTS{}, "R1 before R2 and R1 overlaps R3"},
		{"fstc-hybrid", FSTC{}, "R1 before R2 and R1 overlaps R3"},
		{"pasm", PASM{}, "R1 overlaps R2 and R2 overlaps R3"},
		{"pasm-hybrid", PASM{}, "R1 before R2 and R1 overlaps R3"},
		{"gen-matrix", GenMatrix{}, "R1 before R2 and R1 overlaps R3"},
	}
	rng := rand.New(rand.NewSource(42))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q := query.MustParse(tc.query)
			rels := make([]*relation.Relation, len(q.Relations))
			for i, s := range q.Relations {
				rels[i] = randomRelation(rng, s.Name, 45, 160, 30)
			}
			opts := Options{Partitions: 6, PartitionsPerDim: 4}
			store := dfs.NewMem()
			res, lines := runOnStore(t, store, tc.alg, q, rels, opts)
			want, wantLines := runSingle(t, Reference{}, q, rels, Options{})
			if !slices.Equal(lines, wantLines) {
				t.Fatalf("output differs from the oracle's: %d rows, want %d", len(lines), len(wantLines))
			}
			if res.Metrics.Job != tc.alg.Name() {
				t.Errorf("Metrics.Job = %q, want %q", res.Metrics.Job, tc.alg.Name())
			}
			if res.Metrics.Cycles < 2 || res.Metrics.Cycles != len(res.PerCycle) {
				t.Errorf("cycles = %d with %d per-cycle metrics", res.Metrics.Cycles, len(res.PerCycle))
			}
			if res.Metrics.StreamedPairs == 0 {
				t.Error("run streamed no pairs across cycle boundaries")
			}

			if files, err := store.List(""); err != nil || len(files) != 0 {
				t.Errorf("run left %v on the store (%v), want every boundary streamed", files, err)
			}
			if _, isPASM := tc.alg.(PASM); !isPASM {
				if len(res.PrunedIntervals) != 0 {
					t.Errorf("pruned = %v without a prune cycle", res.PrunedIntervals)
				}
				return
			}
			ctx, err := NewContext(mr.NewEngine(mr.Config{Store: store, Workers: 4}), q, rels, opts)
			if err != nil {
				t.Fatal(err)
			}
			env := &chainEnv{opts: opts.withDefaults(), d: query.Decompose(q), res: &Result{}}
			stages, _, err := PASM{}.stages(ctx, env)
			if err != nil {
				t.Fatal(err)
			}
			mark := stages[0].Job
			if _, err := ctx.Engine.Run(mark); err != nil {
				t.Fatal(err)
			}
			marked, err := dfs.ReadAll(store, mark.Output)
			if files, _ := store.List(""); err != nil || !slices.Equal(files, []string{mark.Output}) {
				t.Fatalf("store holds %v (reading %s: %v), want the marking alone", files, mark.Output, err)
			}
			var flagged int64
			for _, rec := range marked {
				_, _, flags, err := splitVector(rec)
				if err != nil {
					t.Fatalf("marked record %q: %v", rec, err)
				}
				if flags == flagSuffix[1] {
					flagged++
				}
			}
			if flagged != res.ReplicatedIntervals {
				t.Errorf("replicated: result says %d, the mark cycle's output holds %d flagged records",
					res.ReplicatedIntervals, flagged)
			}
			// A pruned tuple is in no output row.
			if len(res.PrunedIntervals) == 0 {
				t.Error("PASM pruned nothing: the bound below checks nothing")
			}
			w := len(rels)
			for r, rel := range rels {
				seen := make(map[int64]bool)
				for i := r; i < len(want.IDs); i += w {
					seen[want.IDs[i]] = true
				}
				if absent := int64(rel.Len() - len(seen)); res.PrunedIntervals[r] > absent {
					t.Errorf("pruned[%d] = %d, but only %d of the relation's tuples are in no output row",
						r, res.PrunedIntervals[r], absent)
				}
			}
		})
	}
}

// TestRunStagesRefusesUnreadOutput: a stage's output streams into the next
// stage and is never written, so a chain whose next stage does not read it
// is refused before any cycle runs.
func TestRunStagesRefusesUnreadOutput(t *testing.T) {
	q := query.MustParse("R1 overlaps R2 and R2 overlaps R3")
	rng := rand.New(rand.NewSource(9))
	rels := make([]*relation.Relation, len(q.Relations))
	for i, s := range q.Relations {
		rels[i] = randomRelation(rng, s.Name, 30, 100, 20)
	}
	store := dfs.NewMem()
	ctx, err := NewContext(mr.NewEngine(mr.Config{Store: store, Workers: 2}), q, rels, Options{Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	_, err = ctx.runStages("rccis", func(c *Context, env *chainEnv) ([]mr.Stage, *execPlan, error) {
		stages, plan, err := RCCIS{}.stages(c, env)
		if err == nil {
			stages[1].Job.Inputs[0].File = "elsewhere"
		}
		return stages, plan, err
	})
	if err == nil || !strings.Contains(err.Error(), "marked") {
		t.Fatalf("err = %v, want the unread marking refused", err)
	}
	if files, _ := store.List(""); len(files) != 0 {
		t.Errorf("store holds %v, want nothing written", files)
	}
}

// TestContradictoryQueryRunsNoCycle pins the runner's short-circuit: a query
// whose sequence conditions order two components both ways has a provably
// empty output, so no driver stages a relation or runs a cycle for it.
func TestContradictoryQueryRunsNoCycle(t *testing.T) {
	q := query.MustParse("R1 before R2 and R2 before R1x and R1x overlaps R1")
	if !query.Decompose(q).Contradictory {
		t.Fatal("test query is not contradictory")
	}
	rng := rand.New(rand.NewSource(3))
	rels := make([]*relation.Relation, len(q.Relations))
	for i, s := range q.Relations {
		rels[i] = randomRelation(rng, s.Name, 30, 100, 20)
	}
	for _, alg := range []Algorithm{SeqMatrix{}, PASM{}, FCTS{}, FSTC{}, GenMatrix{}} {
		t.Run(alg.Name(), func(t *testing.T) {
			store := dfs.NewMem()
			ctx, err := NewContext(mr.NewEngine(mr.Config{Store: store, Workers: 2}), q, rels, Options{})
			if err != nil {
				t.Fatal(err)
			}
			res, err := alg.Run(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if res.Algorithm != alg.Name() || res.Metrics.Job != alg.Name() {
				t.Errorf("result names %q / %q, want %q", res.Algorithm, res.Metrics.Job, alg.Name())
			}
			if res.Metrics.Cycles != 0 || len(res.PerCycle) != 0 {
				t.Errorf("cycles = %d with %d per-cycle metrics, want none", res.Metrics.Cycles, len(res.PerCycle))
			}
			if len(res.Tuples) != 0 {
				t.Errorf("%d output tuples, want none", len(res.Tuples))
			}
			files, err := store.List("")
			if err != nil {
				t.Fatal(err)
			}
			if len(files) != 0 {
				t.Errorf("store holds %v, want nothing written", files)
			}
		})
	}
}

// TestSingleCycleErrorStaysTransient checks that running one-cycle
// algorithms through the shared runner keeps the engine's error chain: a
// task that exhausts its attempts on transient failures still surfaces as
// mr.ErrTransient to the caller.
func TestSingleCycleErrorStaysTransient(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cases := []struct {
		alg   Algorithm
		query string
	}{
		{TwoWay{}, "R1 overlaps R2"},
		{AllRep{}, "R1 overlaps R2 and R2 overlaps R3"},
		{AllMatrix{}, "R1 before R2 and R2 before R3"},
	}
	for _, tc := range cases {
		t.Run(tc.alg.Name(), func(t *testing.T) {
			q := query.MustParse(tc.query)
			rels := make([]*relation.Relation, len(q.Relations))
			for i, s := range q.Relations {
				rels[i] = randomRelation(rng, s.Name, 20, 100, 20)
			}
			engine := mr.NewEngine(mr.Config{
				Store:           dfs.NewMem(),
				Workers:         2,
				MaxTaskAttempts: 2,
				FailureInjector: func(mr.Phase, int, int) error {
					return fmt.Errorf("always down: %w", mr.ErrTransient)
				},
			})
			ctx, err := NewContext(engine, q, rels, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tc.alg.Run(ctx); !errors.Is(err, mr.ErrTransient) {
				t.Fatalf("err = %v, want one wrapping mr.ErrTransient", err)
			}
		})
	}
}

// TestRunAllocationsIndependentOfRows is the result path's allocation
// guard: rows travel from the reduce kernel to Result.Tuples in slabs, so a
// run that returns ten times the rows over the same number of input tuples
// allocates a few more chunks and longer slabs, not more objects per row.
func TestRunAllocationsIndependentOfRows(t *testing.T) {
	q := query.MustParse("R1 overlaps R2")
	measure := func(maxLen int64) (allocs float64, rows int) {
		rng := rand.New(rand.NewSource(11))
		rels := []*relation.Relation{
			randomRelation(rng, "R1", 250, 4000, maxLen),
			randomRelation(rng, "R2", 250, 4000, maxLen),
		}
		engine := mr.NewEngine(mr.Config{Store: dfs.NewMem(), Workers: 2})
		allocs = testing.AllocsPerRun(20, func() {
			ctx, err := NewContext(engine, q, rels, Options{Partitions: 4})
			if err != nil {
				t.Fatal(err)
			}
			res, err := (TwoWay{}).Run(ctx)
			if err != nil {
				t.Fatal(err)
			}
			rows = len(res.Tuples)
		})
		return allocs, rows
	}
	few, fewRows := measure(40)
	many, manyRows := measure(600)
	if fewRows < 100 || manyRows < 10*fewRows {
		t.Fatalf("runs return %d and %d rows; the guard needs them a factor of ten apart", fewRows, manyRows)
	}
	t.Logf("two-way run: %.0f allocations for %d rows, %.0f for %d", few, fewRows, many, manyRows)
	// Slab growth adds a few dozen; one allocation per row would add
	// manyRows-fewRows of them.
	if many > few+float64(manyRows-fewRows)/10 {
		t.Fatalf("a run allocates %.0f times for %d rows and %.0f times for %d", few, fewRows, many, manyRows)
	}
}
