package core

import (
	"errors"
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
// after the algorithm, exactly as many cycles as the chain has stages that
// can decide something, one metrics entry each, and nothing left on the
// store. A mark or prune cycle runs only over components of two or more
// relations, so on a sequence query All-Seq-Matrix and PASM run the join
// alone; FCTS ends at its component join when the query is one component.
// Records stream across a boundary only where partial assignments cross it
// (streams): every boundary of Cascade and FSTC, FCTS's component→sequence
// step. A mark cycle streams nothing — its flags reach the next cycle by tap
// — and for every algorithm that marks the test recounts them independently
// of the tap: the mark cycle runs again alone, writing its flags to the
// store, and there must be as many as the chain's mark cycle wrote and as
// many flagged tuples as ReplicatedIntervals — on these single-attribute
// queries, one flag a tuple. For PASM it also bounds the pruned counts by the
// tuples the output really lacks; a chain that does not mark prunes nothing.
func TestChainStatistics(t *testing.T) {
	cases := []struct {
		name  string
		alg   Algorithm
		query string
		// cycles is how many cycles the chain runs; marks says its first
		// is a mark cycle; streams lists the cycles, from 1, whose output
		// streams into the next.
		cycles  int
		marks   bool
		streams []int
	}{
		{"cascade", Cascade{}, "R1 overlaps R2 and R2 overlaps R3", 2, false, []int{1}},
		{"cascade-matrix", Cascade{MatrixSteps: true}, "R1 before R2 and R2 before R3", 2, false, []int{1}},
		{"rccis", RCCIS{}, "R1 overlaps R2 and R2 overlaps R3", 2, true, nil},
		{"all-seq-matrix", SeqMatrix{}, "R1 overlaps R2 and R2 overlaps R3", 2, true, nil},
		{"all-seq-matrix-hybrid", SeqMatrix{}, "R1 before R2 and R1 overlaps R3", 2, true, nil},
		{"all-seq-matrix-sequence", SeqMatrix{}, "R1 before R2 and R2 before R3", 1, false, nil},
		{"fcts", FCTS{}, "R1 overlaps R2 and R2 overlaps R3", 2, true, nil},
		{"fcts-disconnected", FCTS{}, "R1 overlaps R2 and R3 overlaps R4", 3, true, []int{2}},
		{"fcts-hybrid", FCTS{}, "R1 before R2 and R1 overlaps R3", 3, true, []int{2}},
		{"fstc-hybrid", FSTC{}, "R1 before R2 and R1 overlaps R3", 2, false, []int{1}},
		{"pasm", PASM{}, "R1 overlaps R2 and R2 overlaps R3", 3, true, nil},
		{"pasm-hybrid", PASM{}, "R1 before R2 and R1 overlaps R3", 3, true, nil},
		{"pasm-sequence", PASM{}, "R1 before R2 and R2 before R3", 1, false, nil},
		{"gen-matrix", GenMatrix{}, "R1 before R2 and R1 overlaps R3", 2, true, nil},
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
			if res.Metrics.Cycles != tc.cycles || len(res.PerCycle) != tc.cycles {
				t.Errorf("cycles = %d with %d per-cycle metrics, want %d", res.Metrics.Cycles, len(res.PerCycle), tc.cycles)
			}
			for i, cycle := range res.PerCycle {
				switch streams := slices.Contains(tc.streams, i+1); {
				case streams && cycle.StreamedPairs == 0:
					t.Errorf("cycle %d streamed no pairs into the next", i+1)
				case !streams && cycle.StreamedPairs != 0:
					t.Errorf("cycle %d streamed %d pairs, want none", i+1, cycle.StreamedPairs)
				}
			}

			if files, err := store.List(""); err != nil || len(files) != 0 {
				t.Errorf("run left %v on the store (%v), want nothing", files, err)
			}
			_, isPASM := tc.alg.(PASM)
			if (!isPASM || !tc.marks) && len(res.PrunedIntervals) != 0 {
				t.Errorf("pruned = %v without a prune cycle", res.PrunedIntervals)
			}
			if !tc.marks {
				if res.ReplicatedIntervals != 0 {
					t.Errorf("replicated = %d without a mark cycle", res.ReplicatedIntervals)
				}
				return
			}
			flags := markAlone(t, tc.alg.(stagedAlgorithm).stages, q, rels, opts)
			flagged := make(map[tupleRef]bool)
			for _, rec := range flags {
				rel, _, id, err := splitVertexFlag(rec)
				if err != nil {
					t.Fatalf("mark record %q: %v", rec, err)
				}
				flagged[tupleRef{rel, id}] = true
			}
			if wrote := res.PerCycle[0].OutputRecords; wrote != int64(len(flags)) || wrote != res.ReplicatedIntervals {
				t.Errorf("the mark cycle wrote %d flags, alone %d; the tap counted %d flagged tuples",
					wrote, len(flags), res.ReplicatedIntervals)
			}
			if int64(len(flagged)) != res.ReplicatedIntervals {
				t.Errorf("replicated: result says %d, the mark cycle's flags name %d tuples",
					res.ReplicatedIntervals, len(flagged))
			}
			if !isPASM {
				return
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

// stagedAlgorithm is an algorithm that runs as a chain of stages.
type stagedAlgorithm interface {
	stages(*Context, *chainEnv) ([]mr.Stage, *execPlan, error)
}

// tupleRef names a tuple of a run: its relation and its id.
type tupleRef struct {
	rel int
	id  int64
}

// markAlone runs the first stage of the chain build makes — a mark cycle —
// alone on a store of its own, writing the flags it hands its tap there, and
// returns them.
func markAlone(t *testing.T, build stageBuilder, q *query.Query, rels []*relation.Relation, opts Options) []string {
	t.Helper()
	store := dfs.NewMem()
	ctx, err := NewContext(mr.NewEngine(mr.Config{Store: store, Workers: 4}), q, rels, opts)
	if err != nil {
		t.Fatal(err)
	}
	env := &chainEnv{opts: opts.withDefaults(), d: query.Decompose(q), res: &Result{}}
	stages, _, err := build(ctx, env)
	if err != nil {
		t.Fatal(err)
	}
	mark := stages[0].Job
	if mark.Name != "mark" || mark.Output != "" {
		t.Fatalf("the chain's first stage is %q writing %q, want the mark cycle writing nothing", mark.Name, mark.Output)
	}
	mark.Output = "flags"
	if _, err := ctx.Engine.Run(mark); err != nil {
		t.Fatal(err)
	}
	flags, err := dfs.ReadAll(store, mark.Output)
	if files, _ := store.List(""); err != nil || !slices.Equal(files, []string{mark.Output}) {
		t.Fatalf("store holds %v (reading %s: %v), want the flags alone", files, mark.Output, err)
	}
	return flags
}

// TestRunStagesRefusesUnreadOutput: a stage's output streams into the next
// stage and is never written, so a chain whose next stage does not read it
// is refused before any cycle runs. FCTS's component join writes the
// partial assignments its sequence join reads.
func TestRunStagesRefusesUnreadOutput(t *testing.T) {
	q := query.MustParse("R1 before R2 and R1 overlaps R3")
	rng := rand.New(rand.NewSource(9))
	rels := make([]*relation.Relation, len(q.Relations))
	for i, s := range q.Relations {
		rels[i] = randomRelation(rng, s.Name, 30, 100, 20)
	}
	store := dfs.NewMem()
	ctx, err := NewContext(mr.NewEngine(mr.Config{Store: store, Workers: 2}), q, rels, Options{PartitionsPerDim: 4})
	if err != nil {
		t.Fatal(err)
	}
	_, err = ctx.runStages("fcts", func(c *Context, env *chainEnv) ([]mr.Stage, *execPlan, error) {
		stages, plan, err := FCTS{}.stages(c, env)
		if err == nil {
			stages[2].Job.Inputs[0].File = "elsewhere"
		}
		return stages, plan, err
	})
	if err == nil || !strings.Contains(err.Error(), "components") {
		t.Fatalf("err = %v, want the unread component output refused", err)
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

// errCreate is what a createFailingStore's Create returns.
var errCreate = errors.New("create refused")

// createFailingStore is a store on which nothing can be created.
type createFailingStore struct{ dfs.Store }

func (createFailingStore) Create(string) (dfs.Writer, error) { return nil, errCreate }

// TestSingleCycleErrorIsWrapped checks that running one-cycle algorithms
// through the shared runner keeps the engine's error chain: a spill run the
// store refuses to create fails the run with an error that still wraps the
// store's.
func TestSingleCycleErrorIsWrapped(t *testing.T) {
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
				Store:              createFailingStore{dfs.NewMem()},
				Workers:            2,
				SpillPairThreshold: 1,
			})
			ctx, err := NewContext(engine, q, rels, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tc.alg.Run(ctx); !errors.Is(err, errCreate) {
				t.Fatalf("err = %v, want one wrapping %v", err, errCreate)
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
