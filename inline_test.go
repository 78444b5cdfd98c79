package intervaljoin

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"intervaljoin/internal/core"
)

// randomConnectedQuery writes a query of class over m relations R1..Rm in
// which every relation after the first is linked to an earlier one, so that
// its order is connected. A General query's relations carry two
// attributes, x and y, and each link constrains both.
func randomConnectedQuery(rng *rand.Rand, class string, m int) string {
	colocation := []string{"overlaps", "overlappedby", "contains", "containedby", "meets", "metby",
		"starts", "startedby", "finishes", "finishedby", "equals"}
	sequence := []string{"before", "after"}
	var conds []string
	for r := 2; r <= m; r++ {
		left, right := fmt.Sprintf("R%d", 1+rng.Intn(r-1)), fmt.Sprintf("R%d", r)
		if rng.Intn(2) == 0 {
			left, right = right, left
		}
		pick := func(preds []string) string { return preds[rng.Intn(len(preds))] }
		switch class {
		case "colocation":
			conds = append(conds, left+" "+pick(colocation)+" "+right)
		case "sequence":
			conds = append(conds, left+" "+pick(sequence)+" "+right)
		case "hybrid":
			// The first link is a sequence, every later one a colocation.
			preds := [][]string{sequence, colocation}[min(r-2, 1)]
			conds = append(conds, left+" "+pick(preds)+" "+right)
		case "general":
			conds = append(conds,
				left+".x "+pick(colocation)+" "+right+".x",
				left+".y "+pick(append(colocation, sequence...))+" "+right+".y")
		}
	}
	return strings.Join(conds, " and ")
}

// randomRelations draws the query's relations, each of 0..maxN tuples with
// as many attributes as the query names. Starts fall in [0, 400) and
// intervals are up to 30 long, so colocation predicates match often.
func randomRelations(rng *rand.Rand, q *Query, maxN int) []*Relation {
	rels := make([]*Relation, len(q.Relations))
	for i, s := range q.Relations {
		rel := NewRelation(s)
		for range rng.Intn(maxN + 1) {
			attrs := make([]Interval, s.Arity())
			for a := range attrs {
				start := rng.Int63n(400)
				attrs[a] = NewInterval(start, start+rng.Int63n(31))
			}
			rel.Append(attrs...)
		}
		rels[i] = rel
	}
	return rels
}

// largeInLineCases are one query of each class over 2^15 tuples or so, with
// inputs drawn so that the output stays near 10^5 rows, and a colocation
// chain whose first relation's starts follow a Zipf law, so that the ranges
// the in-line join cuts its first level into carry unequal work.
func largeInLineCases(rng *rand.Rand) map[string][]*Relation {
	uniform := func(n int, lo, hi, maxLen int64) []Interval {
		ivs := make([]Interval, n)
		for i := range ivs {
			start := lo + rng.Int63n(hi-lo)
			ivs[i] = NewInterval(start, start+rng.Int63n(maxLen+1))
		}
		return ivs
	}
	// A sequence condition holds for about half of all pairs: R2 and R3 lie
	// wholly before R1 but for three tuples each, in that order after it.
	tail := func(name string, n int, at int64) *Relation {
		return FromIntervals(name, append(uniform(n-3, 0, 900, 50), uniform(3, at, at+500, 50)...))
	}
	zipf := rand.NewZipf(rng, 1.2, 1, 1_099_999)
	hot := make([]Interval, 11_000)
	for i := range hot {
		start := int64(zipf.Uint64())
		hot[i] = NewInterval(start, start+rng.Int63n(101))
	}
	// A box's y follows its x, so that two boxes overlapping on x often do
	// on y too.
	box := func(name string, n int) *Relation {
		rel := NewRelation(NewSchema(name, "x", "y"))
		for range n {
			x := rng.Int63n(100_000)
			y := x + rng.Int63n(50)
			rel.Append(NewInterval(x, x+rng.Int63n(300)), NewInterval(y, y+rng.Int63n(300)))
		}
		return rel
	}
	return map[string][]*Relation{
		// batch-sparse's density: a start every 100 points in each relation.
		"R1 overlaps R2 and R2 overlaps R3": {
			FromIntervals("R1", uniform(11_000, 0, 1_100_000, 100)),
			FromIntervals("R2", uniform(11_000, 0, 1_100_000, 100)),
			FromIntervals("R3", uniform(11_000, 0, 1_100_000, 100)),
		},
		"R1 overlappedby R2 and R2 overlaps R3": {
			FromIntervals("R1", hot),
			FromIntervals("R2", uniform(11_000, 0, 1_100_000, 100)),
			FromIntervals("R3", uniform(11_000, 0, 1_100_000, 100)),
		},
		"R1 before R2 and R2 before R3": {
			FromIntervals("R1", uniform(12_000, 1_000, 2_000, 50)),
			tail("R2", 12_000, 3_000),
			tail("R3", 12_000, 5_000),
		},
		"R1 overlaps R2 and R2 before R3": {
			FromIntervals("R1", uniform(16_000, 0, 1_600_000, 120)),
			FromIntervals("R2", uniform(16_000, 0, 1_600_000, 120)),
			FromIntervals("R3", uniform(8, 0, 1_600_000, 120)),
		},
		"R1.x overlaps R2.x and R1.y overlaps R2.y": {box("R1", 16_000), box("R2", 16_000)},
	}
}

// TestRunInLineMatchesJob: Engine.Run with no options joins in line, and its
// rows are the planner's job's, id for id, on random connected colocation,
// sequence, hybrid and General queries over two to five relations (three to
// five for a hybrid: on two relations of one attribute a sequence and a
// colocation condition contradict), taking engines of 1, 2 and 4 workers in
// turn, and on one query of each class over some 2^15 tuples on all three,
// which split their first level over two and four workers. The in-line
// result says so, with metrics and a plan block.
func TestRunInLineMatchesJob(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	engines := []*Engine{
		MustNewEngine(EngineOptions{Workers: 1}),
		MustNewEngine(EngineOptions{Workers: 2}),
		MustNewEngine(EngineOptions{Workers: 4}),
	}
	rows, split := 0, 0
	check := func(eng *Engine, workers int, q *Query, rels []*Relation, want *Result) {
		t.Helper()
		label := fmt.Sprintf("%d workers, %q", workers, q)
		got, err := eng.Run(q, rels, RunOptions{})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if !slices.Equal(got.IDs, want.IDs) {
			t.Errorf("%s: in line %d rows, the job %d, or other ids", label, len(got.Tuples), len(want.Tuples))
		}
		rows += len(want.Tuples)
		tuples := 0
		for _, r := range rels {
			tuples += r.Len()
		}
		mt := got.Metrics
		switch {
		case got.Algorithm != "in-line":
			t.Errorf("%s: ran %s", label, got.Algorithm)
		case mt == nil || mt.Plan == nil || mt.Plan.InLine == nil:
			t.Errorf("%s: no in-line plan block in %+v", label, mt)
		case mt.Plan.InLine.Tuples != int64(tuples) || mt.MapInputRecords != int64(tuples) ||
			mt.OutputRecords != int64(len(got.Tuples)) || mt.Plan.InLine.Ranges < 1 ||
			workers == 1 && mt.Plan.InLine.Ranges != 1:
			t.Errorf("%s: %d tuples and %d rows, reported as %+v and %s", label, tuples, len(got.Tuples), *mt.Plan.InLine, mt)
		case math.IsInf(mt.ReplicationFactor(), 0) || math.IsNaN(mt.ReplicationFactor()):
			t.Errorf("%s: replication factor %v", label, mt.ReplicationFactor())
		}
		if mt != nil && mt.Plan != nil && mt.Plan.InLine != nil && mt.Plan.InLine.Ranges > 1 {
			split++
		}
	}
	job := func(q *Query, rels []*Relation) *Result {
		t.Helper()
		want, err := engines[2].RunWith(core.Plan(q, false), q, rels, RunOptions{Partitions: 16, PartitionsPerDim: 6})
		if err != nil {
			t.Fatalf("%q: job: %v", q, err)
		}
		return want
	}
	for _, class := range []string{"colocation", "sequence", "hybrid", "general"} {
		for trial := range 12 {
			m := 2 + trial%4
			if class == "hybrid" {
				m = 3 + trial%3
			}
			q, err := ParseQuery(randomConnectedQuery(rng, class, m))
			if err != nil {
				t.Fatal(err)
			}
			// A sequence condition matches about half of all pairs: cap a
			// relation at the m-th root of 10^5 tuples, so that such a query
			// has 10^5 rows at most.
			maxN := 300
			if class == "sequence" || class == "hybrid" {
				maxN = min(maxN, int(math.Pow(1e5, 1/float64(m))))
			}
			rels := randomRelations(rng, q, maxN)
			check(engines[trial%3], 1<<(trial%3), q, rels, job(q, rels))
		}
	}
	for qs, rels := range largeInLineCases(rng) {
		q, err := ParseQuery(qs)
		if err != nil {
			t.Fatal(err)
		}
		want := job(q, rels)
		for i, eng := range engines {
			check(eng, 1<<i, q, rels, want)
		}
		t.Logf("%q: %d rows", q, len(want.Tuples))
	}
	if rows == 0 || split == 0 {
		t.Fatalf("%d rows in all, %d runs split: the comparison checks nothing", rows, split)
	}
}

// TestInLineRunIsReported: a traced in-line run records one span, and its
// plan reaches metrics.json and the metrics line: on two workers, the first
// relation's two tuples make two stretches of the walk and its ids 0 and 1
// two ranges of the ordering.
func TestInLineRunIsReported(t *testing.T) {
	tracer := NewTracer(TracerOptions{})
	eng := MustNewEngine(EngineOptions{Tracer: tracer, Workers: 2})
	q, _ := ParseQuery("R1 overlaps R2")
	rels := []*Relation{
		FromIntervals("R1", []Interval{NewInterval(0, 10), NewInterval(2, 12)}),
		FromIntervals("R2", []Interval{NewInterval(5, 25)}),
	}
	res, err := eng.Run(q, rels, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != "in-line" || len(res.Tuples) != 2 {
		t.Fatalf("%s: %v", res.Algorithm, res.Tuples)
	}
	spans := tracer.Snapshot().Spans
	if len(spans) != 1 || spans[0].Name != "reduce:in-line" {
		t.Errorf("spans %+v, want one reduce:in-line", spans)
	}
	var doc bytes.Buffer
	if err := eng.WriteMetrics(&doc, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(doc.String(), `"in_line": {`) || !strings.Contains(doc.String(), `"tuples": 3`) ||
		!strings.Contains(doc.String(), `"stretches": 2`) || !strings.Contains(doc.String(), `"ranges": 2`) {
		t.Errorf("metrics.json has no in-line plan:\n%s", doc.String())
	}
	if line := res.Metrics.String(); !strings.Contains(line, " in-line(tuples=3 stretches=2 ranges=2)") {
		t.Errorf("metrics line %q does not say the run was in line", line)
	}
}

// byName is res's rows with their columns in relation-name order, sorted:
// the same join written in two relation orders gives the same rows.
func byName(q *Query, res *Result) [][]int64 {
	order := make([]int, len(q.Relations))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return strings.Compare(q.Relations[a].Name, q.Relations[b].Name) })
	rows := make([][]int64, len(res.Tuples))
	for i, t := range res.Tuples {
		for _, k := range order {
			rows[i] = append(rows[i], t[k])
		}
	}
	slices.SortFunc(rows, slices.Compare)
	return rows
}

// TestInLineNeedsConnectedOrder: a query whose relation order leaves one
// unconstrained by any earlier relation runs the planner's job, while the
// same join written in a connected order runs in line, with the same rows.
// Any option set runs the job too.
func TestInLineNeedsConnectedOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	rels := make([]*Relation, 0, 4)
	for _, name := range []string{"R1", "R2", "R3", "R4"} {
		ivs := make([]Interval, 40)
		for i := range ivs {
			start := rng.Int63n(400)
			ivs[i] = NewInterval(start, start+rng.Int63n(30))
		}
		rels = append(rels, FromIntervals(name, ivs))
	}
	eng := MustNewEngine(EngineOptions{})
	run := func(qs string, opts RunOptions) (*Query, *Result) {
		t.Helper()
		q, err := ParseQuery(qs)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run(q, rels, opts)
		if err != nil {
			t.Fatalf("%s: %v", qs, err)
		}
		return q, res
	}
	const disconnected = "R1 overlaps R2 and R3 overlaps R4 and R4 overlaps R1"
	const connected = "R1 overlaps R2 and R4 overlaps R1 and R3 overlaps R4"
	dq, job := run(disconnected, RunOptions{})
	cq, inLine := run(connected, RunOptions{})
	if job.Algorithm == "in-line" || inLine.Algorithm != "in-line" {
		t.Fatalf("%q ran %s and %q ran %s", disconnected, job.Algorithm, connected, inLine.Algorithm)
	}
	if len(job.Tuples) == 0 || !slices.EqualFunc(byName(dq, job), byName(cq, inLine), slices.Equal) {
		t.Errorf("the job has %d rows, in line %d, or other ids", len(job.Tuples), len(inLine.Tuples))
	}
	for _, opts := range []RunOptions{
		{Partitions: 16}, {PartitionsPerDim: 6}, {EquiDepth: true}, {Adaptive: true},
		{SplitThreshold: 2}, {MaxVirtual: 8}, {AutoPartitions: true},
	} {
		if _, res := run(connected, opts); res.Algorithm == "in-line" {
			t.Errorf("options %+v ran in line", opts)
		}
	}
}

// TestInLineRunAllocsIndependentOfRows: an in-line run over ten times the
// tuples, for ten times the rows, costs the same objects but for a row chunk
// and a longer list of chunks per doubling of the rows each of its two
// goroutines collects: the arena, the levels' lists and the result slab are
// each sized once, and both runs split their first level over the engine's
// two workers, at a fixed cost per goroutine — its cursor's three slices —
// and a Rows for each walker and each id range of the first relation, as
// many in both runs, since there is a range per worker.
func TestInLineRunAllocsIndependentOfRows(t *testing.T) {
	const workers = 2
	eng := MustNewEngine(EngineOptions{Workers: workers})
	q, _ := ParseQuery("R1 overlaps R2")
	measure := func(n int) (allocs float64, rows int) {
		rng := rand.New(rand.NewSource(int64(n)))
		rels := make([]*Relation, 2)
		for i, name := range []string{"R1", "R2"} {
			ivs := make([]Interval, n)
			for k := range ivs {
				start := rng.Int63n(int64(n) * 20)
				ivs[k] = NewInterval(start, start+rng.Int63n(40))
			}
			rels[i] = FromIntervals(name, ivs)
		}
		allocs = testing.AllocsPerRun(20, func() {
			res, err := eng.Run(q, rels, RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Algorithm != "in-line" || res.Metrics.Plan.InLine.Ranges < workers {
				t.Fatalf("%d tuples ran %s, %+v", 2*n, res.Algorithm, res.Metrics.Plan)
			}
			rows = len(res.Tuples)
		})
		return allocs, rows
	}
	smallAllocs, smallRows := measure(10_000)
	largeAllocs, largeRows := measure(100_000)
	if smallRows == 0 || largeRows < 5*smallRows {
		t.Fatalf("%d and %d rows; the guard needs them far apart", smallRows, largeRows)
	}
	t.Logf("in-line run: %.0f allocations for %d rows, %.0f for %d", smallAllocs, smallRows, largeAllocs, largeRows)
	if doublings := math.Ceil(math.Log2(float64(largeRows) / float64(smallRows))); largeAllocs > smallAllocs+workers*2*doublings {
		t.Fatalf("an in-line run allocates %.0f times for %d rows and %.0f times for %d", smallAllocs, smallRows, largeAllocs, largeRows)
	}
}

// TestInLineRunsShareLoadedRelations: two zero-option Engine.Runs at once
// over the same relations loaded from files read them where they lie, each
// splitting its first level over the engine's two workers, and return the
// oracle's rows; so they do, copying, once a tuple's Attrs are replaced.
// Concurrent runs only read a loaded relation: under -race (check.sh runs
// this ten times) a run writing into one shows as a race.
func TestInLineRunsShareLoadedRelations(t *testing.T) {
	eng := MustNewEngine(EngineOptions{Workers: 2})
	q, _ := ParseQuery("R1 overlaps R2 and R2 overlaps R3")
	rng := rand.New(rand.NewSource(52))
	rels := make([]*Relation, 3)
	for i := range rels {
		var text strings.Builder
		for range 9_000 {
			start := rng.Int63n(900_000)
			fmt.Fprintf(&text, "%d,%d\n", start, start+rng.Int63n(101))
		}
		path := filepath.Join(t.TempDir(), fmt.Sprintf("r%d.txt", i+1))
		if err := os.WriteFile(path, []byte(text.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		var err error
		if rels[i], err = LoadRelation(NewSchema(fmt.Sprintf("R%d", i+1)), path); err != nil {
			t.Fatal(err)
		}
	}
	check := func(label string) *Result {
		want, err := eng.Oracle(q, rels, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Tuples) == 0 {
			t.Fatalf("%s: the oracle has no rows; the runs check nothing", label)
		}
		var wg sync.WaitGroup
		got := make([]*Result, 2)
		errs := make([]error, 2)
		for g := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[g], errs[g] = eng.Run(q, rels, RunOptions{})
			}()
		}
		wg.Wait()
		for g, res := range got {
			if errs[g] != nil {
				t.Fatalf("%s: run %d: %v", label, g, errs[g])
			}
			if res.Algorithm != "in-line" || res.Metrics.Plan.InLine.Ranges < 2 {
				t.Fatalf("%s: run %d ran %s, %+v", label, g, res.Algorithm, res.Metrics.Plan)
			}
			if !slices.Equal(res.IDs, want.IDs) {
				t.Errorf("%s: run %d returned %d rows, the oracle %d, or other ids", label, g, len(res.Tuples), len(want.Tuples))
			}
		}
		return want
	}
	// The replaced tuple takes the interval of an R2 tuple in a row, and
	// so rows of its own.
	row := check("loaded").Tuples[0]
	moved := (row[1] + 1) % int64(rels[1].Len())
	rels[1].Tuples[moved].Attrs = slices.Clone(rels[1].Tuples[row[1]].Attrs)
	check("a tuple's Attrs replaced")
}
