package core

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"intervaljoin/internal/dfs"
	"intervaljoin/internal/interval"
	"intervaljoin/internal/mr"
	"intervaljoin/internal/query"
	"intervaljoin/internal/relation"
)

// TestInLineHasNoSizeCap: the rule Engine.Run goes in line by holds at any
// size — a zero-option run over 2^17 tuples joins in line, split for the
// engine's two workers, and has the planner's job's rows — and never with an
// option set or with a relation that no earlier relation constrains.
func TestInLineHasNoSizeCap(t *testing.T) {
	q := query.MustParse("R1 overlaps R2 and R2 overlaps R3")
	const n = 1 << 17
	// batch-sparse's density: a start every 100 points in each relation.
	rng := rand.New(rand.NewSource(17))
	k := n / 3
	rels := []*relation.Relation{
		randomRelation(rng, "R1", k, int64(k)*100, 100),
		randomRelation(rng, "R2", k, int64(k)*100, 100),
		randomRelation(rng, "R3", n-2*k, int64(k)*100, 100),
	}
	ctx, err := NewContext(mr.NewEngine(mr.Config{Store: dfs.NewMem(), Workers: 2}), q, rels, Options{})
	if err != nil {
		t.Fatal(err)
	}
	why := InLine(ctx)
	if why == nil || why.Tuples != n || why.Stretches != 2*stretchesPerWorker || why.Ranges != 2 {
		t.Fatalf("%d tuples, first level %d: in line %+v, want %d stretches and 2 ranges", n, k, why, 2*stretchesPerWorker)
	}
	got, err := JoinInLine(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Plan(q, false).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Tuples) == 0 {
		t.Fatal("the join has no row; the comparison checks nothing")
	}
	if err := rowsDiffer(got, want); err != nil {
		t.Errorf("in line against the job: %v", err)
	}
	if inLine(q, Options{Partitions: 16}) {
		t.Error("an option set runs in line")
	}
	for qs, want := range map[string]bool{
		"R1 overlaps R2 and R3 overlaps R4 and R4 overlaps R1": false,
		"R1 overlaps R2 and R4 overlaps R1 and R3 overlaps R4": true,
		"R1 overlaps R2 and R3 before R1":                      true,
		"R1.I overlaps R2.I and R3.A = R2.A":                   true,
		"R1 before R2 and R3 meets R4 and R2 overlaps R4":      false,
	} {
		if got := inLine(query.MustParse(qs), Options{}); got != want {
			t.Errorf("%q: in line %v, want %v", qs, got, want)
		}
	}
}

// TestInLineIDRangesMatchOracle: a split in-line join files its rows under
// ranges of the first relation's ids and orders each range into its own
// stretch of the result. On engines of one, two and four workers it returns
// the oracle's rows (rowsDiffer: the same rows, in order, none twice) on
// inputs built to stress the cut — ids in start order under Zipf starts, so
// that one range holds nearly every row; ids with gaps, so that some ranges
// hold none; a first relation of one tuple, so that there is one range;
// relations copied rather than read in place; two to five relations — and
// splits over more than one range wherever the engine has more than one
// worker.
func TestInLineIDRangesMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	// inOrder numbers n intervals in start order, as a loader numbers a file
	// sorted by time: in place, like every relation FromIntervals builds.
	inOrder := func(name string, starts func() int64, n int, maxLen int64) *relation.Relation {
		ivs := make([]interval.Interval, n)
		for i := range ivs {
			s := starts()
			ivs[i] = interval.New(s, s+rng.Int63n(maxLen+1))
		}
		slices.SortFunc(ivs, func(a, b interval.Interval) int { return cmp.Compare(a.Start, b.Start) })
		return relation.FromIntervals(name, ivs)
	}
	zipf := rand.NewZipf(rng, 1.2, 1, 99_999)
	zipfStart := func() int64 { return int64(zipf.Uint64()) }
	// copied gives the tuples of r the ids ids, in order: tuples whose ids
	// are not their positions are copied, not read in place.
	copied := func(r *relation.Relation, ids func(i int) int64) *relation.Relation {
		out := relation.New(r.Schema)
		for i, tu := range r.Tuples {
			out.Tuples = append(out.Tuples, relation.Tuple{ID: ids(i), Attrs: slices.Clone(tu.Attrs)})
		}
		return out
	}
	// Ten ids at each end of a wide span: on four workers the middle two
	// ranges are empty.
	gaps := func(i int) int64 { return int64(i%10 + i/10*90_000) }
	for _, tc := range []struct {
		name, query string
		rels        []*relation.Relation
	}{
		{"zipf ids in start order", "R1 overlaps R2", []*relation.Relation{
			inOrder("R1", zipfStart, 3000, 100),
			randomRelation(rng, "R2", 3000, 100_000, 100),
		}},
		{"zipf ids in start order, chain of three", "R1 overlaps R2 and R2 overlaps R3", []*relation.Relation{
			inOrder("R1", zipfStart, 1000, 100),
			inOrder("R2", zipfStart, 1000, 100),
			randomRelation(rng, "R3", 1000, 100_000, 100),
		}},
		{"ids with gaps", "R1 overlaps R2 and R2 overlaps R3", []*relation.Relation{
			copied(randomRelation(rng, "R1", 20, 400, 30), gaps),
			randomRelation(rng, "R2", 200, 400, 30),
			randomRelation(rng, "R3", 200, 400, 30),
		}},
		{"one first tuple", "R1 contains R2 and R2 before R3", []*relation.Relation{
			relation.FromIntervals("R1", []interval.Interval{interval.New(0, 1000)}),
			randomRelation(rng, "R2", 300, 1000, 20),
			randomRelation(rng, "R3", 50, 1000, 20),
		}},
		{"copied, four relations", "R1 overlaps R2 and R2 overlaps R3 and R1 overlaps R4", []*relation.Relation{
			copied(randomRelation(rng, "R1", 300, 3000, 40), func(i int) int64 { return int64(1000 - 3*i) }),
			copied(randomRelation(rng, "R2", 300, 3000, 40), func(i int) int64 { return int64(i) - 150 }),
			copied(randomRelation(rng, "R3", 300, 3000, 40), func(i int) int64 { return int64(7 * i) }),
			randomRelation(rng, "R4", 300, 3000, 40),
		}},
		{"five relations", "R1 overlaps R2 and R2 before R3 and R3 overlaps R4 and R1 overlaps R5", []*relation.Relation{
			inOrder("R1", func() int64 { return rng.Int63n(600) }, 40, 30),
			randomRelation(rng, "R2", 40, 600, 30),
			randomRelation(rng, "R3", 40, 600, 30),
			randomRelation(rng, "R4", 40, 600, 30),
			copied(randomRelation(rng, "R5", 40, 600, 30), gaps),
		}},
	} {
		q := query.MustParse(tc.query)
		for _, workers := range []int{1, 2, 4} {
			label := fmt.Sprintf("%s, %d workers", tc.name, workers)
			ctx, err := NewContext(mr.NewEngine(mr.Config{Store: dfs.NewMem(), Workers: workers}), q, tc.rels, Options{})
			if err != nil {
				t.Fatal(err)
			}
			s := ctx.inLineSplit()
			switch first := tc.rels[0].Len(); {
			case !ctx.packing.words:
				t.Fatalf("%s: rows do not pack", label)
			case workers == 1 && s != inLineSplit{1, 1, 1}:
				t.Errorf("%s: split %+v", label, s)
			case workers > 1 && (s.workers != workers || s.stretches != min(first, stretchesPerWorker*workers) ||
				s.ranges != min(workers, int(ctx.facts[0].Hi-ctx.facts[0].Lo+1))):
				t.Errorf("%s: split %+v", label, s)
			case workers > 1 && first > 1 && s.ranges < 2:
				t.Errorf("%s: %d first tuples in one range", label, first)
			}
			got, err := JoinInLine(ctx)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Reference{}.Run(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if len(want.Tuples) == 0 {
				t.Fatalf("%s: the join has no row; the comparison checks nothing", label)
			}
			if err := rowsDiffer(got, want); err != nil {
				t.Errorf("%s: in line against the oracle: %v", label, err)
			}
			if workers == 4 {
				t.Logf("%s: %d rows, split %+v", tc.name, len(want.Tuples), s)
			}
		}
	}
}

// TestIDCutsAreEven pins the cut of a first relation's id span into ranges:
// every id falls in exactly one range, the ranges follow one another in id
// order, and their widths differ by one id at most, so that no range is
// empty while there are ids enough — over spans small enough to count id by
// id, negative ones among them, and at the ends of the int64 line.
func TestIDCutsAreEven(t *testing.T) {
	for _, span := range [][2]int64{{0, 0}, {0, 1}, {0, 6}, {0, 7}, {-5, 4}, {3, 1002}, {-1000, 999}} {
		lo, hi := span[0], span[1]
		for ranges := 1; ranges <= 9; ranges++ {
			cuts := idCuts(lo, hi, ranges)
			if len(cuts) != ranges-1 {
				t.Fatalf("[%d, %d] in %d ranges: %d cuts", lo, hi, ranges, len(cuts))
			}
			width := make([]int64, ranges)
			last := 0
			for id := lo; id <= hi; id++ {
				k := idRange(cuts, id)
				if k < last {
					t.Fatalf("[%d, %d] in %d ranges: id %d in range %d after range %d", lo, hi, ranges, id, k, last)
				}
				width[k]++
				last = k
			}
			least, most := slices.Min(width), slices.Max(width)
			if most-least > 1 {
				t.Errorf("[%d, %d] in %d ranges (cuts %v): widths %v", lo, hi, ranges, cuts, width)
			}
		}
	}
	// A span of 2^63 ids around zero, the most that rows which pack can have,
	// cut in four: each range 2^61 wide.
	lo, hi := int64(math.MinInt64/2), int64(math.MaxInt64/2)
	cuts := idCuts(lo, hi, 4)
	for k, cut := range cuts {
		if want := lo + int64(k+1)<<61; cut != want {
			t.Errorf("cut %d of [%d, %d] is %d, want %d", k, lo, hi, cut, want)
		}
		if idRange(cuts, cut) != k+1 || idRange(cuts, cut-1) != k {
			t.Errorf("cut %d: ids %d and %d in ranges %d and %d", k, cut-1, cut, idRange(cuts, cut-1), idRange(cuts, cut))
		}
	}
}

// TestInLineFilesRowsByFirstID: a split walk files every row under the range
// of its first relation's id, and on uniform ids every range gets its share
// of the rows — so a cut left unpacked, or packed at the wrong column, shows
// here, though any cuts in order would still order the rows right.
func TestInLineFilesRowsByFirstID(t *testing.T) {
	q := query.MustParse("R1 overlaps R2 and R2 overlaps R3")
	rng := rand.New(rand.NewSource(7))
	rels := []*relation.Relation{
		randomRelation(rng, "R1", 3000, 30_000, 40),
		randomRelation(rng, "R2", 3000, 30_000, 40),
		randomRelation(rng, "R3", 3000, 30_000, 40),
	}
	for _, workers := range []int{2, 4} {
		ctx, err := NewContext(mr.NewEngine(mr.Config{Store: dfs.NewMem(), Workers: workers}), q, rels, Options{})
		if err != nil {
			t.Fatal(err)
		}
		s := ctx.inLineSplit()
		p := newEnumerator(q.Conds, allRelations(3)).reset(nil)
		for i := range rels {
			p.hold(i, ctx, i)
		}
		p.seal()
		rows := make([]mr.Rows, workers*s.ranges)
		for k := range rows {
			rows[k].Width, rows[k].Steep = 1, true
		}
		p.runSplit(rows, ctx.wordCuts(s.ranges), &ctx.packing, s)
		cuts := idCuts(ctx.facts[0].Lo, ctx.facts[0].Hi, s.ranges)
		per, total := make([]int, s.ranges), 0
		for at := range rows {
			for _, c := range rows[at].Chunks() {
				for _, word := range c {
					id := ctx.packing.lo[0] + word>>ctx.packing.shift[0]
					if k := idRange(cuts, id); k != at%s.ranges {
						t.Fatalf("%d workers: a row of first id %d, range %d, filed under range %d", workers, id, k, at%s.ranges)
					}
				}
				per[at%s.ranges] += len(c)
				total += len(c)
			}
			rows[at].Release()
		}
		if total == 0 {
			t.Fatal("the join has no row; the check checks nothing")
		}
		for k, n := range per {
			if n < total/(2*s.ranges) {
				t.Errorf("%d workers: range %d holds %d of %d rows (%v)", workers, k, n, total, per)
			}
		}
	}
}

// TestJoinInLineIDsIsJoinInLinesSlab: JoinInLineIDs returns what
// JoinInLine's Result.IDs holds, word for word — for every Allen predicate
// and a chain of three, on ids that pack and ids too far apart to, in one
// range (no engine) and over two workers' ranges — written into dst in
// place when it has room, and into a slab of its own, leaving dst as it
// was, when it has none.
func TestJoinInLineIDsIsJoinInLinesSlab(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	// wide numbers the tuples 2^40 apart: two such relations take 98 bits a
	// row, so their rows do not pack.
	wide := func(r *relation.Relation) *relation.Relation {
		out := relation.New(r.Schema)
		for i, tu := range r.Tuples {
			out.Tuples = append(out.Tuples, relation.Tuple{ID: int64(i) << 40, Attrs: slices.Clone(tu.Attrs)})
		}
		return out
	}
	queries := []string{"R1 overlaps R2 and R2 overlaps R3"}
	for p := interval.Predicate(0); p < interval.NumPredicates; p++ {
		queries = append(queries, fmt.Sprintf("R1 %s R2", p))
	}
	for _, qs := range queries {
		q := query.MustParse(qs)
		packed := make([]*relation.Relation, len(q.Relations))
		for i := range packed {
			packed[i] = randomRelation(rng, fmt.Sprintf("R%d", i+1), 300, 200, 20)
		}
		unpacked := []*relation.Relation{wide(packed[0]), wide(packed[1])}
		unpacked = append(unpacked, packed[2:]...)
		for _, tc := range []struct {
			name    string
			rels    []*relation.Relation
			workers int
		}{
			{"packed, one range", packed, 0},
			{"packed, two workers' ranges", packed, 2},
			{"not packed", unpacked, 0},
		} {
			label := qs + ", " + tc.name
			var e *mr.Engine
			if tc.workers > 0 {
				e = mr.NewEngine(mr.Config{Store: dfs.NewMem(), Workers: tc.workers})
			}
			ctx, err := NewContext(e, q, tc.rels, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if s := ctx.inLineSplit(); ctx.packing.words != (tc.name != "not packed") || (s.ranges > 1) != (tc.workers > 1) {
				t.Fatalf("%s: packed %v, split %+v", label, ctx.packing.words, s)
			}
			want, err := JoinInLine(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if len(want.IDs) == 0 {
				t.Fatalf("%s: the join has no row; the comparison checks nothing", label)
			}
			room := make([]int64, len(want.IDs)+3)
			got, err := JoinInLineIDs(ctx, room[:0])
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want.IDs) || &got[0] != &room[0] {
				t.Errorf("%s, dst with room: %d ids (in dst: %v), JoinInLine's slab %d", label, len(got), &got[0] == &room[0], len(want.IDs))
			}
			small := make([]int64, len(want.IDs)/2)
			for i := range small {
				small[i] = -7
			}
			got, err = JoinInLineIDs(ctx, small[:0])
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want.IDs) || slices.ContainsFunc(small, func(id int64) bool { return id != -7 }) {
				t.Errorf("%s, dst without room: %d ids, JoinInLine's slab %d; dst written: %v", label, len(got), len(want.IDs), slices.ContainsFunc(small, func(id int64) bool { return id != -7 }))
			}
		}
	}
}
