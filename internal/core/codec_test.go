package core

import (
	"math"
	"math/rand"
	"runtime/debug"
	"strings"
	"testing"
	"testing/quick"

	"intervaljoin/internal/dfs"
	"intervaljoin/internal/grid"
	"intervaljoin/internal/interval"
	"intervaljoin/internal/mr"
	"intervaljoin/internal/query"
	"intervaljoin/internal/relation"
)

// encodeTagged builds a record the way the drivers do, for the tests that
// feed reducers by hand.
func encodeTagged(rel int, t relation.Tuple) string { return string(appendMember(nil, rel, t)) }

func TestTaggedRoundTrip(t *testing.T) {
	f := func(rel uint8, id int64, s, l uint16) bool {
		tu := mkTuple(id, interval.New(int64(s), int64(s)+int64(l)))
		rec := encodeTagged(int(rel), tu)
		r, body, err := splitTagged(rec)
		if err != nil || r != int(rel) || len(rec) != memberLen(1) {
			return false
		}
		got, err := decodeTuple(rec, nil)
		return err == nil && got.ID == id && got.Attrs[0] == tu.Attrs[0] && relation.BinaryID(body) == id
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestMarkedRoundTrip pins the mark record, the vertex flag: ten bytes that
// splitVertexFlag reads back as the relation, the attribute and the id the
// mark reducer wrote, whatever they are.
func TestMarkedRoundTrip(t *testing.T) {
	f := func(rel, attr uint8, id int64) bool {
		rec := string(appendVertexFlag(nil, int(rel), int(attr), id))
		r, a, got, err := splitVertexFlag(rec)
		return err == nil && len(rec) == vertexFlagLen && r == int(rel) && a == int(attr) && got == id
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestVertexFlaggedRoundTrip: a vertex flag through the mark cycle's tap
// lands in the marking under its relation and attribute, and a tuple counts
// once however many of its vertices are flagged; a flag naming a relation
// or attribute the query lacks is dropped.
func TestVertexFlaggedRoundTrip(t *testing.T) {
	f := func(id int64) bool {
		marked := marking{{nil}, {nil, nil}, {}}
		var n int64
		tap := vertexFlagTap(&n, marked)
		for _, v := range [][2]int{{1, 1}, {1, 1}, {1, 0}, {0, 0}, {0, 1}, {2, 0}, {3, 0}} {
			tap(string(appendVertexFlag(nil, v[0], v[1], id)))
		}
		// Relation 1's tuple counts once for its two vertices; (0, 1),
		// (2, 0) and (3, 0) name no vertex of the query.
		return n == 2 && marked[1][0][id] && marked[1][1][id] && marked[0][0][id]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeTaggedErrors(t *testing.T) {
	good := encodeTagged(1, mkTuple(3, interval.New(0, 1)))
	zeroArity := "\x01\x00" + good[headerLen:headerLen+8]
	for _, s := range []string{"", "\x01", good[:len(good)-1], good + "\x00", zeroArity, "text;3|0,1"} {
		if _, _, err := splitTagged(s); err == nil {
			t.Errorf("splitTagged(%q) succeeded", s)
		}
	}
	// A vertex flag is ten bytes: a member, with or without flag bytes
	// behind it, a member cut short and any other length are refused.
	flag := string(appendVertexFlag(nil, 1, 0, 3))
	for _, s := range []string{"", good[:5], good[:len(good)-1], good, good + "\x02", good + "\x00\x31", good + "\x01\x00", zeroArity + "\x01",
		good + "\x00", good + "\x00\x02", good + "\x00\x01\x00", good[1:] + "\x00\x01", flag[1:], flag + "\x00"} {
		if _, _, _, err := splitVertexFlag(s); err == nil {
			t.Errorf("splitVertexFlag(%q) succeeded", s)
		}
	}
	// A member whose header is sound can still hold a reversed interval: the
	// tuple decoders refuse it.
	reversed := encodeTagged(1, relation.Tuple{ID: 3, Attrs: []interval.Interval{{Start: 2, End: 1}}})
	if _, err := decodeTuple(reversed, nil); err == nil {
		t.Error("decodeTuple accepted start > end")
	}
	if _, err := decodePartial(good + reversed); err == nil {
		t.Error("decodePartial accepted start > end")
	}
	for _, s := range []string{"", good[:len(good)-1], good + "\x00", good + good[:7]} {
		if _, err := decodePartial(s); err == nil {
			t.Errorf("decodePartial(%q) succeeded", s)
		}
	}
}

func TestPartialRoundTrip(t *testing.T) {
	rec := encodePartial(&recordSlab{}, []int{0, 2}, []relation.Tuple{mkTuple(5, interval.New(0, 9)), mkTuple(7, interval.New(3, 4))})
	got, err := decodePartial(rec)
	if err != nil || len(got.rels) != 2 || got.rels[0] != 0 || got.tuples[1].ID != 7 {
		t.Fatalf("partial round trip: %v %v", got, err)
	}
	if iv := got.tupleOf(2).Attrs[0]; iv != interval.New(3, 4) {
		t.Fatalf("tupleOf(2) interval = %v", iv)
	}
	// Extending one member's attributes must not write into the next one's.
	if a := got.tuples[0].Attrs; cap(a) != len(a) {
		t.Fatalf("member 0's attributes have spare capacity %d into member 1's", cap(a)-len(a))
	}
	// A lone tagged tuple is a one-member partial assignment.
	if one := encodePartial(&recordSlab{}, []int{3}, got.tuples[:1]); one != encodeTagged(3, got.tuples[0]) {
		t.Fatalf("one-member partial %q is not the tagged tuple", one)
	}
}

// TestHeaderLimits: the header bytes bound what a record can name, and
// NewContext says so instead of truncating.
func TestHeaderLimits(t *testing.T) {
	engine := mr.NewEngine(mr.Config{Store: dfs.NewMem()})
	one := []interval.Interval{{Start: 0, End: 1}}

	wide := make([]string, maxArity+1)
	for i := range wide {
		wide[i] = "A" + string(rune('a'+i%26)) + string(rune('a'+i/26))
	}
	ones := make([]interval.Interval, len(wide))
	for i := range ones {
		ones[i] = one[0]
	}
	r1 := relation.New(relation.NewSchema("R1", wide...))
	r1.Append(ones...)
	r2 := relation.FromIntervals("R2", one)
	q := query.MustParse("R1.Aaa overlaps R2")
	_, err := NewContext(engine, q, []*relation.Relation{r1, r2}, Options{})
	if err == nil || !strings.Contains(err.Error(), "at most 255") {
		t.Errorf("relation of %d attributes: err = %v, want one naming the limit 255", len(wide), err)
	}
	r1 = relation.New(relation.NewSchema("R1", wide[:maxArity]...))
	r1.Append(ones[:maxArity]...)
	if _, err := NewContext(engine, q, []*relation.Relation{r1, r2}, Options{}); err != nil {
		t.Errorf("relation of %d attributes refused: %v", maxArity, err)
	}

	var conds []string
	var rels []*relation.Relation
	for i := 0; i <= maxRelations; i++ {
		name := "R" + string(rune('a'+i%26)) + string(rune('a'+i/26))
		rels = append(rels, relation.FromIntervals(name, one))
		if i > 0 {
			conds = append(conds, rels[i-1].Schema.Name+" overlaps "+name)
		}
	}
	q = query.MustParse(strings.Join(conds, " and "))
	_, err = NewContext(engine, q, rels, Options{})
	if err == nil || !strings.Contains(err.Error(), "at most 256") {
		t.Errorf("query over %d relations: err = %v, want one naming the limit 256", len(rels), err)
	}
	q = query.MustParse(strings.Join(conds[:maxRelations-1], " and "))
	if _, err := NewContext(engine, q, rels[:maxRelations], Options{}); err != nil {
		t.Errorf("query over %d relations refused: %v", maxRelations, err)
	}
}

// TestRecordPathAllocs pins what the fixed-width records are for: a base
// relation's map emits substrings of the relation's slab, so a record costs
// no allocation, and a reducer fills a grown arena with none either.
func TestRecordPathAllocs(t *testing.T) {
	engine := mr.NewEngine(mr.Config{Store: dfs.NewMem(), Workers: 1})
	q := query.MustParse("R1 overlaps R2")
	rels := []*relation.Relation{
		relation.FromIntervals("R1", []interval.Interval{{Start: 0, End: 50}, {Start: 10, End: 90}}),
		relation.FromIntervals("R2", []interval.Interval{{Start: 5, End: 20}}),
	}
	ctx, err := NewContext(engine, q, rels, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := ctx.tagged(0, 1); got != encodeTagged(0, rels[0].Tuples[1]) {
		t.Fatalf("tagged(0, 1) = %q, want the tuple's member", got)
	}
	if n := testing.AllocsPerRun(100, func() { _ = ctx.tagged(0, 1) }); n != 0 {
		t.Errorf("Context.tagged allocates %v times per record", n)
	}

	// baseMap needs an engine's emitter: measure inside a map task, the one
	// tuple mapped over and over. The emission log's page turns average out
	// to nothing.
	sp := ctx.union(nil, dimension{part: interval.NewUniform(0, 100, 4), verts: firstAttrs(allRelations(2))})
	baseMap := ctx.baseMap(sp, []interval.Op{interval.OpSplit, interval.OpSplit})
	perRecord := -1.0
	job := mr.Job{
		Name:   "allocs",
		Inputs: []mr.Input{{Tag: 0, Count: 1}},
		MapAt: func(tag, pos int, emit mr.Emitter) error {
			perRecord = testing.AllocsPerRun(1000, func() { _ = baseMap(tag, pos, emit) })
			return nil
		},
		Reduce: func(int64, []string, func(string) error) error { return nil },
	}
	if _, err := engine.Run(job); err != nil {
		t.Fatal(err)
	}
	if perRecord != 0 {
		t.Errorf("baseMap allocates %v times per record", perRecord)
	}
}

// TestProductRouteAllocs pins what the grid walk is for: routing a record
// into a product space — the cells within its bounds walked under the
// space's constraints, each run of them one range emission — allocates
// nothing, on a 3-D sequence grid with Less constraints (a projected and a
// replicated vertex) and on the 1-D residual a broadcast leaves.
func TestProductRouteAllocs(t *testing.T) {
	engine := mr.NewEngine(mr.Config{Store: dfs.NewMem(), Workers: 1})
	q := query.MustParse("R1 before R2 and R2 before R3")
	rels := make([]*relation.Relation, 3)
	for i, name := range []string{"R1", "R2", "R3"} {
		rels[i] = relation.FromIntervals(name, []interval.Interval{{Start: 10, End: 30}, {Start: 55, End: 60}})
	}
	ctx, err := NewContext(engine, q, rels, Options{})
	if err != nil {
		t.Fatal(err)
	}
	part := interval.NewUniform(0, 100, 6)
	dims := make([]dimension, 3)
	for k := range dims {
		dims[k] = dimension{part: part, verts: firstAttrs([]int{k})}
	}
	for _, tc := range []struct {
		name string
		dims []dimension
		cons []grid.Less
		rel  int
		op   interval.Op
	}{
		{"3-D project", dims, []grid.Less{{A: 0, B: 1}, {A: 1, B: 2}}, 1, interval.OpProject},
		{"3-D replicate", dims, []grid.Less{{A: 0, B: 1}, {A: 1, B: 2}}, 1, interval.OpReplicate},
		{"1-D residual", dims[:1], nil, 0, interval.OpProject},
	} {
		sp, err := ctx.product(tc.dims, tc.cons)
		if err != nil {
			t.Fatal(err)
		}
		ops, tu, value := []interval.Op{tc.op}, rels[tc.rel].Tuples[0], ctx.tagged(tc.rel, 0)
		perRecord, emitted := -1.0, 0
		job := mr.Job{
			Name:   "route-allocs",
			Inputs: []mr.Input{{Tag: 0, Count: 1}},
			MapAt: func(_, _ int, emit mr.Emitter) error {
				sp.route(emit, tc.rel, tu, ops, 0, value)
				perRecord = testing.AllocsPerRun(1000, func() { sp.route(emit, tc.rel, tu, ops, 0, value) })
				return nil
			},
			Reduce: func(int64, []string, func(string) error) error { emitted++; return nil },
		}
		if _, err := engine.Run(job); err != nil {
			t.Fatal(err)
		}
		if emitted == 0 {
			t.Fatalf("%s: the record reached no cell; the pin measures nothing", tc.name)
		}
		if perRecord != 0 {
			t.Errorf("%s: routing a record allocates %v times", tc.name, perRecord)
		}
	}
}

// FuzzRecordDecode: arbitrary bytes never panic a decoder; a record a decoder
// accepts re-encodes to the bytes it came from; and no accepted record is a
// strict prefix of another, nor one byte short of one.
func FuzzRecordDecode(f *testing.F) {
	one := mkTuple(7, interval.New(3, 9))
	two := relation.Tuple{ID: -1, Attrs: []interval.Interval{interval.New(math.MinInt64, 0), interval.New(5, math.MaxInt64)}}
	f.Add(encodeTagged(0, one))
	f.Add(encodeTagged(255, two))
	f.Add(string(appendVertexFlag(nil, 2, 1, two.ID)))
	// Flags behind a member: no cycle writes such a record, and no decoder
	// accepts it.
	f.Add(encodeTagged(2, two) + "\x01\x00")
	f.Add(encodeTagged(1, one) + "\x00\x01")
	f.Add(encodePartial(&recordSlab{}, []int{0, 4}, []relation.Tuple{one, two}))
	f.Add("\x03" + encodeTagged(0, one)[headerLen:headerLen+8])
	f.Add("")
	f.Add("0;7|3,9\n\x00")
	f.Fuzz(func(t *testing.T, s string) {
		variants := func(accepts func(string) bool) {
			for i := 0; i < len(s); i++ {
				if accepts(s[:i]) {
					t.Fatalf("strict prefix %q of accepted %q is accepted", s[:i], s)
				}
			}
			for _, b := range []byte{0, 1, 2, '\n', 0xff} {
				if ext := s + string([]byte{b}); accepts(ext) {
					t.Fatalf("one-byte extension %q of accepted %q is accepted", ext, s)
				}
			}
		}
		reencode := func(what string, rel int, member string, trailer string) {
			tu, err := decodeTuple(member, nil)
			if err != nil {
				return // a sound header over a reversed interval: refused one level down
			}
			if got := encodeTagged(rel, tu) + trailer; got != s {
				t.Fatalf("%s %q re-encodes to %q", what, s, got)
			}
		}

		if rel, body, err := splitTagged(s); err == nil {
			reencode("tagged tuple", rel, s, "")
			if body != s[headerLen:] {
				t.Fatalf("tagged body %q is not the record behind its header", body)
			}
			variants(func(v string) bool { _, _, err := splitTagged(v); return err == nil })
		}
		if rel, attr, id, err := splitVertexFlag(s); err == nil {
			if got := string(appendVertexFlag(nil, rel, attr, id)); got != s {
				t.Fatalf("vertex flag %q re-encodes to %q", s, got)
			}
			variants(func(v string) bool { _, _, _, err := splitVertexFlag(v); return err == nil })
		}
		if pa, err := decodePartial(s); err == nil {
			if got := encodePartial(&recordSlab{}, pa.rels, pa.tuples); got != s {
				t.Fatalf("partial %q re-encodes to %q", s, got)
			}
			for i := 0; i < len(s); i++ {
				// A prefix ending on a member boundary is a shorter
				// assignment; any other cut is refused.
				if got, err := decodePartial(s[:i]); err == nil && encodePartial(&recordSlab{}, got.rels, got.tuples) != s[:i] {
					t.Fatalf("prefix %q of %q decodes to something else", s[:i], s)
				}
			}
			for _, b := range []byte{0, 1, '\n', 0xff} {
				if _, err := decodePartial(s + string([]byte{b})); err == nil {
					t.Fatalf("one-byte extension of partial %q is accepted", s)
				}
			}
		}
		var n int64
		vertexFlagTap(&n, marking{{nil}, {nil, nil}, nil, {}})(s)
		prunedTap(make([]map[int64]bool, 4), map[int]int64{})(s)
	})
}

func TestOutputTupleKey(t *testing.T) {
	for _, tc := range []struct {
		o    OutputTuple
		want string
	}{
		{OutputTuple{3, -1, 99}, "3,-1,99"},
		{OutputTuple{7}, "7"},
		{OutputTuple{}, ""},
		// Longer than Key's stack buffer.
		{OutputTuple{math.MinInt64, math.MaxInt64, math.MinInt64, math.MaxInt64},
			"-9223372036854775808,9223372036854775807,-9223372036854775808,9223372036854775807"},
	} {
		if got := tc.o.Key(); got != tc.want {
			t.Errorf("Key(%v) = %q, want %q", []int64(tc.o), got, tc.want)
		}
	}
}

// rccisOpAllocBound is how many objects a batch-sparse-shaped RCCIS run may
// allocate whatever its size: what the run, its jobs, their workers and
// their reduce tasks set up — about 1 200 for the two cycles of 16 tasks —
// and nothing per tuple.
const rccisOpAllocBound = 2_000

// TestRCCISOpAllocs pins the op the shuffle was rebuilt for: three relations
// of sparse intervals on 16 partitions, through both RCCIS cycles and, on the
// same short intervals, through the planner's one-cycle reach plan. Every
// record between map and reduce is a view — of a relation's slab, of an
// emission page, of the shuffle's arena, of a mark reducer's slab — so the
// objects a run allocates are its per-job, per-task and per-key state, and
// doubling the tuples adds next to none.
func TestRCCISOpAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	q := query.MustParse("R1 overlaps R2 and R2 overlaps R3")
	engine := mr.NewEngine(mr.Config{Store: dfs.NewMem(), Workers: 2})
	for _, arm := range []struct {
		name   string
		alg    Algorithm
		cycles int
	}{
		{"rccis", RCCIS{}, 2},
		{"planner", Plan(q, false), 1},
	} {
		run := func(n int) float64 {
			rng := rand.New(rand.NewSource(7))
			rels := make([]*relation.Relation, 3)
			for i, name := range []string{"R1", "R2", "R3"} {
				rels[i] = randomRelation(rng, name, n, int64(n)*100, 100)
			}
			return testing.AllocsPerRun(3, func() {
				ctx, err := NewContext(engine, q, rels, Options{Partitions: 16})
				if err != nil {
					t.Fatal(err)
				}
				res, err := arm.alg.Run(ctx)
				if err != nil || len(res.Tuples) == 0 || res.Metrics.Cycles != arm.cycles {
					t.Fatalf("%s: %d rows in %d cycles, want %d; %v", arm.name, len(res.Tuples), res.Metrics.Cycles, arm.cycles, err)
				}
			})
		}
		small, large := run(2_000), run(4_000)
		t.Logf("%s: objects per run: %.0f for 3 x 2000 tuples, %.0f for 3 x 4000", arm.name, small, large)
		if small > rccisOpAllocBound {
			t.Errorf("%s: a run over 3 x 2000 tuples allocates %.0f objects, bound %d", arm.name, small, rccisOpAllocBound)
		}
		// What does grow with the input grows by the map task — 256 tuples,
		// a handful of objects each — or by doubling: 0.05 a tuple, where
		// every tuple used to cost a mark record of its own.
		if perTuple := (large - small) / (3 * 2_000); perTuple > 0.1 {
			t.Errorf("%s: %.3f objects per extra tuple", arm.name, perTuple)
		}
	}
}
