package core

import (
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"intervaljoin/internal/dfs"
	"intervaljoin/internal/mr"
	"intervaljoin/internal/query"
	"intervaljoin/internal/relation"
)

// The id distributions genRows draws from.
const (
	idsDense    = iota // 0..n-1, as the loaders number tuples
	idsFew             // 0..3: duplicates and long stretches
	idsSparse          // 0..2^30
	idsNegative        // around zero
	idsHuge            // all of int64: a span past 2^62
	idsExact63         // columns whose spans take exactly 63 bits between them
	idsExact64         // one bit more
	idModes
)

// genRows makes n rows of w ids, drawn as mode says, in row order.
func genRows(seed int64, w, n, mode int) []int64 {
	rng := rand.New(rand.NewSource(seed))
	data := make([]int64, n*w)
	switch mode {
	case idsExact63, idsExact64:
		// Share the bits out over the columns — at random, or all to the
		// first or to the last. Every column's ids straddle zero, and the
		// first two rows hold its smallest and its largest, so each span is
		// exactly what its bits can say.
		width := make([]int, w)
		to := []int{-1, 0, w - 1}[rng.Intn(3)]
		for b := 63 + mode - idsExact63; b > 0; b-- {
			if to < 0 {
				width[rng.Intn(w)]++
			} else {
				width[to]++
			}
		}
		for i := range data {
			span := uint64(1)<<width[i%w] - 1
			lo := -(span >> 1) - 1
			switch {
			case i < w:
				data[i] = int64(lo)
			case i < 2*w:
				data[i] = int64(lo + span)
			default:
				data[i] = int64(lo + rng.Uint64()&span)
			}
		}
		return data
	}
	for i := range data {
		switch mode {
		case idsDense:
			data[i] = rng.Int63n(int64(n))
		case idsFew:
			data[i] = rng.Int63n(4)
		case idsSparse:
			data[i] = rng.Int63n(1 << 30)
		case idsNegative:
			data[i] = rng.Int63n(2001) - 1000
		default:
			data[i] = int64(rng.Uint64())
		}
	}
	return data
}

// relsOf is the relations rows of w ids come from: relation k holds every id
// column k has, and no other, so its id range is the column's. An id column
// of 0..n-1 stands for the whole relation, as a loader numbers it. No row, no
// tuple: the relations of an empty result are empty. The tuples are ids
// alone, in relations of no attribute.
func relsOf(w int, data []int64, dense bool) []*relation.Relation {
	rels := make([]*relation.Relation, w)
	for k := range rels {
		rels[k] = relation.New(relation.Schema{Name: string(rune('A' + k))})
		seen := make(map[int64]bool)
		for at := k; at < len(data); at += w {
			if id := data[at]; !seen[id] {
				seen[id] = true
				rels[k].Tuples = append(rels[k].Tuples, relation.Tuple{ID: id})
			}
		}
		if dense && len(data) > 0 {
			rels[k].Tuples = rels[k].Tuples[:0]
			for id := range int64(len(data) / w) {
				rels[k].Tuples = append(rels[k].Tuples, relation.Tuple{ID: id})
			}
		}
	}
	return rels
}

// packingOf is the packing NewContext reads off rels.
func packingOf(rels []*relation.Relation) rowPacking {
	lo, hi := make([]int64, len(rels)), make([]int64, len(rels))
	for k, r := range rels {
		f, err := r.Check()
		if err != nil {
			panic(err)
		}
		lo[k], hi[k] = f.Lo, f.Hi
	}
	return newRowPacking(lo, hi)
}

// collect adds data, rows of w ids back to back, to rows the way a join's
// last stage does under p (rowPacking.put).
func collect(p *rowPacking, w int, data []int64) *mr.Rows {
	rows := p.rows()
	rels, asg := make([]int, w), make([]relation.Tuple, w)
	for k := range rels {
		rels[k] = k
	}
	for at := 0; at < len(data); at += w {
		for k, id := range data[at : at+w] {
			asg[k].ID = id
		}
		p.put(rows, rels, asg)
	}
	return rows
}

// fileRows adds data, rows of w ids back to back, to walkers×ranges Rows
// the way a split in-line join's walkers file them: each row packed into its
// word under p, walker i%walkers taking row i, into the rows of its first id's
// range under cuts (idRange); rows[g*ranges+k] holds walker g's of range k.
func fileRows(p *rowPacking, w int, data []int64, cuts []int64, walkers int) []mr.Rows {
	ranges := len(cuts) + 1
	rows := make([]mr.Rows, walkers*ranges)
	for k := range rows {
		rows[k].Width = 1
	}
	rels := make([]int, w)
	for k := range rels {
		rels[k] = k
	}
	asg := make([]relation.Tuple, w)
	for i := 0; i < len(data)/w; i++ {
		row := data[i*w : (i+1)*w]
		for k, id := range row {
			asg[k].ID = id
		}
		p.put(&rows[i%walkers*ranges+idRange(cuts, row[0])], rels, asg)
	}
	return rows
}

// checkSetRows reads the packing off the relations the rows of data come
// from, collects the rows by it, orders them and compares the result with a
// comparison sort of the same rows. Rows that pack are filed as a split
// in-line join's walkers file them, over the given number of ranges of the
// first relation's id span and three walkers (fileRows), and ordered
// range by range (setRanges, on two workers); one range of one walker is
// setRows' case, and rows that do not pack take setRows. It returns whether
// the rows packed.
func checkSetRows(t *testing.T, w int, data []int64, dense bool, ranges int) bool {
	t.Helper()
	rels := relsOf(w, data, dense)
	p := packingOf(rels)
	first, err := rels[0].Check()
	if err != nil {
		t.Fatal(err)
	}
	var want [][]int64
	for at := 0; at < len(data); at += w {
		want = append(want, data[at:at+w])
	}
	slices.SortFunc(want, func(a, b []int64) int { return slices.Compare(a, b) })

	var res Result
	var rows []mr.Rows
	switch {
	case !p.words:
		rows = []mr.Rows{*collect(&p, w, data)}
		res.setRows(&rows[0], &p, nil, true)
	case ranges == 1:
		rows = fileRows(&p, w, data, nil, 1)
		res.setRanges(&p, rows, 1, 2, nil, true)
	default:
		rows = fileRows(&p, w, data, idCuts(first.Lo, first.Hi, ranges), 3)
		res.setRanges(&p, rows, ranges, 2, nil, true)
	}
	checkResultForm(t, "setRows", &res, w)
	if len(res.Tuples) != len(want) {
		t.Fatalf("%d rows in, %d out", len(want), len(res.Tuples))
	}
	for i, row := range want {
		if !slices.Equal(res.Tuples[i], row) {
			t.Fatalf("row %d of %d = %v, the comparison sort has %v (width %d, packed %v, %d ranges)", i, len(want), res.Tuples[i], row, w, p.words, ranges)
		}
	}
	for k := range rows {
		if rows[k].Len() != 0 {
			t.Fatalf("%d rows left behind in rows %d: the chunks were not handed back", rows[k].Len(), k)
		}
	}
	return p.words
}

// TestSetRowsMatchesComparisonSort: whatever the width, the row count, the
// chunking, the ids and the id ranges packed rows are filed under, setRows
// and setRanges return the rows a comparison sort does, in the form every
// result has; and the ordering they pick depends on nothing but whether the
// relations' id ranges fit 63 bits between them.
func TestSetRowsMatchesComparisonSort(t *testing.T) {
	// 0, 1, a first chunk, several chunks, and enough for pooled ones.
	counts := []int{0, 1, 2, 31, 33, 700, 20_000}
	for w := 1; w <= 6; w++ {
		for _, n := range counts {
			for mode := 0; mode < idModes; mode++ {
				dense := mode == idsDense
				packed := checkSetRows(t, w, genRows(int64(w*1000+n+mode), w, n, mode), dense, 1+(n+mode)%8)
				// What each mode's ids can span at most, in bits per column.
				atMost := map[int]int{idsDense: bits.Len(uint(n)), idsFew: 2, idsNegative: 11}
				var want bool
				switch b, known := atMost[mode]; {
				case w == 1:
					want = false // no room behind the rows
				case n < 2 || mode == idsExact63 || known && w*b <= 63:
					want = true
				case mode == idsExact64 || mode == idsHuge && n >= 700:
					want = false
				default:
					continue // a handful of random ids, or ids near the limit: either
				}
				if packed != want {
					t.Errorf("width %d, %d rows, mode %d: packed = %v, want %v", w, n, mode, packed, want)
				}
			}
		}
	}
}

// TestPackingOfRelations pins how a packing is read off the relations: a
// column spans its relation's ids, negative ones included, an empty
// relation takes no bit, the first column sits highest, and 63 bits between
// the columns pack where 64 do not.
func TestPackingOfRelations(t *testing.T) {
	rel := func(ids ...int64) *relation.Relation {
		r := relation.New(relation.Schema{Name: "R"})
		for _, id := range ids {
			r.Tuples = append(r.Tuples, relation.Tuple{ID: id})
		}
		return r
	}
	for _, tc := range []struct {
		name  string
		rels  []*relation.Relation
		lo    []int64
		bits  []uint8
		shift []uint8
		words bool
	}{
		{"dense", []*relation.Relation{rel(0, 1, 2), rel(3, 0, 7)}, []int64{0, 0}, []uint8{2, 3}, []uint8{3, 0}, true},
		{"negative", []*relation.Relation{rel(-5, 2), rel(-1)}, []int64{-5, -1}, []uint8{3, 0}, []uint8{0, 0}, true},
		{"empty", []*relation.Relation{rel(), rel(4, 9), rel()}, []int64{0, 4, 0}, []uint8{0, 3, 0}, []uint8{3, 0, 0}, true},
		{"one column", []*relation.Relation{rel(0, 1)}, []int64{0}, []uint8{1}, []uint8{0}, false},
		{"exact 63", []*relation.Relation{rel(math.MinInt64/4, math.MaxInt64/4), rel(0, 1)}, []int64{math.MinInt64 / 4, 0}, []uint8{62, 1}, []uint8{1, 0}, true},
		{"exact 64", []*relation.Relation{rel(math.MinInt64/4, math.MaxInt64/4), rel(0, 3)}, []int64{math.MinInt64 / 4, 0}, []uint8{62, 2}, nil, false},
		{"past int64", []*relation.Relation{rel(math.MinInt64, math.MaxInt64), rel(0)}, []int64{math.MinInt64, 0}, []uint8{64, 0}, nil, false},
	} {
		p := packingOf(tc.rels)
		if !slices.Equal(p.lo, tc.lo) || !slices.Equal(p.bits, tc.bits) || p.words != tc.words || tc.words && !slices.Equal(p.shift, tc.shift) {
			t.Errorf("%s: packing lo %v bits %v shift %v words %v, want %v %v %v %v",
				tc.name, p.lo, p.bits, p.shift, p.words, tc.lo, tc.bits, tc.shift, tc.words)
		}
	}
}

// FuzzSetRows drives the same generator and check from fuzzed parameters,
// packed rows filed under 1 to 8 ranges of the first relation's id span: with
// few ids, or sparse ones, some ranges hold no row.
func FuzzSetRows(f *testing.F) {
	for mode := 0; mode < idModes; mode++ {
		f.Add(int64(mode), uint8(2), uint16(300), uint8(mode), uint8(0))
		f.Add(int64(mode), uint8(3), uint16(2), uint8(mode), uint8(mode))
	}
	f.Add(int64(1), uint8(1), uint16(100), uint8(idsDense), uint8(1))
	f.Add(int64(2), uint8(6), uint16(0), uint8(idsHuge), uint8(3))
	f.Add(int64(3), uint8(4), uint16(1), uint8(idsExact64), uint8(7))
	f.Add(int64(4), uint8(2), uint16(9000), uint8(idsFew), uint8(7))
	f.Add(int64(5), uint8(2), uint16(40_000), uint8(idsDense), uint8(1))
	f.Add(int64(6), uint8(3), uint16(20_000), uint8(idsSparse), uint8(5))
	f.Add(int64(7), uint8(2), uint16(500), uint8(idsExact63), uint8(7))
	f.Fuzz(func(t *testing.T, seed int64, width uint8, n uint16, mode uint8, ranges uint8) {
		w := int(width)%6 + 1
		m := int(mode) % idModes
		checkSetRows(t, w, genRows(seed, w, int(n), m), m == idsDense, int(ranges)%8+1)
	})
}

// TestSetRowsAllocs pins the in-place layout: ordering a result allocates
// the two things the result is — the id slab and the tuple headers — and
// not a byte of sorting room, on the word path and on the comparison path
// alike.
func TestSetRowsAllocs(t *testing.T) {
	const n = 50_000
	// A collection empties sync.Pool's per-P tables, which the next Put
	// allocates again: not this function's doing.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, tc := range []struct {
		name string
		w    int
		wide bool
	}{{"packed x2", 2, false}, {"packed x3", 3, false}, {"compared x2", 2, true}} {
		t.Run(tc.name, func(t *testing.T) {
			mode := idsDense
			if tc.wide {
				mode = idsHuge
			}
			data := genRows(5, tc.w, n, mode)
			p := packingOf(relsOf(tc.w, data, !tc.wide))
			if p.words == tc.wide {
				t.Fatalf("packed = %v", !tc.wide)
			}
			// setRows consumes its rows, so every call is given its own,
			// collected the way a reducer does and outside the count. The
			// count is the least of five calls: handing the chunks back now
			// and then grows the pool's own lists — more often under the race
			// detector, whose pool drops chunks at random — which is not
			// setRows' doing and does not happen on every call, as an
			// allocation of its own would.
			var res Result
			objects, bytes := uint64(math.MaxUint64), uint64(math.MaxUint64)
			for range 5 {
				rows := collect(&p, tc.w, data)
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				res.setRows(rows, &p, nil, true)
				runtime.ReadMemStats(&after)
				objects = min(objects, after.Mallocs-before.Mallocs)
				bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
			}
			if objects > 2 {
				t.Errorf("setRows allocates %d times, want 2 (IDs, Tuples)", objects)
			}
			// In bytes: 8 per id and 24 per header, each of the two rounded
			// up to whole 8 KiB pages by the allocator, and 1 KiB.
			if limit := uint64(8*tc.w*n + 24*n + 2*8192 + 1024); bytes > limit {
				t.Errorf("setRows allocated %d bytes, want at most %d", bytes, limit)
			}
		})
	}
}

// TestResultOutlivesItsChunks: the chunks a result's rows were collected in
// go back to a pool that every engine draws from, so the result must not
// share memory with them. A second, larger join on another engine, whose
// reducers fill the recycled chunks, leaves the first result as it was.
func TestResultOutlivesItsChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	q := query.MustParse("R1 overlaps R2")
	run := func(n int) *Result {
		rels := []*relation.Relation{
			randomRelation(rng, "R1", n, 1000, 600),
			randomRelation(rng, "R2", n, 1000, 600),
		}
		engine := mr.NewEngine(mr.Config{Store: dfs.NewMem(), Workers: 2})
		ctx, err := NewContext(engine, q, rels, Options{Partitions: 2})
		if err != nil {
			t.Fatal(err)
		}
		res, err := TwoWay{}.Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Reference{}.Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(res.IDs, want.IDs) {
			t.Fatalf("join of 2 x %d differs from the oracle", n)
		}
		return res
	}
	first := run(400)
	// A reducer reaches the pooled chunk size after 8160 rows.
	if len(first.Tuples) < 20_000 {
		t.Fatalf("first join returned %d rows: too few to fill a pooled chunk", len(first.Tuples))
	}
	kept := slices.Clone(first.IDs)
	if second := run(600); len(second.Tuples) <= len(first.Tuples) {
		t.Fatalf("second join returned %d rows, the first %d", len(second.Tuples), len(first.Tuples))
	}
	if !slices.Equal(first.IDs, kept) {
		t.Fatal("a later run changed an earlier result: Result.IDs shares memory with recycled chunks")
	}
	checkResultForm(t, "first", first, 2)
}
