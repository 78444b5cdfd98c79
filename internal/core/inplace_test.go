package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"intervaljoin/internal/interval"
	"intervaljoin/internal/query"
	"intervaljoin/internal/relation"
)

// loadedRelation is n random intervals written as text and read back, as a
// file is loaded: one slab that the tuples alias.
func loadedRelation(t testing.TB, rng *rand.Rand, name string, n int, domain, maxLen int64) *relation.Relation {
	t.Helper()
	var text strings.Builder
	for range n {
		s := rng.Int63n(domain)
		fmt.Fprintf(&text, "%d,%d\n", s, s+rng.Int63n(maxLen+1))
	}
	r, err := relation.ReadText(relation.NewSchema(name), strings.NewReader(text.String()))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestHeldRelationsReadInPlaceOrCopied: a join that holds a relation whole —
// every relation of the in-line join a zero-option run takes, the small
// relation a broadcast plan's reducers share — reads a loaded relation where
// it lies exactly when NewContext finds its tuples as the loader laid them,
// and copies it otherwise. Either way its rows are the oracle's, which reads
// the tuples themselves: after each change a caller can make to a loaded
// relation, applied to R1 and to the broadcast R3, both joins match
// Reference.
func TestHeldRelationsReadInPlaceOrCopied(t *testing.T) {
	q := query.MustParse("R1 overlaps R2 and R2 before R3")
	for _, tc := range []struct {
		name    string
		edit    func(r *relation.Relation)
		inPlace bool
	}{
		{"unaltered", func(*relation.Relation) {}, true},
		{"edited through the alias", func(r *relation.Relation) {
			r.Tuples[1].Attrs[0] = interval.New(-50, 150)
			r.Tuples[2].Attrs[0] = interval.New(0, 0)
		}, true},
		{"attrs replaced", func(r *relation.Relation) {
			r.Tuples[1].Attrs = []interval.Interval{interval.New(-50, 150)}
			r.Tuples[2].Attrs = []interval.Interval{interval.New(0, 0)}
		}, false},
		{"appended", func(r *relation.Relation) { r.Append(interval.New(-50, 150)) }, false},
		{"reordered", func(r *relation.Relation) {
			slices.Reverse(r.Tuples)
			r.Tuples[0].Attrs[0] = interval.New(-50, 150)
		}, false},
		{"id changed", func(r *relation.Relation) { r.Tuples[1].ID = 1000 }, false},
		{"first tuple resliced away", func(r *relation.Relation) { r.Tuples = r.Tuples[1:] }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(52))
			rels := []*relation.Relation{
				loadedRelation(t, rng, "R1", 80, 100, 10),
				loadedRelation(t, rng, "R2", 80, 100, 10),
				loadedRelation(t, rng, "R3", 4, 100, 10),
			}
			tc.edit(rels[0])
			tc.edit(rels[2])
			ctx, err := NewContext(nil, q, rels, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for i, f := range ctx.facts {
				if want := tc.inPlace || i == 1; f.InPlace != want {
					t.Fatalf("%s in place %v, want %v", rels[i].Schema.Name, f.InPlace, want)
				}
			}
			want, err := Reference{}.Run(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if len(want.Tuples) == 0 {
				t.Fatal("the oracle has no rows; the case checks nothing")
			}
			got, err := JoinInLine(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if err := rowsDiffer(got, want); err != nil {
				t.Errorf("in line: %v", err)
			}
			opts := broadcastModes[0].opts
			res, _ := runSingle(t, Plan(q, false), q, rels, opts)
			if p := res.Metrics.Plan; p == nil || len(p.Broadcast) != 1 || p.Broadcast[0].Relation != "R3" {
				t.Fatalf("the plan broadcasts nothing, or not R3 alone: %+v", p)
			}
			if err := rowsDiffer(res, want); err != nil {
				t.Errorf("broadcast plan: %v", err)
			}
		})
	}
}

// TestInLineCopiesNoLoadedTuple: the in-line join reads loaded relations
// where they lie. Going from 2^13 to 2^16 tuples a relation, what JoinInLine
// allocates over loaded relations grows by at least 20 bytes a tuple less
// than over the same tuples built by hand, which it copies at 24 (an id and
// an interval) — so a copy of each loaded tuple, however lean, fails here.
// The relations overlap nowhere, so that rows allocate nothing.
func TestInLineCopiesNoLoadedTuple(t *testing.T) {
	q := query.MustParse("R1 overlaps R2 and R2 overlaps R3")
	measure := func(n int, copied bool) float64 {
		rels := make([]*relation.Relation, 3)
		for i := range rels {
			ivs := make([]interval.Interval, n)
			for k := range ivs {
				s := int64(3*k+i) * 10
				ivs[k] = interval.New(s, s+5)
			}
			rels[i] = relation.FromIntervals(fmt.Sprintf("R%d", i+1), ivs)
			if copied {
				rels[i].Tuples = slices.Clone(rels[i].Tuples)
				for k := range rels[i].Tuples {
					rels[i].Tuples[k].Attrs = slices.Clone(rels[i].Tuples[k].Attrs)
				}
			}
		}
		ctx, err := NewContext(nil, q, rels, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if ctx.facts[0].InPlace == copied {
			t.Fatalf("%d tuples, copied %v: in place %v", n, copied, ctx.facts[0].InPlace)
		}
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			res, err := JoinInLine(ctx)
			if err != nil || len(res.Tuples) != 0 {
				t.Fatalf("%d rows (%v); the relations overlap nowhere", len(res.Tuples), err)
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	const small, large = 1 << 13, 1 << 16
	growth := func(copied bool) float64 {
		return (measure(large, copied) - measure(small, copied)) / (3 * (large - small))
	}
	loaded, built := growth(false), growth(true)
	t.Logf("bytes a tuple: %.1f over loaded relations, %.1f over relations built by hand", loaded, built)
	if loaded > built-20 {
		t.Fatalf("over loaded relations JoinInLine allocates %.1f bytes a tuple, over built ones %.1f: it copies the loaded tuples", loaded, built)
	}
}
