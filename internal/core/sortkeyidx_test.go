package core

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The key sets FuzzSortKeyIdx draws.
const (
	keysRandom  = iota // uniform over a span that grows with the seed
	keysExtreme        // the whole int64 line, MinInt64 and MaxInt64 in each: six digits
	keysEqual          // one key, repeated
	keysSorted         // already in order: nothing moves
	keysFew            // a handful of distinct keys, many times each
	keyModes
)

// genKeys draws n pairs of the given mode, their idx their position.
func genKeys(seed int64, n, mode int) []keyIdx {
	rng := rand.New(rand.NewSource(seed))
	pairs := make([]keyIdx, n)
	span := int64(1) << (uint64(seed)%62 + 1)
	for i := range pairs {
		var k int64
		switch mode {
		case keysRandom:
			k = rng.Int63n(span) - span/2
		case keysExtreme:
			k = int64(rng.Uint64())
		case keysEqual:
			k = seed
		case keysSorted:
			k = int64(i) * (seed&7 + 1)
		case keysFew:
			k = []int64{-3, 0, 7, math.MaxInt64 / 2}[rng.Intn(4)]
		}
		pairs[i] = keyIdx{key: k, idx: int32(i)}
	}
	if mode == keysExtreme && n >= 2 {
		pairs[rng.Intn(n)].key = math.MinInt64
		pairs[rng.Intn(n)].key = math.MaxInt64
	}
	return pairs
}

// checkSortKeyIdx sorts pairs with sortKeyIdx and compares the result with a
// comparison sort: the same keys in the same order, and the same pairs.
func checkSortKeyIdx(t *testing.T, pairs []keyIdx) {
	t.Helper()
	want := slices.Clone(pairs)
	slices.SortFunc(want, func(a, b keyIdx) int { return cmp.Compare(a.key, b.key) })
	keys, idx := make([]int64, len(pairs)), make([]int32, len(pairs))
	for i, pr := range pairs {
		keys[i], idx[i] = pr.key, pr.idx
	}
	sortKeyIdx(keys, idx, make([]keyIdx, len(pairs)))
	got := make([]keyIdx, len(pairs))
	for i := range got {
		got[i] = keyIdx{key: keys[i], idx: idx[i]}
	}
	for i := range got {
		if got[i].key != want[i].key {
			t.Fatalf("n %d: key %d is %d, want %d", len(pairs), i, got[i].key, want[i].key)
		}
	}
	// Equal keys keep no particular order: compare the pairs as sets.
	byBoth := func(a, b keyIdx) int { return cmp.Or(cmp.Compare(a.key, b.key), cmp.Compare(a.idx, b.idx)) }
	slices.SortFunc(got, byBoth)
	slices.SortFunc(want, byBoth)
	if !slices.Equal(got, want) {
		t.Fatalf("n %d: the sort lost or made up a pair", len(pairs))
	}
}

// FuzzSortKeyIdx checks the radix sort of seal and the semijoin against a
// comparison sort, on lengths either side of the comparison cutoff and on
// keys over the whole int64 line, all equal, already sorted and repeated.
func FuzzSortKeyIdx(f *testing.F) {
	for mode := range keyModes {
		for _, n := range []uint16{0, 1, smallKeyIdx - 1, smallKeyIdx, 3000} {
			f.Add(int64(mode)*7+int64(n), n, uint8(mode))
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16, mode uint8) {
		checkSortKeyIdx(t, genKeys(seed, int(n), int(mode)%keyModes))
	})
}
