package core

// Columnar sweep-based reduce-side join kernel.
//
// Every reducer joins its received tuples with the backtracking enumerator
// (join.go). Candidate lists are decoded once into struct-of-arrays columns
// — start column lo[], end column hi[], and payload refs into a shared
// relation.Arena — endpoint-sorted and gapless, in the style of Piatov et
// al., "Cache-Efficient Sweeping-Based Interval Joins for Extended Allen
// Relation Predicates": the enumeration loops touch only the int64 endpoint
// columns until a pair is confirmed, and the tuple payload is materialised
// lazily from the arena at emission.
//
// For a condition application p(bound, candidate) over the candidate
// level's sort attribute, the 13 Allen relations each decompose EXACTLY
// into a conjunction of closed ranges on the candidate's endpoints
// (interval.Window, derived from the relation's row of interval's table):
// sLo <= cand.Start <= sHi and eLo <= cand.End <= eHi, with missing edges
// at the int64 infinities. Exactness (for valid intervals, Start <= End —
// guaranteed by the codecs, which reject inverted intervals) means the
// specialized loops never evaluate the predicate per pair; multi-attribute
// levels keep the generic Eval path (join.go).
//
// The per-partner window starts are precomputed by one endpoint sweep
// (sweepFromsInto): the windows' lower start bounds are monotone in the
// partner endpoint they derive from, so when the partner list is sorted by
// that endpoint the window table costs a single two-cursor pass over two
// int64 sequences; out-of-order bound sequences fall back to one inline
// binary search per partner, still touching only the column.
//
// Dispatch between the loop shapes is planned statically (planner.go):
//
//   - kindSweep — the columnar loop: scan candidates from the window start
//     while Start <= sHi, filtering on the End range. When every condition
//     pins the candidate start to one point (meets / starts / started-by /
//     equals applications) the window gives sLo == sHi, so the same loop is
//     the merge over the equal-start run;
//   - kindGeneric — multi-attribute levels (General-class queries) and
//     condition-free levels: binary-search probe plus per-candidate Eval,
//     reading attributes through the arena.

import (
	"cmp"
	"math/bits"
	"slices"
)

// condWindow is one condition's window table at one binding level: for
// partner tuple t (by its index in the partner's prepared column), the
// candidate window is candidates from[t] onward whose sort-attribute Start
// is at most sHi[t] and whose End lies in [eLo[t], eHi[t]]. Bound columns
// are nil when the predicate's shape leaves that edge unbounded; from is
// patched past the end of the list for partners whose window is empty
// (Window.At's ok=false).
type condWindow struct {
	from []int32
	sHi  []int64
	eLo  []int64
	eHi  []int64
}

// keyIdx pairs a range endpoint with the partner index it belongs to.
type keyIdx struct {
	key int64
	idx int32
}

// smallKeyIdx is the length below which sortKeyIdx compares instead of
// counting: a radix pass zeroes and scans 2048 counters a digit whatever the
// length.
const smallKeyIdx = 256

// sortKeyIdx orders the pairs (keys[k], idx[k]) by key, in place in the two
// columns, with scratch — len(keys) pairs at least — as its second buffer.
// Equal keys keep no particular order. Keys already in order are not moved, a
// short list takes a comparison sort, and any other an LSD radix over
// key − min, radixBits bits a digit and as many digits as the span needs: six
// for the whole int64 line. One pass counts the first digit, then one
// scatter a digit moves the pairs from the columns to scratch or back and
// counts the next digit (radixCounts), and a copy brings them home after an
// odd number of scatters; a digit all keys share moves nothing. Since the
// columns are its input and its output, a caller fills them where they will
// stay, and the pairs take one buffer, not two.
func sortKeyIdx(keys []int64, idx []int32, scratch []keyIdx) {
	n := len(keys)
	if n < 2 {
		return
	}
	lo, hi, ordered := keys[0], keys[0], true
	for i := 1; i < n; i++ {
		k := keys[i]
		ordered = ordered && k >= keys[i-1]
		lo, hi = min(lo, k), max(hi, k)
	}
	if ordered {
		return
	}
	pairs := scratch[:n]
	if n < smallKeyIdx {
		for i, k := range keys {
			pairs[i] = keyIdx{key: k, idx: idx[i]}
		}
		slices.SortFunc(pairs, func(a, b keyIdx) int { return cmp.Compare(a.key, b.key) })
		for i, pr := range pairs {
			keys[i], idx[i] = pr.key, pr.idx
		}
		return
	}
	const mask = 1<<radixBits - 1
	// Unsigned, because the span itself may pass MaxInt64.
	digits := (bits.Len64(uint64(hi)-uint64(lo)) + radixBits - 1) / radixBits
	var counts radixCounts[int32]
	for _, k := range keys {
		counts[0][(uint64(k)-uint64(lo))&mask]++
	}
	inColumns := true
	for d := range digits {
		at, next := counts.turn(d, digits)
		// lo's digits are all 0, so a digit every key shares is 0 and its
		// bucket 0 ends where bucket 1 starts, at n: nothing moves, but the
		// next digit is counted where the pairs lie.
		shift := d * radixBits
		if at[1] == int32(n) {
			if inColumns {
				for _, k := range keys {
					next[(uint64(k)-uint64(lo))>>(shift+radixBits)&mask]++
				}
			} else {
				for _, pr := range pairs {
					next[(uint64(pr.key)-uint64(lo))>>(shift+radixBits)&mask]++
				}
			}
			continue
		}
		if inColumns {
			for i, k := range keys {
				v := uint64(k) - uint64(lo)
				b := v >> shift & mask
				pairs[at[b]] = keyIdx{key: k, idx: idx[i]}
				at[b]++
				next[v>>(shift+radixBits)&mask]++
			}
		} else {
			for _, pr := range pairs {
				v := uint64(pr.key) - uint64(lo)
				b := v >> shift & mask
				keys[at[b]], idx[at[b]] = pr.key, pr.idx
				at[b]++
				next[v>>(shift+radixBits)&mask]++
			}
		}
		inColumns = !inColumns
	}
	if !inColumns {
		for i, pr := range pairs {
			keys[i], idx[i] = pr.key, pr.idx
		}
	}
}

// sweepFroms computes, for every lower bound, the index of the first
// candidate start >= it.
func sweepFroms(los []int64, candStarts []int64) []int32 {
	froms := make([]int32, len(los))
	sweepFromsInto(froms, los, candStarts)
	return froms
}

// sweepFromsInto fills froms[t] with the index of the first candidate start
// >= los[t]. Nondecreasing bounds (the sorted-partner fast path) take a
// single two-cursor sweep; out-of-order bounds take one inline binary
// search each.
func sweepFromsInto(froms []int32, los []int64, candStarts []int64) {
	nc := int32(len(candStarts))
	if nonDecreasing(los) {
		k := int32(0)
		for t, lo := range los {
			for k < nc && candStarts[k] < lo {
				k++
			}
			froms[t] = k
		}
		return
	}
	for t, lo := range los {
		i, j := int32(0), nc
		for i < j {
			h := (i + j) >> 1
			if candStarts[h] < lo {
				i = h + 1
			} else {
				j = h
			}
		}
		froms[t] = i
	}
}

// nonDecreasing reports whether vals is already in sweep order.
func nonDecreasing(vals []int64) bool {
	for i := 1; i < len(vals); i++ {
		if vals[i] < vals[i-1] {
			return false
		}
	}
	return true
}

// sized returns s with length n, reusing the backing array when it has the
// capacity. Callers fully overwrite the returned slice: stale contents are
// not cleared.
func sized[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// kernelSemijoin reports whether any candidate at or after from in the
// start-sorted endpoint columns falls inside the exact interval.Window
// (start <= sHi, end in [eLo, eHi]). It is the survival scan of the
// semijoin marking cycle: a pure column test, no tuple loads and no
// per-candidate predicate evaluation.
func kernelSemijoin(starts, ends []int64, from int, sHi, eLo, eHi int64) bool {
	for k := from; k < len(starts) && starts[k] <= sHi; k++ {
		if e := ends[k]; e >= eLo && e <= eHi {
			return true
		}
	}
	return false
}

// kernelSweep is the specialized columnar inner loop for level i: scan the
// start column from the intersected window start while it stays within
// sHi, filter on the end column, and only then bind the payload. No tuple
// fields are read inside the scan (enforced by ijlint's colkernel rule);
// the accepted candidate is materialised from its arena ref exactly once,
// so rejected candidates never leave the endpoint columns — and when the
// rows are words it is never materialised: the last level packs the
// bindings' ids straight into the row's word (putWord).
func (c *cursor) kernelSweep(i, from int, sHi, eLo, eHi int64) {
	p := c.p
	lo, hi, refs := p.loCol[i], p.hiCol[i], p.refCol[i]
	tuples, leaf := c.packing == nil, c.packing != nil && i == p.last
	for k := from; k < len(lo) && lo[k] <= sHi; k++ {
		if e := hi[k]; e < eLo || e > eHi {
			continue
		}
		c.idx[i] = k
		c.bref[i] = refs[k]
		if leaf {
			c.putWord()
			continue
		}
		if tuples {
			c.asg[i] = p.arenas[i].Tuple(refs[k])
		}
		c.rec(i + 1)
	}
}
