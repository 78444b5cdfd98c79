package mr

import (
	"cmp"
	"container/heap"
	"fmt"
	"slices"
	"strconv"

	"intervaljoin/internal/dfs"
)

// External shuffle support: when a job's intermediate data exceeds the
// configured in-memory budget, each map worker writes its buffered emissions
// as lo-sorted runs on the store (what Hadoop's map-side spill does), and the
// reduce phase streams a k-way merge of the runs so only one key's value
// list is materialised at a time. Range emissions are written once per run
// and expanded only as the merge sweep crosses their covered keys.

// emission is one buffered intermediate emission: a single key-value pair
// when hi == lo, or one shared value addressed to every reduce key in
// [lo, hi] (the map side's replication run, stored once).
type emission struct {
	lo, hi int64
	value  string
}

// span is the number of reduce keys the emission addresses — its logical
// pair count.
func (p emission) span() int64 { return p.hi - p.lo + 1 }

// isRange reports whether the emission covers more than one key.
func (p emission) isRange() bool { return p.hi > p.lo }

// physBytes approximates the bytes the emission occupies in the shuffle:
// value plus one 8-byte key, or value plus two 8-byte range endpoints.
func (p emission) physBytes() int64 {
	if p.isRange() {
		return int64(len(p.value)) + 16
	}
	return int64(len(p.value)) + 8
}

// Spill records are length-prefixed. A plain pair is one byte 'A'+len(digits),
// the key's decimal digits, then the value — the reader slices the key out by
// offset instead of scanning every record for a separator byte. A range
// emission marks itself with a lowercase prefix: 'a'+len(loDigits), the lo
// digits, then 'A'+len(hiDigits), the hi digits, then the value — the value
// is written once no matter how many keys the range covers. An int64 key has
// at most 19 digits, so both prefixes stay printable.

// appendSpillRecord encodes p onto buf in the spill record format. Keys are
// expected non-negative (spillRun enforces it); hi == lo emissions encode as
// point records, so every emission has exactly one encoding.
func appendSpillRecord(buf []byte, p emission) []byte {
	base := len(buf)
	if p.isRange() {
		buf = append(buf, 0)
		buf = strconv.AppendInt(buf, p.lo, 10)
		buf[base] = 'a' + byte(len(buf)-base-1)
		mark := len(buf)
		buf = append(buf, 0)
		buf = strconv.AppendInt(buf, p.hi, 10)
		buf[mark] = 'A' + byte(len(buf)-mark-1)
	} else {
		buf = append(buf, 0)
		buf = strconv.AppendInt(buf, p.lo, 10)
		buf[base] = 'A' + byte(len(buf)-base-1)
	}
	return append(buf, p.value...)
}

// parseSpillRecord decodes one spill record. It accepts exactly the writer's
// output: anything appendSpillRecord cannot produce — short records, bad
// prefixes, signed or zero-padded digits, negative keys, range records whose
// hi does not exceed lo — is an error, so a successful parse re-encodes to
// the identical bytes.
func parseSpillRecord(rec string) (emission, error) {
	if len(rec) < 2 {
		return emission{}, fmt.Errorf("mr: malformed spill record %q", rec)
	}
	if rec[0] >= 'a' {
		// Range record: lowercase lo prefix, then uppercase hi prefix.
		nd := int(rec[0] - 'a')
		if nd < 1 || nd+1 >= len(rec) {
			return emission{}, fmt.Errorf("mr: malformed spill record %q", rec)
		}
		lo, err := parseSpillKey(rec[1:1+nd], rec)
		if err != nil {
			return emission{}, err
		}
		rest := rec[1+nd:]
		hd := int(rest[0] - 'A')
		if hd < 1 || hd > len(rest)-1 {
			return emission{}, fmt.Errorf("mr: malformed spill record %q", rec)
		}
		hi, err := parseSpillKey(rest[1:1+hd], rec)
		if err != nil {
			return emission{}, err
		}
		if hi <= lo {
			return emission{}, fmt.Errorf("mr: spill range record %q has hi <= lo", rec)
		}
		return emission{lo: lo, hi: hi, value: rest[1+hd:]}, nil
	}
	nd := int(rec[0] - 'A')
	if nd < 1 || nd > len(rec)-1 {
		return emission{}, fmt.Errorf("mr: malformed spill record %q", rec)
	}
	key, err := parseSpillKey(rec[1:1+nd], rec)
	if err != nil {
		return emission{}, err
	}
	return emission{lo: key, hi: key, value: rec[1+nd:]}, nil
}

// parseSpillKey parses one key's decimal digits, insisting on the writer's
// canonical form: non-negative, unsigned, no leading zeros.
func parseSpillKey(digits, rec string) (int64, error) {
	v, err := strconv.ParseInt(digits, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("mr: malformed spill key in %q: %v", rec, err)
	}
	if v < 0 || strconv.FormatInt(v, 10) != digits {
		return 0, fmt.Errorf("mr: non-canonical spill key %q in %q", digits, rec)
	}
	return v, nil
}

// sortEmissions orders a run: by lo, then hi.
func sortEmissions(ems []emission) {
	slices.SortFunc(ems, func(a, b emission) int {
		if c := cmp.Compare(a.lo, b.lo); c != 0 {
			return c
		}
		return cmp.Compare(a.hi, b.hi)
	})
}

// spillRun writes emissions (sorted by lo, then hi) as one run file. Spilled
// keys must be non-negative (every algorithm in this module uses partition /
// grid-cell ids, which are).
func spillRun(store dfs.Store, name string, ems []emission) error {
	sortEmissions(ems)
	w, err := store.Create(name)
	if err != nil {
		return err
	}
	buf := make([]byte, 0, 64)
	for _, p := range ems {
		if p.lo < 0 {
			w.Close()
			return fmt.Errorf("mr: spilled key %d is negative", p.lo)
		}
		buf = appendSpillRecord(buf[:0], p)
		if err := w.Write(string(buf)); err != nil {
			w.Close()
			return err
		}
	}
	return w.Close()
}

// runCursor streams one spill run.
type runCursor struct {
	it   dfs.Iterator
	head emission
	done bool
}

func openRun(store dfs.Store, name string) (*runCursor, error) {
	it, err := store.Open(name)
	if err != nil {
		return nil, err
	}
	rc := &runCursor{it: it}
	if err := rc.advance(); err != nil {
		it.Close()
		return nil, err
	}
	return rc, nil
}

func (rc *runCursor) advance() error {
	rec, ok, err := rc.it.Next()
	if err != nil {
		return err
	}
	if !ok {
		rc.done = true
		return nil
	}
	p, err := parseSpillRecord(rec)
	if err != nil {
		return err
	}
	rc.head = p
	return nil
}

func (rc *runCursor) close() error { return rc.it.Close() }

// memCursor streams an in-memory lo-sorted emission slice as if it were a
// run.
type memCursor struct {
	ems []emission
	pos int
}

func (mc *memCursor) headEmission() (emission, bool) {
	if mc.pos >= len(mc.ems) {
		return emission{}, false
	}
	return mc.ems[mc.pos], true
}

// cursor unifies run sources for the merge heap. Each cursor yields its
// emissions in ascending lo order.
type cursor interface {
	peek() (emission, bool)
	next() error
	close() error
}

func (rc *runCursor) peek() (emission, bool) { return rc.head, !rc.done }
func (rc *runCursor) next() error            { return rc.advance() }

func (mc *memCursor) peek() (emission, bool) { return mc.headEmission() }
func (mc *memCursor) next() error            { mc.pos++; return nil }
func (mc *memCursor) close() error           { return nil }

// heapEntry caches a cursor's head emission so heap comparisons are a plain
// int64 compare instead of two interface calls per Less.
type heapEntry struct {
	c    cursor
	head emission
}

// cursorHeap is a min-heap of cursors by cached head lo.
type cursorHeap []heapEntry

func (h cursorHeap) Len() int            { return len(h) }
func (h cursorHeap) Less(i, j int) bool  { return h[i].head.lo < h[j].head.lo }
func (h cursorHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *cursorHeap) Push(x interface{}) { *h = append(*h, x.(heapEntry)) }
func (h *cursorHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// mergeRuns sweeps the k-way merge of the cursors in ascending key order,
// invoking fn once per covered key with all its values: the point pairs
// keyed there plus one value per range emission whose [lo, hi] covers the
// key. Ranges are pulled off the heap when the sweep reaches their lo, held
// in an active set while covered, and dropped past their hi — so a range's
// value string is shared across every key it addresses instead of being
// merged r times. Keys no emission covers are skipped. fn must not retain
// the values slice.
func mergeRuns(cursors []cursor, fn func(key int64, values []string) error) error {
	h := make(cursorHeap, 0, len(cursors))
	for _, c := range cursors {
		if p, ok := c.peek(); ok {
			h = append(h, heapEntry{c: c, head: p})
		}
	}
	heap.Init(&h)
	var (
		key    int64
		active []emission // emissions covering the current key
		values []string
	)
	for h.Len() > 0 || len(active) > 0 {
		// The next key is one past the previous while a range still covers
		// it; otherwise the sweep jumps to the earliest unseen lo.
		if len(active) > 0 {
			key++
		} else {
			key = h[0].head.lo
		}
		// Pull every emission starting at or before this key. Heads are
		// sorted by lo, so this drains exactly the emissions whose coverage
		// begins here.
		for h.Len() > 0 && h[0].head.lo <= key {
			active = append(active, h[0].head)
			if err := h[0].c.next(); err != nil {
				return err
			}
			if np, ok := h[0].c.peek(); ok {
				h[0].head = np
				heap.Fix(&h, 0)
			} else {
				heap.Pop(&h)
			}
		}
		// Gather this key's values; keep only emissions extending past it.
		values = values[:0]
		live := active[:0]
		for _, em := range active {
			values = append(values, em.value)
			if em.hi > key {
				live = append(live, em)
			}
		}
		active = live
		if err := fn(key, values); err != nil {
			return err
		}
	}
	return nil
}
