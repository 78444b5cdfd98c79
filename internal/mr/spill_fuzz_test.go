package mr

import (
	"math"
	"testing"
)

// FuzzSpillRecordRoundTrip checks the spill codec is the identity on the
// writer's domain: any non-negative [lo, hi] emission encodes to a record
// that parses back to the same emission and re-encodes to the same bytes.
func FuzzSpillRecordRoundTrip(f *testing.F) {
	f.Add(int64(0), int64(0), "v")
	f.Add(int64(7), int64(7), "")
	f.Add(int64(3), int64(9), "shared")
	f.Add(int64(0), int64(math.MaxInt64), "widest")
	f.Add(int64(math.MaxInt64), int64(math.MaxInt64), "x")
	f.Add(int64(-5), int64(5), "negative lo is mapped into the domain")
	f.Add(int64(12), int64(85), "a|b,c")
	// Values are arbitrary bytes: core's records are fixed-width binary.
	f.Add(int64(10), int64(10), "\x00\x01\n\x00\x00\x00\x00\x00\x00\x00\xff")
	f.Add(int64(2), int64(66), "\n")
	f.Fuzz(func(t *testing.T, lo, hi int64, value string) {
		// Clamp into the writer's domain: spillRun rejects negative keys,
		// and hi < lo never reaches the codec.
		lo &= math.MaxInt64
		hi &= math.MaxInt64
		if hi < lo {
			lo, hi = hi, lo
		}
		p := emission{lo: lo, hi: hi, value: value}
		rec := string(appendSpillRecord(nil, p))
		got, err := parseSpillRecord(rec)
		if err != nil {
			t.Fatalf("parse of encoded %+v (%q) failed: %v", p, rec, err)
		}
		if got != p {
			t.Fatalf("round trip changed emission: %+v vs %+v (record %q)", p, got, rec)
		}
		if again := string(appendSpillRecord(nil, got)); again != rec {
			t.Fatalf("re-encode of %+v not stable: %q vs %q", got, again, rec)
		}
	})
}

// FuzzSpillRecordParse feeds the parser arbitrary records: it must never
// panic, never produce an emission outside the writer's domain, and accept
// only canonical encodings (whatever parses re-encodes to the same bytes).
func FuzzSpillRecordParse(f *testing.F) {
	for _, seed := range []string{
		string(appendSpillRecord(nil, emission{lo: 7, hi: 7, value: "v"})),
		string(appendSpillRecord(nil, emission{lo: 3, hi: 9, value: "shared"})),
		"B42hello", // point record, key 4, value "2hello"
		"b3B9v",    // range record, [3, 9]
		"b9B3v",    // inverted range: must be rejected
		"b3B3v",    // degenerate range: writer uses a point record instead
		"C-1x",     // signed key digits: must be rejected
		"B07x",     // zero-padded key digits: must be rejected
		"A",        // zero-length digit run
		"",
		"zzz",
		"\x00\x00",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, rec string) {
		p, err := parseSpillRecord(rec)
		if err != nil {
			return // rejecting malformed input is the correct outcome
		}
		if p.lo < 0 || p.hi < p.lo {
			t.Fatalf("parse of %q produced out-of-domain emission %+v", rec, p)
		}
		if enc := string(appendSpillRecord(nil, p)); enc != rec {
			t.Fatalf("accepted non-canonical record %q: re-encodes to %q", rec, enc)
		}
	})
}
