package core

import (
	"math"
	"testing"
	"testing/quick"

	"intervaljoin/internal/interval"
	"intervaljoin/internal/relation"
)

func TestTaggedRoundTrip(t *testing.T) {
	f := func(rel uint8, id int64, s, l uint16) bool {
		tu := mkTuple(id, interval.New(int64(s), int64(s)+int64(l)))
		r, got, err := decodeTagged(encodeTagged(int(rel), tu))
		return err == nil && r == int(rel) && got.ID == id && got.Attrs[0] == tu.Attrs[0]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestMarkedIsOneFlagVector pins the single flag codec: the record the mark
// reducer splices together for a single-attribute vertex is exactly
// encodeVector with a one-element vector, and decodeVector reads it back.
func TestMarkedIsOneFlagVector(t *testing.T) {
	f := func(rel uint8, repl bool, id int64, s, l uint16) bool {
		tu := mkTuple(id, interval.New(int64(s), int64(s)+int64(l)))
		rec := encodeMarkedBody(int(rel), -1, repl, relation.EncodeTuple(tu))
		if rec != encodeVector(int(rel), []bool{repl}, tu) {
			return false
		}
		r, flags, got, err := decodeVector(rec)
		return err == nil && r == int(rel) && flags == string(flagByte(repl)) && got.ID == id && got.Attrs[0] == tu.Attrs[0]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVertexFlaggedRoundTrip(t *testing.T) {
	f := func(rel, attr uint8, repl bool, id int64, s, l uint16) bool {
		tu := mkTuple(id, interval.New(int64(s), int64(s)+int64(l)))
		rec := encodeMarkedBody(int(rel), int(attr), repl, relation.EncodeTuple(tu))
		r, a, gotRepl, got, err := decodeVertexFlagged(rec)
		return err == nil && r == int(rel) && a == int(attr) && gotRepl == repl && got.ID == id
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVectorRoundTrip(t *testing.T) {
	tu := relation.Tuple{ID: 42, Attrs: []interval.Interval{
		interval.New(0, 5), interval.New(7, 7),
	}}
	for _, flags := range [][]bool{{}, {true}, {false, true, false}} {
		rel, gotFlags, got, err := decodeVector(encodeVector(3, flags, tu))
		if err != nil || rel != 3 || got.ID != 42 || len(gotFlags) != len(flags) {
			t.Fatalf("vector round trip failed: %v %v %v %v", rel, gotFlags, got, err)
		}
		for i := range flags {
			if gotFlags[i] != flagByte(flags[i]) {
				t.Fatalf("flag %d mismatch", i)
			}
		}
	}
}

func TestDecodeTaggedErrors(t *testing.T) {
	for _, s := range []string{"", "noseparator", "x;1|0,1", "1;garbage"} {
		if _, _, err := decodeTagged(s); err == nil {
			t.Errorf("decodeTagged(%q) succeeded", s)
		}
	}
	for _, s := range []string{"", "1;2", "1;x;3|0,1", "y;0;3|0,1", "1;0;bad", "1;01", "1;0x1;3|0,1", "z;01;3|0,1"} {
		if _, _, _, err := decodeVector(s); err == nil {
			t.Errorf("decodeVector(%q) succeeded", s)
		}
	}
	for _, s := range []string{"", "1;2;3", "a;0;1;3|0,1", "1;b;1;3|0,1", "1;0;x;3|0,1"} {
		if _, _, _, _, err := decodeVertexFlagged(s); err == nil {
			t.Errorf("decodeVertexFlagged(%q) succeeded", s)
		}
	}
}

func TestPartialRoundTrip(t *testing.T) {
	rec := encodePartial([]int{0, 2}, []relation.Tuple{mkTuple(5, interval.New(0, 9)), mkTuple(7, interval.New(3, 4))})
	got, err := decodePartial(rec)
	if err != nil || len(got.rels) != 2 || got.rels[0] != 0 || got.tuples[1].ID != 7 {
		t.Fatalf("partial round trip: %v %v", got, err)
	}
	if iv := got.tupleOf(2).Attrs[0]; iv != interval.New(3, 4) {
		t.Fatalf("tupleOf(2) interval = %v", iv)
	}
	// A lone tagged tuple is a one-member partial assignment.
	if one := encodePartial([]int{3}, got.tuples[:1]); one != encodeTagged(3, got.tuples[0]) {
		t.Fatalf("one-member partial %q is not the tagged tuple", one)
	}
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
