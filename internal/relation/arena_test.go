package relation

import (
	"math"
	"slices"
	"strings"
	"testing"

	"intervaljoin/internal/interval"
)

func TestArenaAppendAndAccessors(t *testing.T) {
	var a Arena
	t1 := Tuple{ID: 7, Attrs: []interval.Interval{{Start: 1, End: 5}, {Start: 2, End: 2}, {Start: -1, End: 0}}}
	t2 := Tuple{ID: -3, Attrs: []interval.Interval{{Start: 0, End: 0}, {Start: -9, End: 9}, {Start: 4, End: 4}}}
	r1 := a.Append(t1)
	r2 := a.Append(t2)
	if a.Len() != 2 {
		t.Fatalf("Len = %d, want 2", a.Len())
	}
	if a.ID(r1) != 7 || a.ID(r2) != -3 {
		t.Fatalf("IDs = %d, %d", a.ID(r1), a.ID(r2))
	}
	if got := a.Attr(r2, 1); got != t2.Attrs[1] {
		t.Fatalf("Attr(r2,1) = %v, want %v", got, t2.Attrs[1])
	}
	if a.Start(r1, 0) != 1 || a.End(r1, 0) != 5 {
		t.Fatalf("Start/End(r1,0) = %d,%d", a.Start(r1, 0), a.End(r1, 0))
	}
	for ref, want := range map[int32]Tuple{r1: t1, r2: t2} {
		got := a.Tuple(ref)
		if got.ID != want.ID || len(got.Attrs) != len(want.Attrs) {
			t.Fatalf("Tuple(%d) = %+v, want %+v", ref, got, want)
		}
		for i := range want.Attrs {
			if got.Attrs[i] != want.Attrs[i] {
				t.Fatalf("Tuple(%d).Attrs[%d] = %v, want %v", ref, i, got.Attrs[i], want.Attrs[i])
			}
		}
	}
}

// TestArenaHoldsOneArity: the first tuple fixes an arena's arity until
// Reset; a tuple of another arity is refused by every way in — Append
// panics, the decoders return an error — and leaves the arena as it was.
func TestArenaHoldsOneArity(t *testing.T) {
	var a Arena
	a.Append(Tuple{ID: 1, Attrs: []interval.Interval{{Start: 1, End: 2}}})
	two := Tuple{ID: 2, Attrs: []interval.Interval{{Start: 3, End: 4}, {Start: 5, End: 6}}}
	if _, err := a.AppendBinary(string(AppendBinary(nil, two))); err == nil {
		t.Error("AppendBinary took a 2-attribute tuple into an arena of arity 1")
	}
	if _, err := a.AppendDecode(EncodeTuple(two)); err == nil {
		t.Error("AppendDecode took a 2-attribute tuple into an arena of arity 1")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Append took a 2-attribute tuple into an arena of arity 1")
			}
		}()
		a.Append(two)
	}()
	if a.Len() != 1 || len(a.flat) != 1 || a.Attr(0, 0) != (interval.Interval{Start: 1, End: 2}) {
		t.Fatalf("refused tuples left the arena at %d tuples, %d intervals", a.Len(), len(a.flat))
	}
	a.Reset()
	if r := a.Append(two); a.Tuple(r).ID != 2 || !slices.Equal(a.Tuple(r).Attrs, two.Attrs) {
		t.Fatalf("after Reset the arena holds %+v", a.Tuple(r))
	}
}

func TestArenaTupleAliasIsCapped(t *testing.T) {
	// The Attrs slice handed out by Tuple must not allow appends to clobber
	// the next tuple's attributes.
	var a Arena
	r1 := a.Append(Tuple{ID: 1, Attrs: []interval.Interval{{Start: 1, End: 2}}})
	a.Append(Tuple{ID: 2, Attrs: []interval.Interval{{Start: 3, End: 4}}})
	tup := a.Tuple(r1)
	_ = append(tup.Attrs, interval.Interval{Start: 99, End: 99})
	if iv := a.Attr(1, 0); iv.Start != 3 || iv.End != 4 {
		t.Fatalf("append through alias clobbered neighbour: %v", iv)
	}
}

func TestArenaReset(t *testing.T) {
	var a Arena
	a.Append(Tuple{ID: 1, Attrs: []interval.Interval{{Start: 1, End: 2}}})
	a.Reset()
	if a.Len() != 0 {
		t.Fatalf("Len after Reset = %d", a.Len())
	}
	r := a.Append(Tuple{ID: 5, Attrs: []interval.Interval{{Start: 8, End: 9}}})
	if a.ID(r) != 5 || a.Attr(r, 0) != (interval.Interval{Start: 8, End: 9}) {
		t.Fatalf("append after Reset broken: id=%d attr=%v", a.ID(r), a.Attr(r, 0))
	}
}

func TestArenaAttrPanicsOutOfRange(t *testing.T) {
	var a Arena
	r := a.Append(Tuple{ID: 1, Attrs: []interval.Interval{{Start: 1, End: 2}}})
	defer func() {
		if recover() == nil {
			t.Fatal("Attr out of range did not panic")
		}
	}()
	a.Attr(r, 1)
}

func TestArenaAppendDecodeMatchesDecodeTuple(t *testing.T) {
	cases := []string{
		"0|1,5",
		"42|1,5|7,7|-3,9",
		"-1|0,0",
		"9223372036854775807|0,1",
		"7|[1,5]|[ 2 , 3 ]",
		"",
		"|",
		"9|5,1",
		"9|a,b",
		"1|0,1|",
		"x|0,1",
		"5",
	}
	for _, s := range cases {
		var a Arena
		ref, aerr := a.AppendDecode(s)
		tup, derr := DecodeTuple(s)
		if (aerr == nil) != (derr == nil) {
			t.Fatalf("AppendDecode(%q) err=%v but DecodeTuple err=%v", s, aerr, derr)
		}
		if derr != nil {
			if aerr.Error() != derr.Error() {
				t.Errorf("AppendDecode(%q) error %q, DecodeTuple error %q", s, aerr, derr)
			}
			if a.Len() != 0 {
				t.Errorf("AppendDecode(%q) failed but left %d tuples in arena", s, a.Len())
			}
			continue
		}
		got := a.Tuple(ref)
		if got.ID != tup.ID || len(got.Attrs) != len(tup.Attrs) {
			t.Fatalf("AppendDecode(%q) = %+v, DecodeTuple = %+v", s, got, tup)
		}
		for i := range tup.Attrs {
			if got.Attrs[i] != tup.Attrs[i] {
				t.Fatalf("AppendDecode(%q) attr %d = %v, want %v", s, i, got.Attrs[i], tup.Attrs[i])
			}
		}
	}
}

func TestArenaAppendDecodeErrorLeavesArenaIntact(t *testing.T) {
	var a Arena
	if _, err := a.AppendDecode("1|2,4"); err != nil {
		t.Fatal(err)
	}
	if _, err := a.AppendDecode("2|3,5|bad"); err == nil {
		t.Fatal("want decode error")
	}
	if a.Len() != 1 {
		t.Fatalf("Len after failed decode = %d, want 1", a.Len())
	}
	r := a.Append(Tuple{ID: 9, Attrs: []interval.Interval{{Start: 6, End: 7}}})
	if a.Attr(r, 0) != (interval.Interval{Start: 6, End: 7}) || len(a.Tuple(r).Attrs) != 1 {
		t.Fatalf("arena corrupted after failed decode: %v", a.Tuple(r))
	}
	if a.Attr(0, 0) != (interval.Interval{Start: 2, End: 4}) {
		t.Fatalf("first tuple corrupted: %v", a.Attr(0, 0))
	}
}

// FuzzArenaDecode differentially checks the arena's zero-copy decoder
// against the reference tuple codec: same accept/reject decision, same
// error text, identical decoded contents, and a clean re-encode round trip.
func FuzzArenaDecode(f *testing.F) {
	for _, seed := range []string{
		"0|1,5",
		"42|1,5|7,7|-3,9",
		"",
		"|",
		"9|5,1",
		"9|a,b",
		"-1|0,0",
		"9223372036854775807|0,1",
		"1|0,1|",
		"7|[1,5]|[ 2 , 3 ]",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		if strings.Count(input, "|") > 64 {
			return
		}
		var a Arena
		// Pre-populate so a failed decode must truncate, not just reset,
		// with a tuple of as many attributes as the input has fields.
		pre, err := a.AppendDecode("11" + strings.Repeat("|3,9", max(1, strings.Count(input, "|"))))
		if err != nil {
			t.Fatal(err)
		}
		ref, aerr := a.AppendDecode(input)
		tup, derr := DecodeTuple(input)
		if (aerr == nil) != (derr == nil) {
			t.Fatalf("AppendDecode(%q) err=%v, DecodeTuple err=%v", input, aerr, derr)
		}
		if derr != nil {
			if aerr.Error() != derr.Error() {
				t.Fatalf("error text diverged for %q: arena %q, codec %q", input, aerr, derr)
			}
			if a.Len() != 1 {
				t.Fatalf("failed decode of %q left arena at Len=%d", input, a.Len())
			}
		} else {
			got := a.Tuple(ref)
			if got.ID != tup.ID || len(got.Attrs) != len(tup.Attrs) {
				t.Fatalf("decode of %q diverged: arena %+v, codec %+v", input, got, tup)
			}
			for i := range tup.Attrs {
				if got.Attrs[i] != tup.Attrs[i] {
					t.Fatalf("attr %d of %q diverged: %v vs %v", i, input, got.Attrs[i], tup.Attrs[i])
				}
			}
			back, err := DecodeTuple(EncodeTuple(got))
			if err != nil {
				t.Fatalf("re-decode of arena tuple from %q failed: %v", input, err)
			}
			if back.ID != tup.ID {
				t.Fatalf("round trip changed id: %d vs %d", back.ID, tup.ID)
			}
		}
		if a.ID(pre) != 11 || a.Attr(pre, 0) != (interval.Interval{Start: 3, End: 9}) {
			t.Fatalf("decode of %q corrupted earlier arena contents", input)
		}
	})
}

// TestArenaAppendBinary: the fixed-width form round-trips through the arena,
// rejects what AppendBinary cannot have written, or a tuple of another
// arity, and leaves the arena as it was when it does, and — the point of
// Grow — fills a grown arena without allocating.
func TestArenaAppendBinary(t *testing.T) {
	tuples := []Tuple{
		{ID: 0, Attrs: []interval.Interval{{Start: 1, End: 5}, {Start: 2, End: 3}, {Start: 4, End: 4}}},
		{ID: -9, Attrs: []interval.Interval{{Start: math.MinInt64, End: -1}, {Start: 7, End: 7}, {Start: 0, End: math.MaxInt64}}},
		{ID: math.MaxInt64, Attrs: []interval.Interval{{Start: 10, End: 10}, {Start: 0, End: 0}, {Start: -2, End: 10}}}, // 10 is '\n'
	}
	var a Arena
	for _, tu := range tuples {
		body := string(AppendBinary(nil, tu))
		if len(body) != 8+16*len(tu.Attrs) || BinaryID(body) != tu.ID {
			t.Fatalf("AppendBinary(%+v) = %d bytes, id %d", tu, len(body), BinaryID(body))
		}
		ref, err := a.AppendBinary(body)
		if err != nil {
			t.Fatal(err)
		}
		if got := a.Tuple(ref); got.ID != tu.ID || !slices.Equal(got.Attrs, tu.Attrs) {
			t.Fatalf("arena holds %+v, want %+v", got, tu)
		}
	}
	good := string(AppendBinary(nil, tuples[1]))
	reversed := string(AppendBinary(nil, Tuple{ID: 1, Attrs: []interval.Interval{{Start: 0, End: 1}, {Start: 5, End: 4}}}))
	one := string(AppendBinary(nil, Tuple{ID: 1, Attrs: []interval.Interval{{Start: 0, End: 1}}}))
	for _, bad := range []string{"", good[:8], good[:len(good)-1], good + "\x00", good[:8+16+8], reversed, one} {
		if _, err := a.AppendBinary(bad); err == nil {
			t.Errorf("AppendBinary(%d bytes) accepted", len(bad))
		}
		if a.Len() != len(tuples) || len(a.flat) != 9 {
			t.Fatalf("rejected body left the arena at %d tuples, %d intervals", a.Len(), len(a.flat))
		}
	}

	a.Reset()
	a.Grow(100, 300)
	if n := testing.AllocsPerRun(100, func() {
		a.Reset()
		for i := 0; i < 100; i++ {
			if _, err := a.AppendBinary(good); err != nil {
				t.Fatal(err)
			}
		}
	}); n != 0 {
		t.Errorf("AppendBinary into a grown arena allocates %v times per 100 records", n)
	}
}

// FuzzArenaBinary is FuzzArenaDecode's twin for the fixed-width form: no
// input panics, the arena and the slice decoder agree, an accepted body
// re-encodes to itself, and a rejected one leaves the arena untouched.
func FuzzArenaBinary(f *testing.F) {
	f.Add(string(AppendBinary(nil, Tuple{ID: 42, Attrs: []interval.Interval{{Start: 1, End: 5}, {Start: 7, End: 7}}})))
	f.Add(string(AppendBinary(nil, Tuple{ID: -1, Attrs: []interval.Interval{{Start: 5, End: 1}}})))
	f.Add(string(AppendBinary(nil, Tuple{ID: 3})))
	f.Add("")
	f.Add("0|1,5")
	f.Add(strings.Repeat("\n", 24))
	f.Fuzz(func(t *testing.T, body string) {
		var a Arena
		// The tuple already held has as many attributes as the body, if it
		// is whole intervals.
		attrs := make([]interval.Interval, max(1, (len(body)-8)/16))
		for i := range attrs {
			attrs[i] = interval.Interval{Start: 3, End: 9}
		}
		pre := a.Append(Tuple{ID: 11, Attrs: attrs})
		ref, aerr := a.AppendBinary(body)
		id, attrs, derr := DecodeBinary(body, nil)
		if (aerr == nil) != (derr == nil) {
			t.Fatalf("AppendBinary(%q) err=%v, DecodeBinary err=%v", body, aerr, derr)
		}
		if aerr != nil {
			if a.Len() != 1 || len(a.flat) != len(a.Tuple(pre).Attrs) {
				t.Fatalf("failed decode of %q left the arena at %d tuples, %d intervals", body, a.Len(), len(a.flat))
			}
		} else {
			got := a.Tuple(ref)
			if got.ID != id || !slices.Equal(got.Attrs, attrs) || len(attrs) == 0 {
				t.Fatalf("decode of %q diverged: arena %+v, slice %d %v", body, got, id, attrs)
			}
			if enc := string(AppendBinary(nil, got)); enc != body {
				t.Fatalf("%q re-encodes to %q", body, enc)
			}
			for _, cut := range []string{body[:len(body)-1], body + "\x00"} {
				if _, _, err := DecodeBinary(cut, nil); err == nil {
					t.Fatalf("%q accepted one byte off a valid body", cut)
				}
			}
		}
		if a.ID(pre) != 11 || a.Attr(pre, 0) != (interval.Interval{Start: 3, End: 9}) {
			t.Fatalf("decode of %q corrupted earlier arena contents", body)
		}
	})
}
