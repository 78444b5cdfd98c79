package relation

import (
	"bufio"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"intervaljoin/internal/interval"
)

// FuzzDecodeTuple checks the tuple codec never panics and that every
// successfully decoded tuple re-encodes to a decodable form.
func FuzzDecodeTuple(f *testing.F) {
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
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		tup, err := DecodeTuple(input)
		if err != nil {
			return
		}
		enc := EncodeTuple(tup)
		back, err := DecodeTuple(enc)
		if err != nil {
			t.Fatalf("re-decode of %q (from %q) failed: %v", enc, input, err)
		}
		if back.ID != tup.ID || len(back.Attrs) != len(tup.Attrs) {
			t.Fatalf("round trip changed tuple: %+v vs %+v", tup, back)
		}
		for i := range tup.Attrs {
			if back.Attrs[i] != tup.Attrs[i] {
				t.Fatalf("attribute %d changed: %v vs %v", i, tup.Attrs[i], back.Attrs[i])
			}
		}
	})
}

// FuzzReadText checks the text relation reader against arbitrary files.
func FuzzReadText(f *testing.F) {
	f.Add("0,5\n12,85\n", 1)
	f.Add("1,2|3,4\n", 2)
	f.Add("# comment\n\n5,5\n", 1)
	f.Add("garbage\n", 1)
	f.Fuzz(func(t *testing.T, input string, arity int) {
		if arity < 1 || arity > 4 {
			return
		}
		attrs := make([]string, arity)
		for i := range attrs {
			attrs[i] = string(rune('A' + i))
		}
		rel, err := ReadText(NewSchema("F", attrs...), strings.NewReader(input))
		if err != nil {
			return
		}
		if err := rel.Validate(); err != nil {
			t.Fatalf("ReadText(%q) produced invalid relation: %v", input, err)
		}
	})
}

// readTextGeneral is ReadText with the canonical-line fast path taken out:
// every line goes through appendLine.
func readTextGeneral(schema Schema, input string) ([]interval.Interval, error) {
	var slab []interval.Interval
	sc := bufio.NewScanner(strings.NewReader(input))
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	for lineNo := 1; sc.Scan(); lineNo++ {
		var err error
		if slab, err = appendLine(slab, sc.Text(), schema, lineNo); err != nil {
			return nil, err
		}
	}
	return slab, sc.Err()
}

// FuzzReadTextFastMatchesGeneral is the differential check on ReadText's
// byte-level fast path: whatever the file, ReadText accepts it exactly when
// the general parser alone does, with the same error text or the same
// intervals — tuple by tuple, ids by position, all in one slab.
func FuzzReadTextFastMatchesGeneral(f *testing.F) {
	f.Add("0,5\n12,85\n", 1)
	f.Add("1,2|3,4\n-7,-3|0,0\n", 2)
	f.Add("# comment\n\n 5,5 \n[6,9]\n", 1)
	f.Add("1,2|3,4\n1,2\n", 2)
	f.Add("5,1\n", 1)
	f.Add("1,2|\n", 2)
	f.Add("-,3\n+1,3\n-0,0\n", 1)
	f.Add("999999999999999999,999999999999999999\n9223372036854775807,9223372036854775807\n9223372036854775808,9223372036854775809\n", 1)
	f.Add("2024-03-01T09:00:00Z,2024-03-01T10:30:00Z\n3,4\r\n", 1)
	f.Add("1,2\n3,4", 0)
	f.Fuzz(func(t *testing.T, input string, arity int) {
		if arity < 0 || arity > 4 {
			return
		}
		schema := Schema{Name: "F", Attrs: []string{"A", "B", "C", "D"}[:arity]}
		want, wantErr := readTextGeneral(schema, input)
		rel, err := ReadText(schema, strings.NewReader(input))
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("ReadText(%q, arity %d): err %v, the general parser's %v", input, arity, err, wantErr)
		}
		if err != nil {
			return
		}
		var got []interval.Interval
		for i, tup := range rel.Tuples {
			if tup.ID != int64(i) || len(tup.Attrs) != arity || cap(tup.Attrs) != arity {
				t.Fatalf("ReadText(%q, arity %d): tuple %d is %+v (cap %d)", input, arity, i, tup, cap(tup.Attrs))
			}
			got = append(got, tup.Attrs...)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("ReadText(%q, arity %d) = %v, the general parser gives %v", input, arity, got, want)
		}
		for i := 1; i < rel.Len(); i++ {
			prev, cur := unsafe.Pointer(&rel.Tuples[i-1].Attrs[0]), unsafe.Pointer(&rel.Tuples[i].Attrs[0])
			if uintptr(cur)-uintptr(prev) != uintptr(arity)*unsafe.Sizeof(interval.Interval{}) {
				t.Fatalf("ReadText(%q, arity %d): tuple %d does not follow tuple %d in one slab", input, arity, i, i-1)
			}
		}
	})
}

// splitLines cuts text into lines as bufio.Scanner did before ReadText read
// its input in one pass: '\n' ends a line, a '\r' before it is dropped, and
// the last line needs no newline.
func splitLines(text string) []string {
	var lines []string
	for text != "" {
		line, rest, _ := strings.Cut(text, "\n")
		lines, text = append(lines, strings.TrimSuffix(line, "\r")), rest
	}
	return lines
}

// FuzzParseTextMatchesLines checks the one loop over a file's bytes that
// ReadText and LoadFile share against a line-at-a-time reference: splitLines
// cuts the text, and every line goes through appendLine. Both give the same
// tuples — ids by position, consecutive in one slab that the relation keeps
// (a view of it by Check) — or the same error with the same line number.
func FuzzParseTextMatchesLines(f *testing.F) {
	f.Add("0,5\r\n12,85\r\n", 1)
	f.Add("0,5\n12,85", 1)
	f.Add("\n# comment\n\n5,5\n#\n", 1)
	f.Add("-7,-3|-9,0\n-0,0|1,1\n", 2)
	f.Add("999999999999999999,999999999999999999\n-999999999999999999,0\n", 1)
	f.Add("1000000000000000000,1000000000000000001\n-9223372036854775808,9223372036854775807\n", 1)
	f.Add("1,2|3,4|5,6|7,8\n0,0|0,0|0,0|0,0", 4)
	f.Add(" 1,2 | 3,4 \n\t[5,6]|7,8\r\n", 2)
	f.Add("2024-03-01T09:00:00Z,2024-03-01T10:30:00Z\n2024-03-01 09:00:00,2024-03-01 10:30:00\n2024-03-01,2024-03-02\n", 1)
	f.Add("1,2\n5,1\n", 1)
	f.Add("9999999999999999999,9999999999999999999\n", 1)
	f.Add("1,2|3,4 \n5,6|7,8\n", 2)
	f.Add("1,2\r\r\n3,4\r", 1)
	f.Fuzz(func(t *testing.T, input string, arity int) {
		if arity < 0 || arity > 4 {
			return
		}
		schema := Schema{Name: "F", Attrs: []string{"A", "B", "C", "D"}[:arity]}
		var want []interval.Interval
		var wantErr error
		for i, line := range splitLines(input) {
			if want, wantErr = appendLine(want, line, schema, i+1); wantErr != nil {
				break
			}
		}
		rel, err := parseText(schema, []byte(input))
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("parseText(%q, arity %d): err %v, line by line %v", input, arity, err, wantErr)
		}
		if err != nil {
			return
		}
		var got []interval.Interval
		for i, tup := range rel.Tuples {
			if tup.ID != int64(i) || len(tup.Attrs) != arity || cap(tup.Attrs) != arity {
				t.Fatalf("parseText(%q, arity %d): tuple %d is %+v (cap %d)", input, arity, i, tup, cap(tup.Attrs))
			}
			got = append(got, tup.Attrs...)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("parseText(%q, arity %d) = %v, line by line %v", input, arity, got, want)
		}
		facts, err := rel.Check()
		if err != nil || facts.InPlace != (arity > 0) {
			t.Fatalf("parseText(%q, arity %d): Check says in place %v (%v)", input, arity, facts.InPlace, err)
		}
		for i := range rel.Tuples {
			if v := facts.View.Tuple(int32(i)); v.ID != int64(i) || &v.Attrs[0] != &rel.Tuples[i].Attrs[0] {
				t.Fatalf("parseText(%q, arity %d): the view's tuple %d is not the relation's", input, arity, i)
			}
		}
	})
}
