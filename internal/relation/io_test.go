package relation

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"intervaljoin/internal/interval"
)

func TestReadTextSingleAttr(t *testing.T) {
	in := `
# header comment
0,5
12,85

100,100
`
	rel, err := ReadText(NewSchema("R"), strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 3 {
		t.Fatalf("tuples = %d, want 3 (comments and blanks skipped)", rel.Len())
	}
	if rel.Tuples[1].Key() != interval.New(12, 85) {
		t.Fatalf("tuple 1 = %v", rel.Tuples[1])
	}
	if rel.Tuples[2].ID != 2 {
		t.Fatalf("ids not positional: %v", rel.Tuples[2])
	}
}

func TestReadTextMultiAttr(t *testing.T) {
	rel, err := ReadText(NewSchema("R", "x", "y"), strings.NewReader("100,120|0,4\n5,6|7,8\n"))
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 2 || rel.Tuples[0].Attrs[1] != interval.New(0, 4) {
		t.Fatalf("parsed = %+v", rel.Tuples)
	}
}

func TestReadTextErrors(t *testing.T) {
	cases := []struct {
		schema Schema
		input  string
	}{
		{NewSchema("R"), "1,2|3,4"}, // too many attributes
		{NewSchema("R", "x", "y"), "1,2"},
		{NewSchema("R"), "a,b"},
		{NewSchema("R"), "5,1"}, // inverted
	}
	for _, tc := range cases {
		if _, err := ReadText(tc.schema, strings.NewReader(tc.input)); err == nil {
			t.Errorf("ReadText(%q) succeeded, want error", tc.input)
		}
	}
}

func TestReadTextTimestamps(t *testing.T) {
	in := `2024-03-01T09:00:00Z,2024-03-01T10:30:00Z
2024-03-01 09:00:00,2024-03-01 10:30:00
2024-03-01,2024-03-02
`
	rel, err := ReadText(NewSchema("T"), strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 3 {
		t.Fatalf("tuples = %d", rel.Len())
	}
	// RFC3339 and the space form at the same instant parse identically.
	if rel.Tuples[0].Key() != rel.Tuples[1].Key() {
		t.Fatalf("RFC3339 %v != space form %v", rel.Tuples[0].Key(), rel.Tuples[1].Key())
	}
	// 90 minutes in milliseconds.
	if got := rel.Tuples[0].Key().Length(); got != 90*60*1000 {
		t.Fatalf("duration = %d ms, want 5400000", got)
	}
	// A bare date spans exactly one day.
	if got := rel.Tuples[2].Key().Length(); got != 24*60*60*1000 {
		t.Fatalf("day span = %d ms", got)
	}
	// Mixed numeric and timestamp endpoints in one value are rejected.
	if _, err := ReadText(NewSchema("T"), strings.NewReader("0,2024-03-01\n")); err == nil {
		t.Fatal("mixed endpoint forms accepted")
	}
	// Inverted timestamps are rejected.
	if _, err := ReadText(NewSchema("T"), strings.NewReader("2024-03-02,2024-03-01\n")); err == nil {
		t.Fatal("inverted timestamp interval accepted")
	}
}

func TestTextRoundTripFile(t *testing.T) {
	rel := New(NewSchema("R", "x", "y"))
	rel.Append(interval.New(0, 5), interval.New(-3, 9))
	rel.Append(interval.New(42, 42), interval.New(7, 7))
	path := filepath.Join(t.TempDir(), "rel.txt")
	if err := SaveFile(rel, path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadFile(rel.Schema, path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != rel.Len() {
		t.Fatalf("round trip lost tuples: %d vs %d", back.Len(), rel.Len())
	}
	for i := range rel.Tuples {
		for j := range rel.Tuples[i].Attrs {
			if back.Tuples[i].Attrs[j] != rel.Tuples[i].Attrs[j] {
				t.Fatalf("tuple %d attr %d mismatch", i, j)
			}
		}
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile(NewSchema("R"), "/nonexistent/file.txt"); err == nil {
		t.Fatal("missing file loaded")
	}
}

// TestLoadFileMatchesReadText: LoadFile sizes its slab from a count of the
// file's newlines, an over-estimate wherever a line holds no tuple. Whatever
// the text — the fixtures of the tests above, plus the endings a line count
// could get wrong — it loads exactly as ReadText parses it, or fails where
// ReadText fails.
func TestLoadFileMatchesReadText(t *testing.T) {
	one, two := NewSchema("R"), NewSchema("R", "x", "y")
	cases := []struct {
		name   string
		schema Schema
		text   string
	}{
		{"comments and blanks", one, "\n# header comment\n0,5\n12,85\n\n100,100\n"},
		{"multi attribute", two, "100,120|0,4\n5,6|7,8\n"},
		{"timestamps", one, "2024-03-01T09:00:00Z,2024-03-01T10:30:00Z\n2024-03-01 09:00:00,2024-03-01 10:30:00\n2024-03-01,2024-03-02\n"},
		{"no final newline", one, "1,2\n3,4"},
		{"crlf", one, "1,2\r\n3,4\r\n"},
		{"padded", two, " 1,2 | 3,4 \n"},
		{"only comments", one, "# a\n# b\n"},
		{"empty", one, ""},
		{"too many attributes", one, "1,2|3,4"},
		{"too few attributes", two, "0,1|2,3\n1,2\n"},
		{"not a number", one, "a,b"},
		{"inverted", one, "5,1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "rel.txt")
			if err := os.WriteFile(path, []byte(tc.text), 0o644); err != nil {
				t.Fatal(err)
			}
			want, wantErr := ReadText(tc.schema, strings.NewReader(tc.text))
			got, err := LoadFile(tc.schema, path)
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("LoadFile error %v, ReadText error %v", err, wantErr)
			}
			if err != nil {
				if !strings.Contains(err.Error(), path) {
					t.Fatalf("error does not name the file: %v", err)
				}
				return
			}
			if got.Len() != want.Len() {
				t.Fatalf("%d tuples, ReadText parses %d", got.Len(), want.Len())
			}
			for i, w := range want.Tuples {
				if g := got.Tuples[i]; g.ID != w.ID || !slices.Equal(g.Attrs, w.Attrs) {
					t.Fatalf("tuple %d = %v, ReadText parses %v", i, g, w)
				}
			}
		})
	}
}

// TestLoadFileAllocs: the allocations of a load do not grow with the file —
// the slab is made once, not regrown as lines arrive.
func TestLoadFileAllocs(t *testing.T) {
	allocs := func(n int) float64 {
		rel := New(NewSchema("R"))
		for i := 0; i < n; i++ {
			rel.Append(interval.New(int64(i), int64(i+10)))
		}
		path := filepath.Join(t.TempDir(), "rel.txt")
		if err := SaveFile(rel, path); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			if back, err := LoadFile(rel.Schema, path); err != nil || back.Len() != n {
				t.Fatalf("load: %d tuples, %v", back.Len(), err)
			}
		})
	}
	if small, large := allocs(100), allocs(20_000); large > small {
		t.Fatalf("loading 20000 lines allocates %.0f objects, 100 lines %.0f", large, small)
	}
}
