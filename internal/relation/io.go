package relation

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"intervaljoin/internal/interval"
)

// This file implements the text interchange format the CLI tools share:
// one tuple per line, attributes as "start,end" separated by '|', blank
// lines and '#' comments ignored, tuple ids assigned by position. Endpoints
// may also be timestamps (RFC 3339, "2006-01-02 15:04:05" or a bare date),
// which parse to Unix milliseconds, so temporal data joins without manual
// conversion:
//
//	12,85
//	100,120|0,4
//	2024-03-01T09:00:00Z,2024-03-01T10:30:00Z
//	# a comment

// ReadText parses a relation matching the schema from r. All intervals land
// in one slab that the tuples' Attrs alias.
func ReadText(schema Schema, r io.Reader) (*Relation, error) {
	return readText(schema, r, nil)
}

// readText is ReadText appending to slab, which is empty: a caller that
// knows how many lines are coming passes the capacity for them.
func readText(schema Schema, r io.Reader, slab []interval.Interval) (*Relation, error) {
	arity := schema.Arity()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		if fast, ok := appendCanonical(slab, sc.Bytes(), arity); ok {
			slab = fast
			continue
		}
		var err error
		if slab, err = appendLine(slab, sc.Text(), schema, lineNo); err != nil {
			return nil, err
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	rel := New(schema)
	rel.Tuples = make([]Tuple, len(slab)/max(arity, 1))
	for i := range rel.Tuples {
		rel.Tuples[i] = Tuple{ID: int64(i), Attrs: slab[i*arity : (i+1)*arity : (i+1)*arity]}
	}
	return rel, nil
}

// appendCanonical parses a line in the form WriteText produces — exactly
// arity attributes "s,e" of plain decimal integers with s <= e, separated by
// '|', nothing else on the line — and appends its intervals to dst. Any other
// line (padding, comments, brackets, timestamps, a wrong attribute count, an
// integer of 19 digits or more) reports !ok and is left to appendLine, which
// decides what it means.
func appendCanonical(dst []interval.Interval, line []byte, arity int) ([]interval.Interval, bool) {
	if arity == 0 {
		return nil, false
	}
	i := 0
	for attr := 0; attr < arity; attr++ {
		var iv interval.Interval
		var ok bool
		if iv.Start, i, ok = scanInt(line, i); !ok || i == len(line) || line[i] != ',' {
			return nil, false
		}
		if iv.End, i, ok = scanInt(line, i+1); !ok || iv.End < iv.Start {
			return nil, false
		}
		if last := attr == arity-1; last != (i == len(line)) || !last && line[i] != '|' {
			return nil, false
		}
		i++
		dst = append(dst, iv)
	}
	return dst, true
}

// scanInt reads an optionally negative decimal integer of at most 18 digits
// (so it cannot overflow) at b[i:], returning it and the index after it.
func scanInt(b []byte, i int) (v int64, next int, ok bool) {
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		v = v*10 + int64(b[i]-'0')
	}
	if i == start || i-start > 18 {
		return 0, i, false
	}
	if neg {
		v = -v
	}
	return v, i, true
}

// appendLine is the general parser of one line: blank lines and comments add
// nothing, anything else must hold one attribute per schema column, each an
// integer or a timestamp pair, possibly padded or bracketed.
func appendLine(dst []interval.Interval, line string, schema Schema, lineNo int) ([]interval.Interval, error) {
	line = strings.TrimSpace(line)
	if line == "" || strings.HasPrefix(line, "#") {
		return dst, nil
	}
	fields := strings.Split(line, "|")
	if len(fields) != schema.Arity() {
		return nil, fmt.Errorf("relation %s: line %d has %d attributes, schema needs %d",
			schema.Name, lineNo, len(fields), schema.Arity())
	}
	for _, f := range fields {
		iv, err := parseAttr(f)
		if err != nil {
			return nil, fmt.Errorf("relation %s: line %d: %v", schema.Name, lineNo, err)
		}
		dst = append(dst, iv)
	}
	return dst, nil
}

// timeLayouts are the timestamp formats parseAttr accepts, most to least
// specific.
var timeLayouts = []string{
	time.RFC3339,
	"2006-01-02 15:04:05",
	"2006-01-02",
}

// parseAttr parses one attribute value: an integer interval "s,e" or a
// timestamp pair, converted to Unix milliseconds.
func parseAttr(f string) (interval.Interval, error) {
	if iv, err := interval.Parse(f); err == nil {
		return iv, nil
	}
	comma := strings.IndexByte(f, ',')
	if comma < 0 {
		return interval.Interval{}, fmt.Errorf("relation: cannot parse attribute %q", f)
	}
	start, err := parseTimePoint(strings.TrimSpace(f[:comma]))
	if err != nil {
		return interval.Interval{}, err
	}
	end, err := parseTimePoint(strings.TrimSpace(f[comma+1:]))
	if err != nil {
		return interval.Interval{}, err
	}
	return interval.Make(start, end)
}

// parseTimePoint parses a timestamp into Unix milliseconds.
func parseTimePoint(s string) (interval.Point, error) {
	for _, layout := range timeLayouts {
		if ts, err := time.Parse(layout, s); err == nil {
			return ts.UnixMilli(), nil
		}
	}
	return 0, fmt.Errorf("relation: cannot parse %q as a number or timestamp", s)
}

// WriteText writes the relation in the format ReadText parses.
func WriteText(rel *Relation, w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, t := range rel.Tuples {
		for i, iv := range t.Attrs {
			if i > 0 {
				if err := bw.WriteByte('|'); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(bw, "%d,%d", iv.Start, iv.End); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// LoadFile reads a relation from a text file. The file is read whole and its
// lines counted first, so the slab is made once at its final size — an
// over-estimate where the file holds comments or blank lines.
func LoadFile(schema Schema, path string) (*Relation, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	lines := bytes.Count(data, []byte{'\n'}) + 1
	rel, err := readText(schema, bytes.NewReader(data), make([]interval.Interval, 0, lines*schema.Arity()))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rel, nil
}

// SaveFile writes a relation to a text file.
func SaveFile(rel *Relation, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteText(rel, f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
