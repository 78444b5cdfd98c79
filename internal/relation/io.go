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
//
// A line ends at '\n', a '\r' before it is dropped, and the last line needs
// none. A file is read whole before it is parsed, so a line may be of any
// length.

// ReadText parses a relation matching the schema from r, which it reads
// whole first: a line may be of any length. All intervals land in one slab
// that the tuples' Attrs alias.
func ReadText(schema Schema, r io.Reader) (*Relation, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return parseText(schema, data)
}

// parseText is the one loop over a text file's bytes that ReadText and
// LoadFile share. '\n' ends a line and the last line needs none. A
// canonical line is parsed where it lies (appendCanonical); any other goes
// to appendLine, which trims it, a '\r' before the newline included. The
// slab is made once, sized by a count of the newlines — an over-estimate
// wherever a line holds no tuple — and kept by the relation, whose tuples
// are its consecutive stretches of arity intervals.
func parseText(schema Schema, data []byte) (*Relation, error) {
	arity := schema.Arity()
	slab := make([]interval.Interval, 0, (bytes.Count(data, []byte{'\n'})+1)*arity)
	for i, lineNo := 0, 1; i < len(data); lineNo++ {
		var ok bool
		if slab, i, ok = appendCanonical(slab, data, i, arity); ok {
			continue
		}
		end := len(data)
		if j := bytes.IndexByte(data[i:], '\n'); j >= 0 {
			end = i + j
		}
		var err error
		if slab, err = appendLine(slab, string(data[i:end]), schema, lineNo); err != nil {
			return nil, err
		}
		i = end + 1
	}
	rel := &Relation{Schema: schema}
	if arity == 0 {
		return rel, nil
	}
	rel.slab = slab
	rel.Tuples = make([]Tuple, len(slab)/arity)
	for i := range rel.Tuples {
		rel.Tuples[i] = Tuple{ID: int64(i), Attrs: slab[i*arity : (i+1)*arity : (i+1)*arity]}
	}
	return rel, nil
}

// appendCanonical parses the line at data[i:] when it is in the form
// WriteText produces — exactly arity attributes "s,e" of plain decimal
// integers with s <= e, separated by '|', and then '\n' or the end of data —
// appending its intervals to dst and returning the index of the next line.
// Any other line (padding, comments, brackets, timestamps, a '\r', a wrong
// attribute count, an integer of 19 digits or more) reports !ok with dst and
// i as they were, and is left to appendLine, which decides what it means.
func appendCanonical(dst []interval.Interval, data []byte, i, arity int) ([]interval.Interval, int, bool) {
	if arity == 0 {
		return dst, i, false
	}
	n, at := len(dst), i
	for attr := 0; ; attr++ {
		var iv interval.Interval
		var ok bool
		if iv.Start, i, ok = scanInt(data, i); !ok || i == len(data) || data[i] != ',' {
			return dst[:n], at, false
		}
		if iv.End, i, ok = scanInt(data, i+1); !ok || iv.End < iv.Start {
			return dst[:n], at, false
		}
		dst = append(dst, iv)
		switch last := attr == arity-1; {
		case last && (i == len(data) || data[i] == '\n'):
			return dst, i + 1, true
		case last || i == len(data) || data[i] != '|':
			return dst[:n], at, false
		}
		i++
	}
}

// scanInt reads an optionally negative decimal integer of at most 18 digits
// (so it cannot overflow) at b[i:], returning it and the index after it.
func scanInt(b []byte, i int) (v int64, next int, ok bool) {
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	for ; i < len(b); i++ {
		d := b[i] - '0'
		if d > 9 {
			break
		}
		v = v*10 + int64(d)
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

// LoadFile reads a relation from a text file, read whole and parsed as
// ReadText parses.
func LoadFile(schema Schema, path string) (*Relation, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rel, err := parseText(schema, data)
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
