package cache

import (
	"bytes"
	"cmp"
	"fmt"
	"strconv"
)

// check reports the first invariant of a segment's layout that does not
// hold, nil when all do: the groups lie in (anchor start, anchor id) order,
// every group's anchor intersects Win, reach covers every anchor's length,
// each group holds at least one row, its rows' text in wire starts with
// the anchor id its first row opens with and counts the rows its directory
// entry says, and the sentinel closes the directory at the segment's row
// count and len(wire).
func (s *Segment) check() error {
	if s.Win.Hi < s.Win.Lo {
		return fmt.Errorf("segment window [%d,%d] is empty", s.Win.Lo, s.Win.Hi)
	}
	if len(s.groups) == 0 {
		return fmt.Errorf("segment [%d,%d] has no sentinel", s.Win.Lo, s.Win.Hi)
	}
	at := fmt.Sprintf("segment [%d,%d]", s.Win.Lo, s.Win.Hi)
	if first := s.groups[0]; first.row != 0 || first.wire != 0 {
		return fmt.Errorf("%s: the directory opens at row %d, byte %d", at, first.row, first.wire)
	}
	last := len(s.groups) - 1
	var prevID int64
	for g, gr := range s.groups[:last] {
		next := s.groups[g+1]
		if next.row <= gr.row || next.wire <= gr.wire || next.wire > len(s.wire) {
			return fmt.Errorf("%s: group %d spans rows [%d,%d) and bytes [%d,%d) of %d", at, g, gr.row, next.row, gr.wire, next.wire, len(s.wire))
		}
		text := s.wire[gr.wire:next.wire]
		// The anchor id is the first id of the group's first row.
		end := max(bytes.IndexAny(text, ",]"), 1)
		id, err := strconv.ParseInt(string(text[1:end]), 10, 64)
		if text[0] != '[' || err != nil {
			return fmt.Errorf("%s: group %d's text %q opens with no anchor id", at, g, text)
		}
		if g > 0 {
			prev := s.groups[g-1]
			if cmp.Or(cmp.Compare(prev.anchor.Start, gr.anchor.Start), cmp.Compare(prevID, id)) >= 0 {
				return fmt.Errorf("%s: group %d (anchor %d at %v) does not follow group %d (anchor %d at %v) in (start, id) order",
					at, g, id, gr.anchor, g-1, prevID, prev.anchor)
			}
		}
		prevID = id
		if gr.anchor.Start > s.Win.Hi || gr.anchor.End < s.Win.Lo {
			return fmt.Errorf("%s: group %d's anchor %v misses the window", at, g, gr.anchor)
		}
		if n := uint64(gr.anchor.End) - uint64(gr.anchor.Start); n > s.reach {
			return fmt.Errorf("%s: group %d's anchor %v is %d long, past the reach %d", at, g, gr.anchor, n, s.reach)
		}
		if rows := bytes.Count(text, []byte("],")); rows != next.row-gr.row || !bytes.HasSuffix(text, []byte("],")) {
			return fmt.Errorf("%s: group %d's text %q holds %d rows, its directory %d", at, g, text, rows, next.row-gr.row)
		}
		head := strconv.AppendInt([]byte("["), id, 10)
		for _, row := range bytes.Split(text[:len(text)-2], []byte("],")) {
			if !bytes.HasPrefix(row, head) || len(row) > len(head) && row[len(head)] != ',' {
				return fmt.Errorf("%s: group %d of anchor %d holds the row %q", at, g, id, row)
			}
		}
	}
	if end, rows := s.groups[last], bytes.Count(s.wire, []byte("],")); end.row != rows || end.wire != len(s.wire) {
		return fmt.Errorf("%s: the sentinel closes at row %d, byte %d; the text is %d rows, %d bytes", at, end.row, end.wire, rows, len(s.wire))
	}
	return nil
}

// check reports the first resident segment whose layout does not hold
// (Segment.check), or the first key whose segments are not in window
// order and window-disjoint, or filed under another key; nil when none.
func (c *Cache) check() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, segs := range c.segs {
		for i, s := range segs {
			if s.Key != k {
				return fmt.Errorf("segment [%d,%d] of key %v is filed under %v", s.Win.Lo, s.Win.Hi, s.Key, k)
			}
			if err := s.check(); err != nil {
				return err
			}
			if i > 0 && segs[i-1].Win.Hi >= s.Win.Lo {
				return fmt.Errorf("segments [%d,%d] and [%d,%d] of one key are out of order or overlap",
					segs[i-1].Win.Lo, segs[i-1].Win.Hi, s.Win.Lo, s.Win.Hi)
			}
		}
	}
	return nil
}
