package core

import (
	"encoding/binary"
	"fmt"
	"strings"
	"sync"

	"intervaljoin/internal/interval"
	"intervaljoin/internal/relation"
)

// The records the algorithms ship between map and reduce and across cycle
// boundaries are fixed-width binary, carried in Go strings. The unit is the
// member, one tuple of one relation:
//
//	member:  [rel][arity][id][start,end]*arity
//
// rel and arity are one byte each (NewContext rejects a query they cannot
// name), every number is 8 bytes little-endian (relation.AppendBinary), so a
// member of arity a is memberLen(a) = 10+16a bytes and every field sits at a
// fixed offset. Everything else is members with something behind them:
//
//	tagged tuple:        member
//	partial assignment:  member member ...        (bind-step and FCTS intermediates)
//
// and two records carry a mark or prune cycle's decisions to its tap, each
// naming a tuple by its relation and id:
//
//	vertex flag:         [rel][attr][id]          (mark output: this vertex is replicated)
//	prune record:        [rel][id]                (PASM cycle 2: this tuple is pruned)
//
// Nothing is formatted or parsed as text on this path; text lives in
// relation files and Context.Stage.

const (
	headerLen    = 2   // [rel][arity]
	maxRelations = 256 // what the rel byte can name
	maxArity     = 255 // what the arity byte can name
)

func memberLen(arity int) int { return headerLen + 8 + 16*arity }

// appendMember appends t as a member of relation rel.
func appendMember(b []byte, rel int, t relation.Tuple) []byte {
	return relation.AppendBinary(append(b, byte(rel), byte(len(t.Attrs))), t)
}

// splitMember reads the header of the member s starts with: its relation and
// the length of its encoding, which s is checked to hold.
func splitMember(s string) (rel, n int, err error) {
	if len(s) < headerLen || s[1] == 0 || len(s) < memberLen(int(s[1])) {
		return 0, 0, fmt.Errorf("core: record %q does not start with a whole member", s)
	}
	return int(s[0]), memberLen(int(s[1])), nil
}

// splitTagged splits a tagged record into its relation and the tuple body,
// without decoding the tuple — the reduce paths hand the body straight to
// the arena (relation.Arena.AppendBinary), which validates it.
func splitTagged(s string) (rel int, body string, err error) {
	rel, n, err := splitMember(s)
	if err != nil || n != len(s) {
		return 0, "", fmt.Errorf("core: record %q is not one whole member", s)
	}
	return rel, s[headerLen:], nil
}

// vertexFlagLen is the length of a vertex flag.
const vertexFlagLen = 2 + 8

// appendVertexFlag appends the vertex flag naming attribute attr of tuple id
// of relation rel.
func appendVertexFlag(b []byte, rel, attr int, id int64) []byte {
	return binary.LittleEndian.AppendUint64(append(b, byte(rel), byte(attr)), uint64(id))
}

// splitVertexFlag reads a vertex flag: the flagged vertex, relation rel's
// attribute attr, of tuple id.
func splitVertexFlag(s string) (rel, attr int, id int64, err error) {
	if len(s) != vertexFlagLen {
		return 0, 0, 0, fmt.Errorf("core: malformed vertex flag %q", s)
	}
	return int(s[0]), int(s[1]), relation.BinaryID(s[2:]), nil
}

// decodeTuple decodes the tuple of a member, its attributes appended to buf.
func decodeTuple(member string, buf []interval.Interval) (relation.Tuple, error) {
	id, attrs, err := relation.DecodeBinary(member[headerLen:], buf)
	return relation.Tuple{ID: id, Attrs: attrs}, err
}

// recordSlab is where a reducer builds the records it writes: one buffer per
// reduce call, every record a substring of it, the way every record a base
// map emits is a substring of the relation's slab (Context.tagged). A record
// is made room for, put piece by piece and taken with cut; the engine keeps
// the string it is handed, so a slab lives as long as any record of it is on
// its way to the next cycle.
type recordSlab struct {
	sb    strings.Builder
	start int // where the record being written begins
	// hint sizes the first buffer: about what the whole call will write.
	hint int
}

// room makes n more bytes fit, for the next record. When they do not, the
// slab moves on to a new buffer of twice the size rather than letting the
// Builder copy the records already cut — those keep the old one.
func (s *recordSlab) room(n int) {
	if s.sb.Len()+n <= s.sb.Cap() {
		return
	}
	size := max(2*s.sb.Cap(), n, s.hint)
	s.sb = strings.Builder{}
	s.sb.Grow(size)
	s.start = 0
}

func (s *recordSlab) put(b []byte) { s.sb.Write(b) }

// cut returns what was put since the last cut, as one record.
func (s *recordSlab) cut() string {
	rec := s.sb.String()[s.start:]
	s.start = s.sb.Len()
	return rec
}

// encodePartial renders the assignment binding tuples[i] to relation rels[i]
// into out: the members back to back, so a lone tagged tuple is a one-member
// partial assignment.
func encodePartial(out *recordSlab, rels []int, tuples []relation.Tuple) string {
	n := 0
	for _, t := range tuples {
		n += memberLen(len(t.Attrs))
	}
	out.room(n)
	var buf [headerLen + 8 + 16*4]byte // on the stack: up to four attributes a member
	for i, t := range tuples {
		out.put(appendMember(buf[:0], rels[i], t))
	}
	return out.cut()
}

// decodePartial parses encodePartial's output. The tuples' attributes share
// one backing array.
func decodePartial(s string) (partial, error) {
	slab := partialSlab{}
	slab.reserve(len(s))
	return slab.decode(s)
}

// partialSlab is where a reducer decodes the partial assignments it
// received: the relations, tuples and attributes of all of them in three
// arrays, each partial a window on them. Sized from the bytes to decode, the
// arrays never grow, so a reduce call costs three allocations, not three a
// value.
type partialSlab struct {
	rels   []int
	tuples []relation.Tuple
	attrs  []interval.Interval
}

// newPartialSlab has room for values.
func newPartialSlab(values []string) partialSlab {
	size := 0
	for _, v := range values {
		size += len(v)
	}
	var s partialSlab
	s.reserve(size)
	return s
}

// reserve makes room for size bytes of members: a member is at least
// memberLen(1) bytes, and 16 of them for each attribute.
func (s *partialSlab) reserve(size int) {
	most := size / memberLen(1)
	s.rels = make([]int, 0, most)
	s.tuples = make([]relation.Tuple, 0, most)
	s.attrs = make([]interval.Interval, 0, size/16)
}

// decode parses encodePartial's output into the slab.
func (s *partialSlab) decode(rec string) (partial, error) {
	first, attrs := len(s.rels), s.attrs
	for len(rec) > 0 {
		rel, n, err := splitMember(rec)
		if err != nil {
			return partial{}, err
		}
		at := len(attrs)
		t, err := decodeTuple(rec[:n], attrs)
		if err != nil {
			return partial{}, err
		}
		attrs = t.Attrs
		t.Attrs = attrs[at:len(attrs):len(attrs)]
		s.rels, s.tuples = append(s.rels, rel), append(s.tuples, t)
		rec = rec[n:]
	}
	if len(s.rels) == first {
		return partial{}, fmt.Errorf("core: empty partial assignment")
	}
	s.attrs = attrs
	last := len(s.rels)
	return partial{rels: s.rels[first:last:last], tuples: s.tuples[first:last:last]}, nil
}

// memberOf decodes the tuple relation rel binds in the partial assignment
// rec, its attributes appended to buf.
func memberOf(rec string, rel int, buf []interval.Interval) (relation.Tuple, error) {
	for len(rec) > 0 {
		r, n, err := splitMember(rec)
		if err != nil {
			return relation.Tuple{}, err
		}
		if r == rel {
			return decodeTuple(rec[:n], buf)
		}
		rec = rec[n:]
	}
	return relation.Tuple{}, fmt.Errorf("core: relation %d not bound in partial assignment", rel)
}

// relSlab is one relation's tuples as tagged records, one after the other in
// a single string: every record a base-relation map emits is a substring of
// it.
type relSlab struct {
	once   sync.Once
	data   string
	stride int
}

// tagged returns tuple pos of relation ri as a tagged record. The relation
// is encoded on the first call, once per Context, so a relation no cycle maps
// is never encoded; after that a record costs no formatting and no
// allocation.
func (c *Context) tagged(ri, pos int) string {
	s := &c.slabs[ri]
	s.once.Do(func() {
		r := c.Rels[ri]
		s.stride = memberLen(r.Schema.Arity())
		var sb strings.Builder
		sb.Grow(r.Len() * s.stride)
		buf := make([]byte, 0, s.stride)
		for _, t := range r.Tuples {
			sb.Write(appendMember(buf[:0], ri, t))
		}
		s.data = sb.String()
	})
	return s.data[pos*s.stride : (pos+1)*s.stride]
}
