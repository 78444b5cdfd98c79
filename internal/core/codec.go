package core

import (
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
//	flag vector:         member [f0][f1]...       (mark output: one flag per vertex)
//	vertex flag:         member [attr][f]         (Gen-Matrix mark output, pre-merge)
//	prune record:        [rel][id]                (PASM cycle 2)
//
// A flag is the byte 0 or 1. Because flags trail the member, a consumer that
// wants the tuple without them forwards record[:memberLen] — a substring —
// and a producer that adds them appends to the member it received. How many
// flags a vector holds is not in the record: its consumer checks the count
// against the relation's vertices (flaggedMap). Nothing is formatted or
// parsed as text on this path; text lives in relation files and Context.Stage.

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

// splitVector splits a flag-vector record into its member and the validated
// flags, parallel to the relation's vertices.
func splitVector(s string) (rel int, member, flags string, err error) {
	rel, n, err := splitMember(s)
	if err != nil {
		return 0, "", "", err
	}
	for i := n; i < len(s); i++ {
		if s[i] > 1 {
			return 0, "", "", fmt.Errorf("core: bad flag vector in %q", s)
		}
	}
	return rel, s[:n], s[n:], nil
}

// splitVertexFlagged splits a per-vertex flag record: the member, the
// flagged vertex's attribute and the replication decision.
func splitVertexFlagged(s string) (rel int, member string, attr int, replicate bool, err error) {
	rel, n, err := splitMember(s)
	if err != nil {
		return 0, "", 0, false, err
	}
	if len(s) != n+2 || s[n+1] > 1 {
		return 0, "", 0, false, fmt.Errorf("core: malformed vertex-flagged tuple %q", s)
	}
	return rel, s[:n], int(s[n]), s[n+1] == 1, nil
}

// decodeTuple decodes the tuple of a member, its attributes appended to buf.
func decodeTuple(member string, buf []interval.Interval) (relation.Tuple, error) {
	id, attrs, err := relation.DecodeBinary(member[headerLen:], buf)
	return relation.Tuple{ID: id, Attrs: attrs}, err
}

// flagSuffix[f] is the one-flag trailer of a mark record, attrFlagSuffix[a][f]
// the trailer of a vertex-flag record for attribute a.
var (
	flagSuffix     = [2]string{"\x00", "\x01"}
	attrFlagSuffix = func() (t [maxArity + 1][2]string) {
		for a := range t {
			t[a] = [2]string{string([]byte{byte(a), 0}), string([]byte{byte(a), 1})}
		}
		return t
	}()
)

func flagIndex(f bool) int {
	if f {
		return 1
	}
	return 0
}

// encodePartial renders the assignment binding tuples[i] to relation rels[i]:
// the members back to back, so a lone tagged tuple is a one-member partial
// assignment.
func encodePartial(rels []int, tuples []relation.Tuple) string {
	b := make([]byte, 0, 128) // on the stack: four single-attribute members
	for i, t := range tuples {
		b = appendMember(b, rels[i], t)
	}
	return string(b)
}

// decodePartial parses encodePartial's output. The tuples' attributes share
// one backing array.
func decodePartial(s string) (partial, error) {
	most := len(s) / memberLen(1)
	pa := partial{rels: make([]int, 0, most), tuples: make([]relation.Tuple, 0, most)}
	attrs := make([]interval.Interval, 0, len(s)/16)
	for len(s) > 0 {
		rel, n, err := splitMember(s)
		if err != nil {
			return partial{}, err
		}
		at := len(attrs)
		t, err := decodeTuple(s[:n], attrs)
		if err != nil {
			return partial{}, err
		}
		attrs = t.Attrs
		t.Attrs = attrs[at:len(attrs):len(attrs)]
		pa.rels, pa.tuples = append(pa.rels, rel), append(pa.tuples, t)
		s = s[n:]
	}
	if len(pa.rels) == 0 {
		return partial{}, fmt.Errorf("core: empty partial assignment")
	}
	return pa, nil
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
